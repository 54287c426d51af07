#include "optim/projection.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "optim/problem.hpp"

namespace edr::optim {
namespace {

// Rows this short sort through a fixed comparator network instead of
// std::sort.  A demand row holds at most one entry per replica, so at the
// paper's 8 replicas every demand row of every solver takes the network.
constexpr std::size_t kNetworkWidth = 8;

/// Sort `v` descending with Batcher's 19-comparator odd-even merge
/// network.  Each compare-exchange is a branch-free std::max/std::min pair.
/// On equal keys both return the first operand, so a +0/−0 pair can come
/// out as two +0s (or two −0s); the threshold below cannot tell: it only
/// compares the keys and adds them to a sum that starts at +0.0.  One
/// block of calls per layer of the network.
void sort_descending(std::array<double, kNetworkWidth>& v) {
  const auto exchange = [&v](std::size_t i, std::size_t j) {
    const double high = std::max(v[i], v[j]);
    const double low = std::min(v[i], v[j]);
    v[i] = high;
    v[j] = low;
  };
  exchange(0, 1);
  exchange(2, 3);
  exchange(4, 5);
  exchange(6, 7);

  exchange(0, 2);
  exchange(1, 3);
  exchange(4, 6);
  exchange(5, 7);

  exchange(1, 2);
  exchange(5, 6);

  exchange(0, 4);
  exchange(1, 5);
  exchange(2, 6);
  exchange(3, 7);

  exchange(2, 4);
  exchange(3, 5);

  exchange(1, 2);
  exchange(3, 4);
  exchange(5, 6);
}

// Per-thread scratch for the projections below.  These run hundreds of
// times per Dykstra sweep and per solver round, so they must not touch the
// heap after warm-up; thread-local because the demand/capacity sweeps run
// one lane per pool thread.  Each buffer has one owner: the masked gather,
// the long-row sort in simplex_threshold, the dense row mask and the
// column gather.  The call chains here (project_demand_set →
// project_masked_simplex or project_simplex_active → simplex_threshold,
// project_capacity_set → project_capped_nonneg → project_simplex →
// project_simplex_active) never alias a buffer a caller still holds.
std::vector<double>& active_scratch() {
  thread_local std::vector<double> active;
  return active;
}
std::vector<double>& sort_scratch() {
  thread_local std::vector<double> sorted;
  return sorted;
}
std::vector<double>& row_mask_scratch() {
  thread_local std::vector<double> mask;
  return mask;
}
std::vector<double>& column_scratch() {
  thread_local std::vector<double> column;
  return column;
}

/// Running-sum scan for the simplex threshold over `sorted` (descending):
/// the τ with Σ max(v_i − τ, 0) = target.
double threshold_scan(std::span<const double> sorted, double target) {
  double running = 0.0;
  double tau = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    running += sorted[i];
    const double candidate = (running - target) / static_cast<double>(i + 1);
    if (candidate >= sorted[i]) {
      // Coordinate i would be clipped to ≤ 0, so the support is the first i
      // coordinates and the previous candidate is τ — except at i == 0,
      // which only happens for target == 0, where τ = v_0 zeroes the whole
      // vector exactly.
      if (i == 0) tau = candidate;
      break;
    }
    tau = candidate;
  }
  return tau;
}

/// Threshold for the simplex over the active values (any order).  τ
/// depends only on the descending sequence of the values, so the network
/// and std::sort paths return the same bits.  Each path calls the scan on
/// its own buffer: a scan shared after the branch reads the network
/// through a pointer that may address either buffer, so the eight values
/// leave registers (measured: about 10% more wall time on scale-cdpsm).
double simplex_threshold(std::span<const double> values, double target) {
  if (values.size() <= kNetworkWidth) {
    // Unused slots hold −∞, which sorts last.  An element loop, not
    // fill + copy: those compile to a memcpy call.
    std::array<double, kNetworkWidth> network;
    for (std::size_t i = 0; i < kNetworkWidth; ++i)
      network[i] = i < values.size()
                       ? values[i]
                       : -std::numeric_limits<double>::infinity();
    sort_descending(network);
    return threshold_scan(std::span(network).first(values.size()), target);
  }
  std::vector<double>& sorted = sort_scratch();
  sorted.assign(values.begin(), values.end());
  std::ranges::sort(sorted, std::greater<>());
  return threshold_scan(sorted, target);
}

}  // namespace

void project_masked_simplex(std::span<double> values,
                            std::span<const double> mask, double target,
                            common::simd::Mode simd) {
  assert(values.size() == mask.size());
  if (target < 0.0)
    throw std::invalid_argument("project_masked_simplex: negative target");

  std::vector<double>& active = active_scratch();
  active.clear();
  active.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    if (mask[i] != 0.0) active.push_back(values[i]);

  if (active.empty()) {
    if (target > 0.0)
      throw std::invalid_argument(
          "project_masked_simplex: positive target with empty mask");
    for (double& v : values) v = 0.0;
    return;
  }

  const double tau = simplex_threshold(active, target);
  common::simd::masked_sub_clamp(simd, values, mask, tau);
}

void project_simplex(std::span<double> values, double target,
                     common::simd::Mode simd) {
  project_simplex_active(values, target, simd);
}

void project_simplex_active(std::span<double> values, double target,
                            common::simd::Mode simd) {
  if (target < 0.0)
    throw std::invalid_argument("project_simplex_active: negative target");

  if (values.empty()) {
    if (target > 0.0)
      throw std::invalid_argument(
          "project_simplex_active: positive target with no coordinates");
    return;
  }

  // Same threshold as the masked form with an all-active mask, so the
  // result is bitwise identical to it.
  const double tau = simplex_threshold(values, target);
  common::simd::sub_clamp(simd, values, tau);
}

void project_capped_nonneg(std::span<double> values, double cap,
                           common::simd::Mode simd) {
  const double total = common::simd::clip_nonneg_sum(simd, values);
  if (total <= cap) return;
  project_simplex(values, cap, simd);
}

void project_demand_set(const Problem& problem, Matrix& allocation,
                        common::ThreadPool* pool, common::simd::Mode simd) {
  const auto rows = [&problem, &allocation, simd](std::size_t /*lane*/,
                                                  std::size_t begin,
                                                  std::size_t end) {
    std::vector<double>& mask = row_mask_scratch();
    mask.resize(problem.num_replicas());
    for (std::size_t c = begin; c < end; ++c) {
      for (std::size_t n = 0; n < problem.num_replicas(); ++n)
        mask[n] = problem.feasible_pair(c, n) ? 1.0 : 0.0;
      project_masked_simplex(allocation.row(c), mask, problem.demand(c),
                             simd);
    }
  };
  if (pool != nullptr && pool->lanes() > 1)
    pool->for_blocks(problem.num_clients(), rows);
  else
    rows(0, 0, problem.num_clients());
}

void project_capacity_set(const Problem& problem, Matrix& allocation,
                          common::ThreadPool* pool, common::simd::Mode simd) {
  const auto cols = [&problem, &allocation, simd](std::size_t /*lane*/,
                                                  std::size_t begin,
                                                  std::size_t end) {
    std::vector<double>& column = column_scratch();
    column.resize(problem.num_clients());
    for (std::size_t n = begin; n < end; ++n) {
      for (std::size_t c = 0; c < problem.num_clients(); ++c)
        column[c] = allocation(c, n);
      project_capped_nonneg(column, problem.replica(n).bandwidth, simd);
      for (std::size_t c = 0; c < problem.num_clients(); ++c)
        allocation(c, n) = column[c];
    }
  };
  if (pool != nullptr && pool->lanes() > 1)
    pool->for_blocks(problem.num_replicas(), cols);
  else
    cols(0, 0, problem.num_replicas());
}

DykstraResult project_feasible(const Problem& problem, Matrix& allocation,
                               const DykstraOptions& options) {
  // Dykstra correction terms for each of the two set families.  Held in
  // thread-local scratch (never nested on one thread) so the per-round
  // callers — CDPSM/LDDM primal recovery, once per solver round — stop
  // re-allocating four |C|×|N| matrices every round.
  thread_local Matrix correction_demand;
  thread_local Matrix correction_capacity;
  thread_local Matrix previous;
  thread_local Matrix before;
  correction_demand.reshape(allocation.rows(), allocation.cols(), 0.0);
  correction_capacity.reshape(allocation.rows(), allocation.cols(), 0.0);
  previous = allocation;

  DykstraResult result;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    // Demand (simplex) half-step.
    allocation.axpy(1.0, correction_demand, options.simd);
    before = allocation;
    project_demand_set(problem, allocation, options.pool, options.simd);
    correction_demand = before;
    correction_demand.axpy(-1.0, allocation, options.simd);

    // Capacity half-step.
    allocation.axpy(1.0, correction_capacity, options.simd);
    before = allocation;
    project_capacity_set(problem, allocation, options.pool, options.simd);
    correction_capacity = before;
    correction_capacity.axpy(-1.0, allocation, options.simd);

    result.iterations = iter + 1;
    result.final_change = allocation.distance(previous, options.simd);
    previous = allocation;
    if (result.final_change <= options.tolerance) {
      // One extra criterion: the iterate must actually satisfy the demand
      // rows (the sweep ends on the capacity projection, which can leave
      // row sums slightly short until convergence).
      if (check_feasibility(problem, allocation).ok(1e-7)) {
        result.converged = true;
        break;
      }
    }
  }
  // Final cleanup: snap to the demand set so row sums are exact.  When the
  // sweep converged, any capacity violation this re-introduces is below
  // tolerance; when the iteration cap was hit, it can be arbitrary — report
  // it instead of masking it.
  project_demand_set(problem, allocation, options.pool, options.simd);
  if (!result.converged)
    result.capacity_residual =
        check_feasibility(problem, allocation).max_capacity_violation;
  return result;
}

void project_demand_set(const Problem& problem,
                        common::SparseAllocation& allocation,
                        common::ThreadPool* pool, common::simd::Mode simd) {
  assert(allocation.pattern_ptr().get() == problem.sparsity().get());
  const auto rows = [&problem, &allocation, simd](std::size_t /*lane*/,
                                                  std::size_t begin,
                                                  std::size_t end) {
    for (std::size_t c = begin; c < end; ++c)
      project_simplex_active(allocation.row(c), problem.demand(c), simd);
  };
  if (pool != nullptr && pool->lanes() > 1)
    pool->for_blocks(problem.num_clients(), rows);
  else
    rows(0, 0, problem.num_clients());
}

void project_capacity_set(const Problem& problem,
                          common::SparseAllocation& allocation,
                          common::ThreadPool* pool, common::simd::Mode simd) {
  assert(allocation.pattern_ptr().get() == problem.sparsity().get());
  const common::SparsityPattern& pattern = allocation.pattern();
  const auto cols = [&problem, &allocation, &pattern,
                     simd](std::size_t /*lane*/, std::size_t begin,
                           std::size_t end) {
    std::vector<double>& column = column_scratch();
    const std::span<double> values = allocation.values();
    for (std::size_t n = begin; n < end; ++n) {
      const auto positions = pattern.col_positions(n);
      column.resize(positions.size());
      for (std::size_t i = 0; i < positions.size(); ++i)
        column[i] = values[positions[i]];
      project_capped_nonneg(column, problem.replica(n).bandwidth, simd);
      for (std::size_t i = 0; i < positions.size(); ++i)
        values[positions[i]] = column[i];
    }
  };
  if (pool != nullptr && pool->lanes() > 1)
    pool->for_blocks(problem.num_replicas(), cols);
  else
    cols(0, 0, problem.num_replicas());
}

DykstraResult project_feasible(const Problem& problem,
                               common::SparseAllocation& allocation,
                               const DykstraOptions& options) {
  assert(allocation.pattern_ptr().get() == problem.sparsity().get());
  // Same scheme as the dense overload, with one double per feasible pair in
  // the correction/snapshot buffers instead of full |C|×|N| matrices.
  thread_local std::vector<double> correction_demand;
  thread_local std::vector<double> correction_capacity;
  thread_local std::vector<double> previous;
  thread_local std::vector<double> before;
  const std::span<double> values = allocation.values();
  correction_demand.assign(values.size(), 0.0);
  correction_capacity.assign(values.size(), 0.0);
  previous.assign(values.begin(), values.end());
  before.resize(values.size());

  DykstraResult result;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    // Demand (simplex) half-step.
    common::simd::axpy(options.simd, values, 1.0, correction_demand);
    std::copy(values.begin(), values.end(), before.begin());
    project_demand_set(problem, allocation, options.pool, options.simd);
    correction_demand.assign(before.begin(), before.end());
    common::simd::axpy(options.simd, correction_demand, -1.0, values);

    // Capacity half-step.
    common::simd::axpy(options.simd, values, 1.0, correction_capacity);
    std::copy(values.begin(), values.end(), before.begin());
    project_capacity_set(problem, allocation, options.pool, options.simd);
    correction_capacity.assign(before.begin(), before.end());
    common::simd::axpy(options.simd, correction_capacity, -1.0, values);

    result.iterations = iter + 1;
    result.final_change = common::simd::distance(options.simd, values,
                                                 previous);
    previous.assign(values.begin(), values.end());
    if (result.final_change <= options.tolerance) {
      if (check_feasibility(problem, allocation).ok(1e-7)) {
        result.converged = true;
        break;
      }
    }
  }
  project_demand_set(problem, allocation, options.pool, options.simd);
  if (!result.converged)
    result.capacity_residual =
        check_feasibility(problem, allocation).max_capacity_violation;
  return result;
}

}  // namespace edr::optim
