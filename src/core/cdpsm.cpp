#include "core/cdpsm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "net/wire.hpp"
#include "optim/flow.hpp"
#include "optim/projection.hpp"

namespace edr::core {
namespace {

/// Project column n onto {q ≥ 0, Σq ≤ B_n} through the pattern's column
/// view, leaving other columns alone.  Thread-local scratch: runs inside
/// the per-replica parallel round, up to 200 times per projection, so it
/// must not allocate.
void project_column_capacity(const optim::Problem& problem, std::size_t n,
                             common::SparseAllocation& allocation,
                             common::simd::Mode simd) {
  thread_local std::vector<double> column;
  const auto positions = allocation.pattern().col_positions(n);
  const std::span<double> values = allocation.values();
  column.resize(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i)
    column[i] = values[positions[i]];
  optim::project_capped_nonneg(column, problem.replica(n).bandwidth, simd);
  for (std::size_t i = 0; i < positions.size(); ++i)
    values[positions[i]] = column[i];
}

}  // namespace

CdpsmEngine::CdpsmEngine(const optim::Problem& problem, CdpsmOptions options)
    : problem_(&problem), options_(options) {
  const std::string issue = problem.validate();
  if (!issue.empty())
    throw std::invalid_argument("CdpsmEngine: invalid problem: " + issue);
  work_ = problem_;
  if (options_.representation == SolverRepresentation::kAggregated) {
    aggregation_ = std::make_unique<ClientAggregation>(
        build_client_aggregation(problem));
    aggregated_problem_ = std::make_unique<optim::Problem>(
        aggregate_problem(problem, *aggregation_));
    work_ = aggregated_problem_.get();
  }
  auto start = optim::initial_feasible_point(*work_);
  if (!start)
    throw std::runtime_error("CdpsmEngine: instance is not feasible");
  step_ = options_.step > 0.0
              ? options_.step
              : 1.0 / std::max(work_->gradient_lipschitz_bound(), 1e-9);
  common::SparseAllocation seed(work_->sparsity());
  seed.from_dense(*start);
  estimates_.assign(work_->num_replicas(), seed);
}

common::ThreadPool* CdpsmEngine::pool() const {
  if (external_pool_ != nullptr)
    return external_pool_->lanes() > 1 ? external_pool_ : nullptr;
  const std::size_t lanes = common::ThreadPool::resolve(options_.threads);
  if (lanes <= 1) return nullptr;
  if (owned_pool_ == nullptr)
    owned_pool_ = std::make_unique<common::ThreadPool>(lanes);
  return owned_pool_.get();
}

void CdpsmEngine::project_local(std::size_t n,
                                common::SparseAllocation& estimate) const {
  // Dykstra between the shared demand set and this replica's capacity
  // column — the projection onto X_n — with flat per-feasible-pair
  // correction vectors.  Thread-local scratch: this runs once per replica
  // per round, inside a pool lane when the round is parallel.  The inner
  // projections stay serial — the replica loop already owns the lanes.
  thread_local std::vector<double> corr_demand;
  thread_local std::vector<double> corr_capacity;
  thread_local std::vector<double> previous;
  thread_local std::vector<double> before;
  const std::span<double> values = estimate.values();
  corr_demand.assign(values.size(), 0.0);
  corr_capacity.assign(values.size(), 0.0);
  previous.assign(values.begin(), values.end());
  before.resize(values.size());
  for (std::size_t iter = 0; iter < 200; ++iter) {
    common::simd::axpy(options_.simd, values, 1.0, corr_demand);
    std::copy(values.begin(), values.end(), before.begin());
    optim::project_demand_set(*work_, estimate, nullptr, options_.simd);
    corr_demand.assign(before.begin(), before.end());
    common::simd::axpy(options_.simd, corr_demand, -1.0, values);

    common::simd::axpy(options_.simd, values, 1.0, corr_capacity);
    std::copy(values.begin(), values.end(), before.begin());
    project_column_capacity(*work_, n, estimate, options_.simd);
    corr_capacity.assign(before.begin(), before.end());
    common::simd::axpy(options_.simd, corr_capacity, -1.0, values);

    const double change = common::simd::distance(options_.simd, values,
                                                 previous);
    previous.assign(values.begin(), values.end());
    if (change <= 1e-11) break;
  }
  // End on the demand set so row sums are exact.
  optim::project_demand_set(*work_, estimate, nullptr, options_.simd);
}

void CdpsmEngine::update_replica(
    std::size_t n, std::span<const common::SparseAllocation> peer_estimates,
    common::SparseAllocation& out, CdpsmReplicaStats* stats) const {
  // Consensus with uniform weights a_j = 1/|N| (doubly stochastic on the
  // complete exchange graph the paper uses).
  const double weight = 1.0 / static_cast<double>(peer_estimates.size());
  if (out.empty()) out = common::SparseAllocation(work_->sparsity());
  out.fill(0.0);
  for (const common::SparseAllocation& peer : peer_estimates)
    out.axpy(weight, peer, options_.simd);

  // Gradient of the *local* objective E_n: only column n's feasible
  // entries are non-zero.
  const double load = out.col_sum(n);
  const double derivative =
      optim::replica_cost_derivative(work_->replica(n), load);
  const double step =
      options_.diminishing_step
          ? step_ / std::sqrt(static_cast<double>(rounds_ + 1))
          : step_;
  const std::span<double> values = out.values();
  for (const std::uint32_t p : out.pattern().col_positions(n))
    values[p] -= step * derivative;

  if (stats != nullptr) {
    stats->local_objective = optim::replica_cost(work_->replica(n), load);
    stats->gradient_norm =
        std::abs(derivative) *
        std::sqrt(static_cast<double>(work_->num_clients()));
    thread_local std::vector<double> pre_projection;
    pre_projection.assign(values.begin(), values.end());
    project_local(n, out);
    stats->projection_correction =
        common::simd::distance(options_.simd, values, pre_projection);
    stats->load = out.col_sum(n);
    return;
  }
  project_local(n, out);
}

CdpsmRoundStats CdpsmEngine::round() {
  const std::size_t replicas = estimates_.size();
  CdpsmRoundStats stats;
  stats.round = ++rounds_;
  rounds_metric_.add(1);

  if (collect_stats_) replica_stats_.assign(replicas, {});
  {
    telemetry::ScopedSpan span(*tracer_, "cdpsm.consensus_gradient",
                               "solver");
    // Per-replica consensus+gradient+projection, one static block of
    // replicas per lane.  Every lane reads the shared previous snapshot and
    // writes only its own estimate — disjoint writes, so the result is
    // bitwise identical for every lane count.
    previous_estimates_ = estimates_;  // copy-assign reuses scratch
    const auto step_block = [this](std::size_t /*lane*/, std::size_t begin,
                                   std::size_t end) {
      for (std::size_t n = begin; n < end; ++n) {
        update_replica(n, previous_estimates_, estimates_[n],
                       collect_stats_ ? &replica_stats_[n] : nullptr);
        if (collect_stats_)
          replica_stats_[n].load_delta =
              replica_stats_[n].load - previous_estimates_[n].col_sum(n);
      }
    };
    if (common::ThreadPool* p = pool(); p != nullptr)
      p->for_blocks(replicas, step_block);
    else
      step_block(0, 0, replicas);
  }

  // Reductions stay serial and in index order (part of the determinism
  // contract; max() is order-insensitive but keeping one code path is
  // simpler to reason about than proving each reduction safe).
  for (std::size_t n = 0; n < replicas; ++n) {
    stats.movement = std::max(
        stats.movement,
        estimates_[n].distance(previous_estimates_[n], options_.simd));
    for (std::size_t m = n + 1; m < replicas; ++m)
      stats.disagreement =
          std::max(stats.disagreement,
                   estimates_[n].distance(estimates_[m], options_.simd));
  }
  stats.bytes_exchanged = bytes_per_replica_round() * replicas;
  messages_exchanged_ += replicas * (replicas - 1);
  bytes_exchanged_ += stats.bytes_exchanged;
  messages_metric_.add(replicas * (replicas - 1));
  bytes_metric_.add(stats.bytes_exchanged);

  telemetry::ScopedSpan recover_span(*tracer_, "cdpsm.recover", "solver");
  const double scale = std::max(problem_->total_demand(), 1.0);
  solution_into(scratch_solution_);
  // The aggregated objective equals the disaggregated one (the fan-out
  // preserves column sums), so this is the true E_g either way.
  stats.objective = work_->total_cost(scratch_solution_);
  objective_metric_.set(stats.objective);
  disagreement_metric_.set(stats.disagreement);
  movement_metric_.set(stats.movement);
  const bool stable =
      has_last_ && scratch_solution_.distance(last_solution_, options_.simd) <=
                       options_.tolerance * scale;
  if (stable) {
    if (++stable_rounds_ >= options_.patience) converged_ = true;
  } else {
    stable_rounds_ = 0;
  }
  // Double-buffer: the new solution becomes last_solution_, the old buffer
  // becomes next round's scratch.
  std::swap(last_solution_, scratch_solution_);
  has_last_ = true;
  return stats;
}

optim::ConvergenceTrace CdpsmEngine::run() {
  optim::ConvergenceTrace trace;
  double bytes_total = 0.0;
  while (!converged_ && rounds_ < options_.max_rounds) {
    const auto stats = round();
    bytes_total += static_cast<double>(stats.bytes_exchanged);
    trace.record({stats.round, stats.objective,
                  std::max(stats.disagreement, stats.movement), bytes_total});
  }
  return trace;
}

Matrix CdpsmEngine::solution() const {
  solution_into(solution_tmp_);
  return expand_solution(solution_tmp_, aggregation_.get());
}

void CdpsmEngine::solution_into(common::SparseAllocation& out) const {
  if (out.empty()) out = common::SparseAllocation(work_->sparsity());
  const double weight = 1.0 / static_cast<double>(estimates_.size());
  out.fill(0.0);
  for (const common::SparseAllocation& estimate : estimates_)
    out.axpy(weight, estimate, options_.simd);
  optim::DykstraOptions dykstra;
  dykstra.pool = pool();
  dykstra.simd = options_.simd;
  optim::project_feasible(*work_, out, dykstra);
}

void CdpsmEngine::attach_telemetry(telemetry::Telemetry& telemetry) {
  tracer_ = &telemetry.tracer();
  auto& metrics = telemetry.metrics();
  rounds_metric_ = metrics.counter("solver.cdpsm.rounds");
  messages_metric_ = metrics.counter("solver.cdpsm.messages");
  bytes_metric_ = metrics.counter("solver.cdpsm.bytes");
  objective_metric_ = metrics.gauge("solver.cdpsm.objective");
  disagreement_metric_ = metrics.gauge("solver.cdpsm.disagreement");
  movement_metric_ = metrics.gauge("solver.cdpsm.movement");
}

std::size_t CdpsmEngine::bytes_per_replica_round() const {
  if (options_.representation == SolverRepresentation::kDense) {
    // Each replica ships its full |C|x|N| estimate to every other replica —
    // the O(|C|·|N|³) total the paper charges CDPSM with.
    return net::wire_size_matrix(problem_->num_clients(),
                                 problem_->num_replicas()) *
           (estimates_.size() - 1);
  }
  // Compact frames: one (position, value) pair per feasible pair of the
  // work problem, to every peer.  Aggregation shrinks this further — the
  // aggregated pattern has one row per equivalence class.
  return net::wire_size_indexed_doubles(work_->sparsity()->nnz()) *
         (estimates_.size() - 1);
}

}  // namespace edr::core
