#include "core/cdpsm.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "net/wire.hpp"
#include "optim/flow.hpp"
#include "optim/projection.hpp"

namespace edr::core {
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
  previous_estimates_ = estimates_;
  consensus_ = seed;
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
  // column — the projection onto X_n.  The capacity half-step moves column
  // n only, so its corrections are kept per column entry.  Each half-step
  // is one pass, per row or over the column; every update (v + c, b − v)
  // rounds once, as the axpy kernels' 1.0 and −1.0 forms do in any mode.
  // Thread-local scratch: this runs once per replica per round, inside a
  // pool lane when the round is parallel; the inner projections stay
  // serial.
  thread_local std::vector<double> corr_demand;
  thread_local std::vector<double> corr_capacity;
  thread_local std::vector<double> previous;
  thread_local std::vector<double> column;
  const common::SparsityPattern& pattern = estimate.pattern();
  const auto positions = pattern.col_positions(n);
  const double bandwidth = work_->replica(n).bandwidth;
  const std::span<double> values = estimate.values();
  corr_demand.assign(values.size(), 0.0);
  corr_capacity.assign(positions.size(), 0.0);
  previous.assign(values.begin(), values.end());
  column.resize(positions.size());
  for (std::size_t iter = 0; iter < 200; ++iter) {
    for (std::size_t c = 0; c < work_->num_clients(); ++c) {
      const std::size_t begin = pattern.row_begin(c);
      const std::span<double> row = estimate.row(c);
      // The row's correction slots hold its pre-projection values until
      // the projection is done, then the new corrections.
      for (std::size_t i = 0; i < row.size(); ++i)
        corr_demand[begin + i] = row[i] += corr_demand[begin + i];
      optim::project_simplex_active(row, work_->demand(c), options_.simd);
      for (std::size_t i = 0; i < row.size(); ++i)
        corr_demand[begin + i] -= row[i];
    }

    for (std::size_t i = 0; i < positions.size(); ++i)
      column[i] = values[positions[i]] += corr_capacity[i];
    optim::project_capped_nonneg(column, bandwidth, options_.simd);
    for (std::size_t i = 0; i < positions.size(); ++i) {
      corr_capacity[i] = values[positions[i]] - column[i];
      values[positions[i]] = column[i];
    }

    if (common::simd::distance_within(options_.simd, values, previous,
                                      1e-11))
      break;
    previous.assign(values.begin(), values.end());
  }
  // End on the demand set so row sums are exact.
  optim::project_demand_set(*work_, estimate, nullptr, options_.simd);
}

void CdpsmEngine::update_replica(std::size_t n,
                                 common::SparseAllocation& out,
                                 CdpsmReplicaStats* stats) const {
  std::ranges::copy(consensus_.values(), out.values().begin());

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
  return advance(telemetry_attached_ || collect_stats_);
}

CdpsmRoundStats CdpsmEngine::advance(bool residuals) {
  const std::size_t replicas = estimates_.size();
  CdpsmRoundStats stats;
  stats.round = ++rounds_;
  rounds_metric_.add(1);

  if (collect_stats_) replica_stats_.assign(replicas, {});
  {
    telemetry::ScopedSpan span(*tracer_, "cdpsm.consensus_gradient",
                               "solver");
    // Consensus with uniform weights a_j = 1/|N| (doubly stochastic on the
    // complete exchange graph the paper uses) is one vector for all
    // replicas: built once, in peer order.  Then the round-k estimates move
    // to previous_estimates_ and every lane writes only its own replica's
    // next estimate — bitwise identical for every lane count.
    const double weight = 1.0 / static_cast<double>(replicas);
    consensus_.fill(0.0);
    for (const common::SparseAllocation& estimate : estimates_)
      consensus_.axpy(weight, estimate, options_.simd);
    std::swap(estimates_, previous_estimates_);
    const auto step_block = [this](std::size_t /*lane*/, std::size_t begin,
                                   std::size_t end) {
      for (std::size_t n = begin; n < end; ++n) {
        update_replica(n, estimates_[n],
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

  if (residuals) consensus_residuals(stats);
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
  if (residuals) {
    disagreement_metric_.set(stats.disagreement);
    movement_metric_.set(stats.movement);
  }
  const bool stable =
      has_last_ && common::simd::distance_within(
                       options_.simd, scratch_solution_.values(),
                       last_solution_.values(), options_.tolerance * scale);
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

void CdpsmEngine::consensus_residuals(CdpsmRoundStats& stats) const {
  // Reductions stay serial and in index order (part of the determinism
  // contract; max() is order-insensitive but keeping one code path is
  // simpler to reason about than proving each reduction safe).
  const std::size_t replicas = estimates_.size();
  for (std::size_t n = 0; n < replicas; ++n) {
    stats.movement = std::max(
        stats.movement,
        estimates_[n].distance(previous_estimates_[n], options_.simd));
    for (std::size_t m = n + 1; m < replicas; ++m)
      stats.disagreement =
          std::max(stats.disagreement,
                   estimates_[n].distance(estimates_[m], options_.simd));
  }
}

optim::ConvergenceTrace CdpsmEngine::run() {
  optim::ConvergenceTrace trace;
  double bytes_total = 0.0;
  while (!converged_ && rounds_ < options_.max_rounds) {
    const auto stats = advance(/*residuals=*/true);
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
  telemetry_attached_ = true;
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
