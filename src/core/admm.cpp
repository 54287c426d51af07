#include "core/admm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "optim/flow.hpp"
#include "optim/objective.hpp"
#include "optim/projection.hpp"

namespace edr::core {

AdmmEngine::AdmmEngine(const optim::Problem& problem, AdmmOptions options)
    : problem_(&problem), options_(options) {
  const std::string issue = problem.validate();
  if (!issue.empty())
    throw std::invalid_argument("AdmmEngine: invalid problem: " + issue);
  if (options_.rho <= 0.0)
    throw std::invalid_argument("AdmmEngine: rho must be > 0");
  if (options_.adapt_factor <= 1.0)
    throw std::invalid_argument("AdmmEngine: adapt_factor must be > 1");
  if (options_.adapt_threshold <= 1.0)
    throw std::invalid_argument("AdmmEngine: adapt_threshold must be > 1");
  rho_ = options_.rho;

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
    throw std::runtime_error("AdmmEngine: instance is not feasible");

  const common::SparsityPattern& pattern = *work_->sparsity();
  const std::size_t replicas = work_->num_replicas();
  zero_mu_.assign(work_->num_clients(), 0.0);
  prox_scratch_.resize(replicas);
  column_scratch_.resize(replicas);
  x_ = common::SparseAllocation(work_->sparsity());
  z_ = common::SparseAllocation(work_->sparsity());
  u_ = common::SparseAllocation(work_->sparsity());
  z_prev_ = common::SparseAllocation(work_->sparsity());
  z_.from_dense(*start);
  for (std::size_t n = 0; n < replicas; ++n) {
    const std::size_t size = pattern.col_nnz(n);
    prox_scratch_[n].assign(size, 0.0);
    column_scratch_[n].assign(size, 0.0);
  }
}

common::ThreadPool* AdmmEngine::pool() const {
  if (external_pool_ != nullptr)
    return external_pool_->lanes() > 1 ? external_pool_ : nullptr;
  const std::size_t lanes = common::ThreadPool::resolve(options_.threads);
  if (lanes <= 1) return nullptr;
  if (owned_pool_ == nullptr)
    owned_pool_ = std::make_unique<common::ThreadPool>(lanes);
  return owned_pool_.get();
}

void AdmmEngine::set_state(const Matrix& z, const Matrix& u) {
  if (aggregation_ != nullptr)
    throw std::logic_error(
        "AdmmEngine::set_state: not available under aggregation");
  if (rounds_ != 0)
    throw std::logic_error(
        "AdmmEngine::set_state: only valid before the first round");
  const std::size_t clients = work_->num_clients();
  const std::size_t replicas = work_->num_replicas();
  if (z.rows() != clients || z.cols() != replicas || u.rows() != clients ||
      u.cols() != replicas)
    throw std::invalid_argument("AdmmEngine::set_state: shape mismatch");
  // Keep only the feasible pairs (the warm carrier may hold stale mass
  // elsewhere after a membership change) and restore demand feasibility —
  // the x-update assumes its prox center came from a point in A.
  z_.from_dense(z);
  u_.from_dense(u);
  optim::project_demand_set(*work_, z_, nullptr, options_.simd);
}

Matrix AdmmEngine::consensus() const {
  Matrix dense;
  z_.to_dense(dense);
  return dense;
}

Matrix AdmmEngine::duals() const {
  Matrix dense;
  u_.to_dense(dense);
  return dense;
}

void AdmmEngine::solve_replica(std::size_t n) {
  // Prox center z_n − u_n; the subproblem enforces nonnegativity and the
  // capacity cap, so x_n lands in B_n exactly.
  const auto positions = work_->sparsity()->col_positions(n);
  const std::span<const double> z_values = z_.values();
  const std::span<const double> u_values = u_.values();
  std::vector<double>& prox = prox_scratch_[n];
  for (std::size_t i = 0; i < positions.size(); ++i)
    prox[i] = z_values[positions[i]] - u_values[positions[i]];
  optim::solve_replica_subproblem_into(
      work_->replica(n),
      std::span<const double>(zero_mu_.data(), positions.size()), prox, rho_,
      column_scratch_[n]);
  const std::span<double> x_values = x_.values();
  for (std::size_t i = 0; i < positions.size(); ++i)
    x_values[positions[i]] = column_scratch_[n][i];
}

AdmmRoundStats AdmmEngine::round() {
  const std::size_t replicas = work_->num_replicas();
  AdmmRoundStats stats;
  stats.round = ++rounds_;
  rounds_metric_.add(1);

  {
    telemetry::ScopedSpan span(*tracer_, "admm.local_solves", "solver");
    // Per-replica x-update, one static block of replicas per lane.  Every
    // lane reads the shared Z/U and writes only its own column of X (its
    // own scratch, its own scatter targets) — disjoint writes, so the
    // result is bitwise identical for every lane count.
    const auto solve_block = [this](std::size_t /*lane*/, std::size_t begin,
                                    std::size_t end) {
      for (std::size_t n = begin; n < end; ++n) solve_replica(n);
    };
    if (common::ThreadPool* p = pool(); p != nullptr)
      p->for_blocks(replicas, solve_block);
    else
      solve_block(0, 0, replicas);
  }

  telemetry::ScopedSpan consensus_span(*tracer_, "admm.consensus_update",
                                       "solver");
  z_prev_ = z_;  // copy-assign reuses the buffer
  const std::span<double> z_values = z_.values();
  const std::span<const double> x_values = x_.values();
  std::copy(x_values.begin(), x_values.end(), z_values.begin());
  common::simd::accumulate(options_.simd, z_values, u_.values());
  optim::project_demand_set(*work_, z_, pool(), options_.simd);
  common::simd::accumulate(options_.simd, u_.values(), x_values);
  common::simd::axpy(options_.simd, u_.values(), -1.0, z_values);
  const double primal = x_.distance(z_, options_.simd);
  const double dual = rho_ * z_.distance(z_prev_, options_.simd);
  stats.primal_residual = primal;
  stats.dual_residual = dual;

  // Residual balancing (Boyd §3.4.1): rescaling U keeps the unscaled dual
  // ρ·U invariant across the ρ change.
  if (options_.adapt_rho) {
    if (primal > options_.adapt_threshold * dual) {
      rho_ *= options_.adapt_factor;
      u_.scale(1.0 / options_.adapt_factor);
    } else if (dual > options_.adapt_threshold * primal) {
      rho_ /= options_.adapt_factor;
      u_.scale(options_.adapt_factor);
    }
  }
  stats.rho = rho_;

  std::size_t round_messages = 2 * work_->num_clients() * replicas;
  if (options_.representation == SolverRepresentation::kDense) {
    stats.bytes_exchanged = replicas * bytes_per_replica_round() +
                            work_->num_clients() * bytes_per_client_round();
  } else {
    // Client↔replica traffic exists only on feasible pairs: one compact
    // (row id, share) report and one consensus feedback per pair per round.
    const std::size_t nnz = work_->sparsity()->nnz();
    round_messages = 2 * nnz;
    stats.bytes_exchanged = 2 * nnz * (4 + 8);
  }
  messages_exchanged_ += round_messages;
  bytes_exchanged_ += stats.bytes_exchanged;
  messages_metric_.add(round_messages);
  bytes_metric_.add(stats.bytes_exchanged);

  // Recovered solution (Z repaired to full feasibility) for the objective,
  // observability and the double buffer — same convention as the other
  // engines.
  solution_into(scratch_solution_);
  stats.objective = work_->total_cost(scratch_solution_);
  objective_metric_.set(stats.objective);
  primal_metric_.set(primal);
  dual_metric_.set(dual);
  rho_metric_.set(rho_);

  if (collect_stats_) {
    replica_stats_.assign(replicas, {});
    for (std::size_t n = 0; n < replicas; ++n) {
      auto& replica = replica_stats_[n];
      double load = 0.0;
      double previous_load = 0.0;
      double sq = 0.0;
      const auto current_values = scratch_solution_.values();
      const auto last_values = last_solution_.values();
      for (const std::uint32_t p : work_->sparsity()->col_positions(n)) {
        const double value = current_values[p];
        const double prev = has_last_ ? last_values[p] : 0.0;
        load += value;
        previous_load += prev;
        const double d = value - prev;
        sq += d * d;
      }
      replica.local_objective = optim::replica_cost(work_->replica(n), load);
      replica.movement = std::sqrt(sq);
      replica.load = load;
      replica.load_delta = load - previous_load;
    }
  }

  // Residual-based stopping: both residuals small (relative to the demand
  // scale) for `patience` consecutive rounds.
  const double scale = std::max(problem_->total_demand(), 1.0);
  const bool stable = primal <= options_.tolerance * scale &&
                      dual <= options_.tolerance * scale;
  if (stable) {
    if (++stable_rounds_ >= options_.patience) converged_ = true;
  } else {
    stable_rounds_ = 0;
  }
  std::swap(last_solution_, scratch_solution_);
  has_last_ = true;
  return stats;
}

optim::ConvergenceTrace AdmmEngine::run() {
  optim::ConvergenceTrace trace;
  double bytes_total = 0.0;
  while (!converged_ && rounds_ < options_.max_rounds) {
    const auto stats = round();
    bytes_total += static_cast<double>(stats.bytes_exchanged);
    trace.record({stats.round, stats.objective,
                  std::max(stats.primal_residual, stats.dual_residual),
                  bytes_total});
  }
  return trace;
}

Matrix AdmmEngine::solution() const {
  solution_into(solution_tmp_);
  return expand_solution(solution_tmp_, aggregation_.get());
}

void AdmmEngine::solution_into(common::SparseAllocation& out) const {
  // Z is demand-feasible by construction; Dykstra repairs the (vanishing)
  // capacity violation so the reported point is exactly feasible.
  if (out.empty()) out = common::SparseAllocation(work_->sparsity());
  const std::span<const double> z_values = z_.values();
  std::copy(z_values.begin(), z_values.end(), out.values().begin());
  optim::DykstraOptions dykstra;
  dykstra.pool = pool();
  dykstra.simd = options_.simd;
  optim::project_feasible(*work_, out, dykstra);
}

void AdmmEngine::attach_telemetry(telemetry::Telemetry& telemetry) {
  tracer_ = &telemetry.tracer();
  auto& metrics = telemetry.metrics();
  rounds_metric_ = metrics.counter("solver.admm.rounds");
  messages_metric_ = metrics.counter("solver.admm.messages");
  bytes_metric_ = metrics.counter("solver.admm.bytes");
  objective_metric_ = metrics.gauge("solver.admm.objective");
  primal_metric_ = metrics.gauge("solver.admm.primal_residual");
  dual_metric_ = metrics.gauge("solver.admm.dual_residual");
  rho_metric_ = metrics.gauge("solver.admm.rho");
}

std::size_t AdmmEngine::bytes_per_replica_round() const {
  if (options_.representation == SolverRepresentation::kDense) {
    // One (client id, share) pair per client, shipped to that client.
    return problem_->num_clients() * (4 + 8);
  }
  // One (client id, share) pair per *feasible* client; per-replica traffic
  // varies with the column population, so report the mean.
  return work_->sparsity()->nnz() * (4 + 8) /
         std::max<std::size_t>(work_->num_replicas(), 1);
}

std::size_t AdmmEngine::bytes_per_client_round() const {
  if (options_.representation == SolverRepresentation::kDense) {
    // Consensus feedback to every replica.
    return problem_->num_replicas() * (4 + 8);
  }
  // Consensus feedback to each feasible replica; mean over clients.
  return work_->sparsity()->nnz() * (4 + 8) /
         std::max<std::size_t>(work_->num_clients(), 1);
}

std::size_t AdmmEngine::reports_per_round(std::size_t n) const {
  return options_.representation == SolverRepresentation::kDense
             ? problem_->num_clients()
             : work_->sparsity()->col_nnz(n);
}

}  // namespace edr::core
