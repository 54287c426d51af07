#include "baselines/donar.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "net/wire.hpp"
#include "optim/flow.hpp"
#include "optim/projection.hpp"

namespace edr::baselines {

DonarEngine::DonarEngine(const optim::Problem& problem, DonarOptions options)
    : problem_(&problem), options_(options) {
  const std::string issue = problem.validate();
  if (!issue.empty())
    throw std::invalid_argument("DonarEngine: invalid problem: " + issue);
  if (options_.num_mapping_nodes == 0)
    throw std::invalid_argument("DonarEngine: need at least one mapping node");

  auto start = optim::initial_feasible_point(problem);
  if (!start)
    throw std::runtime_error("DonarEngine: instance is not feasible");
  allocation_ = std::move(*start);
  aggregate_ = allocation_.col_sums();

  // Uniform split weights over the replicas (the operator default).
  targets_.assign(problem.num_replicas(),
                  problem.total_demand() /
                      static_cast<double>(problem.num_replicas()));
}

std::vector<double> DonarEngine::step_node(std::size_t m) {
  const std::size_t clients = problem_->num_clients();
  const std::size_t replicas = problem_->num_replicas();
  const double kappa = options_.balance_weight;

  // Count owned rows for the inner step size (Hessian of the balance term
  // couples all owned rows of a column: spectral norm 2κ·|C_m|).
  std::size_t owned = 0;
  for (std::size_t c = 0; c < clients; ++c)
    if (owner(c) == m) ++owned;
  const double step =
      1.0 / (2.0 * kappa * static_cast<double>(std::max<std::size_t>(owned, 1)) +
             1.0);

  std::vector<double> mask(replicas);
  for (std::size_t it = 0; it < options_.inner_steps; ++it) {
    for (std::size_t c = 0; c < clients; ++c) {
      if (owner(c) != m) continue;
      auto row = allocation_.row(c);
      for (std::size_t n = 0; n < replicas; ++n) {
        const double grad = problem_->latency(c, n) +
                            2.0 * kappa * (aggregate_[n] - targets_[n]);
        aggregate_[n] -= row[n];
        row[n] -= step * grad;
        mask[n] = problem_->feasible_pair(c, n) ? 1.0 : 0.0;
      }
      optim::project_masked_simplex(row, mask, problem_->demand(c));
      for (std::size_t n = 0; n < replicas; ++n) aggregate_[n] += row[n];
    }
  }

  std::vector<double> own_aggregate(replicas, 0.0);
  for (std::size_t c = 0; c < clients; ++c)
    if (owner(c) == m)
      for (std::size_t n = 0; n < replicas; ++n)
        own_aggregate[n] += allocation_(c, n);
  return own_aggregate;
}

DonarRoundStats DonarEngine::round() {
  DonarRoundStats stats;
  for (std::size_t m = 0; m < options_.num_mapping_nodes; ++m) step_node(m);
  // Refresh the exact aggregate (guards against incremental drift).
  aggregate_ = allocation_.col_sums();

  stats.round = ++rounds_;
  stats.bytes_exchanged = options_.num_mapping_nodes * bytes_per_node_round();

  Matrix current = solution();
  stats.objective = donar_objective(current);
  stats.movement =
      last_solution_.empty() ? 0.0 : current.distance(last_solution_);
  const double scale = std::max(problem_->total_demand(), 1.0);
  if (!last_solution_.empty() &&
      stats.movement <= options_.tolerance * scale) {
    if (++stable_rounds_ >= options_.patience) converged_ = true;
  } else {
    stable_rounds_ = 0;
  }
  last_solution_ = std::move(current);
  return stats;
}

optim::ConvergenceTrace DonarEngine::run() {
  optim::ConvergenceTrace trace;
  double bytes_total = 0.0;
  while (!converged_ && rounds_ < options_.max_rounds) {
    const auto stats = round();
    bytes_total += static_cast<double>(stats.bytes_exchanged);
    trace.record({stats.round, stats.objective, stats.movement, bytes_total});
  }
  return trace;
}

double DonarEngine::donar_objective(const Matrix& allocation) const {
  double perf = 0.0;
  for (std::size_t c = 0; c < problem_->num_clients(); ++c)
    for (std::size_t n = 0; n < problem_->num_replicas(); ++n)
      perf += allocation(c, n) * problem_->latency(c, n);
  const auto loads = allocation.col_sums();
  double balance = 0.0;
  for (std::size_t n = 0; n < problem_->num_replicas(); ++n) {
    const double d = loads[n] - targets_[n];
    balance += d * d;
  }
  return perf + options_.balance_weight * balance;
}

Matrix DonarEngine::solution() const {
  Matrix current = allocation_;
  optim::project_feasible(*problem_, current);
  return current;
}

std::size_t DonarEngine::bytes_per_node_round() const {
  // Each mapping node broadcasts its aggregate load vector to its peers.
  return net::wire_size_doubles(problem_->num_replicas()) *
         (options_.num_mapping_nodes - 1);
}

}  // namespace edr::baselines
