#include "optim/solver.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "optim/flow.hpp"
#include "optim/projection.hpp"

namespace edr::optim {

std::optional<CentralizedResult> solve_centralized(
    const Problem& problem, const CentralizedOptions& options) {
  auto start = initial_feasible_point(problem);
  if (!start) return std::nullopt;

  CentralizedResult result;
  result.allocation = std::move(*start);

  // FISTA (accelerated projected gradient) at the fixed safe step 1/L, with
  // a monotone safeguard: if the accelerated candidate increases the
  // objective, fall back to a plain projected-gradient step from the current
  // iterate and reset the momentum.  Convexity + exact L bound guarantee
  // the fallback step always decreases, so the iteration is monotone.
  const double lipschitz = std::max(problem.gradient_lipschitz_bound(), 1e-9);
  const double step = 1.0 / lipschitz;

  Matrix x = result.allocation;  // current iterate
  Matrix y = x;                  // extrapolated point
  Matrix gradient;
  double momentum = 1.0;
  double cost = problem.total_cost(x);
  const double scale =
      std::max({1.0, x.frobenius_norm(), problem.total_demand()});

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    problem.cost_gradient(y, gradient);
    Matrix candidate = y;
    candidate.axpy(-step, gradient);
    project_feasible(problem, candidate);
    double candidate_cost = problem.total_cost(candidate);

    if (candidate_cost > cost) {
      // Momentum overshot: restart from x with a plain PG step.
      problem.cost_gradient(x, gradient);
      candidate = x;
      candidate.axpy(-step, gradient);
      project_feasible(problem, candidate);
      candidate_cost = problem.total_cost(candidate);
      momentum = 1.0;
    }

    const double move = candidate.distance(x);
    const double next_momentum =
        0.5 * (1.0 + std::sqrt(1.0 + 4.0 * momentum * momentum));
    y = candidate;
    Matrix diff = candidate;
    diff.axpy(-1.0, x);
    y.axpy((momentum - 1.0) / next_momentum, diff);
    momentum = next_momentum;

    x = std::move(candidate);
    cost = std::min(candidate_cost, cost);
    result.iterations = iter + 1;
    result.residual = move / scale;

    if (options.trace_stride != 0 && iter % options.trace_stride == 0)
      result.trace.record({iter, candidate_cost, result.residual, 0.0});

    if (result.residual <= options.tolerance) {
      result.converged = true;
      break;
    }
  }

  result.allocation = std::move(x);
  result.cost = problem.total_cost(result.allocation);
  return result;
}

std::optional<CentralizedResult> solve_admm(const Problem& problem,
                                            const AdmmOptions& options) {
  auto start = initial_feasible_point(problem);
  if (!start) return std::nullopt;

  CentralizedResult result;
  const double lipschitz = std::max(problem.gradient_lipschitz_bound(), 1e-9);
  const double rho = options.rho > 0.0 ? options.rho : lipschitz;
  const double scale =
      std::max({1.0, start->frobenius_norm(), problem.total_demand()});

  // x lives on the demand simplices, z on the capacity caps; u is the
  // scaled dual for the consensus constraint x = z.
  Matrix x = *start;
  Matrix z = x;
  Matrix u(x.rows(), x.cols(), 0.0);
  Matrix gradient;

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    // Linearized x-update: x = Proj_A(z − u − (1/ρ)∇f(z)).
    problem.cost_gradient(z, gradient);
    x = z;
    x.axpy(-1.0, u);
    x.axpy(-1.0 / rho, gradient);
    project_demand_set(problem, x);

    // z-update: z = Proj_B(x + u).
    Matrix z_prev = std::move(z);
    z = x;
    z.axpy(1.0, u);
    project_capacity_set(problem, z);

    // Dual ascent.
    Matrix primal_residual = x;
    primal_residual.axpy(-1.0, z);
    u.axpy(1.0, primal_residual);

    const double primal = primal_residual.frobenius_norm() / scale;
    const double dual = rho * z.distance(z_prev) / scale;
    result.iterations = iter + 1;
    result.residual = std::max(primal, dual);
    if (result.residual <= options.tolerance) {
      result.converged = true;
      break;
    }
  }

  // x satisfies the demand rows exactly; snap any residual capacity
  // violation (bounded by the primal residual) with a full projection.
  result.allocation = std::move(x);
  if (!check_feasibility(problem, result.allocation).ok(1e-9))
    project_feasible(problem, result.allocation);
  result.cost = problem.total_cost(result.allocation);
  return result;
}

Matrix round_robin_allocation(const Problem& problem) {
  const std::size_t clients = problem.num_clients();
  const std::size_t replicas = problem.num_replicas();
  Matrix allocation(clients, replicas, 0.0);
  std::vector<double> remaining_capacity(replicas);
  for (std::size_t n = 0; n < replicas; ++n)
    remaining_capacity[n] = problem.replica(n).bandwidth;

  // First pass: equal split over feasible replicas, clipped to capacity.
  std::vector<double> unplaced(clients, 0.0);
  for (std::size_t c = 0; c < clients; ++c) {
    const std::size_t feasible = problem.feasible_count(c);
    if (feasible == 0) continue;
    const double share = problem.demand(c) / static_cast<double>(feasible);
    for (std::size_t n = 0; n < replicas; ++n) {
      if (!problem.feasible_pair(c, n)) continue;
      const double placed = std::min(share, remaining_capacity[n]);
      allocation(c, n) = placed;
      remaining_capacity[n] -= placed;
      unplaced[c] += share - placed;
    }
  }
  // Waterfall pass: push overflow onto whatever feasible capacity is left.
  for (std::size_t c = 0; c < clients; ++c) {
    for (std::size_t n = 0; n < replicas && unplaced[c] > 1e-12; ++n) {
      if (!problem.feasible_pair(c, n)) continue;
      const double placed = std::min(unplaced[c], remaining_capacity[n]);
      allocation(c, n) += placed;
      remaining_capacity[n] -= placed;
      unplaced[c] -= placed;
    }
  }
  return allocation;
}

}  // namespace edr::optim
