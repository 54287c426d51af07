#include "optim/objective.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace edr::optim {
namespace {

/// q(t) and s(t) for the scalar reduction.
double load_at(std::span<const double> multipliers,
               std::span<const double> prox_center, double rho, double t,
               std::vector<double>* out = nullptr) {
  double total = 0.0;
  for (std::size_t c = 0; c < multipliers.size(); ++c) {
    const double q = std::max(0.0, prox_center[c] - (multipliers[c] + t) / rho);
    if (out) (*out)[c] = q;
    total += q;
  }
  return total;
}

}  // namespace

SubproblemResult solve_replica_subproblem(const ReplicaParams& params,
                                          std::span<const double> multipliers,
                                          std::span<const double> prox_center,
                                          double rho) {
  SubproblemResult result;
  const SubproblemInfo info = solve_replica_subproblem_into(
      params, multipliers, prox_center, rho, result.allocation);
  result.load = info.load;
  result.capacity_multiplier = info.capacity_multiplier;
  return result;
}

SubproblemInfo solve_replica_subproblem_into(
    const ReplicaParams& params, std::span<const double> multipliers,
    std::span<const double> prox_center, double rho,
    std::vector<double>& allocation) {
  assert(multipliers.size() == prox_center.size());
  assert(allocation.empty() || allocation.data() != prox_center.data());
  if (rho <= 0.0)
    throw std::invalid_argument("solve_replica_subproblem: rho must be > 0");

  const std::size_t clients = multipliers.size();
  SubproblemInfo result;
  allocation.assign(clients, 0.0);

  auto phi_prime = [&](double s) {
    return replica_cost_derivative(params, s);
  };

  // Bracket t for the unconstrained stationarity equation t = φ'(s(t)).
  // s(t) is nonincreasing, φ' nondecreasing in s, so F(t) = t − φ'(s(t)) is
  // strictly increasing.  Lower bound: t small enough that F < 0; upper
  // bound: t large enough that every q_c clamps to 0, giving s = 0 and
  // F(t) = t − φ'(0) > 0 for t > φ'(0).
  double t_hi = phi_prime(0.0) + 1.0;
  for (std::size_t c = 0; c < clients; ++c)
    t_hi = std::max(t_hi, rho * prox_center[c] - multipliers[c] + 1.0);
  double t_lo = phi_prime(0.0);
  // Walk t_lo down until F(t_lo) <= 0 (or the load stops growing).
  for (int i = 0; i < 200; ++i) {
    const double s = load_at(multipliers, prox_center, rho, t_lo);
    if (t_lo - phi_prime(s) <= 0.0) break;
    t_lo -= std::max(1.0, std::abs(t_lo));
  }

  auto bisect = [&](auto&& f, double lo, double hi) {
    for (int i = 0; i < 200; ++i) {
      const double mid = 0.5 * (lo + hi);
      if (f(mid) <= 0.0)
        lo = mid;
      else
        hi = mid;
      if (hi - lo < 1e-13 * std::max(1.0, std::abs(hi))) break;
    }
    return 0.5 * (lo + hi);
  };

  // Solve F(t) = 0.
  const double t_star = bisect(
      [&](double t) {
        const double s = load_at(multipliers, prox_center, rho, t);
        return t - phi_prime(s);
      },
      t_lo, t_hi);
  double s_star =
      load_at(multipliers, prox_center, rho, t_star, &allocation);

  if (s_star > params.bandwidth + 1e-12) {
    // Capacity binds: solve s(t) = B instead (s is nonincreasing in t, so
    // B − s(t) is nondecreasing — bisect on that).
    const double t_cap = bisect(
        [&](double t) {
          return params.bandwidth - load_at(multipliers, prox_center, rho, t);
        },
        t_lo, t_hi);
    s_star = load_at(multipliers, prox_center, rho, t_cap, &allocation);
    result.capacity_multiplier = std::max(0.0, t_cap - phi_prime(s_star));
  }

  result.load = s_star;
  return result;
}

}  // namespace edr::optim
