// Replica-local subproblem of the Lagrangian dual decomposition (paper Eq. 5).
//
// With dual multipliers μ_c attached to the per-client demand constraints,
// replica n solves
//
//   min_q  u_n·(α_n·Σq + β_n·(Σq)^γ_n) + Σ_c μ_c·q_c + (ρ/2)·‖q − q̂‖²
//   s.t.   q ≥ 0,  Σq ≤ B_n
//
// over its own traffic column q = p_{·,n}, restricted to the clients that
// reach it within the latency bound (the latency-masked pairs are not
// variables, so callers pass the feasible subsequence only).  The proximal
// term (ρ/2)‖q − q̂‖² is a documented deviation from the paper's plain dual
// decomposition: the local objective is linear in q for fixed Σq, so the
// plain subproblem has bang-bang solutions and the primal iterates
// oscillate; the prox term is the standard fix and vanishes at the fixed
// point (see DESIGN.md §5).
//
// The KKT system reduces to a monotone scalar equation in
// t = φ'(s) + λ (φ = price-weighted energy, λ = capacity multiplier):
//   q_c(t) = max(0, q̂_c − (μ_c + t)/ρ),   s(t) = Σ_c q_c(t)
// with s(t) nonincreasing in t, solved by bisection.
#pragma once

#include <span>
#include <vector>

#include "optim/problem.hpp"

namespace edr::optim {

struct SubproblemResult {
  std::vector<double> allocation;  // q, one entry per feasible client
  double load = 0.0;               // s = Σq
  double capacity_multiplier = 0.0;  // λ ≥ 0, nonzero iff Σq == B_n
};

/// Solve the prox-regularized replica subproblem described above over the
/// replica's feasible clients: `multipliers` and `prox_center` (q̂, often
/// the previous iterate) hold one entry per feasible client; `rho` must be
/// > 0.
[[nodiscard]] SubproblemResult solve_replica_subproblem(
    const ReplicaParams& params, std::span<const double> multipliers,
    std::span<const double> prox_center, double rho);

/// Scalar outputs of the subproblem when the allocation is written into a
/// caller-owned buffer (the allocation-free variant below).
struct SubproblemInfo {
  double load = 0.0;                 // s = Σq
  double capacity_multiplier = 0.0;  // λ ≥ 0, nonzero iff Σq == B_n
};

/// Same solve, but writes q into `allocation` (resized to the client count)
/// instead of returning a fresh vector — the per-round engine hot paths
/// reuse one buffer per replica.  `allocation` must not alias
/// `prox_center`: the bisection re-evaluates q from q̂ repeatedly, so an
/// in-place overwrite of the prox center would corrupt later evaluations.
SubproblemInfo solve_replica_subproblem_into(
    const ReplicaParams& params, std::span<const double> multipliers,
    std::span<const double> prox_center, double rho,
    std::vector<double>& allocation);

}  // namespace edr::optim
