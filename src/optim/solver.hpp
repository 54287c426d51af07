// Centralized reference solver.
//
// Projected gradient with backtracking line search over the full feasible
// set (demand simplices ∩ capacity caps, via Dykstra).  This is the "single
// central agent" the paper contrasts EDR against: simpler and exact, but a
// single point of failure.  In this repository it doubles as the ground
// truth that the distributed CDPSM / LDDM solvers are validated against.
#pragma once

#include <cstddef>
#include <optional>

#include "common/matrix.hpp"
#include "optim/convergence.hpp"
#include "optim/problem.hpp"

namespace edr::optim {

struct CentralizedOptions {
  std::size_t max_iterations = 5000;
  /// Stop when the per-iteration movement, relative to the problem scale,
  /// falls below this.
  double tolerance = 1e-8;
  /// Record the convergence trace every `trace_stride` iterations (0 = off).
  std::size_t trace_stride = 0;
};

struct CentralizedResult {
  Matrix allocation;
  Cents cost = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
  double residual = 0.0;
  ConvergenceTrace trace;
};

/// Solve `problem` to high accuracy.  Returns std::nullopt when the instance
/// is transportation-infeasible (no allocation can satisfy all demands).
[[nodiscard]] std::optional<CentralizedResult> solve_centralized(
    const Problem& problem, const CentralizedOptions& options = {});

/// The paper's Round-Robin baseline as a one-shot split: divide every
/// client's demand equally across its latency-feasible replicas, oblivious
/// to price and load, then waterfall any capacity overflow onto the
/// remaining feasible replicas.
[[nodiscard]] Matrix round_robin_allocation(const Problem& problem);

struct AdmmOptions {
  std::size_t max_iterations = 4000;
  /// Augmented-Lagrangian penalty; 0 = auto (the gradient Lipschitz bound,
  /// the smallest value with a convergence guarantee for the linearized
  /// x-update).
  double rho = 0.0;
  /// Stop when both the primal residual ‖x−z‖ and the dual residual
  /// ρ‖z−z_prev‖ drop below tolerance × problem scale.
  double tolerance = 1e-8;
};

/// Independent second solver: linearized ADMM splitting the feasible set
/// into the demand simplices (x-block) and the capacity caps (z-block).
/// Exists to cross-validate solve_centralized — two structurally different
/// algorithms agreeing on the optimum is the strongest correctness evidence
/// the test suite has for the convex machinery.
[[nodiscard]] std::optional<CentralizedResult> solve_admm(
    const Problem& problem, const AdmmOptions& options = {});

}  // namespace edr::optim
