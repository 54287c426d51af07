// Client equivalence-class aggregation (the kAggregated representation).
//
// The objective E_g(P) depends on P only through the column sums s_n, and
// the constraints treat two clients identically whenever they have the same
// feasible-replica set: demands are interchangeable mass.  So clients with
// identical feasible sets collapse to ONE aggregate client whose demand is
// the class total.  Solving the aggregated instance and fanning the class
// row back out by demand share,
//
//   p_{c,n} = (R_c / R_class) · P_{class,n},
//
// is EXACT, not an approximation:
//  * row sums:    Σ_n p_{c,n} = (R_c/R_class)·R_class = R_c          (demand)
//  * column sums: Σ_c p_{c,n} = P_{class,n}·Σ_c R_c/R_class = P_{class,n},
//    so capacities, the objective value, and optimality transfer verbatim;
//  * the latency mask is preserved because class members share it by
//    construction.
// Conversely any feasible disaggregated point maps to a feasible aggregated
// point by summing rows, so the two feasible sets are in cost-preserving
// correspondence and the aggregated optimum expands to a disaggregated
// optimum.  See DESIGN.md §12.
//
// Geo-local instances have O(|N|) distinct feasible sets regardless of the
// client count, which is what lets the iterative engines run 10^5-10^6
// clients: the per-round work is O(classes · k), and only the final fan-out
// touches all clients once.
#pragma once

#include <cstdint>
#include <vector>

#include "common/matrix.hpp"
#include "common/sparse.hpp"
#include "optim/problem.hpp"

namespace edr::core {

/// The client -> equivalence-class mapping for one Problem.
struct ClientAggregation {
  /// Class id per original client (class ids are dense, 0..num_classes-1,
  /// ordered by first appearance — so class k's representative is the
  /// lowest-indexed client in the class).
  std::vector<std::uint32_t> class_of;
  /// One original client id per class (the first member).
  std::vector<std::uint32_t> representative;
  /// Total demand per class.
  std::vector<double> class_demand;
  /// Fan-out weight per original client: R_c / R_class (0 when the class
  /// demand is 0 — those classes carry no traffic).
  std::vector<double> share;

  [[nodiscard]] std::size_t num_classes() const {
    return representative.size();
  }
};

/// Group the problem's clients by identical feasible-replica sets.
[[nodiscard]] ClientAggregation build_client_aggregation(
    const optim::Problem& problem);

/// The aggregated instance: one client per class with the class's total
/// demand and the representative's latency row (mask-identical to every
/// member by construction); replicas unchanged.
[[nodiscard]] optim::Problem aggregate_problem(const optim::Problem& problem,
                                               const ClientAggregation& agg);

/// Fan an aggregated allocation (num_classes x num_replicas) back out to the
/// original clients by demand share.  `out` is reshaped to
/// num_clients x num_replicas.
void expand_allocation(const ClientAggregation& agg, const Matrix& aggregated,
                       Matrix& out);

/// The dense allocation over the original clients of an engine's compact
/// solution: scattered as is when `agg` is null, fanned out by class share
/// otherwise.
[[nodiscard]] Matrix expand_solution(const common::SparseAllocation& solution,
                                     const ClientAggregation* agg);

}  // namespace edr::core
