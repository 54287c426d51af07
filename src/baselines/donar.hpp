// DONAR — decentralized, performance-aware (energy-oblivious) replica
// selection, reimplemented from Wendell et al., "DONAR: decentralized
// server selection for cloud services", SIGCOMM 2010 (the paper's Fig 9
// comparison system).
//
// DONAR's mapping nodes each own a partition of the clients and minimize
//
//   Σ_c Σ_n p_{c,n} · perf(c, n)  +  κ · Σ_n (s_n − w_n·S)²
//
// subject to the per-client demand simplices and bandwidth caps, where
// perf(c, n) is the client->replica network cost (RTT here), w_n are
// operator split weights (uniform by default), S the total demand, and κ
// the load-balance pressure.  Crucially there is NO energy/price term —
// that is the point of the comparison.
//
// Decentralization follows the original: each mapping node re-solves its
// *local* share of the objective against the latest aggregate loads
// reported by the other mapping nodes, then broadcasts its own aggregate;
// the fixed point is the global optimum of the (strictly convex) objective.
// Per-round communication is |M|·(|M|−1) aggregate vectors of |N| doubles —
// the O(|C|·|N|·|M|) total the paper quotes for DONAR.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "optim/convergence.hpp"
#include "optim/problem.hpp"

namespace edr::baselines {

struct DonarOptions {
  std::size_t num_mapping_nodes = 3;  // paper's Fig 9 setup
  /// Load-balance pressure κ (relative to perf costs).
  double balance_weight = 0.05;
  /// Inner projected-gradient steps per node per round.
  std::size_t inner_steps = 8;
  std::size_t max_rounds = 200;
  /// Converged when the assembled allocation stops moving.
  double tolerance = 1e-5;
  std::size_t patience = 3;
};

struct DonarRoundStats {
  std::size_t round = 0;
  double objective = 0.0;  ///< DONAR's own (perf + balance) objective
  double movement = 0.0;
  std::size_t bytes_exchanged = 0;
};

class DonarEngine {
 public:
  DonarEngine(const optim::Problem& problem, DonarOptions options = {});

  /// Mapping node that owns client c (round-robin partition).
  [[nodiscard]] std::size_t owner(std::size_t client) const {
    return client % options_.num_mapping_nodes;
  }

  /// One local step for mapping node m given every node's last aggregate
  /// loads; updates this node's rows and returns its new aggregate.
  std::vector<double> step_node(std::size_t m);

  /// One synchronous round over all mapping nodes.
  DonarRoundStats round();

  /// Run to convergence or the round cap.
  optim::ConvergenceTrace run();

  [[nodiscard]] bool converged() const { return converged_; }
  [[nodiscard]] std::size_t rounds_executed() const { return rounds_; }

  /// DONAR's objective value for an allocation (perf + balance, no energy).
  [[nodiscard]] double donar_objective(const Matrix& allocation) const;

  /// Current allocation, repaired to exact feasibility.
  [[nodiscard]] Matrix solution() const;

  /// Per-replica aggregate loads s_n as of the last round (exact column
  /// sums — round() refreshes them); feeds the flight recorder.
  [[nodiscard]] const std::vector<double>& aggregate() const {
    return aggregate_;
  }

  [[nodiscard]] std::size_t bytes_per_node_round() const;
  [[nodiscard]] const DonarOptions& options() const { return options_; }

 private:
  const optim::Problem* problem_;
  DonarOptions options_;
  Matrix allocation_;
  std::vector<double> aggregate_;       // current s_n as known globally
  std::vector<double> targets_;         // w_n · S
  Matrix last_solution_;
  std::size_t stable_rounds_ = 0;
  std::size_t rounds_ = 0;
  bool converged_ = false;
};

}  // namespace edr::baselines
