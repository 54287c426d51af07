// CDPSM — consensus-based distributed projected subgradient method
// (paper §III-D.1, following Nedić-Ozdaglar-Parrilo).
//
// Every replica n keeps a full estimate P^n of the global traffic matrix.
// One round:
//   1. consensus:   V^n = Σ_j a_j · P^j        (weights Σ a_j = 1)
//   2. gradient:    W^n = V^n − d · ∇E_n(V^n)  (local objective only)
//   3. projection:  P^n ← Proj_{X_n}[W^n]
// where X_n is replica n's local constraint set: the shared demand
// simplices plus its *own* capacity column (the sets' intersection over n
// is the global feasible set, as the convergence theory requires).  The
// weights are uniform, a_j = 1/|N|, so V^n is one vector for all n: the
// engine computes it once per round and runs steps 2–3 per replica.
//
// Estimates are stored compactly — one value per latency-feasible pair,
// the only entries that are variables — whatever the representation; the
// representation only picks the frame size the rounds charge (and, for
// kAggregated, the class-aggregated work problem).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/matrix.hpp"
#include "common/sparse.hpp"
#include "common/thread_pool.hpp"
#include "core/aggregation.hpp"
#include "core/representation.hpp"
#include "optim/convergence.hpp"
#include "optim/problem.hpp"
#include "telemetry/telemetry.hpp"

namespace edr::core {

struct CdpsmOptions {
  /// Constant step size d (paper compares both methods at constant step).
  /// 0 = auto: 1/L from the problem's Lipschitz bound.
  double step = 0.0;
  /// Use the diminishing schedule d_k = d/√k from Nedić-Ozdaglar-Parrilo
  /// (whose convergence theory requires it).  Slower than the constant
  /// step + exact-consensus variant; provided for fidelity to the paper's
  /// simulation (see EXPERIMENTS.md, Fig 5).
  bool diminishing_step = false;
  std::size_t max_rounds = 2000;
  /// Converged when the *recovered* solution (projected mean of estimates)
  /// stops moving: round-to-round change below tolerance × demand scale for
  /// `patience` consecutive rounds.  Individual estimates settle on
  /// different fixed points of their local projections, so estimate
  /// disagreement never reaches zero and is not a usable stop signal.
  double tolerance = 1e-5;
  std::size_t patience = 3;
  /// Worker lanes for the per-replica round loop and the recovery
  /// projection (0 = all hardware threads).  1 — the default — is the
  /// exact historical serial path; every other value produces bitwise
  /// identical results (static block partitioning, ordered reductions).
  std::size_t threads = 1;
  /// Traffic model and aggregation (see core/representation.hpp).  kDense
  /// charges a full |C|x|N| matrix frame per estimate, kSparse an indexed
  /// frame over the feasible pairs; both iterate bit for bit alike.
  /// kAggregated also solves on the client equivalence classes.
  SolverRepresentation representation = SolverRepresentation::kDense;
  /// Kernel dispatch for the consensus axpy, projection apply loops and
  /// distance reductions (common/simd.hpp).  kScalar — the default — is the
  /// byte-pinned golden path; kAuto vectorizes with the running CPU's
  /// widest ISA at tolerance-level numerical agreement.
  common::simd::Mode simd = common::simd::Mode::kScalar;
};

/// Per-round progress of the synchronous driver.  The consensus residuals
/// (disagreement, movement) scan every estimate, so they are computed only
/// for a reader — attached telemetry's gauges, collected replica stats'
/// flight-recorder samples, run()'s trace — and read 0 otherwise.
struct CdpsmRoundStats {
  std::size_t round = 0;
  double objective = 0.0;      ///< cost of the mean estimate (projected)
  double disagreement = 0.0;   ///< max pairwise estimate distance
  double movement = 0.0;       ///< max per-replica estimate change
  std::size_t bytes_exchanged = 0;  ///< all-to-all estimate traffic
};

/// Per-replica view of one round, collected only when enabled (the
/// pre-projection copy is not free) — feeds the flight recorder.
struct CdpsmReplicaStats {
  double local_objective = 0.0;  ///< E_n at the consensus load
  double gradient_norm = 0.0;    ///< ‖∇E_n‖_F = |e_n'|·√|C| (uniform column)
  double projection_correction = 0.0;  ///< ‖W^n − Proj_{X_n}[W^n]‖_F
  double load = 0.0;             ///< own-column load after the step
  double load_delta = 0.0;       ///< load change vs the previous round
};

class CdpsmEngine {
 public:
  CdpsmEngine(const optim::Problem& problem, CdpsmOptions options = {});

  [[nodiscard]] std::size_t num_replicas() const {
    return problem_->num_replicas();
  }

  /// The problem the rounds actually iterate on: the original instance for
  /// kDense/kSparse, the aggregated instance for kAggregated.
  [[nodiscard]] const optim::Problem& work_problem() const { return *work_; }
  /// The client equivalence-class transform when representation ==
  /// kAggregated, null otherwise.
  [[nodiscard]] const ClientAggregation* aggregation() const {
    return aggregation_.get();
  }

  /// One synchronous round over all replicas (the standalone driver).  The
  /// consensus residuals are filled in when telemetry is attached or
  /// replica stats are collected (see CdpsmRoundStats).
  CdpsmRoundStats round();

  /// Run rounds until convergence or the round limit; returns the trace,
  /// whose residual is max(disagreement, movement) of each round.
  optim::ConvergenceTrace run();

  [[nodiscard]] bool converged() const { return converged_; }
  [[nodiscard]] std::size_t rounds_executed() const { return rounds_; }

  /// Consensus solution: the average of all replica estimates, projected to
  /// exact feasibility (the average satisfies constraints only up to the
  /// consensus tolerance).
  [[nodiscard]] Matrix solution() const;

  /// Bytes a single replica sends per round (its estimate to each peer, as
  /// a matrix frame under kDense, an indexed frame otherwise).
  [[nodiscard]] std::size_t bytes_per_replica_round() const;

  [[nodiscard]] const CdpsmOptions& options() const { return options_; }
  [[nodiscard]] const optim::Problem& problem() const { return *problem_; }

  /// Record per-round consensus/gradient spans and progress gauges
  /// (solver.cdpsm.*) into `telemetry`; round() then computes the consensus
  /// residuals the gauges read.
  void attach_telemetry(telemetry::Telemetry& telemetry);

  /// Use an externally owned pool for the parallel round instead of the
  /// lazily created one implied by options().threads — the algorithm layer
  /// shares one pool across the per-epoch engines so threads are spawned
  /// once per run, not once per epoch.  `pool` must outlive the engine;
  /// null reverts to the options-driven behavior.
  void set_thread_pool(common::ThreadPool* pool) { external_pool_ = pool; }

  /// Collect CdpsmReplicaStats during round() (off by default; the flight
  /// recorder path turns it on).
  void set_collect_replica_stats(bool collect) { collect_stats_ = collect; }
  [[nodiscard]] bool collect_replica_stats() const { return collect_stats_; }
  /// Last round's per-replica stats (empty until a collected round ran).
  [[nodiscard]] const std::vector<CdpsmReplicaStats>& replica_stats() const {
    return replica_stats_;
  }

  /// Messages / bytes this engine's rounds would have put on the wire so
  /// far (accumulated round by round — the counters one-shot callers read,
  /// mirrored into solver.cdpsm.* when telemetry is attached).
  [[nodiscard]] std::uint64_t messages_exchanged() const {
    return messages_exchanged_;
  }
  [[nodiscard]] std::uint64_t bytes_exchanged() const {
    return bytes_exchanged_;
  }

 private:
  /// One round; `residuals` also computes the consensus residuals.
  CdpsmRoundStats advance(bool residuals);
  /// The round's consensus residuals, from the estimates it produced and
  /// the ones it started from (both kept until the next round).
  void consensus_residuals(CdpsmRoundStats& stats) const;
  /// Dykstra projection of an estimate onto X_n.
  void project_local(std::size_t n, common::SparseAllocation& estimate) const;
  /// Replica n's update: the round's consensus_, local gradient step,
  /// projection onto X_n, written into `out`.  `stats`, when non-null,
  /// receives the replica's observability view of the step (load_delta
  /// excluded — only round() knows the previous load).
  void update_replica(std::size_t n, common::SparseAllocation& out,
                      CdpsmReplicaStats* stats) const;
  void solution_into(common::SparseAllocation& out) const;
  /// The pool the parallel regions should use this round: the external one
  /// when set, else a lazily built pool per options_.threads; null = serial.
  [[nodiscard]] common::ThreadPool* pool() const;

  const optim::Problem* problem_;
  CdpsmOptions options_;
  /// kAggregated state: the class transform and the aggregated instance the
  /// rounds run on.  work_ points at aggregated_problem_ when aggregating,
  /// else at problem_.
  std::unique_ptr<ClientAggregation> aggregation_;
  std::unique_ptr<optim::Problem> aggregated_problem_;
  const optim::Problem* work_ = nullptr;
  common::ThreadPool* external_pool_ = nullptr;
  mutable std::unique_ptr<common::ThreadPool> owned_pool_;
  std::uint64_t messages_exchanged_ = 0;
  std::uint64_t bytes_exchanged_ = 0;
  telemetry::EventTracer* tracer_ = &telemetry::disabled_tracer();
  telemetry::Counter rounds_metric_;
  telemetry::Counter messages_metric_;
  telemetry::Counter bytes_metric_;
  telemetry::Gauge objective_metric_;
  telemetry::Gauge disagreement_metric_;
  telemetry::Gauge movement_metric_;
  double step_ = 0.0;
  bool telemetry_attached_ = false;
  bool collect_stats_ = false;
  std::vector<CdpsmReplicaStats> replica_stats_;
  std::vector<common::SparseAllocation> estimates_;
  // Round scratch, reused across rounds so the hot loop stays off the heap:
  // the estimates double-buffered against the previous round's, the
  // consensus all replicas step from, and the recovered solution
  // double-buffered against last_solution_.
  std::vector<common::SparseAllocation> previous_estimates_;
  common::SparseAllocation consensus_;
  common::SparseAllocation scratch_solution_;
  common::SparseAllocation last_solution_;
  bool has_last_ = false;
  mutable common::SparseAllocation solution_tmp_;
  std::size_t stable_rounds_ = 0;
  std::size_t rounds_ = 0;
  bool converged_ = false;
};

}  // namespace edr::core
