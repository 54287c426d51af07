// DistributedAlgorithm — the strategy interface behind the epoch pipeline.
//
// The runtime (core/epoch_pipeline.hpp) owns everything a scheduler run
// shares regardless of the solver: request batching, membership, admission
// control, the message barrier, assignment fan-out, transfers, power
// metering.  Everything solver-specific — which message types exist, what
// traffic a round generates, when the iteration has converged, what state
// carries across epochs, how the final allocation is extracted — lives in
// one implementation of this interface.  Adding a scheduler means writing
// one subclass and registering it (core/algorithm_registry.hpp); the
// runtime is never touched again.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "common/units.hpp"
#include "optim/problem.hpp"
#include "telemetry/telemetry.hpp"

namespace edr::core {

/// Message-type space of the runtime protocol (the ring owns 100-199, see
/// cluster/ring.hpp; algorithms own their round types, declared via
/// DistributedAlgorithm::message_types).
enum SystemMessageType : int {
  kClientRequest = 1,   ///< client -> every replica: (client, demand MB)
  kCdpsmEstimate = 2,   ///< replica -> replica: full solution estimate
  kLddmLoadReport = 3,  ///< replica -> client: my share for you this round
  kLddmMuUpdate = 4,    ///< client -> replica: updated multiplier
  kAssignment = 5,      ///< replica -> client: final share after convergence
  kFileData = 6,        ///< replica -> client: the transfer itself
  kAdmmShare = 7,       ///< replica -> client: x-update share this round
  kAdmmFeedback = 8,    ///< client -> replica: consensus (z, u) feedback
};

/// One message-type id an algorithm (or the host protocol) claims, with the
/// telemetry name it is exported under.  `round` marks types that count
/// toward the per-round delivery barrier.
struct MessageTypeInfo {
  int id = 0;
  const char* name = "";
  bool round = false;
};

/// Per-epoch bookkeeping for one request while it awaits its assignment.
struct PendingRequest {
  std::uint64_t id = 0;
  std::uint32_t client = 0;
  SimTime arrival = 0.0;
  Megabytes size_mb = 0.0;
  /// 0 for original requests; >0 for shed remainders re-entering a later
  /// epoch (these do not contribute response-time samples).
  std::uint32_t retries = 0;
};

/// Endpoint kind of a planned message.  Solver indices are global (a solver
/// is a replica unless the backend declares mapping nodes, as DONAR does);
/// client ids are global client ids.
enum class Endpoint { kSolver, kClient };

/// One coordination message the algorithm wants on the wire.  The pipeline
/// maps endpoints to node ids, charges the bytes to the network model, and
/// (for round messages) counts the delivery toward the barrier.
struct PlannedMessage {
  Endpoint from_kind = Endpoint::kSolver;
  std::size_t from = 0;
  Endpoint to_kind = Endpoint::kClient;
  std::size_t to = 0;
  int type = 0;
  std::size_t bytes = 0;
};

/// Everything the strategy may read about the epoch being solved.  Pointers
/// reference pipeline-owned state that is stable for the epoch's duration.
struct EpochContext {
  const optim::Problem* problem = nullptr;
  /// Problem column -> global replica index.
  const std::vector<std::size_t>* active_replicas = nullptr;
  /// Problem row -> global client id.
  const std::vector<std::uint32_t>* active_clients = nullptr;
  /// The epoch's surviving request batch (admission-controlled sizes).
  const std::vector<PendingRequest>* requests = nullptr;
  /// Liveness per global replica index (all true when failures are off).
  const std::vector<bool>* replica_alive = nullptr;
  std::size_t num_replicas = 0;
  std::size_t num_clients = 0;
  std::size_t num_solvers = 0;
  telemetry::Telemetry* telemetry = nullptr;
};

class DistributedAlgorithm {
 public:
  virtual ~DistributedAlgorithm();

  /// Registry key ("lddm", "cdpsm", ...).
  [[nodiscard]] virtual const char* name() const = 0;
  /// Human-facing label used by reports and figure tables ("EDR-LDDM").
  [[nodiscard]] virtual const char* display_name() const = 0;

  /// The deployment this backend runs in.  0 (the default): the replicas
  /// are the solvers, and the host models per-client links, power, file
  /// transfers and the heartbeat ring.  k > 0: k dedicated mapping nodes
  /// solve (DONAR), and the host models decision latency only.
  [[nodiscard]] virtual std::size_t mapping_nodes() const { return 0; }

  /// Message-type ids this backend owns (round traffic plus any protocol
  /// types it overrides).  Ids must not collide with the host protocol,
  /// the ring range [100, 200), or another registered backend — enforced
  /// by tests/baselines/algorithm_registry_test.cpp.
  [[nodiscard]] virtual std::span<const MessageTypeInfo> message_types()
      const;

  /// True when `type` counts toward the round delivery barrier.
  [[nodiscard]] bool is_round_type(int type) const;

  /// Type of the per-request announcement a client sends at arrival.
  [[nodiscard]] virtual int announce_type() const { return kClientRequest; }
  /// Which solvers a client announces a new request to (the pipeline drops
  /// targets that are dead).  Default: every solver.
  virtual void announce_targets(std::uint32_t client, std::size_t num_solvers,
                                std::vector<std::size_t>& out) const;

  /// Type of the final share notification a solver sends each client.
  [[nodiscard]] virtual int assignment_type() const { return kAssignment; }
  /// The assignment fan-out after convergence.  Default: every active
  /// replica tells every active client its share (16-byte notification).
  virtual void plan_assignments(const EpochContext& ctx,
                                std::vector<PlannedMessage>& out) const;

  /// Iterative backends run message rounds against the barrier; one-shot
  /// backends produce the allocation after a single compute delay.
  [[nodiscard]] virtual bool iterative() const { return true; }

  /// Multiplier on the per-round local compute cost (seconds per matrix
  /// entry x |C|x|N| entries x this factor).
  [[nodiscard]] virtual double compute_factor(const EpochContext& ctx) const {
    (void)ctx;
    return 1.0;
  }

  /// Per-round coordination volume in bytes for `clients` x `replicas`
  /// participants; drives the selection power intensity (Fig 3 vs 4).
  [[nodiscard]] virtual double coordination_bytes(double clients,
                                                  double replicas) const {
    (void)replicas;
    return clients * 12.0;
  }

  /// Start an epoch: construct the engine, attach telemetry, inject any
  /// warm-start state carried from previous epochs.
  virtual void begin_epoch(const EpochContext& ctx) { (void)ctx; }

  /// Messages to send once, before the first compute delay (e.g. the
  /// centralized backend shipping demands to its coordinator).
  virtual void plan_prologue(const EpochContext& ctx,
                             std::vector<PlannedMessage>& out) const {
    (void)ctx;
    out.clear();
  }

  /// One round's coordination traffic (iterative backends).
  virtual void plan_round(const EpochContext& ctx,
                          std::vector<PlannedMessage>& out) const {
    (void)ctx;
    out.clear();
  }

  /// Advance the engine one synchronous round once the barrier clears;
  /// returns true when the iteration is finished (converged or round cap).
  virtual bool step_round(const EpochContext& ctx) {
    (void)ctx;
    return true;
  }

  /// Optional observability hook: append one RoundSample per active
  /// replica describing the round that just stepped (or the one-shot
  /// solve that just produced an allocation).  The pipeline stamps
  /// epoch/time and feeds the samples to the attached flight recorder and
  /// monitor; it only calls this when one of those is enabled, so the
  /// default path never pays for it.  Backends with per-replica stats to
  /// report override it; the default reports nothing.
  virtual void observe(const EpochContext& ctx,
                       std::vector<telemetry::RoundSample>& out) {
    (void)ctx;
    (void)out;
  }

  /// Final allocation of a finished iterative epoch.  Saves warm-start
  /// state and releases the engine.
  virtual Matrix extract_allocation(const EpochContext& ctx);

  /// One-shot solve (non-iterative backends), invoked after the compute
  /// delay.  Returning nullopt stalls the epoch (e.g. the centralized
  /// coordinator died) until a membership change aborts and restarts it.
  virtual std::optional<Matrix> solve_oneshot(const EpochContext& ctx) {
    (void)ctx;
    return std::nullopt;
  }

  /// Drop per-epoch engine state after a membership change aborted the
  /// solve.  Warm-start state survives (the restart reuses it).
  virtual void abort_epoch() {}
};

}  // namespace edr::core
