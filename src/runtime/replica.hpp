// LiveReplica — one replica process of the live runtime.
//
// Runs the unchanged DistributedAlgorithm as a deterministic replicated
// state machine (the paper's ReplicaListener role, structured after the
// listener/communication split of a real server shell): every replica
// holds the full algorithm over identical inputs, steps it in lockstep
// rounds, and uses the kRound frame as the synchronization barrier.  The
// frame carries an FNV-1a digest of the round's observable state, so any
// divergence between replicas is *detected*, not silently averaged away.
//
// Lifecycle (driven entirely by the coordinator's frames):
//
//   hello -> config -> peers -> { start -> rounds* -> epoch_done }* -> shutdown
//
// Membership: the coordinator owns it.  A replica that stops hearing a
// peer at the barrier reports kStall and keeps waiting; the coordinator
// responds with a new generation (kPeers + kStart for the same epoch),
// at which point every survivor aborts the epoch, discards warm-start
// state and the retry backlog (both would diverge between survivors and
// a cold rejoiner), and re-solves with the reduced replica set.
//
// Epoch assembly (bucketing, retry backlog, reachability, problem build,
// admission control, EpochContext) is core::EpochBatch, the code the
// simulator runs, so a live epoch and a simulated one over the same
// LiveConfig report the same rounds and objective.  What differs by design
// (no synthetic backlog epoch, the epoch clock) is listed in DESIGN.md.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/algorithm.hpp"
#include "core/epoch_problem.hpp"
#include "runtime/bus.hpp"
#include "runtime/live_protocol.hpp"
#include "runtime/observer.hpp"

namespace edr::runtime {

struct ReplicaOptions {
  /// Round-barrier wait before reporting kStall to the coordinator.
  double barrier_timeout_s = 2.0;
  /// Wait for the next coordinator frame (config/start) before giving up.
  double idle_timeout_s = 60.0;
  /// Listen port to announce in the hello (0 over inproc).
  std::uint16_t listen_port = 0;
};

/// Why run() returned.
enum class ReplicaExit {
  kShutdown,     ///< coordinator said kShutdown — the normal path
  kIdleTimeout,  ///< nothing from the coordinator for idle_timeout_s
  kBusClosed,    ///< transport shut down underneath us
};

class LiveReplica {
 public:
  LiveReplica(MessageBus& bus, net::NodeId coordinator, ReplicaOptions options);

  /// Attach the process's observability plane (spans, flows, resource
  /// gauges, kTelemetry flushes at epoch boundaries).  Optional; call
  /// before run().  The observer must outlive the replica.
  void set_observer(RuntimeObserver* observer) { observer_ = observer; }

  /// Announce, configure, serve epochs until shutdown.  Safe to call once.
  ReplicaExit run();

  [[nodiscard]] std::size_t epochs_completed() const {
    return epochs_completed_;
  }
  [[nodiscard]] std::uint64_t digest_mismatches() const {
    return digest_mismatches_;
  }
  [[nodiscard]] std::uint64_t stalls_reported() const {
    return stalls_reported_;
  }

 private:
  /// Outcome of one epoch attempt.
  struct EpochOutcome {
    bool completed = false;
    /// A kStart that preempted the epoch (newer generation) or arrived
    /// while idle; the main loop runs it next.
    std::optional<LiveStart> next_start;
    bool shutdown = false;
    bool bus_closed = false;
  };

  void apply_peers(const LivePeers& peers);
  void rebuild_for_generation(std::uint64_t generation);
  EpochOutcome run_epoch(const LiveStart& start);
  /// Wait until every other scheduled replica reported `round`; fills
  /// `outcome` and returns false when the wait was preempted.
  bool await_round_barrier(const LiveStart& start, std::uint32_t round,
                           std::uint64_t own_digest, EpochOutcome& outcome);
  void send_stall(const LiveStart& start, std::uint32_t round,
                  const std::vector<net::NodeId>& waiting);
  /// Answer a coordinator clock probe with our steady-clock reading.
  void reply_time_probe(const net::Message& msg);
  /// Ship the drained span buffer to the coordinator (no-op when the
  /// observer is absent or tracing is off).
  void flush_telemetry();
  [[nodiscard]] telemetry::EventTracer& tracer() {
    return observer_ != nullptr ? observer_->tracer()
                                : telemetry::disabled_tracer();
  }

  MessageBus& bus_;
  const net::NodeId coordinator_;
  const ReplicaOptions options_;
  RuntimeObserver* observer_ = nullptr;

  std::optional<LiveConfig> config_;
  core::SystemConfig system_config_;  // cached config_.to_system_config()
  std::vector<power::PowerModel> models_;
  power::PowerModel shared_model_;
  std::uint64_t generation_ = 0;

  std::unique_ptr<core::DistributedAlgorithm> algorithm_;
  std::uint64_t algorithm_generation_ = 0;  // generation it was built for

  std::vector<std::vector<core::PendingRequest>> epoch_buckets_;
  /// The running epoch (and the retry backlog it carries forward),
  /// assembled exactly as the simulator assembles it.
  core::EpochBatch batch_;

  /// Round frames that raced ahead of our own barrier wait, keyed by
  /// (generation, epoch, round) -> per-sender digest.  Generation is part
  /// of the key so frames from a peer that restarted into a newer
  /// generation before we processed the matching kStart are not lost.
  std::map<std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>,
           std::map<net::NodeId, std::uint64_t>>
      pending_rounds_;

  std::size_t epochs_completed_ = 0;
  std::uint64_t digest_mismatches_ = 0;
  std::uint64_t stalls_reported_ = 0;
};

}  // namespace edr::runtime
