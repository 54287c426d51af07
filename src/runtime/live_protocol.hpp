// Live-runtime wire protocol: the frames real EDR processes exchange.
//
// The live runtime executes the unchanged DistributedAlgorithm backends as
// deterministic replicated state machines: every replica holds the full
// algorithm and identical inputs, so each synchronous round produces the
// same state everywhere; the TCP round frame is the *barrier* that keeps
// the replicas in lockstep and carries an FNV-1a digest of the sender's
// state so replication is a checked invariant, not an assumption (see
// DESIGN.md §11).  The coordinator distributes the run configuration
// (including the full request schedule, so demand bucketing is identical
// on every host), starts epochs, collects per-round flight-recorder
// samples for the SLO/anomaly monitor, and arbitrates membership when a
// replica dies mid-epoch.
//
// All payloads are encoded with net/wire.hpp; receivers decode through a
// WireReader capped at the transport's max_frame_bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/simd.hpp"
#include "core/admm.hpp"
#include "core/cdpsm.hpp"
#include "core/lddm.hpp"
#include "core/system.hpp"
#include "net/network.hpp"
#include "optim/problem.hpp"
#include "power/model.hpp"
#include "telemetry/distributed_trace.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/trace.hpp"
#include "workload/trace.hpp"

namespace edr::runtime {

/// Frame type ids.  The ring owns [100, 200); algorithms own small ids —
/// the live runtime claims [200, 216).
enum LiveMessageType : int {
  kHello = 200,      ///< replica -> coord: I am up, my listen port
  kConfig = 201,     ///< coord -> replica: the serialized LiveConfig
  kPeers = 202,      ///< coord -> replica: peer table + membership
  kStart = 203,      ///< coord -> replica: run epoch e under generation g
  kRound = 204,      ///< replica <-> replica: round barrier + state digest
  kSample = 205,     ///< replica -> coord: one RoundSample
  kEpochDone = 206,  ///< replica -> coord: own allocation column + digest
  kStall = 207,      ///< replica -> coord: barrier timed out, who is missing
  kShutdown = 208,   ///< coord -> replica: exit cleanly
  kPeerDown = 209,   ///< synthetic (local): transport lost a connection
  kTelemetry = 210,  ///< replica -> coord: flushed span-buffer batch
  kTimeProbe = 211,  ///< coord -> replica: clock probe (coord steady ns)
  kTimeReply = 212,  ///< replica -> coord: probe echo + replica steady ns
};

/// Human label for a LiveMessageType ("hello", "round", ...); nullptr for
/// ids outside the live range.  Front ends feed these to
/// Transport::set_type_name so per-type traffic reports and the
/// net.bytes_by_type metric read "round" instead of "204".
[[nodiscard]] const char* live_frame_type_name(int type);

// Observability tail: every encoder below accepts a telemetry::TraceContext
// (either as a struct member or a trailing default argument) and appends a
// 16-byte (trace_id, span_id) tail to the payload *only when the context
// is valid* — with tracing off the wire bytes are unchanged.  Decoders read
// the tail iff at least 16 payload bytes remain after the body; decoders
// that predate the tail simply never look past the body, so old and new
// processes interoperate in both directions (see DESIGN.md §14).

/// Everything a replica needs to run the whole schedule deterministically.
/// A subset of SystemConfig plus the full request trace; features the live
/// runtime does not reproduce (power metering, file transfers, tariffs,
/// the heartbeat ring) are intentionally absent — see DESIGN.md §11 for
/// the determinism boundary.
struct LiveConfig {
  std::string algorithm = "lddm";
  std::uint32_t epochs = 3;
  double epoch_length = 1.0;
  std::uint32_t num_clients = 8;
  double max_latency = 1.8;
  double transfer_window_fraction = 0.7;
  bool derive_energy_model_from_power = true;
  bool warm_start = true;
  bool retry_shed = true;
  std::uint32_t max_retries = 3;
  /// Iterate storage for the iterative backends (see SystemConfig); every
  /// replica must use the same representation or round digests diverge.
  core::SolverRepresentation representation =
      core::SolverRepresentation::kDense;
  /// Kernel dispatch (see SystemConfig::simd).  Shipped on the wire for the
  /// same reason as the representation: kAuto results depend on the host's
  /// widest ISA, so a mixed-ISA cluster must pin kScalar (or accept the
  /// coordinator's digest checks flagging the divergence).
  common::simd::Mode simd = common::simd::Mode::kScalar;
  std::uint64_t seed = 1;
  std::vector<optim::ReplicaParams> replicas;
  Matrix latency;  ///< clients x replicas, ms
  power::PowerModelParams power;
  std::vector<power::PowerModelParams> power_per_replica;
  core::CdpsmOptions cdpsm{.step = 0.0, .max_rounds = 300,
                           .tolerance = 1e-4, .patience = 3};
  core::LddmOptions lddm{.rho = 2.0, .mu_step = 0.0, .mu_step_factor = 3.0,
                         .max_rounds = 300, .tolerance = 1e-4,
                         .patience = 3};
  core::AdmmOptions admm{.rho = 1.0, .max_rounds = 300, .tolerance = 1e-4,
                         .patience = 3};
  /// The full request schedule, sorted by arrival; every replica buckets
  /// it into epochs identically (epoch = floor(arrival / epoch_length)).
  std::vector<workload::Request> requests;

  [[nodiscard]] std::size_t num_replicas() const { return replicas.size(); }
  /// The SystemConfig the algorithm registry and epoch-problem builder
  /// consume (telemetry unset, ring disabled).
  [[nodiscard]] core::SystemConfig to_system_config() const;
};

/// A sane default workload + cluster for live smoke runs: heterogeneous
/// prices/bandwidths, a deterministic request schedule from `seed`.
[[nodiscard]] LiveConfig make_default_live_config(std::size_t num_replicas,
                                                  std::size_t num_clients,
                                                  std::uint32_t epochs,
                                                  std::uint64_t seed);

struct LiveHello {
  net::NodeId node = 0;
  std::uint16_t port = 0;  ///< 0 over transports without ports (inproc)
  telemetry::TraceContext trace;
};

struct PeerEntry {
  net::NodeId node = 0;
  std::uint16_t port = 0;
};

struct LivePeers {
  std::uint64_t generation = 0;
  std::vector<PeerEntry> peers;
  std::vector<std::uint8_t> alive;  ///< per replica id, 1 = scheduled
  telemetry::TraceContext trace;
};

struct LiveStart {
  std::uint32_t epoch = 0;
  std::uint64_t generation = 0;
  double now = 0.0;  ///< logical epoch-start time (tariff clock)
  std::vector<std::uint8_t> alive;
  telemetry::TraceContext trace;
};

struct LiveRound {
  std::uint32_t epoch = 0;
  std::uint64_t generation = 0;
  std::uint32_t round = 0;
  std::uint64_t digest = 0;  ///< sender's post-step state digest
  double load = 0.0;         ///< sender's assigned load after this round
  telemetry::TraceContext trace;
};

struct LiveEpochDone {
  std::uint32_t epoch = 0;
  std::uint64_t generation = 0;
  std::uint32_t rounds = 0;
  std::uint64_t digest = 0;  ///< digest of the full final allocation
  double objective = 0.0;
  std::uint32_t digest_mismatches = 0;  ///< round digests that disagreed
  /// Column encoding.  kDenseColumn ships every row; kSparseColumn ships
  /// only the nonzero rows as (index, value) pairs over num_rows rows —
  /// what the compact representations use, since a replica's column has at
  /// most nnz-of-its-feasible-set entries.  The coordinator zero-fills, so
  /// the two encodings assemble identical allocations.
  static constexpr std::uint8_t kDenseColumn = 0;
  static constexpr std::uint8_t kSparseColumn = 1;
  std::uint8_t kind = kDenseColumn;
  std::uint32_t num_rows = 0;            ///< active clients (kSparseColumn)
  std::vector<std::uint32_t> indices;    ///< row ids (kSparseColumn)
  /// Dense: one value per active client.  Sparse: one value per index.
  std::vector<double> column;
  telemetry::TraceContext trace;
};

struct LiveStall {
  std::uint32_t epoch = 0;
  std::uint64_t generation = 0;
  std::uint32_t round = 0;
  std::vector<std::uint8_t> missing;  ///< per replica id, 1 = not heard from
  telemetry::TraceContext trace;
};

/// Flushed span-buffer batch (kTelemetry): a replica ships the events its
/// local steady-clock tracer recorded since the previous flush.  Timestamps
/// are the *sender's* clock; the coordinator aligns them with its
/// ClockOffsetEstimator offsets before merging.  An empty batch is legal
/// (a flush with nothing new still reports `dropped`).
struct LiveTelemetry {
  net::NodeId node = 0;
  std::uint64_t dropped = 0;  ///< sender-side ring-buffer drops so far
  std::vector<telemetry::TraceEvent> events;
  telemetry::TraceContext trace;
};

/// Clock probe (kTimeProbe): the coordinator stamps its own steady clock;
/// the replica echoes it back with its own reading (kTimeReply).  The
/// coordinator computes the NTP-style midpoint offset from the echo and
/// its receive time — see telemetry::ClockOffsetEstimator.
struct LiveTimeProbe {
  std::uint32_t probe = 0;     ///< sequence number, echoed verbatim
  std::int64_t sent_ns = 0;    ///< sender steady-clock at send
};

struct LiveTimeReply {
  std::uint32_t probe = 0;
  std::int64_t probe_ns = 0;    ///< echoed LiveTimeProbe::sent_ns
  std::int64_t replica_ns = 0;  ///< replica steady-clock at reply
};

/// FNV-1a over raw double bit patterns — the replication digest.
[[nodiscard]] std::uint64_t fnv1a(std::uint64_t hash, double value);
[[nodiscard]] std::uint64_t digest_doubles(const double* values,
                                           std::size_t count);
[[nodiscard]] std::uint64_t digest_matrix(const Matrix& matrix);
[[nodiscard]] std::uint64_t digest_samples(
    const std::vector<telemetry::RoundSample>& samples);

// Encoders build a complete net::Message (payload = encoded bytes, bytes =
// payload size); decoders throw std::out_of_range / std::length_error on
// malformed frames (callers treat that as a protocol error).
[[nodiscard]] net::Message encode_hello(net::NodeId from, net::NodeId to,
                                        const LiveHello& hello);
[[nodiscard]] LiveHello decode_hello(const net::Message& msg,
                                     std::size_t max_frame_bytes);

/// LiveConfig itself stays inside the determinism boundary, so the trace
/// context rides as a trailing argument instead of a struct member;
/// decode_config ignores the tail (config delivery needs no causal link).
[[nodiscard]] net::Message encode_config(
    net::NodeId from, net::NodeId to, const LiveConfig& config,
    const telemetry::TraceContext& trace = {});
[[nodiscard]] LiveConfig decode_config(const net::Message& msg,
                                       std::size_t max_frame_bytes);

[[nodiscard]] net::Message encode_peers(net::NodeId from, net::NodeId to,
                                        const LivePeers& peers);
[[nodiscard]] LivePeers decode_peers(const net::Message& msg,
                                     std::size_t max_frame_bytes);

[[nodiscard]] net::Message encode_start(net::NodeId from, net::NodeId to,
                                        const LiveStart& start);
[[nodiscard]] LiveStart decode_start(const net::Message& msg,
                                     std::size_t max_frame_bytes);

[[nodiscard]] net::Message encode_round(net::NodeId from, net::NodeId to,
                                        const LiveRound& round);
[[nodiscard]] LiveRound decode_round(const net::Message& msg,
                                     std::size_t max_frame_bytes);

/// RoundSample is a telemetry type, so (like kConfig) the trace context
/// rides beside it; decode fills `trace` when non-null and a tail exists.
[[nodiscard]] net::Message encode_sample(
    net::NodeId from, net::NodeId to, const telemetry::RoundSample& s,
    const telemetry::TraceContext& trace = {});
[[nodiscard]] telemetry::RoundSample decode_sample(
    const net::Message& msg, std::size_t max_frame_bytes,
    telemetry::TraceContext* trace = nullptr);

[[nodiscard]] net::Message encode_epoch_done(net::NodeId from, net::NodeId to,
                                             const LiveEpochDone& done);
/// `max_rows` bounds the column length (the run's client count): a frame
/// claiming more rows throws std::out_of_range before anything is sized
/// from it.
[[nodiscard]] LiveEpochDone decode_epoch_done(const net::Message& msg,
                                              std::size_t max_frame_bytes,
                                              std::size_t max_rows);

[[nodiscard]] net::Message encode_stall(net::NodeId from, net::NodeId to,
                                        const LiveStall& stall);
[[nodiscard]] LiveStall decode_stall(const net::Message& msg,
                                     std::size_t max_frame_bytes);

[[nodiscard]] net::Message encode_shutdown(net::NodeId from, net::NodeId to);

[[nodiscard]] net::Message encode_telemetry(net::NodeId from, net::NodeId to,
                                            const LiveTelemetry& batch);
[[nodiscard]] LiveTelemetry decode_telemetry(const net::Message& msg,
                                             std::size_t max_frame_bytes);

[[nodiscard]] net::Message encode_time_probe(net::NodeId from, net::NodeId to,
                                             const LiveTimeProbe& probe);
[[nodiscard]] LiveTimeProbe decode_time_probe(const net::Message& msg,
                                              std::size_t max_frame_bytes);

[[nodiscard]] net::Message encode_time_reply(net::NodeId from, net::NodeId to,
                                             const LiveTimeReply& reply);
[[nodiscard]] LiveTimeReply decode_time_reply(const net::Message& msg,
                                              std::size_t max_frame_bytes);

}  // namespace edr::runtime
