#include "runtime/live_protocol.hpp"

#include <any>
#include <cstring>
#include <span>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "net/wire.hpp"
#include "optim/instance.hpp"
#include "workload/apps.hpp"

namespace edr::runtime {

namespace {

net::Message finish(net::NodeId from, net::NodeId to, int type,
                    net::WireWriter writer) {
  net::Message msg;
  msg.from = from;
  msg.to = to;
  msg.type = type;
  msg.bytes = writer.size();
  msg.payload = writer.take();
  return msg;
}

net::WireReader reader_for(const net::Message& msg,
                           std::size_t max_frame_bytes) {
  const auto& bytes =
      std::any_cast<const std::vector<std::uint8_t>&>(msg.payload);
  return net::WireReader{std::span{bytes.data(), bytes.size()},
                         max_frame_bytes};
}

void put_power(net::WireWriter& writer, const power::PowerModelParams& p) {
  writer.put_double(p.idle);
  writer.put_double(p.selection_compute);
  writer.put_double(p.coordination_per_intensity);
  writer.put_double(p.transfer_linear);
  writer.put_double(p.transfer_poly);
  writer.put_double(p.gamma);
}

power::PowerModelParams get_power(net::WireReader& reader) {
  power::PowerModelParams p;
  p.idle = reader.get_double();
  p.selection_compute = reader.get_double();
  p.coordination_per_intensity = reader.get_double();
  p.transfer_linear = reader.get_double();
  p.transfer_poly = reader.get_double();
  p.gamma = reader.get_double();
  return p;
}

void put_bytes(net::WireWriter& writer, const std::vector<std::uint8_t>& v) {
  writer.put_u32(static_cast<std::uint32_t>(v.size()));
  for (const std::uint8_t b : v) writer.put_u8(b);
}

std::vector<std::uint8_t> get_bytes(net::WireReader& reader) {
  const std::uint32_t count = reader.get_u32();
  if (count > reader.remaining())
    throw std::out_of_range{"live: byte vector truncated"};
  std::vector<std::uint8_t> v(count);
  for (auto& b : v) b = reader.get_u8();
  return v;
}

/// Optional observability tail: 16 bytes appended after the frame body
/// only when a trace context exists, so tracing-off byte streams are
/// unchanged and pre-tail decoders (which never read past the body) stay
/// compatible.
void put_trace_tail(net::WireWriter& writer,
                    const telemetry::TraceContext& trace) {
  if (!trace.valid()) return;
  writer.put_u64(trace.trace_id);
  writer.put_u64(trace.span_id);
}

telemetry::TraceContext get_trace_tail(net::WireReader& reader) {
  telemetry::TraceContext trace;
  if (reader.remaining() < 16) return trace;
  trace.trace_id = reader.get_u64();
  trace.span_id = reader.get_u64();
  return trace;
}

}  // namespace

core::SystemConfig LiveConfig::to_system_config() const {
  core::SystemConfig cfg;
  cfg.algorithm = algorithm;
  cfg.replicas = replicas;
  cfg.num_clients = num_clients;
  cfg.latency = latency;
  cfg.max_latency = max_latency;
  cfg.epoch_length = epoch_length;
  cfg.derive_energy_model_from_power = derive_energy_model_from_power;
  cfg.warm_start = warm_start;
  cfg.retry_shed = retry_shed;
  cfg.max_retries = max_retries;
  cfg.representation = representation;
  cfg.simd = simd;
  cfg.power = power;
  cfg.power_per_replica = power_per_replica;
  cfg.cdpsm = cdpsm;
  cfg.lddm = lddm;
  cfg.admm = admm;
  cfg.solver_threads = 1;  // replicas are the parallelism in live mode
  cfg.enable_ring = false;  // TCP disconnects are the failure detector
  cfg.record_traces = false;
  cfg.seed = seed;
  return cfg;
}

LiveConfig make_default_live_config(std::size_t num_replicas,
                                    std::size_t num_clients,
                                    std::uint32_t epochs,
                                    std::uint64_t seed) {
  LiveConfig cfg;
  cfg.epochs = epochs;
  cfg.num_clients = static_cast<std::uint32_t>(num_clients);
  cfg.seed = seed;
  const auto base = optim::paper_replica_set();
  for (std::size_t n = 0; n < num_replicas; ++n)
    cfg.replicas.push_back(base[n % base.size()]);
  Rng rng{seed};
  // SystemG-like single-LAN links (see analysis::paper_config).
  cfg.latency = core::make_latency_matrix(rng, num_clients, num_replicas,
                                          0.05, 0.35, cfg.max_latency);
  workload::TraceOptions trace_options;
  trace_options.num_clients = num_clients;
  trace_options.horizon = cfg.epoch_length * epochs;
  // The bench default (2 req/s) leaves whole epochs empty at live-smoke
  // horizons of a few seconds; a live epoch with no traffic exercises
  // nothing, so run the same app at a much denser rate.
  auto app = workload::video_streaming();
  app.base_rate_hz = 30.0;
  cfg.requests =
      workload::Trace::generate(rng, app, trace_options).requests();
  return cfg;
}

std::uint64_t fnv1a(std::uint64_t hash, double value) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  for (int shift = 0; shift < 64; shift += 8) {
    hash ^= (bits >> shift) & 0xffu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t digest_doubles(const double* values, std::size_t count) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < count; ++i) hash = fnv1a(hash, values[i]);
  return hash;
}

std::uint64_t digest_matrix(const Matrix& matrix) {
  const auto flat = matrix.flat();
  return digest_doubles(flat.data(), flat.size());
}

std::uint64_t digest_samples(
    const std::vector<telemetry::RoundSample>& samples) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const auto& s : samples) {
    hash = fnv1a(hash, static_cast<double>(s.round));
    hash = fnv1a(hash, s.round_objective);
    hash = fnv1a(hash, s.disagreement);
    hash = fnv1a(hash, s.load);
  }
  return hash;
}

net::Message encode_hello(net::NodeId from, net::NodeId to,
                          const LiveHello& hello) {
  net::WireWriter w;
  w.put_u32(hello.node);
  w.put_u32(hello.port);
  put_trace_tail(w, hello.trace);
  return finish(from, to, kHello, std::move(w));
}

LiveHello decode_hello(const net::Message& msg, std::size_t max_frame_bytes) {
  auto r = reader_for(msg, max_frame_bytes);
  LiveHello hello;
  hello.node = r.get_u32();
  hello.port = static_cast<std::uint16_t>(r.get_u32());
  hello.trace = get_trace_tail(r);
  return hello;
}

net::Message encode_config(net::NodeId from, net::NodeId to,
                           const LiveConfig& config,
                           const telemetry::TraceContext& trace) {
  net::WireWriter w;
  w.put_string(config.algorithm);
  w.put_u32(config.epochs);
  w.put_double(config.epoch_length);
  w.put_u32(config.num_clients);
  w.put_double(config.max_latency);
  w.put_double(config.transfer_window_fraction);
  w.put_u8(config.derive_energy_model_from_power ? 1 : 0);
  w.put_u8(config.warm_start ? 1 : 0);
  w.put_u8(config.retry_shed ? 1 : 0);
  w.put_u32(config.max_retries);
  w.put_u8(static_cast<std::uint8_t>(config.representation));
  w.put_u8(static_cast<std::uint8_t>(config.simd));
  w.put_u64(config.seed);
  w.put_u32(static_cast<std::uint32_t>(config.replicas.size()));
  for (const auto& p : config.replicas) {
    w.put_double(p.price);
    w.put_double(p.alpha);
    w.put_double(p.beta);
    w.put_double(p.gamma);
    w.put_double(p.bandwidth);
  }
  w.put_matrix(config.latency);
  put_power(w, config.power);
  w.put_u32(static_cast<std::uint32_t>(config.power_per_replica.size()));
  for (const auto& p : config.power_per_replica) put_power(w, p);
  w.put_double(config.cdpsm.step);
  w.put_u8(config.cdpsm.diminishing_step ? 1 : 0);
  w.put_u64(config.cdpsm.max_rounds);
  w.put_double(config.cdpsm.tolerance);
  w.put_u64(config.cdpsm.patience);
  w.put_double(config.lddm.rho);
  w.put_double(config.lddm.mu_step);
  w.put_double(config.lddm.mu_step_factor);
  w.put_u64(config.lddm.max_rounds);
  w.put_double(config.lddm.initial_mu);
  w.put_double(config.lddm.tolerance);
  w.put_u64(config.lddm.patience);
  w.put_double(config.admm.rho);
  w.put_u8(config.admm.adapt_rho ? 1 : 0);
  w.put_double(config.admm.adapt_factor);
  w.put_double(config.admm.adapt_threshold);
  w.put_u64(config.admm.max_rounds);
  w.put_double(config.admm.tolerance);
  w.put_u64(config.admm.patience);
  w.put_u32(static_cast<std::uint32_t>(config.requests.size()));
  for (const auto& request : config.requests) {
    w.put_u64(request.id);
    w.put_u32(request.client);
    w.put_double(request.arrival);
    w.put_double(request.size_mb);
    w.put_u64(request.object_id);
  }
  put_trace_tail(w, trace);
  return finish(from, to, kConfig, std::move(w));
}

LiveConfig decode_config(const net::Message& msg,
                         std::size_t max_frame_bytes) {
  auto r = reader_for(msg, max_frame_bytes);
  LiveConfig config;
  config.algorithm = r.get_string();
  config.epochs = r.get_u32();
  config.epoch_length = r.get_double();
  config.num_clients = r.get_u32();
  config.max_latency = r.get_double();
  config.transfer_window_fraction = r.get_double();
  config.derive_energy_model_from_power = r.get_u8() != 0;
  config.warm_start = r.get_u8() != 0;
  config.retry_shed = r.get_u8() != 0;
  config.max_retries = r.get_u32();
  const std::uint8_t representation = r.get_u8();
  if (representation >
      static_cast<std::uint8_t>(core::SolverRepresentation::kAggregated))
    throw std::out_of_range{"live: unknown solver representation"};
  config.representation =
      static_cast<core::SolverRepresentation>(representation);
  const std::uint8_t simd = r.get_u8();
  if (simd > static_cast<std::uint8_t>(common::simd::Mode::kAuto))
    throw std::out_of_range{"live: unknown simd mode"};
  config.simd = static_cast<common::simd::Mode>(simd);
  config.seed = r.get_u64();
  const std::uint32_t num_replicas = r.get_u32();
  if (std::size_t{num_replicas} * 40 > max_frame_bytes)
    throw std::length_error{"live: replica table exceeds frame cap"};
  config.replicas.reserve(num_replicas);
  for (std::uint32_t n = 0; n < num_replicas; ++n) {
    optim::ReplicaParams p;
    p.price = r.get_double();
    p.alpha = r.get_double();
    p.beta = r.get_double();
    p.gamma = r.get_double();
    p.bandwidth = r.get_double();
    config.replicas.push_back(p);
  }
  config.latency = r.get_matrix();
  config.power = get_power(r);
  const std::uint32_t num_models = r.get_u32();
  if (std::size_t{num_models} * 48 > max_frame_bytes)
    throw std::length_error{"live: power table exceeds frame cap"};
  config.power_per_replica.reserve(num_models);
  for (std::uint32_t n = 0; n < num_models; ++n)
    config.power_per_replica.push_back(get_power(r));
  config.cdpsm.step = r.get_double();
  config.cdpsm.diminishing_step = r.get_u8() != 0;
  config.cdpsm.max_rounds = r.get_u64();
  config.cdpsm.tolerance = r.get_double();
  config.cdpsm.patience = r.get_u64();
  config.lddm.rho = r.get_double();
  config.lddm.mu_step = r.get_double();
  config.lddm.mu_step_factor = r.get_double();
  config.lddm.max_rounds = r.get_u64();
  config.lddm.initial_mu = r.get_double();
  config.lddm.tolerance = r.get_double();
  config.lddm.patience = r.get_u64();
  config.admm.rho = r.get_double();
  config.admm.adapt_rho = r.get_u8() != 0;
  config.admm.adapt_factor = r.get_double();
  config.admm.adapt_threshold = r.get_double();
  config.admm.max_rounds = r.get_u64();
  config.admm.tolerance = r.get_double();
  config.admm.patience = r.get_u64();
  const std::uint32_t num_requests = r.get_u32();
  if (std::size_t{num_requests} * 36 > max_frame_bytes)
    throw std::length_error{"live: request schedule exceeds frame cap"};
  config.requests.reserve(num_requests);
  for (std::uint32_t i = 0; i < num_requests; ++i) {
    workload::Request request;
    request.id = r.get_u64();
    request.client = r.get_u32();
    request.arrival = r.get_double();
    request.size_mb = r.get_double();
    request.object_id = r.get_u64();
    if (!workload::well_formed(request))
      throw std::out_of_range{"live: request arrival or size out of range"};
    config.requests.push_back(request);
  }
  return config;
}

net::Message encode_peers(net::NodeId from, net::NodeId to,
                          const LivePeers& peers) {
  net::WireWriter w;
  w.put_u64(peers.generation);
  w.put_u32(static_cast<std::uint32_t>(peers.peers.size()));
  for (const auto& entry : peers.peers) {
    w.put_u32(entry.node);
    w.put_u32(entry.port);
  }
  put_bytes(w, peers.alive);
  put_trace_tail(w, peers.trace);
  return finish(from, to, kPeers, std::move(w));
}

LivePeers decode_peers(const net::Message& msg, std::size_t max_frame_bytes) {
  auto r = reader_for(msg, max_frame_bytes);
  LivePeers peers;
  peers.generation = r.get_u64();
  const std::uint32_t count = r.get_u32();
  if (std::size_t{count} * 8 > max_frame_bytes)
    throw std::length_error{"live: peer table exceeds frame cap"};
  peers.peers.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    PeerEntry entry;
    entry.node = r.get_u32();
    entry.port = static_cast<std::uint16_t>(r.get_u32());
    peers.peers.push_back(entry);
  }
  peers.alive = get_bytes(r);
  peers.trace = get_trace_tail(r);
  return peers;
}

net::Message encode_start(net::NodeId from, net::NodeId to,
                          const LiveStart& start) {
  net::WireWriter w;
  w.put_u32(start.epoch);
  w.put_u64(start.generation);
  w.put_double(start.now);
  put_bytes(w, start.alive);
  put_trace_tail(w, start.trace);
  return finish(from, to, kStart, std::move(w));
}

LiveStart decode_start(const net::Message& msg, std::size_t max_frame_bytes) {
  auto r = reader_for(msg, max_frame_bytes);
  LiveStart start;
  start.epoch = r.get_u32();
  start.generation = r.get_u64();
  start.now = r.get_double();
  start.alive = get_bytes(r);
  start.trace = get_trace_tail(r);
  return start;
}

net::Message encode_round(net::NodeId from, net::NodeId to,
                          const LiveRound& round) {
  net::WireWriter w;
  w.put_u32(round.epoch);
  w.put_u64(round.generation);
  w.put_u32(round.round);
  w.put_u64(round.digest);
  w.put_double(round.load);
  put_trace_tail(w, round.trace);
  return finish(from, to, kRound, std::move(w));
}

LiveRound decode_round(const net::Message& msg, std::size_t max_frame_bytes) {
  auto r = reader_for(msg, max_frame_bytes);
  LiveRound round;
  round.epoch = r.get_u32();
  round.generation = r.get_u64();
  round.round = r.get_u32();
  round.digest = r.get_u64();
  round.load = r.get_double();
  round.trace = get_trace_tail(r);
  return round;
}

net::Message encode_sample(net::NodeId from, net::NodeId to,
                           const telemetry::RoundSample& s,
                           const telemetry::TraceContext& trace) {
  net::WireWriter w;
  w.put_u64(s.epoch);
  w.put_u64(s.round);
  w.put_u32(s.replica);
  w.put_double(s.time);
  w.put_double(s.objective);
  w.put_double(s.round_objective);
  w.put_double(s.gradient_norm);
  w.put_double(s.disagreement);
  w.put_double(s.projection_correction);
  w.put_double(s.capacity_slack);
  w.put_double(s.load);
  w.put_double(s.load_delta);
  w.put_u64(s.messages_sent);
  w.put_u64(s.bytes_sent);
  put_trace_tail(w, trace);
  return finish(from, to, kSample, std::move(w));
}

telemetry::RoundSample decode_sample(const net::Message& msg,
                                     std::size_t max_frame_bytes,
                                     telemetry::TraceContext* trace) {
  auto r = reader_for(msg, max_frame_bytes);
  telemetry::RoundSample s;
  s.epoch = r.get_u64();
  s.round = r.get_u64();
  s.replica = r.get_u32();
  s.time = r.get_double();
  s.objective = r.get_double();
  s.round_objective = r.get_double();
  s.gradient_norm = r.get_double();
  s.disagreement = r.get_double();
  s.projection_correction = r.get_double();
  s.capacity_slack = r.get_double();
  s.load = r.get_double();
  s.load_delta = r.get_double();
  s.messages_sent = r.get_u64();
  s.bytes_sent = r.get_u64();
  if (trace != nullptr) *trace = get_trace_tail(r);
  return s;
}

net::Message encode_epoch_done(net::NodeId from, net::NodeId to,
                               const LiveEpochDone& done) {
  net::WireWriter w;
  w.put_u32(done.epoch);
  w.put_u64(done.generation);
  w.put_u32(done.rounds);
  w.put_u64(done.digest);
  w.put_double(done.objective);
  w.put_u32(done.digest_mismatches);
  w.put_u8(done.kind);
  if (done.kind == LiveEpochDone::kSparseColumn) {
    w.put_u32(done.num_rows);
    w.put_indexed_doubles(done.indices, done.column);
  } else {
    w.put_doubles(done.column);
  }
  put_trace_tail(w, done.trace);
  return finish(from, to, kEpochDone, std::move(w));
}

LiveEpochDone decode_epoch_done(const net::Message& msg,
                                std::size_t max_frame_bytes,
                                std::size_t max_rows) {
  auto r = reader_for(msg, max_frame_bytes);
  LiveEpochDone done;
  done.epoch = r.get_u32();
  done.generation = r.get_u64();
  done.rounds = r.get_u32();
  done.digest = r.get_u64();
  done.objective = r.get_double();
  done.digest_mismatches = r.get_u32();
  done.kind = r.get_u8();
  if (done.kind == LiveEpochDone::kSparseColumn) {
    done.num_rows = r.get_u32();
    if (done.num_rows > max_rows)
      throw std::out_of_range{"live: epoch-done column has too many rows"};
    r.get_indexed_doubles(done.indices, done.column);
    for (const std::uint32_t row : done.indices)
      if (row >= done.num_rows)
        throw std::out_of_range{"live: sparse column index out of range"};
  } else if (done.kind == LiveEpochDone::kDenseColumn) {
    done.column = r.get_doubles();
    if (done.column.size() > max_rows)
      throw std::out_of_range{"live: epoch-done column has too many rows"};
    done.num_rows = static_cast<std::uint32_t>(done.column.size());
  } else {
    throw std::out_of_range{"live: unknown epoch-done column encoding"};
  }
  done.trace = get_trace_tail(r);
  return done;
}

net::Message encode_stall(net::NodeId from, net::NodeId to,
                          const LiveStall& stall) {
  net::WireWriter w;
  w.put_u32(stall.epoch);
  w.put_u64(stall.generation);
  w.put_u32(stall.round);
  put_bytes(w, stall.missing);
  put_trace_tail(w, stall.trace);
  return finish(from, to, kStall, std::move(w));
}

LiveStall decode_stall(const net::Message& msg, std::size_t max_frame_bytes) {
  auto r = reader_for(msg, max_frame_bytes);
  LiveStall stall;
  stall.epoch = r.get_u32();
  stall.generation = r.get_u64();
  stall.round = r.get_u32();
  stall.missing = get_bytes(r);
  stall.trace = get_trace_tail(r);
  return stall;
}

net::Message encode_shutdown(net::NodeId from, net::NodeId to) {
  net::Message msg;
  msg.from = from;
  msg.to = to;
  msg.type = kShutdown;
  msg.bytes = 0;
  msg.payload = std::vector<std::uint8_t>{};
  return msg;
}

net::Message encode_telemetry(net::NodeId from, net::NodeId to,
                              const LiveTelemetry& batch) {
  net::WireWriter w;
  w.put_u32(batch.node);
  w.put_u64(batch.dropped);
  w.put_u32(static_cast<std::uint32_t>(batch.events.size()));
  for (const auto& event : batch.events) {
    w.put_double(event.ts);
    w.put_double(event.dur);
    w.put_u32(event.tid);
    w.put_u8(static_cast<std::uint8_t>(event.phase));
    w.put_u64(event.id);
    w.put_u64(event.parent);
    w.put_string(event.name);
    w.put_string(event.category);
  }
  put_trace_tail(w, batch.trace);
  return finish(from, to, kTelemetry, std::move(w));
}

LiveTelemetry decode_telemetry(const net::Message& msg,
                               std::size_t max_frame_bytes) {
  auto r = reader_for(msg, max_frame_bytes);
  LiveTelemetry batch;
  batch.node = r.get_u32();
  batch.dropped = r.get_u64();
  const std::uint32_t count = r.get_u32();
  // 45 bytes is the floor per event (fixed fields + two empty strings), so
  // a declared count past this bound cannot fit in any legal frame.
  if (std::size_t{count} * 45 > max_frame_bytes)
    throw std::length_error{"live: telemetry batch exceeds frame cap"};
  batch.events.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    telemetry::TraceEvent event;
    event.ts = r.get_double();
    event.dur = r.get_double();
    event.tid = r.get_u32();
    const std::uint8_t phase = r.get_u8();
    if (phase > static_cast<std::uint8_t>(
                    telemetry::TraceEvent::Phase::kFlowEnd))
      throw std::out_of_range{"live: unknown trace event phase"};
    event.phase = static_cast<telemetry::TraceEvent::Phase>(phase);
    event.id = r.get_u64();
    event.parent = r.get_u64();
    event.name = r.get_string();
    event.category = r.get_string();
    batch.events.push_back(std::move(event));
  }
  batch.trace = get_trace_tail(r);
  return batch;
}

net::Message encode_time_probe(net::NodeId from, net::NodeId to,
                               const LiveTimeProbe& probe) {
  net::WireWriter w;
  w.put_u32(probe.probe);
  w.put_u64(static_cast<std::uint64_t>(probe.sent_ns));
  return finish(from, to, kTimeProbe, std::move(w));
}

LiveTimeProbe decode_time_probe(const net::Message& msg,
                                std::size_t max_frame_bytes) {
  auto r = reader_for(msg, max_frame_bytes);
  LiveTimeProbe probe;
  probe.probe = r.get_u32();
  probe.sent_ns = static_cast<std::int64_t>(r.get_u64());
  return probe;
}

net::Message encode_time_reply(net::NodeId from, net::NodeId to,
                               const LiveTimeReply& reply) {
  net::WireWriter w;
  w.put_u32(reply.probe);
  w.put_u64(static_cast<std::uint64_t>(reply.probe_ns));
  w.put_u64(static_cast<std::uint64_t>(reply.replica_ns));
  return finish(from, to, kTimeReply, std::move(w));
}

LiveTimeReply decode_time_reply(const net::Message& msg,
                                std::size_t max_frame_bytes) {
  auto r = reader_for(msg, max_frame_bytes);
  LiveTimeReply reply;
  reply.probe = r.get_u32();
  reply.probe_ns = static_cast<std::int64_t>(r.get_u64());
  reply.replica_ns = static_cast<std::int64_t>(r.get_u64());
  return reply;
}

const char* live_frame_type_name(int type) {
  switch (type) {
    case kHello: return "hello";
    case kConfig: return "config";
    case kPeers: return "peers";
    case kStart: return "start";
    case kRound: return "round";
    case kSample: return "sample";
    case kEpochDone: return "epoch_done";
    case kStall: return "stall";
    case kShutdown: return "shutdown";
    case kPeerDown: return "peer_down";
    case kTelemetry: return "telemetry";
    case kTimeProbe: return "time_probe";
    case kTimeReply: return "time_reply";
    default: return nullptr;
  }
}

}  // namespace edr::runtime
