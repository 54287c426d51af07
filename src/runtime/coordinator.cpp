#include "runtime/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

namespace edr::runtime {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

LiveCoordinator::LiveCoordinator(MessageBus& bus, LiveConfig config,
                                 CoordinatorOptions options)
    : bus_(bus),
      config_(std::move(config)),
      options_(std::move(options)),
      monitor_(options_.monitor) {
  if (config_.num_replicas() == 0)
    throw std::invalid_argument("live: no replicas configured");
  const auto n = config_.num_replicas();
  alive_.assign(n, 0);
  ever_helloed_.assign(n, 0);
  peer_table_.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    peer_table_[i].node = static_cast<net::NodeId>(i);
}

std::size_t LiveCoordinator::alive_count() const {
  std::size_t count = 0;
  for (const auto a : alive_) count += a;
  return count;
}

void LiveCoordinator::mark_dead(net::NodeId replica) {
  if (replica >= alive_.size() || !alive_[replica]) return;
#ifdef EDR_LIVE_TRACE
  std::fprintf(stderr, "[coord] mark_dead replica=%u gen=%llu\n", replica,
               (unsigned long long)generation_);
#endif
  log_event("mark_dead", {}, replica);
  if (observer_ != nullptr)
    observer_->tracer().instant("mark_dead", "live_membership",
                                static_cast<std::uint32_t>(bus_.self()));
  alive_[replica] = 0;
  if (std::find(result_.failed_replicas.begin(), result_.failed_replicas.end(),
                replica) == result_.failed_replicas.end())
    result_.failed_replicas.push_back(replica);
}

void LiveCoordinator::handle_hello(const net::Message& msg) {
  const LiveHello hello = decode_hello(msg, bus_.max_frame_bytes());
  if (hello.node >= config_.num_replicas()) return;  // not one of ours
  if (observer_ != nullptr)
    observer_->flow_in(hello.trace, "hello", "live_ctl");
  peer_table_[hello.node].port = hello.port;
  if (hello.port != 0)
    bus_.connect_peer(hello.node, "127.0.0.1", hello.port);
  ever_helloed_[hello.node] = 1;
  if (!alive_[hello.node]) {
    // Mid-run (re)join: configure it now, schedule it from the next epoch
    // boundary (joining mid-epoch would break the survivors' lockstep).
    log_event("hello", "rejoin", hello.node);
    const auto config_trace =
        observer_ != nullptr ? observer_->flow_out("config", "live_ctl")
                             : telemetry::TraceContext{};
    bus_.post(encode_config(bus_.self(), hello.node, config_, config_trace));
    LivePeers peers;
    peers.generation = generation_;
    peers.peers = peer_table_;
    peers.alive = alive_;
    if (observer_ != nullptr)
      peers.trace = observer_->flow_out("peers", "live_ctl");
    bus_.post(encode_peers(bus_.self(), hello.node, peers));
    if (std::find(pending_joins_.begin(), pending_joins_.end(), hello.node) ==
        pending_joins_.end())
      pending_joins_.push_back(hello.node);
  }
}

void LiveCoordinator::broadcast_peers() {
  LivePeers peers;
  peers.generation = generation_;
  peers.peers = peer_table_;
  peers.alive = alive_;
  for (std::size_t n = 0; n < ever_helloed_.size(); ++n) {
    if (!ever_helloed_[n]) continue;
    if (observer_ != nullptr)
      peers.trace = observer_->flow_out("peers", "live_ctl");
    bus_.post(encode_peers(bus_.self(), static_cast<net::NodeId>(n), peers));
  }
}

void LiveCoordinator::broadcast_start(std::uint32_t epoch) {
  LiveStart start;
  start.epoch = epoch;
  start.generation = generation_;
  start.now = static_cast<double>(epoch) * config_.epoch_length;
  start.alive = alive_;
  for (std::size_t n = 0; n < ever_helloed_.size(); ++n) {
    if (!ever_helloed_[n]) continue;
    if (observer_ != nullptr)
      start.trace = observer_->flow_out("start", "live_start");
    bus_.post(encode_start(bus_.self(), static_cast<net::NodeId>(n), start));
  }
}

void LiveCoordinator::log_event(std::string_view kind, std::string detail,
                                std::int64_t replica) {
  RuntimeEvent event;
  event.t_s = run_started_s_ > 0.0 ? now_seconds() - run_started_s_ : 0.0;
  event.kind = std::string(kind);
  event.epoch = current_epoch_;
  event.replica = replica;
  event.generation = generation_;
  event.detail = std::move(detail);
  result_.timeline.push_back(std::move(event));
}

void LiveCoordinator::send_time_probes() {
  if (observer_ == nullptr || !observer_->tracing()) return;
  for (std::size_t n = 0; n < ever_helloed_.size(); ++n) {
    if (!ever_helloed_[n] || !alive_[n]) continue;
    // A small burst per replica: the estimator keeps the lowest-RTT
    // exchange, so one quiet round trip is enough for a good offset.
    for (int burst = 0; burst < 3; ++burst) {
      LiveTimeProbe probe;
      probe.probe = next_probe_++;
      probe.sent_ns = RuntimeObserver::now_ns();
      bus_.post(
          encode_time_probe(bus_.self(), static_cast<net::NodeId>(n), probe));
    }
  }
}

void LiveCoordinator::handle_telemetry(const net::Message& msg) {
  auto batch = decode_telemetry(msg, bus_.max_frame_bytes());
  merger_.set_process(batch.node, "replica " + std::to_string(batch.node));
  merger_.add_dropped(batch.node, batch.dropped);
  merger_.add_events(batch.node, std::move(batch.events));
}

void LiveCoordinator::handle_time_reply(const net::Message& msg) {
  const auto reply = decode_time_reply(msg, bus_.max_frame_bytes());
  estimator_.observe(msg.from, reply.probe_ns, reply.replica_ns,
                     RuntimeObserver::now_ns());
}

void LiveCoordinator::drain_telemetry(double window_s) {
  const double deadline = now_seconds() + window_s;
  while (now_seconds() < deadline) {
    const auto msg = bus_.receive_for(0.05);
    if (!msg) continue;
    if (msg->type == kTelemetry) handle_telemetry(*msg);
    else if (msg->type == kTimeReply) handle_time_reply(*msg);
  }
}

std::string LiveCoordinator::merged_trace_json() {
  if (observer_ != nullptr) {
    auto batch = observer_->drain();
    merger_.set_process(batch.node, "coordinator");
    merger_.add_dropped(batch.node, batch.dropped);
    merger_.add_events(batch.node, std::move(batch.events));
  }
  for (std::size_t n = 0; n < ever_helloed_.size(); ++n) {
    if (!ever_helloed_[n]) continue;
    merger_.set_process(static_cast<std::uint32_t>(n),
                        "replica " + std::to_string(n));
    merger_.set_offset_ns(static_cast<std::uint32_t>(n),
                          estimator_.offset_ns(static_cast<std::uint32_t>(n)));
  }
  return merger_.to_chrome_json();
}

LiveRunResult LiveCoordinator::run() {
  run_started_s_ = now_seconds();
  log_event("run_start",
            "replicas=" + std::to_string(config_.num_replicas()) +
                " epochs=" + std::to_string(config_.epochs));
  monitor_.set_alert_callback([this](const telemetry::Alert& alert) {
    log_event("alert",
              std::string(telemetry::to_string(alert.kind)) + " " +
                  telemetry::to_string(alert.severity),
              alert.replica == telemetry::kNoReplica
                  ? std::int64_t{-1}
                  : static_cast<std::int64_t>(alert.replica));
    if (observer_ != nullptr)
      observer_->tracer().instant(telemetry::to_string(alert.kind),
                                  "live_alert",
                                  static_cast<std::uint32_t>(bus_.self()));
  });

  // ---- assembly: wait for the initial hellos
  const double hello_deadline = now_seconds() + options_.hello_timeout_s;
  while (alive_count() < config_.num_replicas() &&
         now_seconds() < hello_deadline) {
    const auto msg = bus_.receive_for(0.25);
    if (!msg) continue;
    if (msg->type == kHello) {
      const LiveHello hello = decode_hello(*msg, bus_.max_frame_bytes());
      if (hello.node >= config_.num_replicas()) continue;
      if (observer_ != nullptr)
        observer_->flow_in(hello.trace, "hello", "live_ctl");
      peer_table_[hello.node].port = hello.port;
      if (hello.port != 0)
        bus_.connect_peer(hello.node, "127.0.0.1", hello.port);
      ever_helloed_[hello.node] = 1;
      alive_[hello.node] = 1;
      log_event("hello", {}, hello.node);
    }
  }
  if (alive_count() == 0)
    throw std::runtime_error("live: no replica said hello");

  for (std::size_t n = 0; n < ever_helloed_.size(); ++n) {
    if (!ever_helloed_[n]) continue;
    const auto config_trace =
        observer_ != nullptr ? observer_->flow_out("config", "live_ctl")
                             : telemetry::TraceContext{};
    bus_.post(encode_config(bus_.self(), static_cast<net::NodeId>(n),
                            config_, config_trace));
  }
  broadcast_peers();
  send_time_probes();

  // ---- epoch schedule
  bool prev_epoch_alerted = false;
  for (std::uint32_t epoch = 0; epoch < config_.epochs; ++epoch) {
    current_epoch_ = epoch;
    if (options_.on_epoch_start) options_.on_epoch_start(epoch);
    // Rejoiners enter at epoch boundaries, under a fresh generation.
    if (!pending_joins_.empty()) {
      bool changed = false;
      for (const net::NodeId n : pending_joins_)
        if (!alive_[n]) {
          alive_[n] = 1;
          changed = true;
        }
      pending_joins_.clear();
      if (changed) {
        ++generation_;
        log_event("generation", "rejoin");
        broadcast_peers();
      }
    }
    if (alive_count() == 0) break;

    std::size_t attempts = 0;
    // Wall-clock latency spans every attempt: time lost to a stalled
    // attempt is real time the epoch's clients waited, and it is what
    // trips the monitor's response SLO during chaos.
    const double epoch_started = now_seconds();
    while (true) {
      const double logical_now =
          static_cast<double>(epoch) * config_.epoch_length;
      recorder_.begin_epoch(epoch, logical_now);
      monitor_.begin_epoch(epoch);
      log_event("epoch_start",
                attempts == 0 ? std::string{}
                              : "attempt " + std::to_string(attempts + 1));
      send_time_probes();
      broadcast_start(epoch);
      auto outcome = await_epoch(epoch, epoch_started);
      if (outcome) {
        monitor_.observe_response(outcome->wall_ms,
                                  logical_now + config_.epoch_length, epoch);
        auto summary = recorder_.end_epoch(logical_now + config_.epoch_length);
        monitor_.end_epoch(summary);
        if (prev_epoch_alerted && summary.alerts == 0)
          log_event("alert_cleared");
        prev_epoch_alerted = summary.alerts > 0;
        log_event("epoch_done",
                  "rounds=" + std::to_string(outcome->rounds) +
                      " wall_ms=" + std::to_string(outcome->wall_ms));
        result_.convergence.push_back(summary);
        result_.total_rounds += outcome->rounds;
        result_.epochs.push_back(std::move(*outcome));
        break;
      }
      if (++attempts > options_.max_epoch_retries || alive_count() == 0) {
        // Aborting the run: still tell every replica to exit, or they sit
        // out their idle timeout waiting for a start that never comes.
        log_event("run_abort");
        for (std::size_t n = 0; n < ever_helloed_.size(); ++n)
          if (ever_helloed_[n])
            bus_.post(
                encode_shutdown(bus_.self(), static_cast<net::NodeId>(n)));
        if (observer_ != nullptr && observer_->tracing())
          drain_telemetry(0.75);
        result_.alerts = monitor_.alerts();
        result_.generations = generation_;
        return result_;  // completed stays false
      }
    }
  }

  log_event("shutdown");
  for (std::size_t n = 0; n < ever_helloed_.size(); ++n)
    if (ever_helloed_[n])
      bus_.post(encode_shutdown(bus_.self(), static_cast<net::NodeId>(n)));
  // The final epoch's flush and the shutdown flush are still in flight;
  // soak them up so the merged trace covers the whole run.
  if (observer_ != nullptr && observer_->tracing()) drain_telemetry(0.75);

  result_.alerts = monitor_.alerts();
  result_.generations = generation_;
  result_.completed = result_.epochs.size() == config_.epochs;
  log_event("run_end");
  return result_;
}

std::optional<LiveEpochResult> LiveCoordinator::await_epoch(
    std::uint32_t epoch, double started_at) {
  std::map<net::NodeId, LiveEpochDone> done;
  std::vector<net::NodeId> expected;
  for (std::size_t n = 0; n < alive_.size(); ++n)
    if (alive_[n]) expected.push_back(static_cast<net::NodeId>(n));

  const std::uint64_t epoch_generation = generation_;
  // Watchdog clock restarts per attempt; started_at (the first attempt's
  // start) is only the base for the reported wall latency.
  double last_progress = now_seconds();
  auto regenerate = [&] {
    ++generation_;
    log_event("generation");
    broadcast_peers();
    return std::nullopt;
  };

  while (true) {
    if (done.size() == expected.size()) {
      // Assemble: columns in replica order, digests cross-checked.
      LiveEpochResult result;
      result.epoch = epoch;
      result.generation = epoch_generation;
      result.participants = expected;
      result.wall_ms = (now_seconds() - started_at) * 1e3;
      std::size_t rows = 0;
      for (const auto& [node, frame] : done) {
        rows = std::max(rows, frame.kind == LiveEpochDone::kSparseColumn
                                  ? std::size_t{frame.num_rows}
                                  : frame.column.size());
        result.rounds = std::max(result.rounds, frame.rounds);
      }
      result.allocation = Matrix(rows, expected.size(), 0.0);
      const auto& first = done.begin()->second;
      result.digest = first.digest;
      result.objective = first.objective;
      for (std::size_t col = 0; col < expected.size(); ++col) {
        const auto& frame = done.at(expected[col]);
        if (frame.digest != first.digest || frame.digest_mismatches != 0)
          result.digests_agree = false;
        if (frame.kind == LiveEpochDone::kSparseColumn) {
          for (std::size_t i = 0; i < frame.indices.size(); ++i)
            result.allocation(frame.indices[i], col) = frame.column[i];
        } else {
          for (std::size_t row = 0; row < frame.column.size(); ++row)
            result.allocation(row, col) = frame.column[row];
        }
      }
      return result;
    }

    const auto msg = bus_.receive_for(0.1);
    if (!msg) {
      if (now_seconds() - last_progress > options_.epoch_timeout_s) {
        // Watchdog: everyone still missing is presumed dead.
        log_event("watchdog_timeout");
        for (const net::NodeId n : expected)
          if (!done.count(n)) mark_dead(n);
        return regenerate();
      }
      continue;
    }
    last_progress = now_seconds();
    switch (msg->type) {
      case kSample: {
        telemetry::TraceContext trace;
        const auto sample =
            decode_sample(*msg, bus_.max_frame_bytes(), &trace);
        if (observer_ != nullptr)
          observer_->flow_in(trace, "sample", "live_sample");
        recorder_.record(sample);
        monitor_.observe(sample);
        break;
      }
      case kEpochDone: {
        auto frame = decode_epoch_done(*msg, bus_.max_frame_bytes(),
                                       config_.num_clients);
        if (observer_ != nullptr)
          observer_->flow_in(frame.trace, "epoch_done", "live_ctl");
        if (frame.epoch == epoch && frame.generation == epoch_generation)
          done[msg->from] = std::move(frame);
        break;
      }
      case kTelemetry:
        handle_telemetry(*msg);
        break;
      case kTimeReply:
        handle_time_reply(*msg);
        break;
      case kStall: {
        const auto stall = decode_stall(*msg, bus_.max_frame_bytes());
        if (observer_ != nullptr)
          observer_->flow_in(stall.trace, "stall", "live_ctl");
        log_event("stall", "round " + std::to_string(stall.round),
                  msg->from);
        if (stall.generation != epoch_generation) break;  // already handled
        bool changed = false;
        for (std::size_t n = 0; n < stall.missing.size(); ++n)
          if (stall.missing[n] && n < alive_.size() && alive_[n]) {
            mark_dead(static_cast<net::NodeId>(n));
            changed = true;
          }
        if (!changed && alive_.size() > msg->from && alive_[msg->from]) {
          // A stall naming nobody (one-shot backend declined): restart the
          // epoch under a new generation with the same membership.
          return regenerate();
        }
        if (changed) return regenerate();
        break;
      }
      case kPeerDown: {
        if (msg->from < alive_.size() && alive_[msg->from]) {
          log_event("peer_down", {}, msg->from);
          mark_dead(msg->from);
          return regenerate();
        }
        break;
      }
      case kHello:
        handle_hello(*msg);
        break;
      default:
        break;
    }
  }
}

}  // namespace edr::runtime
