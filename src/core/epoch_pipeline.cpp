#include "core/epoch_pipeline.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/log.hpp"
#include "common/math_util.hpp"

namespace edr::core {

telemetry::EventTracer& EpochPipeline::tracer() {
  return cfg_.telemetry ? cfg_.telemetry->tracer()
                        : telemetry::disabled_tracer();
}

EpochContext EpochPipeline::context() const {
  return batch_.context(num_clients_, num_solvers_, cfg_.telemetry.get());
}

EpochPipeline::EpochPipeline(SystemConfig config,
                             std::unique_ptr<DistributedAlgorithm> algorithm,
                             workload::Trace trace)
    : cfg_(std::move(config)),
      algorithm_(std::move(algorithm)),
      trace_(std::move(trace)),
      rng_(cfg_.seed),
      power_model_(cfg_.power) {
  num_replicas_ = cfg_.replicas.size();
  num_clients_ = cfg_.num_clients;
  const std::size_t mapping_nodes = algorithm_->mapping_nodes();
  decision_only_ = mapping_nodes != 0;
  num_solvers_ = decision_only_ ? mapping_nodes : num_replicas_;
  if (num_replicas_ == 0)
    throw std::invalid_argument("EdrSystem: no replicas configured");
  if (num_clients_ == 0)
    throw std::invalid_argument("EdrSystem: no clients configured");

  if (cfg_.latency.empty())
    cfg_.latency =
        make_latency_matrix(rng_, num_clients_, num_replicas_,
                            cfg_.min_link_latency, cfg_.max_link_latency,
                            cfg_.max_latency);
  if (cfg_.latency.rows() != num_clients_ ||
      cfg_.latency.cols() != num_replicas_)
    throw std::invalid_argument("EdrSystem: latency matrix shape mismatch");
  if (!cfg_.tariffs.empty() && cfg_.tariffs.size() != num_replicas_)
    throw std::invalid_argument(
        "EdrSystem: need one tariff per replica (or none)");
  if (!cfg_.power_per_replica.empty()) {
    if (cfg_.power_per_replica.size() != num_replicas_)
      throw std::invalid_argument(
          "EdrSystem: need one power model per replica (or none)");
    for (const auto& params : cfg_.power_per_replica)
      models_.emplace_back(params);
  }

  timelines_.resize(num_replicas_);
  batch_.alive.assign(num_replicas_, true);
  death_time_.assign(num_replicas_, -1.0);
  down_intervals_.resize(num_replicas_);
  transfer_until_.assign(num_replicas_, 0.0);

  network_.set_type_name(kClientRequest, "client_request");
  network_.set_type_name(kAssignment, "assignment");
  network_.set_type_name(kFileData, "file_data");
  for (const auto& info : algorithm_->message_types())
    network_.set_type_name(info.id, info.name);
  network_.set_type_name(cluster::kHeartbeat, "ring_heartbeat");
  network_.set_type_name(cluster::kRemovalNotice, "ring_removal_notice");
  network_.set_type_name(cluster::kJoinNotice, "ring_join_notice");
  if (cfg_.telemetry) {
    sim_.attach_telemetry(*cfg_.telemetry);
    network_.attach_telemetry(*cfg_.telemetry);
    auto& metrics = cfg_.telemetry->metrics();
    epochs_metric_ = metrics.counter("system.epochs");
    rounds_metric_ = metrics.counter("system.rounds");
    requests_served_metric_ = metrics.counter("system.requests_served");
    requests_dropped_metric_ = metrics.counter("system.requests_dropped");
    response_metric_ = metrics.histogram(
        "system.response_ms",
        telemetry::MetricsRegistry::response_bounds_ms());
    recorder_ = cfg_.telemetry->flight_recorder();
    monitor_ = cfg_.telemetry->monitor();
  }
}

EpochPipeline::~EpochPipeline() {
  // The tracer clock points into this simulator; freeze it so a telemetry
  // context that outlives the system (the usual export-at-exit flow)
  // cannot read through a dangling pointer.
  if (cfg_.telemetry) cfg_.telemetry->tracer().set_clock(nullptr);
}

// ---------- setup ----------

void EpochPipeline::setup_links() {
  // The solver interconnect (used by round traffic and ring heartbeats)
  // uses the minimum link latency (same-fabric assumption).
  net::LinkParams inter;
  inter.latency = cfg_.min_link_latency;
  inter.bandwidth_mbps = cfg_.replicas.front().bandwidth;
  if (decision_only_) {
    network_.set_default_link(inter);
    return;
  }
  // Client <-> replica links carry the configured latency and the replica's
  // bandwidth, read live: inject_link_change scales the config, so the
  // scheduler's feasibility view and the delivery path agree.
  network_.set_link_model([this, inter](net::NodeId from, net::NodeId to) {
    const net::NodeId replica = std::min(from, to);
    const net::NodeId client = std::max(from, to);
    if (replica >= num_replicas_ || client < client_node(0)) return inter;
    net::LinkParams params;
    params.latency = cfg_.latency(client - client_node(0), replica);
    params.bandwidth_mbps = cfg_.replicas[replica].bandwidth;
    return params;
  });
}

void EpochPipeline::attach_nodes() {
  for (std::size_t s = 0; s < num_solvers_; ++s) {
    network_.attach(solver_node(s), [this, s](const net::Message& msg) {
      on_solver_message(s, msg);
    });
  }
  network_.attach_range(
      client_node(0), num_clients_,
      [this](const net::Message& msg) { on_client_message(msg); });
}

void EpochPipeline::start_ring() {
  if (!cfg_.enable_ring || decision_only_) return;
  std::vector<net::NodeId> members;
  for (std::size_t n = 0; n < num_replicas_; ++n)
    members.push_back(solver_node(n));
  for (std::size_t n = 0; n < num_replicas_; ++n) {
    rings_.push_back(std::make_unique<cluster::RingNode>(
        network_, solver_node(n), cluster::MemberList{members}, cfg_.ring));
    rings_.back()->on_membership_change(
        [this](const cluster::MemberList&, net::NodeId dead) {
          on_member_dead(dead);
        });
  }
  for (auto& ring : rings_) ring->start();
}

void EpochPipeline::bucket_requests() {
  const SimTime horizon =
      std::max(trace_.horizon(), cfg_.epoch_length) + 1e-9;
  const auto num_epochs =
      static_cast<std::size_t>(horizon / cfg_.epoch_length) + 1;
  epoch_buckets_ = bucket_by_epoch(trace_.requests(), num_clients_,
                                   cfg_.epoch_length, num_epochs);
  for (const auto& request : trace_.requests()) {
    // The client announces the request to the solvers responsible for it
    // at arrival time (the paper's ClientListener path); tiny control
    // message.
    sim_.schedule_at(request.arrival, [this, c = request.client] {
      announce_scratch_.clear();
      algorithm_->announce_targets(c, num_solvers_, announce_scratch_);
      for (const std::size_t s : announce_scratch_) {
        if (!decision_only_ && !batch_.alive[s]) continue;
        send_control(client_node(c), solver_node(s),
                     algorithm_->announce_type(), 28);
      }
    });
  }
}

void EpochPipeline::schedule_epoch_boundaries() {
  for (std::size_t e = 0; e < epoch_buckets_.size(); ++e) {
    const SimTime when = static_cast<double>(e + 1) * cfg_.epoch_length;
    sim_.schedule_at(when, [this, e] {
      if (!epoch_buckets_[e].empty()) {
        solve_queue_.push_back(e);
        maybe_start_solve();
      }
    });
  }
}

// ---------- messaging ----------

void EpochPipeline::send_control(net::NodeId from, net::NodeId to, int type,
                                 std::size_t bytes, std::any payload) {
  net::Message msg;
  msg.from = from;
  msg.to = to;
  msg.type = type;
  msg.bytes = bytes;
  msg.payload = std::move(payload);
  network_.send(std::move(msg));
}

void EpochPipeline::on_solver_message(std::size_t s,
                                      const net::Message& msg) {
  if (!decision_only_ && !batch_.alive[s]) return;
  if (msg.type >= 100 && msg.type < 200) {
    if (s < rings_.size()) rings_[s]->handle(msg);
    return;
  }
  // Announcements are bucketed centrally (the message cost is what counts);
  // only the algorithm's round traffic advances the barrier.
  if (algorithm_->is_round_type(msg.type)) on_round_message(msg);
}

void EpochPipeline::on_client_message(const net::Message& msg) {
  if (algorithm_->is_round_type(msg.type)) {
    on_round_message(msg);
    return;
  }
  if (msg.type == algorithm_->assignment_type()) on_assignment_delivered(msg);
}

// ---------- membership / failures ----------

namespace {

// Under mapping nodes, node id n is a mapping node or a client rather than
// replica n, and no replica state is modelled that a fault could change.
void reject_replica_fault(bool decision_only, const char* call) {
  if (decision_only)
    throw std::invalid_argument(
        std::string("EdrSystem::") + call +
        ": the backend solves on mapping nodes, so replicas are not network "
        "nodes and cannot fail or recover");
}

}  // namespace

void EpochPipeline::inject_failure(std::size_t n, SimTime when) {
  reject_replica_fault(decision_only_, "inject_failure");
  sim_.schedule_at(when, [this, n] {
    if (!batch_.alive[n]) return;
    logf(LogLevel::kInfo, "edr: replica %zu crashes at t=%.3f", n,
         sim_.now());
    tracer().instant("replica_crash", "fault", solver_node(n));
    batch_.alive[n] = false;
    death_time_[n] = sim_.now();
    timelines_[n].set(sim_.now(), power::Activity::kIdle);
    down_intervals_[n].emplace_back(sim_.now(), -1.0);
    network_.detach(solver_node(n));
    if (n < rings_.size()) rings_[n]->stop();
    report_.failed_replicas.push_back(solver_node(n));
    if (!cfg_.enable_ring) {
      // Without the ring there is no failure detector; surviving nodes
      // would stall forever, so propagate the change immediately (used
      // only by unit setups that disable the ring).
      on_member_dead(solver_node(n));
    }
  });
}

void EpochPipeline::inject_recovery(std::size_t n, SimTime when) {
  reject_replica_fault(decision_only_, "inject_recovery");
  sim_.schedule_at(when, [this, n] {
    if (batch_.alive[n]) return;
    logf(LogLevel::kInfo, "edr: replica %zu recovers at t=%.3f", n,
         sim_.now());
    tracer().instant("replica_recover", "fault", solver_node(n));
    batch_.alive[n] = true;
    death_time_[n] = -1.0;
    if (!down_intervals_[n].empty() &&
        down_intervals_[n].back().second < 0.0)
      down_intervals_[n].back().second = sim_.now();
    timelines_[n].set(sim_.now(), power::Activity::kIdle);
    network_.attach(solver_node(n), [this, n](const net::Message& msg) {
      on_solver_message(n, msg);
    });
    if (n < rings_.size()) {
      // Learn the survivor set from any alive peer (here: our own alive[]
      // view, which a real node would fetch from a seed member).
      std::vector<net::NodeId> survivors;
      for (std::size_t m = 0; m < num_replicas_; ++m)
        if (batch_.alive[m]) survivors.push_back(solver_node(m));
      rings_[n]->rejoin(cluster::MemberList{survivors});
    }
  });
}

void EpochPipeline::inject_link_change(const LinkDegradation& change,
                                       SimTime when) {
  sim_.schedule_at(when, [this, change] {
    logf(LogLevel::kInfo,
         "edr: link change at t=%.3f (client=%d replica=%d lat x%.2f "
         "bw x%.2f)",
         sim_.now(), change.client, change.replica, change.latency_factor,
         change.bandwidth_factor);
    tracer().instant("link_change", "fault", 0);
    const std::size_t c_lo = change.client < 0 ? 0 : change.client;
    const std::size_t c_hi =
        change.client < 0 ? num_clients_ : change.client + 1;
    const std::size_t n_lo = change.replica < 0 ? 0 : change.replica;
    const std::size_t n_hi =
        change.replica < 0 ? num_replicas_ : change.replica + 1;
    // The link model reads the config, so scaling it moves every pair that
    // follows the model.  A per-client bandwidth cut moves its pairs off
    // the replica's bandwidth: they get an override, which every later
    // change scales in step with the config.
    const bool client_cut =
        change.client >= 0 && change.bandwidth_factor != 1.0;
    for (std::size_t c = c_lo; c < c_hi; ++c) {
      for (std::size_t n = n_lo; n < n_hi; ++n) {
        const bool overridden =
            !decision_only_ &&
            (client_cut || overridden_pairs_.contains({c, n}));
        // Read before the config moves: a pair without an override would
        // read the scaled latency through the model.
        net::LinkParams params;
        if (overridden)
          params = network_.link(client_node(c), solver_node(n));
        cfg_.latency(c, n) *= change.latency_factor;
        if (!overridden) continue;
        params.latency *= change.latency_factor;
        params.bandwidth_mbps *= change.bandwidth_factor;
        network_.set_link(client_node(c), solver_node(n), params);
        network_.set_link(solver_node(n), client_node(c), params);
        overridden_pairs_.emplace(c, n);
      }
    }
    // A replica-wide cut also shrinks the capacity the optimizer plans
    // against (and the transfer pacing rate).
    if (change.client < 0 && change.bandwidth_factor != 1.0)
      for (std::size_t n = n_lo; n < n_hi; ++n)
        cfg_.replicas[n].bandwidth *= change.bandwidth_factor;
  });
}

void EpochPipeline::on_member_dead(net::NodeId dead) {
  const auto n = static_cast<std::size_t>(dead);
  if (n < batch_.alive.size() && batch_.alive[n]) {
    // Peers detected the crash before the crash event ran (possible only
    // with aggressive timeouts); honor their verdict.
    batch_.alive[n] = false;
    death_time_[n] = sim_.now();
    timelines_[n].set(sim_.now(), power::Activity::kIdle);
    down_intervals_[n].emplace_back(sim_.now(), -1.0);
    network_.detach(dead);
    if (n < rings_.size()) rings_[n]->stop();
  }
  // Abort and restart any in-flight solve: the paper's "EDR will perform
  // the runtime scheduling again based on the new ring of replicas".
  if (solve_in_flight_) {
    ++solve_generation_;
    solve_in_flight_ = false;
    algorithm_->abort_epoch();
    solve_queue_.push_front(current_epoch_);
    set_all_selecting(false);
    maybe_start_solve();
  }
}

// ---------- power bookkeeping ----------

void EpochPipeline::set_activity(std::size_t n, power::Activity activity,
                                 double intensity) {
  if (decision_only_ || !batch_.alive[n]) return;
  timelines_[n].set(sim_.now(), activity, intensity);
}

void EpochPipeline::set_all_selecting(bool selecting) {
  const double intensity = selection_intensity();
  for (std::size_t col = 0; col < batch_.active_replicas.size(); ++col) {
    const std::size_t n = batch_.active_replicas[col];
    if (!batch_.alive[n]) continue;
    if (sim_.now() < transfer_until_[n]) continue;  // still transferring
    set_activity(n, selecting ? power::Activity::kSelecting
                              : power::Activity::kIdle,
                 selecting ? intensity : 0.0);
  }
}

/// Coordination intensity: normalize the backend's per-round traffic
/// against the CDPSM 8-replica reference volume so heavier protocols sit
/// visibly higher on the power traces (Fig 3 vs 4).
double EpochPipeline::selection_intensity() const {
  if (!batch_.problem) return 0.5;
  const double clients = static_cast<double>(batch_.problem->num_clients());
  const double replicas = static_cast<double>(batch_.problem->num_replicas());
  const double bytes = algorithm_->coordination_bytes(clients, replicas);
  const double reference = clients * replicas * 8.0 * 7.0;
  return clamp(bytes / reference, 0.1, 1.5);
}

// ---------- solving ----------

void EpochPipeline::maybe_start_solve() {
  if (solve_in_flight_ || solve_queue_.empty()) return;
  const std::size_t epoch = solve_queue_.front();
  solve_queue_.pop_front();
  start_solve(epoch);
}

void EpochPipeline::start_solve(std::size_t epoch) {
  current_epoch_ = epoch;
  solve_started_ = sim_.now();
  // The batch is assembled exactly as a live replica assembles it — see
  // core/epoch_problem.hpp.
  const EpochProblemSpec spec{
      .cfg = &cfg_,
      .window = decision_only_ ? cfg_.epoch_length
                               : cfg_.epoch_length * kTransferWindowFraction,
      .now = sim_.now(),
      .active_clients = {},  // filled in by assemble()
      .active_replicas = {},
      .models = models_,
      .shared_model = &power_model_};
  const std::size_t dropped =
      batch_.assemble(spec, epoch_buckets_[epoch],
                      /*drop_unreachable_clients=*/!decision_only_,
                      report_.megabytes_abandoned);
  requests_dropped_ += dropped;
  requests_dropped_metric_.add(dropped);
  if (!batch_.problem) {
    maybe_start_solve();
    return;
  }

  solve_in_flight_ = true;
  ++report_.epochs;
  epochs_metric_.add(1);
  const std::uint64_t generation = ++solve_generation_;
  epoch_span_ = tracer().new_id();
  // A solve aborted by a membership change leaves the recorder's epoch
  // open; begin_epoch discards it and starts the restart's fresh one.
  if (recorder_ != nullptr) recorder_->begin_epoch(current_epoch_, sim_.now());
  if (monitor_ != nullptr) monitor_->begin_epoch(current_epoch_);

  // Request-handling time before the optimization can begin: the
  // ClientListener path costs a fixed amount per request, which is what
  // makes decision latency grow with the batch size (Fig 9).
  const SimTime service_delay =
      static_cast<double>(batch_.requests.size()) *
      cfg_.request_service_seconds;

  algorithm_->begin_epoch(context());
  if (algorithm_->iterative()) {
    set_all_selecting(true);
    // Under mapping nodes the service delay is its own event before the
    // first round's compute delay, (t + s) + c rather than t + (s + c):
    // the same model, but DONAR's reference event loop used the split
    // form, and the event times differ from the folded one in the last ulp.
    if (decision_only_) {
      sim_.schedule_after(service_delay, [this, generation] {
        if (generation != solve_generation_) return;
        schedule_round(generation);
      });
    } else {
      schedule_round(generation, service_delay);
    }
  } else {
    algorithm_->plan_prologue(context(), plan_scratch_);
    for (const auto& planned : plan_scratch_)
      send_control(node_of(planned.from_kind, planned.from),
                   node_of(planned.to_kind, planned.to), planned.type,
                   planned.bytes);
    const SimTime delay = service_delay + compute_delay();
    sim_.schedule_after(delay, [this, generation] {
      if (generation != solve_generation_) return;
      // A one-shot backend may decline to produce an allocation (e.g. the
      // centralized coordinator died mid-solve); the epoch then stalls
      // until a membership change aborts and restarts it.
      if (auto allocation = algorithm_->solve_oneshot(context())) {
        record_observation();
        finish_solve(std::move(*allocation));
      }
    });
  }
}

/// Seconds of local compute per distributed round: seconds-per-entry times
/// the |C|x|N| problem size times the backend's workload factor.
SimTime EpochPipeline::compute_delay() const {
  const double entries = static_cast<double>(batch_.problem->num_clients()) *
                         static_cast<double>(batch_.problem->num_replicas());
  return cfg_.compute_seconds_per_entry * entries *
         algorithm_->compute_factor(context());
}

void EpochPipeline::schedule_round(std::uint64_t generation,
                                   SimTime extra_delay) {
  round_started_ = sim_.now();
  round_span_ = tracer().new_id();
  sim_.schedule_after(extra_delay + compute_delay(), [this, generation] {
    if (generation != solve_generation_) return;
    launch_round_messages(generation);
  });
}

void EpochPipeline::launch_round_messages(std::uint64_t generation) {
  // Local compute is done; what follows until the barrier is the exchange.
  tracer().span("round.compute", "solver", round_started_,
                sim_.now() - round_started_, telemetry::kControlTrack,
                tracer().new_id(), round_span_);
  exchange_started_ = sim_.now();
  // Fire this round's coordination traffic; the barrier (all delivered)
  // triggers the synchronous math and the next round.  Flow events tie
  // each message's send/delivery to this round's span.
  round_msgs_pending_ = 0;
  pending_generation_ = generation;
  algorithm_->plan_round(context(), plan_scratch_);
  network_.set_flow_parent(round_span_);
  for (const auto& planned : plan_scratch_) {
    ++round_msgs_pending_;
    send_control(node_of(planned.from_kind, planned.from),
                 node_of(planned.to_kind, planned.to), planned.type,
                 planned.bytes, generation);
  }
  network_.set_flow_parent(0);
  if (round_msgs_pending_ == 0) {
    // Single-solver degenerate case: no traffic, just run the math.
    complete_round(generation);
  }
}

void EpochPipeline::on_round_message(const net::Message& msg) {
  if (!solve_in_flight_ || round_msgs_pending_ == 0) return;
  // Stale deliveries from a solve that was aborted (replica failure) must
  // not count toward the new round's barrier.
  const auto* generation = std::any_cast<std::uint64_t>(&msg.payload);
  if (generation == nullptr || *generation != pending_generation_) return;
  if (--round_msgs_pending_ == 0) complete_round(pending_generation_);
}

void EpochPipeline::complete_round(std::uint64_t generation) {
  if (generation != solve_generation_) return;
  ++report_.total_rounds;
  rounds_metric_.add(1);
  const bool done = algorithm_->step_round(context());
  record_observation();
  // The round span covers local compute + the message barrier (the math
  // above runs in zero sim time at the barrier instant); its exchange
  // child covers launch -> barrier.
  tracer().span("round.exchange", "net", exchange_started_,
                sim_.now() - exchange_started_, telemetry::kControlTrack,
                tracer().new_id(), round_span_);
  tracer().span("solver.round", "solver", round_started_,
                sim_.now() - round_started_, telemetry::kControlTrack,
                round_span_, epoch_span_);
  if (done) {
    finish_solve(algorithm_->extract_allocation(context()));
  } else {
    schedule_round(generation);
  }
}

/// Ask the backend for its per-replica view of the round that just
/// stepped, stamp it, and feed the recorder/monitor.  Gated so runs
/// without the opt-in attachments never touch the hook.
void EpochPipeline::record_observation() {
  if (recorder_ == nullptr && monitor_ == nullptr) return;
  sample_scratch_.clear();
  algorithm_->observe(context(), sample_scratch_);
  for (auto& sample : sample_scratch_) {
    sample.epoch = current_epoch_;
    sample.time = sim_.now();
    if (recorder_ != nullptr) recorder_->record(sample);
    if (monitor_ != nullptr) monitor_->observe(sample);
  }
}

void EpochPipeline::finish_solve(Matrix allocation) {
  solve_in_flight_ = false;
  set_all_selecting(false);
  tracer().span("epoch", "system", solve_started_,
                sim_.now() - solve_started_, telemetry::kControlTrack,
                epoch_span_, 0);
  if (recorder_ != nullptr) {
    auto summary = recorder_->end_epoch(sim_.now());
    if (monitor_ != nullptr) monitor_->end_epoch(summary);
    report_.convergence.push_back(summary);
  } else if (monitor_ != nullptr) {
    telemetry::EpochSummary summary;
    summary.epoch = current_epoch_;
    summary.end_time = sim_.now();
    monitor_->end_epoch(summary);
  }

  // Assignments out: the backend's fan-out tells each client its share
  // (the client's response time clock stops when its *last* share
  // arrives).
  algorithm_->plan_assignments(context(), plan_scratch_);
  for (const auto& planned : plan_scratch_)
    send_control(node_of(planned.from_kind, planned.from),
                 node_of(planned.to_kind, planned.to), planned.type,
                 planned.bytes, std::make_any<std::size_t>(current_epoch_));
  expected_assignments_[current_epoch_] = plan_scratch_.size();

  // Placement shortfall: a request-granular policy (Round-Robin) can fail
  // to place a remainder when a client's feasible replicas are full even
  // though other replicas have room.  Account for it explicitly so the
  // megabyte ledger always balances.
  double placed = 0.0;
  for (std::size_t col = 0; col < batch_.active_replicas.size(); ++col)
    placed += allocation.col_sum(col);
  const double shortfall = batch_.problem->total_demand() - placed;
  if (shortfall > 1e-9) report_.megabytes_abandoned += shortfall;

  // Each alive replica serves its column total.  Where the replicas solve,
  // it is pushed as a file transfer paced over the transfer window at
  // intensity s_n / capacity.
  const double window = cfg_.epoch_length * kTransferWindowFraction;
  for (std::size_t col = 0; col < batch_.active_replicas.size(); ++col) {
    const std::size_t n = batch_.active_replicas[col];
    const double load_mb = allocation.col_sum(col);
    if (load_mb <= 1e-9 || !batch_.alive[n]) continue;
    report_.replicas[n].assigned_mb += load_mb;
    report_.megabytes_served += load_mb;
    if (decision_only_) continue;
    const double capacity_mb = cfg_.replicas[n].bandwidth * window;
    const double intensity = clamp(load_mb / capacity_mb, 0.0, 1.0);
    const double duration =
        load_mb <= capacity_mb ? window : load_mb / cfg_.replicas[n].bandwidth;
    set_activity(n, power::Activity::kTransfer, intensity);
    tracer().span("file_transfer", "transfer", sim_.now(), duration,
                  solver_node(n));
    transfer_until_[n] = sim_.now() + duration;
    sim_.schedule_after(duration, [this, n] {
      if (!batch_.alive[n]) return;
      if (sim_.now() + 1e-12 >= transfer_until_[n])
        set_activity(n, power::Activity::kIdle, 0.0);
    });
  }
  for (const auto& request : batch_.requests) {
    if (request.retries == 0) {
      ++report_.requests_served;
      requests_served_metric_.add(1);
      // Response-time samples: arrival -> now (+ assignment delivery
      // latency, folded in by on_assignment_delivered).  Retried
      // remainders are follow-up transfers, not new decisions.
      pending_responses_[current_epoch_].push_back(request.arrival);
    } else {
      report_.megabytes_retried += request.size_mb;
    }
  }

  maybe_start_solve();
  schedule_backlog_epoch();
}

/// A retry backlog with no future organic epoch would strand; give it a
/// synthetic epoch one epoch-length out.
void EpochPipeline::schedule_backlog_epoch() {
  if (batch_.retry_backlog.empty() || solve_in_flight_ ||
      !solve_queue_.empty() || synthetic_epoch_scheduled_)
    return;
  synthetic_epoch_scheduled_ = true;
  sim_.schedule_after(cfg_.epoch_length, [this] {
    synthetic_epoch_scheduled_ = false;
    if (batch_.retry_backlog.empty()) return;
    epoch_buckets_.emplace_back();
    solve_queue_.push_back(epoch_buckets_.size() - 1);
    maybe_start_solve();
  });
}

void EpochPipeline::on_assignment_delivered(const net::Message& msg) {
  const auto* epoch = std::any_cast<std::size_t>(&msg.payload);
  if (epoch == nullptr) return;
  auto it = expected_assignments_.find(*epoch);
  if (it == expected_assignments_.end() || it->second == 0) return;
  if (--it->second == 0) {
    // Every share of this epoch has reached its client: close out the
    // epoch's response times.
    for (const SimTime arrival : pending_responses_[*epoch]) {
      const double response_ms = milliseconds(sim_.now() - arrival);
      report_.response_times_ms.push_back(response_ms);
      response_metric_.observe(response_ms);
      if (monitor_ != nullptr)
        monitor_->observe_response(response_ms, sim_.now(), *epoch);
    }
    pending_responses_.erase(*epoch);
    expected_assignments_.erase(it);
  }
}

// ---------- finalization ----------

RunReport EpochPipeline::finalize() {
  report_.makespan = sim_.now();
  report_.replicas.resize(num_replicas_);
  if (!decision_only_) {
    for (std::size_t n = 0; n < num_replicas_; ++n) {
      auto& rep = report_.replicas[n];
      rep.alive = batch_.alive[n];
      const SimTime horizon =
          batch_.alive[n] ? report_.makespan : std::max(death_time_[n], 0.0);
      SimTime downtime = 0.0;
      for (const auto& [from, to] : down_intervals_[n]) {
        const SimTime end = to < 0.0 ? horizon : std::min(to, horizon);
        downtime += std::max(0.0, end - std::min(from, horizon));
      }
      rep.downtime = downtime;
      // Crashed intervals sit at the idle level in the timeline (set on
      // death); a powered-off node draws nothing, so bill them out.
      const auto& model = model_of(n);
      auto* const tel = cfg_.telemetry.get();
      rep.energy =
          power::integrate_energy(model, timelines_[n], horizon, tel) -
          model.params().idle * downtime;
      rep.active_energy =
          power::integrate_active_energy(model, timelines_[n], horizon, tel);
      if (cfg_.tariffs.empty()) {
        rep.cost = energy_cost(rep.energy, cfg_.replicas[n].price);
        rep.active_cost =
            energy_cost(rep.active_energy, cfg_.replicas[n].price);
      } else {
        rep.cost = power::integrate_cost(model, timelines_[n], horizon,
                                         cfg_.tariffs[n],
                                         /*active_only=*/false, tel);
        rep.active_cost =
            power::integrate_cost(model, timelines_[n], horizon,
                                  cfg_.tariffs[n], /*active_only=*/true, tel);
        // Bill out the crashed intervals (idle-level draw under the tariff).
        const power::ActivityTimeline always_idle;
        for (const auto& [from, to] : down_intervals_[n]) {
          const SimTime end = to < 0.0 ? horizon : std::min(to, horizon);
          if (end <= from) continue;
          rep.cost -= power::integrate_cost(model, always_idle, end,
                                            cfg_.tariffs[n]) -
                      power::integrate_cost(model, always_idle, from,
                                            cfg_.tariffs[n]);
        }
      }
      if (cfg_.record_traces)
        rep.trace = power::sample_trace(model, timelines_[n], horizon,
                                        cfg_.meter_hz, tel);
      report_.total_cost += rep.cost;
      report_.total_active_cost += rep.active_cost;
      report_.total_energy += rep.energy;
      report_.total_active_energy += rep.active_energy;
    }
  }
  for (const auto& request : batch_.retry_backlog)
    report_.megabytes_abandoned += request.size_mb;
  // Coordination traffic comes from the network's per-type counters: the
  // protocol types live below 100 (the ring owns 100-199 and is membership
  // upkeep, not coordination; kFileData is modeled as paced activity, not
  // messages, so it never appears here).
  const auto control = network_.traffic_in_range(0, 99);
  report_.control_messages = control.messages;
  report_.control_bytes = control.bytes;
  report_.requests_dropped = requests_dropped_;
  if (monitor_ != nullptr) report_.alerts = monitor_->alerts();
  return std::move(report_);
}

RunReport EpochPipeline::run() {
  report_.replicas.resize(num_replicas_);
  setup_links();
  attach_nodes();
  start_ring();
  bucket_requests();
  schedule_epoch_boundaries();

  if (decision_only_) {
    // No ring, so no periodic traffic: the event loop drains on its own and
    // the makespan is the last delivery.
    sim_.run();
  } else {
    // The ring heartbeats forever; run until only periodic ring events are
    // left (no solve in flight, queue empty, all transfers done).
    const SimTime hard_stop =
        (static_cast<double>(epoch_buckets_.size()) + 4.0) *
            cfg_.epoch_length +
        trace_.horizon() + 10.0;
    sim_.run_until(hard_stop);
    for (auto& ring : rings_) ring->stop();
    sim_.run_until(hard_stop + cfg_.ring.failure_timeout);
  }
  return finalize();
}

}  // namespace edr::core
