// edr_perfbench — one repetition of one end-to-end benchmark workload.
//
//   edr_perfbench --workload <name> --seed <n> [--trace-out <chrome.json>]
//   edr_perfbench --host
//
// Without --trace-out the repetition is untraced (telemetry off): the
// workload is set up kSetupReps times (the last set-up is kept), run
// once, its outputs are checked, and one JSON object with the end-to-end
// metrics is printed on stdout.  With --trace-out the run is traced: the
// system gets a telemetry context, every probed call into a layer's public
// API is wrapped in a wall-clock span on the bench's own EventTracer, the
// spans are exported with the Chrome exporter to <chrome.json>, and the
// per-layer metrics are read back from those spans and from the system's
// telemetry counters.  perfbench/run.py drives the repetitions and turns
// them into medians.
//
// Exit status: 0 on success, 1 when an output check fails, 2 on bad usage.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiments.hpp"
#include "common/args.hpp"
#include "common/json.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/aggregation.hpp"
#include "core/cdpsm.hpp"
#include "core/epoch_problem.hpp"
#include "core/lddm.hpp"
#include "core/system.hpp"
#include "net/network.hpp"
#include "net/sim.hpp"
#include "power/model.hpp"
#include "runtime/live_protocol.hpp"
#include "runtime/local_cluster.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/apps.hpp"
#include "workload/trace.hpp"

using namespace edr;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------- workloads

/// The workload seed expands into independent trace and system seeds.
struct Seeds {
  std::uint64_t trace;
  std::uint64_t system;
};

Seeds expand_seed(std::uint64_t seed) {
  std::uint64_t state = seed;
  const std::uint64_t trace = splitmix64(state);
  return {trace, splitmix64(state)};
}

/// Set-ups per untraced repetition; setup_s is their median, because one
/// set-up of a few milliseconds is too short to time on its own.
constexpr std::size_t kSetupReps = 9;

/// A simulator workload: the system configuration plus how to draw its
/// trace.
struct SimWorkload {
  core::SystemConfig config;
  workload::AppProfile app;
  workload::TraceOptions trace_options;
};

SimWorkload make_sim_workload(const std::string& name, const Seeds& seeds) {
  SimWorkload w;
  w.app = workload::distributed_file_service();
  if (name == "paper-lddm") {
    w.config = analysis::paper_config("lddm", seeds.system);
    w.trace_options.horizon = 300.0;
  } else if (name == "geo-1e5-aggregated") {
    w.config = analysis::paper_config("lddm", seeds.system);
    w.config.num_clients = 100000;
    w.config.representation = core::SolverRepresentation::kAggregated;
    w.trace_options.horizon = 60.0;
  } else if (name == "scale-cdpsm") {
    w.config = analysis::paper_config("cdpsm", seeds.system);
    w.config.num_clients = 10000;
    w.config.representation = core::SolverRepresentation::kSparse;
    // One solver lane: with two, back-to-back repetitions on a shared
    // 4-vCPU host were bimodal.  common.pool_speedup_t2 measures two lanes.
    w.app.base_rate_hz = 200.0;
    w.app.mean_request_mb = 0.2;
    w.trace_options.horizon = 60.0;
  } else {
    throw std::invalid_argument("unknown simulator workload " + name);
  }
  w.config.record_traces = false;
  w.trace_options.num_clients = w.config.num_clients;
  return w;
}

// ------------------------------------------------------------------ results

/// One repetition's output: metric name -> value, plus the checks made.
struct Result {
  std::map<std::string, double> e2e;
  std::map<std::string, double> deterministic;
  std::map<std::string, double> layers;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

double median_of(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

// ------------------------------------------------------------------ tracing

/// The bench's own wall-clock span recorder: an EventTracer whose clock is
/// the steady clock, in seconds since the recorder was made.
class SpanRecorder {
 public:
  SpanRecorder() : tracer_(1 << 12), origin_(Clock::now()) {
    tracer_.set_clock([origin = origin_] { return seconds_since(origin); });
  }

  telemetry::EventTracer& tracer() { return tracer_; }

  /// Run `body` inside a span named `name` under `parent`; returns the
  /// span's duration in milliseconds.
  double time(std::string_view name, std::uint64_t parent,
              const std::function<void()>& body) {
    const double start = tracer_.now();
    {
      telemetry::ScopedSpan span{tracer_, name, "perfbench",
                                 telemetry::kControlTrack, parent};
      body();
    }
    return (tracer_.now() - start) * 1e3;
  }

 private:
  telemetry::EventTracer tracer_;
  Clock::time_point origin_;
};

std::uint64_t counter_value(const telemetry::MetricsRegistry& metrics,
                            std::string_view name) {
  for (const auto& counter : metrics.counters())
    if (counter.name == name) return counter.value;
  return 0;
}

// ------------------------------------------------------- per-layer probes

/// Requests bucketed into epochs the way both execution modes batch them
/// (epoch = floor(arrival / epoch_length)).
std::vector<std::vector<workload::Request>> bucket_epochs(
    const std::vector<workload::Request>& requests, double epoch_length) {
  std::vector<std::vector<workload::Request>> buckets;
  for (const auto& request : requests) {
    const auto epoch =
        static_cast<std::size_t>(request.arrival / epoch_length);
    if (epoch >= buckets.size()) buckets.resize(epoch + 1);
    buckets[epoch].push_back(request);
  }
  return buckets;
}

/// The share of an epoch the pipeline schedules transfers in (the default
/// PipelinePolicy::transfer_window_fraction and LiveConfig value).
constexpr double kTransferWindowFraction = 0.7;

/// core::make_epoch_problem over every non-empty epoch batch, all
/// replicas alive, retries ignored.
std::vector<optim::Problem> replay_problems(
    const core::SystemConfig& cfg,
    const std::vector<workload::Request>& requests) {
  const power::PowerModel model{cfg.power};
  std::vector<std::size_t> replicas(cfg.replicas.size());
  for (std::size_t n = 0; n < replicas.size(); ++n) replicas[n] = n;
  std::vector<optim::Problem> problems;
  const auto buckets = bucket_epochs(requests, cfg.epoch_length);
  std::vector<double> demand(cfg.num_clients);
  for (std::size_t e = 0; e < buckets.size(); ++e) {
    if (buckets[e].empty()) continue;
    std::fill(demand.begin(), demand.end(), 0.0);
    for (const auto& request : buckets[e])
      demand[request.client] += request.size_mb;
    std::vector<std::uint32_t> clients;
    std::vector<double> demands;
    for (std::uint32_t c = 0; c < cfg.num_clients; ++c) {
      if (demand[c] <= 0.0) continue;
      bool reachable = false;
      for (const std::size_t n : replicas)
        if (cfg.latency(c, n) <= cfg.max_latency) reachable = true;
      if (!reachable) continue;
      clients.push_back(c);
      demands.push_back(demand[c]);
    }
    if (clients.empty()) continue;
    const core::EpochProblemSpec spec{
        .cfg = &cfg,
        .window = cfg.epoch_length * kTransferWindowFraction,
        .now = static_cast<double>(e) * cfg.epoch_length,
        .active_clients = clients,
        .active_replicas = replicas,
        .models = {},
        .shared_model = &model};
    std::optional<optim::Problem> problem{
        core::make_epoch_problem(spec, std::move(demands))};
    (void)core::shed_to_feasible(problem, cfg.max_latency);
    problems.push_back(std::move(*problem));
  }
  return problems;
}

struct SolveStats {
  std::uint64_t rounds = 0;
  std::uint64_t capped = 0;
};

template <typename Engine, typename Options>
void solve_one(const optim::Problem& problem, Options options,
               const core::SystemConfig& cfg, std::size_t lanes,
               SolveStats& stats) {
  options.threads = lanes;
  options.representation = cfg.representation;
  options.simd = cfg.simd;
  Engine engine{problem, options};
  (void)engine.run();
  stats.rounds += engine.rounds_executed();
  if (!engine.converged()) ++stats.capped;
}

/// The workload's engine, run to convergence on every replayed problem.
SolveStats solve_all(const core::SystemConfig& cfg,
                     const std::vector<optim::Problem>& problems,
                     std::size_t lanes) {
  SolveStats stats;
  for (const auto& problem : problems) {
    if (cfg.algorithm == "cdpsm")
      solve_one<core::CdpsmEngine>(problem, cfg.cdpsm, cfg, lanes, stats);
    else
      solve_one<core::LddmEngine>(problem, cfg.lddm, cfg, lanes, stats);
  }
  return stats;
}

/// The probes every workload shares: problem build, sparsity pattern,
/// aggregation and the solve at 1 and 2 lanes.  Fills `layers`.
void probe_solver_layers(SpanRecorder& spans, std::uint64_t parent,
                         const core::SystemConfig& cfg,
                         const std::vector<workload::Request>& requests,
                         Result& result) {
  std::vector<optim::Problem> problems;
  const double build_ms = spans.time("optim.problem_build", parent, [&] {
    problems = replay_problems(cfg, requests);
  });
  double pairs = 0.0;
  const double sparsity_ms = spans.time("optim.sparsity", parent, [&] {
    for (const auto& problem : problems)
      pairs += static_cast<double>(problem.sparsity()->nnz());
  });
  double classes = 0.0;
  const double aggregate_ms = spans.time("core.aggregate", parent, [&] {
    for (const auto& problem : problems) {
      const auto agg = core::build_client_aggregation(problem);
      const auto aggregated = core::aggregate_problem(problem, agg);
      classes += static_cast<double>(aggregated.num_clients());
    }
  });
  SolveStats one_lane, two_lanes;
  const double t1 = spans.time("core.solve_t1", parent, [&] {
    one_lane = solve_all(cfg, problems, 1);
  });
  const double t2 = spans.time("core.solve_t2", parent, [&] {
    two_lanes = solve_all(cfg, problems, 2);
  });
  result.check(one_lane.rounds == two_lanes.rounds,
               "replayed solve: round count differs between 1 and 2 lanes");
  // Every workload runs its solver on 1 lane.
  const double solve_ms = t1;

  result.layers["optim.problem_build_ms"] = build_ms;
  result.layers["optim.feasible_pairs"] = pairs;
  result.layers["optim.sparsity_ms"] = sparsity_ms;
  result.layers["core.aggregate_ms"] = aggregate_ms;
  result.layers["core.classes"] = classes;
  result.layers["core.replay_epochs"] = static_cast<double>(problems.size());
  result.layers["core.solve_ms"] = solve_ms;
  result.layers["core.round_us"] =
      one_lane.rounds == 0
          ? 0.0
          : solve_ms * 1e3 / static_cast<double>(one_lane.rounds);
  result.layers["core.capped_epochs"] = static_cast<double>(one_lane.capped);
  result.layers["common.pool_speedup_t2"] = t2 > 0.0 ? t1 / t2 : 0.0;
}

/// The LiveConfig a live deployment of this configuration would ship.
runtime::LiveConfig live_config_of(
    const core::SystemConfig& cfg,
    const std::vector<workload::Request>& requests, double horizon) {
  runtime::LiveConfig live;
  live.algorithm = cfg.algorithm;
  live.epochs = static_cast<std::uint32_t>(horizon / cfg.epoch_length);
  live.epoch_length = cfg.epoch_length;
  live.num_clients = static_cast<std::uint32_t>(cfg.num_clients);
  live.max_latency = cfg.max_latency;
  live.derive_energy_model_from_power = cfg.derive_energy_model_from_power;
  live.warm_start = cfg.warm_start;
  live.retry_shed = cfg.retry_shed;
  live.max_retries = static_cast<std::uint32_t>(cfg.max_retries);
  live.representation = cfg.representation;
  live.simd = cfg.simd;
  live.seed = cfg.seed;
  live.replicas = cfg.replicas;
  live.latency = cfg.latency;
  live.power = cfg.power;
  live.cdpsm = cfg.cdpsm;
  live.lddm = cfg.lddm;
  live.requests = requests;
  return live;
}

/// encode_config / decode_config on `live`, checked for a faithful
/// round trip.
void probe_config_codec(SpanRecorder& spans, std::uint64_t parent,
                        const runtime::LiveConfig& live, Result& result) {
  net::Message frame;
  const double encode_ms = spans.time("runtime.config_encode", parent, [&] {
    frame = runtime::encode_config(0, 1, live);
  });
  runtime::LiveConfig decoded;
  const double decode_ms = spans.time("runtime.config_decode", parent, [&] {
    decoded = runtime::decode_config(frame, std::size_t{1} << 31);
  });
  result.check(decoded.requests.size() == live.requests.size() &&
                   decoded.num_clients == live.num_clients &&
                   decoded.latency.rows() == live.latency.rows(),
               "decode_config(encode_config(x)) differs from x");
  result.layers["runtime.config_bytes"] = static_cast<double>(frame.bytes);
  result.layers["runtime.config_encode_ms"] = encode_ms;
  result.layers["runtime.config_decode_ms"] = decode_ms;
}

/// A standalone SimNetwork filled with the workload's client<->replica
/// link table (2·C·N set_link calls), then a burst of messages sent over
/// random links of that table and delivered by a standalone Simulator.
void probe_network(SpanRecorder& spans, std::uint64_t parent,
                   const core::SystemConfig& cfg, std::uint64_t seed,
                   Result& result) {
  const std::size_t replicas = cfg.replicas.size();
  const std::size_t clients = cfg.num_clients;
  const auto client_node = [&](std::size_t c) {
    return static_cast<net::NodeId>(replicas + c);
  };
  net::Simulator sim;
  net::SimNetwork network{sim};
  const double link_setup_ms = spans.time("net.link_setup", parent, [&] {
    for (std::size_t c = 0; c < clients; ++c)
      for (std::size_t n = 0; n < replicas; ++n) {
        net::LinkParams params;
        params.latency = cfg.latency(c, n);
        params.bandwidth_mbps = cfg.replicas[n].bandwidth;
        network.set_link(client_node(c), static_cast<net::NodeId>(n), params);
        network.set_link(static_cast<net::NodeId>(n), client_node(c), params);
      }
  });
  std::uint64_t delivered = 0;
  const net::Handler count = [&delivered](const net::Message&) { ++delivered; };
  for (std::size_t n = 0; n < replicas + clients; ++n)
    network.attach(static_cast<net::NodeId>(n), count);
  // Round-sized bursts: each burst is sent, then delivered, so the event
  // queue stays as shallow as it is between the pipeline's round barriers.
  constexpr std::size_t kBursts = 4000;
  constexpr std::size_t kBurst = 64;
  constexpr std::size_t kMessages = kBursts * kBurst;
  Rng rng{seed};
  const double deliver_ms = spans.time("net.deliver", parent, [&] {
    for (std::size_t b = 0; b < kBursts; ++b) {
      for (std::size_t i = 0; i < kBurst; ++i) {
        const auto c =
            client_node(static_cast<std::size_t>(rng.bounded(clients)));
        const auto n = static_cast<net::NodeId>(rng.bounded(replicas));
        net::Message message;
        const bool upstream = (i & 1U) == 0;
        message.from = upstream ? c : n;
        message.to = upstream ? n : c;
        message.type = 1;
        message.bytes = 64;
        network.send(std::move(message));
      }
      (void)sim.run();
    }
  });
  result.check(delivered == kMessages,
               "network probe: not every sent message was delivered");
  result.layers["net.links"] = static_cast<double>(2 * clients * replicas);
  result.layers["net.link_setup_ms"] = link_setup_ms;
  result.layers["net.deliver_ns"] =
      deliver_ms * 1e6 / static_cast<double>(kMessages);
}

/// Epochs of the workload's LiveConfig the runtime probe runs.
constexpr std::uint32_t kRuntimeEpochs = 30;

/// Least-squares slope of y against its index.
double slope(const std::vector<double>& y) {
  const double n = static_cast<double>(y.size());
  if (y.size() < 2) return 0.0;
  const double mean_x = (n - 1.0) / 2.0;
  double mean_y = 0.0;
  for (const double v : y) mean_y += v / n;
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double dx = static_cast<double>(i) - mean_x;
    num += dx * (y[i] - mean_y);
    den += dx * dx;
  }
  return num / den;
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (auto pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size()))
    ++count;
  return count;
}

/// The workload's LiveConfig run on the live runtime for its first
/// kRuntimeEpochs epochs: runtime::LocalCluster over the inproc transport,
/// one thread per replica plus the coordinator, tracing on.
void probe_runtime(SpanRecorder& spans, std::uint64_t parent,
                   runtime::LiveConfig live, Result& result) {
  live.epochs = std::min(live.epochs, kRuntimeEpochs);
  const std::uint32_t epochs = live.epochs;
  runtime::LiveRunResult run;
  std::string merged;
  spans.time("runtime.run", parent, [&] {
    runtime::LocalClusterOptions options;
    options.observer.tracing = true;
    runtime::LocalCluster cluster{std::move(live), options};
    run = cluster.run();
    merged = cluster.merged_trace_json();
  });
  result.check(run.completed && run.epochs.size() == epochs,
               "live run did not complete every epoch");
  std::vector<double> walls;
  double wall_total = 0.0;
  double objective = 0.0;
  for (const auto& epoch : run.epochs) {
    result.check(epoch.digests_agree, "live epoch " +
                                          std::to_string(epoch.epoch) +
                                          ": replica digests disagree");
    walls.push_back(epoch.wall_ms);
    wall_total += epoch.wall_ms;
    objective += epoch.objective;
  }
  result.layers["runtime.epochs"] = static_cast<double>(run.epochs.size());
  result.layers["runtime.rounds"] = static_cast<double>(run.total_rounds);
  result.layers["runtime.round_ms"] =
      run.total_rounds == 0
          ? 0.0
          : wall_total / static_cast<double>(run.total_rounds);
  result.layers["runtime.epoch_wall_p50_ms"] = percentile(walls, 50.0);
  result.layers["runtime.epoch_wall_p90_ms"] = percentile(walls, 90.0);
  result.layers["runtime.epoch_drift_us"] = slope(walls) * 1e3;
  result.layers["runtime.objective_sum"] = objective;
  // Every frame sent with tracing on carries a trace context and shows up
  // as one flow start ("ph":"s") in the merged trace.
  result.layers["runtime.frames_sent"] =
      static_cast<double>(count_occurrences(merged, "\"ph\":\"s\""));
}

// ------------------------------------------------------------ sim workload

void check_sim_report(const core::RunReport& report, std::size_t requests,
                      double megabytes, Result& result) {
  result.check(report.requests_served + report.requests_dropped == requests,
               "requests served + dropped != requests generated");
  const double accounted = report.megabytes_served + report.megabytes_abandoned;
  result.check(std::abs(accounted - megabytes) <= 1e-6 * megabytes,
               "MB served + MB abandoned != MB generated");
  result.check(!report.response_times_ms.empty(), "no response samples");
}

void fill_sim_metrics(const core::RunReport& report, double megabytes,
                      Result& result) {
  const double cost = report.total_active_cost * 1e3;
  const double p50 = percentile(report.response_times_ms, 50.0);
  const double p99 = percentile(report.response_times_ms, 99.0);
  result.e2e["cost_mcents"] = cost;
  result.e2e["response_p50_ms"] = p50;
  result.e2e["response_p99_ms"] = p99;
  const double control_mb = static_cast<double>(report.control_bytes) / 1e6;
  result.e2e["control_mb"] = control_mb;
  result.e2e["served_frac"] = report.megabytes_served / megabytes;
  result.deterministic["cost_mcents"] = cost;
  result.deterministic["response_p50_ms"] = p50;
  result.deterministic["response_p99_ms"] = p99;
  result.deterministic["control_mb"] = control_mb;
  result.deterministic["rounds"] = static_cast<double>(report.total_rounds);
  result.deterministic["megabytes"] = megabytes;
}

Result run_sim_untraced(const std::string& name, const Seeds& seeds) {
  Result result;
  const SimWorkload w = make_sim_workload(name, seeds);
  std::vector<double> setups;
  std::unique_ptr<core::EdrSystem> system;
  std::size_t requests = 0;
  double megabytes = 0.0;
  for (std::size_t k = 0; k < kSetupReps; ++k) {
    system.reset();
    const auto start = Clock::now();
    Rng rng{seeds.trace};
    auto trace = workload::Trace::generate(rng, w.app, w.trace_options);
    requests = trace.size();
    megabytes = trace.total_megabytes();
    system = std::make_unique<core::EdrSystem>(w.config, std::move(trace));
    setups.push_back(seconds_since(start));
  }
  const auto start = Clock::now();
  const auto report = system->run();
  const double run_s = seconds_since(start);

  check_sim_report(report, requests, megabytes, result);
  result.e2e["wall_s"] = setups.back() + run_s;
  result.e2e["setup_s"] = median_of(setups);
  fill_sim_metrics(report, megabytes, result);
  result.e2e["peak_rss_mb"] = peak_rss_mb();
  return result;
}

Result run_sim_traced(const std::string& name, const Seeds& seeds,
                      SpanRecorder& spans) {
  Result result;
  const SimWorkload w = make_sim_workload(name, seeds);
  auto cfg = w.config;
  cfg.telemetry = telemetry::make_telemetry();
  auto& tracer = spans.tracer();
  telemetry::ScopedSpan root{tracer, "perfbench.traced_run", "perfbench"};

  workload::Trace trace;
  std::unique_ptr<core::EdrSystem> system;
  core::RunReport report;
  // Trace in, report out: the traced counterpart of the untraced wall_s.
  const double generate_ms = spans.time("workload.generate", root.id(), [&] {
    Rng rng{seeds.trace};
    trace = workload::Trace::generate(rng, w.app, w.trace_options);
  });
  const double construct_ms = spans.time("system.construct", root.id(), [&] {
    system = std::make_unique<core::EdrSystem>(cfg, trace);
  });
  const double run_ms =
      spans.time("system.run", root.id(), [&] { report = system->run(); });
  const double wall_ms = generate_ms + construct_ms + run_ms;
  check_sim_report(report, trace.size(), trace.total_megabytes(), result);
  fill_sim_metrics(report, trace.total_megabytes(), result);
  result.e2e["wall_s"] = wall_ms / 1e3;

  // The pipeline fills in the generated latency matrix; probe with it.
  const core::SystemConfig& ran = system->config();
  const auto& metrics = cfg.telemetry->metrics();
  result.layers["workload.generate_ms"] = generate_ms;
  result.layers["workload.requests"] = static_cast<double>(trace.size());
  result.layers["core.rounds"] = static_cast<double>(
      counter_value(metrics, "solver." + cfg.algorithm + ".rounds"));
  result.layers["net.messages"] =
      static_cast<double>(counter_value(metrics, "net.messages_sent"));
  result.layers["net.bytes"] =
      static_cast<double>(counter_value(metrics, "net.bytes_sent"));
  result.layers["net.events"] =
      static_cast<double>(counter_value(metrics, "sim.events_executed"));
  result.check(result.layers["core.rounds"] ==
                   static_cast<double>(report.total_rounds),
               "solver round counter disagrees with the run report");

  probe_solver_layers(spans, root.id(), ran, trace.requests(), result);
  probe_network(spans, root.id(), ran, seeds.trace, result);
  auto live = live_config_of(ran, trace.requests(), w.trace_options.horizon);
  probe_config_codec(spans, root.id(), live, result);
  probe_runtime(spans, root.id(), std::move(live), result);
  system.reset();

  result.layers["core.pipeline_residual_ms"] =
      run_ms - result.layers["core.solve_ms"] -
      result.layers["net.link_setup_ms"];
  // The share of the traced run that the probe spans of the layers the run
  // goes through (generation, problem build, solve, link setup) leave
  // unexplained.
  const double attributed =
      result.layers["workload.generate_ms"] +
      result.layers["optim.problem_build_ms"] + result.layers["core.solve_ms"] +
      result.layers["net.link_setup_ms"];
  result.layers["unattributed_frac"] = 1.0 - attributed / wall_ms;
  return result;
}

// ------------------------------------------------------------------- output

void write_map(JsonWriter& json, const char* key,
               const std::map<std::string, double>& values) {
  json.key(key).begin_object();
  for (const auto& [name, value] : values) json.field(name, value);
  json.end_object();
}

std::string host_json() {
  JsonWriter json;
  json.begin_object();
  json.field("nproc", static_cast<std::uint64_t>(
                          std::thread::hardware_concurrency()));
  json.field("simd_isa", common::simd::active_isa());
  json.field("compiler", EDR_PERFBENCH_COMPILER);
  json.field("build_type", EDR_PERFBENCH_BUILD_TYPE);
  json.end_object();
  return json.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  std::string trace_out;
  bool host = false;
  ArgParser parser{"edr_perfbench",
                   "one repetition of one end-to-end benchmark workload"};
  parser.add_option("workload",
                    "paper-lddm | geo-1e5-aggregated | scale-cdpsm",
                    &workload_name);
  parser.add_option("seed", "workload seed", &seed);
  parser.add_option("trace-out",
                    "traced run: write the bench's wall-clock spans here as "
                    "a Chrome trace and report per-layer metrics",
                    &trace_out);
  parser.add_flag("host", "print host metadata and exit", &host);
  if (!parser.parse(argc, argv, std::cerr))
    return parser.help_requested() ? 0 : 2;
  if (host) {
    std::printf("%s\n", host_json().c_str());
    return 0;
  }
  static const char* const kNames[] = {"paper-lddm", "geo-1e5-aggregated",
                                       "scale-cdpsm"};
  if (std::find(std::begin(kNames), std::end(kNames), workload_name) ==
          std::end(kNames)) {
    std::cerr << parser.usage();
    return 2;
  }

  const Seeds seeds = expand_seed(seed);
  const bool traced = !trace_out.empty();
  Result result;
  try {
    if (traced) {
      SpanRecorder spans;
      result = run_sim_traced(workload_name, seeds, spans);
      std::ofstream out{trace_out, std::ios::binary};
      out << telemetry::trace_to_chrome_json(spans.tracer(), "edr_perfbench");
      out.flush();
      if (!out) {
        std::cerr << "edr_perfbench: cannot write " << trace_out << "\n";
        return 1;
      }
    } else {
      result = run_sim_untraced(workload_name, seeds);
    }
  } catch (const std::exception& error) {
    std::cerr << "edr_perfbench: " << workload_name << ": " << error.what()
              << "\n";
    return 1;
  }

  JsonWriter json;
  json.begin_object();
  json.field("workload", workload_name);
  json.field("seed", seed);
  json.field("traced", traced);
  json.field("correct", result.failures.empty());
  json.key("failures").begin_array();
  for (const auto& failure : result.failures) json.value(failure);
  json.end_array();
  write_map(json, "e2e", result.e2e);
  write_map(json, "deterministic", result.deterministic);
  write_map(json, "layers", result.layers);
  json.end_object();
  std::printf("%s\n", json.str().c_str());
  for (const auto& failure : result.failures)
    std::cerr << "edr_perfbench: " << workload_name << ": check failed: "
              << failure << "\n";
  return result.failures.empty() ? 0 : 1;
}
