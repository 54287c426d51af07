// Fig 9 — system response time of EDR (LDDM, 3 replicas) vs DONAR (3
// mapping nodes) as the request count scales 24..192.  Paper: both stay
// below ~200 ms per request batch decision, grow near-linearly, and EDR
// tracks DONAR closely.
#include "bench_util.hpp"

#include "baselines/donar_algorithm.hpp"
#include "optim/instance.hpp"

namespace {

using namespace edr;

std::vector<optim::ReplicaParams> three_replicas() {
  const auto full = optim::paper_replica_set();
  return {full.begin(), full.begin() + 3};
}

workload::Trace burst_trace(std::size_t count) {
  // The paper submits a batch of k requests and measures the response; we
  // drop the batch just before an epoch boundary so queueing wait is
  // negligible and the measurement isolates decision latency.
  std::vector<workload::Request> requests;
  Rng rng{11};
  for (std::size_t i = 0; i < count; ++i)
    requests.push_back({i, static_cast<std::uint32_t>(rng.bounded(8)),
                        0.045, 10.0, i});
  return workload::Trace{std::move(requests)};
}

/// Mean decision latency of `algorithm` ("lddm" = EDR on 3 replicas,
/// "donar" = 3 mapping nodes) on a burst of `count` requests.
double mean_response(const char* algorithm, std::size_t count) {
  core::SystemConfig cfg;
  cfg.algorithm = algorithm;
  cfg.replicas = three_replicas();
  cfg.num_clients = 8;
  cfg.seed = 3;
  cfg.epoch_length = 0.05;
  cfg.min_link_latency = 0.05;  // SystemG LAN (Fig 9 runs on the cluster)
  cfg.max_link_latency = 0.35;
  // Per-epoch decision deadline (round budget), as a deployed runtime
  // would enforce; keeps solver time flat so per-request handling drives
  // the trend, as in the paper's measurement.  DONAR converges inside its
  // default 200-round cap on every burst here: a 100-round cap left all
  // eight of its means identical, so it runs uncapped.
  cfg.lddm.max_rounds = 100;
  core::EdrSystem system(cfg, burst_trace(count));
  return system.run().mean_response_ms();
}

void BM_Fig9_Edr(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  double response = 0.0;
  for (auto _ : state) response = mean_response("lddm", count);
  state.counters["response_ms"] = response;
}
BENCHMARK(BM_Fig9_Edr)
    ->Unit(benchmark::kMillisecond)
    ->DenseRange(24, 192, 24)
    ->Iterations(1);

void BM_Fig9_Donar(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  double response = 0.0;
  for (auto _ : state) response = mean_response("donar", count);
  state.counters["response_ms"] = response;
}
BENCHMARK(BM_Fig9_Donar)
    ->Unit(benchmark::kMillisecond)
    ->DenseRange(24, 192, 24)
    ->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  edr::baselines::register_donar_algorithm();
  edr::bench::Harness harness(argc, argv,
                             "Fig 9",
                     "response time vs request count: EDR (LDDM, 3 "
                     "replicas) vs DONAR (3 mapping nodes)");

  edr::Table table({"requests", "EDR ms", "DONAR ms", "ratio"});
  for (std::size_t count = 24; count <= 192; count += 24) {
    const double edr_ms = mean_response("lddm", count);
    const double donar_ms = mean_response("donar", count);
    // Simulated decision latency, so the rows are gated by value (a plain
    // "ms" unit would be skipped as wall clock).
    const std::string suffix = "/" + std::to_string(count);
    edr::bench::record_metric("mean_response" + suffix, edr_ms, "sim_ms",
                              "lddm");
    edr::bench::record_metric("mean_response" + suffix, donar_ms, "sim_ms",
                              "donar");
    edr::bench::record_metric("edr_over_donar" + suffix, edr_ms / donar_ms,
                              "ratio");
    table.add_row({std::to_string(count), edr::Table::num(edr_ms, 1),
                   edr::Table::num(donar_ms, 1),
                   edr::Table::num(edr_ms / donar_ms, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());

  harness.run_benchmarks();
  return 0;
}
