// Golden-equivalence regression for the DistributedAlgorithm refactor.
//
// The digests below were captured from the pre-refactor runtime (the
// monolithic EdrSystem::Impl with per-algorithm switches, and DONAR's
// private event loop) and are asserted against the strategy-based
// EpochPipeline, which EdrSystem now hosts for every backend, DONAR
// included.  Byte-identical means the refactor changed ZERO observable
// behavior: the JSON run report, every response-time double (bit pattern),
// and the full telemetry metrics JSONL (counter registration order, values,
// histogram buckets) are all unchanged, for every backend.
//
// If an intentional behavior change ever lands, re-capture: build this same
// configuration, print the digests (see golden_digest helpers), and update
// the table — with a commit message explaining the behavioral delta.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/report_json.hpp"
#include "baselines/donar_algorithm.hpp"
#include "common/matrix.hpp"
#include "common/simd.hpp"
#include "optim/instance.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/apps.hpp"

namespace edr {
namespace {

// --- FNV-1a 64-bit, applied to bytes, strings, and double bit patterns ---

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t h = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t digest_string(const std::string& s) {
  return fnv1a(s.data(), s.size());
}

std::uint64_t digest_doubles(const std::vector<double>& v) {
  std::uint64_t h = kFnvOffset;
  for (const double d : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    h = fnv1a(&bits, sizeof bits, h);
  }
  return h;
}

// --- the pinned configurations ---

struct EdrGolden {
  const char* algorithm;
  bool record_traces;
  std::uint64_t report_digest;
  std::uint64_t responses_digest;
  std::uint64_t metrics_digest;
};

// gtest would otherwise print the param's raw bytes (the algorithm
// pointer included) into the ctest names, which then move whenever the
// binary's layout does.
void PrintTo(const EdrGolden& golden, std::ostream* os) {
  *os << golden.algorithm << (golden.record_traces ? "_traces" : "");
}

// Captured from the pre-refactor build: paper_config(alg, seed=7), dfs
// trace (seed 42, 12 s horizon), telemetry attached.
constexpr EdrGolden kEdrGoldens[] = {
    {"lddm", false, 0xd9cc954e80490635ull, 0x7239ae04e2198582ull,
     0x2d08de1b7d3df556ull},
    {"cdpsm", false, 0x17a9feb67df31bdcull, 0xef29dbcbf6592f3aull,
     0x2cc5e5f07e327606ull},
    {"rr", false, 0xd95ccc0be8b457e6ull, 0x2ac34dabc94f8653ull,
     0xa6f3d4cc79d66cedull},
    {"central", false, 0x7024d00d5dc86816ull, 0xc72c8429785880a6ull,
     0x61a0fd878a346e93ull},
    // Power traces on: exercises sample_trace + the meter counters.
    {"lddm", true, 0x46e2bd77fab6abcdull, 0x7239ae04e2198582ull,
     0x670508e01e38a6f5ull},
};

class GoldenEquivalence : public ::testing::TestWithParam<EdrGolden> {};

TEST_P(GoldenEquivalence, RunReportAndTelemetryAreByteIdentical) {
  const EdrGolden& golden = GetParam();
  // The deterministic parallel solve engine promises bitwise
  // thread-count-independent results, so the pre-refactor digests must hold
  // at every lane count — serial (the pinned default), two lanes, and all
  // hardware threads (0).
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{0}}) {
    auto cfg = analysis::paper_config(golden.algorithm, 7);
    cfg.record_traces = golden.record_traces;
    cfg.solver_threads = threads;
    // The digests predate the SIMD kernel layer; simd=scalar is pinned
    // explicitly (not left to the SystemConfig default) because its whole
    // contract is that routing the hot loops through common/simd.hpp with
    // Mode::kScalar changes ZERO observable bits.
    cfg.simd = common::simd::Mode::kScalar;
    cfg.telemetry = telemetry::make_telemetry();
    core::EdrSystem system(
        cfg, analysis::paper_trace(workload::distributed_file_service(), 42,
                                   12.0));
    const auto report = system.run();

    const auto json = analysis::report_to_json(report, golden.algorithm);
    EXPECT_EQ(digest_string(json), golden.report_digest)
        << "report JSON diverged for " << golden.algorithm
        << " threads=" << threads;
    EXPECT_EQ(digest_doubles(report.response_times_ms),
              golden.responses_digest)
        << "response-time bit patterns diverged for " << golden.algorithm
        << " threads=" << threads;
    const auto jsonl = telemetry::metrics_to_jsonl(cfg.telemetry->metrics());
    EXPECT_EQ(digest_string(jsonl), golden.metrics_digest)
        << "telemetry metrics JSONL diverged for " << golden.algorithm
        << " threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, GoldenEquivalence, ::testing::ValuesIn(kEdrGoldens),
    [](const auto& info) {
      return std::string(info.param.algorithm) +
             (info.param.record_traces ? "_traces" : "");
    });

// Every table above attaches telemetry, which turns on CDPSM's consensus
// residual gauges.  These pin the paper configuration with no telemetry at
// all, under dense and sparse storage: the run report and the response
// times must not depend on whether anything reads the residuals.
TEST(GoldenEquivalence, CdpsmWithoutTelemetryIsByteIdentical) {
  struct Golden {
    core::SolverRepresentation representation;
    std::uint64_t report_digest;
    std::uint64_t responses_digest;
  };
  constexpr Golden kGoldens[] = {
      {core::SolverRepresentation::kDense, 0x47f2de127e73fb64ull,
       0xef29dbcbf6592f3aull},
      {core::SolverRepresentation::kSparse, 0xb45b7c97bfeb2a5full,
       0xce9bba985ad0b6d7ull},
  };
  for (const auto& golden : kGoldens) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      auto cfg = analysis::paper_config("cdpsm", 7);
      cfg.representation = golden.representation;
      cfg.solver_threads = threads;
      cfg.simd = common::simd::Mode::kScalar;
      ASSERT_EQ(cfg.telemetry, nullptr);
      core::EdrSystem system(
          cfg, analysis::paper_trace(workload::distributed_file_service(),
                                     42, 12.0));
      const auto report = system.run();
      const auto json = analysis::report_to_json(report, "cdpsm");
      EXPECT_EQ(digest_string(json), golden.report_digest)
          << core::to_string(golden.representation) << " threads=" << threads;
      EXPECT_EQ(digest_doubles(report.response_times_ms),
                golden.responses_digest)
          << core::to_string(golden.representation) << " threads=" << threads;
    }
  }
}

// The flight recorder is the other reader of CDPSM's residuals: each
// per-replica sample carries the round's estimate disagreement, and each
// epoch summary its final value.  Pins the recorder's JSONL dump and the
// report, whose "convergence" section repeats the summaries.
TEST(GoldenEquivalence, CdpsmFlightRecorderIsByteIdentical) {
  auto cfg = analysis::paper_config("cdpsm", 7);
  cfg.simd = common::simd::Mode::kScalar;
  cfg.telemetry = telemetry::make_telemetry();
  cfg.telemetry->enable_flight_recorder();
  core::EdrSystem system(
      cfg,
      analysis::paper_trace(workload::distributed_file_service(), 42, 12.0));
  const auto report = system.run();
  const auto flight =
      telemetry::flight_to_jsonl(*cfg.telemetry->flight_recorder());
  ASSERT_NE(flight.find("\"disagreement\""), std::string::npos);
  EXPECT_EQ(digest_string(flight), 0x164aa12f108efc55ull)
      << "flight JSONL diverged";
  EXPECT_EQ(digest_string(analysis::report_to_json(report, "cdpsm")),
            0xeb15dee355b907c4ull)
      << "report JSON diverged";
}

// DONAR ran on its own hand-rolled event loop before the refactor; this
// pins its re-host onto EdrSystem's EpochPipeline, down to the bit patterns
// of every response time and the makespan.  The old loop modelled no
// power, traces, retries or ring; the mapping-node deployment must match
// it whether or not those SystemConfig switches are turned off.
TEST(GoldenEquivalence, DonarPipelineRehostIsByteIdentical) {
  baselines::register_donar_algorithm();
  for (const bool switches_on : {true, false}) {
    SCOPED_TRACE(switches_on ? "switches on" : "switches off");
    core::SystemConfig cfg;
    cfg.algorithm = "donar";
    cfg.replicas = optim::paper_replica_set();
    cfg.num_clients = 6;
    cfg.seed = 5;
    cfg.derive_energy_model_from_power = switches_on;
    cfg.retry_shed = switches_on;
    cfg.enable_ring = switches_on;
    cfg.record_traces = switches_on;
    Rng rng{99};
    workload::TraceOptions options;
    options.num_clients = cfg.num_clients;
    options.horizon = 10.0;
    auto trace = workload::Trace::generate(
        rng, workload::distributed_file_service(), options);
    core::EdrSystem system(cfg, std::move(trace));
    const auto report = system.run();

    std::string blob;
    blob += "epochs=" + std::to_string(report.epochs);
    blob += " rounds=" + std::to_string(report.total_rounds);
    blob += " served=" + std::to_string(report.requests_served);
    blob += " msgs=" + std::to_string(report.control_messages);
    blob += " bytes=" + std::to_string(report.control_bytes);
    EXPECT_EQ(blob,
              "epochs=10 rounds=1222 served=202 msgs=7588 bytes=505096");
    std::uint64_t h = digest_string(blob);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &report.makespan, sizeof bits);
    h = fnv1a(&bits, sizeof bits, h);
    EXPECT_EQ(h, 0x4427286b26cf99eeull) << "summary/makespan diverged";
    EXPECT_EQ(report.response_times_ms.size(), 202u);
    EXPECT_EQ(digest_doubles(report.response_times_ms),
              0x27586f7600e821a9ull)
        << "DONAR response-time bit patterns diverged";
  }
}

// A large sparse instance with faults, pinning the simulated network's
// delivery path at scale: 10^4 clients × 8 replicas (160k directed
// client<->replica links), a one-client link change, a replica-wide
// bandwidth cut, and a crash followed by recovery.  The metrics JSONL
// carries net.link_queue_delay_s and sim.events_*, so FIFO link
// serialization and event ordering are covered bit for bit.  Captured
// while SimNetwork still kept links, handlers and stats in std::maps and
// Simulator used std::priority_queue, so it pins the flat storage that
// replaced them.
struct GeoGolden {
  const char* algorithm;
  std::uint64_t report_digest;
  std::uint64_t responses_digest;
  std::uint64_t metrics_digest;
};

TEST(GoldenEquivalence, GeoScaleWithFaultsIsByteIdentical) {
  constexpr GeoGolden kGeoGoldens[] = {
      {"lddm", 0x8864920929669db7ull, 0xb48c4936b56ad9b6ull,
       0xb2b03dfed3197527ull},
      {"cdpsm", 0xfdb44fe2549a8c25ull, 0x8ba4eb523b2114faull,
       0xb934f042c9265710ull},
  };
  for (const auto& golden : kGeoGoldens) {
    auto cfg = analysis::paper_config(golden.algorithm, 11);
    cfg.num_clients = 10000;
    cfg.representation = core::SolverRepresentation::kSparse;
    cfg.simd = common::simd::Mode::kScalar;
    cfg.telemetry = telemetry::make_telemetry();
    Rng rng{23};
    workload::TraceOptions options;
    options.num_clients = cfg.num_clients;
    options.horizon = 6.0;
    core::EdrSystem system(
        cfg, workload::Trace::generate(
                 rng, workload::distributed_file_service(), options));
    system.inject_link_change({.client = 17,
                               .replica = 2,
                               .latency_factor = 3.0,
                               .bandwidth_factor = 0.5},
                              1.5);
    system.inject_link_change({.client = -1,
                               .replica = 4,
                               .latency_factor = 1.0,
                               .bandwidth_factor = 0.25},
                              2.5);
    system.inject_failure(5, 3.2);
    system.inject_recovery(5, 4.6);
    const auto report = system.run();

    const auto json = analysis::report_to_json(report, golden.algorithm);
    const auto jsonl = telemetry::metrics_to_jsonl(cfg.telemetry->metrics());
    EXPECT_EQ(digest_string(json), golden.report_digest)
        << "report JSON diverged for " << golden.algorithm;
    EXPECT_EQ(digest_doubles(report.response_times_ms),
              golden.responses_digest)
        << "response-time bit patterns diverged for " << golden.algorithm;
    EXPECT_EQ(digest_string(jsonl), golden.metrics_digest)
        << "telemetry metrics JSONL diverged for " << golden.algorithm;
  }
}

// Link changes that land on the same (client, replica) pair more than once,
// so the order in which their factors multiply is pinned: a per-client
// latency x bandwidth cut, a replica-wide bandwidth cut of the same replica
// and an all-pairs latency change, then the inverse factors in reverse
// order.  The pair's client gets one request after the first three changes
// and another after the last three, so the pair carries traffic in both
// states, and the pair is the client's slowest, so its assignment arrives
// last in the epoch and its link parameters reach the response times.
TEST(GoldenEquivalence, CompoundLinkChangesAreByteIdentical) {
  constexpr GeoGolden kCompoundGoldens[] = {
      {"lddm", 0x81f27746cb2c9282ull, 0xae5a22aebbd8ad08ull,
       0x7ae038eda9a8601aull},
      {"cdpsm", 0xb09567386fcd8c07ull, 0x14fd232c8e95c7edull,
       0xfd4bfba5804d1a4full},
  };

  constexpr int kClient = 17;
  // 0.7 and 0.45 round differently in the two orders: (100 * 0.7) * 0.45
  // is 31.5, (100 * 0.45) * 0.7 is 31.499999999999996.
  constexpr double kClientCut = 0.7;
  constexpr double kReplicaCut = 0.45;
  for (const auto& golden : kCompoundGoldens) {
    auto cfg = analysis::paper_config(golden.algorithm, 13);
    cfg.num_clients = 2000;
    cfg.representation = core::SolverRepresentation::kSparse;
    cfg.simd = common::simd::Mode::kScalar;
    cfg.telemetry = telemetry::make_telemetry();
    Rng rng{29};
    workload::TraceOptions options;
    options.num_clients = cfg.num_clients;
    options.horizon = 8.0;
    auto requests = workload::Trace::generate(
                        rng, workload::distributed_file_service(), options)
                        .requests();
    for (const SimTime arrival : {2.1, 6.1})
      requests.push_back({.id = requests.size(),
                          .client = kClient,
                          .arrival = arrival,
                          .size_mb = 40.0,
                          .object_id = 1});
    workload::Trace trace{std::move(requests)};

    core::EdrSystem system(cfg, std::move(trace));
    const Matrix& latency = system.config().latency;
    int replica = 0;
    for (int n = 1; n < static_cast<int>(latency.cols()); ++n)
      if (latency(kClient, n) > latency(kClient, replica)) replica = n;
    const core::LinkDegradation changes[] = {
        {.client = kClient,
         .replica = replica,
         .latency_factor = 3.0,
         .bandwidth_factor = kClientCut},
        {.client = -1,
         .replica = replica,
         .latency_factor = 1.0,
         .bandwidth_factor = kReplicaCut},
        {.client = -1,
         .replica = -1,
         .latency_factor = 1.7,
         .bandwidth_factor = 1.0},
        {.client = -1,
         .replica = -1,
         .latency_factor = 1.0 / 1.7,
         .bandwidth_factor = 1.0},
        {.client = -1,
         .replica = replica,
         .latency_factor = 1.0,
         .bandwidth_factor = 1.0 / kReplicaCut},
        {.client = kClient,
         .replica = replica,
         .latency_factor = 1.0 / 3.0,
         .bandwidth_factor = 1.0 / kClientCut},
    };
    const SimTime when[] = {0.4, 0.8, 1.2, 4.4, 4.8, 5.2};
    for (std::size_t k = 0; k < std::size(changes); ++k)
      system.inject_link_change(changes[k], when[k]);
    const auto report = system.run();

    const auto json = analysis::report_to_json(report, golden.algorithm);
    const auto jsonl = telemetry::metrics_to_jsonl(cfg.telemetry->metrics());
    EXPECT_EQ(digest_string(json), golden.report_digest)
        << "report JSON diverged for " << golden.algorithm;
    EXPECT_EQ(digest_doubles(report.response_times_ms),
              golden.responses_digest)
        << "response-time bit patterns diverged for " << golden.algorithm;
    EXPECT_EQ(digest_string(jsonl), golden.metrics_digest)
        << "telemetry metrics JSONL diverged for " << golden.algorithm;
  }
}

}  // namespace
}  // namespace edr
