// Integration tests that pin the *shape* of the paper's headline results
// (miniature versions of the bench harness, kept fast for CI).
#include <gtest/gtest.h>

#include "analysis/experiments.hpp"
#include "baselines/donar_algorithm.hpp"
#include "core/system.hpp"
#include "optim/instance.hpp"

namespace edr {
namespace {

TEST(Reproduction, Fig6LoadConcentratesOnCheapReplicas) {
  // Paper: "most of the traffic load is assigned to replica 3, 5, and 7
  // primarily due to the relatively lower electricity prices" (1-indexed:
  // prices 1, 1, 2 -> our indices 2, 4, 6; index 0 also has price 1).
  const auto rows =
      analysis::run_comparison({"lddm"},
                               workload::video_streaming(), 7, 42, 30.0);
  const auto& replicas = rows[0].report.replicas;
  const double cheap = replicas[0].assigned_mb + replicas[2].assigned_mb +
                       replicas[4].assigned_mb + replicas[6].assigned_mb;
  const double expensive = replicas[1].assigned_mb +
                           replicas[3].assigned_mb +
                           replicas[5].assigned_mb;
  EXPECT_GT(cheap, 2.0 * expensive);
}

TEST(Reproduction, Fig8CostOrderingLddmBelowCdpsmBelowRoundRobin) {
  for (const auto& app :
       {workload::video_streaming(), workload::distributed_file_service()}) {
    const auto rows = analysis::run_comparison(
        {"lddm", "cdpsm", "rr"}, app, 7,
        42, 30.0);
    const double lddm = rows[0].report.total_active_cost;
    const double cdpsm = rows[1].report.total_active_cost;
    const double rr = rows[2].report.total_active_cost;
    EXPECT_LT(lddm, rr) << app.name;
    EXPECT_LT(cdpsm, rr) << app.name;
  }
}

TEST(Reproduction, Fig8EnergyVersusCostDecoupling) {
  // Fig 8(b): energy consumption and energy cost order differently.  The
  // request-granular Round-Robin baseline wastes joules through load
  // imbalance (the cubic network term), so EDR beats it on BOTH metrics,
  // while CDPSM can undercut LDDM on joules for video streaming even
  // though it costs more cents (the objective is cents, not joules).
  const auto rows = analysis::run_comparison(
      {"lddm", "cdpsm", "rr"},
      workload::video_streaming(), 7, 42, 60.0);
  const auto& lddm = rows[0].report;
  const auto& cdpsm = rows[1].report;
  const auto& rr = rows[2].report;
  EXPECT_LT(lddm.total_active_cost, rr.total_active_cost);
  EXPECT_LT(cdpsm.total_active_energy, rr.total_active_energy);
  // The decoupling: the joule ordering between LDDM and CDPSM differs from
  // the cents ordering.
  EXPECT_LT(cdpsm.total_active_energy, lddm.total_active_energy);
  EXPECT_LT(lddm.total_active_cost, cdpsm.total_active_cost);
}

TEST(Reproduction, Fig3Fig4PowerTraceShape) {
  auto cfg = analysis::paper_config("cdpsm");
  cfg.record_traces = true;
  core::EdrSystem system(
      cfg, analysis::paper_trace(workload::distributed_file_service(), 42,
                                 20.0));
  const auto report = system.run();
  for (const auto& replica : report.replicas) {
    ASSERT_FALSE(replica.trace.samples.empty());
    // Valleys near the 215 W idle floor, peaks pushing toward 240 W.
    EXPECT_NEAR(replica.trace.min_watts(), 215.0, 1.0);
    EXPECT_LE(replica.trace.max_watts(), 241.0);
  }
  // At least the loaded replicas show real peaks.
  double highest = 0.0;
  for (const auto& replica : report.replicas)
    highest = std::max(highest, replica.trace.max_watts());
  EXPECT_GT(highest, 230.0);
}

TEST(Reproduction, Fig9ResponseTimeGrowsNearLinearly) {
  // Decision latency vs batch size for EDR(LDDM, 3 replicas), mirroring the
  // request counts 24..192 at small scale (24, 48, 96).
  std::vector<double> response;
  for (const std::size_t count : {24u, 48u, 96u}) {
    core::SystemConfig cfg;
    cfg.algorithm = "lddm";
    const auto full_set = optim::paper_replica_set();
    cfg.replicas.assign(full_set.begin(), full_set.begin() + 3);
    cfg.num_clients = 8;
    cfg.seed = 3;
    cfg.epoch_length = 0.05;  // single batch, minimal queueing wait
    cfg.min_link_latency = 0.05;  // SystemG LAN (Fig 9 runs on the cluster)
    cfg.max_link_latency = 0.35;
    // Decision deadline: a deployed runtime bounds the per-epoch round
    // budget, which also keeps solver time comparable across batch sizes so
    // the per-request handling cost drives the Fig 9 trend.
    cfg.lddm.max_rounds = 100;
    std::vector<workload::Request> requests;
    Rng rng{11};
    for (std::size_t i = 0; i < count; ++i)
      requests.push_back({i, static_cast<std::uint32_t>(rng.bounded(8)),
                          0.04, 10.0, i});
    core::EdrSystem system(cfg, workload::Trace{std::move(requests)});
    const auto report = system.run();
    response.push_back(report.mean_response_ms());
  }
  // Monotone growth, and no blow-up: 4x the requests costs < 10x the time.
  EXPECT_LT(response[0], response[2]);
  EXPECT_LT(response[2], response[0] * 10.0);
}

TEST(Reproduction, Fig9EdrComparableToDonar) {
  // Same workload through EDR (3 replicas) and DONAR (3 mapping nodes).
  Rng rng{19};
  workload::TraceOptions topts;
  topts.num_clients = 8;
  topts.horizon = 10.0;
  const auto trace = workload::Trace::generate(
      rng, workload::distributed_file_service(), topts);

  core::SystemConfig edr_cfg;
  edr_cfg.algorithm = "lddm";
  const auto full_set = optim::paper_replica_set();
  edr_cfg.replicas.assign(full_set.begin(), full_set.begin() + 3);
  edr_cfg.num_clients = 8;
  edr_cfg.seed = 3;
  core::EdrSystem edr(edr_cfg, trace);
  const auto edr_report = edr.run();

  baselines::register_donar_algorithm();
  auto donar_cfg = edr_cfg;
  donar_cfg.algorithm = "donar";
  core::EdrSystem donar(donar_cfg, trace);
  const auto donar_report = donar.run();

  ASSERT_FALSE(edr_report.response_times_ms.empty());
  ASSERT_FALSE(donar_report.response_times_ms.empty());
  // "The performance of EDR is very close to DONAR": same order of
  // magnitude, neither more than ~3x the other.
  const double ratio =
      edr_report.mean_response_ms() / donar_report.mean_response_ms();
  EXPECT_GT(ratio, 1.0 / 3.0);
  EXPECT_LT(ratio, 3.0);
}

TEST(Reproduction, SavingsSweepMatchesPaperBallpark) {
  // Paper: LDDM saves ~12% cost vs RR on average across 40 runs; we run a
  // reduced sweep here (the full 40-run version lives in bench/fig8).
  const auto summary = analysis::run_savings_sweep(
      workload::distributed_file_service(), 5, 2024, 20.0);
  EXPECT_GT(summary.lddm_cost_saving, 0.05);
  EXPECT_LT(summary.lddm_cost_saving, 0.95);
}

}  // namespace
}  // namespace edr
