#include "baselines/donar.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "baselines/donar_algorithm.hpp"
#include "common/rng.hpp"
#include "core/epoch_pipeline.hpp"
#include "core/lddm.hpp"
#include "core/system.hpp"
#include "optim/instance.hpp"
#include "workload/apps.hpp"

namespace edr::baselines {
namespace {

optim::Problem make_instance(std::uint64_t seed, std::size_t clients = 12,
                             std::size_t replicas = 6) {
  Rng rng{seed};
  optim::InstanceOptions opts;
  opts.num_clients = clients;
  opts.num_replicas = replicas;
  return optim::make_random_instance(rng, opts);
}

TEST(Donar, RejectsBadConfiguration) {
  const auto problem = make_instance(1);
  DonarOptions options;
  options.num_mapping_nodes = 0;
  EXPECT_THROW((DonarEngine{problem, options}), std::invalid_argument);
}

TEST(Donar, OwnerPartitionCoversAllClients) {
  const auto problem = make_instance(2);
  DonarEngine engine{problem};
  std::vector<std::size_t> counts(engine.options().num_mapping_nodes, 0);
  for (std::size_t c = 0; c < problem.num_clients(); ++c)
    counts[engine.owner(c)]++;
  for (const auto count : counts) EXPECT_GT(count, 0u);
}

TEST(Donar, SolutionsAreFeasible) {
  const auto problem = make_instance(3);
  DonarEngine engine{problem};
  for (int k = 0; k < 30; ++k) {
    engine.round();
    EXPECT_TRUE(optim::check_feasibility(problem, engine.solution()).ok(1e-5));
  }
}

TEST(Donar, ConvergesAndImprovesItsOwnObjective) {
  const auto problem = make_instance(4);
  DonarEngine engine{problem};
  const double initial = engine.donar_objective(engine.solution());
  engine.run();
  EXPECT_TRUE(engine.converged());
  EXPECT_LT(engine.donar_objective(engine.solution()), initial);
}

TEST(Donar, PrefersLowLatencyReplicas) {
  // One client, two replicas, identical capacity; replica 1 is 10x closer.
  std::vector<Megabytes> demands{10.0};
  std::vector<optim::ReplicaParams> reps(2);
  Matrix latency(1, 2);
  latency(0, 0) = 1.5;
  latency(0, 1) = 0.15;
  optim::Problem problem(demands, reps, latency, 1.8);
  DonarOptions options;
  options.balance_weight = 0.001;  // let perf dominate
  DonarEngine engine{problem, options};
  engine.run();
  const auto solution = engine.solution();
  EXPECT_GT(solution(0, 1), solution(0, 0));
}

TEST(Donar, BalanceWeightSpreadsLoad) {
  std::vector<Megabytes> demands{10.0};
  std::vector<optim::ReplicaParams> reps(2);
  Matrix latency(1, 2);
  latency(0, 0) = 1.5;
  latency(0, 1) = 0.15;
  optim::Problem problem(demands, reps, latency, 1.8);
  DonarOptions heavy;
  heavy.balance_weight = 100.0;  // balance dominates perf
  DonarEngine engine{problem, heavy};
  engine.run();
  const auto solution = engine.solution();
  EXPECT_NEAR(solution(0, 0), solution(0, 1), 1.0);
}

TEST(Donar, IgnoresElectricityPrices) {
  // Same geometry, wildly different prices: DONAR's answer cannot change.
  std::vector<Megabytes> demands{10.0, 8.0};
  Matrix latency(2, 2, 0.5);
  latency(0, 0) = 0.3;
  latency(1, 1) = 0.4;

  std::vector<optim::ReplicaParams> cheap(2);
  cheap[0].price = 1.0;
  cheap[1].price = 1.0;
  std::vector<optim::ReplicaParams> spread(2);
  spread[0].price = 1.0;
  spread[1].price = 20.0;

  optim::Problem problem_cheap(demands, cheap, latency, 1.8);
  optim::Problem problem_spread(demands, spread, latency, 1.8);
  DonarEngine engine_a{problem_cheap};
  DonarEngine engine_b{problem_spread};
  engine_a.run();
  engine_b.run();
  EXPECT_LT(engine_a.solution().distance(engine_b.solution()), 1e-6);
}

TEST(Donar, EdrBeatsDonarOnCostUnderPriceSpread) {
  // DONAR optimizes network performance; with heterogeneous prices EDR must
  // win on energy cost (the paper's motivation for EDR over DONAR).
  for (std::uint64_t seed = 10; seed < 15; ++seed) {
    const auto problem = make_instance(seed);
    core::LddmEngine lddm{problem};
    DonarEngine donar{problem};
    lddm.run();
    donar.run();
    const double edr_cost = problem.total_cost(lddm.solution());
    const double donar_cost = problem.total_cost(donar.solution());
    EXPECT_LE(edr_cost, donar_cost * (1.0 + 1e-6)) << "seed " << seed;
  }
}

TEST(Donar, CommunicationBytesMatchMappingNodeModel) {
  const auto problem = make_instance(6, 10, 4);
  DonarOptions options;
  options.num_mapping_nodes = 3;
  DonarEngine engine{problem, options};
  // Aggregate vector of 4 doubles to each of 2 peers.
  EXPECT_EQ(engine.bytes_per_node_round(), 2u * (4 + 8 * 4));
}

// --- the Fig 9 deployment: EdrSystem hosting "donar" on mapping nodes ---

core::SystemConfig donar_config() {
  register_donar_algorithm();
  core::SystemConfig cfg;
  cfg.algorithm = "donar";
  cfg.replicas = optim::paper_replica_set();
  cfg.num_clients = 6;
  cfg.seed = 5;
  return cfg;
}

workload::Trace small_trace(std::uint64_t seed = 99) {
  Rng rng{seed};
  workload::TraceOptions options;
  options.num_clients = 6;
  options.horizon = 10.0;
  return workload::Trace::generate(rng, workload::distributed_file_service(),
                                   options);
}

TEST(DonarDeployment, ServesEveryRequest) {
  const auto trace = small_trace();
  core::EdrSystem system(donar_config(), trace);
  const auto report = system.run();
  EXPECT_EQ(report.requests_served, trace.size());
  EXPECT_EQ(report.response_times_ms.size(), trace.size());
}

TEST(DonarDeployment, MegabyteLedgerBalances) {
  const auto trace = small_trace();
  core::EdrSystem system(donar_config(), trace);
  const auto report = system.run();
  EXPECT_GT(report.megabytes_served, 0.0);
  EXPECT_NEAR(report.megabytes_served + report.megabytes_abandoned,
              trace.total_megabytes(), trace.total_megabytes() * 1e-9);
  double assigned = 0.0;
  for (const auto& replica : report.replicas) assigned += replica.assigned_mb;
  EXPECT_NEAR(assigned, report.megabytes_served,
              report.megabytes_served * 1e-12);
}

TEST(DonarDeployment, ResponseTimesPositiveAndBounded) {
  core::EdrSystem system(donar_config(), small_trace());
  const auto report = system.run();
  for (const double ms : report.response_times_ms) {
    EXPECT_GT(ms, 0.0);
    EXPECT_LT(ms, 10'000.0);
  }
  EXPECT_GT(report.mean_response_ms(), 0.0);
}

TEST(DonarDeployment, Deterministic) {
  const auto trace = small_trace();
  core::EdrSystem a(donar_config(), trace);
  core::EdrSystem b(donar_config(), trace);
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.total_rounds, rb.total_rounds);
  EXPECT_EQ(ra.control_messages, rb.control_messages);
  ASSERT_EQ(ra.response_times_ms.size(), rb.response_times_ms.size());
  for (std::size_t i = 0; i < ra.response_times_ms.size(); ++i)
    EXPECT_DOUBLE_EQ(ra.response_times_ms[i], rb.response_times_ms[i]);
}

TEST(DonarDeployment, RoundTrafficScalesWithMappingNodes) {
  // The registry's "donar" has the default 3 mapping nodes; other counts
  // go straight to the pipeline.
  const auto trace = small_trace();
  const auto run = [&](std::size_t mapping_nodes) {
    DonarOptions options;
    options.num_mapping_nodes = mapping_nodes;
    core::EpochPipeline pipeline(
        donar_config(), std::make_unique<DonarAlgorithm>(options), trace);
    return pipeline.run();
  };
  const auto ra = run(3);
  const auto rb = run(5);
  ASSERT_GT(ra.total_rounds, 0u);
  ASSERT_GT(rb.total_rounds, 0u);
  const double per_round_a =
      static_cast<double>(ra.control_bytes) / ra.total_rounds;
  const double per_round_b =
      static_cast<double>(rb.control_bytes) / rb.total_rounds;
  EXPECT_GT(per_round_b, per_round_a);
}

TEST(DonarDeployment, RejectsBrokenConfig) {
  auto cfg = donar_config();
  cfg.replicas.clear();
  EXPECT_THROW(core::EdrSystem(cfg, small_trace()), std::invalid_argument);
  DonarOptions no_nodes;
  no_nodes.num_mapping_nodes = 0;
  EXPECT_THROW(DonarAlgorithm{no_nodes}, std::invalid_argument);
}

TEST(DonarDeployment, RejectsReplicaFaults) {
  // Node id 0 is a mapping node here, not replica 0.
  const auto trace = small_trace();
  core::EdrSystem system(donar_config(), trace);
  EXPECT_THROW(system.inject_recovery(0, 3.0), std::invalid_argument);
  try {
    system.inject_failure(0, 2.0);
    ADD_FAILURE() << "inject_failure accepted a replica fault";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string{error.what()}.find("mapping nodes"),
              std::string::npos)
        << error.what();
  }
  EXPECT_EQ(system.run().requests_served, trace.size());
}

}  // namespace
}  // namespace edr::baselines
