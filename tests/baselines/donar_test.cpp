#include "baselines/donar.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/lddm.hpp"
#include "optim/instance.hpp"

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

}  // namespace
}  // namespace edr::baselines
