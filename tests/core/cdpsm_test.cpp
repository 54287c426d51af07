#include "core/cdpsm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "optim/instance.hpp"
#include "optim/kkt.hpp"
#include "optim/solver.hpp"

namespace edr::core {
namespace {

optim::Problem small_instance(std::uint64_t seed, std::size_t clients = 10,
                              std::size_t replicas = 5) {
  Rng rng{seed};
  optim::InstanceOptions opts;
  opts.num_clients = clients;
  opts.num_replicas = replicas;
  return optim::make_random_instance(rng, opts);
}

TEST(Cdpsm, RejectsInvalidProblem) {
  Matrix latency(1, 1, 5.0);  // above the bound: client unreachable
  std::vector<optim::ReplicaParams> reps(1);
  optim::Problem bad({1.0}, reps, latency, 1.8);
  EXPECT_THROW(CdpsmEngine{bad}, std::invalid_argument);
}

TEST(Cdpsm, RejectsInfeasibleProblem) {
  Matrix latency(1, 1, 0.5);
  std::vector<optim::ReplicaParams> reps(1);
  reps[0].bandwidth = 1.0;
  optim::Problem starved({10.0}, reps, latency, 1.8);
  EXPECT_THROW(CdpsmEngine{starved}, std::runtime_error);
}

TEST(Cdpsm, EverySolutionIsFeasible) {
  for (const auto& problem : {small_instance(41), small_instance(71, 12, 6)}) {
    CdpsmEngine engine{problem};
    for (int k = 0; k < 50; ++k) {
      engine.round();
      EXPECT_TRUE(
          optim::check_feasibility(problem, engine.solution()).ok(1e-5))
          << "round " << k;
    }
  }
}

TEST(Cdpsm, ObjectiveTrendsDownward) {
  const auto problem = small_instance(43);
  CdpsmEngine engine{problem};
  const auto trace = engine.run();
  ASSERT_GE(trace.size(), 10u);
  const auto& points = trace.points();
  // Not strictly monotone (consensus wobble), but the tail must be well
  // below the head.
  EXPECT_LT(points.back().objective, points.front().objective);
}

TEST(Cdpsm, CommunicationVolumeMatchesComplexityModel) {
  const auto problem = small_instance(44, 6, 4);
  CdpsmEngine engine{problem};
  // Each replica ships its full 6x4 estimate to 3 peers.
  EXPECT_EQ(engine.bytes_per_replica_round(),
            3u * (8 + 8 * 6 * 4));
  const auto stats = engine.round();
  EXPECT_EQ(stats.bytes_exchanged, 4u * engine.bytes_per_replica_round());
}

TEST(Cdpsm, HonorsExplicitStepSize) {
  const auto problem = small_instance(45);
  CdpsmOptions options;
  options.step = 1e-6;  // absurdly small: should barely move
  CdpsmEngine slow{problem, options};
  const Matrix before = slow.solution();
  slow.round();
  const Matrix after = slow.solution();
  EXPECT_LT(after.distance(before), 1.0);
}

TEST(Cdpsm, SingleReplicaDegenerateCase) {
  Rng rng{46};
  optim::InstanceOptions opts;
  opts.num_clients = 4;
  opts.num_replicas = 1;
  opts.bandwidth = 500.0;
  const auto problem = optim::make_random_instance(rng, opts);
  CdpsmEngine engine{problem};
  engine.run();
  const auto solution = engine.solution();
  EXPECT_TRUE(optim::check_feasibility(problem, solution).ok(1e-6));
  // Only one replica: everything lands on it.
  for (std::size_t c = 0; c < 4; ++c)
    EXPECT_NEAR(solution(c, 0), problem.demand(c), 1e-6);
}

TEST(Cdpsm, DiminishingStepConvergesSlower) {
  // The Nedić-prescribed d/√k schedule trades speed for its convergence
  // guarantee; at a fixed round budget it must sit farther from the optimum
  // than the constant-step default (the Fig 5 comparison).
  const auto problem = small_instance(47);
  CdpsmOptions constant;
  constant.max_rounds = 150;
  constant.patience = 1000;  // force the full budget for a fair snapshot
  CdpsmOptions diminishing = constant;
  diminishing.diminishing_step = true;

  CdpsmEngine a{problem, constant};
  CdpsmEngine b{problem, diminishing};
  for (int k = 0; k < 150; ++k) {
    a.round();
    b.round();
  }
  EXPECT_LT(problem.total_cost(a.solution()),
            problem.total_cost(b.solution()));
  // Both still produce feasible schedules at every point.
  EXPECT_TRUE(optim::check_feasibility(problem, b.solution()).ok(1e-5));
}

/// 12 replicas, and client c is feasible at the (c mod 12) + 1 replicas of
/// a ring window starting at its home replica, so the compact rows hold
/// every length from 1 to 12.  Capacities bind at the cheap replicas.
optim::Problem ragged_rows_instance() {
  constexpr std::size_t kClients = 36;
  constexpr std::size_t kReplicas = 12;
  Rng rng{1612};
  std::vector<Megabytes> demands(kClients);
  double total = 0.0;
  for (auto& demand : demands) {
    demand = rng.uniform(5.0, 15.0);
    total += demand;
  }
  std::vector<optim::ReplicaParams> replicas(kReplicas);
  for (auto& replica : replicas) {
    replica.price = static_cast<double>(rng.uniform_int(1, 20));
    replica.bandwidth = 0.15 * total;
  }
  Matrix latency(kClients, kReplicas, 2.5);
  for (std::size_t c = 0; c < kClients; ++c) {
    const std::size_t home = (c * 5) % kReplicas;
    for (std::size_t k = 0; k <= c % kReplicas; ++k)
      latency(c, (home + k) % kReplicas) = rng.uniform(0.1, 1.8);
  }
  return optim::Problem(std::move(demands), std::move(replicas),
                        std::move(latency), 1.8);
}

std::uint64_t solution_digest(const Matrix& solution) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the bit patterns
  for (const double v : solution.flat()) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(Cdpsm, RaggedSparseRowsArePinned) {
  // Pinned digest of a kSparse run whose demand rows span 1..12 entries,
  // so any change to the row projection that moves a bit shows here.
  const auto problem = ragged_rows_instance();
  std::vector<std::size_t> row_sizes;
  for (std::size_t c = 0; c < problem.num_clients(); ++c)
    row_sizes.push_back(problem.sparsity()->row_nnz(c));
  EXPECT_EQ(std::ranges::min(row_sizes), 1u);
  EXPECT_EQ(std::ranges::max(row_sizes), 12u);

  CdpsmOptions options;
  options.representation = SolverRepresentation::kSparse;
  CdpsmEngine engine{problem, options};
  engine.run();
  EXPECT_TRUE(engine.converged());
  EXPECT_EQ(engine.rounds_executed(), 1886u);
  EXPECT_EQ(solution_digest(engine.solution()), 2745428850835817667ull);
}

TEST(Cdpsm, ReplicaStatsDoNotChangeIterates) {
  // The flight-recorder path projects after an extra copy; turning it on
  // must not move a bit of the iterates, serial or pooled.
  const auto problem = ragged_rows_instance();
  CdpsmOptions options;
  options.representation = SolverRepresentation::kSparse;
  options.max_rounds = 120;
  CdpsmEngine reference{problem, options};
  reference.run();
  const std::uint64_t expected = solution_digest(reference.solution());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    for (const bool collect : {false, true}) {
      common::ThreadPool pool{threads};
      CdpsmEngine engine{problem, options};
      engine.set_thread_pool(&pool);
      engine.set_collect_replica_stats(collect);
      engine.run();
      EXPECT_EQ(engine.rounds_executed(), reference.rounds_executed())
          << threads << " threads, stats " << collect;
      EXPECT_EQ(solution_digest(engine.solution()), expected)
          << threads << " threads, stats " << collect;
      EXPECT_EQ(engine.replica_stats().size(), collect ? 12u : 0u);
    }
  }
}

class CdpsmConvergence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CdpsmConvergence, ReachesCentralizedOptimum) {
  for (const auto& problem :
       {small_instance(GetParam()), small_instance(GetParam(), 12, 6)}) {
    const auto central = optim::solve_centralized(problem);
    ASSERT_TRUE(central.has_value());

    CdpsmEngine engine{problem};
    engine.run();
    EXPECT_TRUE(engine.converged())
        << "no convergence in " << engine.rounds_executed() << " rounds";
    const auto solution = engine.solution();
    EXPECT_TRUE(optim::check_feasibility(problem, solution).ok(1e-5));
    EXPECT_LT(optim::relative_gap(problem, solution, central->cost), 5e-3)
        << "cdpsm=" << problem.total_cost(solution)
        << " central=" << central->cost;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdpsmConvergence,
                         ::testing::Range<std::uint64_t>(500, 510));

}  // namespace
}  // namespace edr::core
