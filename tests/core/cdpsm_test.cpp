#include "core/cdpsm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
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

std::uint64_t bits_digest(std::span<const double> values) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the bit patterns
  for (const double v : values) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::uint64_t solution_digest(const Matrix& solution) {
  return bits_digest(solution.flat());
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

std::uint64_t trace_digest(const optim::ConvergenceTrace& trace) {
  std::vector<double> values;
  for (const auto& point : trace.points())
    values.insert(values.end(),
                  {point.objective, point.residual, point.communication});
  return bits_digest(values);
}

TEST(Cdpsm, ReplicaStatsDoNotChangeIterates) {
  // The flight-recorder path projects after an extra copy, and attached
  // telemetry turns on the residual gauges; neither may move a bit of the
  // iterates or of run()'s trace, serial or pooled.
  const auto problem = ragged_rows_instance();
  CdpsmOptions options;
  options.representation = SolverRepresentation::kSparse;
  options.max_rounds = 120;
  CdpsmEngine reference{problem, options};
  const std::uint64_t expected_trace = trace_digest(reference.run());
  const std::uint64_t expected = solution_digest(reference.solution());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    for (const bool collect : {false, true}) {
      for (const bool attach : {false, true}) {
        common::ThreadPool pool{threads};
        const auto telemetry = telemetry::make_telemetry();
        CdpsmEngine engine{problem, options};
        engine.set_thread_pool(&pool);
        engine.set_collect_replica_stats(collect);
        if (attach) engine.attach_telemetry(*telemetry);
        const std::uint64_t trace = trace_digest(engine.run());
        const auto where = ::testing::Message()
                           << threads << " threads, stats " << collect
                           << ", telemetry " << attach;
        EXPECT_EQ(engine.rounds_executed(), reference.rounds_executed())
            << where;
        EXPECT_EQ(trace, expected_trace) << where;
        EXPECT_EQ(solution_digest(engine.solution()), expected) << where;
        EXPECT_EQ(engine.replica_stats().size(), collect ? 12u : 0u)
            << where;
      }
    }
  }
}

TEST(Cdpsm, RoundResidualsArePinned) {
  // round() reports each round's consensus residuals when something reads
  // them — attached telemetry (mirrored into the solver.cdpsm.* gauges) or
  // collected replica stats (the flight-recorder samples); pinned bit for
  // bit, and the run() trace (max of the two per round) with them.
  const auto problem = ragged_rows_instance();
  CdpsmOptions options;
  options.representation = SolverRepresentation::kSparse;
  options.max_rounds = 120;
  for (const bool attach : {true, false}) {
    const auto telemetry = telemetry::make_telemetry();
    CdpsmEngine engine{problem, options};
    if (attach)
      engine.attach_telemetry(*telemetry);
    else
      engine.set_collect_replica_stats(true);
    std::vector<double> residuals;
    CdpsmRoundStats stats;
    for (std::size_t k = 0; k < options.max_rounds && !engine.converged();
         ++k) {
      stats = engine.round();
      residuals.push_back(stats.disagreement);
      residuals.push_back(stats.movement);
    }
    ASSERT_EQ(residuals.size(), 2 * engine.rounds_executed());
    EXPECT_GT(stats.disagreement, 0.0);
    EXPECT_GT(stats.movement, 0.0);
    EXPECT_EQ(bits_digest(residuals), 0x48ddc466fb41a7cbull)
        << "telemetry " << attach;
    if (!attach) continue;
    std::size_t gauges = 0;
    for (const auto& gauge : telemetry->metrics().gauges()) {
      const double expected = gauge.name == "solver.cdpsm.disagreement"
                                  ? stats.disagreement
                              : gauge.name == "solver.cdpsm.movement"
                                  ? stats.movement
                                  : gauge.value;
      if (gauge.name.starts_with("solver.cdpsm.")) ++gauges;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(gauge.value),
                std::bit_cast<std::uint64_t>(expected))
          << gauge.name;
    }
    EXPECT_EQ(gauges, 3u);  // objective, disagreement, movement
  }

  CdpsmEngine traced{problem, options};
  EXPECT_EQ(trace_digest(traced.run()), 0x4ca9d0ee98732a13ull);
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
