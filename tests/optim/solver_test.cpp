#include "optim/solver.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "optim/instance.hpp"
#include "optim/kkt.hpp"
#include "optim/projection.hpp"

namespace edr::optim {
namespace {

// Single client, two identical replicas: the optimum splits the demand
// evenly (strict convexity of the cubic term forces balance).
TEST(CentralizedSolver, IdenticalReplicasBalanceLoad) {
  std::vector<Megabytes> demands{40.0};
  std::vector<ReplicaParams> reps(2);
  for (auto& r : reps) {
    r.price = 2.0;
    r.alpha = 1.0;
    r.beta = 0.01;
    r.gamma = 3.0;
    r.bandwidth = 100.0;
  }
  Matrix latency(1, 2, 0.5);
  Problem problem(demands, reps, latency, 1.8);

  const auto result = solve_centralized(problem);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->converged);
  EXPECT_NEAR(result->allocation(0, 0), 20.0, 1e-3);
  EXPECT_NEAR(result->allocation(0, 1), 20.0, 1e-3);
  const double expected = 2.0 * (2.0 * (20.0 + 0.01 * 20.0 * 20.0 * 20.0));
  EXPECT_NEAR(result->cost, expected, 1e-6 * expected);
}

// Two replicas with different prices: optimal split equalizes *marginal*
// costs u_i(α + 3β s_i²) where both loads are positive.  Verify against a
// closed-form bisection on the scalar optimality condition.
TEST(CentralizedSolver, MarginalCostsEqualizeAcrossPrices) {
  const double R = 60.0, u1 = 1.0, u2 = 4.0, alpha = 1.0, beta = 0.01;
  std::vector<Megabytes> demands{R};
  std::vector<ReplicaParams> reps(2);
  reps[0].price = u1;
  reps[1].price = u2;
  for (auto& r : reps) {
    r.alpha = alpha;
    r.beta = beta;
    r.gamma = 3.0;
    r.bandwidth = 1000.0;
  }
  Matrix latency(1, 2, 0.5);
  Problem problem(demands, reps, latency, 1.8);

  const auto result = solve_centralized(problem);
  ASSERT_TRUE(result.has_value());

  // Scalar reference: minimize f(s) = u1·e(s) + u2·e(R−s) over s ∈ [0, R].
  auto marginal = [&](double s) {
    return u1 * (alpha + 3 * beta * s * s) -
           u2 * (alpha + 3 * beta * (R - s) * (R - s));
  };
  double lo = 0.0, hi = R;
  // f'(0) = u1·α − u2·(α+3βR²) < 0 and f'(R) > 0 here, so the optimum is
  // interior; bisect the monotone marginal.
  ASSERT_LT(marginal(lo), 0.0);
  ASSERT_GT(marginal(hi), 0.0);
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    (marginal(mid) < 0.0 ? lo : hi) = mid;
  }
  const double s_star = 0.5 * (lo + hi);

  EXPECT_NEAR(result->allocation(0, 0), s_star, 1e-2);
  EXPECT_NEAR(result->allocation(0, 1), R - s_star, 1e-2);
  // The expensive replica must get strictly less.
  EXPECT_GT(result->allocation(0, 0), result->allocation(0, 1));
}

TEST(CentralizedSolver, CapacityConstraintRedirectsOverflow) {
  // Cheap replica capped at 10 MB; the remaining 20 MB must go to the
  // expensive one even though its marginal cost is higher.
  std::vector<Megabytes> demands{30.0};
  std::vector<ReplicaParams> reps(2);
  reps[0].price = 1.0;
  reps[0].bandwidth = 10.0;
  reps[1].price = 10.0;
  reps[1].bandwidth = 100.0;
  for (auto& r : reps) {
    r.alpha = 1.0;
    r.beta = 0.0001;  // nearly linear => cheap one saturates
    r.gamma = 3.0;
  }
  Matrix latency(1, 2, 0.5);
  Problem problem(demands, reps, latency, 1.8);

  const auto result = solve_centralized(problem);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(result->allocation(0, 0), 10.0, 1e-4);
  EXPECT_NEAR(result->allocation(0, 1), 20.0, 1e-4);
}

TEST(CentralizedSolver, LatencyMaskExcludesFastButCheapReplica) {
  std::vector<Megabytes> demands{10.0, 10.0};
  std::vector<ReplicaParams> reps(2);
  reps[0].price = 10.0;
  reps[1].price = 1.0;
  Matrix latency(2, 2, 0.5);
  latency(0, 1) = 3.0;  // client 0 cannot reach the cheap replica
  Problem problem(demands, reps, latency, 1.8);

  const auto result = solve_centralized(problem);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(result->allocation(0, 1), 0.0, 1e-9);
  EXPECT_NEAR(result->allocation(0, 0), 10.0, 1e-6);
  // Client 1 should still prefer the cheap replica.
  EXPECT_GT(result->allocation(1, 1), result->allocation(1, 0));
}

TEST(CentralizedSolver, InfeasibleInstanceReturnsNullopt) {
  std::vector<Megabytes> demands{100.0};
  std::vector<ReplicaParams> reps(1);
  reps[0].bandwidth = 10.0;
  Matrix latency(1, 1, 0.5);
  Problem problem(demands, reps, latency, 1.8);
  EXPECT_FALSE(solve_centralized(problem).has_value());
}

TEST(CentralizedSolver, TraceRecordsMonotoneObjective) {
  Rng rng{55};
  InstanceOptions opts;
  opts.num_clients = 8;
  opts.num_replicas = 4;
  const Problem problem = make_random_instance(rng, opts);

  CentralizedOptions copts;
  copts.trace_stride = 1;
  const auto result = solve_centralized(problem, copts);
  ASSERT_TRUE(result.has_value());
  ASSERT_FALSE(result->trace.empty());
  const auto& points = result->trace.points();
  for (std::size_t i = 1; i < points.size(); ++i)
    EXPECT_LE(points[i].objective, points[i - 1].objective + 1e-8)
        << "objective increased at trace point " << i;
}

TEST(AdmmSolver, InfeasibleInstanceReturnsNullopt) {
  std::vector<Megabytes> demands{100.0};
  std::vector<ReplicaParams> reps(1);
  reps[0].bandwidth = 10.0;
  Matrix latency(1, 1, 0.5);
  Problem problem(demands, reps, latency, 1.8);
  EXPECT_FALSE(solve_admm(problem).has_value());
}

TEST(AdmmSolver, MatchesClosedFormSplit) {
  // Same analytic instance as the FISTA test: identical replicas balance.
  std::vector<Megabytes> demands{40.0};
  std::vector<ReplicaParams> reps(2);
  for (auto& r : reps) {
    r.price = 2.0;
    r.alpha = 1.0;
    r.beta = 0.01;
    r.gamma = 3.0;
    r.bandwidth = 100.0;
  }
  Matrix latency(1, 2, 0.5);
  Problem problem(demands, reps, latency, 1.8);
  const auto result = solve_admm(problem);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->converged);
  EXPECT_NEAR(result->allocation(0, 0), 20.0, 1e-3);
  EXPECT_NEAR(result->allocation(0, 1), 20.0, 1e-3);
}

class AdmmCrossValidation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdmmCrossValidation, AgreesWithFista) {
  // Two structurally different algorithms (accelerated projected gradient
  // vs operator splitting) must land on the same optimum — the strongest
  // correctness evidence available without an external solver.
  Rng rng{GetParam()};
  InstanceOptions opts;
  opts.num_clients = 10;
  opts.num_replicas = 6;
  const Problem problem = make_random_instance(rng, opts);

  const auto fista = solve_centralized(problem);
  const auto admm = solve_admm(problem);
  ASSERT_TRUE(fista.has_value());
  ASSERT_TRUE(admm.has_value());
  EXPECT_TRUE(admm->converged)
      << "admm residual " << admm->residual << " after " << admm->iterations;
  EXPECT_TRUE(check_feasibility(problem, admm->allocation).ok(1e-6));
  EXPECT_NEAR(admm->cost, fista->cost,
              std::abs(fista->cost) * 1e-4 + 1e-9)
      << "solvers disagree: fista=" << fista->cost
      << " admm=" << admm->cost;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdmmCrossValidation,
                         ::testing::Range<std::uint64_t>(700, 708));

class CentralizedPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CentralizedPropertyTest, ConvergesToKktPointOnRandomInstances) {
  Rng rng{GetParam()};
  InstanceOptions opts;
  opts.num_clients = 10;
  opts.num_replicas = 6;
  const Problem problem = make_random_instance(rng, opts);

  const auto result = solve_centralized(problem);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->converged)
      << "residual after " << result->iterations << " iters: "
      << result->residual;
  EXPECT_TRUE(check_feasibility(problem, result->allocation).ok(1e-6));
  // kkt_residual carries gradient units (≈ L × movement); normalize by the
  // gradient scale so the bound is meaningful across instances.
  const double grad_scale = problem.gradient_lipschitz_bound();
  EXPECT_LT(kkt_residual(problem, result->allocation) / grad_scale, 1e-5);
}

TEST_P(CentralizedPropertyTest, NoFeasiblePointBeatsTheSolver) {
  Rng rng{GetParam() + 5000};
  InstanceOptions opts;
  opts.num_clients = 6;
  opts.num_replicas = 4;
  const Problem problem = make_random_instance(rng, opts);

  const auto result = solve_centralized(problem);
  ASSERT_TRUE(result.has_value());

  // Random feasible competitors (Dykstra projections of random matrices)
  // must all cost at least as much.
  for (int trial = 0; trial < 10; ++trial) {
    Matrix candidate(6, 4);
    for (auto& v : candidate.flat()) v = rng.uniform(0.0, 30.0);
    project_feasible(problem, candidate);
    if (!check_feasibility(problem, candidate).ok(1e-5)) continue;
    EXPECT_GE(problem.total_cost(candidate), result->cost - 1e-5)
        << "random feasible point beat the solver on trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CentralizedPropertyTest,
                         ::testing::Range<std::uint64_t>(300, 310));

TEST(RoundRobinAllocation, EqualSplitAcrossFeasibleReplicas) {
  std::vector<Megabytes> demands{12.0};
  std::vector<ReplicaParams> reps(3);
  Matrix latency(1, 3, 0.5);
  latency(0, 2) = 5.0;  // masked
  Problem problem(demands, reps, latency, 1.8);
  const auto allocation = round_robin_allocation(problem);
  EXPECT_DOUBLE_EQ(allocation(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(allocation(0, 1), 6.0);
  EXPECT_DOUBLE_EQ(allocation(0, 2), 0.0);
}

TEST(RoundRobinAllocation, IgnoresPrices) {
  std::vector<Megabytes> demands{10.0};
  std::vector<ReplicaParams> reps(2);
  reps[0].price = 1.0;
  reps[1].price = 20.0;
  Matrix latency(1, 2, 0.5);
  Problem problem(demands, reps, latency, 1.8);
  const auto allocation = round_robin_allocation(problem);
  EXPECT_DOUBLE_EQ(allocation(0, 0), allocation(0, 1));
}

TEST(RoundRobinAllocation, OverflowWaterfallsToSpareCapacity) {
  std::vector<Megabytes> demands{30.0};
  std::vector<ReplicaParams> reps(2);
  reps[0].bandwidth = 5.0;   // equal share would be 15: overflows by 10
  reps[1].bandwidth = 100.0;
  Matrix latency(1, 2, 0.5);
  Problem problem(demands, reps, latency, 1.8);
  const auto allocation = round_robin_allocation(problem);
  EXPECT_DOUBLE_EQ(allocation(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(allocation(0, 1), 25.0);
  EXPECT_TRUE(check_feasibility(problem, allocation).ok(1e-9));
}

TEST(RoundRobinAllocation, FeasibleOnRandomInstances) {
  for (std::uint64_t seed = 80; seed < 90; ++seed) {
    Rng rng{seed};
    InstanceOptions opts;
    opts.num_clients = 12;
    opts.num_replicas = 6;
    const auto problem = make_random_instance(rng, opts);
    const auto allocation = round_robin_allocation(problem);
    EXPECT_TRUE(check_feasibility(problem, allocation).ok(1e-7))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace edr::optim
