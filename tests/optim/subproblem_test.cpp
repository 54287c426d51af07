#include "optim/objective.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "optim/projection.hpp"

namespace edr::optim {
namespace {

double subproblem_value(const ReplicaParams& params,
                        std::span<const double> mu,
                        std::span<const double> prox_center, double rho,
                        std::span<const double> q) {
  double s = 0.0;
  for (double v : q) s += v;
  double value = replica_cost(params, s);
  for (std::size_t c = 0; c < q.size(); ++c) {
    value += mu[c] * q[c];
    value += 0.5 * rho * (q[c] - prox_center[c]) * (q[c] - prox_center[c]);
  }
  return value;
}

/// Brute-force reference: projected gradient on the subproblem.
std::vector<double> brute_force(const ReplicaParams& params,
                                std::span<const double> mu,
                                std::span<const double> mask,
                                std::span<const double> prox_center,
                                double rho) {
  std::vector<double> q(mu.size(), 0.0);
  const double lipschitz =
      rho + params.price * params.beta * params.gamma *
                std::max(params.gamma - 1.0, 0.0) *
                std::pow(std::max(params.bandwidth, 1.0),
                         std::max(params.gamma - 2.0, 0.0)) *
                static_cast<double>(mu.size()) +
      1.0;
  const double step = 1.0 / lipschitz;
  for (int iter = 0; iter < 60000; ++iter) {
    double s = 0.0;
    for (double v : q) s += v;
    const double phi_prime = replica_cost_derivative(params, s);
    for (std::size_t c = 0; c < q.size(); ++c) {
      const double grad = phi_prime + mu[c] + rho * (q[c] - prox_center[c]);
      q[c] -= step * grad;
      if (mask[c] == 0.0) q[c] = 0.0;
    }
    project_capped_nonneg(q, params.bandwidth);
    // Re-apply the mask (projection may have spread mass onto masked slots).
    for (std::size_t c = 0; c < q.size(); ++c)
      if (mask[c] == 0.0) q[c] = 0.0;
  }
  return q;
}

ReplicaParams cubic_params(double price = 3.0, double bandwidth = 50.0) {
  ReplicaParams p;
  p.price = price;
  p.alpha = 1.0;
  p.beta = 0.01;
  p.gamma = 3.0;
  p.bandwidth = bandwidth;
  return p;
}

TEST(Subproblem, AllPositiveMultipliersGiveZero) {
  // With μ ≥ 0 and a zero prox center, serving any traffic only increases
  // the objective, so q = 0 is optimal.
  const auto params = cubic_params();
  const std::vector<double> mu{1.0, 2.0};
  const std::vector<double> prox{0.0, 0.0};
  const auto result = solve_replica_subproblem(params, mu, prox, 1.0);
  EXPECT_NEAR(result.load, 0.0, 1e-9);
}

TEST(Subproblem, NegativeMultiplierAttractsLoad) {
  const auto params = cubic_params();
  const std::vector<double> mu{-50.0, 10.0};
  const std::vector<double> prox{0.0, 0.0};
  const auto result = solve_replica_subproblem(params, mu, prox, 1.0);
  EXPECT_GT(result.allocation[0], 1.0);
  EXPECT_NEAR(result.allocation[1], 0.0, 1e-9);
}

TEST(Subproblem, MaskBlocksClient) {
  // Client 0 ({μ, q̂} = {-50, 10}) is latency-masked, so it is not a
  // variable: the solve runs on the feasible subsequence, client 1 alone.
  // The masked client's pull must not leak into the feasible one — its load
  // equals the single-client solve's, and it still attracts load.
  const auto params = cubic_params();
  const std::vector<double> mu{-50.0, -50.0};
  const std::vector<double> prox{10.0, 0.0};
  const std::vector<double> mask{0.0, 1.0};
  const std::vector<double> feasible_mu{mu[1]};
  const std::vector<double> feasible_prox{prox[1]};
  const auto result =
      solve_replica_subproblem(params, feasible_mu, feasible_prox, 1.0);
  ASSERT_EQ(result.allocation.size(), 1u);
  EXPECT_GT(result.allocation[0], 0.0);
  EXPECT_DOUBLE_EQ(result.load, result.allocation[0]);
  const auto reference = brute_force(params, mu, mask, prox, 1.0);
  EXPECT_DOUBLE_EQ(reference[0], 0.0);
  EXPECT_NEAR(result.allocation[0], reference[1], 1e-3);
}

TEST(Subproblem, CapacityBindsAndMultiplierIsReported) {
  const auto params = cubic_params(1.0, 5.0);
  const std::vector<double> mu{-1000.0, -1000.0};
  const std::vector<double> prox{100.0, 100.0};
  const auto result = solve_replica_subproblem(params, mu, prox, 1.0);
  EXPECT_NEAR(result.load, 5.0, 1e-6);
  EXPECT_GT(result.capacity_multiplier, 0.0);
}

TEST(Subproblem, RejectsNonPositiveRho) {
  const auto params = cubic_params();
  const std::vector<double> mu{0.0};
  const std::vector<double> prox{0.0};
  EXPECT_THROW(solve_replica_subproblem(params, mu, prox, 0.0),
               std::invalid_argument);
}

class SubproblemRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SubproblemRandomTest, MatchesBruteForceSolution) {
  Rng rng{GetParam()};
  ReplicaParams params;
  params.price = rng.uniform(1.0, 10.0);
  params.alpha = 1.0;
  params.beta = rng.uniform(0.005, 0.05);
  params.gamma = 3.0;
  params.bandwidth = rng.uniform(10.0, 60.0);

  const std::size_t clients = 5;
  std::vector<double> mu(clients), mask(clients), prox(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    mu[c] = rng.uniform(-30.0, 10.0);
    mask[c] = rng.uniform() < 0.8 ? 1.0 : 0.0;
    prox[c] = rng.uniform(0.0, 15.0);
  }
  const double rho = rng.uniform(0.5, 3.0);

  // The solver sees the feasible subsequence only; the brute-force
  // reference runs masked on all clients.  Scatter the fast solution back
  // (masked clients carry zero) and compare objective values.
  std::vector<double> feasible_mu, feasible_prox;
  for (std::size_t c = 0; c < clients; ++c)
    if (mask[c] != 0.0) {
      feasible_mu.push_back(mu[c]);
      feasible_prox.push_back(prox[c]);
    }
  const auto fast =
      solve_replica_subproblem(params, feasible_mu, feasible_prox, rho);
  ASSERT_EQ(fast.allocation.size(), feasible_mu.size());
  std::vector<double> scattered(clients, 0.0);
  for (std::size_t c = 0, i = 0; c < clients; ++c)
    if (mask[c] != 0.0) scattered[c] = fast.allocation[i++];
  const auto slow = brute_force(params, mu, mask, prox, rho);

  const double fast_value =
      subproblem_value(params, mu, prox, rho, scattered);
  const double slow_value = subproblem_value(params, mu, prox, rho, slow);
  // The closed-form solver must be at least as good as 60k iterations of
  // projected gradient (up to tolerance).
  EXPECT_LE(fast_value, slow_value + 1e-4)
      << "fast=" << fast_value << " brute=" << slow_value;

  for (const double q : fast.allocation) EXPECT_GE(q, 0.0);
  EXPECT_LE(fast.load, params.bandwidth + 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubproblemRandomTest,
                         ::testing::Range<std::uint64_t>(200, 212));

}  // namespace
}  // namespace edr::optim
