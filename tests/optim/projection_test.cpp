#include "optim/projection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "optim/instance.hpp"
#include "optim/problem.hpp"

namespace edr::optim {
namespace {

double vec_sum(std::span<const double> v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

TEST(SimplexProjection, AlreadyOnSimplexIsFixedPoint) {
  std::vector<double> v{0.2, 0.3, 0.5};
  project_simplex(v, 1.0);
  EXPECT_NEAR(v[0], 0.2, 1e-12);
  EXPECT_NEAR(v[1], 0.3, 1e-12);
  EXPECT_NEAR(v[2], 0.5, 1e-12);
}

TEST(SimplexProjection, UniformShiftForInteriorPoint) {
  // Projection of (1,2,3) onto {Σ=3} with all coordinates staying positive
  // subtracts the mean excess: (0,1,2).
  std::vector<double> v{1.0, 2.0, 3.0};
  project_simplex(v, 3.0);
  EXPECT_NEAR(v[0], 0.0, 1e-12);
  EXPECT_NEAR(v[1], 1.0, 1e-12);
  EXPECT_NEAR(v[2], 2.0, 1e-12);
}

TEST(SimplexProjection, ClampsNegativeCoordinates) {
  std::vector<double> v{-5.0, 0.5, 0.6};
  project_simplex(v, 1.0);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_NEAR(vec_sum(v), 1.0, 1e-12);
  EXPECT_NEAR(v[1], 0.45, 1e-12);
  EXPECT_NEAR(v[2], 0.55, 1e-12);
}

TEST(SimplexProjection, ZeroTargetGivesZeroVector) {
  std::vector<double> v{3.0, -1.0, 2.0};
  project_simplex(v, 0.0);
  for (double x : v) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(SimplexProjection, SingleCoordinate) {
  std::vector<double> v{-4.0};
  project_simplex(v, 2.5);
  EXPECT_DOUBLE_EQ(v[0], 2.5);
}

TEST(MaskedSimplexProjection, MaskedCoordinatesForcedToZero) {
  std::vector<double> v{10.0, 10.0, 10.0};
  const std::vector<double> mask{1.0, 0.0, 1.0};
  project_masked_simplex(v, mask, 4.0);
  EXPECT_DOUBLE_EQ(v[1], 0.0);
  EXPECT_NEAR(v[0], 2.0, 1e-12);
  EXPECT_NEAR(v[2], 2.0, 1e-12);
}

TEST(MaskedSimplexProjection, ThrowsWhenTargetUnreachable) {
  std::vector<double> v{1.0, 1.0};
  const std::vector<double> mask{0.0, 0.0};
  EXPECT_THROW(project_masked_simplex(v, mask, 1.0), std::invalid_argument);
}

TEST(MaskedSimplexProjection, EmptyMaskZeroTargetZeroesVector) {
  std::vector<double> v{1.0, -2.0};
  const std::vector<double> mask{0.0, 0.0};
  project_masked_simplex(v, mask, 0.0);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 0.0);
}

TEST(MaskedSimplexProjection, RejectsNegativeTarget) {
  std::vector<double> v{1.0};
  const std::vector<double> mask{1.0};
  EXPECT_THROW(project_masked_simplex(v, mask, -1.0), std::invalid_argument);
}

// Property: the projection is the nearest simplex point — verify first-order
// optimality <y - proj, x - proj> <= 0 for random feasible x.
TEST(SimplexProjection, NearestPointProperty) {
  Rng rng{101};
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> y(6), proj(6);
    for (auto& x : y) x = rng.uniform(-3.0, 3.0);
    proj = y;
    project_simplex(proj, 2.0);
    // Random feasible point.
    std::vector<double> other(6);
    for (auto& x : other) x = rng.uniform(0.0, 1.0);
    project_simplex(other, 2.0);
    double inner = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i)
      inner += (y[i] - proj[i]) * (other[i] - proj[i]);
    EXPECT_LE(inner, 1e-9);
  }
}

// Brute-force check of the sort-and-threshold solve: the projection of v is
// max(v_i - τ, 0) on active coordinates for the unique τ with
// Σ_active max(v_i - τ, 0) = target.  Recover τ from the output's positive
// coordinates and verify both the threshold equation and the KKT condition
// on zeroed coordinates (v_i ≤ τ), to 1e-9.
TEST(MaskedSimplexProjection, ThresholdSatisfiesWaterFillingEquation) {
  Rng rng{4242};
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform(0.0, 9.0));
    std::vector<double> v(n), mask(n);
    bool any_active = false;
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = rng.uniform(-4.0, 4.0);
      mask[i] = rng.uniform(0.0, 1.0) < 0.3 ? 0.0 : 1.0;
      any_active = any_active || mask[i] != 0.0;
    }
    if (!any_active) mask[0] = 1.0;
    const double target = trial % 17 == 0 ? 0.0 : rng.uniform(0.0, 6.0);

    std::vector<double> out = v;
    project_masked_simplex(out, mask, target);

    EXPECT_NEAR(vec_sum(out), target, 1e-9) << "trial " << trial;
    double tau = 0.0;
    bool has_positive = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask[i] == 0.0) {
        EXPECT_DOUBLE_EQ(out[i], 0.0) << "masked coordinate " << i;
      } else if (out[i] > 0.0) {
        // τ = v_i - out_i must agree across every positive coordinate.
        if (!has_positive) {
          tau = v[i] - out[i];
          has_positive = true;
        } else {
          EXPECT_NEAR(v[i] - out[i], tau, 1e-9)
              << "threshold inconsistent at " << i << ", trial " << trial;
        }
      }
    }
    if (!has_positive) continue;  // target == 0: everything clipped
    double water = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask[i] == 0.0) continue;
      water += std::max(v[i] - tau, 0.0);
      if (out[i] == 0.0)
        EXPECT_LE(v[i], tau + 1e-9)
            << "zeroed coordinate above threshold, trial " << trial;
    }
    EXPECT_NEAR(water, target, 1e-9) << "trial " << trial;
  }
}

TEST(CappedNonneg, NoChangeWhenUnderCap) {
  std::vector<double> v{1.0, 2.0};
  project_capped_nonneg(v, 10.0);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], 2.0);
}

TEST(CappedNonneg, ClipsNegativesWithoutTouchingCap) {
  std::vector<double> v{-1.0, 2.0};
  project_capped_nonneg(v, 10.0);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 2.0);
}

TEST(CappedNonneg, ProjectsToCapWhenExceeded) {
  std::vector<double> v{6.0, 6.0};
  project_capped_nonneg(v, 10.0);
  EXPECT_NEAR(vec_sum(v), 10.0, 1e-12);
  EXPECT_NEAR(v[0], 5.0, 1e-12);
}

class DykstraTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DykstraTest, ProducesFeasiblePointFromRandomStart) {
  Rng rng{GetParam()};
  InstanceOptions opts;
  opts.num_clients = 6;
  opts.num_replicas = 4;
  const Problem problem = make_random_instance(rng, opts);

  Matrix allocation(6, 4);
  for (auto& v : allocation.flat()) v = rng.uniform(-5.0, 25.0);

  const auto result = project_feasible(problem, allocation);
  EXPECT_TRUE(result.converged) << "Dykstra did not converge";
  const auto report = check_feasibility(problem, allocation);
  EXPECT_TRUE(report.ok(1e-6))
      << "cap=" << report.max_capacity_violation
      << " demand=" << report.max_demand_violation
      << " neg=" << report.max_negative
      << " mask=" << report.max_mask_violation;
}

TEST_P(DykstraTest, FeasiblePointIsFixedPoint) {
  Rng rng{GetParam() + 1000};
  InstanceOptions opts;
  opts.num_clients = 5;
  opts.num_replicas = 3;
  const Problem problem = make_random_instance(rng, opts);

  Matrix allocation(5, 3);
  for (auto& v : allocation.flat()) v = rng.uniform(0.0, 10.0);
  project_feasible(problem, allocation);
  const Matrix feasible = allocation;

  project_feasible(problem, allocation);
  EXPECT_LT(allocation.distance(feasible), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DykstraTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// A starved iteration budget must not silently hide infeasibility: the
// final demand snap can push columns back over capacity, and the result now
// reports that overshoot instead of masking it.
TEST(Dykstra, TightIterationCapSurfacesCapacityResidual) {
  // Three clients of demand 10 against two replicas of capacity 16: near-
  // tight transport, so one demand/capacity sweep followed by the demand
  // snap provably re-overshoots replica 0 when everything starts there.
  std::vector<ReplicaParams> replicas(2);
  replicas[0].bandwidth = 16.0;
  replicas[1].bandwidth = 16.0;
  const Problem problem{{10.0, 10.0, 10.0}, std::move(replicas),
                        Matrix(3, 2), /*max_latency=*/100.0};

  Matrix allocation(3, 2);
  for (std::size_t c = 0; c < 3; ++c) allocation(c, 0) = 30.0;
  const Matrix start = allocation;

  DykstraOptions tight;
  tight.max_iterations = 1;
  const auto result = project_feasible(problem, allocation, tight);
  ASSERT_FALSE(result.converged);
  // The residual is exactly the violation of the returned iterate.
  const auto report = check_feasibility(problem, allocation);
  EXPECT_DOUBLE_EQ(result.capacity_residual, report.max_capacity_violation);
  EXPECT_GT(result.capacity_residual, 0.0)
      << "expected the one-sweep iterate to still overshoot capacity";

  // With the budget restored the projection converges and reports zero.
  Matrix relaxed = start;
  const auto full = project_feasible(problem, relaxed);
  EXPECT_TRUE(full.converged);
  EXPECT_DOUBLE_EQ(full.capacity_residual, 0.0);
}

// The parallel sweeps must be bitwise identical to the serial path — same
// inputs, any lane count, same bytes.
TEST(ParallelProjection, MatchesSerialBitwise) {
  Rng rng{2024};
  InstanceOptions opts;
  opts.num_clients = 13;  // deliberately not divisible by the lane counts
  opts.num_replicas = 5;
  const Problem problem = make_random_instance(rng, opts);

  Matrix start(13, 5);
  for (auto& v : start.flat()) v = rng.uniform(-10.0, 30.0);

  Matrix serial_demand = start;
  project_demand_set(problem, serial_demand);
  Matrix serial_capacity = start;
  project_capacity_set(problem, serial_capacity);
  Matrix serial_feasible = start;
  const auto serial_result = project_feasible(problem, serial_feasible);

  for (const std::size_t lanes : {std::size_t{2}, std::size_t{3}}) {
    common::ThreadPool pool{lanes};

    Matrix demand = start;
    project_demand_set(problem, demand, &pool);
    EXPECT_TRUE(demand == serial_demand) << "demand sweep, lanes=" << lanes;

    Matrix capacity = start;
    project_capacity_set(problem, capacity, &pool);
    EXPECT_TRUE(capacity == serial_capacity)
        << "capacity sweep, lanes=" << lanes;

    Matrix feasible = start;
    DykstraOptions options;
    options.pool = &pool;
    const auto result = project_feasible(problem, feasible, options);
    EXPECT_TRUE(feasible == serial_feasible) << "Dykstra, lanes=" << lanes;
    EXPECT_EQ(result.iterations, serial_result.iterations);
    EXPECT_EQ(result.converged, serial_result.converged);
    EXPECT_DOUBLE_EQ(result.final_change, serial_result.final_change);
  }
}

TEST(MaskedSimplexProjection, AllMaskedRowWithZeroTarget) {
  // A fully masked row is legal when it carries no demand: everything is
  // forced to the unique feasible point, the zero vector.
  std::vector<double> v{3.0, -1.0, 0.5};
  const std::vector<double> mask{0.0, 0.0, 0.0};
  project_masked_simplex(v, mask, 0.0);
  for (const double x : v) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(MaskedSimplexProjection, SingleActiveCoordinateTakesWholeTarget) {
  std::vector<double> v{-7.0, 123.0, 2.0};
  const std::vector<double> mask{0.0, 1.0, 0.0};
  project_masked_simplex(v, mask, 9.5);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 9.5);
  EXPECT_DOUBLE_EQ(v[2], 0.0);
}

TEST(ActiveSimplexProjection, MatchesMaskedProjectionBitwise) {
  // The compact form must agree with the masked form restricted to the
  // active coordinates — exactly, not just to tolerance: the sparse solve
  // paths rely on this identity.
  Rng rng{2024};
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 9));
    std::vector<double> dense(n), mask(n);
    std::vector<double> compact;
    std::size_t active = 0;
    for (std::size_t i = 0; i < n; ++i) {
      dense[i] = rng.uniform(-20.0, 40.0);
      mask[i] = rng.uniform(0.0, 1.0) < 0.6 ? 1.0 : 0.0;
      if (mask[i] != 0.0) {
        compact.push_back(dense[i]);
        ++active;
      }
    }
    const double target = active == 0 ? 0.0 : rng.uniform(0.0, 25.0);
    project_masked_simplex(dense, mask, target);
    project_simplex_active(compact, target);
    std::size_t k = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask[i] == 0.0) {
        EXPECT_DOUBLE_EQ(dense[i], 0.0);
      } else {
        // Bitwise: the gathered active vectors and thresholds coincide.
        EXPECT_EQ(dense[i], compact[k++]) << "trial " << trial << " i " << i;
      }
    }
  }
}

// Reference for the threshold-and-apply projections: the sort-based
// Held/Wolfe/Crowder threshold, with the scalar apply loops.  The library's
// threshold may sort differently (short rows go through a comparator
// network), but it must return the same τ bit for bit.
double reference_threshold(std::vector<double> active, double target) {
  std::ranges::sort(active, std::greater<>());
  double running = 0.0;
  double tau = 0.0;
  for (std::size_t i = 0; i < active.size(); ++i) {
    running += active[i];
    const double candidate = (running - target) / static_cast<double>(i + 1);
    if (candidate >= active[i]) {
      if (i == 0) tau = candidate;
      break;
    }
    tau = candidate;
  }
  return tau;
}

void reference_project_active(std::vector<double>& values, double target) {
  const double tau = reference_threshold(values, target);
  for (double& v : values) v = std::max(v - tau, 0.0);
}

void reference_project_masked(std::vector<double>& values,
                              const std::vector<double>& mask, double target) {
  std::vector<double> active;
  for (std::size_t i = 0; i < values.size(); ++i)
    if (mask[i] != 0.0) active.push_back(values[i]);
  if (active.empty()) {
    for (double& v : values) v = 0.0;
    return;
  }
  const double tau = reference_threshold(active, target);
  for (std::size_t i = 0; i < values.size(); ++i)
    values[i] = mask[i] != 0.0 ? std::max(values[i] - tau, 0.0) : 0.0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(SimplexProjection, ThresholdMatchesSortReferenceBitwise) {
  // Rows of 1..12 entries cover both the short-row and the long-row path.
  // Values mix signed zeros, repeats, negatives and positives — the cases
  // where two correct sorts can order equal keys differently — and the
  // targets include 0.
  Rng rng{16};
  const double repeats[] = {0.0, -0.0, 1.5, -2.25, 7.0};
  const auto draw = [&] {
    const auto kind = rng.uniform_int(0, 5);
    if (kind == 0) return 0.0;
    if (kind == 1) return -0.0;
    if (kind == 2) return repeats[rng.uniform_int(0, 4)];
    if (kind == 3) return rng.uniform(-30.0, 0.0);
    return rng.uniform(0.0, 30.0);
  };
  for (const auto simd :
       {common::simd::Mode::kScalar, common::simd::Mode::kAuto}) {
    for (int trial = 0; trial < 4000; ++trial) {
      const auto n = static_cast<std::size_t>(rng.uniform_int(1, 12));
      std::vector<double> values(n), mask(n);
      for (std::size_t i = 0; i < n; ++i) {
        values[i] = draw();
        mask[i] = rng.uniform(0.0, 1.0) < 0.7 ? 1.0 : 0.0;
      }
      const bool any_active =
          std::ranges::any_of(mask, [](double m) { return m != 0.0; });
      const auto target_kind = rng.uniform_int(0, 3);
      const double target = target_kind == 0   ? 0.0
                            : target_kind == 1 ? repeats[2]
                                               : rng.uniform(0.0, 40.0);

      std::vector<double> active = values;
      std::vector<double> expected = values;
      project_simplex_active(active, target, simd);
      reference_project_active(expected, target);
      EXPECT_TRUE(same_bits(active, expected))
          << "active form, trial " << trial << ", " << n << " entries";

      const double masked_target = any_active ? target : 0.0;
      std::vector<double> masked = values;
      expected = values;
      project_masked_simplex(masked, mask, masked_target, simd);
      reference_project_masked(expected, mask, masked_target);
      EXPECT_TRUE(same_bits(masked, expected))
          << "masked form, trial " << trial << ", " << n << " entries";
    }
  }
}

TEST(ActiveSimplexProjection, ThrowsLikeMaskedForm) {
  std::vector<double> empty;
  EXPECT_THROW(project_simplex_active(empty, 1.0), std::invalid_argument);
  std::vector<double> v{1.0};
  EXPECT_THROW(project_simplex_active(v, -0.5), std::invalid_argument);
}

// The sparse factor projections and sparse Dykstra must reproduce the dense
// path bit for bit when the dense allocation carries exact zeros on the
// infeasible pairs (which the dense projections maintain).
TEST(SparseProjection, MatchesDenseMaskedProjectionBitwise) {
  Rng rng{77};
  for (int trial = 0; trial < 10; ++trial) {
    InstanceOptions opts;
    opts.num_clients = 11;
    opts.num_replicas = 4;
    const Problem problem = make_random_instance(rng, opts);

    // Random nonnegative start supported on the feasible pairs only.
    Matrix start(11, 4, 0.0);
    for (std::size_t c = 0; c < 11; ++c)
      for (std::size_t n = 0; n < 4; ++n)
        if (problem.feasible_pair(c, n)) start(c, n) = rng.uniform(0.0, 30.0);

    common::SparseAllocation sparse{problem.sparsity()};

    Matrix dense_demand = start;
    project_demand_set(problem, dense_demand);
    sparse.from_dense(start);
    project_demand_set(problem, sparse);
    Matrix scattered;
    sparse.to_dense(scattered);
    EXPECT_TRUE(scattered == dense_demand) << "demand sweep, trial " << trial;

    Matrix dense_capacity = start;
    project_capacity_set(problem, dense_capacity);
    sparse.from_dense(start);
    project_capacity_set(problem, sparse);
    sparse.to_dense(scattered);
    EXPECT_TRUE(scattered == dense_capacity)
        << "capacity sweep, trial " << trial;

    Matrix dense_feasible = start;
    const auto dense_result = project_feasible(problem, dense_feasible);
    sparse.from_dense(start);
    const auto sparse_result = project_feasible(problem, sparse);
    sparse.to_dense(scattered);
    EXPECT_TRUE(scattered == dense_feasible) << "Dykstra, trial " << trial;
    EXPECT_EQ(sparse_result.iterations, dense_result.iterations);
    EXPECT_EQ(sparse_result.converged, dense_result.converged);
    EXPECT_DOUBLE_EQ(sparse_result.final_change, dense_result.final_change);
    EXPECT_DOUBLE_EQ(sparse_result.capacity_residual,
                     dense_result.capacity_residual);
  }
}

TEST(SparseProjection, ParallelSweepsMatchSerialBitwise) {
  Rng rng{78};
  InstanceOptions opts;
  opts.num_clients = 13;
  opts.num_replicas = 5;
  const Problem problem = make_random_instance(rng, opts);
  common::SparseAllocation start{problem.sparsity()};
  for (double& v : start.values()) v = rng.uniform(0.0, 30.0);

  auto serial_demand = start;
  project_demand_set(problem, serial_demand);
  auto serial_capacity = start;
  project_capacity_set(problem, serial_capacity);

  for (const std::size_t lanes : {std::size_t{2}, std::size_t{3}}) {
    common::ThreadPool pool{lanes};
    auto demand = start;
    project_demand_set(problem, demand, &pool);
    EXPECT_DOUBLE_EQ(demand.distance(serial_demand), 0.0)
        << "demand sweep, lanes=" << lanes;
    auto capacity = start;
    project_capacity_set(problem, capacity, &pool);
    EXPECT_DOUBLE_EQ(capacity.distance(serial_capacity), 0.0)
        << "capacity sweep, lanes=" << lanes;
  }
}

}  // namespace
}  // namespace edr::optim
