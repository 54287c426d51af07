// Admission control (shed_to_feasible) must always leave a
// transport-feasible instance behind.
#include "core/epoch_problem.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "optim/flow.hpp"
#include "optim/solver.hpp"

namespace edr::core {
namespace {

TEST(ShedToFeasible, BisectsWhenTheFlowRatioIsUnroutable) {
  // Client 0 reaches only the 10 MB replica, client 1 only the 100 MB one.
  // Max flow is 30 of 40 MB, but scaling both demands by 30/40·0.999 still
  // leaves client 0 with 14.985 MB behind a 10 MB replica.
  std::vector<optim::ReplicaParams> replicas(2);
  replicas[0].bandwidth = 10.0;
  replicas[1].bandwidth = 100.0;
  Matrix latency(2, 2, 5.0);
  latency(0, 0) = 0.5;
  latency(1, 1) = 0.5;
  std::optional<optim::Problem> problem{
      std::in_place, std::vector<Megabytes>{20.0, 20.0}, std::move(replicas),
      std::move(latency), 1.8};
  const double shed = shed_to_feasible(problem, 1.8);
  EXPECT_TRUE(optim::check_transport_feasible(*problem).feasible);
  EXPECT_TRUE(optim::solve_centralized(*problem).has_value());
  // The largest uniform scale that fits client 0 is 1/2 (up to the
  // routing check's 1e-7 MB tolerance).
  EXPECT_NEAR(shed, 0.5, 1e-8);
  EXPECT_NEAR(problem->demand(0), 10.0, 1e-7);
  EXPECT_NEAR(problem->demand(1), 10.0, 1e-7);
}

}  // namespace
}  // namespace edr::core
