// Driving DistributedAlgorithm backends synchronously against a fabricated
// EpochContext — no simulator, no network — to pin the interface contract:
// warm-start state must carry across epochs (and measurably shorten the
// second solve), abort must drop the engine but keep the warm state, and
// one-shot backends must honor their rotation state.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/builtin_algorithms.hpp"
#include "core/lddm.hpp"
#include "optim/problem.hpp"
#include "telemetry/telemetry.hpp"

namespace edr::core {
namespace {

/// A 4-client x 4-replica epoch with mildly skewed demand.
optim::Problem make_problem(double demand_scale) {
  std::vector<Megabytes> demands = {30.0 * demand_scale,
                                    22.0 * demand_scale,
                                    18.0 * demand_scale,
                                    26.0 * demand_scale};
  std::vector<optim::ReplicaParams> replicas(4);
  replicas[0].price = 1.0;
  replicas[1].price = 8.0;
  replicas[2].price = 2.0;
  replicas[3].price = 5.0;
  Matrix latency(4, 4, 0.2);
  return optim::Problem(std::move(demands), std::move(replicas),
                        std::move(latency), 1.8);
}

struct FabricatedEpoch {
  optim::Problem problem;
  std::vector<std::size_t> active_replicas = {0, 1, 2, 3};
  std::vector<std::uint32_t> active_clients = {0, 1, 2, 3};
  std::vector<PendingRequest> requests;
  std::vector<bool> alive = {true, true, true, true};

  explicit FabricatedEpoch(double demand_scale)
      : problem(make_problem(demand_scale)) {}
  explicit FabricatedEpoch(optim::Problem epoch_problem)
      : problem(std::move(epoch_problem)) {}

  [[nodiscard]] EpochContext context() {
    EpochContext ctx;
    ctx.problem = &problem;
    ctx.active_replicas = &active_replicas;
    ctx.active_clients = &active_clients;
    ctx.requests = &requests;
    ctx.replica_alive = &alive;
    ctx.num_replicas = 4;
    ctx.num_clients = 4;
    ctx.num_solvers = 4;
    return ctx;
  }
};

/// Run one full epoch synchronously; returns the number of rounds stepped.
std::size_t solve_epoch(DistributedAlgorithm& algorithm, EpochContext ctx,
                        Matrix* allocation_out = nullptr) {
  algorithm.begin_epoch(ctx);
  std::size_t rounds = 0;
  while (!algorithm.step_round(ctx)) ++rounds;
  ++rounds;
  Matrix allocation = algorithm.extract_allocation(ctx);
  if (allocation_out != nullptr) *allocation_out = std::move(allocation);
  return rounds;
}

LddmOptions test_lddm_options() {
  LddmOptions options;
  options.mu_step_factor = 3.0;
  options.max_rounds = 300;
  options.tolerance = 1e-4;
  options.patience = 3;
  return options;
}

TEST(LddmAlgorithm, WarmSecondEpochConvergesInFewerRounds) {
  FabricatedEpoch first(1.0);
  FabricatedEpoch second(1.15);  // next epoch: similar shape, more demand

  LddmAlgorithm warm(test_lddm_options(), /*warm_start=*/true);
  const std::size_t warm_first = solve_epoch(warm, first.context());
  const std::size_t warm_second = solve_epoch(warm, second.context());

  LddmAlgorithm cold(test_lddm_options(), /*warm_start=*/false);
  (void)solve_epoch(cold, first.context());
  const std::size_t cold_second = solve_epoch(cold, second.context());

  // The first epoch starts from nothing either way; the carried duals +
  // scaled primal columns must shorten the second solve.
  EXPECT_LT(warm_second, cold_second);
  EXPECT_LT(warm_second, warm_first);
}

TEST(LddmAlgorithm, WarmAndColdAgreeOnTheAllocation) {
  FabricatedEpoch first(1.0);
  FabricatedEpoch second(1.15);

  Matrix warm_allocation, cold_allocation;
  LddmAlgorithm warm(test_lddm_options(), true);
  (void)solve_epoch(warm, first.context());
  (void)solve_epoch(warm, second.context(), &warm_allocation);

  LddmAlgorithm cold(test_lddm_options(), false);
  (void)solve_epoch(cold, first.context());
  (void)solve_epoch(cold, second.context(), &cold_allocation);

  // Warm starting changes the iteration count, not the answer: column
  // loads agree to solver tolerance.
  ASSERT_EQ(warm_allocation.cols(), cold_allocation.cols());
  const double total = second.problem.total_demand();
  for (std::size_t col = 0; col < warm_allocation.cols(); ++col)
    EXPECT_NEAR(warm_allocation.col_sum(col), cold_allocation.col_sum(col),
                total * 0.02)
        << "replica " << col;
}

TEST(LddmAlgorithm, AbortKeepsWarmStateForTheRestart) {
  FabricatedEpoch first(1.0);
  FabricatedEpoch second(1.15);

  LddmAlgorithm algorithm(test_lddm_options(), true);
  (void)solve_epoch(algorithm, first.context());

  // Membership change mid-epoch: engine dropped, warm state retained.
  algorithm.begin_epoch(second.context());
  (void)algorithm.step_round(second.context());
  algorithm.abort_epoch();

  const std::size_t restarted = solve_epoch(algorithm, second.context());
  LddmAlgorithm cold(test_lddm_options(), false);
  (void)solve_epoch(cold, first.context());
  const std::size_t cold_second = solve_epoch(cold, second.context());
  EXPECT_LT(restarted, cold_second)
      << "warm state should survive an aborted epoch";
}

/// make_problem(1.0) with a partial latency pattern: client c cannot reach
/// replica (c + 1) % 4, and client 0 reaches replica 0 only.
optim::Problem make_partial_problem() {
  const optim::Problem full = make_problem(1.0);
  std::vector<Megabytes> demands(4);
  std::vector<optim::ReplicaParams> replicas(4);
  for (std::size_t c = 0; c < 4; ++c) demands[c] = full.demand(c);
  for (std::size_t n = 0; n < 4; ++n) replicas[n] = full.replica(n);
  Matrix latency(4, 4, 0.2);
  for (std::size_t c = 0; c < 4; ++c) latency(c, (c + 1) % 4) = 2.5;
  latency(0, 2) = 2.5;
  latency(0, 3) = 2.5;
  return optim::Problem(std::move(demands), std::move(replicas),
                        std::move(latency), 1.8);
}

TEST(ObservedSamples, PerReplicaMessagesAddUpToTheRoundTraffic) {
  // Each replica's flight-recorder sample reports its own load/share
  // reports; summed over replicas they are the replica -> client half of
  // the round's client<->replica messages, under every traffic model.
  const auto check = [](DistributedAlgorithm& algorithm,
                        const char* messages_metric) {
    FabricatedEpoch epoch(make_partial_problem());
    ASSERT_EQ(epoch.problem.sparsity()->nnz(), 10u);
    telemetry::Telemetry telemetry;
    telemetry.enable_flight_recorder();
    EpochContext ctx = epoch.context();
    ctx.telemetry = &telemetry;
    const telemetry::Counter messages =
        telemetry.metrics().counter(messages_metric);
    algorithm.begin_epoch(ctx);
    std::vector<telemetry::RoundSample> samples;
    std::uint64_t before = messages.value();
    bool done = false;
    while (!done) {
      done = algorithm.step_round(ctx);
      samples.clear();
      algorithm.observe(ctx, samples);
      ASSERT_EQ(samples.size(), 4u);
      std::uint64_t sent = 0;
      for (const auto& sample : samples) {
        EXPECT_EQ(sample.bytes_sent, sample.messages_sent * 12u);
        sent += sample.messages_sent;
      }
      EXPECT_EQ(2 * sent, messages.value() - before)
          << algorithm.name() << " round " << samples.front().round;
      before = messages.value();
    }
    (void)algorithm.extract_allocation(ctx);
  };
  for (const auto representation :
       {SolverRepresentation::kDense, SolverRepresentation::kSparse}) {
    SCOPED_TRACE(to_string(representation));
    LddmOptions lddm = test_lddm_options();
    lddm.representation = representation;
    LddmAlgorithm lddm_algorithm(lddm, /*warm_start=*/false);
    check(lddm_algorithm, "solver.lddm.messages");
    AdmmOptions admm;
    admm.representation = representation;
    admm.max_rounds = 300;
    AdmmAlgorithm admm_algorithm(admm, /*warm_start=*/false);
    check(admm_algorithm, "solver.admm.messages");
  }
}

TEST(RoundRobinAlgorithm, RotationCursorCarriesAcrossEpochs) {
  // One request per epoch: without cross-epoch cursor state every epoch
  // would start at replica 0; with it, consecutive epochs hit consecutive
  // replicas.
  RoundRobinAlgorithm algorithm;
  std::vector<std::size_t> first_hit;
  for (int epoch = 0; epoch < 3; ++epoch) {
    FabricatedEpoch fab(1.0);
    fab.active_clients = {0};
    fab.problem = optim::Problem({25.0}, fab.problem.replicas(),
                                 Matrix(1, 4, 0.2), 1.8);
    fab.requests.push_back({/*id=*/static_cast<std::uint64_t>(epoch),
                            /*client=*/0, /*arrival=*/0.0,
                            /*size_mb=*/25.0, /*retries=*/0});
    auto ctx = fab.context();
    ASSERT_FALSE(algorithm.iterative());
    const auto allocation = algorithm.solve_oneshot(ctx);
    ASSERT_TRUE(allocation.has_value());
    for (std::size_t col = 0; col < allocation->cols(); ++col)
      if (allocation->col_sum(col) > 0.0) first_hit.push_back(col);
  }
  ASSERT_EQ(first_hit.size(), 3u);
  EXPECT_EQ(first_hit[0], 0u);
  EXPECT_EQ(first_hit[1], 1u);
  EXPECT_EQ(first_hit[2], 2u);
}

TEST(CentralizedAlgorithm, ThrowsOnAnInfeasibleEpochProblem) {
  // Admission control never hands a solver this instance (10 MB against a
  // 1 MB replica); if one slips through, the backend must fail loudly
  // rather than quietly serve some other policy's allocation.
  FabricatedEpoch fab(1.0);
  std::vector<optim::ReplicaParams> replicas(1);
  replicas[0].bandwidth = 1.0;
  fab.problem =
      optim::Problem({10.0}, std::move(replicas), Matrix(1, 1, 0.5), 1.8);
  fab.active_clients = {0};
  fab.active_replicas = {0};
  CentralizedAlgorithm algorithm;
  const auto ctx = fab.context();
  algorithm.begin_epoch(ctx);
  EXPECT_THROW((void)algorithm.solve_oneshot(ctx), std::logic_error);
}

}  // namespace
}  // namespace edr::core
