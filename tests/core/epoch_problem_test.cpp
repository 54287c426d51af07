// The shared epoch assembly: bucketing, reachability, admission control
// (shed_to_feasible must always leave a transport-feasible instance) and
// the megabyte ledger of shed remainders.
#include "core/epoch_problem.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <vector>

#include "optim/flow.hpp"
#include "optim/instance.hpp"
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

/// Two 100 MB/s replicas (70 MB per epoch each); clients 0 and 1 reach
/// both, client 2 neither (every link above max_latency).
SystemConfig two_replica_config() {
  SystemConfig cfg;
  const auto paper = optim::paper_replica_set();
  cfg.replicas = {paper[0], paper[1]};
  cfg.num_clients = 3;
  cfg.latency = Matrix(3, 2, 0.5);
  cfg.latency(2, 0) = cfg.latency(2, 1) = 2.0 * cfg.max_latency;
  return cfg;
}

struct Assembly {
  SystemConfig cfg = two_replica_config();
  power::PowerModel model{cfg.power};
  EpochBatch batch;
  Megabytes abandoned_mb = 0.0;

  Assembly() { batch.alive.assign(cfg.replicas.size(), true); }

  std::size_t run(const std::vector<PendingRequest>& bucket,
                  bool drop_unreachable_clients = true) {
    const EpochProblemSpec spec{.cfg = &cfg,
                                .window = 0.7,
                                .now = 0.0,
                                .active_clients = {},
                                .active_replicas = {},
                                .models = {},
                                .shared_model = &model};
    return batch.assemble(spec, bucket, drop_unreachable_clients,
                          abandoned_mb);
  }
};

Megabytes total_mb(const std::vector<PendingRequest>& requests) {
  Megabytes total = 0.0;
  for (const auto& request : requests) total += request.size_mb;
  return total;
}

TEST(EpochBatch, UnreachableClientsRequestsAreDropped) {
  Assembly a;
  const std::size_t dropped = a.run({{.id = 0, .client = 2, .size_mb = 1.0},
                                     {.id = 1, .client = 0, .size_mb = 1.0},
                                     {.id = 2, .client = 2, .size_mb = 1.0}});
  EXPECT_EQ(dropped, 2u);
  ASSERT_TRUE(a.batch.problem.has_value());
  EXPECT_EQ(a.batch.problem->num_clients(), 1u);
  EXPECT_EQ(a.batch.active_clients, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(a.batch.active_replicas, (std::vector<std::size_t>{0, 1}));
  ASSERT_EQ(a.batch.requests.size(), 1u);
  EXPECT_EQ(a.batch.requests[0].id, 1u);
  const EpochContext ctx = a.batch.context(3, 2, nullptr);
  EXPECT_EQ(ctx.problem, &*a.batch.problem);
  EXPECT_EQ(ctx.requests, &a.batch.requests);
  EXPECT_EQ(ctx.replica_alive, &a.batch.alive);
  EXPECT_EQ(ctx.num_replicas, 2u);
}

TEST(EpochBatch, KeepsUnreachableClientsWhenAsked) {
  Assembly a;
  const std::size_t dropped = a.run({{.id = 0, .client = 2, .size_mb = 1.0},
                                     {.id = 1, .client = 0, .size_mb = 1.0}},
                                    /*drop_unreachable_clients=*/false);
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(a.batch.active_clients, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(a.batch.requests.size(), 2u);
}

TEST(EpochBatch, NoAliveReplicaDropsEveryRequest) {
  Assembly a;
  a.batch.alive.assign(2, false);
  a.batch.retry_backlog = {{.id = 9, .client = 1, .size_mb = 4.0,
                            .retries = 1}};
  const std::size_t dropped = a.run({{.id = 0, .client = 0, .size_mb = 1.0},
                                     {.id = 1, .client = 1, .size_mb = 1.0}});
  EXPECT_EQ(dropped, 3u);
  EXPECT_FALSE(a.batch.problem.has_value());
  EXPECT_TRUE(a.batch.requests.empty());
  EXPECT_TRUE(a.batch.retry_backlog.empty());
  EXPECT_TRUE(a.batch.active_replicas.empty());
}

TEST(EpochBatch, SheddingSplitsRequestsIntoServedPartAndRetry) {
  Assembly a;
  // 300 MB against 140 MB of pooled epoch capacity.
  const std::vector<PendingRequest> bucket = {
      {.id = 0, .client = 0, .size_mb = 100.0},
      {.id = 1, .client = 1, .size_mb = 100.0},
      {.id = 2, .client = 0, .size_mb = 100.0, .retries = 1}};
  EXPECT_EQ(a.run(bucket), 0u);
  ASSERT_TRUE(a.batch.problem.has_value());
  EXPECT_TRUE(optim::check_transport_feasible(*a.batch.problem).feasible);
  ASSERT_EQ(a.batch.requests.size(), 3u);
  ASSERT_EQ(a.batch.retry_backlog.size(), 3u);
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    SCOPED_TRACE(i);
    const auto& served = a.batch.requests[i];
    const auto& remainder = a.batch.retry_backlog[i];
    EXPECT_EQ(served.id, bucket[i].id);
    EXPECT_EQ(served.retries, bucket[i].retries);
    EXPECT_EQ(remainder.id, bucket[i].id);
    EXPECT_EQ(remainder.retries, bucket[i].retries + 1);
    EXPECT_GT(served.size_mb, 0.0);
    EXPECT_GT(remainder.size_mb, 0.0);
    EXPECT_NEAR(served.size_mb + remainder.size_mb, bucket[i].size_mb, 1e-9);
  }
  EXPECT_EQ(a.abandoned_mb, 0.0);

  // The next epoch merges the remainders behind its own bucket.
  EXPECT_EQ(a.run({{.id = 3, .client = 1, .size_mb = 1.0}}), 0u);
  ASSERT_EQ(a.batch.requests.size(), 4u);
  EXPECT_EQ(a.batch.requests[0].id, 3u);
  EXPECT_EQ(a.batch.requests[1].retries, 1u);
}

TEST(EpochBatch, ExhaustedRetryBudgetIsAbandoned) {
  Assembly a;
  a.cfg.max_retries = 2;
  EXPECT_EQ(a.run({{.id = 0, .client = 0, .size_mb = 150.0, .retries = 2},
                   {.id = 1, .client = 1, .size_mb = 150.0, .retries = 1}}),
            0u);
  // Request 0 spent its budget; request 1 retries once more.
  ASSERT_EQ(a.batch.retry_backlog.size(), 1u);
  EXPECT_EQ(a.batch.retry_backlog[0].id, 1u);
  EXPECT_EQ(a.batch.retry_backlog[0].retries, 2u);
  EXPECT_NEAR(a.abandoned_mb, 150.0 - a.batch.requests[0].size_mb, 1e-9);

  // With retries off every shed megabyte is abandoned at once.
  Assembly off;
  off.cfg.retry_shed = false;
  off.run({{.id = 0, .client = 0, .size_mb = 150.0},
           {.id = 1, .client = 1, .size_mb = 150.0}});
  EXPECT_TRUE(off.batch.retry_backlog.empty());
  EXPECT_NEAR(off.abandoned_mb + total_mb(off.batch.requests), 300.0, 1e-9);
}

TEST(EpochBatch, MegabyteLedgerBalances) {
  Assembly a;
  a.cfg.max_retries = 1;
  // Four over-capacity epochs in a row; each offers its bucket plus the
  // backlog the previous one queued.
  for (std::uint64_t epoch = 0; epoch < 4; ++epoch) {
    SCOPED_TRACE(epoch);
    std::vector<PendingRequest> bucket;
    for (std::uint32_t c = 0; c < 2; ++c)
      bucket.push_back({.id = epoch * 2 + c, .client = c,
                        .size_mb = 90.0 + 10.0 * c});
    const Megabytes offered =
        total_mb(bucket) + total_mb(a.batch.retry_backlog);
    const Megabytes abandoned_before = a.abandoned_mb;
    EXPECT_EQ(a.run(bucket), 0u);
    const Megabytes kept = total_mb(a.batch.requests);
    const Megabytes queued = total_mb(a.batch.retry_backlog);
    EXPECT_LT(kept, offered);
    EXPECT_NEAR(kept + queued + (a.abandoned_mb - abandoned_before), offered,
                1e-9 * offered);
  }
  EXPECT_GT(a.abandoned_mb, 0.0);
}

TEST(BucketByEpoch, BucketsByArrivalAndRejectsUnknownClients) {
  const std::vector<workload::Request> requests = {
      {.id = 0, .client = 0, .arrival = 0.2, .size_mb = 1.0},
      {.id = 1, .client = 1, .arrival = 1.5, .size_mb = 2.0},
      {.id = 2, .client = 0, .arrival = 1.9, .size_mb = 3.0},
      {.id = 3, .client = 1, .arrival = 7.0, .size_mb = 4.0}};
  const auto buckets = bucket_by_epoch(requests, 2, 1.0, 3);
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0].size(), 1u);
  ASSERT_EQ(buckets[1].size(), 2u);
  EXPECT_EQ(buckets[1][1].id, 2u);
  EXPECT_DOUBLE_EQ(buckets[1][1].size_mb, 3.0);
  EXPECT_TRUE(buckets[2].empty());  // arrival 7.0 is beyond the schedule

  EXPECT_THROW((void)bucket_by_epoch(requests, 1, 1.0, 3),
               std::invalid_argument);
}

}  // namespace
}  // namespace edr::core
