// Sim <-> live parity: the discrete-event simulator (EdrSystem) and the
// multi-process live runtime (LocalCluster) build every epoch through the
// same assembly, so on a workload that never sheds they must report the
// same rounds and the same objective epoch for epoch.  A pinned golden
// covers the paths parity cannot reach: over-capacity shedding with retry
// remainders and a client no replica can serve within max_latency.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "runtime/live_protocol.hpp"
#include "runtime/local_cluster.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/trace.hpp"

namespace edr::runtime {
namespace {

LocalClusterOptions inproc_options() {
  LocalClusterOptions options;
  options.transport = LiveTransport::kInproc;
  options.replica.barrier_timeout_s = 0.5;
  options.replica.idle_timeout_s = 2.0;
  options.coordinator.hello_timeout_s = 10.0;
  options.coordinator.epoch_timeout_s = 8.0;
  return options;
}

const char* const kParityBackends[] = {"lddm", "cdpsm", "admm", "central",
                                       "rr"};

TEST(LiveCluster, EpochsMatchTheSimulator) {
  for (const char* const backend : kParityBackends) {
    SCOPED_TRACE(backend);
    LiveConfig live = make_default_live_config(4, 8, 6, 7);
    live.algorithm = backend;
    // Small enough that no epoch sheds: the simulator then runs exactly the
    // live schedule (no synthetic backlog epoch).
    for (auto& request : live.requests) request.size_mb *= 0.01;

    core::SystemConfig sim_config = live.to_system_config();
    sim_config.telemetry = telemetry::make_telemetry();
    sim_config.telemetry->enable_flight_recorder();
    core::EdrSystem system{sim_config, workload::Trace{live.requests}};
    const core::RunReport sim = system.run();

    LocalCluster cluster{live, inproc_options()};
    const LiveRunResult result = cluster.run();
    ASSERT_TRUE(result.completed);

    // Precondition: nothing shed, so the two drivers ran the same epochs.
    ASSERT_EQ(sim.megabytes_retried, 0.0);
    ASSERT_EQ(sim.megabytes_abandoned, 0.0);
    ASSERT_EQ(sim.epochs, result.epochs.size());
    ASSERT_EQ(sim.convergence.size(), result.epochs.size());

    for (std::size_t e = 0; e < result.epochs.size(); ++e) {
      SCOPED_TRACE(e);
      const auto& live_epoch = result.epochs[e];
      const auto& sim_epoch = sim.convergence[e];
      EXPECT_TRUE(live_epoch.digests_agree);
      EXPECT_EQ(sim_epoch.epoch, live_epoch.epoch);
      EXPECT_EQ(sim_epoch.rounds, live_epoch.rounds);
      // CDPSM's recorder objective sums the replicas' local estimates, not
      // the consensus allocation the live epoch reports.
      if (std::string{backend} == "cdpsm") continue;
      ASSERT_GT(live_epoch.objective, 0.0);
      EXPECT_LE(std::abs(sim_epoch.final_objective - live_epoch.objective),
                1e-12 * live_epoch.objective)
          << "sim=" << sim_epoch.final_objective
          << " live=" << live_epoch.objective;
    }
  }
}

std::uint64_t mix(std::uint64_t hash, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    hash ^= (value >> shift) & 0xffu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// The default over-capacity live workload plus one client whose every
/// link exceeds max_latency, so its requests are dropped every epoch.
LiveConfig over_capacity_config(const std::string& backend) {
  LiveConfig live = make_default_live_config(4, 8, 4, 7);
  live.algorithm = backend;
  const std::uint32_t unreachable = live.num_clients;
  Matrix latency(live.num_clients + 1, live.num_replicas());
  for (std::size_t c = 0; c < live.num_clients; ++c)
    for (std::size_t n = 0; n < live.num_replicas(); ++n)
      latency(c, n) = live.latency(c, n);
  for (std::size_t n = 0; n < live.num_replicas(); ++n)
    latency(unreachable, n) = live.max_latency * 2.0;
  live.latency = std::move(latency);
  live.num_clients += 1;
  std::vector<workload::Request> requests;
  std::uint64_t next_id = live.requests.size();
  for (const auto& request : live.requests) {
    requests.push_back(request);
    if (request.id % 5 == 0) {
      workload::Request stranded = request;
      stranded.id = next_id++;
      stranded.client = unreachable;
      requests.push_back(stranded);
    }
  }
  live.requests = std::move(requests);
  return live;
}

/// Digest of every epoch's rounds, allocation digest and objective bits.
std::uint64_t run_digest(const LiveRunResult& result) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const auto& epoch : result.epochs) {
    std::uint64_t objective_bits = 0;
    std::memcpy(&objective_bits, &epoch.objective, sizeof(objective_bits));
    hash = mix(hash, epoch.rounds);
    hash = mix(hash, digest_matrix(epoch.allocation));
    hash = mix(hash, objective_bits);
  }
  return hash;
}

TEST(LiveCluster, OverCapacityEpochsMatchPinnedDigests) {
  struct Pinned {
    const char* backend;
    std::uint64_t digest;
  };
  const Pinned pinned[] = {
      {"lddm", 0x5f478fb5c3a5b406ULL},    {"cdpsm", 0x047eead714409271ULL},
      {"admm", 0xb27c9c38abe8f317ULL},    {"central", 0x2dda641783b237d3ULL},
      {"rr", 0x50cac7f11380a079ULL},
  };
  {
    // The workload reaches the shed/retry and unreachable-client paths.
    const LiveConfig live = over_capacity_config("central");
    core::EdrSystem system{live.to_system_config(),
                           workload::Trace{live.requests}};
    const core::RunReport sim = system.run();
    ASSERT_GT(sim.megabytes_retried, 0.0);
    ASSERT_GT(sim.requests_dropped, 0u);
  }
  for (const auto& [backend, digest] : pinned) {
    SCOPED_TRACE(backend);
    LocalCluster cluster{over_capacity_config(backend), inproc_options()};
    const LiveRunResult result = cluster.run();
    ASSERT_TRUE(result.completed);
    ASSERT_EQ(result.epochs.size(), 4u);
    for (const auto& epoch : result.epochs) EXPECT_TRUE(epoch.digests_agree);
    EXPECT_EQ(run_digest(result), digest)
        << std::hex << "0x" << run_digest(result);
  }
}

}  // namespace
}  // namespace edr::runtime
