// Live runtime: wire protocol round-trips, digest helpers, and full
// LocalCluster integration runs — the five registry backends as replicated
// state machines over both transports, plus chaos scenarios scored by the
// SLO monitor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/donar_algorithm.hpp"
#include "net/inproc.hpp"
#include "runtime/chaos.hpp"
#include "runtime/live_protocol.hpp"
#include "runtime/local_cluster.hpp"

namespace edr::runtime {
namespace {

// ---------------------------------------------------------------- protocol

TEST(LiveProtocol, HelloRoundTrip) {
  const LiveHello hello{.node = 3, .port = 45123};
  const auto msg = encode_hello(3, 9, hello);
  EXPECT_EQ(msg.from, 3u);
  EXPECT_EQ(msg.to, 9u);
  EXPECT_EQ(msg.type, kHello);
  const auto back = decode_hello(msg, 1 << 20);
  EXPECT_EQ(back.node, hello.node);
  EXPECT_EQ(back.port, hello.port);
}

TEST(LiveProtocol, PeersRoundTrip) {
  LivePeers peers;
  peers.generation = 7;
  peers.peers = {{0, 1000}, {1, 0}, {2, 65535}};
  peers.alive = {1, 0, 1};
  const auto back = decode_peers(encode_peers(9, 1, peers), 1 << 20);
  EXPECT_EQ(back.generation, 7u);
  ASSERT_EQ(back.peers.size(), 3u);
  EXPECT_EQ(back.peers[2].node, 2u);
  EXPECT_EQ(back.peers[2].port, 65535);
  EXPECT_EQ(back.alive, peers.alive);
}

TEST(LiveProtocol, StartAndRoundRoundTrip) {
  LiveStart start{.epoch = 4, .generation = 2, .now = 4.0, .alive = {1, 1, 0}};
  const auto s = decode_start(encode_start(9, 0, start), 1 << 20);
  EXPECT_EQ(s.epoch, 4u);
  EXPECT_EQ(s.generation, 2u);
  EXPECT_DOUBLE_EQ(s.now, 4.0);
  EXPECT_EQ(s.alive, start.alive);

  LiveRound round{.epoch = 4, .generation = 2, .round = 17,
                  .digest = 0xdeadbeefcafe1234ull, .load = 12.5};
  const auto r = decode_round(encode_round(0, 1, round), 1 << 20);
  EXPECT_EQ(r.round, 17u);
  EXPECT_EQ(r.digest, round.digest);
  EXPECT_DOUBLE_EQ(r.load, 12.5);
}

TEST(LiveProtocol, SampleRoundTrip) {
  telemetry::RoundSample sample;
  sample.epoch = 2;
  sample.round = 31;
  sample.replica = 1;
  sample.time = 2.5;
  sample.objective = 10.25;
  sample.round_objective = 40.5;
  sample.gradient_norm = 0.125;
  sample.disagreement = 0.0625;
  sample.projection_correction = 0.5;
  sample.capacity_slack = 3.75;
  sample.load = 19.5;
  sample.load_delta = -0.25;
  sample.messages_sent = 6;
  const auto back = decode_sample(encode_sample(1, 9, sample), 1 << 20);
  EXPECT_EQ(back.epoch, sample.epoch);
  EXPECT_EQ(back.round, sample.round);
  EXPECT_EQ(back.replica, sample.replica);
  EXPECT_DOUBLE_EQ(back.time, sample.time);
  EXPECT_DOUBLE_EQ(back.objective, sample.objective);
  EXPECT_DOUBLE_EQ(back.round_objective, sample.round_objective);
  EXPECT_DOUBLE_EQ(back.gradient_norm, sample.gradient_norm);
  EXPECT_DOUBLE_EQ(back.disagreement, sample.disagreement);
  EXPECT_DOUBLE_EQ(back.projection_correction, sample.projection_correction);
  EXPECT_DOUBLE_EQ(back.capacity_slack, sample.capacity_slack);
  EXPECT_DOUBLE_EQ(back.load, sample.load);
  EXPECT_DOUBLE_EQ(back.load_delta, sample.load_delta);
  EXPECT_EQ(back.messages_sent, sample.messages_sent);
}

TEST(LiveProtocol, EpochDoneAndStallRoundTrip) {
  LiveEpochDone done;
  done.epoch = 1;
  done.generation = 3;
  done.rounds = 88;
  done.digest = 42;
  done.objective = 123.5;
  done.digest_mismatches = 2;
  done.column = {0.5, 1.25, 0.0, 7.5};
  const auto d =
      decode_epoch_done(encode_epoch_done(2, 9, done), 1 << 20, 4);
  EXPECT_EQ(d.rounds, 88u);
  EXPECT_EQ(d.digest_mismatches, 2u);
  EXPECT_EQ(d.column, done.column);

  // A dense column longer than the run's client count is refused.
  EXPECT_THROW(
      (void)decode_epoch_done(encode_epoch_done(2, 9, done), 1 << 20, 3),
      std::out_of_range);

  LiveStall stall{.epoch = 1, .generation = 3, .round = 5,
                  .missing = {0, 1, 0, 1}};
  const auto st = decode_stall(encode_stall(2, 9, stall), 1 << 20);
  EXPECT_EQ(st.round, 5u);
  EXPECT_EQ(st.missing, stall.missing);
}

TEST(LiveProtocol, SparseEpochDoneRowCountIsBounded) {
  // A compact column frame carries only its nonzero rows plus a u32 row
  // count; the coordinator sizes its allocation from that count, so the
  // decoder must refuse counts above the run's client count.
  LiveEpochDone done;
  done.kind = LiveEpochDone::kSparseColumn;
  done.num_rows = 0xFFFFFFFFu;
  EXPECT_THROW(
      (void)decode_epoch_done(encode_epoch_done(2, 9, done), 1 << 20, 1000),
      std::out_of_range);

  done.num_rows = 1000;
  done.indices = {3, 999};
  done.column = {0.5, 2.0};
  const auto d =
      decode_epoch_done(encode_epoch_done(2, 9, done), 1 << 20, 1000);
  EXPECT_EQ(d.kind, LiveEpochDone::kSparseColumn);
  EXPECT_EQ(d.num_rows, 1000u);
  EXPECT_EQ(d.indices, done.indices);
  EXPECT_EQ(d.column, done.column);
}

TEST(LiveProtocol, ConfigRoundTripPreservesEverything) {
  LiveConfig config = make_default_live_config(3, 6, 2, 17);
  config.algorithm = "cdpsm";
  config.warm_start = false;
  config.max_retries = 5;
  config.lddm.rho = 3.5;
  config.cdpsm.tolerance = 1e-6;
  config.power_per_replica.assign(3, config.power);
  config.power_per_replica[1].idle += 10.0;

  const auto back = decode_config(encode_config(9, 0, config), 16 << 20);
  EXPECT_EQ(back.algorithm, "cdpsm");
  EXPECT_EQ(back.epochs, config.epochs);
  EXPECT_DOUBLE_EQ(back.epoch_length, config.epoch_length);
  EXPECT_EQ(back.num_clients, config.num_clients);
  EXPECT_DOUBLE_EQ(back.max_latency, config.max_latency);
  EXPECT_FALSE(back.warm_start);
  EXPECT_EQ(back.max_retries, 5u);
  EXPECT_EQ(back.seed, config.seed);
  ASSERT_EQ(back.replicas.size(), 3u);
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_DOUBLE_EQ(back.replicas[n].bandwidth,
                     config.replicas[n].bandwidth);
    EXPECT_DOUBLE_EQ(back.replicas[n].price, config.replicas[n].price);
  }
  EXPECT_EQ(back.latency.rows(), config.latency.rows());
  EXPECT_EQ(digest_matrix(back.latency), digest_matrix(config.latency));
  EXPECT_DOUBLE_EQ(back.power_per_replica[1].idle,
                   config.power_per_replica[1].idle);
  EXPECT_DOUBLE_EQ(back.lddm.rho, 3.5);
  EXPECT_DOUBLE_EQ(back.cdpsm.tolerance, 1e-6);
  EXPECT_EQ(back.lddm.max_rounds, config.lddm.max_rounds);
  ASSERT_EQ(back.requests.size(), config.requests.size());
  ASSERT_FALSE(back.requests.empty());
  const auto& first = config.requests.front();
  EXPECT_EQ(back.requests.front().id, first.id);
  EXPECT_EQ(back.requests.front().client, first.client);
  EXPECT_DOUBLE_EQ(back.requests.front().arrival, first.arrival);
  EXPECT_DOUBLE_EQ(back.requests.front().size_mb, first.size_mb);
}

TEST(LiveProtocol, DecodeRejectsFramesOverTheCap) {
  const LiveConfig config = make_default_live_config(3, 6, 2, 17);
  const auto msg = encode_config(9, 0, config);
  EXPECT_THROW((void)decode_config(msg, 64), std::length_error);
}

TEST(LiveProtocol, ConfigRejectsNonFiniteOrNegativeRequests) {
  const double bad[] = {-3.5, std::nan(""), HUGE_VAL};
  for (const double value : bad) {
    SCOPED_TRACE(value);
    LiveConfig arrival = make_default_live_config(3, 6, 2, 17);
    arrival.requests.front().arrival = value;
    EXPECT_THROW((void)decode_config(encode_config(9, 0, arrival), 16 << 20),
                 std::out_of_range);
    LiveConfig size = make_default_live_config(3, 6, 2, 17);
    size.requests.back().size_mb = value;
    EXPECT_THROW((void)decode_config(encode_config(9, 0, size), 16 << 20),
                 std::out_of_range);
  }
}

TEST(LiveProtocol, DecodeRejectsTruncatedPayload) {
  auto msg = encode_round(0, 1, LiveRound{.epoch = 1, .generation = 1,
                                          .round = 2, .digest = 3});
  auto bytes = std::any_cast<std::vector<std::uint8_t>>(msg.payload);
  bytes.resize(bytes.size() / 2);
  msg.payload = bytes;
  msg.bytes = bytes.size();
  EXPECT_THROW((void)decode_round(msg, 1 << 20), std::out_of_range);
}

// ----------------------------------------------------------------- digests

TEST(LiveDigest, SensitiveToValueAndOrder) {
  const double a[] = {1.0, 2.0, 3.0};
  const double b[] = {1.0, 2.0, 3.0000001};
  const double c[] = {3.0, 2.0, 1.0};
  EXPECT_EQ(digest_doubles(a, 3), digest_doubles(a, 3));
  EXPECT_NE(digest_doubles(a, 3), digest_doubles(b, 3));
  EXPECT_NE(digest_doubles(a, 3), digest_doubles(c, 3));
  EXPECT_NE(digest_doubles(a, 2), digest_doubles(a, 3));
}

TEST(LiveDigest, MatrixDigestMatchesFlatDoubles) {
  Matrix m(2, 2, 0.0);
  m(0, 0) = 1.5;
  m(1, 1) = -2.25;
  const auto flat = m.flat();
  EXPECT_EQ(digest_matrix(m), digest_doubles(flat.data(), flat.size()));
}

// ------------------------------------------------------- inproc transport

TEST(InprocReopen, RestoresDeliveryAfterClose) {
  net::InprocTransport transport(2);
  net::Message msg;
  msg.from = 0;
  msg.to = 1;
  msg.type = 1;
  ASSERT_TRUE(transport.send(msg));
  ASSERT_TRUE(transport.receive_for(1, 1.0).has_value());

  transport.close(1);
  EXPECT_FALSE(transport.send(msg));

  transport.reopen(1);
  EXPECT_TRUE(transport.send(msg));
  const auto delivered = transport.receive_for(1, 1.0);
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(delivered->from, 0u);
}

// ------------------------------------------------------------ integration

/// Small, fast cluster config shared by the integration runs.
LiveConfig small_config(const std::string& algorithm, std::size_t replicas,
                        std::size_t clients, std::uint32_t epochs) {
  LiveConfig config = make_default_live_config(replicas, clients, epochs, 7);
  config.algorithm = algorithm;
  // Loose tolerances keep every epoch well under the SLO thresholds the
  // chaos tests use while still exercising dozens of lockstep rounds.
  config.lddm.max_rounds = 120;
  config.lddm.tolerance = 1e-3;
  config.cdpsm.max_rounds = 120;
  config.cdpsm.tolerance = 1e-3;
  return config;
}

LocalClusterOptions fast_options(LiveTransport transport) {
  LocalClusterOptions options;
  options.transport = transport;
  options.replica.barrier_timeout_s = 0.5;
  options.replica.idle_timeout_s = 2.0;
  options.coordinator.hello_timeout_s = 10.0;
  options.coordinator.epoch_timeout_s = 8.0;
  return options;
}

const char* const kBackends[] = {"lddm", "cdpsm", "central", "rr", "donar"};

TEST(LiveCluster, AllBackendsCompleteOverInproc) {
  baselines::register_donar_algorithm();
  for (const char* const backend : kBackends) {
    SCOPED_TRACE(backend);
    LocalCluster cluster{small_config(backend, 3, 6, 2),
                         fast_options(LiveTransport::kInproc)};
    const LiveRunResult result = cluster.run();
    EXPECT_TRUE(result.completed);
    ASSERT_EQ(result.epochs.size(), 2u);
    for (const auto& epoch : result.epochs) {
      EXPECT_TRUE(epoch.digests_agree);
      EXPECT_EQ(epoch.participants.size(), 3u);
    }
    EXPECT_EQ(result.generations, 1u);
    EXPECT_TRUE(result.failed_replicas.empty());
    EXPECT_FALSE(result.convergence.empty());
  }
}

TEST(LiveCluster, TcpAgreesWithInprocOnEveryBackend) {
  baselines::register_donar_algorithm();
  for (const char* const backend : kBackends) {
    SCOPED_TRACE(backend);
    LocalCluster inproc{small_config(backend, 3, 6, 2),
                        fast_options(LiveTransport::kInproc)};
    const LiveRunResult a = inproc.run();
    LocalCluster tcp{small_config(backend, 3, 6, 2),
                     fast_options(LiveTransport::kTcp)};
    const LiveRunResult b = tcp.run();

    ASSERT_TRUE(a.completed);
    ASSERT_TRUE(b.completed);
    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    for (std::size_t e = 0; e < a.epochs.size(); ++e) {
      SCOPED_TRACE(e);
      // Deterministic replication: the transport must not change a bit
      // of the result.
      EXPECT_EQ(a.epochs[e].digest, b.epochs[e].digest);
      EXPECT_EQ(a.epochs[e].rounds, b.epochs[e].rounds);
      EXPECT_DOUBLE_EQ(a.epochs[e].objective, b.epochs[e].objective);
      EXPECT_TRUE(a.epochs[e].digests_agree);
      EXPECT_TRUE(b.epochs[e].digests_agree);
      const auto& ma = a.epochs[e].allocation;
      const auto& mb = b.epochs[e].allocation;
      ASSERT_EQ(ma.rows(), mb.rows());
      ASSERT_EQ(ma.cols(), mb.cols());
      EXPECT_EQ(digest_matrix(ma), digest_matrix(mb));
    }
  }
}

TEST(LiveCluster, LddmMatchesCentralUnderRealThreads) {
  // One thread per replica over the in-process transport: LDDM must land
  // within 5% of the central optimum on every epoch despite real
  // scheduling nondeterminism (and, under TSan, without a data race).
  // small_config's demand exceeds the pooled capacity, so admission
  // control sheds every epoch down to a capacity-bound instance.
  LocalCluster lddm{small_config("lddm", 3, 6, 3),
                    fast_options(LiveTransport::kInproc)};
  LocalCluster central{small_config("central", 3, 6, 3),
                       fast_options(LiveTransport::kInproc)};
  const LiveRunResult a = lddm.run();
  const LiveRunResult b = central.run();
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    SCOPED_TRACE(e);
    EXPECT_TRUE(a.epochs[e].digests_agree);
    const double optimum = b.epochs[e].objective;
    ASSERT_GT(optimum, 0.0);
    EXPECT_LT(std::abs(a.epochs[e].objective - optimum) / optimum, 0.05)
        << "lddm=" << a.epochs[e].objective << " central=" << optimum;
  }
}

// ------------------------------------------------------------------ chaos

TEST(LocalCluster, RejectsTcpOnlyChaosOverInproc) {
  // Frame faults and connection resets act on a TcpTransport; over inproc
  // they used to be silently skipped.
  for (const ChaosKind kind :
       {ChaosKind::kResetConnection, ChaosKind::kDropFrames,
        ChaosKind::kDelayFrames, ChaosKind::kDuplicateFrames,
        ChaosKind::kClearFaults}) {
    SCOPED_TRACE(to_string(kind));
    auto options = fast_options(LiveTransport::kInproc);
    options.chaos.actions = {{.epoch = 1, .kind = kind, .replica = 0}};
    EXPECT_THROW((LocalCluster{small_config("lddm", 3, 6, 2), options}),
                 std::invalid_argument);
  }
  // Kill and restart work on both transports.
  auto options = fast_options(LiveTransport::kInproc);
  options.chaos.actions = {{.epoch = 1, .kind = ChaosKind::kKill, .replica = 0},
                           {.epoch = 2, .kind = ChaosKind::kRestart,
                            .replica = 0}};
  EXPECT_NO_THROW((LocalCluster{small_config("lddm", 3, 6, 2), options}));
}

TEST(LiveChaos, KillMidScheduleSurvivorsReconverge) {
  LiveConfig config = small_config("lddm", 4, 8, 5);
  auto options = fast_options(LiveTransport::kInproc);
  // A stalled epoch costs at least the 0.5s barrier timeout; healthy
  // epochs finish in a few tens of milliseconds.
  options.coordinator.monitor.response_slo_ms = 400.0;
  options.chaos.actions = {{.epoch = 2, .kind = ChaosKind::kKill,
                            .replica = 3}};

  LocalCluster cluster{config, options};
  const LiveRunResult result = cluster.run();

  EXPECT_TRUE(result.completed);
  ASSERT_EQ(result.epochs.size(), 5u);
  EXPECT_GE(result.generations, 2u);
  EXPECT_NE(std::find(result.failed_replicas.begin(),
                      result.failed_replicas.end(), net::NodeId{3}),
            result.failed_replicas.end());
  // Epochs before the kill ran with all four replicas; afterwards three.
  EXPECT_EQ(result.epochs[1].participants.size(), 4u);
  EXPECT_EQ(result.epochs.back().participants.size(), 3u);
  EXPECT_TRUE(result.epochs.back().digests_agree);

  const ChaosScore score =
      score_chaos_run(result, options.chaos, config.epochs);
  EXPECT_TRUE(score.reconverged);
  EXPECT_TRUE(score.alerts_fired) << "no SLO alert in the fault window";
  EXPECT_TRUE(score.alerts_cleared)
      << score.alerts_in_tail << " alert(s) in the quiet tail";
  EXPECT_TRUE(score.passed());
}

TEST(LiveChaos, KilledReplicaRejoinsAfterRestart) {
  LiveConfig config = small_config("lddm", 4, 8, 6);
  auto options = fast_options(LiveTransport::kInproc);
  options.chaos.actions = {
      {.epoch = 1, .kind = ChaosKind::kKill, .replica = 1},
      {.epoch = 2, .kind = ChaosKind::kRestart, .replica = 1},
  };

  LocalCluster cluster{config, options};
  const LiveRunResult result = cluster.run();

  EXPECT_TRUE(result.completed);
  ASSERT_EQ(result.epochs.size(), 6u);
  // Kill bumps the generation once, the rejoin bumps it again.
  EXPECT_GE(result.generations, 3u);
  // The schedule's tail runs with the full replica set again, and the
  // cold-started rejoiner agrees with the survivors bit-for-bit.
  EXPECT_EQ(result.epochs.back().participants.size(), 4u);
  EXPECT_TRUE(result.epochs.back().digests_agree);
}

TEST(LiveChaos, TcpKillIsDetectedViaDisconnect) {
  LiveConfig config = small_config("lddm", 3, 6, 4);
  auto options = fast_options(LiveTransport::kTcp);
  options.chaos.actions = {{.epoch = 1, .kind = ChaosKind::kKill,
                            .replica = 2}};

  LocalCluster cluster{config, options};
  const LiveRunResult result = cluster.run();

  EXPECT_TRUE(result.completed);
  ASSERT_EQ(result.epochs.size(), 4u);
  EXPECT_GE(result.generations, 2u);
  EXPECT_EQ(result.epochs.back().participants.size(), 2u);
  EXPECT_TRUE(result.epochs.back().digests_agree);
}

TEST(LiveChaos, FrameFaultsAreAbsorbedWithoutDivergence) {
  LiveConfig config = small_config("lddm", 3, 6, 3);
  auto options = fast_options(LiveTransport::kTcp);
  options.chaos.actions = {
      // Every round frame replica 0 sends goes out twice...
      {.epoch = 0, .kind = ChaosKind::kDuplicateFrames, .replica = 0,
       .probability = 1.0, .message_type = kRound},
      // ...and a fifth of replica 1's frames arrive a little late.
      {.epoch = 0, .kind = ChaosKind::kDelayFrames, .replica = 1,
       .probability = 0.2, .delay_ms = 2.0},
  };

  LocalCluster cluster{config, options};
  const LiveRunResult result = cluster.run();

  EXPECT_TRUE(result.completed);
  ASSERT_EQ(result.epochs.size(), 3u);
  EXPECT_EQ(result.generations, 1u);
  EXPECT_TRUE(result.failed_replicas.empty());
  for (const auto& epoch : result.epochs) {
    EXPECT_TRUE(epoch.digests_agree);
    EXPECT_EQ(epoch.participants.size(), 3u);
  }
}

// ----------------------------------------------------------------- scoring

TEST(ChaosScore, GradesDetectionAndRecovery) {
  ChaosPlan plan;
  plan.actions = {{.epoch = 2, .kind = ChaosKind::kKill, .replica = 0}};

  LiveRunResult result;
  result.completed = true;
  result.generations = 2;
  result.epochs.resize(5);
  result.epochs.back().digests_agree = true;

  telemetry::Alert alert;
  alert.kind = telemetry::AlertKind::kSlo;
  alert.epoch = 2;
  result.alerts = {alert};

  ChaosScore score = score_chaos_run(result, plan, 5);
  EXPECT_TRUE(score.reconverged);
  EXPECT_TRUE(score.alerts_fired);
  EXPECT_TRUE(score.alerts_cleared);
  EXPECT_TRUE(score.passed());

  // An alert in the quiet tail fails recovery.
  alert.epoch = 4;
  result.alerts.push_back(alert);
  score = score_chaos_run(result, plan, 5);
  EXPECT_FALSE(score.alerts_cleared);
  EXPECT_FALSE(score.passed());

  // No alert at all fails detection.
  result.alerts.clear();
  score = score_chaos_run(result, plan, 5);
  EXPECT_FALSE(score.alerts_fired);
  EXPECT_FALSE(score.passed());

  // A run that died early never reconverged.
  result.alerts = {alert};
  result.completed = false;
  score = score_chaos_run(result, plan, 5);
  EXPECT_FALSE(score.reconverged);
}

TEST(ChaosScore, CleanRunPassesWhenAlertFree) {
  const ChaosPlan plan;  // no faults
  LiveRunResult result;
  result.completed = true;
  result.epochs.resize(2);
  result.epochs.back().digests_agree = true;
  const ChaosScore score = score_chaos_run(result, plan, 2);
  EXPECT_TRUE(score.passed());
}

}  // namespace
}  // namespace edr::runtime
