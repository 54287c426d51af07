#include "net/network.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace edr::net {
namespace {

struct Fixture {
  Simulator sim;
  SimNetwork network{sim};
  std::vector<std::pair<NodeId, SimTime>> deliveries;

  void attach(NodeId node) {
    network.attach(node, [this, node](const Message&) {
      deliveries.emplace_back(node, sim.now());
    });
  }

  Message make(NodeId from, NodeId to, std::size_t bytes = 0) {
    Message msg;
    msg.from = from;
    msg.to = to;
    msg.type = 1;
    msg.bytes = bytes;
    return msg;
  }
};

TEST(SimNetwork, DeliveryAfterPropagationLatency) {
  Fixture f;
  f.attach(2);
  f.network.set_link(1, 2, {.latency = 2.0, .bandwidth_mbps = 100.0});
  f.network.send(f.make(1, 2, 0));
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  EXPECT_NEAR(f.deliveries[0].second, 0.002, 1e-12);
}

TEST(SimNetwork, TransmissionTimeScalesWithBytes) {
  Fixture f;
  f.attach(2);
  f.network.set_link(1, 2, {.latency = 0.0, .bandwidth_mbps = 1.0});  // 1 MB/s
  f.network.send(f.make(1, 2, 500'000));
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  EXPECT_NEAR(f.deliveries[0].second, 0.5, 1e-9);
}

TEST(SimNetwork, FifoSerializationOnSharedLink) {
  Fixture f;
  f.attach(2);
  f.network.set_link(1, 2, {.latency = 0.0, .bandwidth_mbps = 1.0});
  f.network.send(f.make(1, 2, 1'000'000));  // 1 s of transmission
  f.network.send(f.make(1, 2, 1'000'000));  // queues behind the first
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 2u);
  EXPECT_NEAR(f.deliveries[0].second, 1.0, 1e-9);
  EXPECT_NEAR(f.deliveries[1].second, 2.0, 1e-9);
}

TEST(SimNetwork, DistinctLinksDoNotInterfere) {
  Fixture f;
  f.attach(2);
  f.attach(3);
  f.network.set_link(1, 2, {.latency = 0.0, .bandwidth_mbps = 1.0});
  f.network.set_link(1, 3, {.latency = 0.0, .bandwidth_mbps = 1.0});
  f.network.send(f.make(1, 2, 1'000'000));
  f.network.send(f.make(1, 3, 1'000'000));
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 2u);
  EXPECT_NEAR(f.deliveries[0].second, 1.0, 1e-9);
  EXPECT_NEAR(f.deliveries[1].second, 1.0, 1e-9);  // parallel, not serial
}

TEST(SimNetwork, MessagesToDetachedNodeAreDropped) {
  Fixture f;
  f.attach(2);
  f.network.send(f.make(1, 2));
  f.network.detach(2);
  f.sim.run();
  EXPECT_TRUE(f.deliveries.empty());
  EXPECT_FALSE(f.network.attached(2));
}

TEST(SimNetwork, DetachMidFlightDropsInFlightMessages) {
  Fixture f;
  f.attach(2);
  f.network.set_link(1, 2, {.latency = 10.0, .bandwidth_mbps = 100.0});
  f.network.send(f.make(1, 2));
  f.sim.schedule_at(0.005, [&] { f.network.detach(2); });
  f.sim.run();
  EXPECT_TRUE(f.deliveries.empty());
}

TEST(SimNetwork, TrafficStatsCountBothEnds) {
  Fixture f;
  f.attach(2);
  f.network.send(f.make(1, 2, 100));
  f.network.send(f.make(1, 2, 50));
  f.sim.run();
  EXPECT_EQ(f.network.stats(1).messages_sent, 2u);
  EXPECT_EQ(f.network.stats(1).bytes_sent, 150u);
  EXPECT_EQ(f.network.stats(2).messages_received, 2u);
  EXPECT_EQ(f.network.stats(2).bytes_received, 150u);
  const auto total = f.network.total_stats();
  EXPECT_EQ(total.messages_sent, 2u);
  EXPECT_EQ(total.messages_received, 2u);
}

TEST(SimNetwork, DroppedDeliveriesNotCountedAsReceived) {
  Fixture f;
  f.network.send(f.make(1, 2, 100));  // 2 never attached
  f.sim.run();
  EXPECT_EQ(f.network.stats(1).messages_sent, 1u);
  EXPECT_EQ(f.network.stats(2).messages_received, 0u);
}

TEST(SimNetwork, NominalDelayMatchesLinkMath) {
  Fixture f;
  f.network.set_link(1, 2, {.latency = 1.0, .bandwidth_mbps = 2.0});
  EXPECT_NEAR(f.network.nominal_delay(1, 2, 1'000'000),
              0.001 + 0.5, 1e-12);
  // Unknown pairs use the default link.
  f.network.set_default_link({.latency = 5.0, .bandwidth_mbps = 100.0});
  EXPECT_NEAR(f.network.nominal_delay(7, 8, 0), 0.005, 1e-12);
}

TEST(SimNetwork, LossyLinkDropsRoughlyTheConfiguredFraction) {
  Fixture f;
  f.attach(2);
  f.network.seed_loss(7);
  f.network.set_link(1, 2, {.latency = 0.1, .bandwidth_mbps = 100.0,
                            .loss_probability = 0.3});
  constexpr int kMessages = 5000;
  for (int i = 0; i < kMessages; ++i) f.network.send(f.make(1, 2, 8));
  f.sim.run();
  const double delivered = static_cast<double>(f.deliveries.size());
  EXPECT_NEAR(delivered / kMessages, 0.7, 0.03);
  EXPECT_EQ(f.network.messages_lost() + f.deliveries.size(),
            static_cast<std::size_t>(kMessages));
  // The sender is charged for every transmission, lost or not.
  EXPECT_EQ(f.network.stats(1).messages_sent,
            static_cast<std::uint64_t>(kMessages));
}

TEST(SimNetwork, ReliableLinksNeverDrop) {
  Fixture f;
  f.attach(2);
  for (int i = 0; i < 1000; ++i) f.network.send(f.make(1, 2, 8));
  f.sim.run();
  EXPECT_EQ(f.deliveries.size(), 1000u);
  EXPECT_EQ(f.network.messages_lost(), 0u);
}

TEST(SimNetwork, LostMessagesStillOccupyTheLink) {
  // Even a 100%-lossy link serializes transmissions, so a later reliable
  // message queues behind the lost ones.
  Fixture f;
  f.attach(2);
  f.network.set_link(1, 2, {.latency = 0.0, .bandwidth_mbps = 1.0,
                            .loss_probability = 1.0});
  f.network.send(f.make(1, 2, 1'000'000));  // 1 s of wire time, lost
  f.network.set_link(1, 2, {.latency = 0.0, .bandwidth_mbps = 1.0,
                            .loss_probability = 0.0});
  f.network.send(f.make(1, 2, 1'000'000));
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  EXPECT_NEAR(f.deliveries[0].second, 2.0, 1e-9);
}

TEST(SimNetwork, DetachThenReattachBeforeDeliveryReceives) {
  // Crash/recovery inside one flight: the handler is looked up at delivery
  // time, so a node that detaches and reattaches while a message is on the
  // wire still receives it (the paper's recovered-replica semantics).
  Fixture f;
  f.attach(2);
  f.network.set_link(1, 2, {.latency = 10.0, .bandwidth_mbps = 100.0});
  f.network.send(f.make(1, 2));
  f.sim.schedule_at(0.002, [&] { f.network.detach(2); });
  f.sim.schedule_at(0.005, [&] { f.attach(2); });
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  EXPECT_EQ(f.network.stats(2).messages_received, 1u);
}

TEST(SimNetwork, DetachWithManyInFlightDropsAllAndCountsNone) {
  Fixture f;
  f.attach(2);
  f.network.set_link(1, 2, {.latency = 5.0, .bandwidth_mbps = 100.0});
  for (int i = 0; i < 10; ++i) f.network.send(f.make(1, 2, 64));
  f.network.detach(2);
  f.sim.run();
  EXPECT_TRUE(f.deliveries.empty());
  EXPECT_EQ(f.network.stats(1).messages_sent, 10u);
  EXPECT_EQ(f.network.stats(2).messages_received, 0u);
}

TEST(SimNetwork, StatsQueryForUnknownNodeDoesNotGrowState) {
  // stats() is a read-only query: asking about a node that never sent or
  // received returns zeros and must not insert a record (the old
  // mutable-map lazy insert grew state under const).
  Fixture f;
  f.attach(2);
  f.network.send(f.make(1, 2, 8));
  f.sim.run();
  const std::size_t tracked = f.network.tracked_nodes();
  const TrafficStats unknown = f.network.stats(999);
  EXPECT_EQ(unknown.messages_sent, 0u);
  EXPECT_EQ(unknown.messages_received, 0u);
  EXPECT_EQ(unknown.bytes_sent, 0u);
  EXPECT_EQ(unknown.bytes_received, 0u);
  EXPECT_EQ(f.network.tracked_nodes(), tracked);
  // Repeated probes stay free too.
  for (NodeId n = 100; n < 200; ++n) (void)f.network.stats(n);
  EXPECT_EQ(f.network.tracked_nodes(), tracked);
}

TEST(SimNetwork, TrafficInRangeEdgeCases) {
  Fixture f;
  f.attach(2);
  Message typed = f.make(1, 2, 100);
  typed.type = 5;
  f.network.send(std::move(typed));
  Message unnamed = f.make(1, 2, 40);
  unnamed.type = 7;  // no set_type_name call: still counted
  f.network.send(std::move(unnamed));
  f.sim.run();

  // Empty range: no registered traffic between the bounds.
  const auto empty = f.network.traffic_in_range(10, 20);
  EXPECT_EQ(empty.messages, 0u);
  EXPECT_EQ(empty.bytes, 0u);

  // Reversed bounds yield the empty aggregate, not a crash or a wrap.
  const auto reversed = f.network.traffic_in_range(7, 5);
  EXPECT_EQ(reversed.messages, 0u);
  EXPECT_EQ(reversed.bytes, 0u);

  // Unnamed types aggregate exactly like named ones.
  const auto both = f.network.traffic_in_range(5, 7);
  EXPECT_EQ(both.messages, 2u);
  EXPECT_EQ(both.bytes, 140u);
  const auto only_unnamed = f.network.traffic_in_range(7, 7);
  EXPECT_EQ(only_unnamed.messages, 1u);
  EXPECT_EQ(only_unnamed.bytes, 40u);

  // Degenerate single-point range at a type with no traffic.
  const auto none = f.network.traffic_in_range(6, 6);
  EXPECT_EQ(none.messages, 0u);
}

TEST(SimNetwork, PayloadSurvivesDelivery) {
  Simulator sim;
  SimNetwork network{sim};
  int received = 0;
  network.attach(2, [&](const Message& msg) {
    received = std::any_cast<int>(msg.payload);
  });
  Message msg;
  msg.from = 1;
  msg.to = 2;
  msg.payload = 42;
  network.send(std::move(msg));
  sim.run();
  EXPECT_EQ(received, 42);
}

TEST(SimNetwork, SendsFromInsideADeliveryKeepEveryPayload) {
  // The handler's own message must stay valid while it sends enough
  // messages to grow the in-flight slot array under it.
  Simulator sim;
  SimNetwork network{sim};
  std::vector<std::string> received;
  network.attach(2, [&](const Message& msg) {
    if (std::any_cast<const std::string&>(msg.payload) == "seed") {
      for (int i = 0; i < 100; ++i) {
        Message echo;
        echo.from = 2;
        echo.to = 2;
        echo.payload = "payload number " + std::to_string(i) +
                       " (long enough to live on the heap)";
        network.send(std::move(echo));
      }
    }
    received.push_back(std::any_cast<const std::string&>(msg.payload));
  });
  Message seed;
  seed.from = 1;
  seed.to = 2;
  seed.payload = std::string{"seed"};
  network.send(std::move(seed));
  sim.run();
  ASSERT_EQ(received.size(), 101u);
  EXPECT_EQ(received[0], "seed");
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_EQ(received[i + 1], "payload number " + std::to_string(i) +
                                   " (long enough to live on the heap)");
}

TEST(SimNetwork, HandlerMayAttachAHigherNode) {
  // Attaching node 5000 grows the per-node table while node 1's handler
  // runs; the handler's captures must survive (ASan checks the reads).
  Simulator sim;
  SimNetwork network{sim};
  std::vector<int> log;
  network.attach(1, [&network, &log](const Message&) {
    network.attach(5000, [&log](const Message&) { log.push_back(5000); });
    log.push_back(1);
  });
  Message msg;
  msg.from = 0;
  msg.to = 1;
  network.send(std::move(msg));
  sim.run();
  msg = Message{};
  msg.from = 1;
  msg.to = 5000;
  network.send(std::move(msg));
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 5000}));
  EXPECT_TRUE(network.attached(1));
}

TEST(SimNetwork, HandlerMayDetachOrReplaceItsOwnNode) {
  // Each handler reads a capture after dropping its own registration; the
  // running closure must outlive that (ASan checks the reads).
  Fixture f;
  auto& network = f.network;
  std::vector<int> log;
  network.attach(2, [&network, &log](const Message&) {
    network.detach(2);
    log.push_back(2);
  });
  network.attach(3, [&network, &log](const Message&) {
    network.attach(3, [&log](const Message&) { log.push_back(30); });
    log.push_back(3);
  });
  for (int round = 0; round < 2; ++round) {
    network.send(f.make(1, 2));
    network.send(f.make(1, 3));
    f.sim.run();
  }
  EXPECT_EQ(log, (std::vector<int>{2, 3, 30}));
  EXPECT_FALSE(network.attached(2));
  EXPECT_TRUE(network.attached(3));
}

TEST(SimNetwork, SetLinkIsDirected) {
  Fixture f;
  f.network.set_link(1, 2, {.latency = 9.0, .bandwidth_mbps = 3.0});
  EXPECT_DOUBLE_EQ(f.network.link(1, 2).latency, 9.0);
  const LinkParams reverse = f.network.link(2, 1);
  const LinkParams fallback;
  EXPECT_DOUBLE_EQ(reverse.latency, fallback.latency);
  EXPECT_DOUBLE_EQ(reverse.bandwidth_mbps, fallback.bandwidth_mbps);
  EXPECT_DOUBLE_EQ(reverse.loss_probability, fallback.loss_probability);
}

TEST(SimNetwork, TrafficOnlyPairFollowsALaterDefaultLink) {
  // A pair with FIFO state but no override keeps using the default link.
  Fixture f;
  f.attach(2);
  f.network.send(f.make(1, 2));
  f.sim.run();
  f.network.set_default_link({.latency = 7.0, .bandwidth_mbps = 100.0});
  EXPECT_DOUBLE_EQ(f.network.link(1, 2).latency, 7.0);
  const SimTime sent_at = f.sim.now();
  f.network.send(f.make(1, 2));
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 2u);
  EXPECT_NEAR(f.deliveries[1].second - sent_at, 0.007, 1e-12);
}

TEST(SimNetwork, PairWithoutOverrideFollowsTheLiveModel) {
  // The model is asked on every send, so a pair keeps following the state
  // it reads after the pair has carried traffic and has a FIFO entry.
  Fixture f;
  f.attach(2);
  double latency_ms = 3.0;
  f.network.set_link_model([&latency_ms](NodeId from, NodeId to) {
    return LinkParams{.latency = latency_ms + from + to,
                      .bandwidth_mbps = 100.0};
  });
  f.network.send(f.make(1, 2));
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  EXPECT_NEAR(f.deliveries[0].second, 0.006, 1e-12);
  latency_ms = 10.0;
  EXPECT_DOUBLE_EQ(f.network.link(1, 2).latency, 13.0);
  const SimTime sent_at = f.sim.now();
  f.network.send(f.make(1, 2));
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 2u);
  EXPECT_NEAR(f.deliveries[1].second - sent_at, 0.013, 1e-12);
  // An override wins over the model until the end.
  f.network.set_link(1, 2, {.latency = 1.0, .bandwidth_mbps = 100.0});
  latency_ms = 20.0;
  EXPECT_DOUBLE_EQ(f.network.link(1, 2).latency, 1.0);
  EXPECT_DOUBLE_EQ(f.network.link(2, 1).latency, 23.0);
}

TEST(SimNetwork, LinkQueriesCreateNoEntry) {
  Fixture f;
  f.network.set_link_model([](NodeId, NodeId to) {
    return LinkParams{.latency = static_cast<double>(to),
                      .bandwidth_mbps = 1.0};
  });
  EXPECT_DOUBLE_EQ(f.network.link(1, 7).latency, 7.0);
  EXPECT_NEAR(f.network.nominal_delay(1, 7, 1'000'000), 0.007 + 1.0, 1e-12);
  for (NodeId n = 100; n < 200; ++n) (void)f.network.nominal_delay(n, 1, 8);
  EXPECT_EQ(f.network.tracked_links(), 0u);
}

TEST(SimNetwork, LazyEntrySerializesLikeAPresetOne) {
  // Two back-to-back 1 MB sends queue FIFO whether the pair's entry was
  // made by set_link beforehand or by the first send through the model.
  const LinkParams params{.latency = 2.0, .bandwidth_mbps = 1.0};
  Fixture preset;
  preset.network.set_link(1, 2, params);
  Fixture lazy;
  lazy.network.set_link_model([&params](NodeId, NodeId) { return params; });
  for (Fixture* f : {&preset, &lazy}) {
    f->attach(2);
    f->network.send(f->make(1, 2, 1'000'000));
    f->network.send(f->make(1, 2, 1'000'000));
    f->sim.run();
    EXPECT_EQ(f->network.tracked_links(), 1u);
  }
  ASSERT_EQ(lazy.deliveries.size(), 2u);
  EXPECT_EQ(lazy.deliveries, preset.deliveries);
  EXPECT_NEAR(lazy.deliveries[1].second, 2.002, 1e-9);
}

TEST(SimNetwork, RangeHandlerSurvivesDetachAndReattachOfOneNode) {
  // Nodes 10..14 share one handler.  Node 11 is detached from outside and
  // re-attached to a handler of its own; node 12 does the same to itself
  // from inside the shared handler, which must keep serving 13 and 14
  // (ASan checks the running closure's reads).
  Fixture f;
  auto& network = f.network;
  std::vector<std::pair<char, NodeId>> log;
  const Handler own = [&log](const Message& m) { log.emplace_back('o', m.to); };
  network.attach_range(10, 5, [&network, &log, &own](const Message& msg) {
    if (msg.to == 12) {
      network.detach(12);
      network.attach(12, own);
    }
    log.emplace_back('r', msg.to);
  });
  for (NodeId n = 10; n < 15; ++n) EXPECT_TRUE(network.attached(n));
  EXPECT_FALSE(network.attached(15));

  network.detach(11);
  for (NodeId n = 10; n < 15; ++n) network.send(f.make(1, n));
  f.sim.run();
  network.attach(11, own);
  for (NodeId n = 10; n < 15; ++n) network.send(f.make(1, n));
  f.sim.run();
  EXPECT_EQ(log, (std::vector<std::pair<char, NodeId>>{
                     {'r', 10}, {'r', 12}, {'r', 13}, {'r', 14},
                     {'r', 10}, {'o', 11}, {'o', 12}, {'r', 13}, {'r', 14}}));
}

TEST(SimNetwork, RangeHandlerMayDropEveryNodeItServes) {
  // The last node of a range lets go of the shared handler while it runs;
  // the handler finishes, and its entry is reused by a later attach.
  Fixture f;
  auto& network = f.network;
  std::vector<NodeId> log;
  network.attach_range(3, 2, [&network, &log](const Message& msg) {
    network.detach(3);
    network.detach(4);
    log.push_back(msg.to);
  });
  network.send(f.make(1, 4));
  network.send(f.make(1, 3));
  f.sim.run();
  EXPECT_EQ(log, std::vector<NodeId>{4});
  EXPECT_FALSE(network.attached(3));
  EXPECT_FALSE(network.attached(4));
  network.attach_range(3, 2, [&log](const Message& msg) {
    log.push_back(msg.to + 100);
  });
  network.send(f.make(1, 3));
  f.sim.run();
  EXPECT_EQ(log, (std::vector<NodeId>{4, 103}));
}

TEST(SimNetwork, TrackedLinksCountsOverridesAndTrafficPairsOnly) {
  Fixture f;
  f.attach(2);
  f.attach(4);
  EXPECT_EQ(f.network.tracked_links(), 0u);
  f.network.set_link(1, 2, {.latency = 1.0, .bandwidth_mbps = 1.0});
  EXPECT_EQ(f.network.tracked_links(), 1u);
  f.network.send(f.make(1, 2));  // overridden pair: no new entry
  f.network.send(f.make(3, 4));
  f.network.send(f.make(3, 4));
  f.network.send(f.make(4, 3));  // directed: a second entry
  f.sim.run();
  EXPECT_EQ(f.network.tracked_links(), 3u);
  f.network.set_link(3, 4, {.latency = 1.0, .bandwidth_mbps = 1.0});
  (void)f.network.link(5, 6);
  EXPECT_EQ(f.network.tracked_links(), 3u);
}

TEST(SimNetwork, TrackedNodesCountsOnlySendersAndReceivers) {
  Fixture f;
  for (NodeId n = 1; n <= 5; ++n) f.attach(n);
  f.attach(50);
  f.network.set_link(10, 20, {.latency = 1.0, .bandwidth_mbps = 1.0});
  EXPECT_EQ(f.network.tracked_nodes(), 0u);
  f.network.send(f.make(1, 2));
  f.network.send(f.make(3, 40));  // 40 is not attached: dropped
  f.sim.run();
  EXPECT_EQ(f.network.tracked_nodes(), 3u);  // 1, 2 and 3
}

}  // namespace
}  // namespace edr::net
