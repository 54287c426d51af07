#include "telemetry/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/export.hpp"

namespace edr::telemetry {
namespace {

TEST(Counter, AddsAndReads) {
  MetricsRegistry registry;
  auto counter = registry.counter("events");
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(Counter, RegistrationIsIdempotent) {
  MetricsRegistry registry;
  auto first = registry.counter("shared");
  auto second = registry.counter("shared");
  first.add(3);
  second.add(4);
  EXPECT_EQ(first.value(), 7u);
  EXPECT_EQ(second.value(), 7u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(Counter, DefaultHandleIsSinkNoOp) {
  // A default-constructed handle (component never attached to telemetry)
  // must accept updates without touching any registry.
  Counter unattached;
  unattached.add(123);  // must not crash; lands in the process-wide sink
  MetricsRegistry registry;
  registry.counter("real").add(1);
  EXPECT_EQ(registry.counters().size(), 1u);
  EXPECT_EQ(registry.counters()[0].value, 1u);
}

TEST(Gauge, SetAddRead) {
  MetricsRegistry registry;
  auto gauge = registry.gauge("depth");
  gauge.set(2.5);
  gauge.add(0.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.0);
  gauge.set(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), -1.0);
}

TEST(Histogram, BucketSemantics) {
  MetricsRegistry registry;
  auto histogram = registry.histogram("latency", {1.0, 2.0, 5.0});
  histogram.observe(0.5);   // bucket le=1
  histogram.observe(1.0);   // le=1 (upper edge inclusive)
  histogram.observe(1.5);   // le=2
  histogram.observe(100.0); // +inf
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 103.0);
  EXPECT_DOUBLE_EQ(histogram.mean(), 103.0 / 4.0);

  const auto views = registry.histograms();
  ASSERT_EQ(views.size(), 1u);
  const auto& slot = *views[0].slot;
  ASSERT_EQ(slot.counts.size(), 4u);  // 3 finite buckets + inf
  EXPECT_EQ(slot.counts[0], 2u);
  EXPECT_EQ(slot.counts[1], 1u);
  EXPECT_EQ(slot.counts[2], 0u);
  EXPECT_EQ(slot.counts[3], 1u);
}

TEST(Histogram, QuantileInterpolatesWithinBucket) {
  MetricsRegistry registry;
  auto histogram = registry.histogram("q", {10.0, 20.0});
  for (int i = 0; i < 10; ++i) histogram.observe(5.0);
  // All mass in [0, 10): the median interpolates to the bucket midpoint.
  EXPECT_NEAR(histogram.quantile(0.5), 5.0, 1e-9);
  EXPECT_NEAR(histogram.quantile(1.0), 10.0, 1e-9);
}

TEST(Histogram, QuantileOfEmptyHistogramIsZero) {
  MetricsRegistry registry;
  auto histogram = registry.histogram("empty", {1.0, 2.0});
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 0.0);
  // Boundless histograms are rejected outright at registration.
  EXPECT_THROW(registry.histogram("unbounded", {}), std::invalid_argument);
}

TEST(Histogram, QuantileClampsOutOfRangeArguments) {
  MetricsRegistry registry;
  auto histogram = registry.histogram("clamp", {10.0});
  for (int i = 0; i < 4; ++i) histogram.observe(5.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(-0.5), histogram.quantile(0.0));
  EXPECT_DOUBLE_EQ(histogram.quantile(1.5), histogram.quantile(1.0));
  EXPECT_DOUBLE_EQ(histogram.quantile(1.5), 10.0);
}

TEST(Histogram, QuantileInOverflowBucketReportsLastBound) {
  MetricsRegistry registry;
  auto histogram = registry.histogram("inf", {1.0, 8.0});
  histogram.observe(100.0);  // all mass past the finite bounds
  histogram.observe(200.0);
  // The +inf bucket has no upper edge; the last finite bound is the only
  // honest answer.
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 8.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.99), 8.0);
}

TEST(Histogram, QuantileSkipsEmptyLeadingBuckets) {
  MetricsRegistry registry;
  auto histogram = registry.histogram("skip", {1.0, 2.0, 4.0});
  for (int i = 0; i < 10; ++i) histogram.observe(3.0);  // all in (2, 4]
  EXPECT_NEAR(histogram.quantile(0.5), 3.0, 1e-9);
  EXPECT_NEAR(histogram.quantile(0.1), 2.2, 1e-9);
  EXPECT_NEAR(histogram.quantile(1.0), 4.0, 1e-9);
}

TEST(Histogram, ReRegistrationKeepsOriginalBounds) {
  MetricsRegistry registry;
  auto first = registry.histogram("h", {1.0, 2.0});
  auto second = registry.histogram("h", {100.0});  // bounds ignored
  first.observe(1.5);
  EXPECT_EQ(second.count(), 1u);
  ASSERT_EQ(registry.histograms().size(), 1u);
  EXPECT_EQ(registry.histograms()[0].slot->bounds.size(), 2u);
}

TEST(MetricsRegistry, ViewsAreNameOrdered) {
  MetricsRegistry registry;
  registry.counter("zeta").add(1);
  registry.counter("alpha").add(2);
  registry.gauge("mid").set(3.0);
  const auto counters = registry.counters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].name, "alpha");
  EXPECT_EQ(counters[1].name, "zeta");
  ASSERT_EQ(registry.gauges().size(), 1u);
  EXPECT_EQ(registry.gauges()[0].name, "mid");
}

TEST(MetricsExport, JsonlOneObjectPerMetric) {
  MetricsRegistry registry;
  registry.counter("hits").add(3);
  registry.gauge("level").set(1.5);
  registry.histogram("lat", {1.0}).observe(0.5);
  const auto jsonl = metrics_to_jsonl(registry);
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 3);
  EXPECT_NE(jsonl.find("{\"metric\":\"hits\",\"type\":\"counter\",\"value\":3}"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"metric\":\"level\",\"type\":\"gauge\""),
            std::string::npos);
  // Histogram lines carry count, sum and the trailing +inf bucket.
  EXPECT_NE(jsonl.find("\"type\":\"histogram\",\"count\":1"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"le\":\"+inf\""), std::string::npos);
}

TEST(MetricsExport, PrometheusExposition) {
  MetricsRegistry registry;
  registry.counter("system.epochs").add(3);
  registry.gauge("solver.cdpsm.objective").set(1.5);
  auto histogram = registry.histogram("net.queue_delay", {1.0, 2.0});
  histogram.observe(0.5);
  histogram.observe(1.5);
  histogram.observe(9.0);
  const auto prom = metrics_to_prometheus(registry);
  // Dotted runtime names sanitize to underscores; counters take _total.
  EXPECT_NE(prom.find("# TYPE system_epochs_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("system_epochs_total 3\n"), std::string::npos);
  EXPECT_NE(prom.find("solver_cdpsm_objective 1.5\n"), std::string::npos);
  // Histogram buckets are cumulative and end with the +Inf bucket matching
  // _count.
  EXPECT_NE(prom.find("net_queue_delay_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("net_queue_delay_bucket{le=\"2\"} 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("net_queue_delay_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("net_queue_delay_count 3\n"), std::string::npos);
  EXPECT_NE(prom.find("net_queue_delay_sum 11\n"), std::string::npos);
}

TEST(MetricsExport, PrometheusLabeledSeries) {
  MetricsRegistry registry;
  registry.counter("net.bytes_by_type{type=\"round\"}").add(64);
  registry.gauge("net.sendq_depth{peer=\"2\"}").set(5.0);
  const auto prom = metrics_to_prometheus(registry);
  // The label block survives name sanitization and renders as real
  // exposition-format labels.
  EXPECT_NE(prom.find("# TYPE net_bytes_by_type_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("net_bytes_by_type_total{type=\"round\"} 64\n"),
            std::string::npos);
  EXPECT_NE(prom.find("net_sendq_depth{peer=\"2\"} 5\n"), std::string::npos);
}

TEST(MetricsExport, PrometheusEscapesLabelValues) {
  MetricsRegistry registry;
  // Backslash, double quote and newline are the three characters the
  // exposition format requires escaped inside a label value.  Emitting
  // them raw (the pre-fix behavior) splits the series line in half.
  registry.counter("files.served{path=\"a\\b\"}").add(1);
  registry.counter("errors.seen{msg=\"said \"hi\"\"}").add(2);
  registry.counter("errors.seen{msg=\"line1\nline2\"}").add(3);
  const auto prom = metrics_to_prometheus(registry);
  EXPECT_NE(prom.find("files_served_total{path=\"a\\\\b\"} 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("errors_seen_total{msg=\"said \\\"hi\\\"\"} 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("errors_seen_total{msg=\"line1\\nline2\"} 3\n"),
            std::string::npos);
  // No raw newline may survive inside any series line: every line must
  // be a comment, blank, or `name[{labels}] value`.
  std::size_t start = 0;
  while (start < prom.size()) {
    auto end = prom.find('\n', start);
    if (end == std::string::npos) end = prom.size();
    const auto line = prom.substr(start, end - start);
    if (!line.empty() && line[0] != '#')
      EXPECT_TRUE(line.find(' ') != std::string::npos)
          << "unparseable exposition line: " << line;
    start = end + 1;
  }
}

TEST(MetricsRegistry, AtomicModeCountsAcrossThreads) {
  MetricsRegistry registry(/*atomic=*/true);
  auto counter = registry.counter("hits");
  auto gauge = registry.gauge("level");
  constexpr int kThreads = 4;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        counter.add(1);
        gauge.add(1.0);
      }
    });
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_DOUBLE_EQ(gauge.value(), static_cast<double>(kThreads) * kIncrements);
}

TEST(TelemetrySink, ConcurrentDefaultHandlesAreRaceFree) {
  // Default handles of components on different threads share the
  // process-wide sink slots.  Their updates are relaxed atomic loads and
  // stores (no RMW): race-free under TSan, possibly lossy under
  // contention, exact on one thread.
  constexpr int kThreads = 4;
  constexpr int kUpdates = 10000;
  detail::reset_sinks();
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([t] {
      Counter counter;
      Gauge gauge;
      Histogram histogram;
      for (int i = 0; i < kUpdates; ++i) {
        counter.add(1);
        gauge.set(static_cast<double>(t));
        gauge.add(1.0);
        histogram.observe(0.5);
        (void)counter.value();
        (void)histogram.count();
      }
    });
  for (auto& worker : workers) worker.join();
  const auto total = static_cast<std::uint64_t>(kThreads) * kUpdates;
  EXPECT_GE(Counter{}.value(), 1u);
  EXPECT_LE(Counter{}.value(), total);
  EXPECT_GE(Histogram{}.count(), 1u);
  EXPECT_LE(Histogram{}.count(), total);
  EXPECT_LE(Histogram{}.sum(), 0.5 * static_cast<double>(total));

  detail::reset_sinks();
  std::thread single([] {
    Counter counter;
    Histogram histogram;
    for (int i = 0; i < kUpdates; ++i) {
      counter.add(2);
      histogram.observe(0.5);
    }
  });
  single.join();
  EXPECT_EQ(Counter{}.value(), 2u * kUpdates);
  EXPECT_EQ(Histogram{}.count(), static_cast<std::uint64_t>(kUpdates));
  EXPECT_DOUBLE_EQ(Histogram{}.sum(), 0.5 * kUpdates);
  detail::reset_sinks();
}

}  // namespace
}  // namespace edr::telemetry
