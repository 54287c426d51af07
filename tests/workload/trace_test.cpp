#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace edr::workload {
namespace {

TraceOptions small_options() {
  TraceOptions options;
  options.num_clients = 4;
  options.horizon = 50.0;
  return options;
}

TEST(Trace, GeneratedRequestsAreSortedAndInRange) {
  Rng rng{21};
  const auto trace =
      Trace::generate(rng, distributed_file_service(), small_options());
  ASSERT_FALSE(trace.empty());
  SimTime last = 0.0;
  for (const auto& request : trace.requests()) {
    EXPECT_GE(request.arrival, last);
    last = request.arrival;
    EXPECT_LT(request.arrival, 50.0);
    EXPECT_LT(request.client, 4u);
    // "approximately 10 MB": within the 10% jitter band.
    EXPECT_GE(request.size_mb, 9.0 - 1e-9);
    EXPECT_LE(request.size_mb, 11.0 + 1e-9);
  }
}

TEST(Trace, VideoStreamingSizesNearHundredMegabytes) {
  Rng rng{22};
  const auto trace = Trace::generate(rng, video_streaming(), small_options());
  for (const auto& request : trace.requests()) {
    EXPECT_GE(request.size_mb, 90.0 - 1e-9);
    EXPECT_LE(request.size_mb, 110.0 + 1e-9);
  }
}

TEST(Trace, DeterministicPerSeed) {
  Rng a{33}, b{33};
  const auto t1 = Trace::generate(a, video_streaming(), small_options());
  const auto t2 = Trace::generate(b, video_streaming(), small_options());
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_DOUBLE_EQ(t1.requests()[i].arrival, t2.requests()[i].arrival);
    EXPECT_DOUBLE_EQ(t1.requests()[i].size_mb, t2.requests()[i].size_mb);
    EXPECT_EQ(t1.requests()[i].object_id, t2.requests()[i].object_id);
  }
}

TEST(Trace, TotalsAndHorizon) {
  Rng rng{23};
  const auto trace =
      Trace::generate(rng, distributed_file_service(), small_options());
  double total = 0.0;
  for (const auto& request : trace.requests()) total += request.size_mb;
  EXPECT_NEAR(trace.total_megabytes(), total, 1e-6);
  EXPECT_LE(trace.horizon(), 50.0);
  EXPECT_GT(trace.horizon(), 0.0);
}

TEST(Trace, WindowSelectsHalfOpenInterval) {
  std::vector<Request> requests{{0, 0, 1.0, 5.0, 0},
                                {1, 1, 2.0, 5.0, 0},
                                {2, 0, 3.0, 5.0, 0}};
  const Trace trace{requests};
  const auto window = trace.window(1.0, 3.0);
  ASSERT_EQ(window.size(), 2u);
  EXPECT_EQ(window[0].id, 0u);
  EXPECT_EQ(window[1].id, 1u);
}

TEST(Trace, DemandByClientAggregates) {
  std::vector<Request> requests{{0, 0, 1.0, 5.0, 0},
                                {1, 1, 2.0, 7.0, 0},
                                {2, 0, 3.0, 2.0, 0}};
  const Trace trace{requests};
  const auto demand = trace.demand_by_client(3);
  EXPECT_DOUBLE_EQ(demand[0], 7.0);
  EXPECT_DOUBLE_EQ(demand[1], 7.0);
  EXPECT_DOUBLE_EQ(demand[2], 0.0);
  EXPECT_THROW((void)trace.demand_by_client(1), std::out_of_range);
}

TEST(Trace, ConstructorSortsByArrival) {
  std::vector<Request> requests{{0, 0, 9.0, 1.0, 0}, {1, 0, 1.0, 1.0, 0}};
  const Trace trace{requests};
  EXPECT_EQ(trace.requests().front().id, 1u);
}

TEST(Trace, CsvRoundTrip) {
  Rng rng{24};
  const auto trace =
      Trace::generate(rng, distributed_file_service(), small_options());
  std::stringstream buffer;
  trace.save_csv(buffer);
  const auto loaded = Trace::load_csv(buffer);
  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(loaded.requests()[i].id, trace.requests()[i].id);
    EXPECT_EQ(loaded.requests()[i].client, trace.requests()[i].client);
    EXPECT_DOUBLE_EQ(loaded.requests()[i].arrival,
                     trace.requests()[i].arrival);
    EXPECT_DOUBLE_EQ(loaded.requests()[i].size_mb,
                     trace.requests()[i].size_mb);
    EXPECT_EQ(loaded.requests()[i].object_id, trace.requests()[i].object_id);
  }
}

TEST(Trace, LoadRejectsMalformedRows) {
  std::stringstream bad("id,client,arrival,size_mb,object_id\n1,2\n");
  EXPECT_THROW(Trace::load_csv(bad), std::invalid_argument);
}

TEST(Trace, LoadRejectsNonFiniteOrNegativeArrivalAndSize) {
  // A negative arrival or size used to be served as a request nobody
  // counted, and a nan arrival printed "nan" into the JSON report.
  for (const char* row : {"1,0,-3.5,10,0", "1,0,1.0,-50,0", "1,0,nan,10,0",
                          "1,0,inf,10,0", "1,0,1.0,nan,0", "1,0,1.0,inf,0"}) {
    SCOPED_TRACE(row);
    std::stringstream csv(
        std::string{"id,client,arrival,size_mb,object_id\n0,0,0.5,10,0\n"} +
        row + "\n");
    EXPECT_THROW(Trace::load_csv(csv), std::invalid_argument);
  }
  std::stringstream zero("id,client,arrival,size_mb,object_id\n1,0,0,0,0\n");
  EXPECT_EQ(Trace::load_csv(zero).size(), 1u);
}

TEST(Trace, FlashCrowdSpikesArrivalRate) {
  Rng rng{26};
  TraceOptions options;
  options.num_clients = 4;
  options.horizon = 100.0;
  options.flash = {.start = 40.0, .duration = 20.0, .multiplier = 6.0,
                   .hot_object = 7};
  const auto trace = Trace::generate(rng, distributed_file_service(), options);

  const auto spike = trace.window(40.0, 60.0);
  const auto before = trace.window(20.0, 40.0);
  ASSERT_GT(before.size(), 0u);
  // 6x the rate over an equal-length window (diurnal drift is mild).
  EXPECT_GT(static_cast<double>(spike.size()),
            3.0 * static_cast<double>(before.size()));
}

TEST(Trace, FlashCrowdConcentratesOnHotObject) {
  Rng rng{27};
  TraceOptions options;
  options.num_clients = 4;
  options.horizon = 60.0;
  options.flash = {.start = 20.0, .duration = 20.0, .multiplier = 8.0,
                   .hot_object = 99};
  const auto trace = Trace::generate(rng, distributed_file_service(), options);
  std::size_t hot = 0, total = 0;
  for (const auto& request : trace.requests()) {
    if (request.arrival < 20.0 || request.arrival >= 40.0) continue;
    ++total;
    if (request.object_id == 99) ++hot;
  }
  ASSERT_GT(total, 50u);
  EXPECT_GT(static_cast<double>(hot) / static_cast<double>(total), 0.7);
}

TEST(Trace, ZeroDurationFlashIsNoSpike) {
  Rng a{28}, b{28};
  TraceOptions plain;
  plain.num_clients = 4;
  plain.horizon = 30.0;
  TraceOptions degenerate = plain;
  degenerate.flash = {.start = 10.0, .duration = 0.0, .multiplier = 100.0};
  const auto t1 = Trace::generate(a, distributed_file_service(), plain);
  const auto t2 = Trace::generate(b, distributed_file_service(), degenerate);
  EXPECT_EQ(t1.size(), t2.size());
}

TEST(Trace, DiurnalShapeVisibleInArrivals) {
  Rng rng{25};
  TraceOptions options;
  options.num_clients = 4;
  options.horizon = 200.0;
  options.diurnal.peak_hour = 12.0;  // mid-horizon under compression
  const auto trace = Trace::generate(rng, distributed_file_service(), options);
  std::size_t middle = 0;
  for (const auto& request : trace.requests())
    if (request.arrival >= 50.0 && request.arrival < 150.0) ++middle;
  EXPECT_GT(static_cast<double>(middle),
            0.55 * static_cast<double>(trace.size()));
}

}  // namespace
}  // namespace edr::workload
