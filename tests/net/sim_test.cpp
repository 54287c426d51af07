#include "net/sim.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace edr::net {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(5.0, [&] {
    sim.schedule_after(2.5, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Simulator, PastTimesClampToNow) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(5.0, [&] {
    sim.schedule_at(1.0, [&] { fired_at = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int chain = 0;
  std::function<void()> next = [&] {
    if (++chain < 100) sim.schedule_after(1.0, next);
  };
  sim.schedule_at(0.0, next);
  sim.run();
  EXPECT_EQ(chain, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 99.0);
}

TEST(Simulator, RunUntilLeavesLaterEventsQueued) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  const auto executed = sim.run_until(5.0);
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunWithLimitStopsEarly) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) sim.schedule_at(i, [&] { ++fired; });
  EXPECT_EQ(sim.run(4), 4u);
  EXPECT_EQ(fired, 4);
}

TEST(Simulator, StepOnEmptyQueueReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.executed(), 0u);
}

/// Counts copies of itself; moves are free.
struct CopyCounter {
  int* copies;
  int* runs;
  CopyCounter(int* c, int* r) : copies(c), runs(r) {}
  CopyCounter(const CopyCounter& other)
      : copies(other.copies), runs(other.runs) {
    ++*copies;
  }
  CopyCounter(CopyCounter&&) noexcept = default;
  CopyCounter& operator=(const CopyCounter& other) {
    copies = other.copies;
    runs = other.runs;
    ++*copies;
    return *this;
  }
  CopyCounter& operator=(CopyCounter&&) noexcept = default;
  void operator()() const { ++*runs; }
};

TEST(Simulator, NeverCopiesATask) {
  // Tasks capture whole Messages (std::any payloads included); the heap
  // must move them in, around and out, never copy.
  Simulator sim;
  int copies = 0;
  int runs = 0;
  for (int i = 0; i < 64; ++i)
    sim.schedule_at(static_cast<double>((i * 37) % 64),
                    CopyCounter{&copies, &runs});
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.run_until(20.0), 20u);
  EXPECT_EQ(sim.run(), 43u);
  EXPECT_EQ(runs, 64);
  EXPECT_EQ(copies, 0);
}

}  // namespace
}  // namespace edr::net
