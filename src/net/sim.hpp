// Deterministic discrete-event simulator.
//
// This is the substrate that replaces the paper's physical SystemG cluster:
// everything time-dependent (message delivery, solver rounds, heartbeats,
// file transfers, power sampling) runs as events on this queue.  Ties are
// broken by insertion order, so a run is a pure function of its inputs and
// seeds — the property every reproduction test leans on.
//
// The queue is a binary min-heap of small (time, seq, slot) keys in a
// std::vector.  (time, seq) is unique, so every heap layout pops the same
// order.  Tasks wait in a reusable slot array and never move while queued;
// step() moves the earliest one out of its slot before running it.  So a
// task, and the Message or std::any it may capture, is never copied, and
// sifting the heap moves 24-byte keys rather than std::function objects.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.hpp"
#include "net/slot_pool.hpp"
#include "telemetry/telemetry.hpp"

namespace edr::net {

class Simulator {
 public:
  using Task = std::function<void()>;

  /// Current simulated time in seconds.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `task` at absolute time `when` (clamped to now for past
  /// times — events cannot run in the past).
  void schedule_at(SimTime when, Task task);

  /// Schedule `task` after `delay` seconds.
  void schedule_after(SimTime delay, Task task);

  /// Run a single event; returns false when the queue is empty.
  bool step();

  /// Run until the queue drains or `limit` events have executed.
  /// Returns the number of events executed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Run events with time ≤ horizon; the clock is left at
  /// min(horizon, time of last executed event's successor).  Events beyond
  /// the horizon remain queued.
  std::size_t run_until(SimTime horizon);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Wire the event-loop metrics (events executed, queue depth, clock
  /// position) and the tracer clock into `telemetry`.  The caller must keep
  /// the context alive for the simulator's lifetime; the clock should be
  /// detached (set_clock(nullptr)) before the simulator dies.
  void attach_telemetry(telemetry::Telemetry& telemetry);

 private:
  /// Heap entry: the event's order key and the slot holding its task.
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Heap under Later: heap_.front() is the earliest (time, seq).
  std::vector<Key> heap_;
  /// Queued tasks, by Key::slot.
  SlotPool<Task> tasks_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  // Sink handles until attach_telemetry (see telemetry/registry.hpp).
  telemetry::Counter events_executed_metric_;
  telemetry::Counter events_scheduled_metric_;
  telemetry::Gauge queue_depth_metric_;
  telemetry::Gauge sim_time_metric_;
};

}  // namespace edr::net
