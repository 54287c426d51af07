// Metrics registry: named counters, gauges and fixed-bucket histograms.
//
// Designed to live on hot paths of the simulator: a handle is one pointer
// to a plain slot owned by the registry, so an update is a single add or
// store.  Each slot carries its update mode (SlotSync):
//  - kPlain: unsynchronized.  The default registry; the simulator is
//    single-threaded.
//  - kAtomic: relaxed std::atomic_ref read-modify-writes, exact under
//    contention.  A registry created with atomic=true (the threaded
//    transport path) uses it.
//  - kLossy: a relaxed atomic load followed by a relaxed store, no RMW.
//    Used by the process-wide sink slots below.
//
// Default-constructed handles point at those sink slots, so code can
// update metrics unconditionally.  A component that was never attached to
// a Telemetry context pays a plain load and store per update (no
// lock-prefixed instruction, no CAS loop) and nothing else.  Concurrent
// sink writes from several threads stay race-free but may lose updates;
// single-threaded sink counts stay exact.  That sink is what makes the
// disabled state no-op cheap without a branch at every call site.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace edr::telemetry {

namespace detail {

/// How updates to a slot synchronize (see the header comment).
enum class SlotSync : std::uint8_t { kPlain, kAtomic, kLossy };

struct CounterSlot {
  std::uint64_t value = 0;
  SlotSync sync = SlotSync::kPlain;
};

struct GaugeSlot {
  double value = 0.0;
  SlotSync sync = SlotSync::kPlain;
};

struct HistogramSlot {
  /// Ascending upper bucket bounds; an implicit +inf bucket is appended, so
  /// counts.size() == bounds.size() + 1.
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  double sum = 0.0;
  std::uint64_t count = 0;
  SlotSync sync = SlotSync::kPlain;
};

template <typename T>
void slot_add(T& value, T delta, SlotSync sync) {
  switch (sync) {
    case SlotSync::kPlain:
      value += delta;
      return;
    case SlotSync::kAtomic:
      std::atomic_ref<T>(value).fetch_add(delta, std::memory_order_relaxed);
      return;
    case SlotSync::kLossy: {
      std::atomic_ref<T> ref(value);
      ref.store(ref.load(std::memory_order_relaxed) + delta,
                std::memory_order_relaxed);
      return;
    }
  }
}

template <typename T>
void slot_store(T& value, T v, SlotSync sync) {
  if (sync == SlotSync::kPlain)
    value = v;
  else
    std::atomic_ref<T>(value).store(v, std::memory_order_relaxed);
}

template <typename T>
[[nodiscard]] T slot_load(const T& value, SlotSync sync) {
  return sync == SlotSync::kPlain
             ? value
             : std::atomic_ref<const T>(value).load(std::memory_order_relaxed);
}

CounterSlot* counter_sink();
GaugeSlot* gauge_sink();
HistogramSlot* histogram_sink();

/// Zero the process-wide sink slots.  Default-constructed handles funnel
/// into these, so sink values accumulate across runs in one process; tests
/// that read them (or want a clean slate between back-to-back runs) call
/// this instead of inheriting the previous run's counts.
void reset_sinks();

}  // namespace detail

class Counter {
 public:
  Counter() : slot_(detail::counter_sink()) {}

  void add(std::uint64_t delta = 1) {
    detail::slot_add(slot_->value, delta, slot_->sync);
  }

  [[nodiscard]] std::uint64_t value() const {
    return detail::slot_load(slot_->value, slot_->sync);
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::CounterSlot* slot) : slot_(slot) {}
  detail::CounterSlot* slot_;
};

class Gauge {
 public:
  Gauge() : slot_(detail::gauge_sink()) {}

  void set(double value) {
    detail::slot_store(slot_->value, value, slot_->sync);
  }

  void add(double delta) {
    detail::slot_add(slot_->value, delta, slot_->sync);
  }

  [[nodiscard]] double value() const {
    return detail::slot_load(slot_->value, slot_->sync);
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::GaugeSlot* slot) : slot_(slot) {}
  detail::GaugeSlot* slot_;
};

class Histogram {
 public:
  Histogram() : slot_(detail::histogram_sink()) {}

  void observe(double value);

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;
  /// Linear-interpolation quantile estimate from the bucket counts.
  /// Clamping contract: q outside [0, 1] is clamped; an empty histogram
  /// (no observations, or a default sink handle with no bounds) reports
  /// 0.0; any mass that landed in the implicit +inf bucket reports the
  /// last finite bound — the estimate never extrapolates past the edges.
  [[nodiscard]] double quantile(double q) const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::HistogramSlot* slot) : slot_(slot) {}
  detail::HistogramSlot* slot_;
};

/// Read-only view of one registered metric, for exporters.
struct CounterView {
  std::string_view name;
  std::uint64_t value = 0;
};
struct GaugeView {
  std::string_view name;
  double value = 0.0;
};
struct HistogramView {
  std::string_view name;
  const detail::HistogramSlot* slot = nullptr;
};

class MetricsRegistry {
 public:
  /// atomic=true upgrades every handle update to relaxed atomics (for the
  /// threaded transport path).  Registration and the view accessors are
  /// serialized by an internal mutex, so the transport's io thread can
  /// lazily register per-peer metrics while a scrape-server thread renders
  /// the registry; handle *updates* stay lock-free either way.
  explicit MetricsRegistry(bool atomic = false) : atomic_(atomic) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registration is idempotent: the same name always yields a handle to
  /// the same slot.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  /// `bounds` are ascending upper bucket edges; re-registering an existing
  /// histogram ignores the bounds and returns the original slot.
  Histogram histogram(std::string_view name, std::vector<double> bounds);

  [[nodiscard]] bool atomic() const { return atomic_; }
  [[nodiscard]] std::size_t size() const {
    const std::scoped_lock lock{mutex_};
    return counter_index_.size() + gauge_index_.size() +
           histogram_index_.size();
  }

  /// Views in name order (exporter iteration).
  [[nodiscard]] std::vector<CounterView> counters() const;
  [[nodiscard]] std::vector<GaugeView> gauges() const;
  [[nodiscard]] std::vector<HistogramView> histograms() const;

  /// Default bucket edges for latency-style histograms, in seconds.
  [[nodiscard]] static std::vector<double> latency_bounds_s();
  /// Default bucket edges for response-time histograms, in milliseconds.
  [[nodiscard]] static std::vector<double> response_bounds_ms();

 private:
  [[nodiscard]] detail::SlotSync slot_sync() const {
    return atomic_ ? detail::SlotSync::kAtomic : detail::SlotSync::kPlain;
  }

  bool atomic_;
  mutable std::mutex mutex_;
  // Deques give slot pointers stability across registrations.
  std::deque<detail::CounterSlot> counter_slots_;
  std::deque<detail::GaugeSlot> gauge_slots_;
  std::deque<detail::HistogramSlot> histogram_slots_;
  std::map<std::string, detail::CounterSlot*, std::less<>> counter_index_;
  std::map<std::string, detail::GaugeSlot*, std::less<>> gauge_index_;
  std::map<std::string, detail::HistogramSlot*, std::less<>> histogram_index_;
};

}  // namespace edr::telemetry
