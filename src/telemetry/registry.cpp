#include "telemetry/registry.hpp"

#include <algorithm>
#include <stdexcept>

namespace edr::telemetry {

namespace detail {

CounterSlot* counter_sink() {
  // Lossy so concurrent sink writes from the threaded path stay defined
  // without paying for a read-modify-write on every update.
  static CounterSlot sink{0, SlotSync::kLossy};
  return &sink;
}

GaugeSlot* gauge_sink() {
  static GaugeSlot sink{0.0, SlotSync::kLossy};
  return &sink;
}

HistogramSlot* histogram_sink() {
  static HistogramSlot sink{{}, {0}, 0.0, 0, SlotSync::kLossy};
  return &sink;
}

void reset_sinks() {
  *counter_sink() = CounterSlot{0, SlotSync::kLossy};
  *gauge_sink() = GaugeSlot{0.0, SlotSync::kLossy};
  auto* histogram = histogram_sink();
  histogram->bounds.clear();
  histogram->counts.assign(1, 0);
  histogram->sum = 0.0;
  histogram->count = 0;
}

}  // namespace detail

void Histogram::observe(double value) {
  auto* slot = slot_;
  // Lower-bound over ascending upper edges; the last bucket is +inf.
  std::size_t bucket = 0;
  while (bucket < slot->bounds.size() && value > slot->bounds[bucket])
    ++bucket;
  detail::slot_add(slot->counts[bucket], std::uint64_t{1}, slot->sync);
  detail::slot_add(slot->count, std::uint64_t{1}, slot->sync);
  detail::slot_add(slot->sum, value, slot->sync);
}

std::uint64_t Histogram::count() const {
  return detail::slot_load(slot_->count, slot_->sync);
}

double Histogram::sum() const {
  return detail::slot_load(slot_->sum, slot_->sync);
}

double Histogram::mean() const {
  const auto n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::quantile(double q) const {
  const auto* slot = slot_;
  const auto total = count();
  if (total == 0 || slot->bounds.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t bucket = 0; bucket < slot->counts.size(); ++bucket) {
    const auto in_bucket = static_cast<double>(slot->counts[bucket]);
    if (cumulative + in_bucket < target) {
      cumulative += in_bucket;
      continue;
    }
    // The +inf bucket has no finite upper edge; report the last bound.
    if (bucket >= slot->bounds.size()) return slot->bounds.back();
    const double lower = bucket == 0 ? 0.0 : slot->bounds[bucket - 1];
    const double upper = slot->bounds[bucket];
    const double fraction =
        in_bucket > 0.0 ? (target - cumulative) / in_bucket : 0.0;
    return lower + (upper - lower) * fraction;
  }
  return slot->bounds.back();
}

Counter MetricsRegistry::counter(std::string_view name) {
  const std::scoped_lock lock{mutex_};
  if (const auto it = counter_index_.find(name); it != counter_index_.end())
    return Counter{it->second};
  counter_slots_.push_back({0, slot_sync()});
  auto* slot = &counter_slots_.back();
  counter_index_.emplace(std::string{name}, slot);
  return Counter{slot};
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  const std::scoped_lock lock{mutex_};
  if (const auto it = gauge_index_.find(name); it != gauge_index_.end())
    return Gauge{it->second};
  gauge_slots_.push_back({0.0, slot_sync()});
  auto* slot = &gauge_slots_.back();
  gauge_index_.emplace(std::string{name}, slot);
  return Gauge{slot};
}

Histogram MetricsRegistry::histogram(std::string_view name,
                                     std::vector<double> bounds) {
  const std::scoped_lock lock{mutex_};
  if (const auto it = histogram_index_.find(name);
      it != histogram_index_.end())
    return Histogram{it->second};
  if (bounds.empty())
    throw std::invalid_argument("MetricsRegistry::histogram: empty bounds");
  if (!std::is_sorted(bounds.begin(), bounds.end()))
    throw std::invalid_argument(
        "MetricsRegistry::histogram: bounds must be ascending");
  detail::HistogramSlot slot;
  slot.counts.assign(bounds.size() + 1, 0);
  slot.bounds = std::move(bounds);
  slot.sync = slot_sync();
  histogram_slots_.push_back(std::move(slot));
  auto* stored = &histogram_slots_.back();
  histogram_index_.emplace(std::string{name}, stored);
  return Histogram{stored};
}

std::vector<CounterView> MetricsRegistry::counters() const {
  const std::scoped_lock lock{mutex_};
  std::vector<CounterView> views;
  views.reserve(counter_index_.size());
  for (const auto& [name, slot] : counter_index_)
    views.push_back({name, Counter{slot}.value()});
  return views;
}

std::vector<GaugeView> MetricsRegistry::gauges() const {
  const std::scoped_lock lock{mutex_};
  std::vector<GaugeView> views;
  views.reserve(gauge_index_.size());
  for (const auto& [name, slot] : gauge_index_)
    views.push_back({name, Gauge{slot}.value()});
  return views;
}

std::vector<HistogramView> MetricsRegistry::histograms() const {
  const std::scoped_lock lock{mutex_};
  std::vector<HistogramView> views;
  views.reserve(histogram_index_.size());
  for (const auto& [name, slot] : histogram_index_)
    views.push_back({name, slot});
  return views;
}

std::vector<double> MetricsRegistry::latency_bounds_s() {
  return {1e-6, 1e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0,
          3.0, 10.0};
}

std::vector<double> MetricsRegistry::response_bounds_ms() {
  return {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
          1000.0, 2000.0, 5000.0};
}

}  // namespace edr::telemetry
