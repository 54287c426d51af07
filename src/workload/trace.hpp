// Request traces: generation, recording and replay.
//
// A trace is the unit of reproducibility for the evaluation harness: every
// figure's workload is a trace generated from a seed, and the same trace is
// replayed against each scheduling algorithm so cost differences are due to
// the algorithm alone.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "workload/apps.hpp"
#include "workload/diurnal.hpp"

namespace edr::workload {

struct Request {
  std::uint64_t id = 0;
  std::uint32_t client = 0;
  SimTime arrival = 0.0;
  Megabytes size_mb = 0.0;
  std::uint64_t object_id = 0;
};

/// Finite, non-negative arrival and size: what every request decoder
/// (CSV traces, live config frames) admits.
[[nodiscard]] bool well_formed(const Request& request);

/// A sudden traffic spike layered on top of the diurnal pattern (a video
/// going viral): the arrival rate is multiplied by `multiplier` during
/// [start, start + duration), and the spike's requests concentrate on a
/// single hot object.
struct FlashCrowd {
  SimTime start = 0.0;
  SimTime duration = 0.0;
  double multiplier = 5.0;
  std::uint64_t hot_object = 0;
};

struct TraceOptions {
  std::size_t num_clients = 8;
  SimTime horizon = 100.0;
  /// Compress a full diurnal day into the horizon so benches see the whole
  /// cycle (the paper replays hours of YouTube pattern in minutes).
  bool compress_day_into_horizon = true;
  DiurnalParams diurnal;
  /// Optional flash crowd (no spike when duration == 0).
  FlashCrowd flash;
};

/// A generated or replayed sequence of requests, sorted by arrival time.
class Trace {
 public:
  Trace() = default;
  explicit Trace(std::vector<Request> requests);

  /// Synthesize a YouTube-patterned trace for `app`.
  static Trace generate(Rng& rng, const AppProfile& app,
                        const TraceOptions& options);

  [[nodiscard]] const std::vector<Request>& requests() const {
    return requests_;
  }
  [[nodiscard]] std::size_t size() const { return requests_.size(); }
  [[nodiscard]] bool empty() const { return requests_.empty(); }

  [[nodiscard]] Megabytes total_megabytes() const;
  [[nodiscard]] SimTime horizon() const;

  /// Requests with arrival in [from, to), preserving order.
  [[nodiscard]] std::vector<Request> window(SimTime from, SimTime to) const;

  /// Per-client demand totals (MB) over the whole trace.
  [[nodiscard]] std::vector<Megabytes> demand_by_client(
      std::size_t num_clients) const;

  /// CSV round-trip (id,client,arrival,size_mb,object_id header included).
  void save_csv(std::ostream& out) const;
  static Trace load_csv(std::istream& in);

 private:
  std::vector<Request> requests_;
};

}  // namespace edr::workload
