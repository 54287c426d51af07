#include "workload/trace.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/csv.hpp"
#include "common/math_util.hpp"
#include "workload/arrivals.hpp"
#include "workload/zipf.hpp"

namespace edr::workload {

Trace::Trace(std::vector<Request> requests) : requests_(std::move(requests)) {
  std::ranges::stable_sort(requests_, [](const Request& a, const Request& b) {
    return a.arrival < b.arrival;
  });
}

Trace Trace::generate(Rng& rng, const AppProfile& app,
                      const TraceOptions& options) {
  DiurnalParams diurnal = options.diurnal;
  if (options.compress_day_into_horizon) diurnal.day_length = options.horizon;
  const DiurnalCurve curve{diurnal};
  const ZipfSampler zipf{app.num_objects, app.zipf_exponent};

  const auto& flash = options.flash;
  const bool has_flash = flash.duration > 0.0 && flash.multiplier > 1.0;
  auto in_flash = [&](SimTime t) {
    return has_flash && t >= flash.start && t < flash.start + flash.duration;
  };

  std::vector<SimTime> times;
  if (!has_flash) {
    times = diurnal_arrivals(rng, curve, app.base_rate_hz, options.horizon);
  } else {
    const double bound = app.base_rate_hz * curve.params().peak_multiplier *
                         flash.multiplier;
    times = nonhomogeneous_arrivals(
        rng,
        [&](SimTime t) {
          return app.base_rate_hz * curve.multiplier(t) *
                 (in_flash(t) ? flash.multiplier : 1.0);
        },
        bound, options.horizon);
  }

  std::vector<Request> requests;
  requests.reserve(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    Request request;
    request.id = i;
    request.client = static_cast<std::uint32_t>(
        rng.bounded(options.num_clients));
    request.arrival = times[i];
    request.size_mb = app.sample_size(rng);
    // During a flash crowd most requests chase the viral object.
    request.object_id = in_flash(times[i]) && rng.uniform() < 0.8
                            ? flash.hot_object
                            : zipf.sample(rng);
    requests.push_back(request);
  }
  return Trace{std::move(requests)};
}

Megabytes Trace::total_megabytes() const {
  KahanSum total;
  for (const auto& request : requests_) total.add(request.size_mb);
  return total.value();
}

SimTime Trace::horizon() const {
  return requests_.empty() ? 0.0 : requests_.back().arrival;
}

std::vector<Request> Trace::window(SimTime from, SimTime to) const {
  std::vector<Request> out;
  for (const auto& request : requests_)
    if (request.arrival >= from && request.arrival < to)
      out.push_back(request);
  return out;
}

std::vector<Megabytes> Trace::demand_by_client(std::size_t num_clients) const {
  std::vector<Megabytes> demands(num_clients, 0.0);
  for (const auto& request : requests_) {
    if (request.client >= num_clients)
      throw std::out_of_range("Trace::demand_by_client: client out of range");
    demands[request.client] += request.size_mb;
  }
  return demands;
}

void Trace::save_csv(std::ostream& out) const {
  CsvWriter csv(out);
  csv.row({"id", "client", "arrival", "size_mb", "object_id"});
  for (const auto& request : requests_) {
    csv.field(static_cast<std::size_t>(request.id))
        .field(static_cast<std::size_t>(request.client))
        .field(request.arrival)
        .field(request.size_mb)
        .field(static_cast<std::size_t>(request.object_id));
    csv.end_row();
  }
}

bool well_formed(const Request& request) {
  return std::isfinite(request.arrival) && request.arrival >= 0.0 &&
         std::isfinite(request.size_mb) && request.size_mb >= 0.0;
}

Trace Trace::load_csv(std::istream& in) {
  std::vector<Request> requests;
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (header) {
      header = false;
      continue;
    }
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string field;
    Request request;
    auto next = [&]() -> std::string {
      if (!std::getline(fields, field, ','))
        throw std::invalid_argument("Trace::load_csv: short row: " + line);
      return field;
    };
    request.id = std::stoull(next());
    request.client = static_cast<std::uint32_t>(std::stoul(next()));
    request.arrival = std::stod(next());
    request.size_mb = std::stod(next());
    request.object_id = std::stoull(next());
    if (!well_formed(request))
      throw std::invalid_argument(
          "Trace::load_csv: arrival and size must be finite and >= 0: " +
          line);
    requests.push_back(request);
  }
  return Trace{std::move(requests)};
}

}  // namespace edr::workload
