#include "core/system.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/math_util.hpp"
#include "core/algorithm_registry.hpp"
#include "core/epoch_pipeline.hpp"

namespace edr::core {

double RunReport::mean_response_ms() const {
  return mean(std::span<const double>{response_times_ms});
}

double RunReport::p99_response_ms() const {
  return percentile(response_times_ms, 99.0);
}

Matrix make_latency_matrix(Rng& rng, std::size_t num_clients,
                           std::size_t num_replicas, Milliseconds min_latency,
                           Milliseconds max_latency_link, Milliseconds bound) {
  Matrix latency(num_clients, num_replicas);
  for (std::size_t c = 0; c < num_clients; ++c) {
    for (std::size_t n = 0; n < num_replicas; ++n)
      latency(c, n) = rng.uniform(min_latency, max_latency_link);
    std::size_t best = 0;
    for (std::size_t n = 1; n < num_replicas; ++n)
      if (latency(c, n) < latency(c, best)) best = n;
    latency(c, best) = std::min(latency(c, best), bound * 0.5);
  }
  return latency;
}

EdrSystem::EdrSystem(SystemConfig config, workload::Trace trace) {
  auto algorithm = make_algorithm(config);
  impl_ = std::make_unique<EpochPipeline>(
      std::move(config), std::move(algorithm), std::move(trace));
}

EdrSystem::~EdrSystem() = default;

const SystemConfig& EdrSystem::config() const { return impl_->config(); }

void EdrSystem::inject_failure(std::size_t replica, SimTime when) {
  if (replica >= impl_->num_replicas())
    throw std::out_of_range("EdrSystem::inject_failure: bad replica index");
  impl_->inject_failure(replica, when);
}

void EdrSystem::inject_recovery(std::size_t replica, SimTime when) {
  if (replica >= impl_->num_replicas())
    throw std::out_of_range("EdrSystem::inject_recovery: bad replica index");
  impl_->inject_recovery(replica, when);
}

void EdrSystem::inject_link_change(const LinkDegradation& change,
                                   SimTime when) {
  if (change.replica >= static_cast<int>(impl_->num_replicas()))
    throw std::out_of_range(
        "EdrSystem::inject_link_change: bad replica index");
  if (change.client >= static_cast<int>(impl_->config().num_clients))
    throw std::out_of_range(
        "EdrSystem::inject_link_change: bad client index");
  if (change.latency_factor <= 0.0 || change.bandwidth_factor <= 0.0)
    throw std::invalid_argument(
        "EdrSystem::inject_link_change: factors must be positive");
  impl_->inject_link_change(change, when);
}

RunReport EdrSystem::run() { return impl_->run(); }

}  // namespace edr::core
