#include "core/epoch_problem.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "optim/flow.hpp"

namespace edr::core {

optim::Problem make_epoch_problem(const EpochProblemSpec& spec,
                                  std::vector<Megabytes> demands) {
  const SystemConfig& cfg = *spec.cfg;
  std::vector<optim::ReplicaParams> params;
  Matrix latency(spec.active_clients.size(), spec.active_replicas.size());
  for (std::size_t col = 0; col < spec.active_replicas.size(); ++col) {
    auto p = cfg.replicas[spec.active_replicas[col]];
    if (!cfg.tariffs.empty()) {
      // Tariff-blind mode (the ablation's control arm): the optimization
      // sees each region's mean price while the meter bills the true
      // time-varying one.
      const auto& tariff = cfg.tariffs[spec.active_replicas[col]];
      p.price = cfg.tariff_aware_scheduler ? tariff.at(spec.now)
                                           : tariff.mean_price();
    }
    if (cfg.derive_energy_model_from_power) {
      // Paced transfer of s MB at intensity s/(B·W) for W seconds burns
      //   W·[lin·s/(B·W) + poly·(s/(B·W))^γ]
      //     = (lin/B)·s + poly·W^{1-γ}·B^{-γ}·s^γ joules,
      // so these coefficients make the scheduling model equal the metered
      // active energy.
      const auto& pm = spec.model_of(spec.active_replicas[col]).params();
      p.gamma = pm.gamma;
      p.alpha = pm.transfer_linear / p.bandwidth;
      p.beta = pm.transfer_poly * std::pow(spec.window, 1.0 - p.gamma) *
               std::pow(p.bandwidth, -p.gamma);
    }
    p.bandwidth *= spec.window;
    params.push_back(p);
    for (std::size_t row = 0; row < spec.active_clients.size(); ++row)
      latency(row, col) = cfg.latency(spec.active_clients[row],
                                      spec.active_replicas[col]);
  }
  return optim::Problem(std::move(demands), std::move(params),
                        std::move(latency), cfg.max_latency);
}

double shed_to_feasible(std::optional<optim::Problem>& problem,
                        Milliseconds max_latency) {
  const auto transport = optim::check_transport_feasible(*problem);
  if (transport.feasible) return 0.0;
  Matrix lat(problem->num_clients(), problem->num_replicas());
  for (std::size_t row = 0; row < problem->num_clients(); ++row)
    for (std::size_t col = 0; col < problem->num_replicas(); ++col)
      lat(row, col) = problem->latency(row, col);
  const auto scaled = [&](double scale) {
    std::vector<Megabytes> demands = problem->demands();
    for (auto& d : demands) d *= scale;
    return optim::Problem(std::move(demands), problem->replicas(), lat,
                          max_latency);
  };
  double scale = transport.routed / problem->total_demand() * 0.999;
  optim::Problem shed = scaled(scale);
  if (!optim::check_transport_feasible(shed).feasible) {
    // A max flow above the scaled total does not make the proportionally
    // scaled demand vector routable: a client whose only replicas are
    // saturated keeps an unroutable share.  Bisect the uniform scale
    // between 0 (always routable) and the flow ratio instead.
    double lo = 0.0;
    double hi = scale;
    for (int step = 0; step < 40; ++step) {
      const double mid = 0.5 * (lo + hi);
      (optim::check_transport_feasible(scaled(mid)).feasible ? lo : hi) = mid;
    }
    scale = lo;
    shed = scaled(scale);
  }
  problem.emplace(std::move(shed));
  return 1.0 - scale;
}

std::vector<std::vector<PendingRequest>> bucket_by_epoch(
    std::span<const workload::Request> requests, std::size_t num_clients,
    double epoch_length, std::size_t num_epochs) {
  std::vector<std::vector<PendingRequest>> buckets(num_epochs);
  for (const auto& request : requests) {
    if (request.client >= num_clients)
      throw std::invalid_argument("epoch: request client out of range");
    const auto epoch = static_cast<std::size_t>(request.arrival / epoch_length);
    if (epoch >= num_epochs) continue;  // beyond the schedule
    buckets[epoch].push_back(
        {request.id, request.client, request.arrival, request.size_mb});
  }
  return buckets;
}

std::size_t EpochBatch::assemble(EpochProblemSpec spec,
                                 std::span<const PendingRequest> bucket,
                                 bool drop_unreachable_clients,
                                 Megabytes& abandoned_mb) {
  const SystemConfig& cfg = *spec.cfg;
  requests.assign(bucket.begin(), bucket.end());
  // Shed remainders from earlier epochs join whatever batch runs next.
  requests.insert(requests.end(), retry_backlog.begin(), retry_backlog.end());
  retry_backlog.clear();
  problem.reset();
  active_clients.clear();

  active_replicas.clear();
  for (std::size_t n = 0; n < alive.size(); ++n)
    if (alive[n]) active_replicas.push_back(n);
  if (active_replicas.empty()) {
    const std::size_t dropped = requests.size();
    requests.clear();
    return dropped;
  }

  demand_scratch_.assign(cfg.num_clients, 0.0);
  for (const auto& request : requests)
    demand_scratch_[request.client] += request.size_mb;

  std::size_t dropped = 0;
  std::vector<Megabytes> demands;
  for (std::uint32_t c = 0; c < cfg.num_clients; ++c) {
    if (demand_scratch_[c] <= 0.0) continue;
    // Latency feasibility against the *alive* replica set (hosts that do
    // not bound decision latency admit everyone).
    bool reachable = !drop_unreachable_clients;
    for (const std::size_t n : active_replicas)
      if (cfg.latency(c, n) <= cfg.max_latency) reachable = true;
    if (!reachable) {
      for (const auto& request : requests)
        if (request.client == c) ++dropped;
      continue;
    }
    active_clients.push_back(c);
    demands.push_back(demand_scratch_[c]);
  }
  kept_scratch_.clear();
  for (const auto& request : requests)
    for (const std::uint32_t c : active_clients)
      if (request.client == c) {
        kept_scratch_.push_back(request);
        break;
      }
  // Swap rather than move so the displaced buffer's capacity is reused by
  // the next epoch's filter pass.
  std::swap(requests, kept_scratch_);
  if (active_clients.empty()) return dropped;

  spec.active_clients = active_clients;
  spec.active_replicas = active_replicas;
  problem.emplace(make_epoch_problem(spec, std::move(demands)));

  // Demand can exceed even the pooled epoch capacity under a traffic
  // spike; shed proportionally (admission control) so the optimization
  // stays feasible.  The shed fraction of each request re-enters the next
  // epoch's batch (the client retry loop of a real deployment) until its
  // retry budget runs out.
  const double shed_fraction = shed_to_feasible(problem, cfg.max_latency);
  if (shed_fraction > 0.0) {
    for (auto& request : requests) {
      const double shed_mb = request.size_mb * shed_fraction;
      request.size_mb -= shed_mb;
      if (cfg.retry_shed && request.retries < cfg.max_retries) {
        PendingRequest remainder = request;
        remainder.size_mb = shed_mb;
        remainder.retries += 1;
        retry_backlog.push_back(remainder);
      } else {
        abandoned_mb += shed_mb;
      }
    }
  }
  return dropped;
}

EpochContext EpochBatch::context(std::size_t num_clients,
                                 std::size_t num_solvers,
                                 telemetry::Telemetry* telemetry) const {
  EpochContext ctx;
  ctx.problem = problem ? &*problem : nullptr;
  ctx.active_replicas = &active_replicas;
  ctx.active_clients = &active_clients;
  ctx.requests = &requests;
  ctx.replica_alive = &alive;
  ctx.num_replicas = alive.size();
  ctx.num_clients = num_clients;
  ctx.num_solvers = num_solvers;
  ctx.telemetry = telemetry;
  return ctx;
}

}  // namespace edr::core
