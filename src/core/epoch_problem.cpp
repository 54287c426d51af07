#include "core/epoch_problem.hpp"

#include <cmath>
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

}  // namespace edr::core
