// Per-epoch problem construction, shared by the simulator pipeline and the
// live runtime.
//
// The EDR paper's scheduler rebuilds its optimization instance at every
// epoch boundary from the alive replica set, the batched demand, the
// current tariff prices and the calibrated power model.  Both execution
// modes — the event-driven simulator (EpochPipeline) and the real-process
// runtime (src/runtime/) — must construct *bit-identical* instances from
// the same inputs, otherwise deterministic state-machine replication across
// transports breaks and the golden digests drift.  This module is the
// single definition of that construction; keep the floating-point operation
// order exactly as written.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "core/system.hpp"
#include "optim/problem.hpp"
#include "power/model.hpp"

namespace edr::core {

/// Inputs to the per-epoch problem construction.  Spans alias caller-owned
/// buffers; the spec is a cheap view, not an owner.
struct EpochProblemSpec {
  const SystemConfig* cfg = nullptr;
  /// Transfer window in seconds: epoch_length × transfer_window_fraction.
  /// Per-epoch replica capacity is bandwidth (MB/s) times this window.
  double window = 0.0;
  /// Wall/sim time of the epoch start — tariff lookups read prices here.
  double now = 0.0;
  /// Problem row -> client id (clients with demand and a feasible replica).
  std::span<const std::uint32_t> active_clients;
  /// Problem column -> replica id (alive replicas).
  std::span<const std::size_t> active_replicas;
  /// Per-replica power models; empty = `shared_model` for every host.
  std::span<const power::PowerModel> models;
  const power::PowerModel* shared_model = nullptr;

  [[nodiscard]] const power::PowerModel& model_of(std::size_t n) const {
    return models.empty() ? *shared_model : models[n];
  }
};

/// Build the epoch's scheduling problem: tariff-adjusted prices, energy
/// coefficients derived from the power model (when enabled), windowed
/// capacities, and the active-submatrix latency view.  `demands` is the
/// per-active-client demand vector (MB), consumed into the problem.
[[nodiscard]] optim::Problem make_epoch_problem(const EpochProblemSpec& spec,
                                                std::vector<Megabytes> demands);

/// Admission control for demand spikes: when the instance is
/// transport-infeasible even against pooled capacity, scale all demands by
/// one uniform factor and rebuild — routed/total·0.999 when that is
/// routable, otherwise the largest routable factor found by bisection.
/// Returns the shed fraction (0 when the instance was already feasible).
/// Callers decide what happens to the shed megabytes (the pipeline
/// re-queues them through its retry backlog).
double shed_to_feasible(std::optional<optim::Problem>& problem,
                        Milliseconds max_latency);

}  // namespace edr::core
