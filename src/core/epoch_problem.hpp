// One scheduling epoch, shared by the simulator pipeline (EpochPipeline)
// and the live runtime (LiveReplica).
//
// The EDR paper's replicas batch arriving requests into epochs and rebuild
// the optimization at every epoch boundary from the alive replica set, the
// batched demand, the current prices and the calibrated power model.  Both
// drivers must build *bit-identical* instances from the same inputs, or
// replication across transports breaks, the golden digests drift, and sim
// and live epochs stop comparing 1:1.  This module is the single
// definition: bucket_by_epoch, then EpochBatch::assemble (backlog merge,
// reachability, problem build, admission control, retry remainders) and
// EpochBatch::context.  Keep the floating-point operation order as written.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "core/algorithm.hpp"
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

/// Bucket `requests` into `num_epochs` epochs by floor(arrival /
/// epoch_length), preserving order; requests past the last bucket are
/// beyond the schedule and skipped.  Throws std::invalid_argument on a
/// client id >= num_clients.
[[nodiscard]] std::vector<std::vector<PendingRequest>> bucket_by_epoch(
    std::span<const workload::Request> requests, std::size_t num_clients,
    double epoch_length, std::size_t num_epochs);

/// The in-flight epoch, reused epoch after epoch (buffers keep capacity).
class EpochBatch {
 public:
  /// Liveness per replica id, kept current by the driver (the simulator
  /// flips it on crash/recovery, also mid-solve; live copies kStart's mask).
  std::vector<bool> alive;
  /// Shed remainders awaiting the next assemble().
  std::vector<PendingRequest> retry_backlog;

  std::optional<optim::Problem> problem;      ///< empty: nothing to schedule
  std::vector<std::size_t> active_replicas;   ///< problem column -> replica
  std::vector<std::uint32_t> active_clients;  ///< problem row -> client
  std::vector<PendingRequest> requests;       ///< sizes after shedding

  /// Merge `bucket` with the retry backlog, keep clients with demand and
  /// (under `drop_unreachable_clients`) a latency-feasible alive replica,
  /// build the problem from `spec` (active spans filled here), shed to
  /// feasibility and queue each remainder while its retry budget lasts;
  /// spent ones are added to `abandoned_mb` request by request.  Returns
  /// the requests dropped: all with no alive replica, else unreachable
  /// clients' ones.
  std::size_t assemble(EpochProblemSpec spec,
                       std::span<const PendingRequest> bucket,
                       bool drop_unreachable_clients, Megabytes& abandoned_mb);

  [[nodiscard]] EpochContext context(std::size_t num_clients,
                                     std::size_t num_solvers,
                                     telemetry::Telemetry* telemetry) const;

 private:
  std::vector<double> demand_scratch_;
  std::vector<PendingRequest> kept_scratch_;
};

}  // namespace edr::core
