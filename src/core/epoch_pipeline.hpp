// EpochPipeline — the algorithm-agnostic runtime every scheduler runs on.
//
// One pipeline instance drives a whole workload trace end to end:
// membership (heartbeat ring, crash/recovery), the epoch schedule (its
// batches are assembled by core::EpochBatch, as on the live runtime), the
// solve loop (message rounds against a delivery barrier for iterative
// backends, a single compute delay for one-shot ones), assignment fan-out,
// paced file transfers, and power/energy accounting.  Everything
// solver-specific is delegated to the attached DistributedAlgorithm
// strategy; this file contains no per-algorithm branches.
//
// EdrSystem is the only host.  The backend picks the deployment through
// DistributedAlgorithm::mapping_nodes(): by default the replicas are the
// solvers (per-client links, power metering, heartbeat ring, 70% transfer
// window); DONAR declares mapping nodes, which solve on the default links
// with only decision latency modelled (paper Fig 9).
#pragma once

#include <any>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/algorithm.hpp"
#include "core/epoch_problem.hpp"
#include "core/system.hpp"

namespace edr::core {

/// Share of each epoch the replicas reserve for paced file transfers; the
/// rest is the solve / listen "valley" visible between the power peaks of
/// Figs 3-4.  A mapping-node deployment models no transfers and plans
/// against the full epoch.
inline constexpr double kTransferWindowFraction = 0.7;

class EpochPipeline {
 public:
  EpochPipeline(SystemConfig config,
                std::unique_ptr<DistributedAlgorithm> algorithm,
                workload::Trace trace);
  ~EpochPipeline();
  EpochPipeline(const EpochPipeline&) = delete;
  EpochPipeline& operator=(const EpochPipeline&) = delete;

  /// Replica faults; both throw std::invalid_argument when the backend
  /// declares mapping nodes (no replica is a network node there).
  void inject_failure(std::size_t replica, SimTime when);
  void inject_recovery(std::size_t replica, SimTime when);
  void inject_link_change(const LinkDegradation& change, SimTime when);

  /// Execute the whole trace; may be called once.
  RunReport run();

  [[nodiscard]] const SystemConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t num_replicas() const { return num_replicas_; }

 private:
  // --- configuration and substrate ---
  SystemConfig cfg_;
  std::unique_ptr<DistributedAlgorithm> algorithm_;
  workload::Trace trace_;
  Rng rng_;
  net::Simulator sim_;
  net::SimNetwork network_{sim_};
  // (client, replica) pairs with a set_link override in both directions:
  // a per-client bandwidth cut moved them off the link model.
  std::set<std::pair<std::size_t, std::size_t>> overridden_pairs_;

  std::size_t num_replicas_ = 0;
  std::size_t num_clients_ = 0;
  std::size_t num_solvers_ = 0;
  // The backend declared mapping nodes (DONAR): they are the solvers, every
  // path rides the default interconnect link, and only decision latency is
  // modelled, so there is no ring, no power metering, no file transfer and
  // no drop of unreachable clients; the whole epoch is usable capacity and
  // the event loop runs dry.  Off, the replicas are the solvers.
  bool decision_only_ = false;

  // node id layout: solvers [0, S), clients [S, S+C)
  [[nodiscard]] net::NodeId solver_node(std::size_t s) const {
    return static_cast<net::NodeId>(s);
  }
  [[nodiscard]] net::NodeId client_node(std::size_t c) const {
    return static_cast<net::NodeId>(num_solvers_ + c);
  }
  [[nodiscard]] net::NodeId node_of(Endpoint kind, std::size_t index) const {
    return kind == Endpoint::kSolver ? solver_node(index)
                                     : client_node(index);
  }

  // --- per-replica state ---
  std::vector<power::ActivityTimeline> timelines_;
  std::vector<SimTime> death_time_;
  std::vector<std::vector<std::pair<SimTime, SimTime>>> down_intervals_;
  std::vector<SimTime> transfer_until_;
  std::vector<std::unique_ptr<cluster::RingNode>> rings_;

  // --- epoch machinery ---
  std::vector<std::vector<PendingRequest>> epoch_buckets_;
  std::deque<std::size_t> solve_queue_;  // epochs awaiting a solve
  bool solve_in_flight_ = false;
  std::uint64_t solve_generation_ = 0;  // bumped on membership change

  // state of the in-flight solve; batch_.alive is also the membership view
  // every handler checks
  std::size_t current_epoch_ = 0;
  EpochBatch batch_;
  std::size_t round_msgs_pending_ = 0;
  std::uint64_t pending_generation_ = 0;
  SimTime solve_started_ = 0.0;
  std::vector<PlannedMessage> plan_scratch_;
  std::vector<std::size_t> announce_scratch_;
  bool synthetic_epoch_scheduled_ = false;

  std::map<std::size_t, std::size_t> expected_assignments_;
  std::map<std::size_t, std::vector<SimTime>> pending_responses_;

  // --- metrics ---
  RunReport report_;
  std::size_t requests_dropped_ = 0;
  power::PowerModel power_model_;          // homogeneous default
  std::vector<power::PowerModel> models_;  // one per replica
  [[nodiscard]] const power::PowerModel& model_of(std::size_t n) const {
    return models_.empty() ? power_model_ : models_[n];
  }

  // --- telemetry (sink handles / disabled tracer when telemetry unset) ---
  SimTime round_started_ = 0.0;
  SimTime exchange_started_ = 0.0;
  telemetry::Counter epochs_metric_;
  telemetry::Counter rounds_metric_;
  telemetry::Counter requests_served_metric_;
  telemetry::Counter requests_dropped_metric_;
  telemetry::Histogram response_metric_;
  [[nodiscard]] telemetry::EventTracer& tracer();

  // Opt-in observability (null unless enabled on the telemetry context
  // before construction) plus the causal-span ids of the in-flight epoch
  // and round.
  telemetry::FlightRecorder* recorder_ = nullptr;
  telemetry::ConvergenceMonitor* monitor_ = nullptr;
  std::vector<telemetry::RoundSample> sample_scratch_;
  std::uint64_t epoch_span_ = 0;
  std::uint64_t round_span_ = 0;
  void record_observation();

  [[nodiscard]] EpochContext context() const;

  void setup_links();
  void attach_nodes();
  void start_ring();
  void bucket_requests();
  void schedule_epoch_boundaries();

  void send_control(net::NodeId from, net::NodeId to, int type,
                    std::size_t bytes, std::any payload = {});
  void on_solver_message(std::size_t s, const net::Message& msg);
  void on_client_message(const net::Message& msg);

  void on_member_dead(net::NodeId dead);

  void set_activity(std::size_t n, power::Activity activity,
                    double intensity);
  void set_all_selecting(bool selecting);
  [[nodiscard]] double selection_intensity() const;

  void maybe_start_solve();
  void start_solve(std::size_t epoch);
  [[nodiscard]] SimTime compute_delay() const;
  void schedule_round(std::uint64_t generation, SimTime extra_delay = 0.0);
  void launch_round_messages(std::uint64_t generation);
  void on_round_message(const net::Message& msg);
  void complete_round(std::uint64_t generation);
  void finish_solve(Matrix allocation);
  void schedule_backlog_epoch();
  void on_assignment_delivered(const net::Message& msg);

  RunReport finalize();
};

}  // namespace edr::core
