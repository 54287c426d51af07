// DONAR as a DistributedAlgorithm backend.
//
// The related-work baseline (distributed mapping nodes running a
// consensus-ish balance iteration) hosted by EdrSystem like the EDR
// schedulers.  It declares its mapping nodes through mapping_nodes(), so
// the pipeline runs the paper's Fig 9 deployment: the mapping nodes (not
// the replicas) solve, every path rides the default interconnect link, and
// only decision latency is modelled (no power, no transfers, no ring).
// Each client announces only to its owning node, and one assignment per
// client flows back from that owner.
#pragma once

#include <memory>
#include <vector>

#include "baselines/donar.hpp"
#include "core/algorithm.hpp"

namespace edr::baselines {

/// DONAR's message-type ids (below the ring's 100-199 range, disjoint from
/// the host protocol and the EDR round types).
enum DonarMessageType : int {
  kDonarRequest = 50,     ///< client -> owning mapping node: new request
  kDonarAggregate = 51,   ///< mapping node -> mapping node: load aggregate
  kDonarAssignment = 52,  ///< owning mapping node -> client: final share
};

class DonarAlgorithm final : public core::DistributedAlgorithm {
 public:
  /// Throws std::invalid_argument when options.num_mapping_nodes is 0
  /// (zero would declare a deployment where the replicas solve).
  explicit DonarAlgorithm(DonarOptions options);

  [[nodiscard]] const char* name() const override { return "donar"; }
  [[nodiscard]] const char* display_name() const override { return "DONAR"; }
  [[nodiscard]] std::size_t mapping_nodes() const override {
    return options_.num_mapping_nodes;
  }
  [[nodiscard]] std::span<const core::MessageTypeInfo> message_types()
      const override;

  [[nodiscard]] int announce_type() const override { return kDonarRequest; }
  void announce_targets(std::uint32_t client, std::size_t num_solvers,
                        std::vector<std::size_t>& out) const override;

  [[nodiscard]] int assignment_type() const override {
    return kDonarAssignment;
  }
  void plan_assignments(const core::EpochContext& ctx,
                        std::vector<core::PlannedMessage>& out) const override;

  [[nodiscard]] double compute_factor(
      const core::EpochContext& ctx) const override;
  void begin_epoch(const core::EpochContext& ctx) override;
  void plan_round(const core::EpochContext& ctx,
                  std::vector<core::PlannedMessage>& out) const override;
  bool step_round(const core::EpochContext& ctx) override;
  void observe(const core::EpochContext& ctx,
               std::vector<telemetry::RoundSample>& out) override;
  Matrix extract_allocation(const core::EpochContext& ctx) override;
  void abort_epoch() override;

 private:
  DonarOptions options_;
  std::unique_ptr<DonarEngine> engine_;
  DonarRoundStats last_round_;
  std::vector<double> previous_loads_;  // for per-replica load deltas
};

/// Add "donar" (default DonarOptions) to the process-wide algorithm
/// registry.  Idempotent; tests and tools that want
/// `SystemConfig::algorithm = "donar"` call it before building EdrSystem.
void register_donar_algorithm();

}  // namespace edr::baselines
