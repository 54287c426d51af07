#include "baselines/donar_algorithm.hpp"

#include <stdexcept>

#include "core/algorithm_registry.hpp"
#include "core/system.hpp"
#include "net/wire.hpp"

namespace edr::baselines {

namespace {
constexpr core::MessageTypeInfo kDonarTypes[] = {
    {kDonarRequest, "donar_request", /*round=*/false},
    {kDonarAggregate, "donar_aggregate", /*round=*/true},
    {kDonarAssignment, "donar_assignment", /*round=*/false},
};
}  // namespace

DonarAlgorithm::DonarAlgorithm(DonarOptions options) : options_(options) {
  if (options_.num_mapping_nodes == 0)
    throw std::invalid_argument(
        "DonarAlgorithm: need at least one mapping node");
}

std::span<const core::MessageTypeInfo> DonarAlgorithm::message_types() const {
  return kDonarTypes;
}

void DonarAlgorithm::announce_targets(std::uint32_t client,
                                      std::size_t num_solvers,
                                      std::vector<std::size_t>& out) const {
  // One request message to the owning mapping node only.
  out.clear();
  out.push_back(client % num_solvers);
}

void DonarAlgorithm::plan_assignments(
    const core::EpochContext& ctx,
    std::vector<core::PlannedMessage>& out) const {
  // One assignment per client, from its owner (the EDR default would have
  // every replica notify every client).
  out.clear();
  for (const std::uint32_t c : *ctx.active_clients)
    out.push_back({core::Endpoint::kSolver, c % ctx.num_solvers,
                   core::Endpoint::kClient, c, kDonarAssignment, 16});
}

double DonarAlgorithm::compute_factor(const core::EpochContext& ctx) const {
  (void)ctx;
  return static_cast<double>(options_.inner_steps);
}

void DonarAlgorithm::begin_epoch(const core::EpochContext& ctx) {
  engine_ = std::make_unique<DonarEngine>(*ctx.problem, options_);
  last_round_ = {};
  previous_loads_.assign(ctx.problem->num_replicas(), 0.0);
}

void DonarAlgorithm::plan_round(const core::EpochContext& ctx,
                                std::vector<core::PlannedMessage>& out) const {
  // Every mapping node broadcasts its load aggregate to every peer.
  out.clear();
  const std::size_t bytes =
      net::wire_size_doubles(ctx.problem->num_replicas());
  for (std::size_t i = 0; i < ctx.num_solvers; ++i) {
    for (std::size_t j = 0; j < ctx.num_solvers; ++j) {
      if (i == j) continue;
      out.push_back({core::Endpoint::kSolver, i, core::Endpoint::kSolver, j,
                     kDonarAggregate, bytes});
    }
  }
}

bool DonarAlgorithm::step_round(const core::EpochContext& ctx) {
  (void)ctx;
  last_round_ = engine_->round();
  return engine_->converged() ||
         engine_->rounds_executed() >= options_.max_rounds;
}

void DonarAlgorithm::observe(const core::EpochContext& ctx,
                             std::vector<telemetry::RoundSample>& out) {
  if (!engine_ || engine_->rounds_executed() == 0) return;
  const auto& loads = engine_->aggregate();
  const auto& replicas = *ctx.active_replicas;
  const std::size_t mapping_nodes = options_.num_mapping_nodes;
  for (std::size_t col = 0; col < replicas.size(); ++col) {
    const double load = loads[col];
    telemetry::RoundSample sample;
    sample.round = engine_->rounds_executed();
    sample.replica = static_cast<std::uint32_t>(replicas[col]);
    // DONAR's objective is joint across mapping nodes, not per replica;
    // every sample carries the global value, with the allocation movement
    // standing in for the (absent) gradient/disagreement signals.
    sample.objective = last_round_.objective;
    sample.round_objective = last_round_.objective;
    sample.gradient_norm = last_round_.movement;
    sample.disagreement = last_round_.movement;
    sample.capacity_slack = ctx.problem->replica(col).bandwidth - load;
    sample.load = load;
    sample.load_delta = load - previous_loads_[col];
    // Round traffic belongs to the mapping nodes, not the replicas;
    // charge the epoch totals through the first sample.
    if (col == 0) {
      sample.messages_sent = mapping_nodes * (mapping_nodes - 1);
      sample.bytes_sent = mapping_nodes * engine_->bytes_per_node_round();
    }
    out.push_back(sample);
    previous_loads_[col] = load;
  }
}

Matrix DonarAlgorithm::extract_allocation(const core::EpochContext& ctx) {
  (void)ctx;
  Matrix allocation = engine_->solution();
  engine_.reset();
  return allocation;
}

void DonarAlgorithm::abort_epoch() { engine_.reset(); }

void register_donar_algorithm() {
  core::AlgorithmRegistry::instance().add(
      "donar",
      "Latency-first mapping-node baseline (no energy model)",
      [](const core::SystemConfig&) {
        return std::make_unique<DonarAlgorithm>(DonarOptions{});
      });
}

}  // namespace edr::baselines
