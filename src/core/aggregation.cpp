#include "core/aggregation.hpp"

#include <cstring>
#include <string>
#include <unordered_map>

namespace edr::core {

ClientAggregation build_client_aggregation(const optim::Problem& problem) {
  const common::SparsityPattern& pattern = *problem.sparsity();
  const std::size_t clients = problem.num_clients();

  ClientAggregation agg;
  agg.class_of.resize(clients);
  agg.share.resize(clients, 0.0);

  // Key each client by the raw bytes of its sorted feasible-replica id list
  // (row_cols is ascending by construction).  Classes are numbered by first
  // appearance so the mapping is deterministic.
  std::unordered_map<std::string, std::uint32_t> class_ids;
  class_ids.reserve(clients);
  std::string key;
  for (std::size_t c = 0; c < clients; ++c) {
    const auto cols = pattern.row_cols(c);
    key.assign(reinterpret_cast<const char*>(cols.data()),
               cols.size_bytes());
    const auto [it, inserted] = class_ids.try_emplace(
        key, static_cast<std::uint32_t>(agg.representative.size()));
    if (inserted) {
      agg.representative.push_back(static_cast<std::uint32_t>(c));
      agg.class_demand.push_back(0.0);
    }
    agg.class_of[c] = it->second;
    agg.class_demand[it->second] += problem.demand(c);
  }
  for (std::size_t c = 0; c < clients; ++c) {
    const double total = agg.class_demand[agg.class_of[c]];
    if (total > 0.0) agg.share[c] = problem.demand(c) / total;
  }
  return agg;
}

optim::Problem aggregate_problem(const optim::Problem& problem,
                                 const ClientAggregation& agg) {
  const std::size_t classes = agg.num_classes();
  Matrix latency(classes, problem.num_replicas());
  for (std::size_t k = 0; k < classes; ++k)
    for (std::size_t n = 0; n < problem.num_replicas(); ++n)
      latency(k, n) = problem.latency(agg.representative[k], n);
  return optim::Problem(agg.class_demand, problem.replicas(),
                        std::move(latency), problem.max_latency());
}

void expand_allocation(const ClientAggregation& agg, const Matrix& aggregated,
                       Matrix& out) {
  const std::size_t clients = agg.class_of.size();
  const std::size_t replicas = aggregated.cols();
  out.reshape(clients, replicas, 0.0);
  for (std::size_t c = 0; c < clients; ++c) {
    const double w = agg.share[c];
    if (w == 0.0) continue;
    const auto src = aggregated.row(agg.class_of[c]);
    const auto dst = out.row(c);
    for (std::size_t n = 0; n < replicas; ++n) dst[n] = w * src[n];
  }
}

Matrix expand_solution(const common::SparseAllocation& solution,
                       const ClientAggregation* agg) {
  Matrix dense;
  if (agg == nullptr) {
    solution.to_dense(dense);
    return dense;
  }
  thread_local Matrix aggregated;
  solution.to_dense(aggregated);
  expand_allocation(*agg, aggregated, dense);
  return dense;
}

}  // namespace edr::core
