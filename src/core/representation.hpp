// The solver-representation knob: which traffic model the iterative engines
// (CDPSM, LDDM, ADMM) charge, and whether they solve on client classes.
//
// Storage is always compact: every engine keeps its iterates on the
// latency-feasible pairs only (CSR-by-client, common/sparse.hpp), because
// those are the only variables.  The value decides everything around that
// one round loop:
//
//  * kDense      — the all-pairs traffic model: LDDM/ADMM charge every
//                  client<->replica pair, CDPSM ships a full |C|x|N| matrix
//                  frame; warm start carries state across epochs, and live
//                  replicas report dense (kDenseColumn) epoch-done frames.
//                  The golden-equivalence digests pin this value.
//  * kSparse     — traffic on the feasible pairs only: one indexed report
//                  per pair, indexed CDPSM frames, compact epoch-done
//                  frames.  Iterates are bit-identical to kDense.
//  * kAggregated — kSparse plus the client equivalence-class transform:
//                  clients with identical feasible-replica sets collapse to
//                  one aggregate row, the engine solves per class, and the
//                  allocation fans back out by demand share (exact — see
//                  core/aggregation.hpp and DESIGN.md §12).
//
// The knob threads from SystemConfig through the algorithm registry into
// CdpsmOptions/LddmOptions/AdmmOptions; backends without an iterative
// engine (central, rr, donar) ignore it.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace edr::core {

enum class SolverRepresentation { kDense, kSparse, kAggregated };

[[nodiscard]] constexpr std::string_view to_string(
    SolverRepresentation representation) {
  switch (representation) {
    case SolverRepresentation::kDense:
      return "dense";
    case SolverRepresentation::kSparse:
      return "sparse";
    case SolverRepresentation::kAggregated:
      return "aggregated";
  }
  return "dense";
}

[[nodiscard]] inline std::optional<SolverRepresentation>
parse_representation(std::string_view name) {
  if (name == "dense") return SolverRepresentation::kDense;
  if (name == "sparse") return SolverRepresentation::kSparse;
  if (name == "aggregated") return SolverRepresentation::kAggregated;
  return std::nullopt;
}

}  // namespace edr::core
