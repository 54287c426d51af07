// Sparse / aggregated representation equivalence.
//
// The representation knob changes how the iterative engines STORE their
// iterates, not what they solve: kSparse keeps the same algorithm on the
// latency-feasible pairs only, kAggregated additionally collapses client
// equivalence classes (an exact transform — DESIGN.md §12).  These tests
// pin that contract end to end:
//
//  * the full system, every registry backend, all three representations —
//    non-iterative backends (central, rr, donar) ignore the knob and must
//    be byte-identical; the iterative ones (lddm, cdpsm) must agree to
//    solver tolerance;
//  * the engines head-to-head on one Problem: dense and sparse storage give
//    bitwise-equal solutions in equal rounds, aggregated stays feasible and
//    near the dense objective;
//  * a 10^5-client geo-local instance solving within a single-digit-seconds
//    wall budget — the scale the dense path cannot touch.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <cmath>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/report_json.hpp"
#include "baselines/donar_algorithm.hpp"
#include "core/admm.hpp"
#include "core/cdpsm.hpp"
#include "core/lddm.hpp"
#include "core/representation.hpp"
#include "core/system.hpp"
#include "optim/instance.hpp"
#include "optim/problem.hpp"
#include "optim/solver.hpp"
#include "workload/apps.hpp"

namespace edr {
namespace {

constexpr core::SolverRepresentation kRepresentations[] = {
    core::SolverRepresentation::kDense,
    core::SolverRepresentation::kSparse,
    core::SolverRepresentation::kAggregated,
};

struct SystemRun {
  std::string json;
  double total_cost = 0.0;
  double megabytes_served = 0.0;
};

SystemRun run_system(const std::string& algorithm,
                     core::SolverRepresentation representation) {
  auto cfg = analysis::paper_config(algorithm, 7);
  cfg.representation = representation;
  core::EdrSystem system(
      cfg, analysis::paper_trace(workload::distributed_file_service(), 42,
                                 8.0));
  const auto report = system.run();
  return {analysis::report_to_json(report, algorithm), report.total_cost,
          report.megabytes_served};
}

TEST(SparseEquivalence, NonIterativeBackendsIgnoreTheKnob) {
  baselines::register_donar_algorithm();
  for (const char* algorithm : {"central", "rr", "donar"}) {
    const auto dense = run_system(algorithm, kRepresentations[0]);
    for (std::size_t i = 1; i < 3; ++i) {
      const auto compact = run_system(algorithm, kRepresentations[i]);
      EXPECT_EQ(compact.json, dense.json)
          << algorithm << " diverged under "
          << core::to_string(kRepresentations[i]);
    }
  }
}

TEST(SparseEquivalence, IterativeBackendsAgreeToSolverTolerance) {
  for (const char* algorithm : {"lddm", "cdpsm"}) {
    const auto dense = run_system(algorithm, kRepresentations[0]);
    ASSERT_GT(dense.total_cost, 0.0);
    for (std::size_t i = 1; i < 3; ++i) {
      const auto compact = run_system(algorithm, kRepresentations[i]);
      EXPECT_NEAR(compact.total_cost, dense.total_cost,
                  2e-2 * dense.total_cost)
          << algorithm << " cost diverged under "
          << core::to_string(kRepresentations[i]);
      EXPECT_NEAR(compact.megabytes_served, dense.megabytes_served,
                  1e-6 * dense.megabytes_served)
          << algorithm << " served mass diverged under "
          << core::to_string(kRepresentations[i]);
    }
  }
}

/// One engine run under a given storage: the recovered solution and the
/// rounds it took.
struct EngineRun {
  Matrix solution;
  std::size_t rounds = 0;
};

EngineRun run_cdpsm(const optim::Problem& problem, core::CdpsmOptions options,
                    core::SolverRepresentation representation) {
  options.representation = representation;
  core::CdpsmEngine engine{problem, options};
  engine.run();
  return {engine.solution(), engine.rounds_executed()};
}

EngineRun run_lddm(const optim::Problem& problem, core::LddmOptions options,
                   core::SolverRepresentation representation) {
  options.representation = representation;
  core::LddmEngine engine{problem, options};
  engine.run();
  return {engine.solution(), engine.rounds_executed()};
}

EngineRun run_admm(const optim::Problem& problem, core::AdmmOptions options,
                   core::SolverRepresentation representation) {
  options.representation = representation;
  core::AdmmEngine engine{problem, options};
  engine.run();
  return {engine.solution(), engine.rounds_executed()};
}

/// kDense and kSparse differ only in the traffic model they charge, so the
/// iterates must agree to the bit: equal solutions, equal round counts.
void expect_dense_equals_sparse(const char* name, const EngineRun& dense,
                                const EngineRun& sparse) {
  EXPECT_EQ(sparse.rounds, dense.rounds)
      << name << ": sparse and dense took different round counts";
  ASSERT_EQ(sparse.solution.rows(), dense.solution.rows()) << name;
  ASSERT_EQ(sparse.solution.cols(), dense.solution.cols()) << name;
  const auto a = dense.solution.flat();
  const auto b = sparse.solution.flat();
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(b[i]),
              std::bit_cast<std::uint64_t>(a[i]))
        << name << ": sparse solution differs from dense at flat index " << i
        << " (" << b[i] << " vs " << a[i] << ")";
}

TEST(SparseEquivalence, EnginesNearCentralizedOptimumUnderEveryStorage) {
  Rng rng{19};
  optim::GeoInstanceOptions geo;
  geo.num_clients = 300;
  geo.num_replicas = 8;
  geo.window = 3;
  const auto problem = optim::make_geo_instance(rng, geo);
  const auto central = optim::solve_centralized(problem);
  ASSERT_TRUE(central.has_value());
  const double optimum = central->cost;
  ASSERT_GT(optimum, 0.0);

  // kSparse runs the same iteration as kDense on the same compact storage;
  // only the charged traffic differs, so the two must be bitwise equal.
  // kAggregated follows a different (smaller) trajectory — it usually
  // converges CLOSER to the optimum at equal rounds — so it is only
  // required to be feasible, no worse than the dense iterate (plus slack),
  // and never below the true optimum.  How fast either engine approaches
  // the optimum is convergence behavior, not representation equivalence,
  // and is not pinned here.
  const auto check = [&](const char* name, auto&& run) {
    EngineRun runs[3];
    double objective[3] = {0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < 3; ++i) {
      runs[i] = run(kRepresentations[i]);
      EXPECT_TRUE(optim::check_feasibility(problem, runs[i].solution).ok(1e-4))
          << name << " infeasible under "
          << core::to_string(kRepresentations[i]);
      objective[i] = problem.total_cost(runs[i].solution);
      EXPECT_GE(objective[i], optimum * (1.0 - 1e-6))
          << name << " beat the optimum under "
          << core::to_string(kRepresentations[i]);
    }
    expect_dense_equals_sparse(name, runs[0], runs[1]);
    EXPECT_LE(objective[2], objective[0] * 1.10)
        << name << ": aggregated diverged from dense at equal rounds";
  };

  for (const auto simd :
       {common::simd::Mode::kScalar, common::simd::Mode::kAuto}) {
    SCOPED_TRACE(simd == common::simd::Mode::kScalar ? "simd scalar"
                                                     : "simd auto");
    core::CdpsmOptions cdpsm;
    cdpsm.max_rounds = 60;
    cdpsm.tolerance = 1e-5;
    cdpsm.simd = simd;
    check("cdpsm", [&](core::SolverRepresentation representation) {
      return run_cdpsm(problem, cdpsm, representation);
    });
    core::LddmOptions lddm;
    lddm.max_rounds = 150;
    lddm.tolerance = 1e-5;
    lddm.simd = simd;
    check("lddm", [&](core::SolverRepresentation representation) {
      return run_lddm(problem, lddm, representation);
    });
    core::AdmmOptions admm;
    admm.max_rounds = 150;
    admm.tolerance = 1e-5;
    admm.simd = simd;
    check("admm", [&](core::SolverRepresentation representation) {
      return run_admm(problem, admm, representation);
    });
  }

  // Partial latency patterns on small random instances: pairs above the
  // latency bound are not variables, and the dense and compact storages
  // must still agree to the bit.
  for (const std::uint64_t seed : {2, 4, 6, 8}) {
    SCOPED_TRACE("12x6 random instance, seed " + std::to_string(seed));
    Rng instance_rng{seed};
    optim::InstanceOptions opts;
    opts.num_clients = 12;
    opts.num_replicas = 6;
    opts.max_link_latency = 2.4;
    const auto partial = optim::make_random_instance(instance_rng, opts);
    ASSERT_LT(partial.sparsity()->nnz(), 12u * 6u);
    const auto dense = core::SolverRepresentation::kDense;
    const auto sparse = core::SolverRepresentation::kSparse;
    expect_dense_equals_sparse("cdpsm", run_cdpsm(partial, {}, dense),
                               run_cdpsm(partial, {}, sparse));
    expect_dense_equals_sparse("lddm", run_lddm(partial, {}, dense),
                               run_lddm(partial, {}, sparse));
    expect_dense_equals_sparse("admm", run_admm(partial, {}, dense),
                               run_admm(partial, {}, sparse));
  }
}

// 10^5 clients: generation + both compact engines, a handful of pinned
// rounds each, within a generous single-core wall budget.  The point is
// the asymptotic cliff, not the constant: the dense path at this size
// spends minutes in a single CDPSM round.
TEST(SparseScale, HundredThousandClientsSolvesWithinWallBudget) {
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  Rng rng{5};
  optim::GeoInstanceOptions geo;
  geo.num_clients = 100000;
  geo.num_replicas = 16;
  geo.window = 2;
  const auto problem = optim::make_geo_instance(rng, geo);

  {
    core::CdpsmOptions options;
    options.max_rounds = 4;
    options.tolerance = 0.0;
    options.representation = core::SolverRepresentation::kSparse;
    core::CdpsmEngine engine{problem, options};
    engine.run();
    const auto solution = engine.solution();
    EXPECT_TRUE(optim::check_feasibility(problem, solution).ok(1e-4));
  }
  {
    core::LddmOptions options;
    options.max_rounds = 30;
    options.tolerance = 0.0;
    options.representation = core::SolverRepresentation::kAggregated;
    core::LddmEngine engine{problem, options};
    engine.run();
    const auto solution = engine.solution();
    EXPECT_TRUE(optim::check_feasibility(problem, solution).ok(1e-4));
  }

  // Generous for CI noise; the measured wall on one core is ~2 s.
  EXPECT_LT(elapsed_s(), 60.0);
}

}  // namespace
}  // namespace edr
