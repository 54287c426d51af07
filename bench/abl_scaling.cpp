// Ablation — scaling of coordination cost with system size (paper §III-D
// and §IV-D): CDPSM's per-round traffic grows O(|C|·|N|³), LDDM's
// O(|C|·|N|), DONAR's O(|C|·|N|·|M|); "with the increasing system size,
// EDR will eventually outperform DONAR in a large scale cloud system".
// Also measures real wall-clock solve time per algorithm.
#include "bench_util.hpp"

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "baselines/donar.hpp"
#include "common/thread_pool.hpp"
#include "core/cdpsm.hpp"
#include "core/lddm.hpp"
#include "optim/instance.hpp"

namespace {

using namespace edr;

optim::Problem instance(std::size_t replicas, std::uint64_t seed = 21) {
  Rng rng{seed};
  optim::InstanceOptions opts;
  opts.num_clients = 2 * replicas;
  opts.num_replicas = replicas;
  return optim::make_random_instance(rng, opts);
}

/// Average coordination bytes per round of a finished engine run.
template <typename Engine>
double bytes_per_round(const Engine& engine) {
  const auto rounds = engine.rounds_executed();
  return rounds ? static_cast<double>(engine.bytes_exchanged()) /
                      static_cast<double>(rounds)
                : 0.0;
}

void BM_Scaling_Lddm(benchmark::State& state) {
  const auto problem = instance(static_cast<std::size_t>(state.range(0)));
  std::size_t rounds = 0;
  double per_round = 0.0;
  for (auto _ : state) {
    core::LddmEngine engine{problem};
    engine.run();
    rounds = engine.rounds_executed();
    per_round = bytes_per_round(engine);
  }
  state.counters["replicas"] = static_cast<double>(state.range(0));
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["bytes_per_round"] = per_round;
  bench::record_metric(
      "bytes_per_round/" + std::to_string(state.range(0)),
      state.counters["bytes_per_round"], "bytes", "lddm");
}
BENCHMARK(BM_Scaling_Lddm)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_Scaling_Cdpsm(benchmark::State& state) {
  const auto problem = instance(static_cast<std::size_t>(state.range(0)));
  // Per-round traffic is what this ablation measures and it is invariant
  // to the round count, so cap the rounds at the largest size — a full
  // dense CDPSM solve at 32 replicas costs minutes of Dykstra sweeps for
  // the exact same bytes_per_round (this is why the 32-replica row used to
  // be missing from BENCH_abl_scaling.json).
  core::CdpsmOptions options;
  if (state.range(0) >= 32) {
    options.max_rounds = 8;
    options.tolerance = 0.0;
  }
  std::size_t rounds = 0;
  double per_round = 0.0;
  for (auto _ : state) {
    core::CdpsmEngine engine{problem, options};
    engine.run();
    rounds = engine.rounds_executed();
    per_round = bytes_per_round(engine);
  }
  state.counters["replicas"] = static_cast<double>(state.range(0));
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["bytes_per_round"] = per_round;
  bench::record_metric(
      "bytes_per_round/" + std::to_string(state.range(0)),
      state.counters["bytes_per_round"], "bytes", "cdpsm");
}
BENCHMARK(BM_Scaling_Cdpsm)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_Scaling_Donar(benchmark::State& state) {
  const auto problem = instance(static_cast<std::size_t>(state.range(0)));
  baselines::DonarOptions options;
  options.num_mapping_nodes =
      static_cast<std::size_t>(state.range(0));  // mapping tier scales too
  std::size_t rounds = 0;
  double per_round = 0.0;
  for (auto _ : state) {
    baselines::DonarEngine engine{problem, options};
    engine.run();
    rounds = engine.rounds_executed();
    // Every mapping node broadcasts its aggregate once per round.
    per_round = static_cast<double>(options.num_mapping_nodes *
                                    engine.bytes_per_node_round());
  }
  state.counters["mapping_nodes"] = static_cast<double>(state.range(0));
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["bytes_per_round"] = per_round;
  bench::record_metric(
      "bytes_per_round/" + std::to_string(state.range(0)),
      state.counters["bytes_per_round"], "bytes", "donar");
}
BENCHMARK(BM_Scaling_Donar)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// ---- parallel solve engine sweep (SystemConfig::solver_threads) ----
//
// Fixed-round wall-clock timing of the two iterative engines at the largest
// instance, at 1, 2, and all-hardware lanes.  Rounds are pinned (tolerance
// 0 disables early convergence) so every timing covers identical work; the
// engine guarantees the *results* are bitwise identical at every lane
// count, so this isolates pure wall-clock scaling.

double cdpsm_wall_ms(const optim::Problem& problem, std::size_t threads,
                     std::size_t rounds) {
  core::CdpsmOptions options;
  options.max_rounds = rounds;
  options.tolerance = 0.0;
  options.threads = threads;
  core::CdpsmEngine engine{problem, options};
  const auto start = std::chrono::steady_clock::now();
  engine.run();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double lddm_wall_ms(const optim::Problem& problem, std::size_t threads,
                    std::size_t rounds) {
  core::LddmOptions options;
  options.max_rounds = rounds;
  options.tolerance = 0.0;
  options.threads = threads;
  core::LddmEngine engine{problem, options};
  const auto start = std::chrono::steady_clock::now();
  engine.run();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void thread_sweep() {
  constexpr std::size_t kReplicas = 32;  // the largest BM_Scaling size
  constexpr std::size_t kCdpsmRounds = 8;
  constexpr std::size_t kLddmRounds = 120;
  const auto problem = instance(kReplicas);
  const std::size_t hw = common::ThreadPool::hardware();
  bench::record_metric("threads_hw", static_cast<double>(hw), "threads");

  std::printf("parallel solve engine, %zu replicas / %zu clients "
              "(hardware threads: %zu):\n",
              kReplicas, 2 * kReplicas, hw);
  Table table({"engine", "t=1 ms", "t=2 ms", "t=hw ms", "speedup hw"});
  const auto sweep = [&](const char* name, auto&& wall_ms,
                         std::size_t rounds) {
    const double t1 = wall_ms(problem, 1, rounds);
    const double t2 = wall_ms(problem, 2, rounds);
    const double thw = wall_ms(problem, hw, rounds);
    const double speedup = thw > 0.0 ? t1 / thw : 1.0;
    const std::string size = std::to_string(kReplicas);
    bench::record_metric("solve_wall_ms/" + size + "/t1", t1, "ms", name);
    bench::record_metric("solve_wall_ms/" + size + "/t2", t2, "ms", name);
    bench::record_metric("solve_wall_ms/" + size + "/thw", thw, "ms", name);
    bench::record_metric("speedup_hw/" + size, speedup, "x", name);
    table.add_row({name, Table::num(t1, 1), Table::num(t2, 1),
                   Table::num(thw, 1), Table::num(speedup, 2)});
  };
  sweep("cdpsm", cdpsm_wall_ms, kCdpsmRounds);
  sweep("lddm", lddm_wall_ms, kLddmRounds);
  std::printf("%s\n", table.to_string().c_str());
}

// ---- client-count sweep (SystemConfig::representation) ----
//
// Fixed-round single-threaded wall clock of both iterative engines on a
// geo-local instance (16 replicas, contiguous 2-replica feasibility
// windows, so 12.5% density and exactly 16 client equivalence classes) at
// 10^3, 10^4 and 10^5 clients, on the sparse iterate and on the aggregated
// client classes.  Rounds are pinned (tolerance 0) so every timing covers
// identical work.  The engines iterate on compact storage under every
// representation, so kDense would time the sparse loop again (it only
// charges all-pairs traffic) and has no column.

double cdpsm_rep_wall_ms(const optim::Problem& problem,
                         core::SolverRepresentation representation,
                         std::size_t rounds) {
  core::CdpsmOptions options;
  options.max_rounds = rounds;
  options.tolerance = 0.0;
  options.representation = representation;
  core::CdpsmEngine engine{problem, options};
  const auto start = std::chrono::steady_clock::now();
  engine.run();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double lddm_rep_wall_ms(const optim::Problem& problem,
                        core::SolverRepresentation representation,
                        std::size_t rounds) {
  core::LddmOptions options;
  options.max_rounds = rounds;
  options.tolerance = 0.0;
  options.representation = representation;
  core::LddmEngine engine{problem, options};
  const auto start = std::chrono::steady_clock::now();
  engine.run();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void client_sweep() {
  constexpr std::size_t kReplicas = 16;
  constexpr std::size_t kWindow = 2;
  constexpr std::size_t kCdpsmRounds = 4;
  constexpr std::size_t kLddmRounds = 30;
  const std::size_t sizes[] = {1000, 10000, 100000};
  const core::SolverRepresentation representations[] = {
      core::SolverRepresentation::kSparse,
      core::SolverRepresentation::kAggregated,
  };

  std::printf("client-count sweep, %zu replicas, window %zu "
              "(single-threaded, cdpsm %zu / lddm %zu pinned rounds):\n",
              kReplicas, kWindow, kCdpsmRounds, kLddmRounds);
  Table table({"engine", "clients", "sparse ms", "agg ms"});
  for (const std::size_t clients : sizes) {
    Rng rng{33};
    optim::GeoInstanceOptions geo;
    geo.num_clients = clients;
    geo.num_replicas = kReplicas;
    geo.window = kWindow;
    const auto problem = optim::make_geo_instance(rng, geo);
    const auto sweep = [&](const char* name, auto&& wall_ms,
                           std::size_t rounds) {
      std::vector<std::string> row{name, std::to_string(clients)};
      for (const auto rep : representations) {
        const double ms = wall_ms(problem, rep, rounds);
        bench::record_metric("solve_wall_ms/clients/" +
                                 std::to_string(clients) + "/" +
                                 std::string(core::to_string(rep)),
                             ms, "ms", name);
        row.push_back(Table::num(ms, 1));
      }
      table.add_row(std::move(row));
    };
    sweep("cdpsm", cdpsm_rep_wall_ms, kCdpsmRounds);
    sweep("lddm", lddm_rep_wall_ms, kLddmRounds);
  }
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  edr::bench::Harness harness(argc, argv,
                             "Ablation: scaling",
                     "per-round coordination bytes & wall time vs system "
                     "size (LDDM O(CN) / CDPSM O(CN^3) / DONAR O(CNM))");
  harness.run_benchmarks();
  thread_sweep();
  client_sweep();
  return 0;
}
