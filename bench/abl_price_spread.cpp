// Ablation — savings vs regional price dispersion.  EDR's whole advantage
// comes from heterogeneous electricity markets (Qureshi's observation the
// paper builds on): with uniform prices EDR degenerates to pure
// energy-minimization and the cost gap to Round-Robin closes.
#include "bench_util.hpp"

#include "core/lddm.hpp"
#include "optim/instance.hpp"
#include "optim/solver.hpp"

namespace {

using namespace edr;

double saving_for_spread(int max_price) {
  double saving = 0.0;
  int samples = 0;
  for (std::uint64_t seed = 30; seed < 36; ++seed) {
    Rng rng{seed};
    optim::InstanceOptions opts;
    opts.num_clients = 12;
    opts.num_replicas = 6;
    opts.min_price = 1;
    opts.max_price = max_price;
    const auto problem = optim::make_random_instance(rng, opts);
    core::LddmEngine lddm{problem};
    lddm.run();
    const double edr_cost = problem.total_cost(lddm.solution());
    const double rr_cost =
        problem.total_cost(optim::round_robin_allocation(problem));
    saving += (rr_cost - edr_cost) / rr_cost * 100.0;
    ++samples;
  }
  return saving / samples;
}

void BM_Abl_PriceSpread(benchmark::State& state) {
  const int max_price = static_cast<int>(state.range(0));
  double saving = 0.0;
  for (auto _ : state) saving = saving_for_spread(max_price);
  state.counters["max_price"] = max_price;
  state.counters["saving_vs_rr_pct"] = saving;
}
BENCHMARK(BM_Abl_PriceSpread)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(2)
    ->Arg(5)
    ->Arg(10)
    ->Arg(20)
    ->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  edr::bench::Harness harness(argc, argv,
                             "Ablation: price spread",
                     "EDR-LDDM cost saving vs Round-Robin as regional "
                     "price dispersion grows (prices uniform in [1, max])");

  edr::Table table({"price range", "LDDM saving vs RR"});
  for (const int max_price : {1, 2, 5, 10, 20})
    table.add_row({"[1, " + std::to_string(max_price) + "]",
                   edr::Table::num(saving_for_spread(max_price), 1) + "%"});
  std::printf("%s\n", table.to_string().c_str());

  harness.run_benchmarks();
  return 0;
}
