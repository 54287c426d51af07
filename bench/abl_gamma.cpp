// Ablation — the γ exponent of the network-device energy term (paper
// §III-A.2: linear switch fabrics vs the cubic relation typical of
// data-intensive traffic).  With γ = 1 the objective is linear and EDR
// rams everything onto the cheapest replicas; growing γ makes concentration
// expensive and pushes the optimum toward balance — shrinking but not
// eliminating the savings over Round-Robin.
#include "bench_util.hpp"

#include "core/lddm.hpp"
#include "optim/instance.hpp"
#include "optim/solver.hpp"

namespace {

using namespace edr;

struct GammaResult {
  double saving_pct = 0.0;
  double load_imbalance = 0.0;  // max/mean column load of the EDR solution
};

GammaResult run_gamma(double gamma) {
  GammaResult aggregate;
  int samples = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng{seed};
    optim::InstanceOptions opts;
    opts.num_clients = 12;
    opts.num_replicas = 6;
    opts.gamma = gamma;
    const auto problem = optim::make_random_instance(rng, opts);
    core::LddmEngine lddm{problem};
    lddm.run();
    const auto edr = lddm.solution();
    const auto rr = optim::round_robin_allocation(problem);
    const double edr_cost = problem.total_cost(edr);
    const double rr_cost = problem.total_cost(rr);
    aggregate.saving_pct += (rr_cost - edr_cost) / rr_cost * 100.0;
    const auto loads = edr.col_sums();
    double max_load = 0.0, mean_load = 0.0;
    for (const double s : loads) {
      max_load = std::max(max_load, s);
      mean_load += s / static_cast<double>(loads.size());
    }
    aggregate.load_imbalance += max_load / std::max(mean_load, 1e-9);
    ++samples;
  }
  aggregate.saving_pct /= samples;
  aggregate.load_imbalance /= samples;
  return aggregate;
}

void BM_Abl_Gamma(benchmark::State& state) {
  const double gamma = static_cast<double>(state.range(0));
  GammaResult result;
  for (auto _ : state) result = run_gamma(gamma);
  state.counters["gamma"] = gamma;
  state.counters["saving_vs_rr_pct"] = result.saving_pct;
  state.counters["edr_load_imbalance"] = result.load_imbalance;
}
BENCHMARK(BM_Abl_Gamma)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  edr::bench::Harness harness(argc, argv,
                             "Ablation: gamma",
                     "network-device energy nonlinearity (linear vs cubic "
                     "fabrics) vs EDR's savings and load concentration");

  edr::Table table({"gamma", "LDDM saving vs RR", "EDR max/mean load"});
  for (const double gamma : {1.0, 2.0, 3.0, 4.0}) {
    const auto result = run_gamma(gamma);
    table.add_row({edr::Table::num(gamma, 0),
                   edr::Table::num(result.saving_pct, 1) + "%",
                   edr::Table::num(result.load_imbalance, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());

  harness.run_benchmarks();
  return 0;
}
