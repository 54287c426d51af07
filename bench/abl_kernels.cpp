// Ablation — SIMD kernel layer (common/simd.hpp): scalar golden path vs
// runtime-dispatched vectorization on the solver hot loops, at the
// 10^4-client column size the representation sweeps use.
//
// Three kernel families are timed: the projection apply steps
// (sub_clamp / masked_sub_clamp / clip_nonneg_sum — the inner loops of
// every Dykstra sweep), the column reductions (accumulate — col_sums —
// and distance — movement norms), and the per-replica step loops (axpy,
// cesaro_step).  Each timing is a best-of-repetitions over many passes of
// the same buffers, so the numbers measure the kernels, not the allocator.
// Every auto-mode result is checked against the scalar result under the
// contract documented in common/simd.hpp (bitwise for the element-wise
// kernels, ≤ 1e-12 relative for reductions, ≤ 1 ulp/lane for axpy) —
// a speedup obtained by computing the wrong thing fails the run.
//
// One more family times the simplex row projection itself — the demand
// half-step of every sparse Dykstra sweep — on 10^4 rows of 8 through
// optim::project_simplex_active, against a std::sort-based reference
// projection.  The two must agree bit for bit, or the run fails.
#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "optim/projection.hpp"

namespace {

using namespace edr;
namespace simd = edr::common::simd;

constexpr std::size_t kClients = 10000;  // the 10^4 column size
constexpr std::size_t kPasses = 400;     // kernel passes per timed sample
constexpr std::size_t kSamples = 7;      // best-of samples per mode
constexpr std::size_t kRowWidth = 8;     // one entry per paper replica
constexpr std::size_t kRowPasses = 40;   // full 10^4-row sweeps per sample

std::vector<double> random_vector(Rng& rng, std::size_t n, double lo,
                                  double hi) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(lo, hi);
  return v;
}

double best_of_ms(auto&& body) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < kSamples; ++s) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    best = std::min(best, ms);
  }
  return best;
}

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool ulp_close(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double lo = std::nextafter(
        b[i], -std::numeric_limits<double>::infinity());
    const double hi = std::nextafter(
        b[i], std::numeric_limits<double>::infinity());
    if (a[i] < lo || a[i] > hi) return false;
  }
  return true;
}

bool rel_close(double a, double b, double tol = 1e-12) {
  return std::abs(a - b) <= tol * std::max({std::abs(a), std::abs(b), 1.0});
}

/// The sort-based simplex projection: std::sort of a reused scratch copy,
/// the running-sum threshold, then v = max(v − τ, 0).
void sort_reference_projection(std::span<double> row, double target) {
  static std::vector<double> active;
  active.assign(row.begin(), row.end());
  std::ranges::sort(active, std::greater<>());
  double running = 0.0;
  double tau = 0.0;
  for (std::size_t i = 0; i < active.size(); ++i) {
    running += active[i];
    const double candidate = (running - target) / static_cast<double>(i + 1);
    if (candidate >= active[i]) {
      if (i == 0) tau = candidate;
      break;
    }
    tau = candidate;
  }
  for (double& v : row) v = std::max(v - tau, 0.0);
}

struct KernelResult {
  const char* name;
  double scalar_ms;
  double auto_ms;
  bool agree;
};

/// Time one kernel in both modes.  `run(mode, out)` executes kPasses of the
/// kernel over mode-private buffers and leaves a result vector (or a
/// 1-element reduction value) in `out` for the cross-mode check; `check`
/// compares the two outputs under the kernel's documented contract.
KernelResult time_kernel(const char* name, auto&& run, auto&& check) {
  std::vector<double> scalar_out, auto_out;
  const double scalar_ms =
      best_of_ms([&] { run(simd::Mode::kScalar, scalar_out); });
  const double auto_ms = best_of_ms([&] { run(simd::Mode::kAuto, auto_out); });
  return {name, scalar_ms, auto_ms, check(scalar_out, auto_out)};
}

}  // namespace

int main(int argc, char** argv) {
  edr::bench::Harness harness(argc, argv,
                             "Ablation: SIMD kernels",
                     "solver hot-loop kernels, scalar golden path vs "
                     "runtime-dispatched vectorization (10^4 elements)");

  Rng rng{97};
  const auto x = random_vector(rng, kClients, -2.0, 2.0);
  const auto y0 = random_vector(rng, kClients, -2.0, 2.0);
  auto mask = random_vector(rng, kClients, 0.0, 1.0);
  for (auto& m : mask) m = m < 0.25 ? 0.0 : 1.0;  // 75% feasible pairs

  const auto elementwise_check = [](std::span<const double> a,
                                    std::span<const double> b) {
    return bitwise_equal(a, b);
  };

  std::vector<KernelResult> results;

  // Per-replica step loop: y += a * x.  a is a power of two, so the product
  // is exact and the FMA-contracted kAuto path must agree to the ulp.
  results.push_back(time_kernel(
      "axpy",
      [&](simd::Mode mode, std::vector<double>& out) {
        out = y0;
        for (std::size_t p = 0; p < kPasses; ++p)
          simd::axpy(mode, out, 1.0 / 1024.0, x);
        benchmark::DoNotOptimize(out.data());
      },
      [](std::span<const double> a, std::span<const double> b) {
        return ulp_close(b, a);
      }));

  // Column reduction (col_sums): y += x, bitwise across modes.
  results.push_back(time_kernel(
      "accumulate",
      [&](simd::Mode mode, std::vector<double>& out) {
        out = y0;
        for (std::size_t p = 0; p < kPasses; ++p)
          simd::accumulate(mode, out, x);
        benchmark::DoNotOptimize(out.data());
      },
      elementwise_check));

  // Simplex-projection apply: v = max(v - tau, 0), bitwise across modes.
  // tau flips sign every pass so the buffer neither drains to all-zero nor
  // grows without bound over the timed passes.
  results.push_back(time_kernel(
      "sub_clamp",
      [&](simd::Mode mode, std::vector<double>& out) {
        out = y0;
        for (std::size_t p = 0; p < kPasses; ++p)
          simd::sub_clamp(mode, out, p % 2 == 0 ? 1e-4 : -1e-4);
        benchmark::DoNotOptimize(out.data());
      },
      elementwise_check));

  // Masked projection apply (the sparse/dense masked Dykstra step).
  results.push_back(time_kernel(
      "masked_sub_clamp",
      [&](simd::Mode mode, std::vector<double>& out) {
        out = y0;
        for (std::size_t p = 0; p < kPasses; ++p)
          simd::masked_sub_clamp(mode, out, mask, p % 2 == 0 ? 1e-4 : -1e-4);
        benchmark::DoNotOptimize(out.data());
      },
      elementwise_check));

  // Projection clip + sum: clip is bitwise, the returned sum is a
  // reduction (≤ 1e-12 relative in kAuto).
  results.push_back(time_kernel(
      "clip_nonneg_sum",
      [&](simd::Mode mode, std::vector<double>& out) {
        out = y0;
        double sum = 0.0;
        for (std::size_t p = 0; p < kPasses; ++p)
          sum = simd::clip_nonneg_sum(mode, out);
        benchmark::DoNotOptimize(out.data());
        out.push_back(sum);  // carried for the cross-mode check
      },
      [&](std::span<const double> a, std::span<const double> b) {
        return bitwise_equal(a.subspan(0, kClients), b.subspan(0, kClients)) &&
               rel_close(a[kClients], b[kClients]);
      }));

  // Movement norm: sqrt(sum of squared diffs), reduction tolerance.
  results.push_back(time_kernel(
      "distance",
      [&](simd::Mode mode, std::vector<double>& out) {
        double total = 0.0;
        for (std::size_t p = 0; p < kPasses; ++p)
          total += simd::distance(mode, y0, x);
        out.assign(1, total);
        benchmark::DoNotOptimize(out.data());
      },
      [&](std::span<const double> a, std::span<const double> b) {
        return rel_close(a[0], b[0]);
      }));

  // Cesàro running average (dual engines' primal recovery), bitwise.
  results.push_back(time_kernel(
      "cesaro_step",
      [&](simd::Mode mode, std::vector<double>& out) {
        out = y0;
        for (std::size_t p = 0; p < kPasses; ++p)
          simd::cesaro_step(mode, out, x, static_cast<double>(p + 2));
        benchmark::DoNotOptimize(out.data());
      },
      elementwise_check));

  // Simplex rows: each pass re-projects the same 10^4 unprojected rows
  // (a projected row is a fixed point, which would time the easy case).
  const auto rows = random_vector(rng, kClients * kRowWidth, -4.0, 6.0);
  const auto targets = random_vector(rng, kClients, 0.0, 20.0);
  std::vector<double> sorted_rows, network_rows;
  const auto sweep_rows = [&](std::vector<double>& out, auto&& project) {
    for (std::size_t p = 0; p < kRowPasses; ++p) {
      out = rows;
      for (std::size_t c = 0; c < kClients; ++c)
        project(std::span(out).subspan(c * kRowWidth, kRowWidth), targets[c]);
      benchmark::DoNotOptimize(out.data());
    }
  };
  const double sort_ms = best_of_ms(
      [&] { sweep_rows(sorted_rows, sort_reference_projection); });
  const double network_ms = best_of_ms([&] {
    sweep_rows(network_rows, [](std::span<double> row, double target) {
      optim::project_simplex_active(row, target);
    });
  });
  const bool rows_agree = bitwise_equal(sorted_rows, network_rows);

  std::printf("dispatch: --simd=auto resolves to '%s' on this host; "
              "%zu elements x %zu passes, best of %zu\n\n",
              simd::active_isa(), kClients, kPasses, kSamples);

  Table table({"kernel", "scalar ms", "auto ms", "speedup", "agree"});
  bool all_agree = true;
  double best_speedup = 0.0;
  for (const auto& r : results) {
    const double speedup = r.auto_ms > 0.0 ? r.scalar_ms / r.auto_ms : 0.0;
    best_speedup = std::max(best_speedup, speedup);
    all_agree = all_agree && r.agree;
    table.add_row({r.name, Table::num(r.scalar_ms, 3),
                   Table::num(r.auto_ms, 3), Table::num(speedup, 2),
                   r.agree ? "yes" : "DIVERGED"});
    edr::bench::record_metric(std::string("kernel_ms/") + r.name + "/scalar",
                              r.scalar_ms, "ms");
    edr::bench::record_metric(std::string("kernel_ms/") + r.name + "/auto",
                              r.auto_ms, "ms");
    edr::bench::record_metric(std::string("speedup/") + r.name, speedup, "x");
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("best scalar->auto speedup: %.2fx; cross-mode agreement: %s\n",
              best_speedup, all_agree ? "ok" : "DIVERGED");
  const double row_speedup = network_ms > 0.0 ? sort_ms / network_ms : 0.0;
  std::printf("simplex rows (%zu x %zu, %zu passes): sort %.3f ms, "
              "project_simplex_active %.3f ms, %.2fx; bitwise: %s\n",
              kClients, kRowWidth, kRowPasses, sort_ms, network_ms,
              row_speedup, rows_agree ? "ok" : "DIVERGED");
  edr::bench::record_metric("kernel_ms/simplex_rows/sort", sort_ms, "ms");
  edr::bench::record_metric("kernel_ms/simplex_rows/network", network_ms,
                            "ms");
  edr::bench::record_metric("speedup/simplex_rows", row_speedup, "x");
  all_agree = all_agree && rows_agree;
  edr::bench::record_metric("best_speedup", best_speedup, "x");
  edr::bench::record_metric("agreement", all_agree ? 1.0 : 0.0);
  return all_agree ? 0 : 1;
}
