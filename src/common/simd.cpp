#include "common/simd.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>

// x86-64 only: SSE2 is part of the base ABI there, so the _mm_ bodies need
// no flags; the AVX2 bodies carry GCC target attributes and are reached
// only after a runtime __builtin_cpu_supports probe.  Every other target
// compiles the scalar bodies alone — the -march gating guard.
#if defined(__x86_64__)
#define EDR_SIMD_X86 1
#include <immintrin.h>
#else
#define EDR_SIMD_X86 0
#endif

namespace edr::common::simd {
namespace {

enum class Level : std::uint8_t { kScalarOnly, kSse2, kAvx2 };

Level detect_level() {
#if EDR_SIMD_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return Level::kAvx2;
  return Level::kSse2;
#else
  return Level::kScalarOnly;
#endif
}

Level active_level() {
  static const Level level = detect_level();
  return level;
}

/// std::max(x, 0.0) without a branch.  maxsd returns its second operand on
/// equality or NaN, so max(0, x) keeps -0.0 and NaN exactly as std::max
/// does; the plain std::max compiles to a compare and a branch per element
/// at -O2.
inline double clamp_nonneg(double x) {
#if EDR_SIMD_X86
  return _mm_cvtsd_f64(_mm_max_sd(_mm_setzero_pd(), _mm_set_sd(x)));
#else
  return std::max(x, 0.0);
#endif
}

/// A bound on partial sums of squares past which sqrt(total) <= `bound` is
/// already false: a sum of non-negative terms never decreases under
/// rounding, and neither does sqrt, so once a partial sum exceeds the
/// largest s with sqrt(s) <= bound the full one does too (or is NaN).
/// bound² rounds to nearest; step up past every sum whose root still
/// rounds to at most `bound`.  A NaN bound gives NaN, which no sum exceeds.
double sum_exit_limit(double bound) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double limit = bound * bound;
  while (limit < kInf && std::sqrt(std::nextafter(limit, kInf)) <= bound)
    limit = std::nextafter(limit, kInf);
  return limit;
}

// ---------- scalar bodies ----------
// The loops these kernels replaced; Mode::kScalar must stay byte-identical
// to the pre-SIMD code paths.

void axpy_scalar(double* y, double a, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void accumulate_scalar(double* y, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
}

#if !EDR_SIMD_X86
// The clamps' x86-64 kScalar path is the SSE2 body (see sub_clamp).
void sub_clamp_scalar(double* v, double tau, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) v[i] = clamp_nonneg(v[i] - tau);
}

void masked_sub_clamp_scalar(double* v, const double* mask, double tau,
                             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    v[i] = mask[i] != 0.0 ? clamp_nonneg(v[i] - tau) : 0.0;
}
#endif

double clip_nonneg_sum_scalar(double* v, std::size_t n) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = clamp_nonneg(v[i]);
    total += v[i];
  }
  return total;
}

double distance_scalar(const double* a, const double* b, std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

bool distance_within_scalar(const double* a, const double* b, std::size_t n,
                            double bound) {
  const double limit = sum_exit_limit(bound);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
    if (sum > limit) return false;
  }
  return std::sqrt(sum) <= bound;
}

void cesaro_step_scalar(double* avg, const double* col, double k,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) avg[i] += (col[i] - avg[i]) / k;
}

#if EDR_SIMD_X86

// ---------- SSE2 bodies (baseline on x86-64, no target attribute) ----------

void axpy_sse2(double* y, double a, const double* x, std::size_t n) {
  const __m128d va = _mm_set1_pd(a);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d vy = _mm_loadu_pd(y + i);
    const __m128d vx = _mm_loadu_pd(x + i);
    _mm_storeu_pd(y + i, _mm_add_pd(vy, _mm_mul_pd(va, vx)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void accumulate_sse2(double* y, const double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    _mm_storeu_pd(y + i, _mm_add_pd(_mm_loadu_pd(y + i), _mm_loadu_pd(x + i)));
  for (; i < n; ++i) y[i] += x[i];
}

void sub_clamp_sse2(double* v, double tau, std::size_t n) {
  const __m128d vtau = _mm_set1_pd(tau);
  const __m128d zero = _mm_setzero_pd();
  std::size_t i = 0;
  // max(0, x) — operand order matters: maxpd returns the *second* operand
  // on equality or NaN, which is exactly std::max(x, 0.0) on signed zeros.
  for (; i + 2 <= n; i += 2)
    _mm_storeu_pd(
        v + i, _mm_max_pd(zero, _mm_sub_pd(_mm_loadu_pd(v + i), vtau)));
  for (; i < n; ++i) v[i] = clamp_nonneg(v[i] - tau);
}

void masked_sub_clamp_sse2(double* v, const double* mask, double tau,
                           std::size_t n) {
  const __m128d vtau = _mm_set1_pd(tau);
  const __m128d zero = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d keep = _mm_cmpneq_pd(_mm_loadu_pd(mask + i), zero);
    const __m128d clamped =
        _mm_max_pd(zero, _mm_sub_pd(_mm_loadu_pd(v + i), vtau));
    _mm_storeu_pd(v + i, _mm_and_pd(keep, clamped));
  }
  for (; i < n; ++i)
    v[i] = mask[i] != 0.0 ? clamp_nonneg(v[i] - tau) : 0.0;
}

double clip_nonneg_sum_sse2(double* v, std::size_t n) {
  const __m128d zero = _mm_setzero_pd();
  __m128d acc = zero;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d clipped = _mm_max_pd(zero, _mm_loadu_pd(v + i));
    _mm_storeu_pd(v + i, clipped);
    acc = _mm_add_pd(acc, clipped);
  }
  double total = _mm_cvtsd_f64(acc) +
                 _mm_cvtsd_f64(_mm_unpackhi_pd(acc, acc));
  for (; i < n; ++i) {
    v[i] = clamp_nonneg(v[i]);
    total += v[i];
  }
  return total;
}

double distance_sse2(const double* a, const double* b, std::size_t n) {
  __m128d acc = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d d = _mm_sub_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i));
    acc = _mm_add_pd(acc, _mm_mul_pd(d, d));
  }
  double sum = _mm_cvtsd_f64(acc) +
               _mm_cvtsd_f64(_mm_unpackhi_pd(acc, acc));
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

// Each lane accumulator is a partial sum of the final one, so a lane past
// the limit decides the answer.
bool distance_within_sse2(const double* a, const double* b, std::size_t n,
                          double bound) {
  const double limit = sum_exit_limit(bound);
  const __m128d vlimit = _mm_set1_pd(limit);
  __m128d acc = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d d = _mm_sub_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i));
    acc = _mm_add_pd(acc, _mm_mul_pd(d, d));
    if (_mm_movemask_pd(_mm_cmpgt_pd(acc, vlimit)) != 0) return false;
  }
  double sum = _mm_cvtsd_f64(acc) +
               _mm_cvtsd_f64(_mm_unpackhi_pd(acc, acc));
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
    if (sum > limit) return false;
  }
  return std::sqrt(sum) <= bound;
}

void cesaro_step_sse2(double* avg, const double* col, double k,
                      std::size_t n) {
  const __m128d vk = _mm_set1_pd(k);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d va = _mm_loadu_pd(avg + i);
    const __m128d vc = _mm_loadu_pd(col + i);
    _mm_storeu_pd(avg + i,
                  _mm_add_pd(va, _mm_div_pd(_mm_sub_pd(vc, va), vk)));
  }
  for (; i < n; ++i) avg[i] += (col[i] - avg[i]) / k;
}

// ---------- AVX2+FMA bodies (runtime-dispatched) ----------

__attribute__((target("avx2,fma"))) double hsum4(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

__attribute__((target("avx2,fma"))) void axpy_avx2(double* y, double a,
                                                   const double* x,
                                                   std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vy = _mm256_loadu_pd(y + i);
    const __m256d vx = _mm256_loadu_pd(x + i);
    _mm256_storeu_pd(y + i, _mm256_fmadd_pd(va, vx, vy));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

__attribute__((target("avx2,fma"))) void accumulate_avx2(double* y,
                                                         const double* x,
                                                         std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  for (; i < n; ++i) y[i] += x[i];
}

__attribute__((target("avx2,fma"))) void sub_clamp_avx2(double* v, double tau,
                                                        std::size_t n) {
  const __m256d vtau = _mm256_set1_pd(tau);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(
        v + i,
        _mm256_max_pd(zero, _mm256_sub_pd(_mm256_loadu_pd(v + i), vtau)));
  for (; i < n; ++i) v[i] = clamp_nonneg(v[i] - tau);
}

__attribute__((target("avx2,fma"))) void masked_sub_clamp_avx2(
    double* v, const double* mask, double tau, std::size_t n) {
  const __m256d vtau = _mm256_set1_pd(tau);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d keep =
        _mm256_cmp_pd(_mm256_loadu_pd(mask + i), zero, _CMP_NEQ_UQ);
    const __m256d clamped =
        _mm256_max_pd(zero, _mm256_sub_pd(_mm256_loadu_pd(v + i), vtau));
    _mm256_storeu_pd(v + i, _mm256_and_pd(keep, clamped));
  }
  for (; i < n; ++i)
    v[i] = mask[i] != 0.0 ? clamp_nonneg(v[i] - tau) : 0.0;
}

__attribute__((target("avx2,fma"))) double clip_nonneg_sum_avx2(
    double* v, std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc = zero;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d clipped = _mm256_max_pd(zero, _mm256_loadu_pd(v + i));
    _mm256_storeu_pd(v + i, clipped);
    acc = _mm256_add_pd(acc, clipped);
  }
  double total = hsum4(acc);
  for (; i < n; ++i) {
    v[i] = clamp_nonneg(v[i]);
    total += v[i];
  }
  return total;
}

__attribute__((target("avx2,fma"))) double distance_avx2(const double* a,
                                                         const double* b,
                                                         std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc = _mm256_fmadd_pd(d, d, acc);
  }
  double sum = hsum4(acc);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

__attribute__((target("avx2,fma"))) bool distance_within_avx2(
    const double* a, const double* b, std::size_t n, double bound) {
  const double limit = sum_exit_limit(bound);
  const __m256d vlimit = _mm256_set1_pd(limit);
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc = _mm256_fmadd_pd(d, d, acc);
    if (_mm256_movemask_pd(_mm256_cmp_pd(acc, vlimit, _CMP_GT_OQ)) != 0)
      return false;
  }
  double sum = hsum4(acc);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
    if (sum > limit) return false;
  }
  return std::sqrt(sum) <= bound;
}

__attribute__((target("avx2,fma"))) void cesaro_step_avx2(double* avg,
                                                          const double* col,
                                                          double k,
                                                          std::size_t n) {
  const __m256d vk = _mm256_set1_pd(k);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d va = _mm256_loadu_pd(avg + i);
    const __m256d vc = _mm256_loadu_pd(col + i);
    _mm256_storeu_pd(
        avg + i, _mm256_add_pd(va, _mm256_div_pd(_mm256_sub_pd(vc, va), vk)));
  }
  for (; i < n; ++i) avg[i] += (col[i] - avg[i]) / k;
}

#endif  // EDR_SIMD_X86

bool use_vector(Mode mode, std::size_t n) {
  // Tiny spans gain nothing from the dispatch branch; the engines' columns
  // are the real targets.  kScalar must take the scalar body unconditionally
  // (the clamps excepted, see sub_clamp).
  return mode == Mode::kAuto && n >= 4;
}

}  // namespace

Mode parse_mode(std::string_view text) {
  if (text == "scalar") return Mode::kScalar;
  if (text == "auto") return Mode::kAuto;
  throw std::invalid_argument("unknown simd mode '" + std::string(text) +
                              "' (scalar|auto)");
}

const char* to_string(Mode mode) {
  return mode == Mode::kAuto ? "auto" : "scalar";
}

const char* active_isa() {
  switch (active_level()) {
    case Level::kAvx2:
      return "avx2";
    case Level::kSse2:
      return "sse2";
    case Level::kScalarOnly:
      return "scalar";
  }
  return "scalar";
}

void axpy(Mode mode, std::span<double> y, double a,
          std::span<const double> x) {
#if EDR_SIMD_X86
  if (use_vector(mode, y.size())) {
    if (active_level() == Level::kAvx2)
      axpy_avx2(y.data(), a, x.data(), y.size());
    else
      axpy_sse2(y.data(), a, x.data(), y.size());
    return;
  }
#endif
  (void)mode;
  axpy_scalar(y.data(), a, x.data(), y.size());
}

void accumulate(Mode mode, std::span<double> y, std::span<const double> x) {
#if EDR_SIMD_X86
  if (use_vector(mode, y.size())) {
    if (active_level() == Level::kAvx2)
      accumulate_avx2(y.data(), x.data(), y.size());
    else
      accumulate_sse2(y.data(), x.data(), y.size());
    return;
  }
#endif
  (void)mode;
  accumulate_scalar(y.data(), x.data(), y.size());
}

// The clamps are element-wise, so every body gives the same bits, and on
// x86-64 kScalar takes the SSE2 body (the baseline ISA) instead of the
// scalar loop: -O3 vectorizes that loop into the same pairs, but -O2
// compiles it to a compare and a branch per element.
void sub_clamp(Mode mode, std::span<double> v, double tau) {
#if EDR_SIMD_X86
  if (use_vector(mode, v.size()) && active_level() == Level::kAvx2)
    sub_clamp_avx2(v.data(), tau, v.size());
  else
    sub_clamp_sse2(v.data(), tau, v.size());
#else
  (void)mode;
  sub_clamp_scalar(v.data(), tau, v.size());
#endif
}

void masked_sub_clamp(Mode mode, std::span<double> v,
                      std::span<const double> mask, double tau) {
#if EDR_SIMD_X86
  if (use_vector(mode, v.size()) && active_level() == Level::kAvx2)
    masked_sub_clamp_avx2(v.data(), mask.data(), tau, v.size());
  else
    masked_sub_clamp_sse2(v.data(), mask.data(), tau, v.size());
#else
  (void)mode;
  masked_sub_clamp_scalar(v.data(), mask.data(), tau, v.size());
#endif
}

double clip_nonneg_sum(Mode mode, std::span<double> v) {
#if EDR_SIMD_X86
  if (use_vector(mode, v.size())) {
    if (active_level() == Level::kAvx2)
      return clip_nonneg_sum_avx2(v.data(), v.size());
    return clip_nonneg_sum_sse2(v.data(), v.size());
  }
#endif
  (void)mode;
  return clip_nonneg_sum_scalar(v.data(), v.size());
}

double distance(Mode mode, std::span<const double> a,
                std::span<const double> b) {
#if EDR_SIMD_X86
  if (use_vector(mode, a.size())) {
    if (active_level() == Level::kAvx2)
      return distance_avx2(a.data(), b.data(), a.size());
    return distance_sse2(a.data(), b.data(), a.size());
  }
#endif
  (void)mode;
  return distance_scalar(a.data(), b.data(), a.size());
}

bool distance_within(Mode mode, std::span<const double> a,
                     std::span<const double> b, double bound) {
#if EDR_SIMD_X86
  if (use_vector(mode, a.size())) {
    if (active_level() == Level::kAvx2)
      return distance_within_avx2(a.data(), b.data(), a.size(), bound);
    return distance_within_sse2(a.data(), b.data(), a.size(), bound);
  }
#endif
  (void)mode;
  return distance_within_scalar(a.data(), b.data(), a.size(), bound);
}

void cesaro_step(Mode mode, std::span<double> avg,
                 std::span<const double> col, double k) {
#if EDR_SIMD_X86
  if (use_vector(mode, avg.size())) {
    if (active_level() == Level::kAvx2)
      cesaro_step_avx2(avg.data(), col.data(), k, avg.size());
    else
      cesaro_step_sse2(avg.data(), col.data(), k, avg.size());
    return;
  }
#endif
  (void)mode;
  cesaro_step_scalar(avg.data(), col.data(), k, avg.size());
}

}  // namespace edr::common::simd
