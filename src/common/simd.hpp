// SIMD kernel layer for the solver hot loops.
//
// Every kernel takes an explicit dispatch Mode as its first argument:
//
//   Mode::kScalar — the byte-pinned golden path.  The scalar loop bodies
//     compute bit for bit what the code they replaced in
//     optim/projection.cpp, common/matrix.hpp and core/{cdpsm,lddm}.cpp
//     computed, so routing a call site through this layer with kScalar
//     changes no observable bit (enforced by the golden-equivalence
//     digests).  The clamps (sub_clamp, masked_sub_clamp) are element-wise,
//     and on x86-64 kScalar runs their SSE2 body, which is branch-free.
//   Mode::kAuto — pick the widest instruction set the *running* CPU
//     supports: AVX2+FMA when available, else SSE2 on x86-64 (where it is
//     the baseline), else the scalar loop.  Detection is one cached
//     __builtin_cpu_supports probe; the AVX2 bodies are compiled with GCC
//     function target attributes, so the tree builds — and runs — on hosts
//     without AVX2 with no -march flags anywhere (the -march gating the
//     build must not depend on).
//
// Numerical contract (property-tested in tests/common/simd_test.cpp):
//   * Element-wise kernels (sub_clamp, masked_sub_clamp, accumulate,
//     cesaro_step, and the clipping half of clip_nonneg_sum) are bitwise
//     identical across modes: each output lane sees the same operations in
//     the same order, and the vector max is arranged operand-order-exact
//     (max(0, x) matches std::max(x, 0.0) on signed zeros and NaN).
//   * distance_within(mode, ...) returns exactly distance(mode, a, b) <=
//     bound of the same mode; it only stops scanning once that is decided.
//   * Reductions (the sum in clip_nonneg_sum, distance) use multiple
//     vector accumulators in kAuto, which reorders the addition chain and
//     may contract multiply+add into FMA — results agree with kScalar to a
//     small relative tolerance (≤ 1e-12 on the sweep sizes tested), not
//     bitwise.  axpy is element-wise but FMA-contracted in kAuto: each lane
//     differs from kScalar by at most the product's rounding error
//     (½ ulp of a·x[i]) plus one ulp of the result — tiny in absolute
//     terms, but relatively large when y[i] nearly cancels a·x[i].
// Anything that must stay byte-stable (golden digests, live-runtime round
// digests) therefore runs kScalar unless every participant opted into kAuto
// together (the live wire protocol ships the mode for exactly this reason).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace edr::common::simd {

enum class Mode : std::uint8_t {
  kScalar = 0,  ///< golden path: the exact historical scalar loops
  kAuto = 1,    ///< widest ISA the running CPU supports (AVX2 > SSE2)
};

/// Parse "scalar" | "auto" (throws std::invalid_argument otherwise).
[[nodiscard]] Mode parse_mode(std::string_view text);
[[nodiscard]] const char* to_string(Mode mode);

/// The instruction set kAuto resolves to on this machine: "avx2", "sse2"
/// or "scalar".  Cached after the first call.
[[nodiscard]] const char* active_isa();

/// y[i] += a * x[i].  kAuto may fuse the multiply-add; each lane differs
/// from kScalar by at most the product's rounding error (½ ulp of a·x[i])
/// plus one ulp of the result.
void axpy(Mode mode, std::span<double> y, double a,
          std::span<const double> x);

/// y[i] += x[i].  Bitwise identical across modes.
void accumulate(Mode mode, std::span<double> y, std::span<const double> x);

/// v[i] = max(v[i] - tau, 0.0).  Bitwise identical across modes (the
/// simplex-projection apply step).
void sub_clamp(Mode mode, std::span<double> v, double tau);

/// v[i] = mask[i] != 0.0 ? max(v[i] - tau, 0.0) : 0.0.  Bitwise identical
/// across modes (the masked-simplex apply step).
void masked_sub_clamp(Mode mode, std::span<double> v,
                      std::span<const double> mask, double tau);

/// v[i] = max(v[i], 0.0); returns the sum of the clipped vector.  The clip
/// is bitwise identical across modes; the returned sum is a reduction and
/// carries the documented tolerance in kAuto.
[[nodiscard]] double clip_nonneg_sum(Mode mode, std::span<double> v);

/// sqrt(Σ (a[i] - b[i])²).  Reduction: documented tolerance in kAuto.
[[nodiscard]] double distance(Mode mode, std::span<const double> a,
                              std::span<const double> b);

/// distance(mode, a, b) <= bound, decided with the same accumulation but
/// returning false as soon as a partial sum proves the distance exceeds
/// `bound` — bitwise the same decision, NaN and inf included.  For
/// convergence tests that only compare the distance with a tolerance.
[[nodiscard]] bool distance_within(Mode mode, std::span<const double> a,
                                   std::span<const double> b, double bound);

/// avg[i] += (col[i] - avg[i]) / k — the Cesàro running-average update of
/// the dual engines' primal recovery.  Bitwise identical across modes.
void cesaro_step(Mode mode, std::span<double> avg,
                 std::span<const double> col, double k);

}  // namespace edr::common::simd
