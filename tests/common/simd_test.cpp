// Property tests for the SIMD kernel layer (common/simd.hpp).
//
// Two contracts are enforced, each over 200 randomized trials spanning odd
// sizes, unaligned starting offsets and every vector-tail length:
//   1. Mode::kScalar is the byte-pinned golden path: its output is bitwise
//      identical to the verbatim reference loops the kernels replaced.
//   2. Mode::kAuto agrees with kScalar under the documented numerical
//      contract — bitwise for the element-wise kernels (accumulate,
//      sub_clamp, masked_sub_clamp, cesaro_step, and the clipping half of
//      clip_nonneg_sum), within the product's rounding error per lane for
//      the FMA-contracted axpy, and a small relative tolerance for the
//      reordered reductions (distance, the sum returned by
//      clip_nonneg_sum).
// distance_within must return the same decision as distance() <= bound in
// each mode, on random spans, at bounds whose square is within a few ulps
// of the sum, and on empty spans, inf and NaN entries.
#include "common/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace edr::common::simd {
namespace {

constexpr int kTrials = 200;

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// FMA contraction replaces fl(fl(a*x) + y) with fl(a*x + y): the inputs to
/// the final rounding differ by the product's rounding error (≤ ½ ulp of
/// a*x) and the roundings themselves can land on adjacent representables,
/// so the results differ by at most eps/2·|a*x| plus one ulp of the result.
/// Note the first term is NOT relative to the result: when y nearly cancels
/// a*x the relative difference is unbounded.
bool within_fma_contraction(double value, double reference, double a,
                            double x) {
  if (value == reference) return true;
  constexpr double eps = std::numeric_limits<double>::epsilon();
  const double bound = 0.5 * eps * std::abs(a * x) +
                       eps * std::max(std::abs(value), std::abs(reference));
  return std::abs(value - reference) <= bound;
}

/// A random trial layout: size in [0, 257] (covers empty, scalar-only, every
/// SSE/AVX tail remainder) starting at offset in [0, 7] inside a slack
/// buffer, so the kernels see genuinely unaligned pointers.
struct Trial {
  std::size_t size;
  std::size_t offset;
};

Trial random_trial(Rng& rng) {
  return {static_cast<std::size_t>(rng.uniform_int(0, 257)),
          static_cast<std::size_t>(rng.uniform_int(0, 7))};
}

/// Random data including negatives, exact zeros and signed zeros — the
/// values the clamp kernels branch on.
std::vector<double> random_buffer(Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (auto& x : v) {
    const double roll = rng.uniform();
    if (roll < 0.05)
      x = 0.0;
    else if (roll < 0.10)
      x = -0.0;
    else
      x = rng.uniform(-3.0, 3.0);
  }
  return v;
}

TEST(Simd, ParseModeAndToString) {
  EXPECT_EQ(parse_mode("scalar"), Mode::kScalar);
  EXPECT_EQ(parse_mode("auto"), Mode::kAuto);
  EXPECT_THROW((void)parse_mode("avx512"), std::invalid_argument);
  EXPECT_THROW((void)parse_mode(""), std::invalid_argument);
  EXPECT_STREQ(to_string(Mode::kScalar), "scalar");
  EXPECT_STREQ(to_string(Mode::kAuto), "auto");
}

TEST(Simd, ActiveIsaIsKnown) {
  const std::string isa = active_isa();
  EXPECT_TRUE(isa == "avx2" || isa == "sse2" || isa == "scalar") << isa;
}

TEST(Simd, AxpyScalarIsGoldenAutoWithinProductRounding) {
  Rng rng{11};
  for (int t = 0; t < kTrials; ++t) {
    const auto [n, off] = random_trial(rng);
    const auto x = random_buffer(rng, n + off);
    const auto y = random_buffer(rng, n + off);
    const double a = rng.uniform(-2.0, 2.0);
    const std::span<const double> xs{x.data() + off, n};

    std::vector<double> reference(y.begin() + off, y.end());
    for (std::size_t i = 0; i < n; ++i) reference[i] += a * xs[i];

    auto scalar = y;
    axpy(Mode::kScalar, {scalar.data() + off, n}, a, xs);
    EXPECT_TRUE(bitwise_equal({scalar.data() + off, n}, reference))
        << "trial " << t;

    auto vectorized = y;
    axpy(Mode::kAuto, {vectorized.data() + off, n}, a, xs);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_TRUE(within_fma_contraction(vectorized[off + i], reference[i],
                                         a, xs[i]))
          << "trial " << t << " lane " << i;
  }
}

TEST(Simd, SubClampKeepsStdMaxOnNanAndSignedZero) {
  // NaN passes through with its payload and -0.0 stays -0.0, as in
  // std::max(x, 0.0), on the scalar body and on every vector tail length.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double special[] = {std::numeric_limits<double>::quiet_NaN(),
                            -std::numeric_limits<double>::quiet_NaN(),
                            -0.0, 0.0, -kInf, kInf, -1.5, 2.5, 1e-310};
  for (const double tau : {0.0, -0.0, 1.0, -1.0}) {
    for (std::size_t n = 0; n <= 11; ++n) {
      std::vector<double> v(n), mask(n);
      for (std::size_t i = 0; i < n; ++i) {
        v[i] = special[(i + n) % std::size(special)];
        mask[i] = i % 3 == 0 ? 0.0 : 1.0;
      }
      std::vector<double> reference = v, masked_reference = v;
      for (std::size_t i = 0; i < n; ++i) {
        reference[i] = std::max(v[i] - tau, 0.0);
        masked_reference[i] = mask[i] != 0.0 ? reference[i] : 0.0;
      }
      for (const Mode mode : {Mode::kScalar, Mode::kAuto}) {
        auto clamped = v;
        sub_clamp(mode, clamped, tau);
        EXPECT_TRUE(bitwise_equal(clamped, reference))
            << to_string(mode) << " n " << n << " tau " << tau;
        auto masked = v;
        masked_sub_clamp(mode, masked, mask, tau);
        EXPECT_TRUE(bitwise_equal(masked, masked_reference))
            << to_string(mode) << " n " << n << " tau " << tau;
      }
    }
  }
}

TEST(Simd, AccumulateBitwiseAcrossModes) {
  Rng rng{12};
  for (int t = 0; t < kTrials; ++t) {
    const auto [n, off] = random_trial(rng);
    const auto x = random_buffer(rng, n + off);
    const auto y = random_buffer(rng, n + off);
    const std::span<const double> xs{x.data() + off, n};

    std::vector<double> reference(y.begin() + off, y.end());
    for (std::size_t i = 0; i < n; ++i) reference[i] += xs[i];

    auto scalar = y;
    accumulate(Mode::kScalar, {scalar.data() + off, n}, xs);
    EXPECT_TRUE(bitwise_equal({scalar.data() + off, n}, reference))
        << "trial " << t;

    auto vectorized = y;
    accumulate(Mode::kAuto, {vectorized.data() + off, n}, xs);
    EXPECT_TRUE(bitwise_equal({vectorized.data() + off, n}, reference))
        << "trial " << t;
  }
}

TEST(Simd, SubClampBitwiseAcrossModes) {
  Rng rng{13};
  for (int t = 0; t < kTrials; ++t) {
    const auto [n, off] = random_trial(rng);
    const auto v = random_buffer(rng, n + off);
    // tau occasionally equals an element exactly, so the max() tie on
    // +0.0/-0.0 is exercised, not just the branchy interior.
    double tau = rng.uniform(-1.0, 1.0);
    if (n > 0 && rng.uniform() < 0.25)
      tau = v[off + static_cast<std::size_t>(rng.uniform_int(
                        0, static_cast<std::int64_t>(n) - 1))];

    std::vector<double> reference(v.begin() + off, v.end());
    for (std::size_t i = 0; i < n; ++i)
      reference[i] = std::max(reference[i] - tau, 0.0);

    auto scalar = v;
    sub_clamp(Mode::kScalar, {scalar.data() + off, n}, tau);
    EXPECT_TRUE(bitwise_equal({scalar.data() + off, n}, reference))
        << "trial " << t;

    auto vectorized = v;
    sub_clamp(Mode::kAuto, {vectorized.data() + off, n}, tau);
    EXPECT_TRUE(bitwise_equal({vectorized.data() + off, n}, reference))
        << "trial " << t;
  }
}

TEST(Simd, MaskedSubClampBitwiseAcrossModes) {
  Rng rng{14};
  for (int t = 0; t < kTrials; ++t) {
    const auto [n, off] = random_trial(rng);
    const auto v = random_buffer(rng, n + off);
    std::vector<double> mask(n);
    for (auto& m : mask) m = rng.uniform() < 0.4 ? 0.0 : 1.0;
    const double tau = rng.uniform(-1.0, 1.0);

    std::vector<double> reference(v.begin() + off, v.end());
    for (std::size_t i = 0; i < n; ++i)
      reference[i] =
          mask[i] != 0.0 ? std::max(reference[i] - tau, 0.0) : 0.0;

    auto scalar = v;
    masked_sub_clamp(Mode::kScalar, {scalar.data() + off, n}, mask, tau);
    EXPECT_TRUE(bitwise_equal({scalar.data() + off, n}, reference))
        << "trial " << t;

    auto vectorized = v;
    masked_sub_clamp(Mode::kAuto, {vectorized.data() + off, n}, mask, tau);
    EXPECT_TRUE(bitwise_equal({vectorized.data() + off, n}, reference))
        << "trial " << t;
  }
}

TEST(Simd, ClipNonnegSumClipsBitwiseSumWithinTolerance) {
  Rng rng{15};
  for (int t = 0; t < kTrials; ++t) {
    const auto [n, off] = random_trial(rng);
    const auto v = random_buffer(rng, n + off);

    std::vector<double> reference(v.begin() + off, v.end());
    double reference_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      reference[i] = std::max(reference[i], 0.0);
      reference_sum += reference[i];
    }

    auto scalar = v;
    const double scalar_sum =
        clip_nonneg_sum(Mode::kScalar, {scalar.data() + off, n});
    EXPECT_TRUE(bitwise_equal({scalar.data() + off, n}, reference))
        << "trial " << t;
    EXPECT_EQ(scalar_sum, reference_sum) << "trial " << t;

    auto vectorized = v;
    const double auto_sum =
        clip_nonneg_sum(Mode::kAuto, {vectorized.data() + off, n});
    EXPECT_TRUE(bitwise_equal({vectorized.data() + off, n}, reference))
        << "trial " << t;
    EXPECT_NEAR(auto_sum, reference_sum,
                1e-12 * std::max(1.0, std::abs(reference_sum)))
        << "trial " << t;
  }
}

TEST(Simd, DistanceWithinTolerance) {
  Rng rng{16};
  for (int t = 0; t < kTrials; ++t) {
    const auto [n, off] = random_trial(rng);
    const auto a = random_buffer(rng, n + off);
    const auto b = random_buffer(rng, n + off);
    const std::span<const double> as{a.data() + off, n};
    const std::span<const double> bs{b.data() + off, n};

    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double diff = as[i] - bs[i];
      sum += diff * diff;
    }
    const double reference = std::sqrt(sum);

    EXPECT_EQ(distance(Mode::kScalar, as, bs), reference) << "trial " << t;
    EXPECT_NEAR(distance(Mode::kAuto, as, bs), reference,
                1e-12 * std::max(1.0, reference))
        << "trial " << t;
  }
}

/// Bounds around `distance`: a few ulps either side of it, the roots of
/// sums a few ulps either side of its square (so the early exit's limit on
/// the sum sits right at the total), and the special values.
std::vector<double> bounds_around(double distance) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> bounds = {0.0,  -0.0, -1.0, 0.5 * distance,
                                2.0 * distance, kInf, -kInf,
                                std::numeric_limits<double>::quiet_NaN()};
  double below = distance, above = distance;
  double sum_below = distance * distance, sum_above = sum_below;
  bounds.push_back(distance);
  bounds.push_back(std::sqrt(sum_below));
  for (int k = 0; k < 4; ++k) {
    below = std::nextafter(below, 0.0);
    above = std::nextafter(above, kInf);
    sum_below = std::nextafter(sum_below, 0.0);
    sum_above = std::nextafter(sum_above, kInf);
    bounds.insert(bounds.end(), {below, above, std::sqrt(sum_below),
                                 std::sqrt(sum_above)});
  }
  return bounds;
}

void expect_same_decision(std::span<const double> a,
                          std::span<const double> b, double bound,
                          const char* what) {
  for (const Mode mode : {Mode::kScalar, Mode::kAuto}) {
    EXPECT_EQ(distance_within(mode, a, b, bound),
              distance(mode, a, b) <= bound)
        << what << ", " << to_string(mode) << ", n " << a.size()
        << ", bound " << bound << ", distance " << distance(mode, a, b);
  }
}

TEST(Simd, DistanceWithinMatchesDistanceDecision) {
  Rng rng{18};
  for (int t = 0; t < kTrials; ++t) {
    const auto [n, off] = random_trial(rng);
    const auto a = random_buffer(rng, n + off);
    auto b = random_buffer(rng, n + off);
    // Half the trials end in a run of equal entries, so a partial sum is
    // already the total and the early exit decides on it.
    if (n > 0 && rng.uniform() < 0.5) {
      const auto tail = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(n)));
      std::copy(a.end() - static_cast<std::ptrdiff_t>(tail), a.end(),
                b.end() - static_cast<std::ptrdiff_t>(tail));
    }
    const std::span<const double> as{a.data() + off, n};
    const std::span<const double> bs{b.data() + off, n};
    for (const Mode mode : {Mode::kScalar, Mode::kAuto})
      for (const double bound : bounds_around(distance(mode, as, bs)))
        expect_same_decision(as, bs, bound, "random");
  }
}

TEST(Simd, DistanceWithinSpecialValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kBounds[] = {0.0, -0.0, -1.0, 1e-170, 1.0, 3.0, 1e200,
                            kInf, -kInf, kNan};
  for (const double bound : kBounds)
    expect_same_decision({}, {}, bound, "empty");
  // One special entry at every position of spans up to 9 long, behind and
  // ahead of ordinary and huge differences.
  for (const double special : {kInf, -kInf, kNan, 1e160}) {
    for (std::size_t n = 1; n <= 9; ++n) {
      for (std::size_t at = 0; at < n; ++at) {
        std::vector<double> a(n, 1.0), b(n, 0.0);
        if (n > 2) a[(at + 1) % n] = 1e155;
        a[at] = special;
        for (const double bound : kBounds)
          expect_same_decision(a, b, bound, "special");
        b[at] = special;  // inf - inf and NaN - NaN: NaN terms
        for (const double bound : kBounds)
          expect_same_decision(a, b, bound, "special pair");
      }
    }
  }
}

TEST(Simd, CesaroStepBitwiseAcrossModes) {
  Rng rng{17};
  for (int t = 0; t < kTrials; ++t) {
    const auto [n, off] = random_trial(rng);
    const auto avg = random_buffer(rng, n + off);
    const auto col = random_buffer(rng, n + off);
    const double k = static_cast<double>(rng.uniform_int(1, 500));
    const std::span<const double> cols{col.data() + off, n};

    std::vector<double> reference(avg.begin() + off, avg.end());
    for (std::size_t i = 0; i < n; ++i)
      reference[i] += (cols[i] - reference[i]) / k;

    auto scalar = avg;
    cesaro_step(Mode::kScalar, {scalar.data() + off, n}, cols, k);
    EXPECT_TRUE(bitwise_equal({scalar.data() + off, n}, reference))
        << "trial " << t;

    auto vectorized = avg;
    cesaro_step(Mode::kAuto, {vectorized.data() + off, n}, cols, k);
    EXPECT_TRUE(bitwise_equal({vectorized.data() + off, n}, reference))
        << "trial " << t;
  }
}

}  // namespace
}  // namespace edr::common::simd
