#include "geom/sphere_volume.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/rng.h"
#include "vec/vector.h"

namespace hyperm::geom {
namespace {

constexpr double kPi = 3.14159265358979323846;

TEST(BallVolumeTest, KnownLowDimensions) {
  EXPECT_NEAR(BallVolume(1, 1.0), 2.0, 1e-10);                 // interval
  EXPECT_NEAR(BallVolume(2, 1.0), kPi, 1e-10);                 // disk
  EXPECT_NEAR(BallVolume(3, 1.0), 4.0 / 3.0 * kPi, 1e-10);     // ball
  EXPECT_NEAR(BallVolume(4, 1.0), kPi * kPi / 2.0, 1e-10);
}

TEST(BallVolumeTest, ScalesWithRadiusPower) {
  for (int d : {1, 2, 3, 7, 16}) {
    EXPECT_NEAR(BallVolume(d, 2.0) / BallVolume(d, 1.0), std::pow(2.0, d), 1e-6);
  }
}

TEST(BallVolumeTest, ZeroRadius) { EXPECT_EQ(BallVolume(5, 0.0), 0.0); }

TEST(CapFractionTest, Boundaries) {
  for (int d : {1, 2, 3, 8, 63, 64}) {
    EXPECT_EQ(CapVolumeFraction(d, 0.0), 0.0);
    EXPECT_NEAR(CapVolumeFraction(d, kPi), 1.0, 1e-12);
    EXPECT_NEAR(CapVolumeFraction(d, kPi / 2.0), 0.5, 1e-10);
  }
}

TEST(CapFractionTest, ObtuseSymmetry) {
  for (int d : {2, 3, 9}) {
    for (double alpha : {0.3, 0.9, 1.4}) {
      EXPECT_NEAR(CapVolumeFraction(d, alpha) + CapVolumeFraction(d, kPi - alpha), 1.0,
                  1e-10);
    }
  }
}

TEST(CapFractionTest, DimensionOneClosedForm) {
  // In 1-D the "ball" is [-1,1] and the cap fraction is (1 - cos a) / 2.
  for (double alpha : {0.2, 0.7, 1.2, 2.0, 3.0}) {
    EXPECT_NEAR(CapVolumeFraction(1, alpha), (1.0 - std::cos(alpha)) / 2.0, 1e-10);
  }
}

TEST(CapFractionTest, DimensionTwoClosedForm) {
  // Circular segment of a unit disk: (alpha - sin a cos a) / pi.
  for (double alpha : {0.2, 0.7, 1.2}) {
    EXPECT_NEAR(CapVolumeFraction(2, alpha),
                (alpha - std::sin(alpha) * std::cos(alpha)) / kPi, 1e-10);
  }
}

TEST(CapFractionTest, DimensionThreeClosedForm) {
  // Spherical cap height h = 1 - cos a: V = pi h^2 (3 - h)/3 over (4/3)pi.
  for (double alpha : {0.2, 0.7, 1.2}) {
    const double h = 1.0 - std::cos(alpha);
    EXPECT_NEAR(CapVolumeFraction(3, alpha), h * h * (3.0 - h) / 4.0, 1e-10);
  }
}

TEST(CapFractionTest, MonotoneInAlpha) {
  for (int d : {1, 2, 5, 32}) {
    double prev = -1.0;
    for (double alpha = 0.0; alpha <= kPi + 1e-9; alpha += 0.05) {
      const double v = CapVolumeFraction(d, alpha);
      EXPECT_GE(v, prev - 1e-12);
      prev = v;
    }
  }
}

// The paper's Eq. 5 even-d series must agree with the incomplete-beta form.
class EvenSeriesEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(EvenSeriesEquivalence, MatchesBetaForm) {
  const int d = GetParam();
  for (double alpha = 0.0; alpha <= kPi + 1e-9; alpha += kPi / 37.0) {
    EXPECT_NEAR(CapVolumeFractionEvenSeries(d, alpha), CapVolumeFraction(d, alpha), 1e-9)
        << "d=" << d << " alpha=" << alpha;
  }
}

INSTANTIATE_TEST_SUITE_P(EvenDims, EvenSeriesEquivalence,
                         ::testing::Values(2, 4, 6, 8, 16, 32, 64));

// The sine-power recurrence (the paper's omitted odd-d form, valid for both
// parities) must agree with the incomplete-beta closed form everywhere.
class SineRecurrenceEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SineRecurrenceEquivalence, MatchesBetaForm) {
  const int d = GetParam();
  for (double alpha = 0.0; alpha <= kPi + 1e-9; alpha += kPi / 41.0) {
    EXPECT_NEAR(CapVolumeFractionSineRecurrence(d, alpha), CapVolumeFraction(d, alpha),
                1e-9)
        << "d=" << d << " alpha=" << alpha;
  }
}

INSTANTIATE_TEST_SUITE_P(AllParities, SineRecurrenceEquivalence,
                         ::testing::Values(1, 2, 3, 5, 7, 9, 15, 16, 33));

TEST(IntersectionFractionTest, DisjointIsZero) {
  EXPECT_EQ(SphereIntersectionFraction(3, 1.0, 1.0, 2.5), 0.0);
  EXPECT_EQ(SphereIntersectionFraction(3, 1.0, 1.0, 2.0), 0.0);  // tangent
}

TEST(IntersectionFractionTest, DataInsideQueryIsOne) {
  EXPECT_EQ(SphereIntersectionFraction(3, 1.0, 5.0, 1.0), 1.0);
  EXPECT_EQ(SphereIntersectionFraction(3, 1.0, 2.0, 1.0), 1.0);  // internally tangent
}

TEST(IntersectionFractionTest, QueryInsideDataIsVolumeRatio) {
  for (int d : {1, 2, 3, 8}) {
    EXPECT_NEAR(SphereIntersectionFraction(d, 2.0, 1.0, 0.3), std::pow(0.5, d), 1e-10);
  }
}

TEST(IntersectionFractionTest, ConcentricEqualSpheres) {
  // b=0, eps=r: query covers the data sphere entirely.
  EXPECT_NEAR(SphereIntersectionFraction(4, 1.0, 1.0, 0.0), 1.0, 1e-12);
}

TEST(IntersectionFractionTest, HalfOverlapSymmetricCase) {
  // Equal spheres at center distance b: the covered fraction of either is
  // 2 * cap(alpha) with cos(alpha) = b / (2r). For d=1: 1 - b/(2r).
  for (double b : {0.4, 1.0, 1.6}) {
    EXPECT_NEAR(SphereIntersectionFraction(1, 1.0, 1.0, b), 1.0 - b / 2.0, 1e-10);
  }
}

TEST(IntersectionFractionTest, MonotoneInQueryRadius) {
  for (int d : {1, 2, 4, 16}) {
    double prev = -1.0;
    for (double eps = 0.0; eps <= 4.0; eps += 0.05) {
      const double f = SphereIntersectionFraction(d, 1.0, eps, 1.5);
      EXPECT_GE(f, prev - 1e-12) << "d=" << d << " eps=" << eps;
      prev = f;
    }
    EXPECT_NEAR(prev, 1.0, 1e-12);  // eventually fully covered
  }
}

TEST(IntersectionFractionTest, MonotoneDecreasingInDistance) {
  for (int d : {2, 8}) {
    double prev = 2.0;
    for (double b = 0.0; b <= 3.0; b += 0.05) {
      const double f = SphereIntersectionFraction(d, 1.0, 1.5, b);
      EXPECT_LE(f, prev + 1e-12);
      prev = f;
    }
  }
}

// At d >= 256, (eps/r)^d overflows while the query's cap underflows; the
// direct product was 0 * inf = NaN (and a subnormal cap times inf clamped
// to 1). These inputs returned NaN before the log-space fallback.
TEST(IntersectionFractionTest, HighDimensionLensIsFinite) {
  const double r = 0.12156718399343362;
  const double eps = 0.49545478544418964;
  const double b = 0.53840924327599238;
  const double f = SphereIntersectionFraction(512, r, eps, b);
  EXPECT_TRUE(std::isfinite(f));
  EXPECT_GE(f, 0.0);
  EXPECT_LE(f, 1.0);
  // The lens holds less of the data sphere than a query reaching just past
  // its far side, which covers it whole.
  EXPECT_LE(f, SphereIntersectionFraction(512, r, b + r, b));
}

TEST(IntersectionFractionTest, HighDimensionLensesFiniteBoundedMonotone) {
  Rng rng(2026);
  for (int d : {256, 512, 1024}) {
    int nonfinite = 0;
    int out_of_range = 0;
    int decreasing = 0;
    for (int trial = 0; trial < 400; ++trial) {
      const double r = rng.Uniform(0.01, 1.0);
      const double b = rng.Uniform(0.0, 1.5);
      // Sweep eps through every regime: inside, lens, containing.
      const double eps_max = b + r + 0.1;
      double prev = 0.0;
      for (int i = 1; i <= 200; ++i) {
        const double eps = eps_max * i / 200.0;
        const double f = SphereIntersectionFraction(d, r, eps, b);
        if (!std::isfinite(f)) ++nonfinite;
        if (!(f >= 0.0 && f <= 1.0)) ++out_of_range;
        if (f < prev) ++decreasing;
        prev = f;
      }
    }
    EXPECT_EQ(nonfinite, 0) << "d=" << d;
    EXPECT_EQ(out_of_range, 0) << "d=" << d;
    EXPECT_EQ(decreasing, 0) << "d=" << d;
  }
}

// The log-space fallback fires only for a non-finite product or a subnormal
// cap: wherever the direct two-cap sum is finite and built from normal caps
// the result keeps its bits. Dims up to 4 take the closed forms instead.
TEST(IntersectionFractionTest, FiniteDirectProductsKeepTheirBits) {
  Rng rng(11);
  int lenses = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const int d = static_cast<int>(rng.UniformInt(5, 128));
    const double r = rng.Uniform(0.01, 1.0);
    const double eps = rng.Uniform(0.01, 1.0);
    const double b = rng.Uniform(0.0, 2.0);
    if (b >= r + eps || b + r <= eps || b + eps <= r) continue;
    ++lenses;
    const double cos_alpha = std::clamp((b * b + r * r - eps * eps) / (2.0 * b * r), -1.0, 1.0);
    const double cos_beta = std::clamp((b * b + eps * eps - r * r) / (2.0 * b * eps), -1.0, 1.0);
    const double cap_beta = CapVolumeFraction(d, std::acos(cos_beta));
    const double direct = std::clamp(
        CapVolumeFraction(d, std::acos(cos_alpha)) +
            cap_beta * std::exp(d * (std::log(eps) - std::log(r))),
        0.0, 1.0);
    if (!std::isfinite(direct) || cap_beta < std::numeric_limits<double>::min()) continue;
    ASSERT_EQ(SphereIntersectionFraction(d, r, eps, b), direct)
        << "d=" << d << " r=" << r << " eps=" << eps << " b=" << b;
  }
  EXPECT_GT(lenses, 5000);
}

// At d <= 4 every proper lens covers a positive fraction: the half angles
// come from gaps that are > 0 on the same doubles the disjointness test
// compared, so a record a few ulps inside the reach scores > 0.
TEST(IntersectionFractionTest, LowDimProperLensesArePositive) {
  // b is one ulp inside r + eps; the law of cosines rounds cos(alpha) to 1.
  EXPECT_GT(SphereIntersectionFraction(2, 1.5734933551865778e-05, 0.36083605772703226,
                                       0.36085179266058409),
            0.0);
  Rng rng(2901);
  const double log_min = std::log(1e-6);
  const double log_max = std::log(10.0);
  for (int d = 1; d <= 4; ++d) {
    int lenses = 0;
    int near_tangent = 0;
    for (int trial = 0; trial < 20000; ++trial) {
      const double r = std::exp(rng.Uniform(log_min, log_max));
      const double eps = std::exp(rng.Uniform(log_min, log_max));
      double b = r + eps;
      const bool tangent = trial % 2 == 1;
      if (tangent) {
        for (int64_t ulps = rng.UniformInt(1, 8); ulps > 0; --ulps) b = std::nextafter(b, 0.0);
      } else {
        b = rng.Uniform(std::fabs(r - eps), r + eps);
      }
      if (!(b < r + eps) || b + r <= eps || b + eps <= r) continue;
      const double gap = r + eps - b;
      if (gap * (eps + b - r) < std::numeric_limits<double>::min() ||
          gap * (r + b - eps) < std::numeric_limits<double>::min()) {
        continue;
      }
      ++lenses;
      if (tangent) ++near_tangent;
      ASSERT_GT(SphereIntersectionFraction(d, r, eps, b), 0.0)
          << "d=" << d << " r=" << r << " eps=" << eps << " b=" << b;
    }
    EXPECT_GT(lenses, 15000) << "d=" << d;
    EXPECT_GT(near_tangent, 8000) << "d=" << d;
  }
}

// I_h((d+1)/2, (d+1)/2) in long double: the closed forms of the library,
// with the series summed to 40 terms.
long double CapReference(int d, long double h) {
  const long double pi = 3.141592653589793238462643383279502884L;
  if (d == 1) return h;
  if (d == 3) return h * h * (3.0L - 2.0L * h);
  if (h < 1.0L / 16.0L) {
    const long double p = 0.5L * (d - 1);
    long double sum = 0.0L;
    long double signed_binomial = 1.0L;
    long double power = 1.0L;
    for (int k = 0; k < 40; ++k) {
      sum += signed_binomial * power / (k + p + 1.0L);
      signed_binomial *= (k - p) / (k + 1.0L);
      power *= h;
    }
    const long double inverse_beta = d == 2 ? 8.0L / pi : 128.0L / (3.0L * pi);
    return inverse_beta * std::pow(h, p + 1.0L) * sum;
  }
  const long double theta = 2.0L * std::asin(std::sqrt(h));
  const long double c = 1.0L - 2.0L * h;
  const long double s = 2.0L * std::sqrt(h * (1.0L - h));
  if (d == 2) return (theta - s * c) / pi;
  return (theta - c * s * (1.0L + 2.0L / 3.0L * s * s)) / pi;
}

double RelativeError(double got, long double want) {
  return static_cast<double>(std::fabs((static_cast<long double>(got) - want) / want));
}

// The d <= 4 closed forms against the same forms in long double, and
// against the two-cap sum built from the incomplete beta function. The
// double half angles carry the rounding of r + eps - b, so the bound holds
// where every gap is at least 1e-3 (r + eps).
TEST(IntersectionFractionTest, LowDimLensMatchesExtendedPrecision) {
  Rng rng(2915);
  const double log_min = std::log(1e-3);
  for (int d = 1; d <= 4; ++d) {
    const long double a = 0.5L * (d + 1);
    int checked = 0;
    int series_side = 0;
    int trig_side = 0;
    int contained = 0;
    for (int trial = 0; trial < 20000; ++trial) {
      const double r = std::exp(rng.Uniform(log_min, 0.0));
      const double eps = std::exp(rng.Uniform(log_min, 0.0));
      const double b =
          trial % 2 == 0 ? rng.Uniform(0.0, r + eps)
                         : (r + eps) * (1.0 - std::pow(10.0, rng.Uniform(-3.0, -1.0)));
      const double f = SphereIntersectionFraction(d, r, eps, b);
      const long double lr = r;
      const long double le = eps;
      const long double lb = b;
      const long double ratio_power = std::pow(le / lr, static_cast<long double>(d));
      if (b + eps <= r && b + r > eps) {
        ++contained;
        ASSERT_LE(RelativeError(f, ratio_power), 1e-12)
            << "d=" << d << " r=" << r << " eps=" << eps << " b=" << b;
        continue;
      }
      const long double gap = lr + le - lb;
      const long double gap_alpha = le + lb - lr;
      const long double gap_beta = lr + lb - le;
      const long double min_gap = 1e-3L * (lr + le);
      if (gap < min_gap || gap_alpha < min_gap || gap_beta < min_gap) continue;
      ++checked;
      const long double h_alpha = std::min(gap * gap_alpha / (4.0L * lb * lr), 1.0L);
      const long double h_beta = std::min(gap * gap_beta / (4.0L * lb * le), 1.0L);
      (h_alpha < 1.0L / 16.0L ? series_side : trig_side)++;
      (h_beta < 1.0L / 16.0L ? series_side : trig_side)++;
      const long double want =
          CapReference(d, h_alpha) + ratio_power * CapReference(d, h_beta);
      ASSERT_LE(RelativeError(f, want), 1e-12)
          << "d=" << d << " r=" << r << " eps=" << eps << " b=" << b;
      const double beta_sum =
          RegularizedIncompleteBeta(static_cast<double>(a), static_cast<double>(a),
                                    static_cast<double>(h_alpha)) +
          static_cast<double>(ratio_power) *
              RegularizedIncompleteBeta(static_cast<double>(a), static_cast<double>(a),
                                        static_cast<double>(h_beta));
      ASSERT_LE(RelativeError(f, beta_sum), 1e-10)
          << "d=" << d << " r=" << r << " eps=" << eps << " b=" << b;
    }
    EXPECT_GT(checked, 5000) << "d=" << d;
    EXPECT_GT(series_side, 1000) << "d=" << d;
    EXPECT_GT(trig_side, 1000) << "d=" << d;
    EXPECT_GT(contained, 1000) << "d=" << d;
    // The public cap takes the same forms, with h = sin^2(alpha / 2).
    for (double alpha = 1e-6; alpha < kPi; alpha *= 1.01) {
      const long double half_sine = std::sin(0.5L * alpha);
      ASSERT_LE(RelativeError(CapVolumeFraction(d, alpha),
                              CapReference(d, half_sine * half_sine)),
                1e-12)
          << "d=" << d << " alpha=" << alpha;
    }
  }
  // A ratio eps / r far beyond any proper lens (the spheres are nested in
  // doubles), and a proper lens at eps / r = 2^50: finite, in [0, 1].
  for (const auto& [r, eps, b] :
       {std::tuple{1e-100, 1.0, 1.0}, std::tuple{std::ldexp(1.0, -50), 1.0, 1.0 - 0x1p-52}}) {
    const double f = SphereIntersectionFraction(4, r, eps, b);
    EXPECT_TRUE(std::isfinite(f)) << "r=" << r;
    EXPECT_GE(f, 0.0) << "r=" << r;
    EXPECT_LE(f, 1.0) << "r=" << r;
  }
  EXPECT_GT(SphereIntersectionFraction(4, std::ldexp(1.0, -50), 1.0, 1.0 - 0x1p-52), 0.0);
}

// Monte Carlo cross-validation of the closed form in low dimensions.
class IntersectionMonteCarlo
    : public ::testing::TestWithParam<std::tuple<int, double, double, double>> {};

TEST_P(IntersectionMonteCarlo, AgreesWithSampling) {
  const auto [d, r, eps, b] = GetParam();
  Rng rng(1234);
  const int samples = 200000;
  int inside = 0;
  for (int s = 0; s < samples; ++s) {
    // Uniform point in the radius-r ball at the origin.
    Vector point(static_cast<size_t>(d));
    for (double& v : point) v = rng.Gaussian();
    const double norm = vec::Norm(point);
    const double radius = r * std::pow(rng.NextDouble(), 1.0 / d);
    double dist_sq = 0.0;
    for (size_t i = 0; i < point.size(); ++i) {
      point[i] = point[i] / norm * radius;
      const double diff = i == 0 ? point[i] - b : point[i];  // query center at (b,0,..)
      dist_sq += diff * diff;
    }
    if (dist_sq <= eps * eps) ++inside;
  }
  const double expected = SphereIntersectionFraction(d, r, eps, b);
  EXPECT_NEAR(static_cast<double>(inside) / samples, expected, 0.005)
      << "d=" << d << " r=" << r << " eps=" << eps << " b=" << b;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, IntersectionMonteCarlo,
    ::testing::Values(std::make_tuple(1, 1.0, 0.8, 1.2),
                      std::make_tuple(2, 1.0, 1.0, 1.0),
                      std::make_tuple(2, 1.0, 0.5, 1.2),
                      std::make_tuple(3, 1.0, 1.5, 1.8),
                      std::make_tuple(4, 2.0, 1.0, 2.2),
                      // The data sphere's cap lands in the series branch.
                      std::make_tuple(2, 1.0, 0.3, 1.2),
                      std::make_tuple(4, 1.0, 0.3, 1.2),
                      std::make_tuple(5, 1.0, 1.0, 0.7)));

}  // namespace
}  // namespace hyperm::geom
