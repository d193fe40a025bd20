#include "geom/sphere_volume.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

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
// the result keeps its bits.
TEST(IntersectionFractionTest, FiniteDirectProductsKeepTheirBits) {
  Rng rng(11);
  int lenses = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const int d = static_cast<int>(rng.UniformInt(1, 128));
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
                      std::make_tuple(5, 1.0, 1.0, 0.7)));

}  // namespace
}  // namespace hyperm::geom
