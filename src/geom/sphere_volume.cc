#include "geom/sphere_volume.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/math_util.h"

namespace hyperm::geom {
namespace {

constexpr double kPi = 3.14159265358979323846;

// Dims up to this one have a closed-form cap (DESIGN.md §25).
constexpr int kClosedFormMaxDim = 4;

// Below this half-angle sine², the d = 2 and d = 4 caps use a series: the
// trigonometric forms subtract two nearly equal terms there.
constexpr double kSeriesBelow = 1.0 / 16.0;
constexpr int kSeriesTerms = 16;
using SeriesCoefficients = std::array<double, kSeriesTerms>;

// (-1)^k C(p, k) / (k + p + 1): integrating u^p (1 - u)^p term by term gives
// B(p+1, p+1) I_h(p+1, p+1) = h^(p+1) sum_k coefficient_k h^k.
constexpr SeriesCoefficients CapSeriesCoefficients(double p) {
  SeriesCoefficients out{};
  double signed_binomial = 1.0;  // (-1)^k C(p, k)
  for (int k = 0; k < kSeriesTerms; ++k) {
    out[k] = signed_binomial / (k + p + 1.0);
    signed_binomial *= (k - p) / (k + 1.0);
  }
  return out;
}

constexpr SeriesCoefficients kCapSeriesD2 = CapSeriesCoefficients(0.5);
constexpr SeriesCoefficients kCapSeriesD4 = CapSeriesCoefficients(1.5);

double EvaluateSeries(const SeriesCoefficients& coefficients, double h) {
  double sum = coefficients[kSeriesTerms - 1];
  for (int k = kSeriesTerms - 2; k >= 0; --k) sum = sum * h + coefficients[k];
  return sum;
}

// Fraction of a d-ball (d <= 4) in a cap whose half angle theta has
// h = sin^2(theta / 2) = (1 - cos theta) / 2, in [0, 1]:
// I_h((d+1)/2, (d+1)/2) in closed form. NaN propagates.
double LowDimCap(int d, double h) {
  if (d == 1) return h;
  if (d == 3) return h * h * (3.0 - 2.0 * h);
  const double root = std::sqrt(h);
  if (h < kSeriesBelow) {
    // 1 / B(3/2, 3/2) = 8 / pi and 1 / B(5/2, 5/2) = 128 / (3 pi).
    if (d == 2) return 8.0 / kPi * h * root * EvaluateSeries(kCapSeriesD2, h);
    return 128.0 / (3.0 * kPi) * (h * h) * root * EvaluateSeries(kCapSeriesD4, h);
  }
  const double theta = 2.0 * std::asin(root);
  const double c = 1.0 - 2.0 * h;                   // cos theta
  const double s = 2.0 * std::sqrt(h * (1.0 - h));  // sin theta
  if (d == 2) return (theta - s * c) / kPi;
  return (theta - c * s * (1.0 + 2.0 / 3.0 * s * s)) / kPi;  // Eq. 5
}

// t^d for 1 <= d <= 4.
double LowDimPower(double t, int d) {
  switch (d) {
    case 1:
      return t;
    case 2:
      return t * t;
    case 3:
      return t * t * t;
    default:
      return (t * t) * (t * t);
  }
}

// log CapVolumeFraction(d, alpha) for alpha in (0, pi], finite where the
// fraction itself underflows (thin caps at high d).
double LogCapVolumeFraction(int d, double alpha) {
  // Caps of at least a half-ball are >= 1/2: the direct form is exact.
  if (alpha >= 0.5 * kPi) return std::log(CapVolumeFraction(d, alpha));
  const double s = std::sin(alpha);
  return std::log(0.5) + LogRegularizedIncompleteBeta(0.5 * (d + 1), 0.5, s * s);
}

}  // namespace

double UnitBallLogVolume(int d) {
  HM_CHECK_GE(d, 1);
  return 0.5 * d * std::log(kPi) - LogGamma(0.5 * d + 1.0);
}

double BallVolume(int d, double r) {
  HM_CHECK_GE(r, 0.0);
  if (r == 0.0) return 0.0;
  return std::exp(UnitBallLogVolume(d) + d * std::log(r));
}

double CapVolumeFraction(int d, double alpha) {
  HM_CHECK_GE(d, 1);
  HM_CHECK_GE(alpha, -1e-12);
  HM_CHECK_LE(alpha, kPi + 1e-12);
  alpha = std::clamp(alpha, 0.0, kPi);
  if (alpha == 0.0) return 0.0;
  if (alpha == kPi) return 1.0;
  if (d <= kClosedFormMaxDim) {
    const double half_sine = std::sin(0.5 * alpha);
    return LowDimCap(d, half_sine * half_sine);
  }
  // For alpha <= pi/2 the cap fraction is (1/2) I_{sin^2 alpha}((d+1)/2, 1/2);
  // obtuse caps follow from symmetry: cap(alpha) = 1 - cap(pi - alpha).
  if (alpha > 0.5 * kPi) return 1.0 - CapVolumeFraction(d, kPi - alpha);
  const double s = std::sin(alpha);
  const double x = s * s;
  return 0.5 * RegularizedIncompleteBeta(0.5 * (d + 1), 0.5, x);
}

double CapVolumeFractionEvenSeries(int d, double alpha) {
  HM_CHECK_GE(d, 2);
  HM_CHECK_EQ(d % 2, 0);
  HM_CHECK_GE(alpha, -1e-12);
  HM_CHECK_LE(alpha, kPi + 1e-12);
  alpha = std::clamp(alpha, 0.0, kPi);
  // Eq. 5: (1/pi) * (alpha - cos(alpha) * sum_{i=0}^{(d-2)/2} c_i sin^{2i+1}(alpha))
  // with c_i = 2^{2i} (i!)^2 / (2i+1)!. Compute coefficients in log space to
  // stay stable for large d.
  const double sin_a = std::sin(alpha);
  const double cos_a = std::cos(alpha);
  double sum = 0.0;
  if (sin_a > 0.0) {
    const double log_sin = std::log(sin_a);
    for (int i = 0; i <= (d - 2) / 2; ++i) {
      const double log_coeff =
          2.0 * i * std::log(2.0) + 2.0 * LogFactorial(i) - LogFactorial(2 * i + 1);
      sum += std::exp(log_coeff + (2.0 * i + 1.0) * log_sin);
    }
  }
  return (alpha - cos_a * sum) / kPi;
}

double CapVolumeFractionSineRecurrence(int d, double alpha) {
  HM_CHECK_GE(d, 1);
  HM_CHECK_GE(alpha, -1e-12);
  HM_CHECK_LE(alpha, kPi + 1e-12);
  alpha = std::clamp(alpha, 0.0, kPi);
  // S_k = integral of sin^k over [0, alpha], built bottom-up from
  // S_0 = alpha and S_1 = 1 - cos(alpha).
  const double sin_a = std::sin(alpha);
  const double cos_a = std::cos(alpha);
  double s_even = alpha;           // S_0
  double s_odd = 1.0 - cos_a;      // S_1
  double integral = d >= 2 ? 0.0 : (d == 0 ? s_even : s_odd);
  for (int k = 2; k <= d; ++k) {
    double& prev = (k % 2 == 0) ? s_even : s_odd;
    prev = (-cos_a * std::pow(sin_a, k - 1) + (k - 1) * prev) / k;
    if (k == d) integral = prev;
  }
  if (d == 1) integral = s_odd;
  const double coefficient =
      std::exp(LogGamma(0.5 * d + 1.0) - 0.5 * std::log(kPi) - LogGamma(0.5 * (d + 1)));
  return std::clamp(coefficient * integral, 0.0, 1.0);
}

double SphereIntersectionFraction(int d, double r, double eps, double b) {
  HM_CHECK_GE(d, 1);
  HM_CHECK_GT(r, 0.0);
  HM_CHECK_GE(eps, 0.0);
  HM_CHECK_GE(b, 0.0);
  if (eps == 0.0) return 0.0;
  // Disjoint (or tangent) spheres share no volume.
  if (b >= r + eps) return 0.0;
  // Data sphere entirely inside the query sphere.
  if (b + r <= eps) return 1.0;
  // Query sphere entirely inside the data sphere.
  if (b + eps <= r) {
    if (d <= kClosedFormMaxDim) return LowDimPower(eps / r, d);
    return std::exp(d * (std::log(eps) - std::log(r)));
  }
  // Proper lens: two caps, one from each sphere, joined at the plane of the
  // intersection (d-2)-sphere.
  HM_CHECK_GT(b, 0.0);
  if (d <= kClosedFormMaxDim) {
    // Half-angle sines² from the three gaps, each > 0 because the tests
    // above failed on the same sums: (1 - cos alpha) / 2 and
    // (1 - cos beta) / 2 without a cosine near 1 (DESIGN.md §25).
    const double gap = r + eps - b;
    const double h_alpha = std::min(gap * (eps + b - r) / (4.0 * b * r), 1.0);
    const double h_beta = std::min(gap * (r + b - eps) / (4.0 * b * eps), 1.0);
    const double lens_over_vol_r =
        LowDimCap(d, h_alpha) + LowDimPower(eps / r, d) * LowDimCap(d, h_beta);
    if (std::isfinite(lens_over_vol_r)) return std::clamp(lens_over_vol_r, 0.0, 1.0);
  }
  // Law of cosines gives the half-angles.
  const double cos_alpha = std::clamp((b * b + r * r - eps * eps) / (2.0 * b * r), -1.0, 1.0);
  const double cos_beta = std::clamp((b * b + eps * eps - r * r) / (2.0 * b * eps), -1.0, 1.0);
  const double alpha = std::acos(cos_alpha);
  const double beta = std::acos(cos_beta);
  // The query's cap is scaled to the data sphere by (eps/r)^d. At high d
  // that factor can overflow while the cap underflows: 0 * inf is NaN, and
  // a subnormal cap carries too few bits (times inf it clamps to a wrong 1).
  // Only then are the two combined in log space; every product that is
  // finite and computed from a normal cap keeps its bits.
  const double cap_beta = CapVolumeFraction(d, beta);
  const double log_ratio = d * (std::log(eps) - std::log(r));
  double beta_term = cap_beta * std::exp(log_ratio);
  if (!std::isfinite(beta_term) ||
      (cap_beta < std::numeric_limits<double>::min() &&
       beta_term >= std::numeric_limits<double>::min())) {
    beta_term = std::exp(LogCapVolumeFraction(d, beta) + log_ratio);
  }
  const double lens_over_vol_r = CapVolumeFraction(d, alpha) + beta_term;
  return std::clamp(lens_over_vol_r, 0.0, 1.0);
}

}  // namespace hyperm::geom
