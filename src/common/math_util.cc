#include "common/math_util.h"

#include <cmath>
#include <limits>

#include "common/check.h"

namespace hyperm {
namespace {

// Continued-fraction core of the incomplete beta function (Numerical Recipes
// style modified Lentz algorithm).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr int kMaxIterations = 500;
  constexpr double kEpsilon = 1e-15;
  constexpr double kTiny = 1e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    const int m2 = 2 * m;
    // Even step.
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    // Odd step.
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEpsilon) break;
  }
  return h;
}

}  // namespace

double LogGamma(double x) {
#if defined(__GLIBC__) || defined(__APPLE__)
  // glibc's lgamma writes the global `signgam`; the reentrant variant leaves
  // no shared state behind, so callers on any thread need no lock.
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

double LogFactorial(int n) {
  HM_CHECK_GE(n, 0);
  return LogGamma(static_cast<double>(n) + 1.0);
}

double LogDoubleFactorial(int n) {
  HM_CHECK_GE(n, -1);
  if (n <= 0) return 0.0;  // (-1)!! = 0!! = 1.
  if (n % 2 == 0) {
    // n!! = 2^(n/2) * (n/2)!
    const int half = n / 2;
    return half * std::log(2.0) + LogFactorial(half);
  }
  // n!! = n! / ((n-1)!!) = n! / (2^((n-1)/2) * ((n-1)/2)!)
  const int half = (n - 1) / 2;
  return LogFactorial(n) - half * std::log(2.0) - LogFactorial(half);
}

double RegularizedIncompleteBeta(double a, double b, double x) {
  HM_CHECK_GT(a, 0.0);
  HM_CHECK_GT(b, 0.0);
  HM_CHECK_GE(x, 0.0);
  HM_CHECK_LE(x, 1.0);
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;

  const double log_front =
      LogGamma(a + b) - LogGamma(a) - LogGamma(b) + a * std::log(x) + b * std::log1p(-x);
  // Use the continued fraction directly where it converges fast, otherwise
  // use the symmetry relation I_x(a,b) = 1 - I_{1-x}(b,a).
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return std::exp(log_front) * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - std::exp(log_front) * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

double LogRegularizedIncompleteBeta(double a, double b, double x) {
  HM_CHECK_GT(a, 0.0);
  HM_CHECK_GT(b, 0.0);
  HM_CHECK_GE(x, 0.0);
  HM_CHECK_LE(x, 1.0);
  if (x == 0.0) return -std::numeric_limits<double>::infinity();
  if (x == 1.0) return 0.0;
  // Same split as RegularizedIncompleteBeta, but the small branch stays in
  // log space; the other branch is at least ~1/2 and cannot underflow.
  const double log_front =
      LogGamma(a + b) - LogGamma(a) - LogGamma(b) + a * std::log(x) + b * std::log1p(-x);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return log_front + std::log(BetaContinuedFraction(a, b, x) / a);
  }
  return std::log1p(-std::exp(log_front) * BetaContinuedFraction(b, a, 1.0 - x) / b);
}

double LogSumExp(double a, double b) {
  const double hi = a > b ? a : b;
  const double lo = a > b ? b : a;
  if (std::isinf(hi) && hi < 0) return hi;  // both -inf
  return hi + std::log1p(std::exp(lo - hi));
}

bool AlmostEqual(double a, double b, double abs_tol, double rel_tol) {
  const double diff = std::fabs(a - b);
  const double scale = std::fmax(std::fabs(a), std::fabs(b));
  return diff <= abs_tol + rel_tol * scale;
}

int64_t NextPowerOfTwo(int64_t n) {
  HM_CHECK_GE(n, 1);
  int64_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool IsPowerOfTwo(int64_t n) { return n >= 1 && (n & (n - 1)) == 0; }

int Log2Exact(int64_t n) {
  HM_CHECK(IsPowerOfTwo(n)) << "n=" << n;
  int log = 0;
  while ((int64_t{1} << log) < n) ++log;
  return log;
}

}  // namespace hyperm
