// Special functions used by the geometry module: log-gamma based helpers and
// the regularized incomplete beta function. Implemented locally so that the
// library has no dependency beyond the C++ standard library.

#ifndef HYPERM_COMMON_MATH_UTIL_H_
#define HYPERM_COMMON_MATH_UTIL_H_

#include <cstdint>

namespace hyperm {

/// Natural log of the gamma function (thin wrapper over std::lgamma, kept
/// here so callers do not depend on <cmath> details).
double LogGamma(double x);

/// log(n!) for n >= 0.
double LogFactorial(int n);

/// log of the double factorial n!! for n >= -1 (with (-1)!! = 0!! = 1).
double LogDoubleFactorial(int n);

/// Regularized incomplete beta function I_x(a, b) for a, b > 0 and
/// x in [0, 1], computed with the Lentz continued-fraction expansion.
/// Accuracy ~1e-12 over the tested domain. Thread-safe: the (a, b)-only
/// log-gamma term is memoized per thread, and a memoized value is bitwise
/// the one a fresh evaluation produces.
double RegularizedIncompleteBeta(double a, double b, double x);

/// log I_x(a, b), finite wherever I_x(a, b) > 0 even when I_x itself
/// underflows a double; -inf at x = 0.
double LogRegularizedIncompleteBeta(double a, double b, double x);

/// Numerically stable log(exp(a) + exp(b)).
double LogSumExp(double a, double b);

/// True iff |a - b| <= abs_tol + rel_tol * max(|a|, |b|).
bool AlmostEqual(double a, double b, double abs_tol = 1e-12, double rel_tol = 1e-9);

/// Smallest power of two >= n (n >= 1). Fatal on n < 1.
int64_t NextPowerOfTwo(int64_t n);

/// True iff n is a power of two (n >= 1).
bool IsPowerOfTwo(int64_t n);

/// Integer base-2 logarithm of a power of two. Fatal if n is not one.
int Log2Exact(int64_t n);

}  // namespace hyperm

#endif  // HYPERM_COMMON_MATH_UTIL_H_
