#include "wavelet/coarse.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace hyperm::wavelet {
namespace {

// Unit roundoff (2^-53): the relative error of one correctly rounded op.
constexpr double kUnitRoundoff = std::numeric_limits<double>::epsilon() / 2;

// Length of the zero-padded vector the pyramid is taken over.
size_t PaddedLength(size_t dim) {
  size_t padded = 1;
  while (padded < dim) padded <<= 1;
  return padded;
}

}  // namespace

double CoarseHaar(const double* x, size_t dim, double* out) {
  const size_t padded = PaddedLength(dim);
  const size_t blocks = std::min(kCoarseCoefficients, padded);
  const size_t width = padded / blocks;
  // One sum per block of `width` padded coordinates; padding adds nothing.
  // Each block keeps its own Σ|x_i| too, so no addition chain spans blocks.
  double sums[kCoarseCoefficients];
  double abs_sum = 0.0;
  for (size_t j = 0; j < blocks; ++j) {
    double sum = 0.0, abs_block = 0.0;
    for (size_t i = j * width; i < std::min(dim, (j + 1) * width); ++i) {
      sum += x[i];
      abs_block += std::abs(x[i]);
    }
    sums[j] = sum;
    abs_sum += abs_block;
  }
  std::fill(out, out + kCoarseCoefficients, 0.0);
  // Haar steps over the block sums, finest level first: a node spanning
  // `span` padded coordinates has the orthonormal detail
  // (left − right) / √span and passes left + right up to its parent.
  size_t nodes = blocks;
  double span = static_cast<double>(width);
  while (nodes > 1) {
    const size_t half = nodes / 2;
    span *= 2.0;
    const double norm = std::sqrt(span);
    for (size_t k = 0; k < half; ++k) {
      out[half + k] = (sums[2 * k] - sums[2 * k + 1]) / norm;
      sums[k] = sums[2 * k] + sums[2 * k + 1];
    }
    nodes = half;
  }
  out[0] = sums[0] / std::sqrt(span);  // span == padded
  return abs_sum;
}

CoarseMargin::CoarseMargin(size_t dim, double abs_sum) {
  // n roundoffs cover every rounding chain: a block sum and the tree above
  // it (P/8 + 3 additions, two for √span and the division), a squared
  // distance (dim + 1) and PruneThreshold's own few operations.
  const double n = static_cast<double>(PaddedLength(dim) + 16);
  grow_ = 1.0 + 8.0 * n * kUnitRoundoff;
  // Each computed coefficient is within 2·n·u·Σ|x_i| of the exact one, so
  // each difference is within 2·n·u·abs_sum, and the 8-term difference
  // vector within √8 < 3 times that (Minkowski).
  coef_err_ = 3.0 * 2.0 * n * kUnitRoundoff * abs_sum;
  // PruneThreshold: a computed squared distance at most bound_sq means a
  // true distance at most √((bound_sq + tiny)·grow); its true coefficient
  // bound is no larger, and the computed bound at most coef_err (plus
  // rounding) above.
}

}  // namespace hyperm::wavelet
