// The coarse end of the orthonormal Haar pyramid, and the lower bound on a
// squared distance that it gives.
//
// Orthonormal Haar is an isometry, so by Parseval any subset of a vector's
// coefficients holds at most its energy: for every x and q,
//
//   Σ_k (c_k(x) − c_k(q))² ≤ ‖x − q‖².
//
// Hyper-M's premise (Thm 3.1) is that the coarse levels carry most of a
// distance, so the 8 coarsest coefficients — the A, D_0, D_1 and D_2 levels
// that Hyper-M publishes — rule out most far items in 8 terms instead of d.
// A peer keeps them next to every stored item and drops the rows whose bound
// already exceeds the search threshold before it runs the exact scan.
//
// Rounding makes the computed bound and the computed exact distance differ
// from the true values, so the test is made against CoarseMargin::PruneThreshold,
// which widens the threshold by a written margin (DESIGN.md §23). A row is
// dropped only when its exact squared distance, as vec::SquaredDistance sums
// it, provably exceeds the threshold.

#ifndef HYPERM_WAVELET_COARSE_H_
#define HYPERM_WAVELET_COARSE_H_

#include <cmath>
#include <cstddef>

namespace hyperm::wavelet {

/// Coefficients CoarseHaar writes: A, D_0, D_1[0..1], D_2[0..3].
inline constexpr size_t kCoarseCoefficients = 8;

/// Writes the kCoarseCoefficients coarsest orthonormal Haar coefficients of
/// `x` (`dim` doubles) to `out`, in pyramid order: DecomposeWith(
/// kHaarOrthonormal, PadToPowerOfTwo(x)) truncated to A, D_0, D_1, D_2. When
/// the padded length P is below 8, only the first P entries are coefficients
/// and the rest are 0, which adds nothing to a bound. Returns Σ_i |x_i|, the
/// magnitude CoarseMargin needs. O(dim).
double CoarseHaar(const double* x, size_t dim, double* out);

/// Σ_k (a_k − b_k)² over two coefficient rows, summed in ascending k.
inline double CoarseBoundSq(const double* a, const double* b) {
  double sum = 0.0;
  for (size_t k = 0; k < kCoarseCoefficients; ++k) {
    const double diff = a[k] - b[k];
    sum += diff * diff;
  }
  return sum;
}

/// The rounding margin of the coarse filter for one query: built once per
/// search from `dim` and a magnitude `abs_sum` with Σ|x_i| + Σ|q_i| <=
/// abs_sum for the query q and every row x it is tested against.
class CoarseMargin {
 public:
  CoarseMargin(size_t dim, double abs_sum);

  /// The value a CoarseBoundSq must exceed before its row may be dropped:
  /// CoarseBoundSq(c(x), c(q)) > PruneThreshold(bound_sq) implies
  /// vec::SquaredDistance(x, q) > bound_sq. An infinite `bound_sq` or
  /// `abs_sum` gives +inf, which drops nothing.
  double PruneThreshold(double bound_sq) const {
    const double radius = std::sqrt((bound_sq + kTinySq) * grow_) + coef_err_;
    return grow_ * radius * radius + kTinySq;
  }

 private:
  // Absolute slack for squared terms that underflow into subnormals (whose
  // rounding error is absolute, not relative).
  static constexpr double kTinySq = 1e-300;

  double grow_;      // 1 + the relative slack of a rounding chain
  double coef_err_;  // the absolute error of the 8-term difference vector
};

}  // namespace hyperm::wavelet

#endif  // HYPERM_WAVELET_COARSE_H_
