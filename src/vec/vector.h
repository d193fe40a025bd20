// Dense real-valued vectors and the distance/norm kernels used throughout
// Hyper-M. Feature vectors (colour histograms, tone histograms, synthetic
// traces) are plain `std::vector<double>` values; this header provides the
// vocabulary operations on them.

#ifndef HYPERM_VEC_VECTOR_H_
#define HYPERM_VEC_VECTOR_H_

#include <cstddef>
#include <vector>

namespace hyperm {

/// A dense feature vector. Dimensionality is the size().
using Vector = std::vector<double>;

namespace vec {

/// Element-wise a + b. Requires equal dimensionality.
Vector Add(const Vector& a, const Vector& b);

/// Element-wise a - b. Requires equal dimensionality.
Vector Sub(const Vector& a, const Vector& b);

/// s * a.
Vector Scale(const Vector& a, double s);

/// In-place a += b. Requires equal dimensionality.
void AddInPlace(Vector& a, const Vector& b);

/// In-place a *= s.
void ScaleInPlace(Vector& a, double s);

/// Inner product. Requires equal dimensionality.
double Dot(const Vector& a, const Vector& b);

/// Squared Euclidean norm.
double SquaredNorm(const Vector& a);

/// Euclidean norm.
double Norm(const Vector& a);

/// Squared Euclidean distance. Requires equal dimensionality.
double SquaredDistance(const Vector& a, const Vector& b);

/// Euclidean (L2) distance. Requires equal dimensionality.
double Distance(const Vector& a, const Vector& b);

/// Manhattan (L1) distance. Requires equal dimensionality.
double L1Distance(const Vector& a, const Vector& b);

/// Chebyshev (L-infinity) distance. Requires equal dimensionality.
double LinfDistance(const Vector& a, const Vector& b);

/// Arithmetic mean of `points` (all of equal dimensionality; non-empty).
Vector Mean(const std::vector<Vector>& points);

/// Normalizes `a` to unit L1 mass in place; no-op on the zero vector.
void NormalizeL1InPlace(Vector& a);

/// True iff no coordinate is NaN or infinite.
bool AllFinite(const Vector& a);

}  // namespace vec

/// Per-dimension axis-aligned bounds of a point set; used to map wavelet
/// coordinates into the CAN key torus.
struct Bounds {
  Vector lo;  ///< per-dimension minimum
  Vector hi;  ///< per-dimension maximum

  /// Dimensionality covered (lo and hi always have equal size).
  size_t dim() const { return lo.size(); }

  /// Bounds of an empty set over `dim` dimensions: lo=+inf style sentinel is
  /// avoided; instead this returns [0,1]^dim, the identity mapping.
  static Bounds Unit(size_t dim);

  /// Tight bounds of `points` (non-empty, equal dimensionality).
  static Bounds Of(const std::vector<Vector>& points);

  /// Grows this to also cover `p`.
  void Extend(const Vector& p);

  /// True iff p lies inside (component-wise, inclusive).
  bool Contains(const Vector& p) const;
};

}  // namespace hyperm

#endif  // HYPERM_VEC_VECTOR_H_
