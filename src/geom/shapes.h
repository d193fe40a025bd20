// Basic geometric shapes shared by the overlay and core modules.

#ifndef HYPERM_GEOM_SHAPES_H_
#define HYPERM_GEOM_SHAPES_H_

#include "vec/vector.h"

namespace hyperm::geom {

/// A hypersphere: the representation of both data clusters and range
/// queries throughout Hyper-M (Section 3.1).
struct Sphere {
  Vector center;
  double radius = 0.0;

  /// Dimensionality of the ambient space.
  size_t dim() const { return center.size(); }

  /// True iff `p` lies inside or on the sphere.
  bool Contains(const Vector& p) const;

  /// True iff the two spheres share at least one point.
  bool Intersects(const Sphere& other) const;
};

/// An axis-aligned box [lo, hi] (used for CAN zones).
struct Box {
  Vector lo;
  Vector hi;

  size_t dim() const { return lo.size(); }

  /// True iff `p` is inside (lo inclusive, hi exclusive — the half-open
  /// convention under which CAN zones exactly tile the key space).
  bool ContainsHalfOpen(const Vector& p) const;

  /// Squared Euclidean distance from `p` to the closed box (0 if inside).
  double SquaredDistanceTo(const Vector& p) const;

  /// True iff the closed box intersects the sphere.
  bool IntersectsSphere(const Sphere& sphere) const;

  /// Product of side lengths.
  double Volume() const;
};

}  // namespace hyperm::geom

#endif  // HYPERM_GEOM_SHAPES_H_
