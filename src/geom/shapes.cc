#include "geom/shapes.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace hyperm::geom {

bool Sphere::Contains(const Vector& p) const {
  return vec::SquaredDistance(center, p) <= radius * radius;
}

bool Sphere::Intersects(const Sphere& other) const {
  const double reach = radius + other.radius;
  return vec::SquaredDistance(center, other.center) <= reach * reach;
}

bool Box::ContainsHalfOpen(const Vector& p) const {
  HM_CHECK_EQ(p.size(), lo.size());
  for (size_t i = 0; i < p.size(); ++i) {
    if (p[i] < lo[i] || p[i] >= hi[i]) return false;
  }
  return true;
}

double Box::SquaredDistanceTo(const Vector& p) const {
  HM_CHECK_EQ(p.size(), lo.size());
  double sum = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    const double clamped = std::clamp(p[i], lo[i], hi[i]);
    const double diff = p[i] - clamped;
    sum += diff * diff;
  }
  return sum;
}

bool Box::IntersectsSphere(const Sphere& sphere) const {
  return SquaredDistanceTo(sphere.center) <= sphere.radius * sphere.radius;
}

double Box::Volume() const {
  double v = 1.0;
  for (size_t i = 0; i < lo.size(); ++i) v *= (hi[i] - lo[i]);
  return v;
}

}  // namespace hyperm::geom
