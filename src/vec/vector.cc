#include "vec/vector.h"

#include <cmath>

#include "common/check.h"

namespace hyperm {
namespace vec {

Vector Add(const Vector& a, const Vector& b) {
  HM_CHECK_EQ(a.size(), b.size());
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vector Sub(const Vector& a, const Vector& b) {
  HM_CHECK_EQ(a.size(), b.size());
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vector Scale(const Vector& a, double s) {
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

void AddInPlace(Vector& a, const Vector& b) {
  HM_CHECK_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) a[i] += b[i];
}

void ScaleInPlace(Vector& a, double s) {
  for (double& x : a) x *= s;
}

double Dot(const Vector& a, const Vector& b) {
  HM_CHECK_EQ(a.size(), b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double SquaredNorm(const Vector& a) { return Dot(a, a); }

double Norm(const Vector& a) { return std::sqrt(SquaredNorm(a)); }

double SquaredDistance(const Vector& a, const Vector& b) {
  HM_CHECK_EQ(a.size(), b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    sum += diff * diff;
  }
  return sum;
}

double Distance(const Vector& a, const Vector& b) {
  return std::sqrt(SquaredDistance(a, b));
}

double L1Distance(const Vector& a, const Vector& b) {
  HM_CHECK_EQ(a.size(), b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

double LinfDistance(const Vector& a, const Vector& b) {
  HM_CHECK_EQ(a.size(), b.size());
  double max = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    max = std::fmax(max, std::fabs(a[i] - b[i]));
  }
  return max;
}

Vector Mean(const std::vector<Vector>& points) {
  HM_CHECK(!points.empty());
  Vector mean(points.front().size(), 0.0);
  for (const Vector& p : points) AddInPlace(mean, p);
  ScaleInPlace(mean, 1.0 / static_cast<double>(points.size()));
  return mean;
}

void NormalizeL1InPlace(Vector& a) {
  double mass = 0.0;
  for (double x : a) mass += std::fabs(x);
  if (mass > 0.0) ScaleInPlace(a, 1.0 / mass);
}

bool AllFinite(const Vector& a) {
  for (double x : a) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

}  // namespace vec

Bounds Bounds::Unit(size_t dim) {
  Bounds b;
  b.lo.assign(dim, 0.0);
  b.hi.assign(dim, 1.0);
  return b;
}

Bounds Bounds::Of(const std::vector<Vector>& points) {
  HM_CHECK(!points.empty());
  Bounds b;
  b.lo = points.front();
  b.hi = points.front();
  for (size_t i = 1; i < points.size(); ++i) b.Extend(points[i]);
  return b;
}

void Bounds::Extend(const Vector& p) {
  HM_CHECK_EQ(p.size(), lo.size());
  for (size_t i = 0; i < p.size(); ++i) {
    lo[i] = std::fmin(lo[i], p[i]);
    hi[i] = std::fmax(hi[i], p[i]);
  }
}

bool Bounds::Contains(const Vector& p) const {
  HM_CHECK_EQ(p.size(), lo.size());
  for (size_t i = 0; i < p.size(); ++i) {
    if (p[i] < lo[i] || p[i] > hi[i]) return false;
  }
  return true;
}

}  // namespace hyperm
