#include "geom/radius_estimator.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "common/check.h"
#include "geom/sphere_volume.h"

namespace hyperm::geom {
namespace {

// Fraction of a (possibly degenerate) cluster covered by an eps-query whose
// center sits at distance b from the cluster centroid.
double CoveredFraction(int d, const ClusterView& c, double eps) {
  if (c.radius <= 0.0) {
    // A point cluster is either fully covered or not at all.
    return c.center_distance <= eps ? 1.0 : 0.0;
  }
  return SphereIntersectionFraction(d, c.radius, eps, c.center_distance);
}

}  // namespace

double ExpectedItems(int d, const std::vector<ClusterView>& clusters, double eps) {
  HM_CHECK_GE(eps, 0.0);
  double expected = 0.0;
  for (const ClusterView& c : clusters) {
    expected += CoveredFraction(d, c, eps) * c.items;
  }
  return expected;
}

Result<double> SolveRadiusForCount(int d, const std::vector<ClusterView>& clusters,
                                   double k, const RadiusSolveOptions& options,
                                   RadiusSolveStats* stats) {
  RadiusSolveStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = RadiusSolveStats{};
  if (clusters.empty()) {
    return InvalidArgumentError("SolveRadiusForCount: no clusters");
  }
  if (k <= 0.0) {
    return InvalidArgumentError("SolveRadiusForCount: k must be positive");
  }
  double total_items = 0.0;
  double hi = 0.0;
  // Point clusters are E's only discontinuities: E jumps by their items at
  // their distance. (distance, items), sorted by distance.
  std::vector<std::pair<double, int>> steps;
  for (const ClusterView& c : clusters) {
    HM_CHECK_GE(c.radius, 0.0);
    HM_CHECK_GE(c.center_distance, 0.0);
    HM_CHECK_GT(c.items, 0);
    total_items += c.items;
    hi = std::fmax(hi, c.center_distance + c.radius);
    if (c.radius <= 0.0) steps.emplace_back(c.center_distance, c.items);
  }
  if (k > total_items) {
    return OutOfRangeError("SolveRadiusForCount: k exceeds reachable items");
  }
  std::sort(steps.begin(), steps.end());
  auto expected = [&](double eps) {
    ++stats->sweeps;
    return ExpectedItems(d, clusters, eps);
  };
  // E(0) = 0 (clusters whose centroid coincides with the query contribute 0
  // volume at eps=0 unless they are point clusters at distance 0; in that
  // rare case E(0) may already exceed k and eps=0 is the answer).
  double lo = 0.0;
  const double e_lo = expected(lo);
  if (e_lo >= k) return 0.0;
  const double e_hi = expected(hi);
  if (e_hi < k) {
    // Numerical slack: at eps=hi every cluster is fully covered, so E(hi)
    // should reach k; treat tiny shortfalls as converged.
    if (e_hi > k - options.tolerance) return hi;
    stats->converged = false;
    return OutOfRangeError("SolveRadiusForCount: target not bracketed");
  }

  // Illinois false position on g(eps) = E(eps)^(1/d) - k^(1/d). E grows
  // roughly like eps^d, so g is close to linear and the secant lands near
  // the root; g has E - k's root and signs, but the bracket is kept on the
  // sign of E - k itself: f(lo) < 0 <= f(hi) throughout. Each step costs
  // one ExpectedItems sweep.
  const double inv_d = 1.0 / d;
  const double k_root = std::pow(k, inv_d);
  double g_lo = std::pow(e_lo, inv_d) - k_root;
  double g_hi = std::pow(e_hi, inv_d) - k_root;
  int kept = 0;  // -1: the last step moved lo, +1: it moved hi
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    double eps = hi - g_hi * (hi - lo) / (g_hi - g_lo);
    // Rounding can put the secant on (or past) an end; bisect instead.
    if (!(eps > lo && eps < hi)) eps = 0.5 * (lo + hi);
    // When a single step distance lies inside the bracket, test it instead:
    // the sweep either finds E jumping across k there or leaves a bracket on
    // which E is continuous. Secants close in on a jump only about as fast
    // as bisection.
    const auto first = std::upper_bound(
        steps.begin(), steps.end(), lo,
        [](double x, const std::pair<double, int>& s) { return x < s.first; });
    const auto last = std::lower_bound(
        first, steps.end(), hi,
        [](const std::pair<double, int>& s, double x) { return s.first < x; });
    double jump = 0.0;
    if (first != last && first->first == std::prev(last)->first) {
      eps = first->first;
      for (auto s = first; s != last; ++s) jump += s->second;
    }
    const double e = expected(eps);
    if (std::fabs(e - k) <= options.tolerance) return eps;
    // E(eps-) = e - jump: the step at eps straddles k, so no radius meets
    // the tolerance and eps is where E first reaches k.
    if (e > k && e - jump < k - options.tolerance) return eps;
    const double g = std::pow(e, inv_d) - k_root;
    if (e < k) {
      lo = eps;
      g_lo = g;
      // Illinois: hi survived twice, so halve its weight to pull the next
      // secant towards it instead of creeping up from one side.
      if (kept == -1) g_hi *= 0.5;
      kept = -1;
    } else {
      hi = eps;
      g_hi = g;
      if (kept == 1) g_lo *= 0.5;
      kept = 1;
    }
    // A step straddling k that a secant hit by chance ends up as hi, not
    // inside the bracket: the bracket then collapses onto it.
    if (hi - lo < 1e-12 * (1.0 + hi)) return hi;
  }
  // Budget exhausted: hi is the best radius known to cover k.
  stats->converged = false;
  return hi;
}

}  // namespace hyperm::geom
