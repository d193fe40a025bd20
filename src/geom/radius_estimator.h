// Inversion of the "query radius -> expected retrieved items" model (Eq. 8).
//
// Given the published cluster summaries reachable in one wavelet subspace,
// the expected number of items a range query of radius eps retrieves is
//
//   E(eps) = sum_c SphereIntersectionFraction(d, r_c, eps, b_c) * items_c
//
// which is continuous and non-decreasing in eps. The k-NN heuristic (Fig. 5,
// step 2) needs the inverse: the radius that yields an expected count of k.
// The paper notes the equation "does not have an analytical solution" and
// solves it numerically (Newton). We use bracketed Illinois false position
// on E(eps)^(1/d) - k^(1/d): E grows roughly like eps^d, so the transformed
// function is close to linear and each step, one ExpectedItems sweep, lands
// near the root. A step that leaves the bracket bisects instead, which keeps
// the solver robust to the flat regions E(eps) exhibits when clusters are
// far apart, and a bracket holding a single point cluster's step is tested
// at that step directly (DESIGN.md §21).

#ifndef HYPERM_GEOM_RADIUS_ESTIMATOR_H_
#define HYPERM_GEOM_RADIUS_ESTIMATOR_H_

#include <vector>

#include "common/result.h"

namespace hyperm::geom {

/// One published cluster as seen from a fixed query point: its radius, the
/// distance from the query point to its centroid, and its item count.
struct ClusterView {
  double radius = 0.0;           ///< cluster sphere radius (>= 0)
  double center_distance = 0.0;  ///< distance from query to centroid (>= 0)
  int items = 0;                 ///< number of data items summarised (> 0)
};

/// Expected number of items retrieved by a range query of radius `eps`
/// against `clusters` in a d-dimensional space (Eq. 8 left-hand side).
/// Point clusters (radius 0) count fully once eps reaches them.
double ExpectedItems(int d, const std::vector<ClusterView>& clusters, double eps);

/// Options for SolveRadiusForCount.
struct RadiusSolveOptions {
  double tolerance = 1e-3;   ///< acceptable |E(eps) - k| (in items)
  int max_iterations = 200;  ///< false-position step budget
};

/// What one SolveRadiusForCount call cost (observability, not a knob).
struct RadiusSolveStats {
  int sweeps = 0;          ///< ExpectedItems sweeps, bracket ends included
  bool converged = true;   ///< false when the step budget ran out
};

/// Finds eps with ExpectedItems(eps) ~= k.
///
/// Returns:
///  * OutOfRange if k exceeds the total number of items in `clusters`
///    (the caller should then use the maximal radius / contact everyone),
///  * InvalidArgument on empty input or non-positive k,
///  * otherwise eps with |E(eps) - k| <= tolerance; where a point cluster's
///    step straddles k, the radius at which E first reaches k; and when the
///    step budget runs out, the bracket's upper end (E(eps) >= k), with
///    `stats->converged` false.
/// `stats`, when non-null, receives the sweep count and convergence flag.
Result<double> SolveRadiusForCount(int d, const std::vector<ClusterView>& clusters,
                                   double k, const RadiusSolveOptions& options = {},
                                   RadiusSolveStats* stats = nullptr);

}  // namespace hyperm::geom

#endif  // HYPERM_GEOM_RADIUS_ESTIMATOR_H_
