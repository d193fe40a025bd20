// Lloyd's k-means with k-means++ seeding.
//
// Hyper-M clusters each wavelet subspace independently (step i2 of Fig. 2);
// k-means is the paper's clustering method of choice because its output maps
// directly onto sphere summaries and it is invariant under the orthogonal
// transformations the DWT applies.

#ifndef HYPERM_CLUSTER_KMEANS_H_
#define HYPERM_CLUSTER_KMEANS_H_

#include <cstddef>
#include <vector>

#include "cluster/sphere_cluster.h"
#include "common/result.h"
#include "common/rng.h"
#include "vec/vector.h"

namespace hyperm::cluster {

/// Tuning parameters for KMeans.
struct KMeansOptions {
  int k = 8;                 ///< requested cluster count (clamped to |points|)
  int max_iterations = 50;   ///< Lloyd iteration budget
  double tolerance = 1e-6;   ///< stop when total centroid movement^2 drops below
  bool plus_plus_seeding = true;  ///< k-means++ (true) or uniform seeding
  /// Exact bounded kernel (true: triangle-inequality skips in the seeding,
  /// Yinyang group and Hamerly half-gap bounds in the assignment steps, clean
  /// clusters keep their sums; DESIGN.md §19) or the naive full-scan
  /// reference kernel (false). Both produce bit-identical results; the naive
  /// kernel exists as the correctness oracle and for benchmarking the bounds.
  bool pruned = true;
};

/// Output of one k-means run.
struct KMeansResult {
  std::vector<SphereCluster> clusters;  ///< non-empty clusters only
  std::vector<int> assignments;         ///< per-point index into `clusters`
  double inertia = 0.0;                 ///< sum of squared distances to centroids
  int iterations = 0;                   ///< Lloyd iterations executed
};

/// Clusters `points` into at most `options.k` sphere summaries.
///
/// Deterministic given `rng`'s state. Empty clusters are reseeded with the
/// point currently farthest from its centroid, so the returned clusters are
/// always non-empty and their counts sum to |points|.
/// Returns InvalidArgument on empty input, k < 1, points of unequal
/// dimensionality or a non-finite coordinate.
Result<KMeansResult> KMeans(const std::vector<Vector>& points,
                            const KMeansOptions& options, Rng& rng);

namespace internal {

/// Subtract-scan weighted pick used by k-means++ seeding: returns the first
/// index i with weights[0..i] summing past `target`. When floating-point
/// rounding lets `target` survive the whole scan, falls back to the last
/// index with a strictly positive weight (never a zero-weight point, which
/// would duplicate an already-chosen centroid). Exposed for unit testing.
size_t PickWeightedIndex(const std::vector<double>& weights, double target);

}  // namespace internal

}  // namespace hyperm::cluster

#endif  // HYPERM_CLUSTER_KMEANS_H_
