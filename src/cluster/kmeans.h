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
#include "obs/trace.h"
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
  int reseeds = 0;                      ///< empty clusters refilled
};

/// Clusters `points` into at most `options.k` sphere summaries.
///
/// Deterministic given `rng`'s state. Empty clusters are reseeded with the
/// point currently farthest from its centroid, so the returned clusters are
/// always non-empty and their counts sum to |points|.
/// Returns InvalidArgument on empty input, k < 1, points of unequal
/// dimensionality or a non-finite coordinate.
///
/// Records nothing, so pool tasks may run it (DESIGN.md §8); the caller
/// reports the run through RecordKMeansRun on its own thread.
Result<KMeansResult> KMeans(const std::vector<Vector>& points,
                            const KMeansOptions& options, Rng& rng);

/// Records one finished run into the global registry: the kmeans.runs,
/// kmeans.points and kmeans.reseeds counters, the kmeans.iterations
/// histogram, and `wall_us` (the caller's measurement of the KMeans call)
/// into the kmeans.wall_us histogram. kmeans.reseeds is registered by the
/// first run that reseeds, so reports of runs without one do not list it.
inline void RecordKMeansRun(const KMeansResult& result, double wall_us) {
  HM_OBS_COUNTER_ADD("kmeans.runs", 1);
  HM_OBS_COUNTER_ADD("kmeans.points", result.assignments.size());
  if (result.reseeds > 0) HM_OBS_COUNTER_ADD("kmeans.reseeds", result.reseeds);
  HM_OBS_HISTOGRAM("kmeans.iterations", obs::Buckets::Linear(0, 64, 32),
                   result.iterations);
  HM_OBS_HISTOGRAM("kmeans.wall_us", obs::Buckets::Exponential(1, 4.0, 14),
                   wall_us);
}

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
