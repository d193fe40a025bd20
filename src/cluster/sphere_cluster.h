// Cluster summaries (Section 3.1).
//
// Hyper-M publishes clusters, not items. A cluster is represented as a
// hypersphere: its centroid, the radius covering every member, and the
// number of items it summarises (used to estimate peer relevance, Eq. 1).

#ifndef HYPERM_CLUSTER_SPHERE_CLUSTER_H_
#define HYPERM_CLUSTER_SPHERE_CLUSTER_H_

#include <vector>

#include "vec/vector.h"

namespace hyperm::cluster {

/// A published data summary: sphere + population count.
struct SphereCluster {
  Vector centroid;
  double radius = 0.0;
  int count = 0;  ///< number of data items inside

  /// Dimensionality of the cluster's space.
  size_t dim() const { return centroid.size(); }
};

/// Builds the summary of one group of points: centroid = mean, radius =
/// max distance from centroid to a member, count = |points|. Fatal on empty.
SphereCluster Summarize(const std::vector<Vector>& points);

}  // namespace hyperm::cluster

#endif  // HYPERM_CLUSTER_SPHERE_CLUSTER_H_
