// Value types exchanged with the overlay that indexes published summaries.
//
// Hyper-M publishes cluster spheres into, and range-queries against, one CAN
// (src/can) per wavelet subspace — the paper's evaluation overlay. This
// header holds only the data that crosses that boundary (cluster records,
// cost receipts, query results, storage snapshots), so layers that consume
// them (scoring, storage metrics, the backbone, the serving layer) need not
// depend on the CAN implementation.
//
// Key-space convention: the overlay indexes the half-open unit cube
// [0,1)^dim. The caller (hyperm core) maps wavelet coordinates into this
// cube with a *uniform* per-level scale so spheres stay spheres and volume
// *fractions* — all the scoring math needs — are preserved exactly.

#ifndef HYPERM_OVERLAY_OVERLAY_H_
#define HYPERM_OVERLAY_OVERLAY_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "geom/shapes.h"
#include "net/transport.h"

namespace hyperm::overlay {

/// Overlay node handle (index into the overlay's node table).
using NodeId = int;
inline constexpr NodeId kInvalidNode = -1;

/// A cluster summary as published into an overlay: its sphere in the
/// normalized key space plus enough metadata to score and fetch from the
/// owning application peer.
struct PublishedCluster {
  geom::Sphere sphere;      ///< centroid + radius in [0,1)^dim key space
  int owner_peer = -1;      ///< application peer holding the summarized items
  int items = 0;            ///< number of items the cluster summarizes
  uint64_t cluster_id = 0;  ///< globally unique id (dedupes replicas)

  /// Soft state: simulated time after which the summary may be garbage
  /// collected (owners republish to refresh it). Infinity = never expires,
  /// the behavior of every pre-soft-state publication.
  double expires_at = std::numeric_limits<double>::infinity();
};

/// Cost receipt for one publication.
struct InsertReceipt {
  int routing_hops = 0;  ///< greedy hops from origin to the centroid owner
  int replicas = 0;      ///< additional zones the sphere was replicated into

  /// False when the transport lost the publication before it reached the
  /// centroid owner (always true without faults or a radio channel).
  bool delivered = true;
  double latency_ms = 0.0;  ///< accumulated link latency along the route
};

/// Result of a range query.
struct RangeQueryResult {
  std::vector<PublishedCluster> matches;  ///< deduplicated intersecting clusters
  int routing_hops = 0;                   ///< hops to reach the query center owner
  int flood_hops = 0;                     ///< zone-flood edges traversed
  int nodes_visited = 0;                  ///< overlay nodes that evaluated the query

  /// False when the transport lost the initial routing phase; the flood
  /// never started and `matches` is empty.
  bool delivered = true;
  double latency_ms = 0.0;  ///< time until the slowest flood branch answered

  /// Cause of the routing phase's fate (kDelivered iff `delivered`). Lets the
  /// query executor tell transient failures (partition, island split — worth
  /// deferring and re-issuing) from dead ends (loss, crashed peer).
  net::DeliveryOutcome outcome = net::DeliveryOutcome::kDelivered;

  /// Alternate-neighbour forwards the routing phase took around unreachable
  /// next hops (0 unless the overlay's detour budget is set and was needed).
  int route_detours = 0;

  /// Node the zone flood started from — the owner of the query center's zone
  /// (kInvalidNode when the routing phase never delivered). Zone assignments
  /// are static after Build, so this is a stable "who serves queries landing
  /// here" association; the serving layer's shortcut miner feeds on it.
  NodeId entry_node = kInvalidNode;
};

/// Per-node storage snapshot (drives the Fig. 9 distribution analysis).
struct NodeStorage {
  NodeId node = kInvalidNode;
  int clusters = 0;  ///< replicas count individually
  int items = 0;     ///< sum of items over stored clusters (with replicas)
};

}  // namespace hyperm::overlay

#endif  // HYPERM_OVERLAY_OVERLAY_H_
