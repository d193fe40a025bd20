// CAN: Content-Addressable Network overlay (Ratnasamy et al., SIGCOMM'01),
// the overlay used for all of the paper's experiments.
//
// The key space is the half-open unit cube [0,1)^dim, partitioned into one
// rectangular zone per node. Nodes join by routing to the owner of a random
// point, which splits its zone in half along its longest side and hands the
// half containing the join point to the newcomer. Routing is greedy through
// neighbouring zones toward the target key, except that publication and join
// traffic first takes *express contacts*: every node remembers its zone's
// split history and one node in the half each split gave away, so a message
// can fix one split of the target's path per hop (O(log n) hops instead of
// the greedy walk's O(d n^{1/d})).
//
// Differences from the original paper'd CAN, both deliberate:
//  * the key space is *bounded*, not a torus — Hyper-M indexes bounded
//    feature coordinates, for which wraparound adjacency is meaningless;
//  * zero-size keys are generalized to spheres: a published cluster is
//    stored at its centroid's owner and *replicated* into every other zone
//    its sphere overlaps, which is exactly the Fig. 6 requirement that range
//    queries never miss a cluster straddling a zone border.

#ifndef HYPERM_CAN_CAN_OVERLAY_H_
#define HYPERM_CAN_CAN_OVERLAY_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "geom/shapes.h"
#include "net/transport.h"
#include "overlay/overlay.h"
#include "sim/stats.h"
#include "vec/vector.h"

namespace hyperm::can {

/// Outcome of one greedy routing walk.
struct RouteResult {
  overlay::NodeId destination = overlay::kInvalidNode;
  int hops = 0;

  /// False when the transport exhausted its retries on some hop;
  /// `destination` is then kInvalidNode. Always true without a transport.
  bool delivered = true;
  double latency_ms = 0.0;  ///< accumulated per-hop link latency

  /// Every zone the message occupied, in visit order, starting at the origin.
  /// A backtracked walk re-records the zone it retreats to, so the trail is
  /// the message's true path, not just the surviving route. Consecutive
  /// zones are adjacent except across express-contact forwards.
  std::vector<overlay::NodeId> trail;

  /// Detour budget spent: failed forwards retried via an alternate neighbour,
  /// hint-skipped doomed neighbours, and dead-end pocket backtracks.
  int detours = 0;

  /// Cause of the walk's fate (kDelivered iff `delivered`).
  net::DeliveryOutcome outcome = net::DeliveryOutcome::kDelivered;
};

/// CAN overlay implementation. Construct with Build(). Traffic is recorded in
/// the NetworkStats passed to Build (or sent through the transport, once
/// set); all operations are deterministic given the build RNG.
class CanOverlay {
 public:
  /// Bootstraps a CAN of `num_nodes` nodes over [0,1)^dim.
  ///
  /// Join traffic (routing to the join point, split handshake, neighbour
  /// notifications) is recorded into `stats` under TrafficClass::kJoin.
  /// `stats` must outlive the overlay; `rng` drives join-point selection.
  /// Returns InvalidArgument for dim < 1 or num_nodes < 1.
  static Result<std::unique_ptr<CanOverlay>> Build(size_t dim, int num_nodes,
                                                   sim::NetworkStats* stats, Rng& rng);

  /// Key-space dimensionality.
  size_t dim() const { return dim_; }

  /// Number of nodes ever created (departed nodes keep their ids).
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  /// Publishes `cluster` starting from node `origin`. The sphere is stored
  /// at the zone owning its centroid and replicated into every other zone it
  /// overlaps (Fig. 6: otherwise queries landing in a neighbouring zone
  /// would miss it).
  ///
  /// Inserting a cluster_id that is already stored is a refresh: it must
  /// carry the same sphere, and it replaces the stored copies in place. A
  /// changed summary takes a fresh id (after RemoveByOwner). So every stored
  /// copy of one cluster_id has the same sphere, which the range-query flood
  /// relies on to test each id once.
  Result<overlay::InsertReceipt> Insert(const overlay::PublishedCluster& cluster,
                                        overlay::NodeId origin);

  /// Returns all stored clusters whose sphere intersects `query`, flooding
  /// outward from the zone owning the query center. Floods reuse scratch
  /// owned by the overlay, so one overlay serves one query at a time.
  Result<overlay::RangeQueryResult> RangeQuery(const geom::Sphere& query,
                                               overlay::NodeId origin);

  /// RangeQuery via a mined entry hint: `origin` first contacts `entry_hint`
  /// directly (one overlay message instead of the greedy multi-hop walk) and
  /// the walk resumes from there — usually zero hops, because the hint *is*
  /// the query center's zone owner for a repeated query. Fail-soft and
  /// recall-preserving by construction: the flood still starts at the true
  /// zone owner, and any failure on the hinted path reports undelivered so
  /// the caller can fall back to the plain RangeQuery.
  Result<overlay::RangeQueryResult> RangeQueryVia(const geom::Sphere& query,
                                                  overlay::NodeId origin,
                                                  overlay::NodeId entry_hint);

  /// Current storage load of every node.
  std::vector<overlay::NodeStorage> StorageDistribution() const;

  /// Removes all stored clusters (keeps the topology).
  void ClearStorage();

  /// Removes every stored cluster published by `owner_peer` (replicas
  /// included); returns the number of stored entries erased. Supports
  /// re-publication after a peer's local collection changed.
  int RemoveByOwner(int owner_peer);

  /// Enables/disables sphere replication into overlapping zones. ON by
  /// default; turning it OFF recreates the Fig. 6 failure mode (queries
  /// landing in a neighbouring zone miss border-straddling clusters) and
  /// exists for the replication ablation bench.
  void set_replicate_spheres(bool enabled) { replicate_spheres_ = enabled; }

  /// Routes all overlay traffic through `transport` (not owned; may be
  /// nullptr to restore direct stats recording).
  void set_transport(net::Transport* transport) { transport_ = transport; }

  /// k-alternative greedy routing budget for *query* routing: when the best
  /// next hop is unreachable the walk may try up to `budget` alternate
  /// neighbours (backtracking out of dead-end pockets) before declaring the
  /// query lost. 0 (the default) keeps the classic single-path greedy walk;
  /// publication routing always stays single-path.
  void set_route_detours(int budget) { route_detours_ = budget; }

  /// Soft state: erases every stored summary with expires_at < `now` and
  /// returns the number of entries erased.
  int ExpireBefore(double now);

  /// Crash support: wipes `node`'s volatile summary storage (the node keeps
  /// its zone and stays routable) and returns the number of entries lost.
  int ClearNode(overlay::NodeId node);

  // Introspection (tests, experiments) --------------------------------------

  /// The zone owned by `node`.
  const geom::Box& zone(overlay::NodeId node) const;

  /// Neighbour list of `node` (zones adjacent to its own).
  const std::vector<overlay::NodeId>& neighbors(overlay::NodeId node) const;

  /// Exact owner of `key` by zone scan — the routing test oracle.
  /// `key` is clamped into [0,1) per dimension first.
  overlay::NodeId OwnerOf(const Vector& key) const;

  /// Greedy-routes from `origin` toward `key`, sending one message of
  /// `message_bytes` under `cls` per forward (through the transport when one
  /// is set, else straight into NetworkStats).
  ///
  /// kInsert and kJoin traffic forwards into the half of the first split
  /// that does not hold the target, via that split's express contact or a
  /// nearer neighbour inside the half. On a join-only overlay this reaches
  /// the owner in at most split_depth(owner) hops. A node with no usable
  /// contact takes one greedy neighbour step instead, so delivery never
  /// depends on contacts. Query traffic always walks neighbours.
  ///
  /// With `max_detours` == 0 (the default) a transport-level delivery failure
  /// ends the walk with result.delivered == false (Ok status) — the classic
  /// single-path greedy walk. A positive budget buys k-alternative routing:
  /// a failed (or hint-unreachable) best neighbour is marked dead and the
  /// next-closest one tried instead, backtracking out of a zone whose viable
  /// neighbours are exhausted; each alternate forward, hint skip or backtrack
  /// costs one unit of budget. Fails with Internal if the walk exceeds its
  /// TTL (cannot happen on a consistent topology).
  Result<RouteResult> Route(const Vector& key, overlay::NodeId origin,
                            sim::TrafficClass cls, uint64_t message_bytes,
                            net::MessageType type = net::MessageType::kRoute,
                            int max_detours = 0);

  /// Clusters currently stored at `node` (including replicas).
  const std::vector<overlay::PublishedCluster>& stored(overlay::NodeId node) const;

  /// A new node joins the running overlay through the standard CAN
  /// protocol (route to a random point, split the owner's zone). Returns
  /// the new node's id. Join traffic is recorded under kJoin.
  Result<overlay::NodeId> AddNode(Rng& rng);

  /// Node departure with zone takeover (the second half of the CAN
  /// protocol). The departed zone is absorbed by a mergeable neighbour when
  /// one exists; otherwise the deepest sibling-leaf pair elsewhere in the
  /// partition is merged to free one node, which then adopts the departed
  /// zone verbatim — so every remaining node keeps exactly one rectangular
  /// zone and the active zones always tile the cube. Stored clusters are
  /// re-homed to the new owners, and every express contact the departure
  /// made stale is repaired. Maintenance traffic (including one message per
  /// repaired contact) is recorded under TrafficClass::kJoin.
  ///
  /// Returns FailedPrecondition when `node` is already inactive or is the
  /// last active node.
  Status Leave(overlay::NodeId node);

  /// True iff `node` still owns a zone.
  bool active(overlay::NodeId node) const;

  /// Number of active (zone-owning) nodes.
  int num_active_nodes() const;

  /// Length of `node`'s split history: the depth of the smallest split-tree
  /// box known to hold its zone (the zone's depth on a join-only overlay).
  int split_depth(overlay::NodeId node) const;

  /// Express contacts of `node`, one per split of its history: entry i is an
  /// active node whose zone lies in the half split i gave away, or
  /// kInvalidNode when departures left no zone inside that half.
  const std::vector<overlay::NodeId>& contacts(overlay::NodeId node) const;

 private:
  /// One halving of a zone's split history: the zone lies in the upper
  /// ([mid, hi)) or lower half of coordinate `dim`.
  struct Split {
    size_t dim;
    double mid;
    bool upper;
  };

  struct Node {
    geom::Box zone;
    std::vector<overlay::NodeId> neighbors;
    std::vector<overlay::PublishedCluster> stored;
    std::vector<Split> splits;               // root-first split history
    std::vector<overlay::NodeId> contacts;   // contacts[i]: node across splits[i]
    bool active = true;
  };

  /// Bookkeeping of one zone flood, kept across floods. An entry belongs to
  /// the current flood iff its stamp equals the current epoch, so starting a
  /// flood bumps the epoch instead of clearing or allocating anything.
  class FloodScratch {
   public:
    /// Starts a flood over an overlay of `num_nodes` nodes.
    void Begin(size_t num_nodes);

    /// Marks `node` reached at `arrival_ms` and queues it for expansion.
    void Reach(overlay::NodeId node, double arrival_ms);
    bool reached(overlay::NodeId node) const {
      return node_stamp_[static_cast<size_t>(node)] == epoch_;
    }
    double arrival(overlay::NodeId node) const {
      return node_arrival_[static_cast<size_t>(node)];
    }

    /// Reached nodes in BFS order; FloodFrom expands them front to back.
    const std::vector<overlay::NodeId>& queue() const { return queue_; }

    /// Records `cluster_id` as tested; false if this flood already did.
    bool FirstTest(uint64_t cluster_id);

   private:
    void GrowIdTable();

    uint32_t epoch_ = 0;
    std::vector<uint32_t> node_stamp_;
    std::vector<double> node_arrival_;
    std::vector<overlay::NodeId> queue_;
    // Open-addressing set of tested cluster ids (linear probing, power-of-two
    // size, at most half full).
    std::vector<uint64_t> id_keys_;
    std::vector<uint32_t> id_stamp_;
    size_t ids_used_ = 0;
  };

  CanOverlay(size_t dim, sim::NetworkStats* stats) : dim_(dim), stats_(stats) {}

  /// Adds one node via the CAN join protocol.
  Status Join(Rng& rng);

  /// Splits `owner`'s zone, giving the half containing `point` to a new node.
  overlay::NodeId SplitZone(overlay::NodeId owner, const Vector& point);

  /// True iff boxes a and b share a (dim-1)-dimensional face.
  static bool Adjacent(const geom::Box& a, const geom::Box& b);

  /// True iff the union of a and b is a box (they are split siblings);
  /// writes the union into `merged` when so.
  static bool Mergeable(const geom::Box& a, const geom::Box& b, geom::Box* merged);

  /// Recomputes every active node's neighbour list from scratch (O(N^2);
  /// used after the non-local zone handover of Leave).
  void RebuildNeighborLists();

  /// True iff `zone` lies in the half split `depth` of `splits` gave away
  /// (and on the history's side of every earlier split).
  static bool InHalf(const std::vector<Split>& splits, size_t depth,
                     const geom::Box& zone);

  /// Truncates `node`'s split history (and contacts) to the longest prefix
  /// whose box still holds its zone — after a takeover grew the zone.
  static void FitSplitsToZone(Node* node);

  /// Replaces every contact that is inactive or no longer inside its half
  /// with the lowest-id active node that is (kInvalidNode if none). Returns
  /// the number of contacts replaced.
  int RepairContacts();

  /// Express step from `node` toward `target`: into the half of the first
  /// split that does not hold the target, via its contact or the neighbour
  /// inside that half nearest the target, if that split is deeper than
  /// `*fixed_depth` (which it then advances). kInvalidNode when no known
  /// node makes progress.
  overlay::NodeId ExpressHop(const Node& node, const Vector& target,
                             size_t* fixed_depth) const;

  /// Assigns `zone` to `node`, re-homing `clusters` into every overlapping
  /// active zone's store.
  void AdoptZone(overlay::NodeId node, const geom::Box& zone,
                 std::vector<overlay::PublishedCluster> clusters);

  /// Clamps a key into [0,1)^dim.
  Vector ClampKey(const Vector& key) const;

  /// Bytes of a routing message carrying only a key.
  uint64_t KeyMessageBytes() const;

  /// Bytes of a message carrying a published cluster.
  uint64_t ClusterMessageBytes() const;

  /// Sends one overlay message: through `transport_` when set, else the
  /// direct RecordHop the overlay has always done (delivered, zero latency).
  net::HopResult SendMessage(net::MessageType type, overlay::NodeId src,
                             overlay::NodeId dst, uint64_t bytes,
                             sim::TrafficClass cls);

  /// Zone-flood stage shared by RangeQuery/RangeQueryVia: BFS outward from
  /// `entry` over zones intersecting `query`, accumulating matches and
  /// per-branch arrival times into `result` (whose latency_ms on entry is the
  /// time the flood starts).
  void FloodFrom(const geom::Sphere& query, overlay::NodeId entry,
                 overlay::RangeQueryResult* result);

  size_t dim_;
  sim::NetworkStats* stats_;      // not owned
  net::Transport* transport_ = nullptr;  // not owned; nullptr = direct stats
  bool replicate_spheres_ = true;
  int route_detours_ = 0;  // query-routing detour budget (set_route_detours)
  std::vector<Node> nodes_;
  FloodScratch flood_;
};

}  // namespace hyperm::can

#endif  // HYPERM_CAN_CAN_OVERLAY_H_
