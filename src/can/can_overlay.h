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

#include <cstdint>
#include <memory>
#include <unordered_map>
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
  /// carry the same sphere, owner and item count, and it only renews the
  /// expiry of the copies it reaches; one that differs is rejected with
  /// InvalidArgument before anything is sent. A changed summary takes a fresh
  /// id (after RemoveByOwner), or its old id once no copy of it is stored. So
  /// every stored copy of one cluster_id has the same sphere, which the
  /// range-query flood relies on to test each id once.
  Result<overlay::InsertReceipt> Insert(const overlay::PublishedCluster& cluster,
                                        overlay::NodeId origin);

  /// Returns one match record (overlay::ClusterMatch) per stored cluster id
  /// whose sphere intersects `query`, flooding outward from the zone owning
  /// the query center; each record's distance is measured from
  /// `query.center`. Routes and floods reuse scratch owned by the overlay,
  /// so one overlay serves one call at a time.
  ///
  /// Without `entry_hint` the query walks greedily from `origin` to the
  /// center's owner. With one (a mined entry), `origin` contacts the hint
  /// directly (one overlay message, none when the hint is `origin`) and the
  /// walk resumes from there only if the hint does not own the center. The
  /// flood still starts at the true owner, so a hint never costs recall; a
  /// hint that left the overlay or is out of range reports undelivered
  /// (kLostUnreachable) without sending anything, as does any loss on the
  /// hinted path, so the caller can fall back to the plain walk.
  Result<overlay::RangeQueryResult> RangeQuery(
      const geom::Sphere& query, overlay::NodeId origin,
      overlay::NodeId entry_hint = overlay::kInvalidNode);

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

  /// Clusters currently stored at `node` (including replicas), each with
  /// that copy's expiry. Built per call from the overlay's cluster table.
  std::vector<overlay::PublishedCluster> stored(overlay::NodeId node) const;

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

  /// One zone's copy of a cluster: the slot of its record in `clusters_`,
  /// and the copy's own expiry (a refresh flood that loses an edge leaves
  /// the copies behind that edge at their old TTL).
  struct Replica {
    uint32_t slot;
    double expires_at;
  };

  struct Node {
    geom::Box zone;
    std::vector<overlay::NodeId> neighbors;
    std::vector<Replica> stored;
    std::vector<Split> splits;               // root-first split history
    std::vector<overlay::NodeId> contacts;   // contacts[i]: node across splits[i]
    bool active = true;
  };

  /// Bookkeeping of one walk, kept across walks: a zone flood's reached
  /// zones, arrivals, BFS queue and tested cluster records, or a Route's
  /// clamped target, visited and dead zones and back-out stack. A mark
  /// belongs to the current walk iff its stamp equals the current epoch, so
  /// starting a walk bumps the epoch instead of clearing or allocating
  /// anything; 64-bit stamps never wrap.
  class WalkScratch {
   public:
    /// Starts a walk over an overlay of `num_nodes` nodes whose cluster
    /// table has `num_slots` slots.
    void Begin(size_t num_nodes, size_t num_slots = 0);

    /// Marks `node` reached at `arrival_ms` and appends it to `order()`.
    void Reach(overlay::NodeId node, double arrival_ms = 0.0);
    bool reached(overlay::NodeId node) const {
      return node_stamp_[static_cast<size_t>(node)] == epoch_;
    }
    double arrival(overlay::NodeId node) const {
      return node_arrival_[static_cast<size_t>(node)];
    }

    /// Reached nodes in reach order: Flood expands them front to back, Route
    /// backs out of the last one (Retreat).
    const std::vector<overlay::NodeId>& order() const { return order_; }

    /// Drops the last reached node from `order()` (it stays reached) and
    /// returns the new last one.
    overlay::NodeId Retreat() {
      order_.pop_back();
      return order_.back();
    }

    void MarkDead(overlay::NodeId node) {
      dead_stamp_[static_cast<size_t>(node)] = epoch_;
    }
    bool dead(overlay::NodeId node) const {
      return dead_stamp_[static_cast<size_t>(node)] == epoch_;
    }

    /// Records cluster record `slot` as tested; false if this walk already
    /// did.
    bool FirstTest(uint32_t slot) {
      uint64_t& stamp = slot_stamp_[slot];
      if (stamp == epoch_) return false;
      stamp = epoch_;
      return true;
    }

    /// Buffer for a walk's clamped target key (see ClampKey).
    Vector* key() { return &key_; }

   private:
    uint64_t epoch_ = 0;
    std::vector<uint64_t> node_stamp_;
    std::vector<uint64_t> dead_stamp_;
    std::vector<double> node_arrival_;
    std::vector<overlay::NodeId> order_;
    std::vector<uint64_t> slot_stamp_;
    Vector key_;
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

  /// Moves into `into` every replica of `from` whose record it does not hold
  /// yet and drops the rest; `from` ends empty.
  void MergeStored(std::vector<Replica>* into, std::vector<Replica>* from);

  /// Takes a record slot for `cluster` (reusing a freed one) with no
  /// replicas yet.
  uint32_t NewRecord(const overlay::PublishedCluster& cluster);

  /// Drops one replica's reference to `slot`; the last one frees the record.
  void DropRef(uint32_t slot);

  /// Erases, in one stable compaction pass, every replica of `stored` for
  /// which `drop(replica)` holds, dropping its reference; returns how many.
  template <typename Drop>
  int EraseReplicas(std::vector<Replica>* stored, Drop&& drop);

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

  /// Writes `key` clamped into [0,1)^dim to `out`.
  void ClampKey(const Vector& key, Vector* out) const;

  /// Route from a valid `origin` toward an already clamped `target`.
  Result<RouteResult> RouteClamped(const Vector& target, overlay::NodeId origin,
                                   sim::TrafficClass cls, uint64_t message_bytes,
                                   net::MessageType type, int max_detours);

  /// Bytes of a routing message carrying only a key.
  uint64_t KeyMessageBytes() const;

  /// Bytes of a message carrying a published cluster.
  uint64_t ClusterMessageBytes() const;

  /// Sends one overlay message: through `transport_` when set, else the
  /// direct RecordHop the overlay has always done (delivered, zero latency).
  net::HopResult SendMessage(net::MessageType type, overlay::NodeId src,
                             overlay::NodeId dst, uint64_t bytes,
                             sim::TrafficClass cls);

  /// What one zone flood delivered.
  struct FloodReach {
    int edges = 0;                 ///< flood messages that arrived
    double last_arrival_ms = 0.0;  ///< latest zone arrival (start if none)
  };

  /// Zone flood shared by replication (Insert) and range queries: BFS
  /// outward from `entry` (reached at `start_ms`) over the zones that meet
  /// `sphere`, one `type`/`cls` message of `bytes` per edge into a zone not
  /// reached yet. A lost message prunes only its edge: the zone stays
  /// unreached, so another branch may still reach it. Calls `visit(node)`
  /// once per reached zone, in BFS order, before expanding it.
  template <typename Visit>
  FloodReach Flood(const geom::Sphere& sphere, overlay::NodeId entry,
                   double start_ms, net::MessageType type, sim::TrafficClass cls,
                   uint64_t bytes, Visit&& visit);

  size_t dim_;
  sim::NetworkStats* stats_;      // not owned
  net::Transport* transport_ = nullptr;  // not owned; nullptr = direct stats
  bool replicate_spheres_ = true;
  int route_detours_ = 0;  // query-routing detour budget (set_route_detours)
  std::vector<Node> nodes_;

  // Cluster table (DESIGN.md §26): one record per stored cluster id, indexed
  // by slot and shared by all of its replicas. A record's expires_at is
  // unused (expiry is per replica); refs_[slot] counts its replicas, and the
  // last one to go puts the slot on free_slots_ and its id out of slot_of_.
  std::vector<overlay::PublishedCluster> clusters_;
  std::vector<uint32_t> refs_;
  std::vector<uint32_t> free_slots_;
  std::unordered_map<uint64_t, uint32_t> slot_of_;  // stored id -> slot

  WalkScratch walk_;  // Route, Flood and MergeStored; one walk at a time
};

}  // namespace hyperm::can

#endif  // HYPERM_CAN_CAN_OVERLAY_H_
