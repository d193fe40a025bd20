#include "can/can_overlay.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"

namespace hyperm::can {

using overlay::InsertReceipt;
using overlay::NodeId;
using overlay::NodeStorage;
using overlay::PublishedCluster;
using overlay::RangeQueryResult;

namespace {

// Fixed per-message header: source, destination, type, ids.
constexpr uint64_t kHeaderBytes = 16;

}  // namespace

Result<std::unique_ptr<CanOverlay>> CanOverlay::Build(size_t dim, int num_nodes,
                                                      sim::NetworkStats* stats,
                                                      Rng& rng) {
  if (dim < 1) return InvalidArgumentError("CanOverlay: dim must be >= 1");
  if (num_nodes < 1) return InvalidArgumentError("CanOverlay: need >= 1 node");
  HM_CHECK(stats != nullptr);
  std::unique_ptr<CanOverlay> overlay(new CanOverlay(dim, stats));
  // The bootstrap node owns the whole cube.
  Node first;
  first.zone.lo.assign(dim, 0.0);
  first.zone.hi.assign(dim, 1.0);
  overlay->nodes_.push_back(std::move(first));
  for (int i = 1; i < num_nodes; ++i) {
    HM_RETURN_IF_ERROR(overlay->Join(rng));
  }
  return overlay;
}

Status CanOverlay::Join(Rng& rng) {
  // The newcomer picks a random point and routes to its owner through a
  // random bootstrap contact (it knows one active node already in the
  // network).
  Vector point(dim_);
  for (double& x : point) x = rng.NextDouble();
  NodeId bootstrap = static_cast<NodeId>(rng.NextIndex(nodes_.size()));
  while (!nodes_[static_cast<size_t>(bootstrap)].active) {
    bootstrap = static_cast<NodeId>(rng.NextIndex(nodes_.size()));
  }
  HM_ASSIGN_OR_RETURN(RouteResult route,
                      Route(point, bootstrap, sim::TrafficClass::kJoin, KeyMessageBytes()));
  if (!route.delivered) {
    return UnavailableError("Join: route to join point lost in transit");
  }
  const NodeId owner = route.destination;
  const NodeId fresh = SplitZone(owner, point);
  // Split handshake: owner transfers half its zone (and state, including its
  // split history and express contacts) to the newcomer, then both notify
  // the affected neighbours.
  stats_->RecordHop(sim::TrafficClass::kJoin, ClusterMessageBytes());
  const size_t notified =
      nodes_[static_cast<size_t>(owner)].neighbors.size() +
      nodes_[static_cast<size_t>(fresh)].neighbors.size();
  for (size_t i = 0; i < notified; ++i) {
    stats_->RecordHop(sim::TrafficClass::kJoin, KeyMessageBytes());
  }
  return OkStatus();
}

NodeId CanOverlay::SplitZone(NodeId owner, const Vector& point) {
  Node& old_node = nodes_[static_cast<size_t>(owner)];
  HM_CHECK(old_node.zone.ContainsHalfOpen(point));
  // Split along the longest side (keeps zones close to cubical, which is the
  // practical variant of CAN's cyclic dimension ordering).
  size_t split_dim = 0;
  double longest = -1.0;
  for (size_t i = 0; i < dim_; ++i) {
    const double side = old_node.zone.hi[i] - old_node.zone.lo[i];
    if (side > longest) {
      longest = side;
      split_dim = i;
    }
  }
  const double mid = 0.5 * (old_node.zone.lo[split_dim] + old_node.zone.hi[split_dim]);
  HM_OBS_COUNTER_ADD("can.zone_splits", 1);

  const NodeId fresh_id = static_cast<NodeId>(nodes_.size());
  Node fresh;
  fresh.zone = old_node.zone;
  fresh.splits = old_node.splits;
  fresh.contacts = old_node.contacts;
  // A zone its history describes exactly splits the history too, each half
  // taking the other as the contact across the new split. A takeover-grown
  // zone is not a split-tree box, so both halves keep the coarser history.
  // Every zone lies inside its history's box of volume 2^-depth (dyadic, so
  // the products are exact), hence equal volume means equal boxes.
  const bool exact = old_node.zone.Volume() ==
                     std::ldexp(1.0, -static_cast<int>(old_node.splits.size()));
  const bool fresh_upper = point[split_dim] >= mid;
  if (fresh_upper) {
    fresh.zone.lo[split_dim] = mid;
    old_node.zone.hi[split_dim] = mid;
  } else {
    fresh.zone.hi[split_dim] = mid;
    old_node.zone.lo[split_dim] = mid;
  }
  if (exact) {
    fresh.splits.push_back(Split{split_dim, mid, fresh_upper});
    fresh.contacts.push_back(owner);
    old_node.splits.push_back(Split{split_dim, mid, !fresh_upper});
    old_node.contacts.push_back(fresh_id);
  }

  // Re-home stored replicas: each stays with every half its sphere overlaps.
  // The fresh half's copies take their references before the old half lets
  // go of its own, so no record is freed while a half still holds it.
  for (const Replica& replica : old_node.stored) {
    if (fresh.zone.IntersectsSphere(clusters_[replica.slot].sphere)) {
      fresh.stored.push_back(replica);
      ++refs_[replica.slot];
    }
  }
  EraseReplicas(&old_node.stored, [&](const Replica& replica) {
    return !old_node.zone.IntersectsSphere(clusters_[replica.slot].sphere);
  });

  // Rebuild neighbour sets of the two halves from the owner's old set, then
  // fix up the reverse edges.
  std::vector<NodeId> candidates = nodes_[static_cast<size_t>(owner)].neighbors;
  nodes_.push_back(std::move(fresh));
  Node& old_ref = nodes_[static_cast<size_t>(owner)];
  Node& new_ref = nodes_.back();

  old_ref.neighbors.clear();
  for (NodeId n : candidates) {
    Node& other = nodes_[static_cast<size_t>(n)];
    auto& list = other.neighbors;
    list.erase(std::remove(list.begin(), list.end(), owner), list.end());
    if (Adjacent(old_ref.zone, other.zone)) {
      old_ref.neighbors.push_back(n);
      list.push_back(owner);
    }
    if (Adjacent(new_ref.zone, other.zone)) {
      new_ref.neighbors.push_back(n);
      list.push_back(fresh_id);
    }
  }
  HM_CHECK(Adjacent(old_ref.zone, new_ref.zone));
  old_ref.neighbors.push_back(fresh_id);
  new_ref.neighbors.push_back(owner);
  return fresh_id;
}

bool CanOverlay::Adjacent(const geom::Box& a, const geom::Box& b) {
  HM_CHECK_EQ(a.dim(), b.dim());
  bool abuts = false;
  for (size_t i = 0; i < a.dim(); ++i) {
    const bool touch = (a.hi[i] == b.lo[i]) || (b.hi[i] == a.lo[i]);
    const double overlap = std::fmin(a.hi[i], b.hi[i]) - std::fmax(a.lo[i], b.lo[i]);
    if (touch && overlap == 0.0) {
      if (abuts) return false;  // touching in two dims => only a corner/edge
      abuts = true;
    } else if (overlap <= 0.0) {
      return false;  // separated in dimension i
    }
  }
  return abuts;
}

void CanOverlay::ClampKey(const Vector& key, Vector* out) const {
  HM_CHECK_EQ(key.size(), dim_);
  out->assign(key.begin(), key.end());
  for (double& x : *out) {
    x = std::clamp(x, 0.0, std::nextafter(1.0, 0.0));
  }
}

uint64_t CanOverlay::KeyMessageBytes() const {
  return kHeaderBytes + 8 * static_cast<uint64_t>(dim_);
}

uint64_t CanOverlay::ClusterMessageBytes() const {
  // key + sphere (center, radius) + owner/count/id.
  return kHeaderBytes + 16 * static_cast<uint64_t>(dim_) + 24;
}

NodeId CanOverlay::OwnerOf(const Vector& key) const {
  Vector clamped;
  ClampKey(key, &clamped);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].active) continue;
    if (nodes_[i].zone.ContainsHalfOpen(clamped)) return static_cast<NodeId>(i);
  }
  return overlay::kInvalidNode;  // unreachable on a consistent partition
}

net::HopResult CanOverlay::SendMessage(net::MessageType type, NodeId src,
                                       NodeId dst, uint64_t bytes,
                                       sim::TrafficClass cls) {
  if (transport_ == nullptr) {
    stats_->RecordHop(cls, bytes);
    return net::HopResult{true, 0.0};
  }
  net::Message message;
  message.type = type;
  message.src = src;
  message.dst = dst;
  message.bytes = bytes;
  message.cls = cls;
  return transport_->SendHop(message);
}

Result<RouteResult> CanOverlay::Route(const Vector& key, NodeId origin,
                                      sim::TrafficClass cls, uint64_t message_bytes,
                                      net::MessageType type, int max_detours) {
  if (origin < 0 || origin >= num_nodes() ||
      !nodes_[static_cast<size_t>(origin)].active) {
    return InvalidArgumentError("Route: bad origin node");
  }
  ClampKey(key, walk_.key());
  return RouteClamped(*walk_.key(), origin, cls, message_bytes, type, max_detours);
}

Result<RouteResult> CanOverlay::RouteClamped(const Vector& target, NodeId origin,
                                             sim::TrafficClass cls,
                                             uint64_t message_bytes,
                                             net::MessageType type, int max_detours) {
  RouteResult result;
  NodeId current = origin;
  // Greedy descent over zone-to-target distance. A target lying exactly on a
  // zone boundary gives several zones a closed-box distance of zero, so pure
  // greedy could oscillate between them; two safeguards prevent that:
  // deliver directly when a neighbour owns the target (half-open test), and
  // prefer zones this message has not traversed yet.
  //
  // With a detour budget, neighbours whose forward failed (or that the
  // transport knows are unreachable) are marked dead in `walk_` and the
  // next-closest one is tried; a zone whose viable neighbours are exhausted
  // is itself marked dead and the walk backs out along the zones it entered
  // — bounded depth-first search ordered by greedy preference, degenerating
  // to the classic single-path walk at budget 0.
  //
  // Publication and join traffic tries an express step before each greedy
  // step. `fixed_depth` counts the splits of the target's path the message
  // has fixed; an express forward must fix a deeper one, so express hops are
  // bounded by the split depth and greedy steps in between cannot make the
  // walk cycle.
  const bool express =
      cls == sim::TrafficClass::kInsert || cls == sim::TrafficClass::kJoin;
  size_t fixed_depth = 0;
  walk_.Begin(nodes_.size());
  walk_.Reach(current);
  int detours_left = max_detours;
  const int ttl = 4 * num_nodes() + 16;
  while (!nodes_[static_cast<size_t>(current)].zone.ContainsHalfOpen(target)) {
    if (result.hops > ttl) return InternalError("Route: TTL exceeded (topology bug)");
    NodeId best = express
                      ? ExpressHop(nodes_[static_cast<size_t>(current)], target, &fixed_depth)
                      : overlay::kInvalidNode;
    bool best_visited = best == overlay::kInvalidNode;
    if (best == overlay::kInvalidNode) {
      double best_sq = std::numeric_limits<double>::max();
      for (NodeId n : nodes_[static_cast<size_t>(current)].neighbors) {
        if (walk_.dead(n)) continue;
        if (nodes_[static_cast<size_t>(n)].zone.ContainsHalfOpen(target)) {
          best = n;
          best_visited = false;
          break;
        }
        const double sq = nodes_[static_cast<size_t>(n)].zone.SquaredDistanceTo(target);
        const bool seen = walk_.reached(n);
        // Unvisited beats visited; within a group, smaller distance wins.
        if ((seen == best_visited && sq < best_sq) || (!seen && best_visited)) {
          best_sq = sq;
          best = n;
          best_visited = seen;
        }
      }
    }
    if (best == overlay::kInvalidNode || (max_detours > 0 && best_visited)) {
      // A pocket: either every neighbour of this zone is dead (possible only
      // once detours emptied the candidate list; a consistent topology always
      // has neighbours), or every live candidate has already been traversed
      // and greedy is cycling (e.g. two island-mates whose other neighbours
      // are all dead would bounce between each other until the TTL). Back
      // out DFS-style the way the walk came instead of re-walking old
      // ground; budget 0 keeps the classic revisit-tolerant walk.
      if (detours_left <= 0 || walk_.order().size() < 2) {
        result.delivered = false;
        if (result.outcome == net::DeliveryOutcome::kDelivered) {
          result.outcome = net::DeliveryOutcome::kLostUnreachable;
        }
        return result;
      }
      walk_.MarkDead(current);
      current = walk_.Retreat();
      --detours_left;
      ++result.detours;
      continue;
    }
    if (detours_left > 0 && transport_ != nullptr &&
        !transport_->ReachableHint(current, best)) {
      // The transport already knows this forward cannot arrive (crashed peer,
      // partition window, different radio island): spend budget, not airtime.
      walk_.MarkDead(best);
      result.outcome = net::DeliveryOutcome::kLostUnreachable;
      --detours_left;
      ++result.detours;
      continue;
    }
    const net::HopResult hop = SendMessage(type, current, best, message_bytes, cls);
    result.latency_ms += hop.latency_ms;
    ++result.hops;
    if (!hop.delivered) {
      result.outcome = hop.outcome;
      if (detours_left <= 0) {
        // Retries exhausted mid-route: the message dies here. The walk is not
        // an error — the caller decides what an undelivered route means.
        result.delivered = false;
        return result;
      }
      walk_.MarkDead(best);
      --detours_left;
      ++result.detours;
      continue;
    }
    current = best;
    walk_.Reach(current);
  }
  result.destination = current;
  result.outcome = net::DeliveryOutcome::kDelivered;
  HM_OBS_HISTOGRAM("can.route_hops", obs::Buckets::Exponential(1, 2.0, 12),
                   result.hops);
  return result;
}

NodeId CanOverlay::ExpressHop(const Node& node, const Vector& target,
                              size_t* fixed_depth) const {
  for (size_t i = 0; i < node.splits.size(); ++i) {
    const Split& split = node.splits[i];
    if ((target[split.dim] >= split.mid) == split.upper) continue;
    // The target lies in the half split i gave away. Every node known to lie
    // in that half fixes split i + 1 of the target's path, unless the message
    // is already past it: the contact, and any neighbour across the split.
    // The one nearest the target wins (a neighbour keeps the splits below i
    // that already agree, where the contact lands anywhere in the half).
    if (i < *fixed_depth) break;
    NodeId best = node.contacts[i];
    double best_sq = best == overlay::kInvalidNode
                         ? std::numeric_limits<double>::max()
                         : nodes_[static_cast<size_t>(best)].zone.SquaredDistanceTo(target);
    for (NodeId n : node.neighbors) {
      const geom::Box& zone = nodes_[static_cast<size_t>(n)].zone;
      if (!InHalf(node.splits, i, zone)) continue;
      const double sq = zone.SquaredDistanceTo(target);
      if (sq < best_sq || (sq == best_sq && zone.ContainsHalfOpen(target))) {
        best = n;
        best_sq = sq;
      }
    }
    if (best == overlay::kInvalidNode) break;
    *fixed_depth = i + 1;
    return best;
  }
  return overlay::kInvalidNode;
}

template <typename Visit>
CanOverlay::FloodReach CanOverlay::Flood(const geom::Sphere& sphere, NodeId entry,
                                         double start_ms, net::MessageType type,
                                         sim::TrafficClass cls, uint64_t bytes,
                                         Visit&& visit) {
  // The zones meeting a sphere form a connected region (the sphere is
  // connected and zones tile the cube), so the BFS reaches all of them.
  // Branches run concurrently: a zone's arrival is the end of the chain of
  // edges reaching it, and the flood completes when its slowest branch does.
  FloodReach reach{0, start_ms};
  walk_.Begin(nodes_.size(), clusters_.size());
  walk_.Reach(entry, start_ms);
  for (size_t head = 0; head < walk_.order().size(); ++head) {
    const NodeId node = walk_.order()[head];
    visit(node);
    for (NodeId n : nodes_[static_cast<size_t>(node)].neighbors) {
      if (walk_.reached(n)) continue;
      if (!nodes_[static_cast<size_t>(n)].zone.IntersectsSphere(sphere)) continue;
      const net::HopResult hop = SendMessage(type, node, n, bytes, cls);
      if (!hop.delivered) continue;
      ++reach.edges;
      const double at = walk_.arrival(node) + hop.latency_ms;
      walk_.Reach(n, at);
      reach.last_arrival_ms = std::max(reach.last_arrival_ms, at);
    }
  }
  return reach;
}

Result<InsertReceipt> CanOverlay::Insert(const PublishedCluster& cluster, NodeId origin) {
  if (cluster.sphere.center.size() != dim_) {
    return InvalidArgumentError("Insert: dimensionality mismatch");
  }
  if (cluster.sphere.radius < 0.0) {
    return InvalidArgumentError("Insert: negative radius");
  }
  const auto known = slot_of_.find(cluster.cluster_id);
  if (known != slot_of_.end()) {
    const PublishedCluster& record = clusters_[known->second];
    if (record.sphere.center != cluster.sphere.center ||
        record.sphere.radius != cluster.sphere.radius ||
        record.owner_peer != cluster.owner_peer || record.items != cluster.items) {
      return InvalidArgumentError(
          "Insert: refresh of a stored cluster id with another summary");
    }
  }
  HM_ASSIGN_OR_RETURN(RouteResult route,
                      Route(cluster.sphere.center, origin, sim::TrafficClass::kInsert,
                            ClusterMessageBytes(), net::MessageType::kInsert));
  InsertReceipt receipt;
  receipt.routing_hops = route.hops;
  receipt.latency_ms = route.latency_ms;
  if (!route.delivered) {
    // The publication never reached the centroid owner; nothing is stored.
    receipt.delivered = false;
    return receipt;
  }

  // Re-publication of an already-stored cluster id (soft-state refresh)
  // renews the expiry of the copy a zone holds instead of duplicating it. A
  // new record has no copies yet, so each zone just appends one.
  const bool fresh = known == slot_of_.end();
  const uint32_t slot = fresh ? NewRecord(cluster) : known->second;
  const double expires_at = cluster.expires_at;
  const auto store_at = [this, fresh, slot, expires_at](NodeId node) {
    auto& stored = nodes_[static_cast<size_t>(node)].stored;
    if (!fresh) {
      for (Replica& existing : stored) {
        if (existing.slot == slot) {
          existing.expires_at = expires_at;
          return;
        }
      }
    }
    stored.push_back(Replica{slot, expires_at});
    ++refs_[slot];
  };

  if (!replicate_spheres_) {
    store_at(route.destination);
    return receipt;
  }

  // Replicate into every zone the sphere overlaps, flooding outward from the
  // centroid owner through the neighbour graph.
  receipt.replicas =
      Flood(cluster.sphere, route.destination, route.latency_ms,
            net::MessageType::kReplicate, sim::TrafficClass::kReplicate,
            ClusterMessageBytes(), store_at)
          .edges;
  HM_OBS_HISTOGRAM("can.insert_replicas", obs::Buckets::Exponential(1, 2.0, 12),
                   receipt.replicas);
  return receipt;
}

Result<RangeQueryResult> CanOverlay::RangeQuery(const geom::Sphere& query,
                                                NodeId origin, NodeId entry_hint) {
  if (query.center.size() != dim_) {
    return InvalidArgumentError("RangeQuery: dimensionality mismatch");
  }
  if (query.radius < 0.0) {
    return InvalidArgumentError("RangeQuery: negative radius");
  }
  if (origin < 0 || origin >= num_nodes() ||
      !nodes_[static_cast<size_t>(origin)].active) {
    return InvalidArgumentError("RangeQuery: bad origin node");
  }
  RangeQueryResult result;
  NodeId entry = origin;
  bool owns_center = false;
  ClampKey(query.center, walk_.key());  // the hint test's and the walk's target
  if (entry_hint != overlay::kInvalidNode) {
    if (entry_hint < 0 || entry_hint >= num_nodes() ||
        !nodes_[static_cast<size_t>(entry_hint)].active) {
      // The mined hint went stale (node left the overlay): report undelivered
      // without spending airtime so the caller falls back to the plain walk.
      result.delivered = false;
      result.outcome = net::DeliveryOutcome::kLostUnreachable;
      return result;
    }
    if (entry_hint != origin) {
      // One direct overlay message to the mined entry — the transport still
      // pays the true multi-radio-hop cost, but the greedy zone walk (one
      // message per zone crossed) is skipped.
      const net::HopResult hop =
          SendMessage(net::MessageType::kRoute, origin, entry_hint,
                      KeyMessageBytes(), sim::TrafficClass::kQuery);
      result.routing_hops = 1;
      result.latency_ms = hop.latency_ms;
      result.outcome = hop.outcome;
      if (!hop.delivered) {
        result.delivered = false;
        return result;
      }
    }
    entry = entry_hint;
    owns_center =
        nodes_[static_cast<size_t>(entry_hint)].zone.ContainsHalfOpen(*walk_.key());
  }
  if (!owns_center) {
    // Walk to the center's owner: from the origin, or resumed from a hint
    // whose zone does not hold the center (the miner's cell straddles a zone
    // border).
    HM_ASSIGN_OR_RETURN(RouteResult route,
                        RouteClamped(*walk_.key(), entry, sim::TrafficClass::kQuery,
                                     KeyMessageBytes(), net::MessageType::kRoute,
                                     route_detours_));
    result.routing_hops += route.hops;
    result.latency_ms += route.latency_ms;
    result.route_detours = route.detours;
    result.outcome = route.outcome;
    if (!route.delivered) {
      // The query died on the way to the flood start; no node evaluated it.
      result.delivered = false;
      return result;
    }
    entry = route.destination;
  }
  result.entry_node = entry;
  const FloodReach reach = Flood(
      query, entry, result.latency_ms, net::MessageType::kQueryFlood,
      sim::TrafficClass::kQuery, KeyMessageBytes(), [&](NodeId node) {
        ++result.nodes_visited;
        for (const Replica& replica : nodes_[static_cast<size_t>(node)].stored) {
          // Test once per record: all copies of a cluster_id share one record
          // (see Insert), so the first copy the flood meets decides for all
          // of them, and a match is reported once, at its first copy, as a
          // compact record carrying the distance the test computed.
          if (!walk_.FirstTest(replica.slot)) continue;
          overlay::AppendIfIntersects(clusters_[replica.slot], query, &result.matches);
        }
      });
  result.flood_hops = reach.edges;
  result.latency_ms = reach.last_arrival_ms;
  HM_OBS_HISTOGRAM("can.flood_nodes_visited", obs::Buckets::Exponential(1, 2.0, 12),
                   result.nodes_visited);
  return result;
}

void CanOverlay::WalkScratch::Begin(size_t num_nodes, size_t num_slots) {
  ++epoch_;
  if (node_stamp_.size() < num_nodes) {
    node_stamp_.resize(num_nodes, 0);
    dead_stamp_.resize(num_nodes, 0);
    node_arrival_.resize(num_nodes, 0.0);
  }
  if (slot_stamp_.size() < num_slots) slot_stamp_.resize(num_slots, 0);
  order_.clear();
}

void CanOverlay::WalkScratch::Reach(NodeId node, double arrival_ms) {
  node_stamp_[static_cast<size_t>(node)] = epoch_;
  node_arrival_[static_cast<size_t>(node)] = arrival_ms;
  order_.push_back(node);
}

uint32_t CanOverlay::NewRecord(const PublishedCluster& cluster) {
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(clusters_.size());
    clusters_.push_back(cluster);
    refs_.push_back(0);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    clusters_[slot] = cluster;
  }
  slot_of_.emplace(cluster.cluster_id, slot);
  return slot;
}

void CanOverlay::DropRef(uint32_t slot) {
  if (--refs_[slot] > 0) return;
  slot_of_.erase(clusters_[slot].cluster_id);
  free_slots_.push_back(slot);
}

template <typename Drop>
int CanOverlay::EraseReplicas(std::vector<Replica>* stored, Drop&& drop) {
  // A hand-rolled remove_if: the dropped replicas are the ones whose
  // references go, and remove_if would leave moved-from values, not them,
  // in its tail.
  size_t kept = 0;
  for (size_t i = 0; i < stored->size(); ++i) {
    const Replica replica = (*stored)[i];
    if (drop(replica)) {
      DropRef(replica.slot);
    } else {
      (*stored)[kept++] = replica;
    }
  }
  const int removed = static_cast<int>(stored->size() - kept);
  stored->resize(kept);
  return removed;
}

std::vector<NodeStorage> CanOverlay::StorageDistribution() const {
  std::vector<NodeStorage> out;
  out.reserve(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    NodeStorage s;
    s.node = static_cast<NodeId>(i);
    s.clusters = static_cast<int>(nodes_[i].stored.size());
    for (const Replica& r : nodes_[i].stored) s.items += clusters_[r.slot].items;
    out.push_back(s);
  }
  return out;
}

void CanOverlay::ClearStorage() {
  for (Node& node : nodes_) node.stored.clear();
  clusters_.clear();
  refs_.clear();
  free_slots_.clear();
  slot_of_.clear();
}

int CanOverlay::RemoveByOwner(int owner_peer) {
  int removed = 0;
  for (Node& node : nodes_) {
    removed += EraseReplicas(&node.stored, [&](const Replica& r) {
      return clusters_[r.slot].owner_peer == owner_peer;
    });
  }
  return removed;
}

int CanOverlay::ExpireBefore(double now) {
  int removed = 0;
  for (Node& node : nodes_) {
    removed += EraseReplicas(&node.stored,
                             [now](const Replica& r) { return r.expires_at < now; });
  }
  return removed;
}

int CanOverlay::ClearNode(NodeId node) {
  HM_CHECK_GE(node, 0);
  HM_CHECK_LT(node, num_nodes());
  return EraseReplicas(&nodes_[static_cast<size_t>(node)].stored,
                       [](const Replica&) { return true; });
}

const geom::Box& CanOverlay::zone(NodeId node) const {
  HM_CHECK_GE(node, 0);
  HM_CHECK_LT(node, num_nodes());
  return nodes_[static_cast<size_t>(node)].zone;
}

const std::vector<NodeId>& CanOverlay::neighbors(NodeId node) const {
  HM_CHECK_GE(node, 0);
  HM_CHECK_LT(node, num_nodes());
  return nodes_[static_cast<size_t>(node)].neighbors;
}

std::vector<PublishedCluster> CanOverlay::stored(NodeId node) const {
  HM_CHECK_GE(node, 0);
  HM_CHECK_LT(node, num_nodes());
  std::vector<PublishedCluster> out;
  for (const Replica& replica : nodes_[static_cast<size_t>(node)].stored) {
    out.push_back(clusters_[replica.slot]);
    out.back().expires_at = replica.expires_at;
  }
  return out;
}

bool CanOverlay::active(NodeId node) const {
  HM_CHECK_GE(node, 0);
  HM_CHECK_LT(node, num_nodes());
  return nodes_[static_cast<size_t>(node)].active;
}

int CanOverlay::num_active_nodes() const {
  int count = 0;
  for (const Node& node : nodes_) count += node.active ? 1 : 0;
  return count;
}

int CanOverlay::split_depth(NodeId node) const {
  HM_CHECK_GE(node, 0);
  HM_CHECK_LT(node, num_nodes());
  return static_cast<int>(nodes_[static_cast<size_t>(node)].splits.size());
}

const std::vector<NodeId>& CanOverlay::contacts(NodeId node) const {
  HM_CHECK_GE(node, 0);
  HM_CHECK_LT(node, num_nodes());
  return nodes_[static_cast<size_t>(node)].contacts;
}

bool CanOverlay::Mergeable(const geom::Box& a, const geom::Box& b, geom::Box* merged) {
  HM_CHECK_EQ(a.dim(), b.dim());
  // Siblings differ in exactly one dimension, where one's hi equals the
  // other's lo; all other extents are identical.
  int differing = -1;
  for (size_t i = 0; i < a.dim(); ++i) {
    if (a.lo[i] == b.lo[i] && a.hi[i] == b.hi[i]) continue;
    if (differing >= 0) return false;  // differ in two dimensions
    const bool abuts = (a.hi[i] == b.lo[i]) || (b.hi[i] == a.lo[i]);
    if (!abuts) return false;
    differing = static_cast<int>(i);
  }
  if (differing < 0) return false;  // identical boxes (cannot happen)
  if (merged != nullptr) {
    merged->lo = a.lo;
    merged->hi = a.hi;
    const auto d = static_cast<size_t>(differing);
    merged->lo[d] = std::fmin(a.lo[d], b.lo[d]);
    merged->hi[d] = std::fmax(a.hi[d], b.hi[d]);
  }
  return true;
}

bool CanOverlay::InHalf(const std::vector<Split>& splits, size_t depth,
                        const geom::Box& zone) {
  for (size_t i = 0; i <= depth; ++i) {
    const Split& split = splits[i];
    const bool upper = i == depth ? !split.upper : split.upper;
    if (upper ? zone.lo[split.dim] < split.mid : zone.hi[split.dim] > split.mid) {
      return false;
    }
  }
  return true;
}

void CanOverlay::FitSplitsToZone(Node* node) {
  size_t keep = 0;
  for (const Split& split : node->splits) {
    const bool inside = split.upper ? node->zone.lo[split.dim] >= split.mid
                                    : node->zone.hi[split.dim] <= split.mid;
    if (!inside) break;
    ++keep;
  }
  node->splits.resize(keep);
  node->contacts.resize(keep);
}

int CanOverlay::RepairContacts() {
  int repaired = 0;
  for (Node& node : nodes_) {
    if (!node.active) continue;
    for (size_t i = 0; i < node.splits.size(); ++i) {
      NodeId& contact = node.contacts[i];
      if (contact != overlay::kInvalidNode) {
        const Node& current = nodes_[static_cast<size_t>(contact)];
        if (current.active && InHalf(node.splits, i, current.zone)) continue;
      }
      contact = overlay::kInvalidNode;
      for (size_t c = 0; c < nodes_.size(); ++c) {
        if (nodes_[c].active && InHalf(node.splits, i, nodes_[c].zone)) {
          contact = static_cast<NodeId>(c);
          ++repaired;
          break;
        }
      }
    }
  }
  return repaired;
}

void CanOverlay::RebuildNeighborLists() {
  for (Node& node : nodes_) node.neighbors.clear();
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].active) continue;
    for (size_t j = i + 1; j < nodes_.size(); ++j) {
      if (!nodes_[j].active) continue;
      if (Adjacent(nodes_[i].zone, nodes_[j].zone)) {
        nodes_[i].neighbors.push_back(static_cast<NodeId>(j));
        nodes_[j].neighbors.push_back(static_cast<NodeId>(i));
      }
    }
  }
}

void CanOverlay::MergeStored(std::vector<Replica>* into, std::vector<Replica>* from) {
  walk_.Begin(nodes_.size(), clusters_.size());
  for (const Replica& r : *into) walk_.FirstTest(r.slot);
  for (const Replica& r : *from) {
    if (walk_.FirstTest(r.slot)) {
      into->push_back(r);
    } else {
      DropRef(r.slot);
    }
  }
  from->clear();
}

Result<overlay::NodeId> CanOverlay::AddNode(Rng& rng) {
  HM_RETURN_IF_ERROR(Join(rng));
  return static_cast<NodeId>(nodes_.size() - 1);
}

Status CanOverlay::Leave(NodeId node) {
  if (node < 0 || node >= num_nodes() || !nodes_[static_cast<size_t>(node)].active) {
    return FailedPreconditionError("Leave: node is not active");
  }
  if (num_active_nodes() <= 1) {
    return FailedPreconditionError("Leave: cannot remove the last node");
  }
  Node& leaving = nodes_[static_cast<size_t>(node)];
  const geom::Box departed = leaving.zone;
  std::vector<Replica> orphaned = std::move(leaving.stored);
  const std::vector<NodeId> old_neighbors = std::move(leaving.neighbors);
  std::vector<Split> departed_splits = std::move(leaving.splits);
  std::vector<NodeId> departed_contacts = std::move(leaving.contacts);
  leaving.active = false;
  leaving.stored.clear();
  leaving.neighbors.clear();
  leaving.splits.clear();
  leaving.contacts.clear();

  // Preferred takeover: a neighbour whose zone merges with the departed one
  // into a single rectangle (the zones are split siblings).
  NodeId absorber = overlay::kInvalidNode;
  geom::Box merged;
  for (NodeId n : old_neighbors) {
    if (!nodes_[static_cast<size_t>(n)].active) continue;
    if (Mergeable(nodes_[static_cast<size_t>(n)].zone, departed, &merged)) {
      absorber = n;
      break;
    }
  }
  size_t notified = old_neighbors.size();
  if (absorber != overlay::kInvalidNode) {
    Node& a = nodes_[static_cast<size_t>(absorber)];
    a.zone = merged;
    MergeStored(&a.stored, &orphaned);
    FitSplitsToZone(&a);
  } else {
    // No direct merge: free one node elsewhere. The partition is always the
    // leaf set of a binary space partition, so a mergeable sibling pair
    // exists; merge it into one node and hand the departed zone to the other.
    NodeId first = overlay::kInvalidNode;
    NodeId second = overlay::kInvalidNode;
    geom::Box pair_merged;
    for (size_t i = 0; i < nodes_.size() && first == overlay::kInvalidNode; ++i) {
      if (!nodes_[i].active) continue;
      for (size_t j = i + 1; j < nodes_.size(); ++j) {
        if (!nodes_[j].active) continue;
        if (Mergeable(nodes_[i].zone, nodes_[j].zone, &pair_merged)) {
          first = static_cast<NodeId>(i);
          second = static_cast<NodeId>(j);
          break;
        }
      }
    }
    HM_CHECK_NE(first, overlay::kInvalidNode)
        << "partition invariant violated: no mergeable sibling pair";
    Node& a = nodes_[static_cast<size_t>(first)];
    Node& b = nodes_[static_cast<size_t>(second)];
    a.zone = pair_merged;
    MergeStored(&a.stored, &b.stored);
    FitSplitsToZone(&a);
    b.zone = departed;
    b.stored = std::move(orphaned);
    b.splits = std::move(departed_splits);
    b.contacts = std::move(departed_contacts);
    notified += a.neighbors.size() + b.neighbors.size();
  }
  RebuildNeighborLists();

  // Maintenance traffic: one state handover, neighbour notifications and one
  // lookup per express contact the departure made stale.
  notified += static_cast<size_t>(RepairContacts());
  stats_->RecordHop(sim::TrafficClass::kJoin, ClusterMessageBytes());
  for (size_t i = 0; i < notified; ++i) {
    stats_->RecordHop(sim::TrafficClass::kJoin, KeyMessageBytes());
  }
  return OkStatus();
}

}  // namespace hyperm::can
