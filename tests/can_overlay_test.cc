#include "can/can_overlay.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/transport.h"

namespace hyperm::can {
namespace {

using overlay::NodeId;
using overlay::PublishedCluster;

std::unique_ptr<CanOverlay> MakeCan(size_t dim, int nodes, sim::NetworkStats* stats,
                                    uint64_t seed = 7) {
  Rng rng(seed);
  Result<std::unique_ptr<CanOverlay>> result = CanOverlay::Build(dim, nodes, stats, rng);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(CanBuildTest, RejectsBadArguments) {
  sim::NetworkStats stats;
  Rng rng(1);
  EXPECT_FALSE(CanOverlay::Build(0, 5, &stats, rng).ok());
  EXPECT_FALSE(CanOverlay::Build(2, 0, &stats, rng).ok());
}

TEST(CanBuildTest, SingleNodeOwnsWholeCube) {
  sim::NetworkStats stats;
  auto can = MakeCan(3, 1, &stats);
  EXPECT_EQ(can->num_nodes(), 1);
  EXPECT_EQ(can->zone(0).lo, (Vector{0.0, 0.0, 0.0}));
  EXPECT_EQ(can->zone(0).hi, (Vector{1.0, 1.0, 1.0}));
  EXPECT_TRUE(can->neighbors(0).empty());
}

TEST(CanBuildTest, JoinTrafficRecorded) {
  sim::NetworkStats stats;
  auto can = MakeCan(2, 20, &stats);
  EXPECT_GT(stats.hops(sim::TrafficClass::kJoin), 0u);
}

// Zones must exactly tile the unit cube: volumes sum to 1 and every random
// key has exactly one owner.
class CanPartition : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CanPartition, ZonesTileTheCube) {
  const auto [dim, nodes] = GetParam();
  sim::NetworkStats stats;
  auto can = MakeCan(static_cast<size_t>(dim), nodes, &stats);
  double volume = 0.0;
  for (NodeId n = 0; n < can->num_nodes(); ++n) volume += can->zone(n).Volume();
  EXPECT_NEAR(volume, 1.0, 1e-9);

  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    Vector key(static_cast<size_t>(dim));
    for (double& x : key) x = rng.NextDouble();
    int owners = 0;
    for (NodeId n = 0; n < can->num_nodes(); ++n) {
      if (can->zone(n).ContainsHalfOpen(key)) ++owners;
    }
    EXPECT_EQ(owners, 1) << "trial " << trial;
  }
}

TEST_P(CanPartition, NeighborListsAreSymmetricAndCorrect) {
  const auto [dim, nodes] = GetParam();
  sim::NetworkStats stats;
  auto can = MakeCan(static_cast<size_t>(dim), nodes, &stats);
  for (NodeId a = 0; a < can->num_nodes(); ++a) {
    for (NodeId b : can->neighbors(a)) {
      const auto& back = can->neighbors(b);
      EXPECT_NE(std::find(back.begin(), back.end(), a), back.end())
          << "neighbor symmetry broken between " << a << " and " << b;
    }
    // No duplicates, no self-loop.
    std::set<NodeId> unique(can->neighbors(a).begin(), can->neighbors(a).end());
    EXPECT_EQ(unique.size(), can->neighbors(a).size());
    EXPECT_EQ(unique.count(a), 0u);
  }
}

TEST_P(CanPartition, GreedyRoutingReachesOracleOwner) {
  const auto [dim, nodes] = GetParam();
  sim::NetworkStats stats;
  auto can = MakeCan(static_cast<size_t>(dim), nodes, &stats);
  Rng rng(123);
  for (int trial = 0; trial < 100; ++trial) {
    Vector key(static_cast<size_t>(dim));
    for (double& x : key) x = rng.NextDouble();
    const NodeId origin = static_cast<NodeId>(rng.NextIndex(
        static_cast<uint64_t>(can->num_nodes())));
    Result<RouteResult> route = can->Route(key, origin, sim::TrafficClass::kQuery, 32);
    ASSERT_TRUE(route.ok()) << route.status().ToString();
    EXPECT_EQ(route->destination, can->OwnerOf(key));
    EXPECT_LE(route->hops, can->num_nodes());
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndSizes, CanPartition,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                       ::testing::Values(2, 17, 64)));

// Depth of a zone in the split tree: every join halves one zone, so a
// join-only zone of volume 2^-k sits k splits below the cube.
int ZoneDepth(const geom::Box& zone) {
  return static_cast<int>(std::lround(-std::log2(zone.Volume())));
}

// Publication routing over express contacts fixes one split of the target's
// path per hop, so on a join-only overlay it reaches the owner within the
// owner zone's depth (~log2 n), whatever the dimensionality. The greedy
// neighbour walk needs O(d n^{1/d}) hops and breaks this bound.
class CanExpressRouting : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CanExpressRouting, InsertRoutesWithinOwnerZoneDepth) {
  const auto [dim, nodes] = GetParam();
  sim::NetworkStats stats;
  auto can = MakeCan(static_cast<size_t>(dim), nodes, &stats);
  Rng rng(321);
  for (int trial = 0; trial < 200; ++trial) {
    Vector key(static_cast<size_t>(dim));
    for (double& x : key) x = rng.NextDouble();
    const NodeId origin = static_cast<NodeId>(rng.NextIndex(
        static_cast<uint64_t>(can->num_nodes())));
    Result<RouteResult> route = can->Route(key, origin, sim::TrafficClass::kInsert, 64,
                                           net::MessageType::kInsert);
    ASSERT_TRUE(route.ok()) << route.status().ToString();
    const NodeId owner = can->OwnerOf(key);
    ASSERT_EQ(route->destination, owner);
    EXPECT_LE(route->hops, ZoneDepth(can->zone(owner)))
        << "origin " << origin << " owner " << owner << " trial " << trial;
  }
}

TEST_P(CanExpressRouting, SplitHistoryAndContactsDescribeZones) {
  const auto [dim, nodes] = GetParam();
  sim::NetworkStats stats;
  auto can = MakeCan(static_cast<size_t>(dim), nodes, &stats);
  for (NodeId n = 0; n < can->num_nodes(); ++n) {
    EXPECT_EQ(can->split_depth(n), ZoneDepth(can->zone(n)));
    const std::vector<NodeId>& contacts = can->contacts(n);
    ASSERT_EQ(contacts.size(), static_cast<size_t>(can->split_depth(n)));
    for (NodeId c : contacts) {
      ASSERT_NE(c, overlay::kInvalidNode);
      EXPECT_NE(c, n);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndSizes, CanExpressRouting,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(17, 64, 1000)));

TEST(CanInsertTest, PointStoredAtOwner) {
  sim::NetworkStats stats;
  auto can = MakeCan(2, 16, &stats);
  PublishedCluster cluster;
  cluster.sphere = geom::Sphere{{0.3, 0.7}, 0.0};
  cluster.owner_peer = 5;
  cluster.items = 3;
  cluster.cluster_id = 42;
  Result<overlay::InsertReceipt> receipt = can->Insert(cluster, 0);
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(receipt->replicas, 0);
  const NodeId owner = can->OwnerOf(cluster.sphere.center);
  ASSERT_EQ(can->stored(owner).size(), 1u);
  EXPECT_EQ(can->stored(owner)[0].cluster_id, 42u);
}

TEST(CanInsertTest, SphereReplicatedToEveryOverlappingZone) {
  sim::NetworkStats stats;
  auto can = MakeCan(2, 32, &stats);
  PublishedCluster cluster;
  cluster.sphere = geom::Sphere{{0.5, 0.5}, 0.25};
  cluster.owner_peer = 1;
  cluster.items = 10;
  cluster.cluster_id = 7;
  Result<overlay::InsertReceipt> receipt = can->Insert(cluster, 0);
  ASSERT_TRUE(receipt.ok());
  int holders = 0;
  for (NodeId n = 0; n < can->num_nodes(); ++n) {
    const bool overlaps = can->zone(n).IntersectsSphere(cluster.sphere);
    const bool holds = !can->stored(n).empty();
    EXPECT_EQ(overlaps, holds) << "node " << n;
    if (holds) ++holders;
  }
  EXPECT_EQ(receipt->replicas, holders - 1);
  EXPECT_GT(holders, 1);  // a radius-0.25 sphere must straddle zones here
}

TEST(CanInsertTest, RejectsDimensionMismatch) {
  sim::NetworkStats stats;
  auto can = MakeCan(2, 4, &stats);
  PublishedCluster cluster;
  cluster.sphere = geom::Sphere{{0.5}, 0.1};
  EXPECT_FALSE(can->Insert(cluster, 0).ok());
}

TEST(CanQueryTest, FindsEveryIntersectingClusterExactlyOnce) {
  sim::NetworkStats stats;
  auto can = MakeCan(2, 24, &stats);
  Rng rng(5);
  std::vector<PublishedCluster> all;
  for (uint64_t id = 1; id <= 40; ++id) {
    PublishedCluster c;
    c.sphere = geom::Sphere{{rng.NextDouble(), rng.NextDouble()},
                            rng.Uniform(0.0, 0.15)};
    c.owner_peer = static_cast<int>(id % 10);
    c.items = 1 + static_cast<int>(id % 5);
    c.cluster_id = id;
    ASSERT_TRUE(can->Insert(c, 0).ok());
    all.push_back(c);
  }
  for (int trial = 0; trial < 50; ++trial) {
    geom::Sphere query{{rng.NextDouble(), rng.NextDouble()}, rng.Uniform(0.0, 0.3)};
    Result<overlay::RangeQueryResult> result = can->RangeQuery(query, 0);
    ASSERT_TRUE(result.ok());
    std::set<uint64_t> found;
    for (const overlay::ClusterMatch& c : result->matches) {
      EXPECT_TRUE(found.insert(c.cluster_id).second) << "duplicate id " << c.cluster_id;
    }
    for (const PublishedCluster& c : all) {
      EXPECT_EQ(found.count(c.cluster_id), c.sphere.Intersects(query) ? 1u : 0u)
          << "cluster " << c.cluster_id << " trial " << trial;
    }
  }
}

TEST(CanQueryTest, VisitsOnlyOverlappingZones) {
  sim::NetworkStats stats;
  auto can = MakeCan(2, 32, &stats);
  geom::Sphere query{{0.25, 0.25}, 0.1};
  Result<overlay::RangeQueryResult> result = can->RangeQuery(query, 0);
  ASSERT_TRUE(result.ok());
  int overlapping = 0;
  for (NodeId n = 0; n < can->num_nodes(); ++n) {
    if (can->zone(n).IntersectsSphere(query)) ++overlapping;
  }
  EXPECT_EQ(result->nodes_visited, overlapping);
}

TEST(CanQueryTest, QueryCenterOutsideCubeIsClamped) {
  sim::NetworkStats stats;
  auto can = MakeCan(2, 8, &stats);
  geom::Sphere query{{1.5, -0.5}, 0.2};
  EXPECT_TRUE(can->RangeQuery(query, 0).ok());
}

// The flood before test-once: test every stored copy, keep the first match
// of each id. BFS from `entry` over neighbours whose zone meets the query,
// in neighbour-list order (no transport, so every hop is delivered).
struct ReferenceFlood {
  std::vector<PublishedCluster> matches;
  int nodes_visited = 0;
  int flood_hops = 0;
};

ReferenceFlood TestThenDedupeFlood(const CanOverlay& can, const geom::Sphere& query,
                                   NodeId entry) {
  ReferenceFlood out;
  std::set<NodeId> visited{entry};
  std::set<uint64_t> matched;
  std::deque<NodeId> frontier{entry};
  while (!frontier.empty()) {
    const NodeId node = frontier.front();
    frontier.pop_front();
    ++out.nodes_visited;
    for (const PublishedCluster& c : can.stored(node)) {
      if (c.sphere.Intersects(query) && matched.insert(c.cluster_id).second) {
        out.matches.push_back(c);
      }
    }
    for (NodeId n : can.neighbors(node)) {
      if (visited.count(n) != 0 || !can.zone(n).IntersectsSphere(query)) continue;
      visited.insert(n);
      frontier.push_back(n);
      ++out.flood_hops;
    }
  }
  return out;
}

// The flood's compact record of `cluster`: same id, owner, items and radius,
// and a distance equal bit for bit to vec::Distance from the query center.
bool RecordsCluster(const overlay::ClusterMatch& got, const PublishedCluster& want,
                    const geom::Sphere& query) {
  return got.cluster_id == want.cluster_id && got.owner_peer == want.owner_peer &&
         got.items == want.items && got.radius == want.sphere.radius &&
         got.distance == vec::Distance(want.sphere.center, query.center);
}

// Every stored copy of one cluster_id carries the same sphere: the
// invariant the flood's test-once rule relies on.
void ExpectOneSpherePerId(const CanOverlay& can) {
  std::map<uint64_t, geom::Sphere> first_copy;
  for (NodeId n = 0; n < can.num_nodes(); ++n) {
    for (const PublishedCluster& c : can.stored(n)) {
      const auto [it, fresh] = first_copy.emplace(c.cluster_id, c.sphere);
      if (fresh) continue;
      EXPECT_EQ(it->second.center, c.sphere.center) << "id " << c.cluster_id;
      EXPECT_EQ(it->second.radius, c.sphere.radius) << "id " << c.cluster_id;
    }
  }
}

void ExpectFloodsMatchReference(CanOverlay& can, Rng& rng, const std::string& stage) {
  for (int trial = 0; trial < 60; ++trial) {
    geom::Sphere query{{rng.NextDouble(), rng.NextDouble(), rng.NextDouble()},
                       rng.Uniform(0.0, 0.45)};
    Result<overlay::RangeQueryResult> got = can.RangeQuery(query, 0);
    ASSERT_TRUE(got.ok());
    const ReferenceFlood want = TestThenDedupeFlood(can, query, got->entry_node);
    EXPECT_EQ(got->nodes_visited, want.nodes_visited) << stage << " trial " << trial;
    EXPECT_EQ(got->flood_hops, want.flood_hops) << stage << " trial " << trial;
    ASSERT_EQ(got->matches.size(), want.matches.size()) << stage << " trial " << trial;
    for (size_t i = 0; i < want.matches.size(); ++i) {
      EXPECT_TRUE(RecordsCluster(got->matches[i], want.matches[i], query))
          << stage << " trial " << trial << " match " << i;
    }
  }
}

TEST(CanQueryTest, TestOnceFloodMatchesTestThenDedupeWalk) {
  sim::NetworkStats stats;
  auto can = MakeCan(3, 48, &stats);
  Rng rng(11);
  // Wide spheres so most clusters are replicated into several zones, and
  // enough ids (300) that each flood meets many repeated copies.
  std::vector<PublishedCluster> published;
  uint64_t next_id = 1;
  auto random_cluster = [&](int owner) {
    PublishedCluster c;
    c.sphere = geom::Sphere{{rng.NextDouble(), rng.NextDouble(), rng.NextDouble()},
                            rng.Uniform(0.0, 0.3)};
    c.owner_peer = owner;
    c.items = 1 + static_cast<int>(rng.NextIndex(9));
    c.cluster_id = next_id++;
    c.expires_at = 1000.0;
    return c;
  };
  for (int i = 0; i < 300; ++i) {
    published.push_back(random_cluster(i % 12));
    ASSERT_TRUE(can->Insert(published.back(), 0).ok());
  }
  ExpectOneSpherePerId(*can);
  ExpectFloodsMatchReference(*can, rng, "fresh");

  // TTL refresh: re-insert a third of the summaries unchanged but for the
  // expiry; every copy's expiry is renewed in place.
  for (size_t i = 0; i < published.size(); i += 3) {
    published[i].expires_at = 2000.0;
    ASSERT_TRUE(can->Insert(published[i], static_cast<NodeId>(i % 48)).ok());
  }
  ExpectOneSpherePerId(*can);
  ExpectFloodsMatchReference(*can, rng, "refreshed");

  // Re-publication: owners 3 and 7 unpublish everything and publish new
  // summaries under fresh ids.
  for (int owner : {3, 7}) {
    EXPECT_GT(can->RemoveByOwner(owner), 0);
    for (int i = 0; i < 25; ++i) ASSERT_TRUE(can->Insert(random_cluster(owner), 5).ok());
  }
  ExpectOneSpherePerId(*can);
  ExpectFloodsMatchReference(*can, rng, "republished");

  // Churn re-homes copies and changes the node count the scratch covers.
  Rng churn_rng(12);
  ASSERT_TRUE(can->AddNode(churn_rng).ok());
  ASSERT_TRUE(can->AddNode(churn_rng).ok());
  ASSERT_TRUE(can->Leave(9).ok());
  ExpectOneSpherePerId(*can);
  ExpectFloodsMatchReference(*can, rng, "churned");
}

// Logs every overlay message and drops the ones sent over a blocked
// (type, src, dst) edge; a delivered message takes 1 ms.
class EdgeDropTransport : public net::Transport {
 public:
  struct Sent {
    net::MessageType type;
    NodeId src;
    NodeId dst;
    bool delivered;
  };

  net::HopResult SendHop(const net::Message& message) override {
    const bool dropped = blocked_.contains({message.type, message.src, message.dst});
    log_.push_back(Sent{message.type, message.src, message.dst, !dropped});
    if (dropped) return net::HopResult{false, 0.0, net::DeliveryOutcome::kLostLoss};
    return net::HopResult{true, 1.0, net::DeliveryOutcome::kDelivered};
  }
  net::TransportCounters counters() const override { return {}; }

  void Block(net::MessageType type, NodeId src, NodeId dst) {
    blocked_.insert({type, src, dst});
  }
  const std::vector<Sent>& log() const { return log_; }
  void ClearLog() { log_.clear(); }

  // Messages of `type` in the log, all or only the delivered ones.
  int Count(net::MessageType type, bool delivered_only = false) const {
    int n = 0;
    for (const Sent& sent : log_) {
      if (sent.type == type && (sent.delivered || !delivered_only)) ++n;
    }
    return n;
  }

 private:
  std::set<std::tuple<net::MessageType, NodeId, NodeId>> blocked_;
  std::vector<Sent> log_;
};

bool SameMatches(const std::vector<overlay::ClusterMatch>& a,
                 const std::vector<overlay::ClusterMatch>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].cluster_id != b[i].cluster_id || a[i].owner_peer != b[i].owner_peer ||
        a[i].items != b[i].items || a[i].radius != b[i].radius ||
        a[i].distance != b[i].distance) {
      return false;
    }
  }
  return true;
}

// Query traffic keeps the neighbour walk: every message of a kQuery route
// crosses into an adjacent zone, and RangeQuery's routing stage sends the
// same messages.
TEST(CanQueryRoutingTest, RangeQueryTrailsStepBetweenAdjacentZones) {
  sim::NetworkStats stats;
  auto can = MakeCan(1, 64, &stats);
  EdgeDropTransport transport;
  can->set_transport(&transport);
  const auto route_steps = [&transport] {
    std::vector<std::pair<NodeId, NodeId>> steps;
    for (const EdgeDropTransport::Sent& sent : transport.log()) {
      if (sent.type == net::MessageType::kRoute) steps.emplace_back(sent.src, sent.dst);
    }
    return steps;
  };
  Rng rng(17);
  for (int trial = 0; trial < 100; ++trial) {
    const Vector center{rng.NextDouble()};
    const NodeId origin = static_cast<NodeId>(rng.NextIndex(64));
    transport.ClearLog();
    Result<RouteResult> route =
        can->Route(center, origin, sim::TrafficClass::kQuery, 24);
    ASSERT_TRUE(route.ok());
    const std::vector<std::pair<NodeId, NodeId>> steps = route_steps();
    ASSERT_EQ(steps.size(), static_cast<size_t>(route->hops));
    NodeId at = origin;
    for (size_t i = 0; i < steps.size(); ++i) {
      const auto& [src, dst] = steps[i];
      EXPECT_EQ(src, at) << "trial " << trial << " step " << i;
      const auto& near = can->neighbors(src);
      EXPECT_NE(std::find(near.begin(), near.end(), dst), near.end())
          << "trial " << trial << " step " << i;
      at = dst;
    }
    EXPECT_EQ(at, route->destination);
    transport.ClearLog();
    Result<overlay::RangeQueryResult> query =
        can->RangeQuery(geom::Sphere{center, 0.01}, origin);
    ASSERT_TRUE(query.ok());
    EXPECT_EQ(query->routing_hops, route->hops);
    EXPECT_EQ(query->entry_node, route->destination);
    EXPECT_EQ(route_steps(), steps) << "trial " << trial;
  }
}

// A lost replication message prunes only its edge: the zone it targeted
// stays unreached, so another branch of the flood may still store there.
TEST(CanInsertTest, LostReplicationEdgesPruneOnlyThemselves) {
  sim::NetworkStats stats;
  auto can = MakeCan(2, 64, &stats);
  EdgeDropTransport transport;
  can->set_transport(&transport);
  PublishedCluster cluster;
  cluster.sphere = geom::Sphere{{0.45, 0.55}, 0.3};
  cluster.owner_peer = 2;
  cluster.items = 4;
  cluster.cluster_id = 9;
  const NodeId owner = can->OwnerOf(cluster.sphere.center);

  // A clean publication names the flood's edges. Block every second one,
  // and every edge into the zone the last one reached, which cuts it off.
  ASSERT_TRUE(can->Insert(cluster, 0).ok());
  std::set<std::pair<NodeId, NodeId>> blocked;
  int edge = 0;
  NodeId cut = overlay::kInvalidNode;
  for (const EdgeDropTransport::Sent& sent : transport.log()) {
    if (sent.type != net::MessageType::kReplicate) continue;
    cut = sent.dst;
    if (edge++ % 2 == 1) blocked.insert({sent.src, sent.dst});
  }
  ASSERT_NE(cut, overlay::kInvalidNode);
  for (NodeId n : can->neighbors(cut)) blocked.insert({n, cut});
  for (const auto& [src, dst] : blocked) {
    transport.Block(net::MessageType::kReplicate, src, dst);
  }
  can->ClearStorage();
  transport.ClearLog();

  Result<overlay::InsertReceipt> receipt = can->Insert(cluster, 0);
  ASSERT_TRUE(receipt.ok());
  ASSERT_TRUE(receipt->delivered);

  // Reference BFS over the zones meeting the sphere, skipping blocked edges.
  std::set<NodeId> reached{owner};
  std::deque<NodeId> frontier{owner};
  int delivered_edges = 0;
  while (!frontier.empty()) {
    const NodeId node = frontier.front();
    frontier.pop_front();
    for (NodeId n : can->neighbors(node)) {
      if (reached.contains(n) || !can->zone(n).IntersectsSphere(cluster.sphere)) continue;
      if (blocked.contains({node, n})) continue;
      reached.insert(n);
      frontier.push_back(n);
      ++delivered_edges;
    }
  }
  std::set<NodeId> stored;
  int overlapping = 0;
  for (NodeId n = 0; n < can->num_nodes(); ++n) {
    if (!can->stored(n).empty()) stored.insert(n);
    if (can->zone(n).IntersectsSphere(cluster.sphere)) ++overlapping;
  }
  EXPECT_EQ(stored, reached);
  EXPECT_EQ(receipt->replicas, delivered_edges);
  EXPECT_EQ(receipt->replicas,
            transport.Count(net::MessageType::kReplicate, /*delivered_only=*/true));
  // The blocked set bites both ways: some overlapping zones are cut off, and
  // some zone behind a lost edge is still reached through another branch.
  EXPECT_LT(static_cast<int>(stored.size()), overlapping);
  int rescued = 0;
  for (const auto& [src, dst] : blocked) {
    if (stored.contains(dst)) ++rescued;
  }
  EXPECT_GT(rescued, 0);
}

// RangeQuery with an entry hint: every delivered case floods from the
// center's owner and returns the plain query's match records.
class CanHintedQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    can_ = MakeCan(2, 48, &stats_);
    Rng rng(21);
    for (uint64_t id = 1; id <= 80; ++id) {
      PublishedCluster c;
      c.sphere = geom::Sphere{{rng.NextDouble(), rng.NextDouble()},
                              rng.Uniform(0.0, 0.12)};
      c.owner_peer = static_cast<int>(id % 7);
      c.items = 1;
      c.cluster_id = id;
      ASSERT_TRUE(can_->Insert(c, 0).ok());
    }
    can_->set_transport(&transport_);
    owner_ = can_->OwnerOf(query_.center);
    // An origin that is neither the owner nor one of its neighbours, so the
    // plain walk takes several hops.
    const auto& near = can_->neighbors(owner_);
    for (NodeId n = 0; n < can_->num_nodes(); ++n) {
      if (n != owner_ && std::find(near.begin(), near.end(), n) == near.end()) {
        origin_ = n;
        break;
      }
    }
    ASSERT_NE(origin_, overlay::kInvalidNode);
    Result<overlay::RangeQueryResult> plain = can_->RangeQuery(query_, origin_);
    ASSERT_TRUE(plain.ok());
    plain_ = std::move(plain).value();
    ASSERT_TRUE(plain_.delivered);
    ASSERT_GT(plain_.routing_hops, 1);
    ASSERT_FALSE(plain_.matches.empty());
    transport_.ClearLog();
  }

  overlay::RangeQueryResult MustQuery(NodeId origin, NodeId hint) {
    Result<overlay::RangeQueryResult> result = can_->RangeQuery(query_, origin, hint);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(result).value() : overlay::RangeQueryResult{};
  }

  void ExpectPlainFlood(const overlay::RangeQueryResult& got) {
    EXPECT_TRUE(got.delivered);
    EXPECT_EQ(got.outcome, net::DeliveryOutcome::kDelivered);
    EXPECT_EQ(got.entry_node, owner_);
    EXPECT_EQ(got.nodes_visited, plain_.nodes_visited);
    EXPECT_EQ(got.flood_hops, plain_.flood_hops);
    EXPECT_TRUE(SameMatches(got.matches, plain_.matches));
  }

  sim::NetworkStats stats_;
  EdgeDropTransport transport_;
  std::unique_ptr<CanOverlay> can_;
  const geom::Sphere query_{{0.62, 0.37}, 0.2};
  NodeId owner_ = overlay::kInvalidNode;
  NodeId origin_ = overlay::kInvalidNode;
  overlay::RangeQueryResult plain_;
};

TEST_F(CanHintedQueryTest, HintOwningTheCenterCostsOneMessage) {
  const overlay::RangeQueryResult got = MustQuery(origin_, owner_);
  EXPECT_EQ(got.routing_hops, 1);
  EXPECT_EQ(transport_.Count(net::MessageType::kRoute), 1);
  ASSERT_FALSE(transport_.log().empty());
  EXPECT_EQ(transport_.log().front().src, origin_);
  EXPECT_EQ(transport_.log().front().dst, owner_);
  ExpectPlainFlood(got);
}

TEST_F(CanHintedQueryTest, NeighbourHintResumesTheWalk) {
  const NodeId hint = can_->neighbors(owner_).front();
  ASSERT_NE(hint, origin_);
  ASSERT_FALSE(can_->zone(hint).ContainsHalfOpen(query_.center));
  const overlay::RangeQueryResult got = MustQuery(origin_, hint);
  // One direct message to the hint, then one greedy hop into the owner.
  EXPECT_EQ(got.routing_hops, 2);
  EXPECT_EQ(transport_.Count(net::MessageType::kRoute), 2);
  ExpectPlainFlood(got);
}

TEST_F(CanHintedQueryTest, OriginHintOwningTheCenterSendsNothingToRoute) {
  const overlay::RangeQueryResult got = MustQuery(owner_, owner_);
  EXPECT_EQ(got.routing_hops, 0);
  EXPECT_EQ(transport_.Count(net::MessageType::kRoute), 0);
  ExpectPlainFlood(got);
}

TEST_F(CanHintedQueryTest, StaleHintSendsNothing) {
  for (NodeId stale : {can_->num_nodes(), can_->num_nodes() + 5, NodeId{-3}}) {
    const overlay::RangeQueryResult got = MustQuery(origin_, stale);
    EXPECT_FALSE(got.delivered) << "hint " << stale;
    EXPECT_EQ(got.outcome, net::DeliveryOutcome::kLostUnreachable) << "hint " << stale;
    EXPECT_EQ(got.routing_hops, 0) << "hint " << stale;
  }
  EXPECT_TRUE(transport_.log().empty());
  const NodeId leaver = can_->neighbors(owner_).front();
  ASSERT_NE(leaver, origin_);
  ASSERT_TRUE(can_->Leave(leaver).ok());
  transport_.ClearLog();
  const overlay::RangeQueryResult got = MustQuery(origin_, leaver);
  EXPECT_FALSE(got.delivered);
  EXPECT_EQ(got.outcome, net::DeliveryOutcome::kLostUnreachable);
  EXPECT_TRUE(transport_.log().empty());
}

TEST_F(CanHintedQueryTest, LostHintMessageReportsUndelivered) {
  transport_.Block(net::MessageType::kRoute, origin_, owner_);
  const overlay::RangeQueryResult got = MustQuery(origin_, owner_);
  EXPECT_FALSE(got.delivered);
  EXPECT_EQ(got.outcome, net::DeliveryOutcome::kLostLoss);
  EXPECT_EQ(got.routing_hops, 1);
  EXPECT_EQ(got.entry_node, overlay::kInvalidNode);
  EXPECT_EQ(transport_.log().size(), 1u);
}

TEST(CanStorageTest, DistributionAndClear) {
  sim::NetworkStats stats;
  auto can = MakeCan(2, 8, &stats);
  PublishedCluster c;
  c.sphere = geom::Sphere{{0.5, 0.5}, 0.3};
  c.items = 4;
  c.cluster_id = 1;
  ASSERT_TRUE(can->Insert(c, 0).ok());
  int total_items = 0;
  for (const overlay::NodeStorage& s : can->StorageDistribution()) {
    total_items += s.items;
  }
  EXPECT_GE(total_items, 4);  // replicas multiply the stored count
  can->ClearStorage();
  for (const overlay::NodeStorage& s : can->StorageDistribution()) {
    EXPECT_EQ(s.clusters, 0);
  }
}

TEST(CanStorageTest, RemoveByOwnerErasesAllReplicas) {
  sim::NetworkStats stats;
  auto can = MakeCan(2, 16, &stats);
  for (uint64_t id = 1; id <= 6; ++id) {
    PublishedCluster c;
    c.sphere = geom::Sphere{{0.5, 0.5}, 0.3};
    c.owner_peer = static_cast<int>(id % 2);  // peers 0 and 1
    c.items = 1;
    c.cluster_id = id;
    ASSERT_TRUE(can->Insert(c, 0).ok());
  }
  const int removed = can->RemoveByOwner(1);
  EXPECT_GT(removed, 0);
  EXPECT_EQ(can->RemoveByOwner(1), 0);  // idempotent
  // Peer 0's clusters survive; peer 1's are gone everywhere.
  for (NodeId n = 0; n < can->num_nodes(); ++n) {
    for (const PublishedCluster& c : can->stored(n)) {
      EXPECT_EQ(c.owner_peer, 0);
    }
  }
}

// A refresh must carry the summary its id is stored with; one that differs
// is rejected before anything is sent. Once every copy of the id is gone, its
// record is released and the id is accepted again with a new sphere.
TEST(CanInsertTest, RefreshWithAnotherSphereIsRejected) {
  sim::NetworkStats stats;
  auto can = MakeCan(2, 16, &stats);
  PublishedCluster stored;
  stored.sphere = geom::Sphere{{0.4, 0.6}, 0.2};
  stored.owner_peer = 3;
  stored.items = 5;
  stored.cluster_id = 9;
  stored.expires_at = 100.0;
  ASSERT_TRUE(can->Insert(stored, 0).ok());

  std::vector<PublishedCluster> changed(4, stored);
  changed[0].sphere.center = {0.41, 0.6};
  changed[1].sphere.radius = 0.25;
  changed[2].owner_peer = 4;
  changed[3].items = 6;
  const uint64_t hops = stats.total_hops();
  for (const PublishedCluster& c : changed) {
    Result<overlay::InsertReceipt> receipt = can->Insert(c, 0);
    EXPECT_EQ(receipt.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(stats.total_hops(), hops);
  ASSERT_TRUE(can->Insert(stored, 5).ok());  // an unchanged refresh is fine

  // Each way of dropping every copy releases the id for a new summary.
  const std::vector<std::function<void()>> drop_all = {
      [&] { EXPECT_GT(can->RemoveByOwner(3), 0); },
      [&] { EXPECT_GT(can->ExpireBefore(200.0), 0); },
      [&] {
        for (NodeId n = 0; n < can->num_nodes(); ++n) can->ClearNode(n);
      },
      [&] { can->ClearStorage(); },
  };
  for (size_t way = 0; way < drop_all.size(); ++way) {
    drop_all[way]();
    PublishedCluster next = stored;
    next.sphere = geom::Sphere{{0.1 + 0.2 * static_cast<double>(way), 0.3}, 0.15};
    ASSERT_TRUE(can->Insert(next, 0).ok()) << "way " << way;
    int holders = 0;
    for (NodeId n = 0; n < can->num_nodes(); ++n) {
      for (const PublishedCluster& c : can->stored(n)) {
        EXPECT_EQ(c.sphere.center, next.sphere.center) << "way " << way;
        ++holders;
      }
    }
    EXPECT_GT(holders, 0);
    stored = next;
  }
}

// Replica sets under churn, without a transport: a random run of fresh
// inserts, refreshes, joins, departures, expiry and unpublishing, with ids
// that were dropped everywhere coming back under a new sphere. After every
// step each active zone stores exactly the live clusters whose sphere meets
// it, once each and with their current expiry, and every range query reports
// each matching live cluster once with its brute-force distance.
// Params: {dim, seed}.
class CanReplicaChurn : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CanReplicaChurn, ZonesHoldExactlyTheLiveClustersMeetingThem) {
  const auto [dim, seed] = GetParam();
  const auto d = static_cast<size_t>(dim);
  sim::NetworkStats stats;
  auto can = MakeCan(d, 20, &stats, static_cast<uint64_t>(seed));
  Rng rng(static_cast<uint64_t>(seed) + 1000);
  std::map<uint64_t, PublishedCluster> live;
  std::vector<uint64_t> dropped;  // ids with no stored copy left
  uint64_t next_id = 1;
  double now = 0.0;

  auto random_point = [&] {
    Vector v(d);
    for (double& x : v) x = rng.NextDouble();
    return v;
  };
  auto random_active = [&] {
    NodeId n = static_cast<NodeId>(rng.NextIndex(static_cast<uint64_t>(can->num_nodes())));
    while (!can->active(n)) {
      n = static_cast<NodeId>(rng.NextIndex(static_cast<uint64_t>(can->num_nodes())));
    }
    return n;
  };
  auto publish = [&](uint64_t id) {
    PublishedCluster c;
    c.sphere = geom::Sphere{random_point(), rng.Uniform(0.0, 0.2)};
    c.owner_peer = static_cast<int>(rng.NextIndex(5));
    c.items = 1 + static_cast<int>(rng.NextIndex(9));
    c.cluster_id = id;
    c.expires_at = now + rng.Uniform(5.0, 30.0);
    ASSERT_TRUE(can->Insert(c, random_active()).ok()) << "id " << id;
    live[id] = c;
  };
  auto drop_where = [&](const std::function<bool(const PublishedCluster&)>& gone) {
    for (auto it = live.begin(); it != live.end();) {
      if (gone(it->second)) {
        dropped.push_back(it->first);
        it = live.erase(it);
      } else {
        ++it;
      }
    }
  };
  auto check = [&](int step) {
    for (NodeId n = 0; n < can->num_nodes(); ++n) {
      const std::vector<PublishedCluster> held = can->stored(n);
      if (!can->active(n)) {
        EXPECT_TRUE(held.empty()) << "step " << step << " node " << n;
        continue;
      }
      std::set<uint64_t> want;
      for (const auto& [id, c] : live) {
        if (can->zone(n).IntersectsSphere(c.sphere)) want.insert(id);
      }
      std::set<uint64_t> got;
      for (const PublishedCluster& c : held) {
        EXPECT_TRUE(got.insert(c.cluster_id).second)
            << "step " << step << " node " << n << " holds id " << c.cluster_id
            << " twice";
        const auto it = live.find(c.cluster_id);
        if (it == live.end()) continue;
        EXPECT_EQ(c.sphere.center, it->second.sphere.center) << "step " << step;
        EXPECT_EQ(c.sphere.radius, it->second.sphere.radius) << "step " << step;
        EXPECT_EQ(c.owner_peer, it->second.owner_peer) << "step " << step;
        EXPECT_EQ(c.items, it->second.items) << "step " << step;
        EXPECT_EQ(c.expires_at, it->second.expires_at) << "step " << step;
      }
      EXPECT_EQ(got, want) << "step " << step << " node " << n;
    }
    for (int q = 0; q < 2; ++q) {
      const geom::Sphere query{random_point(), rng.Uniform(0.0, 0.3)};
      Result<overlay::RangeQueryResult> result = can->RangeQuery(query, random_active());
      ASSERT_TRUE(result.ok());
      std::map<uint64_t, int> seen;
      for (const overlay::ClusterMatch& m : result->matches) {
        ++seen[m.cluster_id];
        const auto it = live.find(m.cluster_id);
        ASSERT_NE(it, live.end()) << "step " << step << " dead id " << m.cluster_id;
        EXPECT_TRUE(RecordsCluster(m, it->second, query)) << "step " << step;
      }
      for (const auto& [id, c] : live) {
        EXPECT_EQ(seen[id], c.sphere.Intersects(query) ? 1 : 0)
            << "step " << step << " id " << id;
      }
    }
  };

  for (int i = 0; i < 40; ++i) publish(next_id++);
  check(0);
  for (int step = 1; step <= 120; ++step) {
    now += 1.0;
    const uint64_t op = rng.NextIndex(10);
    if (op < 3) {
      publish(next_id++);
    } else if (op == 3 && !dropped.empty()) {
      // An id dropped everywhere comes back under a new summary.
      const size_t pick = static_cast<size_t>(rng.NextIndex(dropped.size()));
      const uint64_t id = dropped[pick];
      dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(pick));
      publish(id);
    } else if (op == 4 && !live.empty()) {
      auto it = live.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.NextIndex(live.size())));
      it->second.expires_at = now + rng.Uniform(5.0, 30.0);
      ASSERT_TRUE(can->Insert(it->second, random_active()).ok());
    } else if (op == 5) {
      ASSERT_TRUE(can->AddNode(rng).ok());
    } else if (op == 6 && can->num_active_nodes() > 2) {
      ASSERT_TRUE(can->Leave(random_active()).ok());
    } else if (op == 7) {
      can->ExpireBefore(now);
      drop_where([now](const PublishedCluster& c) { return c.expires_at < now; });
    } else if (op == 8) {
      const int owner = static_cast<int>(rng.NextIndex(5));
      can->RemoveByOwner(owner);
      drop_where([owner](const PublishedCluster& c) { return c.owner_peer == owner; });
    } else {
      continue;  // a quiet step
    }
    check(step);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndSeeds, CanReplicaChurn,
    ::testing::Combine(::testing::Values(1, 2, 4), ::testing::Values(1, 2, 3)));

TEST(CanHighDimTest, BuildsAndRoutesIn512Dims) {
  sim::NetworkStats stats;
  auto can = MakeCan(512, 20, &stats, 3);
  Rng rng(4);
  Vector key(512);
  for (double& x : key) x = rng.NextDouble();
  Result<RouteResult> route = can->Route(key, 0, sim::TrafficClass::kInsert, 128);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route->destination, can->OwnerOf(key));
}

}  // namespace
}  // namespace hyperm::can
