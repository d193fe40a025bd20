// k-alternative greedy routing (CanOverlay::Route with a detour budget):
// failed or hint-unreachable next hops are routed around and dead-end
// pockets are backtracked out of. The walk is observed through the messages
// it hands the transport.

#include <algorithm>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "can/can_overlay.h"
#include "common/rng.h"
#include "net/transport.h"

namespace hyperm::can {
namespace {

using overlay::NodeId;
using overlay::PublishedCluster;

// Transport that delivers everything (1 ms per message) except sends into a
// blocked node set, and logs every send. `announce_blocks` decides whether
// ReachableHint gives the block away (the radio-island case) or the walk
// only learns at SendHop time (the ARQ dead-letter case) — detour routing
// must survive both.
class BlockingTransport : public net::Transport {
 public:
  struct Sent {
    NodeId src;
    NodeId dst;
    bool delivered;
  };

  net::HopResult SendHop(const net::Message& message) override {
    const bool blocked = blocked_.contains(message.dst);
    log_.push_back(Sent{message.src, message.dst, !blocked});
    if (blocked) return net::HopResult{false, 0.0, net::DeliveryOutcome::kLostUnreachable};
    return net::HopResult{true, 1.0, net::DeliveryOutcome::kDelivered};
  }
  bool ReachableHint(int /*src*/, int dst) const override {
    return !announce_blocks_ || !blocked_.contains(dst);
  }
  net::TransportCounters counters() const override { return {}; }

  void Block(NodeId node) { blocked_.insert(node); }
  void set_announce_blocks(bool announce) { announce_blocks_ = announce; }
  const std::vector<Sent>& log() const { return log_; }
  void ClearLog() { log_.clear(); }

  // The zones a walk from `origin` entered, in order: the origin, then the
  // destination of every delivered send.
  std::vector<NodeId> Entered(NodeId origin) const {
    std::vector<NodeId> path{origin};
    for (const Sent& sent : log_) {
      if (sent.delivered) path.push_back(sent.dst);
    }
    return path;
  }

  // Sends addressed to `node`.
  int SendsTo(NodeId node) const {
    return static_cast<int>(std::count_if(
        log_.begin(), log_.end(), [node](const Sent& sent) { return sent.dst == node; }));
  }

 private:
  std::unordered_set<NodeId> blocked_;
  bool announce_blocks_ = true;
  std::vector<Sent> log_;
};

std::unique_ptr<CanOverlay> MakeCan(sim::NetworkStats* stats) {
  Rng rng(7);
  Result<std::unique_ptr<CanOverlay>> built =
      CanOverlay::Build(/*dim=*/2, /*num_nodes=*/32, stats, rng);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

class CanRouteDetourTest : public ::testing::Test {
 protected:
  void SetUp() override {
    can_ = MakeCan(&stats_);
    can_->set_transport(&transport_);
  }

  // Routes on `can_` with the log of its current transport cleared first.
  RouteResult MustRoute(const Vector& key, NodeId origin, int max_detours,
                        BlockingTransport* transport) {
    can_->set_transport(transport);
    transport->ClearLog();
    Result<RouteResult> route =
        can_->Route(key, origin, sim::TrafficClass::kQuery, /*message_bytes=*/24,
                    net::MessageType::kRoute, max_detours);
    EXPECT_TRUE(route.ok()) << route.status().ToString();
    return std::move(route).value();
  }
  RouteResult MustRoute(const Vector& key, NodeId origin, int max_detours) {
    return MustRoute(key, origin, max_detours, &transport_);
  }

  // A (key, origin) pair whose unobstructed greedy walk enters at least
  // `min_zones` zones, so there is a middle to obstruct.
  struct LongWalk {
    Vector key;
    NodeId origin = 0;
    RouteResult baseline;
    std::vector<NodeId> entered;
  };
  LongWalk FindLongWalk(size_t min_zones) {
    Rng rng(1234);
    for (int trial = 0; trial < 200; ++trial) {
      Vector key{rng.NextDouble(), rng.NextDouble()};
      const NodeId origin = static_cast<NodeId>(rng.NextUint64() % 32);
      RouteResult baseline = MustRoute(key, origin, /*max_detours=*/0);
      EXPECT_TRUE(baseline.delivered);
      std::vector<NodeId> entered = transport_.Entered(origin);
      if (entered.size() >= min_zones) return {key, origin, baseline, entered};
    }
    ADD_FAILURE() << "no greedy walk through >= " << min_zones << " zones found";
    return {};
  }

  sim::NetworkStats stats_;
  BlockingTransport transport_;
  std::unique_ptr<CanOverlay> can_;
};

TEST_F(CanRouteDetourTest, CleanRouteTrailIsTheHopPath) {
  const LongWalk walk = FindLongWalk(3);
  const RouteResult& route = walk.baseline;
  EXPECT_TRUE(route.delivered);
  EXPECT_EQ(route.outcome, net::DeliveryOutcome::kDelivered);
  EXPECT_EQ(route.detours, 0);
  EXPECT_EQ(route.destination, can_->OwnerOf(walk.key));
  // Without detours the walk is one delivered send per hop, each leaving the
  // zone the previous one entered, from the origin to the destination.
  const std::vector<BlockingTransport::Sent>& sent = transport_.log();
  ASSERT_EQ(sent.size(), static_cast<size_t>(route.hops));
  NodeId at = walk.origin;
  for (const BlockingTransport::Sent& s : sent) {
    EXPECT_TRUE(s.delivered);
    EXPECT_EQ(s.src, at);
    at = s.dst;
  }
  EXPECT_EQ(at, route.destination);
  EXPECT_EQ(route.latency_ms, static_cast<double>(route.hops));
}

TEST_F(CanRouteDetourTest, DetoursAroundHintBlockedMidNode) {
  const LongWalk walk = FindLongWalk(4);
  const NodeId blocked = walk.entered[1];
  ASSERT_NE(blocked, walk.origin);
  ASSERT_NE(blocked, walk.baseline.destination);
  transport_.Block(blocked);

  const RouteResult detoured = MustRoute(walk.key, walk.origin, /*max_detours=*/8);
  EXPECT_TRUE(detoured.delivered);
  EXPECT_EQ(detoured.outcome, net::DeliveryOutcome::kDelivered);
  EXPECT_EQ(detoured.destination, walk.baseline.destination);
  EXPECT_GE(detoured.detours, 1);
  // The hint skip spends budget, not airtime: nothing is sent to the
  // blocked zone.
  EXPECT_EQ(transport_.SendsTo(blocked), 0);
  EXPECT_EQ(static_cast<size_t>(detoured.hops), transport_.log().size());
}

TEST_F(CanRouteDetourTest, DetoursAroundSendFailureWithoutHints) {
  const LongWalk walk = FindLongWalk(4);
  const NodeId blocked = walk.entered[1];
  transport_.Block(blocked);
  transport_.set_announce_blocks(false);  // the walk learns only at SendHop

  const RouteResult detoured = MustRoute(walk.key, walk.origin, /*max_detours=*/8);
  EXPECT_TRUE(detoured.delivered);
  EXPECT_EQ(detoured.destination, walk.baseline.destination);
  EXPECT_GE(detoured.detours, 1);
  // The failed transmission is a real hop (the radio burned airtime), so the
  // hop count exceeds the number of zones entered after the origin.
  EXPECT_GE(transport_.SendsTo(blocked), 1);
  const std::vector<NodeId> entered = transport_.Entered(walk.origin);
  EXPECT_EQ(static_cast<size_t>(detoured.hops), transport_.log().size());
  EXPECT_GT(static_cast<size_t>(detoured.hops) + 1, entered.size());
  EXPECT_EQ(std::count(entered.begin(), entered.end(), blocked), 0);
}

TEST_F(CanRouteDetourTest, BudgetZeroDiesAtTheBlockedHop) {
  const LongWalk walk = FindLongWalk(4);
  transport_.Block(walk.entered[1]);
  transport_.set_announce_blocks(false);

  const RouteResult dropped = MustRoute(walk.key, walk.origin, /*max_detours=*/0);
  EXPECT_FALSE(dropped.delivered);
  EXPECT_EQ(dropped.outcome, net::DeliveryOutcome::kLostUnreachable);
  EXPECT_EQ(dropped.destination, overlay::kInvalidNode);
  EXPECT_EQ(dropped.detours, 0);
  ASSERT_FALSE(transport_.log().empty());
  EXPECT_EQ(transport_.log().back().dst, walk.entered[1]);
  EXPECT_FALSE(transport_.log().back().delivered);
}

// Dead-end pocket: blocking every neighbour of the walk's first forward zone
// except the origin turns that zone into a concave cul-de-sac — greedy enters
// it (it is closest to the target), finds every onward neighbour dead, and
// must back out the way it came to make progress elsewhere.
TEST_F(CanRouteDetourTest, BacktracksOutOfDeadEndPocket) {
  Rng rng(99);
  bool exercised = false;
  for (int trial = 0; trial < 200 && !exercised; ++trial) {
    Vector key{rng.NextDouble(), rng.NextDouble()};
    const NodeId origin = static_cast<NodeId>(rng.NextUint64() % 32);
    const RouteResult baseline = MustRoute(key, origin, /*max_detours=*/0);
    ASSERT_TRUE(baseline.delivered);
    const std::vector<NodeId> entered = transport_.Entered(origin);
    if (entered.size() < 4) continue;
    const NodeId pocket = entered[1];
    const NodeId owner = baseline.destination;

    BlockingTransport blocking;
    bool owner_blocked = false;
    for (NodeId n : can_->neighbors(pocket)) {
      if (n == origin) continue;
      if (n == owner) owner_blocked = true;
      blocking.Block(n);
    }
    if (owner_blocked) continue;  // nothing could deliver; pick another walk
    const RouteResult rerouted = MustRoute(key, origin, /*max_detours=*/64, &blocking);
    can_->set_transport(&transport_);
    if (!rerouted.delivered) continue;  // origin's detour options also blocked

    EXPECT_EQ(rerouted.destination, owner);
    EXPECT_GE(rerouted.detours, 2);  // >=1 dead neighbour skip + the backtrack
    // The walk retreats: after entering the pocket it sends nothing from
    // there, and its next message leaves from the origin instead of
    // teleporting to the alternate branch.
    const std::vector<BlockingTransport::Sent>& sent = blocking.log();
    const auto into_pocket =
        std::find_if(sent.begin(), sent.end(), [&](const BlockingTransport::Sent& s) {
          return s.dst == pocket && s.delivered;
        });
    ASSERT_NE(into_pocket, sent.end());
    EXPECT_EQ(into_pocket->src, origin);
    ASSERT_NE(into_pocket + 1, sent.end());
    EXPECT_EQ((into_pocket + 1)->src, origin);
    for (const BlockingTransport::Sent& s : sent) EXPECT_NE(s.src, pocket);
    exercised = true;
  }
  EXPECT_TRUE(exercised) << "no delivering pocket-backtrack case found";
}

// Route, Flood and Leave share one scratch of per-walk marks. A detour walk
// that marks zones dead must leave no trace: publications and range queries
// after it behave exactly as on a freshly built, identical overlay.
TEST_F(CanRouteDetourTest, MarksFromOneWalkNeverLeakIntoTheNext) {
  const LongWalk walk = FindLongWalk(4);
  const NodeId blocked = walk.entered[1];
  BlockingTransport blocking;
  blocking.Block(blocked);
  blocking.set_announce_blocks(false);
  const RouteResult detoured = MustRoute(walk.key, walk.origin, /*max_detours=*/8,
                                         &blocking);
  ASSERT_TRUE(detoured.delivered);
  ASSERT_GE(detoured.detours, 1);  // the blocked zone was marked dead

  sim::NetworkStats fresh_stats;
  std::unique_ptr<CanOverlay> fresh = MakeCan(&fresh_stats);
  BlockingTransport used_transport;
  BlockingTransport fresh_transport;
  can_->set_transport(&used_transport);
  fresh->set_transport(&fresh_transport);

  Rng rng(5);
  for (int round = 0; round < 40; ++round) {
    const NodeId origin = round == 0 ? walk.origin
                                     : static_cast<NodeId>(rng.NextIndex(32));
    const Vector center = round == 0 ? walk.key
                                     : Vector{rng.NextDouble(), rng.NextDouble()};
    PublishedCluster cluster;
    cluster.sphere = geom::Sphere{center, rng.Uniform(0.0, 0.15)};
    cluster.owner_peer = round % 5;
    cluster.items = 1;
    cluster.cluster_id = static_cast<uint64_t>(round + 1);
    Result<overlay::InsertReceipt> used_insert = can_->Insert(cluster, origin);
    Result<overlay::InsertReceipt> fresh_insert = fresh->Insert(cluster, origin);
    ASSERT_TRUE(used_insert.ok() && fresh_insert.ok());
    EXPECT_EQ(used_insert->routing_hops, fresh_insert->routing_hops) << round;
    EXPECT_EQ(used_insert->replicas, fresh_insert->replicas) << round;
    EXPECT_EQ(used_insert->latency_ms, fresh_insert->latency_ms) << round;

    const geom::Sphere query{center, rng.Uniform(0.0, 0.3)};
    Result<overlay::RangeQueryResult> used_query = can_->RangeQuery(query, origin);
    Result<overlay::RangeQueryResult> fresh_query = fresh->RangeQuery(query, origin);
    ASSERT_TRUE(used_query.ok() && fresh_query.ok());
    EXPECT_EQ(used_query->routing_hops, fresh_query->routing_hops) << round;
    EXPECT_EQ(used_query->flood_hops, fresh_query->flood_hops) << round;
    EXPECT_EQ(used_query->nodes_visited, fresh_query->nodes_visited) << round;
    EXPECT_EQ(used_query->entry_node, fresh_query->entry_node) << round;
    EXPECT_EQ(used_query->latency_ms, fresh_query->latency_ms) << round;
    ASSERT_EQ(used_query->matches.size(), fresh_query->matches.size()) << round;
    for (size_t i = 0; i < used_query->matches.size(); ++i) {
      EXPECT_EQ(used_query->matches[i].cluster_id, fresh_query->matches[i].cluster_id);
      EXPECT_EQ(used_query->matches[i].distance, fresh_query->matches[i].distance);
    }
  }
  for (NodeId n = 0; n < can_->num_nodes(); ++n) {
    const std::vector<PublishedCluster>& used = can_->stored(n);
    const std::vector<PublishedCluster>& reference = fresh->stored(n);
    ASSERT_EQ(used.size(), reference.size()) << "node " << n;
    for (size_t i = 0; i < used.size(); ++i) {
      EXPECT_EQ(used[i].cluster_id, reference[i].cluster_id) << "node " << n;
    }
  }
}

}  // namespace
}  // namespace hyperm::can
