// k-alternative greedy routing (CanOverlay::Route with a detour budget):
// failed or hint-unreachable next hops are routed around, dead-end pockets
// are backtracked out of, and the RouteResult trail records the message's
// true path throughout.

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

// Transport that delivers everything except sends into a blocked node set.
// `announce_blocks` decides whether ReachableHint gives the block away (the
// radio-island case) or the walk only learns at SendHop time (the ARQ
// dead-letter case) — detour routing must survive both.
class BlockingTransport : public net::Transport {
 public:
  net::HopResult SendHop(const net::Message& message) override {
    net::HopResult result;
    if (blocked_.contains(message.dst)) {
      result.delivered = false;
      result.outcome = net::DeliveryOutcome::kLostUnreachable;
      return result;
    }
    result.delivered = true;
    return result;
  }
  bool ReachableHint(int /*src*/, int dst) const override {
    return !announce_blocks_ || !blocked_.contains(dst);
  }
  net::TransportCounters counters() const override { return {}; }

  void Block(NodeId node) { blocked_.insert(node); }
  void set_announce_blocks(bool announce) { announce_blocks_ = announce; }

 private:
  std::unordered_set<NodeId> blocked_;
  bool announce_blocks_ = true;
};

class CanRouteDetourTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(7);
    Result<std::unique_ptr<CanOverlay>> built =
        CanOverlay::Build(/*dim=*/2, /*num_nodes=*/32, &stats_, rng);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    can_ = std::move(built).value();
    can_->set_transport(&transport_);
  }

  RouteResult MustRoute(const Vector& key, NodeId origin, int max_detours) {
    Result<RouteResult> route =
        can_->Route(key, origin, sim::TrafficClass::kQuery, /*message_bytes=*/24,
                    net::MessageType::kRoute, max_detours);
    EXPECT_TRUE(route.ok()) << route.status().ToString();
    return std::move(route).value();
  }

  // A (key, origin) pair whose unobstructed greedy walk takes at least
  // `min_trail` zones, so there is a middle to obstruct.
  struct LongWalk {
    Vector key;
    NodeId origin = 0;
    RouteResult baseline;
  };
  LongWalk FindLongWalk(size_t min_trail) {
    Rng rng(1234);
    for (int trial = 0; trial < 200; ++trial) {
      Vector key{rng.NextDouble(), rng.NextDouble()};
      const NodeId origin = static_cast<NodeId>(rng.NextUint64() % 32);
      RouteResult baseline = MustRoute(key, origin, /*max_detours=*/0);
      EXPECT_TRUE(baseline.delivered);
      if (baseline.trail.size() >= min_trail) return {key, origin, baseline};
    }
    ADD_FAILURE() << "no greedy walk of length >= " << min_trail << " found";
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
  ASSERT_FALSE(route.trail.empty());
  EXPECT_EQ(route.trail.front(), walk.origin);
  EXPECT_EQ(route.trail.back(), route.destination);
  EXPECT_EQ(route.destination, can_->OwnerOf(walk.key));
  // Without detours the trail is exactly origin plus one zone per hop.
  EXPECT_EQ(route.trail.size(), static_cast<size_t>(route.hops) + 1);
}

TEST_F(CanRouteDetourTest, DetoursAroundHintBlockedMidNode) {
  const LongWalk walk = FindLongWalk(4);
  const NodeId blocked = walk.baseline.trail[1];
  ASSERT_NE(blocked, walk.origin);
  ASSERT_NE(blocked, walk.baseline.destination);
  transport_.Block(blocked);

  const RouteResult detoured = MustRoute(walk.key, walk.origin, /*max_detours=*/8);
  EXPECT_TRUE(detoured.delivered);
  EXPECT_EQ(detoured.outcome, net::DeliveryOutcome::kDelivered);
  EXPECT_EQ(detoured.destination, walk.baseline.destination);
  EXPECT_GE(detoured.detours, 1);
  // The hint skip spends budget, not airtime: the blocked zone is never
  // entered, so it cannot appear on the trail.
  EXPECT_EQ(std::count(detoured.trail.begin(), detoured.trail.end(), blocked), 0);
}

TEST_F(CanRouteDetourTest, DetoursAroundSendFailureWithoutHints) {
  const LongWalk walk = FindLongWalk(4);
  const NodeId blocked = walk.baseline.trail[1];
  transport_.Block(blocked);
  transport_.set_announce_blocks(false);  // the walk learns only at SendHop

  const RouteResult detoured = MustRoute(walk.key, walk.origin, /*max_detours=*/8);
  EXPECT_TRUE(detoured.delivered);
  EXPECT_EQ(detoured.destination, walk.baseline.destination);
  EXPECT_GE(detoured.detours, 1);
  // The failed transmission is a real hop (the radio burned airtime), so the
  // hop count exceeds the surviving path length.
  EXPECT_GE(static_cast<size_t>(detoured.hops) + 1, detoured.trail.size());
  EXPECT_EQ(std::count(detoured.trail.begin(), detoured.trail.end(), blocked), 0);
}

TEST_F(CanRouteDetourTest, BudgetZeroDiesAtTheBlockedHop) {
  const LongWalk walk = FindLongWalk(4);
  transport_.Block(walk.baseline.trail[1]);
  transport_.set_announce_blocks(false);

  const RouteResult dropped = MustRoute(walk.key, walk.origin, /*max_detours=*/0);
  EXPECT_FALSE(dropped.delivered);
  EXPECT_EQ(dropped.outcome, net::DeliveryOutcome::kLostUnreachable);
  EXPECT_EQ(dropped.destination, overlay::kInvalidNode);
  EXPECT_EQ(dropped.detours, 0);
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
    if (baseline.trail.size() < 4) continue;
    const NodeId pocket = baseline.trail[1];
    const NodeId owner = baseline.destination;

    BlockingTransport blocking;
    bool owner_blocked = false;
    for (NodeId n : can_->neighbors(pocket)) {
      if (n == origin) continue;
      if (n == owner) owner_blocked = true;
      blocking.Block(n);
    }
    if (owner_blocked) continue;  // nothing could deliver; pick another walk
    can_->set_transport(&blocking);
    const RouteResult rerouted = MustRoute(key, origin, /*max_detours=*/64);
    can_->set_transport(&transport_);
    if (!rerouted.delivered) continue;  // origin's detour options also blocked

    EXPECT_EQ(rerouted.destination, owner);
    EXPECT_GE(rerouted.detours, 2);  // >=1 dead neighbour skip + the backtrack
    // The trail records the retreat: the walk re-enters the origin after the
    // pocket instead of teleporting to the alternate branch.
    const auto pocket_at = std::find(rerouted.trail.begin(), rerouted.trail.end(),
                                     pocket);
    ASSERT_NE(pocket_at, rerouted.trail.end());
    ASSERT_NE(pocket_at + 1, rerouted.trail.end());
    EXPECT_EQ(*(pocket_at + 1), origin);
    exercised = true;
  }
  EXPECT_TRUE(exercised) << "no delivering pocket-backtrack case found";
}

}  // namespace
}  // namespace hyperm::can
