// Unit tests of the routing seam: the oracle wraps the topology's cached
// BFS, and AODV discovers loop-free routes matching oracle hop counts on
// static symmetric topologies, expires soft state, revalidates against
// mobility, and reacts to link breaks with RERR invalidation.

#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "channel/mac.h"
#include "manet/topology.h"
#include "net/transport.h"
#include "route/aodv.h"
#include "route/oracle.h"
#include "route/protocol.h"

namespace hyperm::route {
namespace {

net::Message QueryMsg(int src, int dst, uint64_t bytes = 100) {
  return {net::MessageType::kQueryFlood, src, dst, bytes,
          sim::TrafficClass::kQuery};
}

manet::ManetTopology RandomField(int nodes, uint64_t seed) {
  manet::TopologyOptions options;
  options.num_nodes = nodes;
  options.field_size_m = 220.0;
  options.radio_range_m = 60.0;
  options.max_placement_attempts = 5000;
  Rng rng(seed);
  Result<manet::ManetTopology> topology =
      manet::ManetTopology::Generate(options, rng);
  EXPECT_TRUE(topology.ok()) << topology.status().ToString();
  return std::move(topology).value();
}

bool IsLoopFree(const std::vector<int>& path) {
  std::set<int> seen(path.begin(), path.end());
  return seen.size() == path.size();
}

bool IsValidWalk(const manet::ManetTopology& topology,
                 const std::vector<int>& path) {
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const std::vector<int>& out = topology.neighbors(path[i]);
    if (!std::binary_search(out.begin(), out.end(), path[i + 1])) return false;
  }
  return true;
}

TEST(OracleRoutingTest, WrapsCachedBfsExactly) {
  manet::ManetTopology topology = RandomField(20, 11);
  OracleRouting oracle(&topology);
  std::vector<int> path;
  for (int dst = 1; dst < 20; ++dst) {
    const RouteResolution res = oracle.Resolve(QueryMsg(0, dst), 0.0, path);
    ASSERT_TRUE(res.found) << dst;
    EXPECT_FALSE(res.discovered);
    EXPECT_EQ(res.control_latency_ms, 0.0);
    EXPECT_EQ(path, topology.ShortestPath(0, dst));
  }
  EXPECT_EQ(oracle.counters().resolutions, 19u);
  EXPECT_EQ(oracle.counters().unreachable, 0u);
  EXPECT_EQ(oracle.counters().control_frames, 0u);
  EXPECT_STREQ(oracle.name(), "oracle");
}

TEST(AodvRoutingTest, RoutesAreLoopFreeAndMatchOracleHopCounts) {
  // Randomized sweep over static symmetric topologies: every discovered
  // route must be a valid loop-free walk with exactly the oracle's hop
  // count (the RREQ flood is the same deterministic BFS).
  for (uint64_t seed : {3u, 17u, 99u}) {
    manet::ManetTopology topology = RandomField(24, seed);
    channel::MacModel::AirParams air;
    channel::LegacyStretchMac mac(&topology, air);
    AodvRouting aodv(&topology, &mac);
    std::vector<int> path;
    for (int src = 0; src < 24; src += 3) {
      for (int dst = 0; dst < 24; dst += 2) {
        if (src == dst) continue;
        const RouteResolution res =
            aodv.Resolve(QueryMsg(src, dst), 0.0, path);
        ASSERT_TRUE(res.found) << src << "->" << dst;
        ASSERT_GE(path.size(), 2u);
        EXPECT_EQ(path.front(), src);
        EXPECT_EQ(path.back(), dst);
        EXPECT_TRUE(IsLoopFree(path)) << src << "->" << dst;
        EXPECT_TRUE(IsValidWalk(topology, path)) << src << "->" << dst;
        EXPECT_EQ(static_cast<int>(path.size()) - 1,
                  topology.PathHops(src, dst))
            << src << "->" << dst;
      }
    }
    EXPECT_GT(aodv.counters().discoveries, 0u);
    EXPECT_GT(aodv.counters().cache_hits, aodv.counters().discoveries);
    EXPECT_EQ(aodv.counters().discovery_failures, 0u);
    EXPECT_GT(aodv.counters().control_frames, 0u);
  }
}

TEST(AodvRoutingTest, DiscoveryChargesControlAirtimeAndCachesRoutes) {
  manet::ManetTopology topology = RandomField(20, 11);
  channel::MacModel::AirParams air;
  channel::LegacyStretchMac mac(&topology, air);
  AodvRouting aodv(&topology, &mac);
  int dst = -1;
  for (int j = 1; j < 20 && dst < 0; ++j) {
    if (topology.PathHops(0, j) >= 2) dst = j;
  }
  ASSERT_GE(dst, 0);
  std::vector<int> path;
  const RouteResolution first = aodv.Resolve(QueryMsg(0, dst), 0.0, path);
  ASSERT_TRUE(first.found);
  EXPECT_TRUE(first.discovered);
  EXPECT_GT(first.control_latency_ms, 0.0);  // the flood took real airtime
  const uint64_t frames_after_first = aodv.counters().control_frames;
  EXPECT_GT(frames_after_first, 0u);
  EXPECT_EQ(aodv.counters().control_bytes,
            frames_after_first * kAodvControlBytes);
  EXPECT_GT(mac.counters().frames_sent, 0u);  // charged through the MAC
  // Second resolve: pure cache hit, no new control traffic, no latency.
  const RouteResolution second = aodv.Resolve(QueryMsg(0, dst), 1.0, path);
  ASSERT_TRUE(second.found);
  EXPECT_FALSE(second.discovered);
  EXPECT_EQ(second.control_latency_ms, 0.0);
  EXPECT_EQ(aodv.counters().control_frames, frames_after_first);
  // The flood also installed reverse routes: dst -> 0 resolves from cache.
  const RouteResolution reverse = aodv.Resolve(QueryMsg(dst, 0), 2.0, path);
  ASSERT_TRUE(reverse.found);
  EXPECT_FALSE(reverse.discovered);
}

TEST(AodvRoutingTest, SoftStateExpiresAndTriggersRediscovery) {
  manet::ManetTopology topology = RandomField(20, 11);
  channel::MacModel::AirParams air;
  channel::LegacyStretchMac mac(&topology, air);
  AodvRouting aodv(&topology, &mac);
  std::vector<int> path;
  ASSERT_TRUE(aodv.Resolve(QueryMsg(0, 5), 0.0, path).found);
  EXPECT_EQ(aodv.counters().discoveries, 1u);
  // Within the TTL: cached.
  ASSERT_TRUE(aodv.Resolve(QueryMsg(0, 5), kAodvRouteTtlMs - 1.0, path).found);
  EXPECT_EQ(aodv.counters().discoveries, 1u);
  // Past the TTL: the stale entry is evicted and a new flood runs.
  ASSERT_TRUE(aodv.Resolve(QueryMsg(0, 5), kAodvRouteTtlMs + 150.0, path).found);
  EXPECT_EQ(aodv.counters().discoveries, 2u);
  EXPECT_GT(aodv.counters().cache_expiries, 0u);
}

TEST(AodvRoutingTest, LinkBreakInvalidatesRoutesAndBroadcastsRerr) {
  manet::ManetTopology topology = RandomField(20, 11);
  channel::MacModel::AirParams air;
  channel::LegacyStretchMac mac(&topology, air);
  AodvRouting aodv(&topology, &mac);
  int dst = -1;
  for (int j = 1; j < 20 && dst < 0; ++j) {
    if (topology.PathHops(0, j) >= 2) dst = j;
  }
  ASSERT_GE(dst, 0);
  std::vector<int> path;
  ASSERT_TRUE(aodv.Resolve(QueryMsg(0, dst), 0.0, path).found);
  const int relay = path[0];
  const int next = path[1];
  const uint64_t frames_before = aodv.counters().control_frames;
  aodv.OnLinkBreak(relay, next, 10.0);
  EXPECT_EQ(aodv.counters().link_breaks, 1u);
  EXPECT_GT(aodv.counters().route_errors, 0u);
  EXPECT_GT(aodv.counters().control_frames, frames_before);  // the RERR
  // Re-breaking the already-invalidated link finds no routes to kill.
  const uint64_t errors = aodv.counters().route_errors;
  aodv.OnLinkBreak(relay, next, 10.5);
  EXPECT_EQ(aodv.counters().route_errors, errors);
  // The broken route is gone; the next resolve rediscovers.
  const uint64_t discoveries_before = aodv.counters().discoveries;
  ASSERT_TRUE(aodv.Resolve(QueryMsg(0, dst), 11.0, path).found);
  EXPECT_GT(aodv.counters().discoveries, discoveries_before);
}

TEST(AodvRoutingTest, UnreachableDestinationFailsAfterTheFloodDies) {
  // Two far-apart clusters: discovery floods the source's island, never
  // reaches the destination, and reports failure with the flood's airtime.
  manet::TopologyOptions options;
  options.num_nodes = 6;
  options.field_size_m = 400.0;
  options.radio_range_m = 60.0;
  std::vector<Vector> positions = {
      Vector{10.0, 10.0},  Vector{50.0, 10.0},  Vector{90.0, 10.0},
      Vector{310.0, 390.0}, Vector{350.0, 390.0}, Vector{390.0, 390.0}};
  Result<manet::ManetTopology> topology =
      manet::ManetTopology::FromPositions(options, std::move(positions));
  ASSERT_TRUE(topology.ok());
  ASSERT_FALSE(topology->connected());
  channel::MacModel::AirParams air;
  channel::LegacyStretchMac mac(&*topology, air);
  AodvRouting aodv(&*topology, &mac);
  std::vector<int> path;
  const RouteResolution res = aodv.Resolve(QueryMsg(0, 5), 0.0, path);
  EXPECT_FALSE(res.found);
  EXPECT_TRUE(res.discovered);
  EXPECT_TRUE(path.empty());
  EXPECT_GT(res.control_latency_ms, 0.0);
  EXPECT_EQ(aodv.counters().discovery_failures, 1u);
  EXPECT_EQ(aodv.counters().unreachable, 1u);
  // Same-island traffic still routes.
  EXPECT_TRUE(aodv.Resolve(QueryMsg(0, 2), 1.0, path).found);
}

TEST(CreateRoutingTest, FactorySelectsKindAndValidates) {
  manet::ManetTopology topology = RandomField(10, 5);
  channel::MacModel::AirParams air;
  channel::LegacyStretchMac mac(&topology, air);
  RoutingOptions oracle_opts;
  Result<std::unique_ptr<RoutingProtocol>> oracle =
      CreateRouting(oracle_opts, &topology, nullptr);
  ASSERT_TRUE(oracle.ok());
  EXPECT_STREQ((*oracle)->name(), "oracle");
  RoutingOptions aodv_opts;
  aodv_opts.kind = RoutingOptions::Kind::kAodv;
  EXPECT_FALSE(CreateRouting(aodv_opts, &topology, nullptr).ok());
  Result<std::unique_ptr<RoutingProtocol>> aodv =
      CreateRouting(aodv_opts, &topology, &mac);
  ASSERT_TRUE(aodv.ok());
  EXPECT_STREQ((*aodv)->name(), "aodv");
  RoutingOptions unknown;
  unknown.kind = static_cast<RoutingOptions::Kind>(7);
  EXPECT_FALSE(CreateRouting(unknown, &topology, &mac).ok());
}

}  // namespace
}  // namespace hyperm::route
