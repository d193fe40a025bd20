// Overlay interface conformance: the same behavioural contract, executed
// against every substrate (CAN, ring, BSP tree, gossip). Hyper-M's
// overlay-agnosticism claim rests on all of them honouring it:
//
//  1. a published cluster is discoverable by every range query whose sphere
//     intersects it (with unbounded flooding where a TTL exists),
//  2. matches are deduplicated by cluster id,
//  3. RemoveByOwner erases a peer's publications everywhere, others survive,
//  4. ClearStorage empties every node but keeps the topology queryable,
//  5. traffic is recorded for the operations that send messages.

#include <functional>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "can/can_overlay.h"
#include "common/rng.h"
#include "overlay/gossip_overlay.h"
#include "overlay/ring_overlay.h"
#include "overlay/tree_overlay.h"

namespace hyperm::overlay {
namespace {

// gtest prints this parameter as raw bytes in the listed test names, so the
// leading field is a plain value: a pointer there would put a load address
// into every name and change them from build to build.
struct Substrate {
  size_t dim;  // key dimensionality the substrate is built with
  const char* name;
  std::function<std::unique_ptr<Overlay>(sim::NetworkStats*, Rng&)> build;
};

Substrate MakeCanSubstrate() {
  return {2, "can", [](sim::NetworkStats* stats, Rng& rng) -> std::unique_ptr<Overlay> {
            return std::move(can::CanOverlay::Build(2, 20, stats, rng).value());
          }};
}

Substrate MakeRingSubstrate() {
  return {1, "ring", [](sim::NetworkStats* stats, Rng& rng) -> std::unique_ptr<Overlay> {
            return std::move(RingOverlay::Build(20, stats, rng).value());
          }};
}

Substrate MakeTreeSubstrate() {
  return {2, "tree", [](sim::NetworkStats* stats, Rng& rng) -> std::unique_ptr<Overlay> {
            return std::move(TreeOverlay::Build(2, 20, stats, rng).value());
          }};
}

Substrate MakeGossipSubstrate() {
  return {2, "gossip",
          [](sim::NetworkStats* stats, Rng& rng) -> std::unique_ptr<Overlay> {
            return std::move(
                GossipOverlay::Build(2, 20, 4, /*ttl=*/-1, stats, rng).value());
          }};
}

class OverlayConformance : public ::testing::TestWithParam<Substrate> {
 protected:
  PublishedCluster RandomCluster(uint64_t id, int owner, Rng& rng, size_t dim) {
    PublishedCluster c;
    c.sphere.center.resize(dim);
    for (double& x : c.sphere.center) x = rng.NextDouble();
    c.sphere.radius = rng.Uniform(0.0, 0.15);
    c.owner_peer = owner;
    c.items = 1 + static_cast<int>(id % 7);
    c.cluster_id = id;
    return c;
  }
};

TEST_P(OverlayConformance, IntersectingClustersAlwaysFoundOnce) {
  const Substrate& substrate = GetParam();
  sim::NetworkStats stats;
  Rng rng(101);
  auto overlay = substrate.build(&stats, rng);
  std::vector<PublishedCluster> all;
  for (uint64_t id = 1; id <= 50; ++id) {
    PublishedCluster c = RandomCluster(id, static_cast<int>(id % 8), rng, substrate.dim);
    ASSERT_TRUE(overlay->Insert(c, 0).ok());
    all.push_back(c);
  }
  for (int trial = 0; trial < 40; ++trial) {
    geom::Sphere query;
    query.center.resize(substrate.dim);
    for (double& x : query.center) x = rng.NextDouble();
    query.radius = rng.Uniform(0.0, 0.3);
    Result<RangeQueryResult> result = overlay->RangeQuery(query, 0);
    ASSERT_TRUE(result.ok()) << substrate.name;
    std::set<uint64_t> found;
    for (const PublishedCluster& c : result->matches) {
      EXPECT_TRUE(found.insert(c.cluster_id).second)
          << substrate.name << ": duplicate " << c.cluster_id;
    }
    for (const PublishedCluster& c : all) {
      EXPECT_EQ(found.count(c.cluster_id), c.sphere.Intersects(query) ? 1u : 0u)
          << substrate.name << " trial " << trial << " cluster " << c.cluster_id;
    }
  }
}

TEST_P(OverlayConformance, RemoveByOwnerIsSurgical) {
  const Substrate& substrate = GetParam();
  sim::NetworkStats stats;
  Rng rng(102);
  auto overlay = substrate.build(&stats, rng);
  for (uint64_t id = 1; id <= 20; ++id) {
    ASSERT_TRUE(
        overlay->Insert(RandomCluster(id, static_cast<int>(id % 2), rng, substrate.dim), 0)
            .ok());
  }
  EXPECT_GT(overlay->RemoveByOwner(1), 0) << substrate.name;
  EXPECT_EQ(overlay->RemoveByOwner(1), 0) << substrate.name;
  // A full-space query only surfaces peer 0's clusters now.
  geom::Sphere everything;
  everything.center.assign(substrate.dim, 0.5);
  everything.radius = 2.0;
  Result<RangeQueryResult> result = overlay->RangeQuery(everything, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->matches.size(), 10u) << substrate.name;
  for (const PublishedCluster& c : result->matches) EXPECT_EQ(c.owner_peer, 0);
}

TEST_P(OverlayConformance, ClearStorageKeepsTopologyUsable) {
  const Substrate& substrate = GetParam();
  sim::NetworkStats stats;
  Rng rng(103);
  auto overlay = substrate.build(&stats, rng);
  ASSERT_TRUE(overlay->Insert(RandomCluster(1, 0, rng, substrate.dim), 0).ok());
  overlay->ClearStorage();
  for (const NodeStorage& s : overlay->StorageDistribution()) {
    EXPECT_EQ(s.clusters, 0) << substrate.name;
  }
  // Still accepts publications and answers queries.
  PublishedCluster c = RandomCluster(2, 0, rng, substrate.dim);
  c.sphere.radius = 0.1;
  ASSERT_TRUE(overlay->Insert(c, 0).ok());
  Result<RangeQueryResult> result =
      overlay->RangeQuery(geom::Sphere{c.sphere.center, 0.05}, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->matches.size(), 1u) << substrate.name;
}

TEST_P(OverlayConformance, RejectsDimensionMismatchAndBadOrigin) {
  const Substrate& substrate = GetParam();
  sim::NetworkStats stats;
  Rng rng(104);
  auto overlay = substrate.build(&stats, rng);
  PublishedCluster wrong;
  wrong.sphere.center.assign(substrate.dim + 1, 0.5);
  EXPECT_FALSE(overlay->Insert(wrong, 0).ok()) << substrate.name;
  PublishedCluster fine = RandomCluster(1, 0, rng, substrate.dim);
  EXPECT_FALSE(overlay->Insert(fine, -1).ok()) << substrate.name;
  EXPECT_FALSE(overlay->Insert(fine, 999).ok()) << substrate.name;
  geom::Sphere query;
  query.center.assign(substrate.dim, 0.5);
  query.radius = 0.1;
  EXPECT_FALSE(overlay->RangeQuery(query, 999).ok()) << substrate.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllSubstrates, OverlayConformance,
    ::testing::Values(MakeCanSubstrate(), MakeRingSubstrate(), MakeTreeSubstrate(),
                      MakeGossipSubstrate()),
    [](const ::testing::TestParamInfo<Substrate>& info) { return info.param.name; });

}  // namespace
}  // namespace hyperm::overlay
