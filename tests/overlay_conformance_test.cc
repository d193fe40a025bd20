// Overlay contract conformance for CAN, the overlay every wavelet level
// publishes into. The core relies on this behavioural contract:
//
//  1. a published cluster is discoverable by every range query whose sphere
//     intersects it,
//  2. matches are deduplicated by cluster id,
//  3. RemoveByOwner erases a peer's publications everywhere, others survive,
//  4. ClearStorage empties every node but keeps the topology queryable,
//  5. malformed calls (dimension mismatch, bad origin) are rejected.

#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "can/can_overlay.h"
#include "common/rng.h"

namespace hyperm::overlay {
namespace {

constexpr size_t kDim = 2;
constexpr int kNodes = 20;

std::unique_ptr<can::CanOverlay> MakeCan(sim::NetworkStats* stats, Rng& rng) {
  return std::move(can::CanOverlay::Build(kDim, kNodes, stats, rng).value());
}

PublishedCluster RandomCluster(uint64_t id, int owner, Rng& rng) {
  PublishedCluster c;
  c.sphere.center.resize(kDim);
  for (double& x : c.sphere.center) x = rng.NextDouble();
  c.sphere.radius = rng.Uniform(0.0, 0.15);
  c.owner_peer = owner;
  c.items = 1 + static_cast<int>(id % 7);
  c.cluster_id = id;
  return c;
}

TEST(OverlayConformance, IntersectingClustersAlwaysFoundOnce) {
  sim::NetworkStats stats;
  Rng rng(101);
  auto overlay = MakeCan(&stats, rng);
  std::vector<PublishedCluster> all;
  for (uint64_t id = 1; id <= 50; ++id) {
    PublishedCluster c = RandomCluster(id, static_cast<int>(id % 8), rng);
    ASSERT_TRUE(overlay->Insert(c, 0).ok());
    all.push_back(c);
  }
  for (int trial = 0; trial < 40; ++trial) {
    geom::Sphere query;
    query.center.resize(kDim);
    for (double& x : query.center) x = rng.NextDouble();
    query.radius = rng.Uniform(0.0, 0.3);
    Result<RangeQueryResult> result = overlay->RangeQuery(query, 0);
    ASSERT_TRUE(result.ok());
    std::set<uint64_t> found;
    for (const overlay::ClusterMatch& c : result->matches) {
      EXPECT_TRUE(found.insert(c.cluster_id).second) << "duplicate " << c.cluster_id;
    }
    for (const PublishedCluster& c : all) {
      EXPECT_EQ(found.count(c.cluster_id), c.sphere.Intersects(query) ? 1u : 0u)
          << "trial " << trial << " cluster " << c.cluster_id;
    }
  }
}

TEST(OverlayConformance, RemoveByOwnerIsSurgical) {
  sim::NetworkStats stats;
  Rng rng(102);
  auto overlay = MakeCan(&stats, rng);
  for (uint64_t id = 1; id <= 20; ++id) {
    ASSERT_TRUE(overlay->Insert(RandomCluster(id, static_cast<int>(id % 2), rng), 0).ok());
  }
  EXPECT_GT(overlay->RemoveByOwner(1), 0);
  EXPECT_EQ(overlay->RemoveByOwner(1), 0);
  // A full-space query only surfaces peer 0's clusters now.
  geom::Sphere everything;
  everything.center.assign(kDim, 0.5);
  everything.radius = 2.0;
  Result<RangeQueryResult> result = overlay->RangeQuery(everything, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->matches.size(), 10u);
  for (const overlay::ClusterMatch& c : result->matches) EXPECT_EQ(c.owner_peer, 0);
}

TEST(OverlayConformance, ClearStorageKeepsTopologyUsable) {
  sim::NetworkStats stats;
  Rng rng(103);
  auto overlay = MakeCan(&stats, rng);
  ASSERT_TRUE(overlay->Insert(RandomCluster(1, 0, rng), 0).ok());
  overlay->ClearStorage();
  for (const NodeStorage& s : overlay->StorageDistribution()) {
    EXPECT_EQ(s.clusters, 0);
  }
  // Still accepts publications and answers queries.
  PublishedCluster c = RandomCluster(2, 0, rng);
  c.sphere.radius = 0.1;
  ASSERT_TRUE(overlay->Insert(c, 0).ok());
  Result<RangeQueryResult> result =
      overlay->RangeQuery(geom::Sphere{c.sphere.center, 0.05}, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->matches.size(), 1u);
}

TEST(OverlayConformance, RejectsDimensionMismatchAndBadOrigin) {
  sim::NetworkStats stats;
  Rng rng(104);
  auto overlay = MakeCan(&stats, rng);
  PublishedCluster wrong;
  wrong.sphere.center.assign(kDim + 1, 0.5);
  EXPECT_FALSE(overlay->Insert(wrong, 0).ok());
  PublishedCluster fine = RandomCluster(1, 0, rng);
  EXPECT_FALSE(overlay->Insert(fine, -1).ok());
  EXPECT_FALSE(overlay->Insert(fine, 999).ok());
  geom::Sphere query;
  query.center.assign(kDim, 0.5);
  query.radius = 0.1;
  EXPECT_FALSE(overlay->RangeQuery(query, 999).ok());
}

}  // namespace
}  // namespace hyperm::overlay
