#include "manet/topology.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

namespace hyperm::manet {
namespace {

TopologyOptions DenseOptions(int nodes = 40) {
  TopologyOptions options;
  options.num_nodes = nodes;
  options.field_size_m = 150.0;
  options.radio_range_m = 50.0;
  return options;
}

TEST(ManetTopologyTest, RejectsBadOptions) {
  Rng rng(1);
  TopologyOptions bad = DenseOptions();
  bad.num_nodes = 0;
  EXPECT_FALSE(ManetTopology::Generate(bad, rng).ok());
  bad = DenseOptions();
  bad.radio_range_m = 0.0;
  EXPECT_FALSE(ManetTopology::Generate(bad, rng).ok());
}

TEST(ManetTopologyTest, FailsWhenRangeTooSmall) {
  Rng rng(2);
  TopologyOptions sparse;
  sparse.num_nodes = 30;
  sparse.field_size_m = 10000.0;
  sparse.radio_range_m = 5.0;  // essentially no links
  sparse.max_placement_attempts = 5;
  Result<ManetTopology> t = ManetTopology::Generate(sparse, rng);
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ManetTopologyTest, GeneratedGraphIsConnectedAndInField) {
  Rng rng(3);
  Result<ManetTopology> t = ManetTopology::Generate(DenseOptions(), rng);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_TRUE(t->connected());
  EXPECT_EQ(t->num_nodes(), 40);
  for (int i = 0; i < t->num_nodes(); ++i) {
    const Vector& p = t->position(i);
    EXPECT_GE(p[0], 0.0);
    EXPECT_LE(p[0], 150.0);
    EXPECT_GE(p[1], 0.0);
    EXPECT_LE(p[1], 150.0);
  }
}

TEST(ManetTopologyTest, NeighborsAreWithinRangeAndSymmetric) {
  Rng rng(4);
  Result<ManetTopology> t = ManetTopology::Generate(DenseOptions(), rng);
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < t->num_nodes(); ++i) {
    for (int j : t->neighbors(i)) {
      EXPECT_LE(vec::Distance(t->position(i), t->position(j)), 50.0 + 1e-9);
      const auto& back = t->neighbors(j);
      EXPECT_NE(std::find(back.begin(), back.end(), i), back.end());
    }
  }
}

TEST(ManetTopologyTest, PathHopsBasics) {
  Rng rng(5);
  Result<ManetTopology> t = ManetTopology::Generate(DenseOptions(), rng);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->PathHops(0, 0), 0);
  // Adjacent nodes are one hop apart.
  const int neighbor = t->neighbors(0).front();
  EXPECT_EQ(t->PathHops(0, neighbor), 1);
  // Triangle inequality on hop counts.
  for (int j = 1; j < 10; ++j) {
    for (int k = 1; k < 10; ++k) {
      EXPECT_LE(t->PathHops(0, k), t->PathHops(0, j) + t->PathHops(j, k));
    }
  }
  // Symmetry.
  EXPECT_EQ(t->PathHops(3, 7), t->PathHops(7, 3));
}

TEST(ManetTopologyTest, MeanPairwiseHopsIsAtLeastOne) {
  Rng rng(6);
  Result<ManetTopology> t = ManetTopology::Generate(DenseOptions(), rng);
  ASSERT_TRUE(t.ok());
  EXPECT_GE(t->MeanPairwiseHops(), 1.0);
  // A 150 m field with 50 m range cannot need more than ~6 hops on average.
  EXPECT_LT(t->MeanPairwiseHops(), 8.0);
}

TEST(ManetTopologyTest, SingleNodeDegenerate) {
  Rng rng(8);
  TopologyOptions one = DenseOptions(1);
  Result<ManetTopology> t = ManetTopology::Generate(one, rng);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->connected());
  EXPECT_EQ(t->MeanPairwiseHops(), 0.0);
}

TEST(ManetTopologyTest, RandomWaypointStepMovesNodesBounded) {
  Rng rng(9);
  Result<ManetTopology> t = ManetTopology::Generate(DenseOptions(), rng);
  ASSERT_TRUE(t.ok());
  std::vector<Vector> before;
  for (int i = 0; i < t->num_nodes(); ++i) before.push_back(t->position(i));
  t->RandomWaypointStep(3.0, rng);
  int moved = 0;
  for (int i = 0; i < t->num_nodes(); ++i) {
    const double d = vec::Distance(before[static_cast<size_t>(i)], t->position(i));
    EXPECT_LE(d, 3.0 + 1e-9);
    if (d > 0.0) ++moved;
  }
  EXPECT_GT(moved, 0);
}

TEST(ManetTopologyTest, MobilityKeepsPositionsInBoundsOverTime) {
  Rng rng(10);
  Result<ManetTopology> t = ManetTopology::Generate(DenseOptions(), rng);
  ASSERT_TRUE(t.ok());
  for (int step = 0; step < 100; ++step) t->RandomWaypointStep(5.0, rng);
  for (int i = 0; i < t->num_nodes(); ++i) {
    const Vector& p = t->position(i);
    EXPECT_GE(p[0], -1e-9);
    EXPECT_LE(p[0], 150.0 + 1e-9);
    EXPECT_GE(p[1], -1e-9);
    EXPECT_LE(p[1], 150.0 + 1e-9);
  }
}

// Two tight clusters far outside radio range of each other: a deterministic
// disconnected layout (impossible via Generate, which demands connectivity).
Result<ManetTopology> TwoIslands() {
  TopologyOptions options;
  options.field_size_m = 1000.0;
  options.radio_range_m = 50.0;
  return ManetTopology::FromPositions(
      options, {{10.0, 10.0}, {40.0, 10.0}, {70.0, 10.0},     // island A: 0-1-2
                {910.0, 910.0}, {940.0, 910.0}});             // island B: 3-4
}

TEST(ManetTopologyTest, FromPositionsValidatesInput) {
  TopologyOptions options;
  options.field_size_m = 100.0;
  options.radio_range_m = 30.0;
  EXPECT_FALSE(ManetTopology::FromPositions(options, {}).ok());
  EXPECT_FALSE(ManetTopology::FromPositions(options, {{1.0, 2.0, 3.0}}).ok());
  EXPECT_FALSE(ManetTopology::FromPositions(options, {{50.0, 150.0}}).ok());
  EXPECT_FALSE(ManetTopology::FromPositions(options, {{-1.0, 50.0}}).ok());
  Result<ManetTopology> ok = ManetTopology::FromPositions(options, {{50.0, 50.0}});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->num_nodes(), 1);
}

// Satellite regression: PathHops on a split graph used to Fatal; it must now
// report the kUnreachableHops sentinel and leave every aggregate finite.
TEST(ManetTopologyTest, PathHopsReportsUnreachableAcrossIslands) {
  Result<ManetTopology> t = TwoIslands();
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_FALSE(t->connected());
  EXPECT_EQ(t->PathHops(0, 2), 2);                  // within island A
  EXPECT_EQ(t->PathHops(3, 4), 1);                  // within island B
  EXPECT_EQ(t->PathHops(0, 3), kUnreachableHops);   // across islands
  EXPECT_EQ(t->PathHops(4, 2), kUnreachableHops);
  EXPECT_TRUE(t->ShortestPath(0, 4).empty());
  // Mean pairwise hops averages reachable pairs only: A contributes
  // (1+1+2)*2 hops over 6 ordered pairs, B contributes 2 over 2.
  EXPECT_DOUBLE_EQ(t->MeanPairwiseHops(), 10.0 / 8.0);
}

TEST(ManetTopologyTest, ShortestPathEndpointsHopsAndAdjacency) {
  Rng rng(12);
  Result<ManetTopology> t = ManetTopology::Generate(DenseOptions(), rng);
  ASSERT_TRUE(t.ok());
  for (int to = 1; to < 12; ++to) {
    const std::vector<int> path = t->ShortestPath(0, to);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), 0);
    EXPECT_EQ(path.back(), to);
    EXPECT_EQ(static_cast<int>(path.size()), t->PathHops(0, to) + 1);
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      const auto& nbrs = t->neighbors(path[i]);
      EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), path[i + 1]), nbrs.end());
    }
  }
  EXPECT_EQ(t->ShortestPath(5, 5), std::vector<int>{5});
}

TEST(ManetTopologyTest, MobilityCanSplitAndStillReportsFinitely) {
  Result<ManetTopology> t = TwoIslands();
  ASSERT_TRUE(t.ok());
  // Mobility over a split graph keeps working: nodes drift toward fresh
  // waypoints and every metric stays finite whether or not the graph heals.
  Rng rng(13);
  for (int step = 0; step < 50; ++step) {
    t->RandomWaypointStep(25.0, rng);
    const double mean = t->MeanPairwiseHops();
    EXPECT_GE(mean, 0.0);
    EXPECT_LT(mean, 1000.0);
  }
}

TEST(ManetTopologyTest, DeterministicGivenSeed) {
  Result<ManetTopology> a = [&] {
    Rng rng(11);
    return ManetTopology::Generate(DenseOptions(), rng);
  }();
  Result<ManetTopology> b = [&] {
    Rng rng(11);
    return ManetTopology::Generate(DenseOptions(), rng);
  }();
  ASSERT_TRUE(a.ok() && b.ok());
  for (int i = 0; i < a->num_nodes(); ++i) {
    EXPECT_EQ(a->position(i), b->position(i));
  }
}

}  // namespace
}  // namespace hyperm::manet
