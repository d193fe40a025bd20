#include "hyperm/score.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "vec/vector.h"

namespace hyperm::core {
namespace {

// Eq. 1 fraction of a cluster sphere by `query`, through the record-based
// function: the distance is what an overlay flood would measure.
double Coverage(int dim, const Vector& center, double radius,
                const geom::Sphere& query) {
  return ClusterCoverageFraction(dim, radius, query.radius,
                                 vec::Distance(center, query.center));
}

// A match record of a cluster of `radius` and `items` owned by `peer`, its
// centroid `distance` from the query center.
overlay::ClusterMatch Match(double distance, double radius, int peer, int items,
                            uint64_t id = 1) {
  return overlay::ClusterMatch{id, peer, items, radius, distance};
}

TEST(CoverageFractionTest, FullContainmentIsOne) {
  const geom::Sphere query{{0.5, 0.5}, 1.0};
  EXPECT_EQ(Coverage(2, {0.5, 0.5}, 0.1, query), 1.0);
}

TEST(CoverageFractionTest, DisjointIsZero) {
  const geom::Sphere query{{1.0, 0.0}, 0.2};
  EXPECT_EQ(Coverage(2, {0.0, 0.0}, 0.1, query), 0.0);
}

TEST(CoverageFractionTest, PointClusterStepFunction) {
  EXPECT_EQ(Coverage(1, {0.3}, 0.0, geom::Sphere{{0.35}, 0.1}), 1.0);
  EXPECT_EQ(Coverage(1, {0.3}, 0.0, geom::Sphere{{0.5}, 0.1}), 0.0);
}

TEST(CoverageFractionTest, PointQueryDegradesToContainment) {
  // A zero-radius query has zero intersection volume, but clusters that
  // contain the point must stay candidates (point-query support).
  const Vector c{0.0, 0.0};
  EXPECT_EQ(Coverage(2, c, 0.5, geom::Sphere{{0.3, 0.0}, 0.0}), 1.0);
  EXPECT_EQ(Coverage(2, c, 0.5, geom::Sphere{{0.6, 0.0}, 0.0}), 0.0);
  // Boundary point counts as covered.
  EXPECT_EQ(Coverage(2, c, 0.5, geom::Sphere{{0.5, 0.0}, 0.0}), 1.0);
}

TEST(LevelScoresTest, SumsFractionTimesItems) {
  // Query: center 0, radius 0.1.
  LevelMatches level{1, 0.1,
                     {
                         Match(0.0, 0.0, 7, 20, 1),   // fully inside -> +20
                         Match(0.05, 0.0, 7, 10, 2),  // fully inside -> +10
                         Match(5.0, 0.0, 8, 99, 3),   // outside -> no entry
                     }};
  auto scores = ComputeLevelScores(level);
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_NEAR(scores[7], 30.0, 1e-12);
}

TEST(LevelScoresTest, PartialOverlapScoresFraction) {
  // 1-D cluster [0,2] (center 1, r 1), query [1.5, 2.5]: overlap [1.5,2] is a
  // quarter of the cluster's extent.
  LevelMatches level{1, 0.5, {Match(1.0, 1.0, 4, 100)}};
  auto scores = ComputeLevelScores(level);
  EXPECT_NEAR(scores[4], 25.0, 1e-9);
}

TEST(AggregateTest, MinTakesWorstLevel) {
  std::vector<std::unordered_map<int, double>> levels{
      {{1, 10.0}, {2, 5.0}},
      {{1, 4.0}, {2, 8.0}},
  };
  const auto scores = AggregateScores(levels, ScorePolicy::kMin);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_EQ(scores[0].peer, 2);
  EXPECT_DOUBLE_EQ(scores[0].score, 5.0);
  EXPECT_EQ(scores[1].peer, 1);
  EXPECT_DOUBLE_EQ(scores[1].score, 4.0);
}

TEST(AggregateTest, MinPrunesPeersMissingFromAnyLevel) {
  std::vector<std::unordered_map<int, double>> levels{
      {{1, 10.0}, {2, 5.0}},
      {{1, 4.0}},  // peer 2 absent here
  };
  const auto scores = AggregateScores(levels, ScorePolicy::kMin);
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_EQ(scores[0].peer, 1);
}

TEST(AggregateTest, SumKeepsPartialPeers) {
  std::vector<std::unordered_map<int, double>> levels{
      {{1, 10.0}, {2, 5.0}},
      {{1, 4.0}},
  };
  const auto scores = AggregateScores(levels, ScorePolicy::kSum);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_EQ(scores[0].peer, 1);
  EXPECT_DOUBLE_EQ(scores[0].score, 14.0);
  EXPECT_EQ(scores[1].peer, 2);
  EXPECT_DOUBLE_EQ(scores[1].score, 5.0);
}

TEST(AggregateTest, ProductMultiplies) {
  std::vector<std::unordered_map<int, double>> levels{
      {{1, 2.0}},
      {{1, 3.0}},
  };
  const auto scores = AggregateScores(levels, ScorePolicy::kProduct);
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_DOUBLE_EQ(scores[0].score, 6.0);
}

TEST(AggregateTest, SortedDescendingWithDeterministicTies) {
  std::vector<std::unordered_map<int, double>> levels{
      {{3, 5.0}, {1, 5.0}, {2, 9.0}},
  };
  const auto scores = AggregateScores(levels, ScorePolicy::kMin);
  ASSERT_EQ(scores.size(), 3u);
  EXPECT_EQ(scores[0].peer, 2);
  EXPECT_EQ(scores[1].peer, 1);  // tie broken by id
  EXPECT_EQ(scores[2].peer, 3);
}

TEST(AggregateTest, EmptyLevelsYieldNothing) {
  EXPECT_TRUE(AggregateScores({}, ScorePolicy::kMin).empty());
  std::vector<std::unordered_map<int, double>> levels{{}, {}};
  EXPECT_TRUE(AggregateScores(levels, ScorePolicy::kMin).empty());
}

// The reference ScoreLevels must equal: Eq. 1 on every record of every
// level, then AggregateScores.
std::vector<PeerScore> ScoreEveryRecord(const std::vector<LevelMatches>& levels,
                                        ScorePolicy policy) {
  std::vector<std::unordered_map<int, double>> level_scores;
  for (const LevelMatches& level : levels) {
    level_scores.push_back(ComputeLevelScores(level));
  }
  return AggregateScores(level_scores, policy);
}

std::vector<const LevelMatches*> Pointers(const std::vector<LevelMatches>& levels) {
  std::vector<const LevelMatches*> out;
  for (const LevelMatches& level : levels) out.push_back(&level);
  return out;
}

void ExpectSameBits(const std::vector<PeerScore>& got,
                    const std::vector<PeerScore>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].peer, want[i].peer) << "rank " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].score),
              std::bit_cast<uint64_t>(want[i].score))
        << "rank " << i << ": " << got[i].score << " vs " << want[i].score;
  }
}

constexpr ScorePolicy kPolicies[] = {ScorePolicy::kMin, ScorePolicy::kSum,
                                     ScorePolicy::kProduct};

// A random level over peers 0..7 that mixes point clusters, ε = 0, tangent
// records (distance == radius + ε), thin lenses just inside the reach (whose
// fraction underflows to 0 at high dim) and records beyond it.
LevelMatches RandomLevel(int dim, Rng& rng, uint64_t* next_id) {
  LevelMatches level;
  level.dim = dim;
  level.query_radius = rng.Bernoulli(0.15) ? 0.0 : rng.Uniform(0.01, 0.4);
  const int64_t records = rng.UniformInt(0, 30);
  for (int64_t r = 0; r < records; ++r) {
    const double radius = rng.Bernoulli(0.2) ? 0.0 : rng.Uniform(0.01, 0.3);
    const double reach = radius + level.query_radius;
    const double u = rng.NextDouble();
    double distance = rng.Uniform(0.0, reach + 0.2);
    if (u < 0.15) {
      distance = reach;
    } else if (u < 0.3) {
      distance = reach * (1.0 - 1e-4);
    }
    level.matches.push_back(Match(distance, radius,
                                  static_cast<int>(rng.UniformInt(0, 7)),
                                  static_cast<int>(rng.UniformInt(0, 20)),
                                  (*next_id)++));
  }
  return level;
}

TEST(ScoreLevelsTest, SurvivorOnlyScoringIsExact) {
  Rng rng(2801);
  uint64_t next_id = 1;
  int min_empty = 0;
  int min_nonempty = 0;
  int min_skipped = 0;
  int fallback_nonempty = 0;
  int underflowed_lenses = 0;
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE(trial);
    std::vector<int> dims{1, 1, 2, 4};
    if (trial % 2 == 1) dims.push_back(256);
    std::vector<LevelMatches> levels;
    int64_t records = 0;
    for (int dim : dims) {
      levels.push_back(RandomLevel(dim, rng, &next_id));
      records += static_cast<int64_t>(levels.back().matches.size());
      for (const overlay::ClusterMatch& m : levels.back().matches) {
        const double eps = levels.back().query_radius;
        if (m.distance < m.radius + eps &&
            ClusterCoverageFraction(dim, m.radius, eps, m.distance) == 0.0) {
          ++underflowed_lenses;
        }
      }
    }
    for (ScorePolicy policy : kPolicies) {
      int64_t evaluations = 0;
      const std::vector<PeerScore> got =
          ScoreLevels(Pointers(levels), policy, &evaluations);
      ExpectSameBits(got, ScoreEveryRecord(levels, policy));
      if (policy == ScorePolicy::kSum) {
        EXPECT_EQ(evaluations, records);
      } else {
        EXPECT_LE(evaluations, records);
      }
      if (policy != ScorePolicy::kMin) continue;
      if (evaluations < records) ++min_skipped;
      if (!got.empty()) {
        ++min_nonempty;
        continue;
      }
      // k-NN's fallback when min leaves nothing: kSum over every record.
      ++min_empty;
      const std::vector<PeerScore> fallback =
          ScoreLevels(Pointers(levels), ScorePolicy::kSum);
      ExpectSameBits(fallback, ScoreEveryRecord(levels, ScorePolicy::kSum));
      if (!fallback.empty()) ++fallback_nonempty;
    }
  }
  // The draw must exercise every path the equality covers.
  EXPECT_GT(min_empty, 0);
  EXPECT_GT(min_nonempty, 0);
  EXPECT_GT(min_skipped, 0);
  EXPECT_GT(fallback_nonempty, 0);
  EXPECT_GT(underflowed_lenses, 0);
}

TEST(ScoreLevelsTest, TangentRecordsKeepTheirPeer) {
  // Peer 1's only record at level 1 is a point cluster exactly ε away
  // (fraction 1), and at level 2 a point query sits exactly on its
  // cluster's surface (ε = 0, fraction 1): both have distance == radius + ε.
  const std::vector<LevelMatches> levels{
      {2, 0.25, {Match(0.1, 0.2, 1, 4), Match(0.1, 0.2, 2, 4)}},
      {2, 0.25, {Match(0.25, 0.0, 1, 3), Match(0.3, 0.0, 2, 3)}},
      {2, 0.0, {Match(0.3, 0.3, 1, 5), Match(0.1, 0.3, 2, 5)}},
  };
  for (ScorePolicy policy : {ScorePolicy::kMin, ScorePolicy::kProduct}) {
    const std::vector<PeerScore> got = ScoreLevels(Pointers(levels), policy);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].peer, 1);
    ExpectSameBits(got, ScoreEveryRecord(levels, policy));
  }
}

TEST(ScoreLevelsTest, UnderflowedLensDropsItsPeer) {
  // At d = 256 a lens just inside the reach covers a fraction that
  // underflows to 0: the peer passes the reach test but scores 0 there.
  const double reach = 0.2 + 0.2;
  const std::vector<LevelMatches> levels{
      {1, 0.2, {Match(0.0, 0.1, 1, 4), Match(0.0, 0.1, 2, 4)}},
      {256, 0.2, {Match(0.0, 0.2, 1, 3), Match(reach * (1.0 - 1e-4), 0.2, 2, 3)}},
  };
  ASSERT_EQ(ClusterCoverageFraction(256, 0.2, 0.2, reach * (1.0 - 1e-4)), 0.0);
  int64_t evaluations = 0;
  const std::vector<PeerScore> got =
      ScoreLevels(Pointers(levels), ScorePolicy::kMin, &evaluations);
  EXPECT_EQ(evaluations, 4);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].peer, 1);
  ExpectSameBits(got, ScoreEveryRecord(levels, ScorePolicy::kMin));
}

TEST(ScoreLevelsTest, OneUlpLensKeepsItsPeer) {
  // Peer 1's only level-1 record lies one ulp inside radius + ε: it passes
  // the survivor condition, and at d = 2 its lens covers a positive
  // fraction, so min aggregation keeps the peer.
  const double radius = 1.5734933551865778e-05;
  const double eps = 0.36083605772703226;
  const double distance = 0.36085179266058409;
  ASSERT_LT(distance, radius + eps);
  ASSERT_EQ(std::nextafter(distance, 1.0), radius + eps);
  const std::vector<LevelMatches> levels{
      {1, 0.1, {Match(0.0, 0.1, 1, 4), Match(0.0, 0.1, 2, 4)}},
      {2, eps, {Match(distance, radius, 1, 3), Match(0.0, 0.1, 2, 3)}},
  };
  EXPECT_GT(ClusterCoverageFraction(2, radius, eps, distance), 0.0);
  const std::vector<PeerScore> got = ScoreLevels(Pointers(levels), ScorePolicy::kMin);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(got[0].peer == 1 || got[1].peer == 1);
  ExpectSameBits(got, ScoreEveryRecord(levels, ScorePolicy::kMin));
}

TEST(ScoreLevelsTest, SkipsPeersMissingAnyReach) {
  // Peer 2 has no record within reach at level 1, so min aggregation would
  // drop it: its level-0 record is never evaluated.
  const std::vector<LevelMatches> levels{
      {1, 0.1, {Match(0.0, 0.1, 1, 4), Match(0.0, 0.1, 2, 4)}},
      {1, 0.1, {Match(0.0, 0.1, 1, 3), Match(0.5, 0.1, 2, 3)}},
  };
  int64_t evaluations = 0;
  const std::vector<PeerScore> got =
      ScoreLevels(Pointers(levels), ScorePolicy::kMin, &evaluations);
  EXPECT_EQ(evaluations, 2);
  ExpectSameBits(got, ScoreEveryRecord(levels, ScorePolicy::kMin));
  evaluations = 0;
  ScoreLevels(Pointers(levels), ScorePolicy::kSum, &evaluations);
  EXPECT_EQ(evaluations, 4);
}

}  // namespace
}  // namespace hyperm::core
