// The bounded k-means kernel (options.pruned) must be bit-identical to the
// naive full-scan reference on every input — seeding skips, group and
// half-gap bounds and clean-cluster sums may only skip work whose outcome is
// provably unchanged, and any near-tie must fall through to the exact scan
// with the reference tie-breaking.

#include "cluster/kmeans.h"

#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/markov_generator.h"
#include "data/peer_assignment.h"

namespace hyperm::cluster {
namespace {

KMeansResult RunKMeans(const std::vector<Vector>& points, KMeansOptions options,
                 bool pruned, uint64_t seed) {
  options.pruned = pruned;
  Rng rng(seed);
  Result<KMeansResult> r = KMeans(points, options, rng);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

// Exact (bitwise, via ==) equality of every output field.
void ExpectIdentical(const KMeansResult& a, const KMeansResult& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.reseeds, b.reseeds);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(a.inertia, b.inertia);
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (size_t c = 0; c < a.clusters.size(); ++c) {
    EXPECT_EQ(a.clusters[c].centroid, b.clusters[c].centroid) << "cluster " << c;
    EXPECT_EQ(a.clusters[c].radius, b.clusters[c].radius) << "cluster " << c;
    EXPECT_EQ(a.clusters[c].count, b.clusters[c].count) << "cluster " << c;
  }
}

void ExpectKernelsAgree(const std::vector<Vector>& points, KMeansOptions options,
                        uint64_t seed) {
  ExpectIdentical(RunKMeans(points, options, /*pruned=*/true, seed),
                  RunKMeans(points, options, /*pruned=*/false, seed));
}

std::vector<Vector> RandomBlobs(int num_blobs, int per_blob, int dim, double spread,
                                Rng& rng) {
  std::vector<Vector> points;
  for (int b = 0; b < num_blobs; ++b) {
    Vector center(static_cast<size_t>(dim));
    for (double& x : center) x = rng.Uniform(-5.0, 5.0);
    for (int i = 0; i < per_blob; ++i) {
      Vector p(center);
      for (double& x : p) x += rng.Gaussian(0.0, spread);
      points.push_back(std::move(p));
    }
  }
  return points;
}

TEST(KMeansPrunedTest, MatchesNaiveOnRandomBlobs) {
  Rng data_rng(11);
  for (int dim : {2, 8, 64}) {
    for (int k : {1, 4, 16}) {
      const std::vector<Vector> points = RandomBlobs(4, 60, dim, 0.4, data_rng);
      KMeansOptions options;
      options.k = k;
      ExpectKernelsAgree(points, options, 100 + static_cast<uint64_t>(dim * k));
    }
  }
}

TEST(KMeansPrunedTest, MatchesNaiveOnOverlappingBlobs) {
  // Heavy overlap produces many near-ties, the regime where sloppy bound
  // maintenance would first diverge from the exact scan.
  Rng data_rng(23);
  const std::vector<Vector> points = RandomBlobs(6, 80, 8, 3.0, data_rng);
  KMeansOptions options;
  options.k = 6;
  ExpectKernelsAgree(points, options, 7);
}

TEST(KMeansPrunedTest, MatchesNaiveOnAllDuplicatePoints) {
  const std::vector<Vector> points(20, Vector{1.5, -2.5, 3.5});
  KMeansOptions options;
  options.k = 5;
  ExpectKernelsAgree(points, options, 42);
}

TEST(KMeansPrunedTest, MatchesNaiveWhenKExceedsDistinctPoints) {
  // 3 distinct values, k = 8: forces the empty-cluster reseed path, which in
  // the pruned kernel requires an exact best_sq refresh before the farthest
  // pick.
  std::vector<Vector> points;
  for (int i = 0; i < 12; ++i) {
    points.push_back({static_cast<double>(i % 3), 0.0});
  }
  KMeansOptions options;
  options.k = 8;
  ExpectKernelsAgree(points, options, 9);
}

TEST(KMeansPrunedTest, MatchesNaiveOnTiedGridPoints) {
  // Unit lattice: many points exactly equidistant from competing centroids,
  // so tie-breaks (lowest index wins) must match everywhere.
  std::vector<Vector> points;
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      points.push_back({static_cast<double>(x), static_cast<double>(y)});
    }
  }
  KMeansOptions options;
  options.k = 4;
  ExpectKernelsAgree(points, options, 3);
  options.k = 9;
  ExpectKernelsAgree(points, options, 4);
}

TEST(KMeansPrunedTest, MatchesNaiveWithZeroToleranceChurn) {
  // tolerance = 0 runs the full iteration budget; bounds drift accumulates
  // over many updates and must still never flip a decision.
  Rng data_rng(31);
  const std::vector<Vector> points = RandomBlobs(5, 50, 16, 2.0, data_rng);
  KMeansOptions options;
  options.k = 10;
  options.tolerance = 0.0;
  options.max_iterations = 100;
  ExpectKernelsAgree(points, options, 17);
}

TEST(KMeansPrunedTest, MatchesNaiveWithUniformSeeding) {
  Rng data_rng(37);
  const std::vector<Vector> points = RandomBlobs(4, 40, 8, 1.0, data_rng);
  KMeansOptions options;
  options.k = 6;
  options.plus_plus_seeding = false;
  ExpectKernelsAgree(points, options, 5);
}

TEST(KMeansPrunedTest, PrunedIsDeterministicAcrossRuns) {
  Rng data_rng(41);
  const std::vector<Vector> points = RandomBlobs(3, 70, 32, 0.8, data_rng);
  KMeansOptions options;
  options.k = 8;
  ExpectIdentical(RunKMeans(points, options, /*pruned=*/true, 55),
                  RunKMeans(points, options, /*pruned=*/true, 55));
}

std::vector<Vector> Markov(int count, int dim, uint64_t seed) {
  Rng rng(seed);
  data::MarkovOptions options;
  options.count = count;
  options.dim = dim;
  options.num_families = 8;
  Result<data::Dataset> dataset = data::GenerateMarkov(options, rng);
  EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
  return std::move(dataset).value().items;
}

// Scaled-down versions of the two interest k-means that data::AssignByInterest
// runs in perfbench: publish_1k (20,000 x 64-d, k = 64) and query_paper
// (5,000 x 512-d, k = 8). Both use many groups of lower bounds, the seeding
// skip and the half gaps.
TEST(KMeansPrunedTest, MatchesNaiveOnMarkovAtThePublishShape) {
  const std::vector<Vector> points = Markov(4000, 64, 71);
  KMeansOptions options;
  options.k = 64;
  ExpectKernelsAgree(points, options, 1);
  ExpectKernelsAgree(points, options, 2);
}

TEST(KMeansPrunedTest, MatchesNaiveOnMarkovAtTheQueryShape) {
  const std::vector<Vector> points = Markov(1000, 512, 72);
  KMeansOptions options;
  options.k = 8;
  ExpectKernelsAgree(points, options, 3);
}

TEST(KMeansPrunedTest, MatchesNaiveWithOneAndTwoCentroids) {
  // k = 1 has no second centroid: every half gap and group bound is +inf.
  const std::vector<Vector> points = Markov(600, 128, 73);
  for (int k : {1, 2}) {
    KMeansOptions options;
    options.k = k;
    ExpectKernelsAgree(points, options, 10 + static_cast<uint64_t>(k));
    options.plus_plus_seeding = false;
    ExpectKernelsAgree(points, options, 20 + static_cast<uint64_t>(k));
  }
}

TEST(KMeansPrunedTest, MatchesNaiveWhenAllCentroidsCoincide) {
  // Identical points make every seed (and every later centroid) the same
  // point: all inter-centroid gaps are zero, every distance ties, and all but
  // one cluster is empty and reseeded. Enough points and dimensions that the
  // gap tests run.
  Vector point(16);
  for (size_t j = 0; j < point.size(); ++j) point[j] = 0.25 * static_cast<double>(j) - 1.0;
  const std::vector<Vector> points(200, point);
  for (bool plus_plus : {true, false}) {
    KMeansOptions options;
    options.k = 8;
    options.plus_plus_seeding = plus_plus;
    ExpectKernelsAgree(points, options, 31);
  }
}

TEST(KMeansPrunedTest, MatchesNaiveWhenAClusterEmptiesPartway) {
  // Three tight blobs, four outliers, k = 12 and uniform seeding: at these
  // seeds the first assignment leaves every cluster populated and a later
  // one empties one, so the reseed (and its in-place patch of the donor's
  // sum) lands in the middle of the bounded iterations.
  for (uint64_t seed : {8, 69, 149}) {
    Rng data_rng(seed);
    std::vector<Vector> points;
    for (int b = 0; b < 3; ++b) {
      const double cx = data_rng.Uniform(-5.0, 5.0);
      const double cy = data_rng.Uniform(-5.0, 5.0);
      for (int i = 0; i < 30; ++i) {
        points.push_back(
            {cx + data_rng.Gaussian(0.0, 0.3), cy + data_rng.Gaussian(0.0, 0.3)});
      }
    }
    for (int i = 0; i < 4; ++i) {
      points.push_back({data_rng.Uniform(-20.0, 20.0), data_rng.Uniform(-20.0, 20.0)});
    }
    KMeansOptions options;
    options.k = 12;
    options.plus_plus_seeding = false;
    ExpectKernelsAgree(points, options, seed);
    // The data really exercises a reseed after the first iteration.
    auto reseeds = [&](int max_iterations) {
      KMeansOptions capped = options;
      capped.max_iterations = max_iterations;
      return RunKMeans(points, capped, /*pruned=*/true, seed).reseeds;
    };
    EXPECT_EQ(reseeds(1), 0) << "seed " << seed;
    EXPECT_GT(reseeds(options.max_iterations), 0) << "seed " << seed;
  }
}

TEST(KMeansPrunedTest, MatchesNaiveWhenTheIterationCapIsHit) {
  const std::vector<Vector> points = Markov(2000, 32, 74);
  KMeansOptions options;
  options.k = 32;
  options.tolerance = 0.0;
  for (int cap : {0, 1, 2, 7}) {
    options.max_iterations = cap;
    const KMeansResult bounded = RunKMeans(points, options, /*pruned=*/true, 41);
    EXPECT_EQ(bounded.iterations, cap);
    ExpectIdentical(bounded, RunKMeans(points, options, /*pruned=*/false, 41));
  }
}

TEST(KMeansPrunedTest, AssignByInterestKMeansMatchesNaiveAndLeavesTheSameRng) {
  // data::AssignByInterest runs KMeans with these options and then keeps
  // drawing from the same Rng, so identical results plus an identical Rng
  // state after the call give an identical peer assignment.
  const std::vector<Vector> points = Markov(3000, 64, 75);
  KMeansOptions options;
  options.k = data::AssignmentOptions{}.num_interest_classes;
  Rng bounded_rng(9), naive_rng(9);
  options.pruned = true;
  Result<KMeansResult> bounded = KMeans(points, options, bounded_rng);
  options.pruned = false;
  Result<KMeansResult> naive = KMeans(points, options, naive_rng);
  ASSERT_TRUE(bounded.ok());
  ASSERT_TRUE(naive.ok());
  ExpectIdentical(*bounded, *naive);
  EXPECT_EQ(bounded_rng.NextUint64(), naive_rng.NextUint64());
}

TEST(KMeansPrunedTest, RejectsNonFinitePoints) {
  std::vector<Vector> points = Markov(50, 8, 76);
  points[7][2] = std::numeric_limits<double>::quiet_NaN();
  KMeansOptions options;
  Rng rng(1);
  for (bool pruned : {true, false}) {
    options.pruned = pruned;
    Result<KMeansResult> r = KMeans(points, options, rng);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(PickWeightedIndexTest, ReturnsFirstIndexPastTarget) {
  const std::vector<double> weights{1.0, 2.0, 3.0};
  EXPECT_EQ(internal::PickWeightedIndex(weights, 0.5), 0u);
  EXPECT_EQ(internal::PickWeightedIndex(weights, 1.0), 0u);  // <= boundary
  EXPECT_EQ(internal::PickWeightedIndex(weights, 1.5), 1u);
  EXPECT_EQ(internal::PickWeightedIndex(weights, 5.9), 2u);
}

TEST(PickWeightedIndexTest, FallbackClampsToLastPositiveWeight) {
  // A rounding sliver of target surviving the scan must land on a point that
  // can actually be chosen — never on a trailing zero-weight point, which
  // coincides with an already-picked centroid.
  const std::vector<double> weights{3.0, 2.0, 0.0, 0.0};
  EXPECT_EQ(internal::PickWeightedIndex(weights, 100.0), 1u);
  const std::vector<double> tail_positive{0.0, 0.0, 1.0};
  EXPECT_EQ(internal::PickWeightedIndex(tail_positive, 100.0), 2u);
}

}  // namespace
}  // namespace hyperm::cluster
