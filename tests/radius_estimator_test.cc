#include "geom/radius_estimator.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace hyperm::geom {
namespace {

// Views as a k-NN probe sees them at the workload shapes: summary centroids
// spread over the unit key cube [0,1]^d around a query inside it, radii up
// to a fifth of the cube side, and ~15% single-item point clusters (a
// cluster whose members coincide), which put steps into E(eps).
std::vector<ClusterView> WorkloadViews(Rng& rng, int d, int n) {
  std::vector<double> query(static_cast<size_t>(d));
  for (double& q : query) q = rng.Uniform(0.0, 1.0);
  std::vector<ClusterView> views;
  views.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    double dist2 = 0.0;
    for (double q : query) {
      const double x = rng.Uniform(0.0, 1.0) - q;
      dist2 += x * x;
    }
    ClusterView c;
    c.center_distance = std::sqrt(dist2);
    if (rng.Uniform(0.0, 1.0) < 0.15) {
      c.items = 1;
    } else {
      c.radius = rng.Uniform(0.005, 0.2);
      c.items = static_cast<int>(rng.UniformInt(1, 40));
    }
    views.push_back(c);
  }
  return views;
}

// True iff eps sits on a point cluster's step that jumps across k: no
// radius has |E - k| within tolerance there, so the solver returns the
// radius at which E first reaches k.
bool OnStepStraddlingK(int d, const std::vector<ClusterView>& views, double k,
                       double eps) {
  const double below = eps - 1e-11 * (1.0 + eps);
  if (ExpectedItems(d, views, eps) < k || ExpectedItems(d, views, below) >= k) {
    return false;
  }
  for (const ClusterView& c : views) {
    if (c.radius == 0.0 && c.center_distance > below && c.center_distance <= eps) {
      return true;
    }
  }
  return false;
}

TEST(ExpectedItemsTest, ZeroRadiusGivesZeroForProperClusters) {
  std::vector<ClusterView> clusters{{1.0, 2.0, 50}};
  EXPECT_EQ(ExpectedItems(4, clusters, 0.0), 0.0);
}

TEST(ExpectedItemsTest, FullCoverage) {
  std::vector<ClusterView> clusters{{1.0, 2.0, 50}, {0.5, 1.0, 30}};
  // eps larger than every b + r.
  EXPECT_NEAR(ExpectedItems(4, clusters, 10.0), 80.0, 1e-9);
}

TEST(ExpectedItemsTest, PointClustersStep) {
  std::vector<ClusterView> clusters{{0.0, 1.0, 10}};
  EXPECT_EQ(ExpectedItems(3, clusters, 0.5), 0.0);
  EXPECT_EQ(ExpectedItems(3, clusters, 1.0), 10.0);
  EXPECT_EQ(ExpectedItems(3, clusters, 2.0), 10.0);
}

TEST(ExpectedItemsTest, MonotoneInEps) {
  std::vector<ClusterView> clusters{{1.0, 1.5, 40}, {2.0, 4.0, 25}, {0.0, 2.5, 5}};
  double prev = -1.0;
  for (double eps = 0.0; eps <= 8.0; eps += 0.1) {
    const double e = ExpectedItems(6, clusters, eps);
    EXPECT_GE(e, prev - 1e-9);
    prev = e;
  }
}

TEST(SolveRadiusTest, RejectsBadInput) {
  EXPECT_FALSE(SolveRadiusForCount(3, {}, 5.0).ok());
  std::vector<ClusterView> clusters{{1.0, 2.0, 10}};
  EXPECT_FALSE(SolveRadiusForCount(3, clusters, 0.0).ok());
  EXPECT_FALSE(SolveRadiusForCount(3, clusters, -1.0).ok());
}

TEST(SolveRadiusTest, RejectsKBeyondTotal) {
  std::vector<ClusterView> clusters{{1.0, 2.0, 10}};
  Result<double> r = SolveRadiusForCount(3, clusters, 11.0);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(SolveRadiusTest, RoundTripsForwardModel) {
  std::vector<ClusterView> clusters{{1.0, 1.5, 40}, {2.0, 4.0, 25}, {0.5, 2.5, 15}};
  for (double k : {1.0, 5.0, 20.0, 50.0, 79.0}) {
    Result<double> eps = SolveRadiusForCount(5, clusters, k);
    ASSERT_TRUE(eps.ok()) << "k=" << k << ": " << eps.status().ToString();
    EXPECT_NEAR(ExpectedItems(5, clusters, eps.value()), k, 0.01) << "k=" << k;
  }
}

TEST(SolveRadiusTest, ExactTotalIsSolvable) {
  std::vector<ClusterView> clusters{{1.0, 1.0, 10}, {1.0, 3.0, 10}};
  Result<double> eps = SolveRadiusForCount(2, clusters, 20.0);
  ASSERT_TRUE(eps.ok());
  EXPECT_NEAR(ExpectedItems(2, clusters, eps.value()), 20.0, 0.05);
}

TEST(SolveRadiusTest, SingleClusterHalfCoverage) {
  // One cluster centered at the query: E(eps) = (eps/r)^d * items while
  // eps <= r, so E = items/2 at eps = r * (1/2)^(1/d).
  std::vector<ClusterView> clusters{{2.0, 0.0, 64}};
  Result<double> eps = SolveRadiusForCount(3, clusters, 32.0);
  ASSERT_TRUE(eps.ok());
  EXPECT_NEAR(eps.value(), 2.0 * std::pow(0.5, 1.0 / 3.0), 1e-2);
}

TEST(SolveRadiusTest, ManyRandomInstancesRoundTrip) {
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    const int d = static_cast<int>(rng.UniformInt(1, 16));
    std::vector<ClusterView> clusters;
    double total = 0.0;
    const int n = static_cast<int>(rng.UniformInt(1, 12));
    for (int i = 0; i < n; ++i) {
      ClusterView c;
      c.radius = rng.Uniform(0.0, 2.0);
      c.center_distance = rng.Uniform(0.0, 5.0);
      c.items = static_cast<int>(rng.UniformInt(1, 100));
      total += c.items;
      clusters.push_back(c);
    }
    const double k = rng.Uniform(0.5, total);
    Result<double> eps = SolveRadiusForCount(d, clusters, k);
    ASSERT_TRUE(eps.ok()) << "trial " << trial;
    // Point clusters make E a step function, so allow a unit of slack.
    EXPECT_NEAR(ExpectedItems(d, clusters, eps.value()), k, 1.0) << "trial " << trial;
  }
}

TEST(SolveRadiusTest, ToleranceContractAtWorkloadShapes) {
  const RadiusSolveOptions options;
  int solves = 0;
  int straddles = 0;
  for (int d : {1, 2, 4}) {
    for (int n : {200, 1600}) {
      Rng rng(static_cast<uint64_t>(1000 * d + n));
      for (int rep = 0; rep < 8; ++rep) {
        const std::vector<ClusterView> views = WorkloadViews(rng, d, n);
        for (double k : {5.0, 10.0, 50.0}) {
          RadiusSolveStats stats;
          Result<double> eps = SolveRadiusForCount(d, views, k, options, &stats);
          ASSERT_TRUE(eps.ok()) << eps.status().ToString();
          EXPECT_TRUE(stats.converged) << "d=" << d << " n=" << n << " k=" << k;
          ++solves;
          const double e = ExpectedItems(d, views, eps.value());
          if (std::fabs(e - k) <= options.tolerance) continue;
          ++straddles;
          EXPECT_TRUE(OnStepStraddlingK(d, views, k, eps.value()))
              << "d=" << d << " n=" << n << " k=" << k << " eps=" << eps.value()
              << " E=" << e;
        }
      }
    }
  }
  EXPECT_EQ(solves, 144);
  // Most targets fall on a continuous stretch of E.
  EXPECT_LT(straddles, solves / 4);
}

TEST(SolveRadiusTest, LandsExactlyOnAStraddlingStep) {
  // E jumps 0 -> 10 at the point cluster's distance 1.0; the far cluster
  // only starts at 2.5. No radius has E within tolerance of 5.
  std::vector<ClusterView> clusters{{0.0, 1.0, 10}, {0.5, 3.0, 20}};
  RadiusSolveStats stats;
  Result<double> eps = SolveRadiusForCount(2, clusters, 5.0, {}, &stats);
  ASSERT_TRUE(eps.ok());
  EXPECT_EQ(eps.value(), 1.0);
  EXPECT_TRUE(stats.converged);
  // Both bracket ends, then one sweep at the bracket's only step.
  EXPECT_EQ(stats.sweeps, 3);
}

TEST(SolveRadiusTest, ExhaustedBudgetReturnsACoveringRadius) {
  RadiusSolveOptions options;
  options.max_iterations = 1;
  Rng rng(404);
  for (int d : {1, 2, 4}) {
    for (int rep = 0; rep < 20; ++rep) {
      const std::vector<ClusterView> views = WorkloadViews(rng, d, 200);
      for (double k : {5.0, 10.0, 50.0}) {
        RadiusSolveStats stats;
        Result<double> eps = SolveRadiusForCount(d, views, k, options, &stats);
        ASSERT_TRUE(eps.ok());
        EXPECT_GE(ExpectedItems(d, views, eps.value()), k - options.tolerance)
            << "d=" << d << " k=" << k;
        // Two sweeps for the bracket ends, one for the single step.
        EXPECT_EQ(stats.sweeps, 3);
      }
    }
  }
}

TEST(SolveRadiusTest, ReportsSweepsAndConvergence) {
  std::vector<ClusterView> clusters{{1.0, 1.5, 40}, {2.0, 4.0, 25}, {0.5, 2.5, 15}};
  RadiusSolveStats stats;
  ASSERT_TRUE(SolveRadiusForCount(5, clusters, 20.0, {}, &stats).ok());
  EXPECT_TRUE(stats.converged);
  EXPECT_GE(stats.sweeps, 3);
  // A point cluster at the query already supplies k: only E(0) is swept.
  std::vector<ClusterView> at_query{{0.0, 0.0, 10}, {1.0, 2.0, 10}};
  Result<double> zero = SolveRadiusForCount(3, at_query, 5.0, {}, &stats);
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero.value(), 0.0);
  EXPECT_EQ(stats.sweeps, 1);
  // Rejected inputs sweep nothing.
  EXPECT_FALSE(SolveRadiusForCount(3, clusters, 1000.0, {}, &stats).ok());
  EXPECT_EQ(stats.sweeps, 0);
  // A budget too small to converge is reported.
  RadiusSolveOptions tight;
  tight.max_iterations = 1;
  tight.tolerance = 1e-12;
  ASSERT_TRUE(SolveRadiusForCount(5, clusters, 20.0, tight, &stats).ok());
  EXPECT_FALSE(stats.converged);
}

// The sweep count regression set: 3 dims x 2 view counts x 3 targets x 5
// instances. The finite-difference Newton solver this one replaced (two
// sweeps per step, bisection when the step left the bracket) needed 1,582
// sweeps on it (17.6 per solve), counted once by running that solver's code
// on this exact set; the false-position solver must need at most half.
TEST(SolveRadiusTest, SweepsAtMostHalfOfFiniteDifferenceNewton) {
  constexpr int kNewtonSweeps = 1582;
  int sweeps = 0;
  for (int d : {1, 2, 4}) {
    for (int n : {200, 1600}) {
      Rng rng(static_cast<uint64_t>(77 * d + n));
      for (int rep = 0; rep < 5; ++rep) {
        const std::vector<ClusterView> views = WorkloadViews(rng, d, n);
        for (double k : {5.0, 10.0, 50.0}) {
          RadiusSolveStats stats;
          ASSERT_TRUE(SolveRadiusForCount(d, views, k, {}, &stats).ok());
          sweeps += stats.sweeps;
        }
      }
    }
  }
  EXPECT_LE(2 * sweeps, kNewtonSweeps);
}

}  // namespace
}  // namespace hyperm::geom
