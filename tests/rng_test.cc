#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace hyperm {
namespace {

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRespectsRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(-2.5, 3.5);
    EXPECT_GE(x, -2.5);
    EXPECT_LT(x, 3.5);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NextIndexStaysInRange) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextIndex(7), 7u);
  }
}

TEST(RngTest, NextIndexCoversAllValues) {
  Rng rng(17);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 1000; ++i) ++seen[rng.NextIndex(5)];
  for (int count : seen) EXPECT_GT(count, 100);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(19);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(23);
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) heads += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(29);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Gaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(RngTest, GaussianShifted) {
  Rng rng(31);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(37);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, GammaMeanMatchesShape) {
  Rng rng(41);
  const int n = 50000;
  for (double shape : {0.5, 1.0, 3.0}) {
    double sum = 0.0;
    for (int i = 0; i < n; ++i) sum += rng.Gamma(shape);
    EXPECT_NEAR(sum / n, shape, 0.05 * (1.0 + shape));
  }
}

TEST(RngTest, DirichletSumsToOne) {
  Rng rng(43);
  for (int trial = 0; trial < 100; ++trial) {
    const std::vector<double> x = rng.Dirichlet(16, 0.4);
    double total = std::accumulate(x.begin(), x.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-9);
    for (double v : x) EXPECT_GE(v, 0.0);
  }
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(47);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> original = v;
  rng.Shuffle(v);
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

}  // namespace
}  // namespace hyperm
