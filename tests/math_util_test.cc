#include "common/math_util.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace hyperm {
namespace {

TEST(MathUtilTest, LogFactorialSmallValues) {
  EXPECT_NEAR(LogFactorial(0), 0.0, 1e-12);
  EXPECT_NEAR(LogFactorial(1), 0.0, 1e-12);
  EXPECT_NEAR(LogFactorial(5), std::log(120.0), 1e-10);
  EXPECT_NEAR(LogFactorial(10), std::log(3628800.0), 1e-9);
}

TEST(MathUtilTest, LogDoubleFactorial) {
  EXPECT_NEAR(LogDoubleFactorial(-1), 0.0, 1e-12);
  EXPECT_NEAR(LogDoubleFactorial(0), 0.0, 1e-12);
  EXPECT_NEAR(LogDoubleFactorial(1), 0.0, 1e-12);
  EXPECT_NEAR(LogDoubleFactorial(5), std::log(15.0), 1e-10);   // 5*3*1
  EXPECT_NEAR(LogDoubleFactorial(6), std::log(48.0), 1e-10);   // 6*4*2
  EXPECT_NEAR(LogDoubleFactorial(8), std::log(384.0), 1e-10);  // 8*6*4*2
}

TEST(MathUtilTest, IncompleteBetaBoundaries) {
  EXPECT_EQ(RegularizedIncompleteBeta(2.0, 3.0, 0.0), 0.0);
  EXPECT_EQ(RegularizedIncompleteBeta(2.0, 3.0, 1.0), 1.0);
}

TEST(MathUtilTest, IncompleteBetaUniformCase) {
  // I_x(1,1) = x.
  for (double x : {0.1, 0.25, 0.5, 0.9}) {
    EXPECT_NEAR(RegularizedIncompleteBeta(1.0, 1.0, x), x, 1e-12);
  }
}

TEST(MathUtilTest, IncompleteBetaClosedFormA1) {
  // I_x(1,b) = 1 - (1-x)^b.
  for (double b : {0.5, 2.0, 7.5}) {
    for (double x : {0.05, 0.3, 0.8}) {
      EXPECT_NEAR(RegularizedIncompleteBeta(1.0, b, x), 1.0 - std::pow(1.0 - x, b), 1e-10);
    }
  }
}

TEST(MathUtilTest, IncompleteBetaSymmetry) {
  // I_x(a,b) = 1 - I_{1-x}(b,a).
  for (double a : {0.7, 2.0, 5.5}) {
    for (double b : {0.5, 3.0}) {
      for (double x : {0.2, 0.5, 0.85}) {
        EXPECT_NEAR(RegularizedIncompleteBeta(a, b, x),
                    1.0 - RegularizedIncompleteBeta(b, a, 1.0 - x), 1e-10);
      }
    }
  }
}

TEST(MathUtilTest, IncompleteBetaMonotoneInX) {
  double prev = -1.0;
  for (double x = 0.0; x <= 1.0; x += 0.05) {
    const double v = RegularizedIncompleteBeta(3.5, 1.5, x);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(MathUtilTest, IncompleteBetaHalfIntegerKnownValue) {
  // I_{1/2}(1/2, 1/2) = 1/2 (arcsine distribution median).
  EXPECT_NEAR(RegularizedIncompleteBeta(0.5, 0.5, 0.5), 0.5, 1e-10);
}

TEST(MathUtilTest, LogIncompleteBetaMatchesLogOfDirectForm) {
  for (double a : {0.5, 2.0, 8.5, 128.5}) {
    for (double x : {1e-6, 0.01, 0.3, 0.5, 0.9, 0.999}) {
      const double direct = RegularizedIncompleteBeta(a, 0.5, x);
      if (direct < 1e-300) continue;
      EXPECT_NEAR(LogRegularizedIncompleteBeta(a, 0.5, x), std::log(direct),
                  1e-10 * (1.0 + std::fabs(std::log(direct))))
          << "a=" << a << " x=" << x;
    }
  }
  EXPECT_EQ(LogRegularizedIncompleteBeta(2.0, 0.5, 1.0), 0.0);
  EXPECT_TRUE(std::isinf(LogRegularizedIncompleteBeta(2.0, 0.5, 0.0)));
}

TEST(MathUtilTest, LogIncompleteBetaStaysFiniteWhereDirectUnderflows) {
  // I_x(256.5, 0.5) at x = 0.01 is ~1e-513: zero as a double.
  EXPECT_EQ(RegularizedIncompleteBeta(256.5, 0.5, 0.01), 0.0);
  const double log_i = LogRegularizedIncompleteBeta(256.5, 0.5, 0.01);
  EXPECT_TRUE(std::isfinite(log_i));
  EXPECT_LT(log_i, -1000.0);
  // Still increasing in x.
  EXPECT_LT(log_i, LogRegularizedIncompleteBeta(256.5, 0.5, 0.02));
}

TEST(MathUtilTest, LogSumExp) {
  EXPECT_NEAR(LogSumExp(0.0, 0.0), std::log(2.0), 1e-12);
  EXPECT_NEAR(LogSumExp(100.0, 100.0), 100.0 + std::log(2.0), 1e-9);
  EXPECT_NEAR(LogSumExp(0.0, -1000.0), 0.0, 1e-12);
}

TEST(MathUtilTest, AlmostEqual) {
  EXPECT_TRUE(AlmostEqual(1.0, 1.0));
  EXPECT_TRUE(AlmostEqual(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(AlmostEqual(1.0, 1.001));
  EXPECT_TRUE(AlmostEqual(1e12, 1e12 * (1 + 1e-10)));
}

TEST(MathUtilTest, NextPowerOfTwo) {
  EXPECT_EQ(NextPowerOfTwo(1), 1);
  EXPECT_EQ(NextPowerOfTwo(2), 2);
  EXPECT_EQ(NextPowerOfTwo(3), 4);
  EXPECT_EQ(NextPowerOfTwo(512), 512);
  EXPECT_EQ(NextPowerOfTwo(513), 1024);
}

TEST(MathUtilTest, IsPowerOfTwo) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_FALSE(IsPowerOfTwo(-4));
}

TEST(MathUtilTest, Log2Exact) {
  EXPECT_EQ(Log2Exact(1), 0);
  EXPECT_EQ(Log2Exact(2), 1);
  EXPECT_EQ(Log2Exact(512), 9);
}

}  // namespace
}  // namespace hyperm
