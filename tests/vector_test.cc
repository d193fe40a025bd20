#include "vec/vector.h"

#include <cmath>

#include <gtest/gtest.h>

namespace hyperm {
namespace {

TEST(VectorOpsTest, AddSubScale) {
  Vector a{1.0, 2.0, 3.0};
  Vector b{0.5, -1.0, 2.0};
  EXPECT_EQ(vec::Add(a, b), (Vector{1.5, 1.0, 5.0}));
  EXPECT_EQ(vec::Sub(a, b), (Vector{0.5, 3.0, 1.0}));
  EXPECT_EQ(vec::Scale(a, 2.0), (Vector{2.0, 4.0, 6.0}));
}

TEST(VectorOpsTest, InPlaceVariants) {
  Vector a{1.0, 2.0};
  vec::AddInPlace(a, Vector{1.0, 1.0});
  EXPECT_EQ(a, (Vector{2.0, 3.0}));
  vec::ScaleInPlace(a, 0.5);
  EXPECT_EQ(a, (Vector{1.0, 1.5}));
}

TEST(VectorOpsTest, DotAndNorms) {
  Vector a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(vec::Dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(vec::SquaredNorm(a), 25.0);
  EXPECT_DOUBLE_EQ(vec::Norm(a), 5.0);
}

TEST(VectorOpsTest, Distances) {
  Vector a{0.0, 0.0};
  Vector b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(vec::Distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(vec::SquaredDistance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(vec::L1Distance(a, b), 7.0);
  EXPECT_DOUBLE_EQ(vec::LinfDistance(a, b), 4.0);
}

TEST(VectorOpsTest, DistanceSymmetryAndIdentity) {
  Vector a{1.0, -2.0, 0.5};
  Vector b{-1.0, 4.0, 2.5};
  EXPECT_DOUBLE_EQ(vec::Distance(a, b), vec::Distance(b, a));
  EXPECT_DOUBLE_EQ(vec::Distance(a, a), 0.0);
}

TEST(VectorOpsTest, TriangleInequality) {
  Vector a{1.0, 0.0};
  Vector b{0.0, 1.0};
  Vector c{-1.0, -1.0};
  EXPECT_LE(vec::Distance(a, c), vec::Distance(a, b) + vec::Distance(b, c) + 1e-12);
}

TEST(VectorOpsTest, Mean) {
  std::vector<Vector> points{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  EXPECT_EQ(vec::Mean(points), (Vector{3.0, 4.0}));
}

TEST(VectorOpsTest, NormalizeL1) {
  Vector a{1.0, 3.0};
  vec::NormalizeL1InPlace(a);
  EXPECT_DOUBLE_EQ(a[0] + a[1], 1.0);
  Vector zero{0.0, 0.0};
  vec::NormalizeL1InPlace(zero);
  EXPECT_EQ(zero, (Vector{0.0, 0.0}));
}

TEST(BoundsTest, UnitBounds) {
  Bounds b = Bounds::Unit(3);
  EXPECT_EQ(b.dim(), 3u);
  EXPECT_TRUE(b.Contains(Vector{0.5, 0.0, 1.0}));
  EXPECT_FALSE(b.Contains(Vector{1.5, 0.0, 0.0}));
}

TEST(BoundsTest, OfPointsIsTight) {
  std::vector<Vector> points{{1.0, -2.0}, {3.0, 0.0}, {2.0, 5.0}};
  Bounds b = Bounds::Of(points);
  EXPECT_EQ(b.lo, (Vector{1.0, -2.0}));
  EXPECT_EQ(b.hi, (Vector{3.0, 5.0}));
  for (const Vector& p : points) EXPECT_TRUE(b.Contains(p));
}

TEST(BoundsTest, ExtendGrows) {
  Bounds b = Bounds::Of({{0.0, 0.0}});
  b.Extend(Vector{-1.0, 2.0});
  EXPECT_EQ(b.lo, (Vector{-1.0, 0.0}));
  EXPECT_EQ(b.hi, (Vector{0.0, 2.0}));
}

}  // namespace
}  // namespace hyperm
