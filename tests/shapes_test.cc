#include "geom/shapes.h"

#include <gtest/gtest.h>

namespace hyperm::geom {
namespace {

TEST(SphereTest, Contains) {
  Sphere s{{0.0, 0.0}, 1.0};
  EXPECT_TRUE(s.Contains({0.5, 0.5}));
  EXPECT_TRUE(s.Contains({1.0, 0.0}));  // boundary inclusive
  EXPECT_FALSE(s.Contains({1.0, 1.0}));
}

TEST(SphereTest, Intersects) {
  Sphere a{{0.0, 0.0}, 1.0};
  Sphere b{{1.5, 0.0}, 1.0};
  Sphere c{{3.0, 0.0}, 0.5};
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(b.Intersects(a));
  EXPECT_FALSE(a.Intersects(c));
  // Tangency counts as intersecting.
  Sphere d{{2.0, 0.0}, 1.0};
  EXPECT_TRUE(a.Intersects(d));
}

TEST(SphereTest, ZeroRadiusSphereIsAPoint) {
  Sphere p{{1.0, 1.0}, 0.0};
  EXPECT_TRUE(p.Contains({1.0, 1.0}));
  EXPECT_FALSE(p.Contains({1.0, 1.0001}));
  Sphere q{{1.0, 2.0}, 1.0};
  EXPECT_TRUE(p.Intersects(q));
}

TEST(BoxTest, ContainsHalfOpen) {
  Box box{{0.0, 0.0}, {1.0, 1.0}};
  EXPECT_TRUE(box.ContainsHalfOpen({0.0, 0.0}));
  EXPECT_TRUE(box.ContainsHalfOpen({0.999, 0.5}));
  EXPECT_FALSE(box.ContainsHalfOpen({1.0, 0.5}));  // hi exclusive
  EXPECT_FALSE(box.ContainsHalfOpen({-0.1, 0.5}));
}

TEST(BoxTest, SquaredDistance) {
  Box box{{0.0, 0.0}, {1.0, 1.0}};
  EXPECT_DOUBLE_EQ(box.SquaredDistanceTo({0.5, 0.5}), 0.0);
  EXPECT_DOUBLE_EQ(box.SquaredDistanceTo({2.0, 0.5}), 1.0);
  EXPECT_DOUBLE_EQ(box.SquaredDistanceTo({2.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(box.SquaredDistanceTo({-1.0, -1.0}), 2.0);
}

TEST(BoxTest, IntersectsSphere) {
  Box box{{0.0, 0.0}, {1.0, 1.0}};
  EXPECT_TRUE(box.IntersectsSphere(Sphere{{0.5, 0.5}, 0.1}));   // inside
  EXPECT_TRUE(box.IntersectsSphere(Sphere{{2.0, 0.5}, 1.0}));   // touches edge
  EXPECT_TRUE(box.IntersectsSphere(Sphere{{-0.5, -0.5}, 1.0}));
  EXPECT_FALSE(box.IntersectsSphere(Sphere{{2.0, 2.0}, 0.5}));
}

TEST(BoxTest, Volume) {
  Box box{{0.0, 1.0}, {2.0, 2.0}};
  EXPECT_DOUBLE_EQ(box.Volume(), 2.0);
}

}  // namespace
}  // namespace hyperm::geom
