#include "data/histogram_generator.h"

#include <cmath>

#include <gtest/gtest.h>

namespace hyperm::data {
namespace {

TEST(HistogramGeneratorTest, RejectsBadOptions) {
  Rng rng(1);
  HistogramOptions bad;
  bad.num_objects = 0;
  EXPECT_FALSE(GenerateHistograms(bad, rng).ok());
  bad = HistogramOptions{};
  bad.views_per_object = 0;
  EXPECT_FALSE(GenerateHistograms(bad, rng).ok());
  bad = HistogramOptions{};
  bad.dim = 1;
  EXPECT_FALSE(GenerateHistograms(bad, rng).ok());
}

TEST(HistogramGeneratorTest, ShapeAndLabels) {
  Rng rng(2);
  HistogramOptions options;
  options.num_objects = 30;
  options.views_per_object = 12;
  options.dim = 32;
  Result<Dataset> ds = GenerateHistograms(options, rng);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->size(), 360u);
  EXPECT_EQ(ds->dim(), 32u);
  ASSERT_TRUE(ds->has_labels());
  for (size_t i = 0; i < ds->size(); ++i) {
    EXPECT_EQ(ds->labels[i], static_cast<int>(i) / 12);
  }
}

TEST(HistogramGeneratorTest, HistogramsAreNonNegativeRawCounts) {
  Rng rng(3);
  HistogramOptions options;
  options.num_objects = 20;
  options.views_per_object = 4;
  options.dim = 64;
  Result<Dataset> ds = GenerateHistograms(options, rng);
  ASSERT_TRUE(ds.ok());
  for (const Vector& h : ds->items) {
    double mass = 0.0;
    for (double v : h) {
      EXPECT_GE(v, 0.0);
      mass += v;
    }
    EXPECT_GT(mass, 0.0);
  }
}

TEST(HistogramGeneratorTest, MassVariesAcrossObjectsButNotWithinViews) {
  Rng rng(9);
  HistogramOptions options;
  options.num_objects = 30;
  options.views_per_object = 6;
  options.dim = 32;
  Result<Dataset> ds = GenerateHistograms(options, rng);
  ASSERT_TRUE(ds.ok());
  // Per-object mean mass and within-object spread.
  std::vector<double> object_mass(30, 0.0);
  std::vector<double> spread(30, 0.0);
  for (int object = 0; object < 30; ++object) {
    double lo = 1e18, hi = 0.0;
    for (int view = 0; view < 6; ++view) {
      const Vector& h = ds->items[static_cast<size_t>(object * 6 + view)];
      double mass = 0.0;
      for (double v : h) mass += v;
      object_mass[static_cast<size_t>(object)] += mass / 6.0;
      lo = std::min(lo, mass);
      hi = std::max(hi, mass);
    }
    spread[static_cast<size_t>(object)] = hi / lo;
  }
  // Objects differ substantially in total mass...
  double min_mass = 1e18, max_mass = 0.0;
  for (double m : object_mass) {
    min_mass = std::min(min_mass, m);
    max_mass = std::max(max_mass, m);
  }
  EXPECT_GT(max_mass / min_mass, 2.0);
  // ...while views of one object stay close.
  for (double s : spread) EXPECT_LT(s, 2.0);
}

TEST(HistogramGeneratorTest, ViewsOfSameObjectAreNeighbours) {
  Rng rng(4);
  HistogramOptions options;
  options.num_objects = 40;
  options.views_per_object = 6;
  options.dim = 64;
  Result<Dataset> ds = GenerateHistograms(options, rng);
  ASSERT_TRUE(ds.ok());
  double intra = 0.0, inter = 0.0;
  int intra_n = 0, inter_n = 0;
  for (size_t i = 0; i < ds->size(); i += 3) {
    for (size_t j = i + 1; j < ds->size(); j += 3) {
      const double d = vec::Distance(ds->items[i], ds->items[j]);
      if (ds->labels[i] == ds->labels[j]) {
        intra += d;
        ++intra_n;
      } else {
        inter += d;
        ++inter_n;
      }
    }
  }
  ASSERT_GT(intra_n, 0);
  ASSERT_GT(inter_n, 0);
  EXPECT_LT(intra / intra_n, 0.6 * (inter / inter_n));
}

TEST(HistogramGeneratorTest, DeterministicGivenSeed) {
  HistogramOptions options;
  options.num_objects = 5;
  options.views_per_object = 3;
  options.dim = 16;
  Rng a(7), b(7);
  Result<Dataset> da = GenerateHistograms(options, a);
  Result<Dataset> db = GenerateHistograms(options, b);
  ASSERT_TRUE(da.ok() && db.ok());
  EXPECT_EQ(da->items, db->items);
}

}  // namespace
}  // namespace hyperm::data
