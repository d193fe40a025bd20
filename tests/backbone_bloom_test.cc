#include "backbone/bloom.h"

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "backbone/digest.h"
#include "common/rng.h"
#include "geom/shapes.h"

namespace hyperm::backbone {
namespace {

// Measures the false-positive rate of a filter holding `n` random keys by
// probing `probes` keys disjoint from the inserted set.
double MeasuredFpRate(int bits, int hashes, int n, uint64_t seed,
                      int probes = 20000) {
  BloomFilter filter(bits, hashes);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    // Key space split by a high tag bit so probe keys can never collide with
    // inserted keys (a true positive would corrupt the FP count).
    filter.Insert(rng.NextUint64() >> 1);
  }
  int false_positives = 0;
  for (int i = 0; i < probes; ++i) {
    const uint64_t probe = (rng.NextUint64() >> 1) | (uint64_t{1} << 63);
    if (filter.MayContain(probe)) ++false_positives;
  }
  return static_cast<double>(false_positives) / probes;
}

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter filter(512, 3);
  Rng rng(7);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 100; ++i) keys.push_back(rng.NextUint64());
  for (uint64_t k : keys) filter.Insert(k);
  for (uint64_t k : keys) EXPECT_TRUE(filter.MayContain(k));
}

TEST(BloomFilterTest, MeasuredFpRateWithinTheoreticalBound) {
  // Several (bits, hashes, n) operating points spanning light to heavy load.
  // The measured rate over 20k probes should sit near the (1-e^{-kn/m})^k
  // estimate; we allow 1.5x + a small absolute slack for sampling noise.
  struct Point {
    int bits, hashes, n;
  };
  for (const Point& p : {Point{1024, 4, 100}, Point{4096, 3, 500},
                         Point{256, 2, 50}, Point{2048, 4, 600}}) {
    BloomFilter reference(p.bits, p.hashes);
    for (int i = 0; i < p.n; ++i) reference.Insert(static_cast<uint64_t>(i));
    const double theoretical = reference.TheoreticalFpRate();
    const double measured = MeasuredFpRate(p.bits, p.hashes, p.n, 42);
    EXPECT_LE(measured, theoretical * 1.5 + 0.01)
        << "bits=" << p.bits << " hashes=" << p.hashes << " n=" << p.n
        << " theoretical=" << theoretical << " measured=" << measured;
    EXPECT_GT(theoretical, 0.0);
  }
}

TEST(BloomFilterTest, FpRateShrinksWithMoreBits) {
  const double small = MeasuredFpRate(256, 4, 200, 9);
  const double large = MeasuredFpRate(4096, 4, 200, 9);
  EXPECT_LT(large, small);
}

TEST(BloomFilterTest, MergeIsUnionOfMembership) {
  BloomFilter a(1024, 4);
  BloomFilter b(1024, 4);
  for (uint64_t k = 0; k < 50; ++k) a.Insert(k);
  for (uint64_t k = 1000; k < 1050; ++k) b.Insert(k);
  ASSERT_TRUE(a.Merge(b).ok());
  for (uint64_t k = 0; k < 50; ++k) EXPECT_TRUE(a.MayContain(k));
  for (uint64_t k = 1000; k < 1050; ++k) EXPECT_TRUE(a.MayContain(k));
  EXPECT_EQ(a.inserted(), 100u);
}

TEST(BloomFilterTest, MergeRejectsGeometryMismatch) {
  BloomFilter a(1024, 4);
  BloomFilter bits_differ(512, 4);
  BloomFilter hashes_differ(1024, 3);
  EXPECT_FALSE(a.Merge(bits_differ).ok());
  EXPECT_FALSE(a.Merge(hashes_differ).ok());
}

TEST(BloomFilterTest, ClearResetsMembershipAndCounters) {
  BloomFilter filter(512, 3);
  for (uint64_t k = 0; k < 64; ++k) filter.Insert(k);
  EXPECT_GT(filter.popcount(), 0u);
  filter.Clear();
  EXPECT_EQ(filter.popcount(), 0u);
  EXPECT_EQ(filter.inserted(), 0u);
  EXPECT_EQ(filter.fill_ratio(), 0.0);
  for (uint64_t k = 0; k < 64; ++k) EXPECT_FALSE(filter.MayContain(k));
  EXPECT_EQ(filter.bits(), 512);  // geometry survives
}

TEST(BloomFilterTest, SerializationRoundTripIsByteStable) {
  BloomFilter filter(777, 5);  // non-multiple-of-64 bits on purpose
  Rng rng(3);
  for (int i = 0; i < 123; ++i) filter.Insert(rng.NextUint64());

  const std::string bytes = filter.Serialize();
  EXPECT_EQ(bytes.size(), filter.SerializedBytes());

  Result<BloomFilter> restored = BloomFilter::Deserialize(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().bits(), filter.bits());
  EXPECT_EQ(restored.value().hashes(), filter.hashes());
  EXPECT_EQ(restored.value().inserted(), filter.inserted());
  EXPECT_EQ(restored.value().popcount(), filter.popcount());

  // Byte stability: re-serializing the restored filter reproduces the exact
  // byte string (the CI baseline diff depends on this).
  EXPECT_EQ(restored.value().Serialize(), bytes);
}

TEST(BloomFilterTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(BloomFilter::Deserialize("").ok());
  EXPECT_FALSE(BloomFilter::Deserialize("nope").ok());
  std::string truncated = BloomFilter(512, 3).Serialize();
  truncated.pop_back();
  EXPECT_FALSE(BloomFilter::Deserialize(truncated).ok());
}

TEST(BloomFilterTest, GeometrylessFilterMatchesNothing) {
  BloomFilter filter;
  EXPECT_EQ(filter.bits(), 0);
  EXPECT_FALSE(filter.MayContain(12345));
  EXPECT_EQ(filter.TheoreticalFpRate(), 0.0);
}

// --- SphereDigest: the geometric layer on top of the Bloom filter ---------

geom::Sphere RandomSphere(Rng& rng, int dim, double max_radius) {
  geom::Sphere s;
  s.center.resize(dim);
  for (int d = 0; d < dim; ++d) s.center[d] = rng.NextDouble();
  s.radius = rng.Uniform(0.01, max_radius);
  return s;
}

// The load-bearing guarantee: a stored sphere that intersects the query can
// never be dismissed — neither by the marginal interval cells nor by the
// joint pair cells, in any dimensionality (including dim 1, which has no
// pairs, and dim 2, whose single pair is covered once).
TEST(SphereDigestTest, NoFalseDismissalsOnIntersectingSpheres) {
  Rng rng(1234);
  for (int dim : {1, 2, 3, 5, 8}) {
    DigestOptions options;
    options.bits = 4096;
    options.cells_per_axis = 16;
    int checked = 0;
    while (checked < 200) {
      SphereDigest digest(dim, options);
      const geom::Sphere stored = RandomSphere(rng, dim, 0.3);
      const geom::Sphere query = RandomSphere(rng, dim, 0.3);
      if (!stored.Intersects(query)) continue;
      digest.InsertSphere(stored);
      EXPECT_TRUE(digest.MayIntersect(query))
          << "false dismissal at dim=" << dim << " after " << checked;
      ++checked;
    }
  }
}

TEST(SphereDigestTest, EmptyDigestProvablyRejectsEverything) {
  SphereDigest digest(3, DigestOptions{});
  Rng rng(5);
  // An empty level is a *provable* no-match even in digest-less mode: the
  // sphere count alone settles it.
  EXPECT_FALSE(digest.MayIntersect(RandomSphere(rng, 3, 0.5)));
  SphereDigest digestless(3, DigestOptions{.bits = 0});
  EXPECT_FALSE(digestless.MayIntersect(RandomSphere(rng, 3, 0.5)));
}

TEST(SphereDigestTest, DigestlessModeAlwaysDescendsOnceNonEmpty) {
  DigestOptions options;
  options.bits = 0;  // comparator mode: count spheres, keep no geometry
  SphereDigest digest(2, options);
  digest.InsertSphere(geom::Sphere{{0.1, 0.1}, 0.05});
  // A far-away query still "may match": bits == 0 must never prune.
  EXPECT_TRUE(digest.MayIntersect(geom::Sphere{{0.9, 0.9}, 0.05}));
  EXPECT_EQ(digest.spheres(), 1u);
  EXPECT_EQ(digest.SerializedBytes(), BloomFilter().SerializedBytes());
}

TEST(SphereDigestTest, WellSeparatedSpheresAreRejected) {
  DigestOptions options;
  options.bits = 8192;  // big enough that Bloom collisions don't pollute this
  options.cells_per_axis = 16;
  SphereDigest digest(3, options);
  digest.InsertSphere(geom::Sphere{{0.1, 0.1, 0.1}, 0.05});
  digest.InsertSphere(geom::Sphere{{0.2, 0.15, 0.1}, 0.08});
  // Opposite corner: no marginal cell overlaps in any dimension.
  EXPECT_FALSE(digest.MayIntersect(geom::Sphere{{0.9, 0.9, 0.9}, 0.05}));
}

// The characteristic marginal-AND false positive: sphere A covers the query's
// dim-0 interval, sphere B covers its dim-1 interval, but no single stored
// sphere covers both. The joint pair cells must reject it.
TEST(SphereDigestTest, PairCellsKillCrossSphereMarginalFalsePositive) {
  DigestOptions options;
  options.bits = 8192;
  options.cells_per_axis = 16;
  SphereDigest digest(2, options);
  digest.InsertSphere(geom::Sphere{{0.1, 0.9}, 0.03});  // shares query's x band
  digest.InsertSphere(geom::Sphere{{0.9, 0.1}, 0.03});  // shares query's y band
  const geom::Sphere query{{0.1, 0.1}, 0.03};
  EXPECT_FALSE(digest.MayIntersect(query));
  // Sanity: a third sphere actually at the query corner flips the verdict.
  digest.InsertSphere(geom::Sphere{{0.12, 0.12}, 0.03});
  EXPECT_TRUE(digest.MayIntersect(query));
}

TEST(SphereDigestTest, ClearDropsAllSpheres) {
  DigestOptions options;
  options.bits = 1024;
  SphereDigest digest(2, options);
  digest.InsertSphere(geom::Sphere{{0.5, 0.5}, 0.2});
  EXPECT_TRUE(digest.MayIntersect(geom::Sphere{{0.5, 0.5}, 0.1}));
  digest.Clear();
  EXPECT_EQ(digest.spheres(), 0u);
  EXPECT_FALSE(digest.MayIntersect(geom::Sphere{{0.5, 0.5}, 0.1}));
}

// Spheres bulging past the unit cube clamp to the boundary cells the same way
// on insert and query, so boundary geometry keeps the no-dismissal guarantee.
TEST(SphereDigestTest, ClampedBoundarySpheresStillMatch) {
  DigestOptions options;
  options.bits = 4096;
  options.cells_per_axis = 16;
  SphereDigest digest(2, options);
  digest.InsertSphere(geom::Sphere{{0.02, 0.98}, 0.1});  // bulges out both ways
  EXPECT_TRUE(digest.MayIntersect(geom::Sphere{{-0.01, 1.01}, 0.05}));
}

// The backbone builds a domain digest by merging per-member digests, which
// is exact only if a merge equals inserting both sphere sets into one digest:
// same Bloom bytes, same insert counter, same sphere count, in either order.
TEST(SphereDigestTest, MergeEqualsInsertingTheUnion) {
  Rng rng(77);
  DigestOptions options;
  options.bits = 2048;
  options.cells_per_axis = 8;
  for (int dim : {1, 2, 4, 8, 32}) {
    for (int a_count : {0, 1, 7, 30}) {
      std::vector<geom::Sphere> a_spheres;
      std::vector<geom::Sphere> b_spheres;
      for (int i = 0; i < a_count; ++i) {
        a_spheres.push_back(RandomSphere(rng, dim, 0.2));
      }
      for (int i = 0; i < 11; ++i) b_spheres.push_back(RandomSphere(rng, dim, 0.2));

      SphereDigest a(dim, options);
      SphereDigest b(dim, options);
      SphereDigest both(dim, options);
      for (const geom::Sphere& s : a_spheres) a.InsertSphere(s);
      for (const geom::Sphere& s : b_spheres) b.InsertSphere(s);
      for (const geom::Sphere& s : a_spheres) both.InsertSphere(s);
      for (const geom::Sphere& s : b_spheres) both.InsertSphere(s);

      SphereDigest ab = a;
      ASSERT_TRUE(ab.Merge(b).ok());
      SphereDigest ba = b;
      ASSERT_TRUE(ba.Merge(a).ok());
      for (const SphereDigest* merged : {&ab, &ba}) {
        EXPECT_EQ(merged->bloom().Serialize(), both.bloom().Serialize())
            << "dim=" << dim << " a_count=" << a_count;
        EXPECT_EQ(merged->bloom().inserted(), both.bloom().inserted());
        EXPECT_EQ(merged->spheres(), both.spheres());
        EXPECT_EQ(merged->spheres(), static_cast<uint64_t>(a_count + 11));
      }
    }
  }
}

TEST(SphereDigestTest, DigestlessMergeSumsSphereCounts) {
  DigestOptions options;
  options.bits = 0;
  SphereDigest a(3, options);
  SphereDigest b(3, options);
  SphereDigest both(3, options);
  Rng rng(8);
  for (int i = 0; i < 4; ++i) {
    const geom::Sphere s = RandomSphere(rng, 3, 0.1);
    a.InsertSphere(s);
    both.InsertSphere(s);
  }
  for (int i = 0; i < 6; ++i) {
    const geom::Sphere s = RandomSphere(rng, 3, 0.1);
    b.InsertSphere(s);
    both.InsertSphere(s);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.spheres(), both.spheres());
  EXPECT_EQ(a.spheres(), 10u);
  EXPECT_EQ(a.bloom().Serialize(), both.bloom().Serialize());
  EXPECT_EQ(a.bloom().inserted(), 0u);
  EXPECT_EQ(a.SerializedBytes(), BloomFilter().SerializedBytes());
  EXPECT_TRUE(a.MayIntersect(geom::Sphere{{0.5, 0.5, 0.5}, 0.01}));

  // An empty digest-less digest merged into another stays empty: the
  // provable "no match" of an empty level survives the union.
  SphereDigest empty(3, options);
  ASSERT_TRUE(empty.Merge(SphereDigest(3, options)).ok());
  EXPECT_FALSE(empty.MayIntersect(geom::Sphere{{0.5, 0.5, 0.5}, 0.01}));
}

TEST(SphereDigestTest, HugeQueryRadiusCoversEveryCell) {
  // Cell indices of a huge finite radius lie far outside int; they must
  // clamp to the grid's ends, so the query still meets the stored sphere.
  DigestOptions options;
  options.cells_per_axis = 8;
  SphereDigest digest(3, options);
  digest.InsertSphere(geom::Sphere{{0.9, 0.8, 0.95}, 0.01});
  for (double radius : {1e9, 1e300, std::numeric_limits<double>::max()}) {
    EXPECT_TRUE(digest.MayIntersect(geom::Sphere{{0.1, 0.2, 0.3}, radius}))
        << "radius=" << radius;
  }
}

TEST(SphereDigestTest, MergeRejectsGeometryMismatch) {
  DigestOptions options;
  options.bits = 1024;
  options.cells_per_axis = 8;
  SphereDigest target(4, options);
  target.InsertSphere(geom::Sphere{{0.1, 0.2, 0.3, 0.4}, 0.05});
  const std::string before = target.bloom().Serialize();

  DigestOptions other_bits = options;
  other_bits.bits = 2048;
  DigestOptions other_cells = options;
  other_cells.cells_per_axis = 16;
  DigestOptions digestless = options;
  digestless.bits = 0;
  EXPECT_FALSE(target.Merge(SphereDigest(8, options)).ok());
  EXPECT_FALSE(target.Merge(SphereDigest(4, other_bits)).ok());
  EXPECT_FALSE(target.Merge(SphereDigest(4, other_cells)).ok());
  EXPECT_FALSE(target.Merge(SphereDigest(4, digestless)).ok());
  EXPECT_FALSE(target.Merge(SphereDigest()).ok());
  // A rejected merge leaves the target untouched.
  EXPECT_EQ(target.bloom().Serialize(), before);
  EXPECT_EQ(target.spheres(), 1u);
  EXPECT_TRUE(target.Merge(SphereDigest(4, options)).ok());
  EXPECT_EQ(target.bloom().Serialize(), before);
}

}  // namespace
}  // namespace hyperm::backbone
