#include "hyperm/peer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/markov_generator.h"
#include "obs/metrics.h"
#include "vec/vector.h"

namespace hyperm::core {
namespace {

Peer MakePeer() {
  Peer peer(3);
  peer.AddItem(10, {0.0, 0.0});
  peer.AddItem(11, {1.0, 0.0});
  peer.AddItem(12, {0.0, 2.0});
  peer.AddItem(13, {5.0, 5.0});
  return peer;
}

TEST(PeerTest, BasicAccessors) {
  const Peer peer = MakePeer();
  EXPECT_EQ(peer.id(), 3);
  EXPECT_EQ(peer.num_items(), 4u);
  EXPECT_EQ(peer.item_ids(), (std::vector<ItemId>{10, 11, 12, 13}));
}

// The two searches with the query's CoarseQuery computed on the spot.
std::vector<ItemId> Range(const Peer& peer, const Vector& query, double epsilon) {
  return peer.RangeSearch(query, CoarseQuery(query), epsilon);
}

std::vector<ScoredItem> Nearest(const Peer& peer, const Vector& query, int count) {
  return peer.NearestItemsScored(query, CoarseQuery(query), count);
}

std::vector<ItemId> Ids(const std::vector<ScoredItem>& items) {
  std::vector<ItemId> ids;
  for (const ScoredItem& item : items) ids.push_back(item.id);
  return ids;
}

TEST(PeerTest, RangeSearchInclusiveBoundary) {
  const Peer peer = MakePeer();
  const std::vector<ItemId> hits = Range(peer, {0.0, 0.0}, 1.0);
  EXPECT_EQ(hits, (std::vector<ItemId>{10, 11}));  // distance 1.0 included
}

TEST(PeerTest, RangeSearchZeroRadiusIsPointLookup) {
  const Peer peer = MakePeer();
  EXPECT_EQ(Range(peer, {5.0, 5.0}, 0.0), (std::vector<ItemId>{13}));
  EXPECT_TRUE(Range(peer, {9.0, 9.0}, 0.0).empty());
}

TEST(PeerTest, NearestItemsOrderedByDistance) {
  const Peer peer = MakePeer();
  const std::vector<ScoredItem> nearest = Nearest(peer, {0.0, 0.0}, 3);
  EXPECT_EQ(Ids(nearest), (std::vector<ItemId>{10, 11, 12}));
  EXPECT_EQ(nearest[2].distance, 2.0);
}

TEST(PeerTest, NearestItemsClampedToStoreSize) {
  const Peer peer = MakePeer();
  EXPECT_EQ(Nearest(peer, {0.0, 0.0}, 100).size(), 4u);
  EXPECT_TRUE(Nearest(peer, {0.0, 0.0}, 0).empty());
}

TEST(PeerTest, EmptyPeer) {
  const Peer peer(0);
  EXPECT_TRUE(Range(peer, {1.0}, 5.0).empty());
  EXPECT_TRUE(Nearest(peer, {1.0}, 3).empty());
}

// --- Exactness of the coarse-filtered scans ---------------------------------
//
// Both scans drop rows by a lower bound from 8 coarse Haar coefficients and
// refine the rest exactly. The results must equal a brute force over every
// stored row with vec::SquaredDistance — the same sum, bit for bit — so a
// row the filter wrongly drops shows up as a missing id or a changed k-NN
// list. The stores are built to put rows at the filter's edge: items exactly
// at ε, duplicates and tied distances, and rows whose difference from the
// query lies wholly in the coarse levels (their bound equals their distance
// up to rounding, so only the margin keeps them).

enum class RowKind {
  kMarkov,        // the paper's synthetic traces: most energy in coarse levels
  kWhiteNoise,    // the filter's worst case: energy spread over every level
  kIntegerTies,   // small integers: exact distances, many equal
  kCoarseOffset,  // a shared far offset plus block-constant differences
};

std::string KindName(RowKind kind) {
  switch (kind) {
    case RowKind::kMarkov:
      return "markov";
    case RowKind::kWhiteNoise:
      return "noise";
    case RowKind::kIntegerTies:
      return "ties";
    case RowKind::kCoarseOffset:
      return "coarse";
  }
  return "?";
}

// A peer and the plain copy of its store the references scan.
struct Store {
  Peer peer{0};
  std::vector<Vector> rows;
  std::vector<ItemId> ids;

  void Add(ItemId id, const Vector& row) {
    peer.AddItem(id, row);
    rows.push_back(row);
    ids.push_back(id);
  }
};

std::vector<ItemId> RangeReference(const Store& store, const Vector& query, double epsilon) {
  std::vector<ItemId> hits;
  for (size_t r = 0; r < store.rows.size(); ++r) {
    if (vec::SquaredDistance(store.rows[r], query) <= epsilon * epsilon) {
      hits.push_back(store.ids[r]);
    }
  }
  return hits;
}

std::vector<std::pair<ItemId, double>> NearestReference(const Store& store, const Vector& query,
                                                        int count) {
  std::vector<std::pair<double, ItemId>> scored;
  for (size_t r = 0; r < store.rows.size(); ++r) {
    scored.emplace_back(vec::SquaredDistance(store.rows[r], query), store.ids[r]);
  }
  std::sort(scored.begin(), scored.end());
  scored.resize(std::min(scored.size(), static_cast<size_t>(count)));
  std::vector<std::pair<ItemId, double>> out;
  for (const auto& [d2, id] : scored) out.emplace_back(id, std::sqrt(d2));
  return out;
}

std::vector<std::pair<ItemId, double>> Flatten(const std::vector<ScoredItem>& items) {
  std::vector<std::pair<ItemId, double>> out;
  for (const ScoredItem& item : items) out.emplace_back(item.id, item.distance);
  return out;
}

// The radius that puts a row at squared distance `d2` on the ball's surface:
// the largest ε within a few ulps of √d2 with ε·ε <= d2 (so ε·ε == d2 when
// such an ε exists there).
double EpsilonAt(double d2) {
  double eps = std::sqrt(d2);
  for (int step = 0; step < 4 && eps * eps > d2; ++step) eps = std::nextafter(eps, 0.0);
  for (int step = 0; step < 4; ++step) {
    const double up = std::nextafter(eps, 1e308);
    if (up * up > d2) break;
    eps = up;
  }
  return eps;
}

class PeerScanFuzz : public ::testing::TestWithParam<std::tuple<int, RowKind>> {
 protected:
  void SetUp() override {
    dim_ = static_cast<size_t>(std::get<0>(GetParam()));
    kind_ = std::get<1>(GetParam());
    rng_ = Rng(1000 * dim_ + static_cast<uint64_t>(kind_));
    if (kind_ == RowKind::kMarkov) {
      data::MarkovOptions options;
      options.count = 120;
      options.dim = static_cast<int>(dim_);
      options.num_families = 3;
      markov_ = data::GenerateMarkov(options, rng_).value().items;
    }
    base_.resize(dim_);
    for (double& x : base_) x = 1000.0 + rng_.NextDouble();
  }

  Vector FreshRow() {
    Vector row(dim_);
    switch (kind_) {
      case RowKind::kMarkov:
        return markov_[rng_.NextIndex(markov_.size())];
      case RowKind::kWhiteNoise:
        for (double& x : row) x = rng_.NextDouble();
        break;
      case RowKind::kIntegerTies:
        for (double& x : row) x = static_cast<double>(rng_.UniformInt(-2, 2));
        break;
      case RowKind::kCoarseOffset: {
        // Constant over each eighth of the padded length, so the difference
        // from base_ lies in the span of A, D_0, D_1 and D_2.
        size_t padded = 1;
        while (padded < dim_) padded <<= 1;
        const size_t width = std::max<size_t>(1, padded / 8);
        for (size_t j = 0; j < dim_; j += width) {
          const double offset = 0.25 * static_cast<double>(rng_.UniformInt(-3, 3));
          for (size_t i = j; i < std::min(dim_, j + width); ++i) row[i] = base_[i] + offset;
        }
        break;
      }
    }
    return row;
  }

  // A new row, or (one time in five) a copy of a stored one.
  Vector NextRow(const Store& store) {
    if (!store.rows.empty() && rng_.NextIndex(5) == 0) {
      return store.rows[rng_.NextIndex(store.rows.size())];
    }
    return FreshRow();
  }

  std::vector<Vector> Queries(const Store& store) {
    std::vector<Vector> queries = {FreshRow(), kind_ == RowKind::kCoarseOffset ? base_ : FreshRow()};
    if (!store.rows.empty()) {
      const Vector& stored = store.rows[rng_.NextIndex(store.rows.size())];
      queries.push_back(stored);
      Vector nudged = stored;
      nudged[rng_.NextIndex(dim_)] += 1e-9;
      queries.push_back(nudged);
    }
    return queries;
  }

  // Grows stores through sizes that straddle the 4-row blocks, calling
  // `check` after every growth step (so items arrive between searches).
  template <class Check>
  void ForEachStore(Check check) {
    for (int trial = 0; trial < 3; ++trial) {
      Store store;
      check(store);
      for (size_t size : {1u, 3u, 4u, 5u, 9u, 20u, 57u}) {
        while (store.rows.size() < size) {
          // Ids run against insertion order, so id order breaks ties.
          store.Add(static_cast<ItemId>(5000 - 7 * store.rows.size()), NextRow(store));
        }
        check(store);
      }
    }
  }

  size_t dim_ = 0;
  RowKind kind_ = RowKind::kMarkov;
  Rng rng_;
  std::vector<Vector> markov_;
  Vector base_;
};

TEST_P(PeerScanFuzz, RangeSearchMatchesBruteForce) {
  ForEachStore([&](const Store& store) {
    for (const Vector& query : Queries(store)) {
      std::vector<double> eps = {0.0, 1e300};
      std::vector<double> d2;
      for (const Vector& row : store.rows) d2.push_back(vec::SquaredDistance(row, query));
      for (double x : d2) eps.push_back(EpsilonAt(x));  // every item exactly at ε
      if (!d2.empty()) {
        std::nth_element(d2.begin(), d2.begin() + static_cast<long>(d2.size() / 2), d2.end());
        eps.push_back(std::sqrt(d2[d2.size() / 2]));
      }
      for (double e : eps) {
        ASSERT_EQ(Range(store.peer, query, e), RangeReference(store, query, e))
            << "rows=" << store.rows.size() << " eps=" << e;
      }
    }
  });
}

TEST_P(PeerScanFuzz, NearestItemsMatchBruteForce) {
  ForEachStore([&](const Store& store) {
    const int n = static_cast<int>(store.rows.size());
    for (const Vector& query : Queries(store)) {
      for (int count : {0, 1, 2, 3, 4, 5, 6, n / 3, n / 2, n - 1, n, n + 3}) {
        if (count < 0) continue;
        ASSERT_EQ(Flatten(Nearest(store.peer, query, count)),
                  NearestReference(store, query, count))
            << "rows=" << n << " count=" << count;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndRows, PeerScanFuzz,
    ::testing::Combine(::testing::Values(1, 2, 6, 8, 64, 512),
                       ::testing::Values(RowKind::kMarkov, RowKind::kWhiteNoise,
                                         RowKind::kIntegerTies, RowKind::kCoarseOffset)),
    [](const ::testing::TestParamInfo<std::tuple<int, RowKind>>& info) {
      std::string name = "d";
      name += std::to_string(std::get<0>(info.param));
      name += '_';
      name += KindName(std::get<1>(info.param));
      return name;
    });

TEST(PeerScanCountersTest, CountRowsAndRefinedRows) {
  // 64-d rows: a query on one row with ε = 0.5 keeps only rows near it, and
  // a far query (every coordinate +10) is ruled out on the coarse levels.
  Peer peer(0);
  Rng rng(7);
  Vector first;
  for (int i = 0; i < 40; ++i) {
    Vector row(64);
    for (double& x : row) x = rng.NextDouble();
    if (i == 0) first = row;
    peer.AddItem(i, row);
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  Vector far = first;
  for (double& x : far) x += 10.0;
  EXPECT_TRUE(Range(peer, far, 0.5).empty());
  EXPECT_EQ(Range(peer, first, 0.0), (std::vector<ItemId>{0}));
  EXPECT_EQ(Nearest(peer, first, 40).size(), 40u);
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("peer.scan.rows"), 120u);
  // The far query refines nothing; returning every row refines every row.
  const uint64_t refined = snap.counters.at("peer.scan.rows_refined");
  EXPECT_GE(refined, 41u);
  EXPECT_LE(refined, 80u);
}

}  // namespace
}  // namespace hyperm::core
