#include "hyperm/network.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/histogram_generator.h"
#include "data/markov_generator.h"
#include "hyperm/baseline.h"
#include "hyperm/flat_index.h"
#include "hyperm/eval.h"
#include "obs/trace.h"

namespace hyperm::core {
namespace {

struct TestBed {
  data::Dataset dataset;
  data::PeerAssignment assignment;
  std::unique_ptr<HyperMNetwork> network;
};

TestBed MakeTestBed(const HyperMOptions& options = {}, uint64_t seed = 1,
                    int items = 800, int dim = 64, int peers = 16) {
  Rng rng(seed);
  data::MarkovOptions data_options;
  data_options.count = items;
  data_options.dim = dim;
  data_options.num_families = 8;
  Result<data::Dataset> ds = data::GenerateMarkov(data_options, rng);
  EXPECT_TRUE(ds.ok());
  TestBed bed;
  bed.dataset = std::move(ds).value();
  data::AssignmentOptions assign_options;
  assign_options.num_peers = peers;
  assign_options.num_interest_classes = 8;
  assign_options.min_peers_per_class = 4;
  assign_options.max_peers_per_class = 6;
  Result<data::PeerAssignment> assignment =
      data::AssignByInterest(bed.dataset, assign_options, rng);
  EXPECT_TRUE(assignment.ok());
  bed.assignment = std::move(assignment).value();
  Result<std::unique_ptr<HyperMNetwork>> net =
      HyperMNetwork::Build(bed.dataset, bed.assignment, options, rng);
  EXPECT_TRUE(net.ok()) << net.status().ToString();
  bed.network = std::move(net).value();
  return bed;
}

TEST(NetworkBuildTest, RejectsBadInput) {
  Rng rng(1);
  data::Dataset empty;
  EXPECT_FALSE(HyperMNetwork::Build(empty, {{0}}, {}, rng).ok());

  data::Dataset odd;
  odd.items.push_back(Vector(6, 1.0));  // not a power of two
  EXPECT_FALSE(HyperMNetwork::Build(odd, {{0}}, {}, rng).ok());

  data::Dataset good;
  good.items.push_back(Vector(8, 1.0));
  EXPECT_FALSE(HyperMNetwork::Build(good, {}, {}, rng).ok());

  HyperMOptions too_many_layers;
  too_many_layers.num_layers = 10;  // 8-dim data has only log2(8)+1 = 4 levels
  EXPECT_FALSE(HyperMNetwork::Build(good, {{0}}, too_many_layers, rng).ok());

  EXPECT_FALSE(HyperMNetwork::Build(good, {{5}}, {}, rng).ok());  // bad index
}

TEST(NetworkBuildTest, AcceptsSimulatorSettingsOnDefaultTransport) {
  // Every network sends through the fault-model transport, so each fault
  // setting and the radio channel build on default options — no switch to
  // set first.
  data::Dataset good;
  good.items.push_back(Vector(8, 1.0));
  good.items.push_back(Vector(8, 0.5));
  const data::PeerAssignment assignment = {{0}, {1}};
  std::vector<std::pair<const char*, HyperMOptions>> simulated;
  const auto add = [](auto& cases, const char* name, auto set) {
    HyperMOptions options;
    set(options);
    cases.emplace_back(name, options);
  };
  add(simulated, "loss_rate", [](HyperMOptions& o) { o.net.faults.loss_rate = 0.1; });
  add(simulated, "peer_events", [](HyperMOptions& o) {
    o.net.faults.peer_events.push_back(net::PeerEvent{100.0, 1, false});
  });
  add(simulated, "partitions", [](HyperMOptions& o) {
    o.net.faults.partitions.push_back(net::Partition{0.0, 100.0, {0}});
  });
  add(simulated, "channel.enabled", [](HyperMOptions& o) { o.channel.enabled = true; });
  for (const auto& [name, options] : simulated) {
    Rng rng(1);
    Result<std::unique_ptr<HyperMNetwork>> net =
        HyperMNetwork::Build(good, assignment, options, rng);
    EXPECT_TRUE(net.ok()) << name << ": " << net.status().ToString();
  }
  // Every network owns a simulator, so the clock-driven settings build too.
  std::vector<std::pair<const char*, HyperMOptions>> clocked;
  add(clocked, "summary_ttl_ms", [](HyperMOptions& o) { o.net.summary_ttl_ms = 500.0; });
  add(clocked, "republish_period_ms",
      [](HyperMOptions& o) { o.net.republish_period_ms = 250.0; });
  add(clocked, "reissue_budget", [](HyperMOptions& o) {
    o.plan.reissue_budget = 2;
    o.plan.heal_window_ms = 100.0;
  });
  add(clocked, "trace_series_period_ms",
      [](HyperMOptions& o) { o.trace_series_period_ms = 50.0; });
  for (const auto& [name, options] : clocked) {
    Rng rng(1);
    Result<std::unique_ptr<HyperMNetwork>> net =
        HyperMNetwork::Build(good, assignment, options, rng);
    EXPECT_TRUE(net.ok()) << name << ": " << net.status().ToString();
  }
  // A negative loss rate is malformed.
  HyperMOptions negative_loss;
  negative_loss.net.faults.loss_rate = -0.1;
  Rng rng(1);
  Result<std::unique_ptr<HyperMNetwork>> malformed =
      HyperMNetwork::Build(good, assignment, negative_loss, rng);
  ASSERT_FALSE(malformed.ok());
  EXPECT_EQ(malformed.status().code(), StatusCode::kInvalidArgument);
  // The backbone's CDS is elected over the radio graph: without the channel
  // it is the one transport-related setting Build refuses.
  HyperMOptions backbone_only;
  backbone_only.backbone.enabled = true;
  Result<std::unique_ptr<HyperMNetwork>> no_radio =
      HyperMNetwork::Build(good, assignment, backbone_only, rng);
  ASSERT_FALSE(no_radio.ok());
  EXPECT_EQ(no_radio.status().code(), StatusCode::kInvalidArgument);
  // A heal window without a re-issue budget is accepted; it does nothing.
  HyperMOptions window_only;
  window_only.plan.heal_window_ms = 100.0;
  EXPECT_TRUE(HyperMNetwork::Build(good, assignment, window_only, rng).ok());
}

// The transport's link model obeys the rules the radio channel applies to
// its own copy: a negative overhead would give negative hop latencies, and
// HopMs would clamp a zero bandwidth to a tiny rate.
TEST(NetworkBuildTest, RejectsBadLinkModel) {
  data::Dataset good;
  good.items.push_back(Vector(8, 1.0));
  good.items.push_back(Vector(8, 0.5));
  const data::PeerAssignment assignment = {{0}, {1}};
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<double, double>> bad = {
      {-1.0, 125.0}, {inf, 125.0}, {nan, 125.0},
      {5.0, 0.0},    {5.0, -5.0},  {5.0, inf},   {5.0, nan}};
  for (const auto& [overhead, bandwidth] : bad) {
    HyperMOptions options;
    options.net.link.hop_overhead_ms = overhead;
    options.net.link.bandwidth_bytes_per_ms = bandwidth;
    Rng rng(1);
    Result<std::unique_ptr<HyperMNetwork>> net =
        HyperMNetwork::Build(good, assignment, options, rng);
    ASSERT_FALSE(net.ok()) << overhead << " ms, " << bandwidth << " B/ms";
    EXPECT_EQ(net.status().code(), StatusCode::kInvalidArgument);
  }
  HyperMOptions edge;
  edge.net.link.hop_overhead_ms = 0.0;
  edge.net.link.bandwidth_bytes_per_ms = 1e-3;
  Rng rng(1);
  EXPECT_TRUE(HyperMNetwork::Build(good, assignment, edge, rng).ok());
}

TEST(NetworkBuildTest, TopologyMatchesConfiguration) {
  TestBed bed = MakeTestBed();
  EXPECT_EQ(bed.network->num_peers(), 16);
  EXPECT_EQ(bed.network->num_layers(), 4);
  EXPECT_EQ(bed.network->data_dim(), 64u);
  EXPECT_EQ(bed.network->total_items(), 800);
  // Layer dims: A=1, D0=1, D1=2, D2=4.
  EXPECT_EQ(bed.network->overlay(0).dim(), 1u);
  EXPECT_EQ(bed.network->overlay(1).dim(), 1u);
  EXPECT_EQ(bed.network->overlay(2).dim(), 2u);
  EXPECT_EQ(bed.network->overlay(3).dim(), 4u);
  EXPECT_EQ(bed.network->level(0).name(), "A");
  EXPECT_EQ(bed.network->level(3).name(), "D2");
}

TEST(NetworkBuildTest, PublishesAtMostKpClustersPerPeerPerLayer) {
  HyperMOptions options;
  options.clusters_per_peer = 5;
  TestBed bed = MakeTestBed(options);
  for (int layer = 0; layer < bed.network->num_layers(); ++layer) {
    // A whole-cube range query surfaces every published cluster exactly once
    // (replicas are deduplicated by id).
    const size_t dim = bed.network->overlay(layer).dim();
    geom::Sphere everything{Vector(dim, 0.5), 2.0 * std::sqrt(static_cast<double>(dim))};
    Result<overlay::RangeQueryResult> all =
        const_cast<can::CanOverlay&>(bed.network->overlay(layer))
            .RangeQuery(everything, 0);
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    std::vector<int> per_peer(16, 0);
    int items_summarized = 0;
    for (const overlay::ClusterMatch& c : all->matches) {
      ASSERT_GE(c.owner_peer, 0);
      ASSERT_LT(c.owner_peer, 16);
      ++per_peer[static_cast<size_t>(c.owner_peer)];
      items_summarized += c.items;
    }
    for (int count : per_peer) {
      EXPECT_GT(count, 0);
      EXPECT_LE(count, 5);
    }
    // Every peer's items are covered by its published summaries.
    EXPECT_EQ(items_summarized, 800);
  }
}

TEST(NetworkBuildTest, InsertionTrafficRecorded) {
  TestBed bed = MakeTestBed();
  const sim::NetworkStats& stats = bed.network->stats();
  EXPECT_GT(stats.hops(sim::TrafficClass::kJoin), 0u);
  EXPECT_GT(stats.hops(sim::TrafficClass::kInsert) +
                stats.hops(sim::TrafficClass::kReplicate),
            0u);
  EXPECT_GT(stats.total_energy_millijoules(), 0.0);
}

TEST(NetworkBuildTest, SummarizationBeatsPerItemInsertion) {
  // The headline claim: publication cost is per-cluster, not per-item, so
  // once items/peer exceeds the published cluster count the per-item CAN
  // baseline loses. 2000 items over 10 peers (200 each) vs 10 clusters * 4
  // layers per peer is the paper's regime in miniature.
  TestBed bed = MakeTestBed({}, /*seed=*/21, /*items=*/2000, /*dim=*/64,
                            /*peers=*/10);
  const uint64_t hyperm_hops =
      bed.network->stats().hops(sim::TrafficClass::kInsert) +
      bed.network->stats().hops(sim::TrafficClass::kReplicate);

  Rng rng(21);
  Result<std::unique_ptr<CanItemBaseline>> baseline =
      CanItemBaseline::Build(bed.dataset, bed.assignment, {}, rng);
  ASSERT_TRUE(baseline.ok());
  const uint64_t baseline_hops =
      (*baseline)->stats().hops(sim::TrafficClass::kInsert);
  EXPECT_LT(hyperm_hops, baseline_hops);
}

TEST(NetworkQueryTest, RangeQueryFindsExactMatches) {
  TestBed bed = MakeTestBed();
  const FlatIndex oracle(bed.dataset);
  // Query centered at an existing item with a moderate radius.
  const Vector& query = bed.dataset.items[17];
  const double eps = oracle.KnnRadius(query, 10);
  RangeQueryInfo info;
  Result<std::vector<ItemId>> result =
      bed.network->RangeQuery(query, eps, /*querying_peer=*/0,
                              /*max_peers_contacted=*/-1, &info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<ItemId> truth = oracle.RangeSearch(query, eps);
  const PrecisionRecall pr = Evaluate(*result, truth);
  EXPECT_DOUBLE_EQ(pr.precision, 1.0);  // only true range members returned
  EXPECT_DOUBLE_EQ(pr.recall, 1.0);     // contacting all candidates: no misses
  EXPECT_GT(info.candidate_peers, 0);
  EXPECT_EQ(info.peers_contacted, info.candidate_peers);
}

TEST(NetworkQueryTest, ContactBudgetTradesRecall) {
  TestBed bed = MakeTestBed();
  const FlatIndex oracle(bed.dataset);
  const Vector& query = bed.dataset.items[3];
  const double eps = oracle.KnnRadius(query, 40);
  const std::vector<ItemId> truth = oracle.RangeSearch(query, eps);

  Result<std::vector<ItemId>> all =
      bed.network->RangeQuery(query, eps, 0, -1);
  Result<std::vector<ItemId>> one =
      bed.network->RangeQuery(query, eps, 0, 1);
  ASSERT_TRUE(all.ok() && one.ok());
  EXPECT_GE(Evaluate(*all, truth).recall, Evaluate(*one, truth).recall);
  EXPECT_DOUBLE_EQ(Evaluate(*one, truth).precision, 1.0);
}

TEST(NetworkQueryTest, ScoresAreSortedAndPositive) {
  TestBed bed = MakeTestBed();
  const Vector& query = bed.dataset.items[50];
  Result<std::vector<PeerScore>> scores = bed.network->ScorePeers(query, 0.5, 0);
  ASSERT_TRUE(scores.ok());
  for (size_t i = 0; i < scores->size(); ++i) {
    EXPECT_GT((*scores)[i].score, 0.0);
    if (i > 0) {
      EXPECT_GE((*scores)[i - 1].score, (*scores)[i].score);
    }
  }
}

TEST(NetworkQueryTest, RejectsBadQueries) {
  TestBed bed = MakeTestBed();
  EXPECT_FALSE(bed.network->RangeQuery(Vector(3, 0.0), 1.0, 0).ok());
  EXPECT_FALSE(bed.network->RangeQuery(bed.dataset.items[0], -1.0, 0).ok());
  EXPECT_FALSE(bed.network->RangeQuery(bed.dataset.items[0], 1.0, -1).ok());
  EXPECT_FALSE(bed.network->RangeQuery(bed.dataset.items[0], 1.0, 99).ok());
  KnnOptions knn;
  EXPECT_FALSE(bed.network->KnnQuery(bed.dataset.items[0], 0, knn, 0).ok());
  knn.c = 0.0;
  EXPECT_FALSE(bed.network->KnnQuery(bed.dataset.items[0], 5, knn, 0).ok());
}

TEST(NetworkQueryTest, RejectsNonFiniteOrHugeKnnC) {
  // Each per-peer request is ceil(C·k·share) cast to int: a NaN, an infinite
  // or a C·k past the int range used to pass validation and make that cast
  // undefined.
  TestBed bed = MakeTestBed();
  KnnOptions knn;
  for (double c : {std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(), 1e300,
                   static_cast<double>(std::numeric_limits<int>::max())}) {
    knn.c = c;
    Result<std::vector<ItemId>> r = bed.network->KnnQuery(bed.dataset.items[0], 5, knn, 0);
    ASSERT_FALSE(r.ok()) << "C = " << c;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << "C = " << c;
  }
  // A huge C·k inside the int range still answers.
  knn.c = 1e8;
  KnnQueryInfo info;
  ASSERT_TRUE(bed.network->KnnQuery(bed.dataset.items[0], 5, knn, 0, &info).ok());
  EXPECT_GT(info.items_requested, 0);
}

TEST(NetworkBuildTest, RejectsNonFiniteDataset) {
  // One NaN coordinate used to build fine and then hide true matches among
  // the finite items from range queries (a silent Thm 4.1 violation).
  Rng rng(3);
  data::MarkovOptions data_options;
  data_options.count = 400;
  data_options.dim = 32;
  data_options.num_families = 8;
  data::Dataset dataset = data::GenerateMarkov(data_options, rng).value();
  data::AssignmentOptions assign_options;
  assign_options.num_peers = 8;
  assign_options.num_interest_classes = 8;
  assign_options.min_peers_per_class = 2;
  assign_options.max_peers_per_class = 4;
  const data::PeerAssignment assignment =
      data::AssignByInterest(dataset, assign_options, rng).value();
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    data::Dataset poisoned = dataset;
    poisoned.items[5][7] = bad;
    Rng build_rng(4);
    Result<std::unique_ptr<HyperMNetwork>> net =
        HyperMNetwork::Build(poisoned, assignment, {}, build_rng);
    ASSERT_FALSE(net.ok()) << bad;
    EXPECT_EQ(net.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  Rng build_rng(4);
  EXPECT_TRUE(HyperMNetwork::Build(dataset, assignment, {}, build_rng).ok());
}

TEST(NetworkQueryTest, RejectsNonFiniteQueries) {
  TestBed bed = MakeTestBed();
  const Vector& good = bed.dataset.items[0];
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    Vector center = good;
    center[3] = bad;
    Result<std::vector<ItemId>> range = bed.network->RangeQuery(center, 0.3, 0);
    ASSERT_FALSE(range.ok()) << bad;
    EXPECT_EQ(range.status().code(), StatusCode::kInvalidArgument);
    Result<std::vector<ItemId>> knn = bed.network->KnnQuery(center, 5, KnnOptions{}, 0);
    ASSERT_FALSE(knn.ok()) << bad;
    EXPECT_EQ(knn.status().code(), StatusCode::kInvalidArgument);
    // A NaN radius used to abort inside the key mapper.
    Result<std::vector<ItemId>> eps = bed.network->RangeQuery(good, bad, 0);
    ASSERT_FALSE(eps.ok()) << bad;
    EXPECT_EQ(eps.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(NetworkQueryTest, KnnRejectsPeerCapBelowOne) {
  TestBed bed = MakeTestBed();
  KnnOptions knn;
  knn.max_peers = 0;  // would contact nobody
  Result<std::vector<ItemId>> none = bed.network->KnnQuery(bed.dataset.items[0], 10, knn, 0);
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kInvalidArgument);
  knn.max_peers = 1;  // the smallest cap still answers
  Result<std::vector<ItemId>> one = bed.network->KnnQuery(bed.dataset.items[0], 10, knn, 0);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_FALSE(one->empty());
}

// With one contacted peer its share of the score sum is exactly 1, so it is
// asked for ceil(C*k) items; (C*k*s)/s rounded one ulp high would ask for
// one more.
TEST(NetworkQueryTest, KnnSinglePeerRequestsExactlyCk) {
  TestBed bed = MakeTestBed();
  KnnOptions options;
  options.c = 1.5;
  options.max_peers = 1;
  constexpr int kK = 10;
  const int64_t expected = static_cast<int64_t>(std::ceil(options.c * kK));
  int over = 0;
  for (size_t q = 0; q < 240; ++q) {
    KnnQueryInfo info;
    Result<std::vector<ItemId>> result =
        bed.network->KnnQuery(bed.dataset.items[q], kK, options, 0, &info);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(info.range.peers_contacted, 1) << "query " << q;
    EXPECT_EQ(info.items_requested, expected) << "query " << q;
    if (info.items_requested != expected) ++over;
  }
  EXPECT_EQ(over, 0);
}

TEST(NetworkQueryTest, KnnReturnsSortedResultsCoveringK) {
  TestBed bed = MakeTestBed();
  const FlatIndex oracle(bed.dataset);
  const Vector& query = bed.dataset.items[99];
  KnnOptions options;
  options.c = 1.5;
  KnnQueryInfo info;
  Result<std::vector<ItemId>> result = bed.network->KnnQuery(query, 10, options, 0, &info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->empty());
  // Sorted by true distance.
  for (size_t i = 1; i < result->size(); ++i) {
    EXPECT_LE(vec::Distance(bed.dataset.items[static_cast<size_t>((*result)[i - 1])], query),
              vec::Distance(bed.dataset.items[static_cast<size_t>((*result)[i])], query) +
                  1e-12);
  }
  EXPECT_EQ(info.level_radii.size(), 4u);
  EXPECT_GT(info.items_requested, 0);
  // Self-query: the item itself must be the first result.
  EXPECT_EQ((*result)[0], 99);
}

TEST(NetworkQueryTest, KnnRecallIsReasonable) {
  TestBed bed = MakeTestBed({}, /*seed=*/2);
  const FlatIndex oracle(bed.dataset);
  std::vector<PrecisionRecall> prs;
  KnnOptions options;
  options.c = 1.5;
  for (int q = 0; q < 20; ++q) {
    const Vector& query = bed.dataset.items[static_cast<size_t>(q * 37 % 800)];
    const int k = 10;
    Result<std::vector<ItemId>> result = bed.network->KnnQuery(query, k, options, 0);
    ASSERT_TRUE(result.ok());
    prs.push_back(Evaluate(*result, oracle.Knn(query, k)));
  }
  const EffectivenessSummary s = Summarize(prs);
  EXPECT_GT(s.mean_recall, 0.5);  // the paper balances P/R above 50%
}

TEST(NetworkChurnTest, PostCreationInsertsDegradeRecallGracefully) {
  TestBed bed = MakeTestBed({}, /*seed=*/3);
  // New items resembling existing ones, added without republication.
  Rng rng(42);
  data::MarkovOptions new_options;
  new_options.count = 200;
  new_options.dim = 64;
  new_options.num_families = 8;
  Result<data::Dataset> extra = data::GenerateMarkov(new_options, rng);
  ASSERT_TRUE(extra.ok());

  data::Dataset combined = bed.dataset;
  for (size_t i = 0; i < extra->items.size(); ++i) {
    const ItemId id = static_cast<ItemId>(combined.items.size());
    combined.items.push_back(extra->items[i]);
    ASSERT_TRUE(bed.network
                    ->AddItemWithoutRepublish(static_cast<int>(i % 16), id,
                                              extra->items[i])
                    .ok());
  }
  EXPECT_EQ(bed.network->total_items(), 1000);

  const FlatIndex oracle(combined);
  double recall_sum = 0.0;
  int queries = 0;
  for (int q = 0; q < 10; ++q) {
    const Vector& query = combined.items[static_cast<size_t>(800 + q * 13)];
    const double eps = oracle.KnnRadius(query, 20);
    Result<std::vector<ItemId>> result = bed.network->RangeQuery(query, eps, 0, -1);
    ASSERT_TRUE(result.ok());
    recall_sum += Evaluate(*result, oracle.RangeSearch(query, eps)).recall;
    ++queries;
  }
  const double recall = recall_sum / queries;
  // Recall drops below the no-churn 100% but stays usable (paper: <=33% loss
  // at 45% new items; here 25% new items).
  EXPECT_GT(recall, 0.4);
  EXPECT_LE(recall, 1.0);
}

TEST(NetworkChurnTest, AddItemRejectsBadInputWithoutTouchingThePeer) {
  TestBed bed = MakeTestBed();
  const ItemId id = static_cast<ItemId>(bed.dataset.items.size());
  const size_t before_items = bed.network->peer(2).num_items();
  const uint64_t before_epoch = bed.network->summary_epoch();
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    Vector features = bed.dataset.items[0];
    features[5] = bad;
    const Status status = bed.network->AddItemWithoutRepublish(2, id, features);
    ASSERT_FALSE(status.ok()) << bad;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
  const Vector short_features(bed.network->data_dim() - 1, 0.5);
  EXPECT_EQ(bed.network->AddItemWithoutRepublish(2, id, short_features).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(bed.network->AddItemWithoutRepublish(-1, id, bed.dataset.items[0]).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(bed.network
                ->AddItemWithoutRepublish(bed.network->num_peers(), id,
                                          bed.dataset.items[0])
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(bed.network->peer(2).num_items(), before_items);
  EXPECT_EQ(bed.network->summary_epoch(), before_epoch);

  // A finite item is accepted and bumps the epoch exactly once.
  ASSERT_TRUE(bed.network->AddItemWithoutRepublish(2, id, bed.dataset.items[0]).ok());
  EXPECT_EQ(bed.network->peer(2).num_items(), before_items + 1);
  EXPECT_EQ(bed.network->summary_epoch(), before_epoch + 1);
}

TEST(NetworkQueryTest, PointQueryFindsExactItem) {
  TestBed bed = MakeTestBed({}, /*seed=*/31);
  for (ItemId id : {5, 123, 700}) {
    Result<std::vector<ItemId>> result =
        bed.network->PointQuery(bed.dataset.items[static_cast<size_t>(id)], 0);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_NE(std::find(result->begin(), result->end(), id), result->end())
        << "item " << id << " not found by point query";
  }
}

TEST(NetworkQueryTest, PointQueryMissesAbsentPoint) {
  TestBed bed = MakeTestBed({}, /*seed=*/32);
  Vector absent(64, 12345.678);  // far outside the data range
  Result<std::vector<ItemId>> result = bed.network->PointQuery(absent, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(NetworkChurnTest, RepublishRestoresTheGuarantee) {
  TestBed bed = MakeTestBed({}, /*seed=*/33);
  // Add fresh items without republication.
  Rng rng(77);
  data::MarkovOptions new_options;
  new_options.count = 300;
  new_options.dim = 64;
  new_options.num_families = 8;
  Result<data::Dataset> extra = data::GenerateMarkov(new_options, rng);
  ASSERT_TRUE(extra.ok());
  data::Dataset combined = bed.dataset;
  for (size_t i = 0; i < extra->items.size(); ++i) {
    const ItemId id = static_cast<ItemId>(combined.items.size());
    combined.items.push_back(extra->items[i]);
    ASSERT_TRUE(bed.network
                    ->AddItemWithoutRepublish(static_cast<int>(i % 16), id,
                                              extra->items[i])
                    .ok());
  }
  // Repair: every peer republishes its summaries.
  Rng republish_rng(99);
  for (int p = 0; p < bed.network->num_peers(); ++p) {
    ASSERT_TRUE(bed.network->RepublishPeer(p, republish_rng).ok());
  }
  // The no-false-dismissal guarantee holds again over the full corpus.
  const FlatIndex oracle(combined);
  for (int q = 0; q < 8; ++q) {
    const size_t index = (static_cast<size_t>(q) * 131 + 801) % combined.items.size();
    const Vector& query = combined.items[index];
    const double eps = oracle.KnnRadius(query, 15);
    Result<std::vector<ItemId>> result = bed.network->RangeQuery(query, eps, 0, -1);
    ASSERT_TRUE(result.ok());
    const PrecisionRecall pr = Evaluate(*result, oracle.RangeSearch(query, eps));
    EXPECT_DOUBLE_EQ(pr.recall, 1.0) << "query " << index;
  }
}

TEST(NetworkChurnTest, RepublishIsIdempotentOnCleanPeers) {
  TestBed bed = MakeTestBed({}, /*seed=*/34);
  const FlatIndex oracle(bed.dataset);
  Rng rng(5);
  ASSERT_TRUE(bed.network->RepublishPeer(3, rng).ok());
  ASSERT_TRUE(bed.network->RepublishPeer(3, rng).ok());  // twice is fine
  const Vector& query = bed.dataset.items[10];
  const double eps = oracle.KnnRadius(query, 10);
  Result<std::vector<ItemId>> result = bed.network->RangeQuery(query, eps, 0, -1);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(Evaluate(*result, oracle.RangeSearch(query, eps)).recall, 1.0);
}

TEST(NetworkConfigTest, OrthonormalWaveletsPreserveTheGuarantee) {
  for (wavelet::WaveletKind kind : {wavelet::WaveletKind::kHaarOrthonormal,
                                    wavelet::WaveletKind::kDaubechies4}) {
    HyperMOptions options;
    options.wavelet_kind = kind;
    TestBed bed = MakeTestBed(options, /*seed=*/15);
    const FlatIndex oracle(bed.dataset);
    const Vector& query = bed.dataset.items[44];
    const double eps = oracle.KnnRadius(query, 10);
    Result<std::vector<ItemId>> result = bed.network->RangeQuery(query, eps, 0, -1);
    ASSERT_TRUE(result.ok());
    EXPECT_DOUBLE_EQ(Evaluate(*result, oracle.RangeSearch(query, eps)).recall, 1.0)
        << wavelet::WaveletKindName(kind);
  }
}

TEST(NetworkConfigTest, SumPolicyStillFindsResults) {
  HyperMOptions options;
  options.score_policy = ScorePolicy::kSum;
  TestBed bed = MakeTestBed(options, /*seed=*/5);
  const FlatIndex oracle(bed.dataset);
  const Vector& query = bed.dataset.items[22];
  const double eps = oracle.KnnRadius(query, 10);
  Result<std::vector<ItemId>> result = bed.network->RangeQuery(query, eps, 0, -1);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(Evaluate(*result, oracle.RangeSearch(query, eps)).recall, 1.0);
}

TEST(NetworkConfigTest, SingleLayerNetworkWorks) {
  HyperMOptions options;
  options.num_layers = 1;
  TestBed bed = MakeTestBed(options, /*seed=*/6);
  EXPECT_EQ(bed.network->num_layers(), 1);
  const FlatIndex oracle(bed.dataset);
  const Vector& query = bed.dataset.items[40];
  const double eps = oracle.KnnRadius(query, 5);
  Result<std::vector<ItemId>> result = bed.network->RangeQuery(query, eps, 0, -1);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(Evaluate(*result, oracle.RangeSearch(query, eps)).recall, 1.0);
}

// Finds the first recorded span with the given name, or nullptr.
const obs::SpanRecord* FindSpan(const std::vector<obs::SpanRecord>& spans,
                                const std::string& name) {
  for (const obs::SpanRecord& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

TEST(NetworkObsTest, BuildAndQueriesEmitNestedSpans) {
  obs::Tracer::Global().Reset();
  obs::MetricsRegistry::Global().Reset();
  TestBed bed = MakeTestBed();
  const Vector& query = bed.dataset.items[10];
  ASSERT_TRUE(bed.network->RangeQuery(query, 0.5, 0, -1).ok());
  KnnOptions knn_options;
  ASSERT_TRUE(bed.network->KnnQuery(query, 5, knn_options, 1).ok());

  const std::vector<obs::SpanRecord>& spans = obs::Tracer::Global().spans();
  const obs::SpanRecord* build = FindSpan(spans, "build");
  ASSERT_NE(build, nullptr);
  EXPECT_EQ(build->parent, -1);
  for (const char* phase : {"build/decompose", "build/overlays", "build/publish"}) {
    const obs::SpanRecord* child = FindSpan(spans, phase);
    ASSERT_NE(child, nullptr) << phase;
    EXPECT_EQ(child->parent, build->id) << phase;
    EXPECT_GE(child->duration_us, 0.0) << phase;
  }

  // Range query: query/range > query/score > query/layer<N> for every layer,
  // plus the retrieval phase.
  const obs::SpanRecord* range = FindSpan(spans, "query/range");
  ASSERT_NE(range, nullptr);
  const obs::SpanRecord* score = FindSpan(spans, "query/score");
  ASSERT_NE(score, nullptr);
  EXPECT_EQ(score->parent, range->id);
  for (int layer = 0; layer < bed.network->num_layers(); ++layer) {
    const std::string name = "query/layer" + std::to_string(layer);
    const obs::SpanRecord* layer_span = FindSpan(spans, name);
    ASSERT_NE(layer_span, nullptr) << name;
    EXPECT_EQ(layer_span->parent, score->id) << name;
  }
  const obs::SpanRecord* retrieve = FindSpan(spans, "query/retrieve");
  ASSERT_NE(retrieve, nullptr);
  EXPECT_EQ(retrieve->parent, range->id);

  // k-NN query: per-layer probe spans nest directly under query/knn.
  const obs::SpanRecord* knn = FindSpan(spans, "query/knn");
  ASSERT_NE(knn, nullptr);
  bool knn_layer_found = false;
  for (const obs::SpanRecord& s : spans) {
    if (s.parent == knn->id && s.name.rfind("query/layer", 0) == 0) {
      knn_layer_found = true;
    }
  }
  EXPECT_TRUE(knn_layer_found);
  obs::Tracer::Global().Reset();
}

// Level probes run one after another on the calling thread, each inside its
// own query/layerN span: the spans of one query are disjoint, in level order,
// children of the query's scoring span, and together no longer than it.
void ExpectSerialLevelSpans(const std::vector<obs::SpanRecord>& spans,
                            const obs::SpanRecord& parent, int num_layers) {
  std::vector<const obs::SpanRecord*> levels;
  for (const obs::SpanRecord& s : spans) {
    if (s.name.rfind("query/layer", 0) == 0 && s.parent == parent.id) {
      levels.push_back(&s);
    }
  }
  ASSERT_EQ(levels.size(), static_cast<size_t>(num_layers)) << parent.name;
  constexpr double kClockSlackUs = 1e-3;  // rounding of start + duration
  double sum_us = 0.0;
  double prev_end_us = parent.start_us;
  for (int layer = 0; layer < num_layers; ++layer) {
    const obs::SpanRecord& s = *levels[static_cast<size_t>(layer)];
    EXPECT_EQ(s.name, "query/layer" + std::to_string(layer)) << parent.name;
    EXPECT_EQ(s.depth, parent.depth + 1) << s.name;
    ASSERT_GE(s.duration_us, 0.0) << s.name;
    EXPECT_GE(s.start_us + kClockSlackUs, prev_end_us) << parent.name << " " << s.name;
    prev_end_us = s.start_us + s.duration_us;
    sum_us += s.duration_us;
  }
  EXPECT_LE(prev_end_us, parent.start_us + parent.duration_us + kClockSlackUs)
      << parent.name;
  EXPECT_LE(sum_us, parent.duration_us + kClockSlackUs) << parent.name;
}

TEST(NetworkObsTest, LevelSpansAreDisjointAndInLevelOrder) {
  obs::Tracer::Global().Reset();
  TestBed bed = MakeTestBed();
  obs::Tracer::Global().Reset();
  const Vector& query = bed.dataset.items[10];
  ASSERT_TRUE(bed.network->RangeQuery(query, 0.5, 0, -1).ok());
  ASSERT_TRUE(bed.network->KnnQuery(query, 5, KnnOptions{}, 1).ok());

  const std::vector<obs::SpanRecord>& spans = obs::Tracer::Global().spans();
  const obs::SpanRecord* score = FindSpan(spans, "query/score");
  ASSERT_NE(score, nullptr);
  ExpectSerialLevelSpans(spans, *score, bed.network->num_layers());
  const obs::SpanRecord* knn = FindSpan(spans, "query/knn");
  ASSERT_NE(knn, nullptr);
  ExpectSerialLevelSpans(spans, *knn, bed.network->num_layers());
  obs::Tracer::Global().Reset();
}

TEST(NetworkObsTest, QueryAccountingReachesRegistryAndStats) {
  obs::Tracer::Global().Reset();
  obs::MetricsRegistry::Global().Reset();
  TestBed bed = MakeTestBed();
  // No info struct passed: the network must still fold the per-query
  // accounting into the registry (the structs are thin views).
  ASSERT_TRUE(bed.network->RangeQuery(bed.dataset.items[3], 0.5, 0, -1).ok());
  EXPECT_EQ(bed.network->stats().queries_served(), 1u);

  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.counters.at("query.range_count"), 1u);
  EXPECT_EQ(snap.histograms.at("query.candidate_peers").count, 1u);
  EXPECT_EQ(snap.histograms.at("query.peers_contacted").count, 1u);
  EXPECT_GT(snap.counters.at("build.clusters_published"), 0u);
  obs::Tracer::Global().Reset();
}

// A range query its arguments reject is not counted; k-NN queries already
// validate before they count.
TEST(NetworkObsTest, RejectedRangeQueryIsNotCounted) {
  TestBed bed = MakeTestBed();
  const auto range_count = [] {
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
    const auto it = snap.counters.find("query.range_count");
    return it == snap.counters.end() ? uint64_t{0} : it->second;
  };
  const uint64_t before = range_count();
  const Vector& center = bed.dataset.items[3];
  EXPECT_FALSE(bed.network->RangeQuery(center, -1.0, 0, -1).ok());
  EXPECT_FALSE(bed.network->RangeQuery(Vector(3, 0.0), 0.5, 0, -1).ok());
  EXPECT_FALSE(bed.network->PointQuery(center, /*querying_peer=*/-1).ok());
  EXPECT_EQ(range_count(), before);
  ASSERT_TRUE(bed.network->RangeQuery(center, 0.5, 0, -1).ok());
  EXPECT_EQ(range_count(), before + 1);
}

}  // namespace
}  // namespace hyperm::core
