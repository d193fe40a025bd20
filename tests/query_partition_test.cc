// Partition-tolerant query planning: queries issued from a peer that a
// scripted partition has isolated must fail soft (deferred levels, empty
// results, no crash) without re-issue, and recover the fault-free answer
// when a heal window + re-issue budget let the deferred levels re-probe
// after the partition closes.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/markov_generator.h"
#include "data/peer_assignment.h"
#include "hyperm/flat_index.h"
#include "hyperm/network.h"

namespace hyperm::core {
namespace {

constexpr int kNumPeers = 16;
constexpr int kNumItems = 400;

// The partition window: peer 0 is cut off from everyone during [1s, 2s).
// Build runs at t=0, safely before it, so publication is unaffected.
constexpr double kSplitStartMs = 1000.0;
constexpr double kSplitEndMs = 2000.0;

struct Bed {
  data::Dataset dataset;
  data::PeerAssignment assignment;
  std::unique_ptr<HyperMNetwork> network;
};

Bed MakeBed(const HyperMOptions& options) {
  // Same seed + data for every configuration: the only difference between
  // beds is the fault model and the query plan.
  Rng rng(4242);
  data::MarkovOptions data_options;
  data_options.count = kNumItems;
  data_options.dim = 32;
  data_options.num_families = 8;
  Result<data::Dataset> ds = data::GenerateMarkov(data_options, rng);
  EXPECT_TRUE(ds.ok());
  Bed bed;
  bed.dataset = std::move(ds).value();
  data::AssignmentOptions assign_options;
  assign_options.num_peers = kNumPeers;
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

HyperMOptions BaseOptions() {
  HyperMOptions options;
  options.num_layers = 3;
  options.clusters_per_peer = 6;
  // FaultPlan defaults: loss_rate 0, no jitter — only the partition bites.
  return options;
}

HyperMOptions PartitionedOptions() {
  HyperMOptions options = BaseOptions();
  net::Partition split;
  split.start_ms = kSplitStartMs;
  split.end_ms = kSplitEndMs;
  split.group = {0};
  options.net.faults.partitions.push_back(split);
  return options;
}

TEST(QueryPartitionTest, IsolatedPeerFailsSoftWithoutReissue) {
  Bed bed = MakeBed(PartitionedOptions());
  bed.network->AdvanceTo(kSplitStartMs + 200.0);

  bool all_levels_deferred_seen = false;
  for (int q = 0; q < 10; ++q) {
    const Vector& center = bed.dataset.items[static_cast<size_t>(q * 31 % kNumItems)];
    RangeQueryInfo info;
    Result<std::vector<ItemId>> retrieved = bed.network->RangeQuery(
        center, /*epsilon=*/0.8, /*querying_peer=*/0,
        /*max_peers_contacted=*/-1, &info);
    ASSERT_TRUE(retrieved.ok()) << retrieved.status().ToString();
    ASSERT_EQ(info.level_outcomes.size(),
              static_cast<size_t>(bed.network->num_layers()));
    EXPECT_EQ(info.reissues, 0);  // no budget configured
    int deferred = 0;
    for (LevelDelivery d : info.level_outcomes) {
      // A full partition never looks like random loss.
      EXPECT_NE(d, LevelDelivery::kLost) << LevelDeliveryName(d);
      if (d == LevelDelivery::kDeferred) ++deferred;
    }
    EXPECT_EQ(deferred, info.layers_deferred);
    EXPECT_EQ(deferred, info.layers_lost);
    if (deferred == bed.network->num_layers()) {
      // Every level died crossing the partition: min-score aggregation has
      // nothing to merge and the query must come back empty, not crash.
      all_levels_deferred_seen = true;
      EXPECT_EQ(info.candidate_peers, 0);
      EXPECT_TRUE(retrieved.value().empty());
    }
  }
  EXPECT_TRUE(all_levels_deferred_seen)
      << "no query lost every level; partition scripting is not biting";
}

TEST(QueryPartitionTest, DeferredLevelsMergeAfterHeal) {
  // Three beds, same seeds: fault-free oracle, partitioned without re-issue,
  // partitioned with a heal window that crosses the partition's end.
  Bed fault_free = MakeBed(BaseOptions());
  Bed dropping = MakeBed(PartitionedOptions());
  HyperMOptions healing_options = PartitionedOptions();
  healing_options.plan.reissue_budget = 2;
  healing_options.plan.heal_window_ms = 400.0;
  Bed healing = MakeBed(healing_options);

  const double query_time = kSplitStartMs + 200.0;  // mid-partition
  fault_free.network->AdvanceTo(query_time);
  dropping.network->AdvanceTo(query_time);
  healing.network->AdvanceTo(query_time);

  const Vector& center = fault_free.dataset.items[3];
  const double epsilon = 0.8;

  RangeQueryInfo free_info;
  Result<std::vector<ItemId>> free_items = fault_free.network->RangeQuery(
      center, epsilon, /*querying_peer=*/0, -1, &free_info);
  ASSERT_TRUE(free_items.ok());
  ASSERT_FALSE(free_items.value().empty());
  EXPECT_EQ(free_info.layers_lost, 0);

  RangeQueryInfo dropping_info;
  Result<std::vector<ItemId>> dropped_items = dropping.network->RangeQuery(
      center, epsilon, /*querying_peer=*/0, -1, &dropping_info);
  ASSERT_TRUE(dropped_items.ok());
  EXPECT_GT(dropping_info.layers_lost, 0);
  EXPECT_LT(dropped_items.value().size(), free_items.value().size());

  RangeQueryInfo healing_info;
  Result<std::vector<ItemId>> healed_items = healing.network->RangeQuery(
      center, epsilon, /*querying_peer=*/0, -1, &healing_info);
  ASSERT_TRUE(healed_items.ok());
  // Two 400 ms rounds from t=1200 reach t=2000 — the partition's end — so
  // every deferred level re-probes successfully and merges into the
  // aggregation: the answer is the fault-free one.
  EXPECT_GT(healing_info.reissues, 0);
  EXPECT_GT(healing_info.layers_deferred, 0);
  EXPECT_EQ(healing_info.layers_lost, 0);
  EXPECT_EQ(healed_items.value(), free_items.value());
  // The recovered levels paid for their heal waits in simulated latency.
  EXPECT_GT(healing_info.latency_ms, free_info.latency_ms);
  EXPECT_GE(healing.network->now(), kSplitEndMs);
}

TEST(QueryPartitionTest, KnnHealsToTheFaultFreeAnswer) {
  Bed fault_free = MakeBed(BaseOptions());
  Bed dropping = MakeBed(PartitionedOptions());
  HyperMOptions healing_options = PartitionedOptions();
  healing_options.plan.reissue_budget = 2;
  healing_options.plan.heal_window_ms = 400.0;
  Bed healing = MakeBed(healing_options);

  const double query_time = kSplitStartMs + 200.0;
  fault_free.network->AdvanceTo(query_time);
  dropping.network->AdvanceTo(query_time);
  healing.network->AdvanceTo(query_time);

  const Vector& center = fault_free.dataset.items[7];
  const KnnOptions knn;
  const int k = 10;

  KnnQueryInfo free_info;
  Result<std::vector<ItemId>> free_items = fault_free.network->KnnQuery(
      center, k, knn, /*querying_peer=*/0, &free_info);
  ASSERT_TRUE(free_items.ok());
  ASSERT_GE(static_cast<int>(free_items.value().size()), k);

  // Without re-issue the isolated querier must not crash — the kSum fallback
  // and empty-merge paths absorb fully-deferred probes.
  KnnQueryInfo dropping_info;
  Result<std::vector<ItemId>> dropped_items = dropping.network->KnnQuery(
      center, k, knn, /*querying_peer=*/0, &dropping_info);
  ASSERT_TRUE(dropped_items.ok()) << dropped_items.status().ToString();
  EXPECT_GT(dropping_info.range.layers_lost, 0);
  EXPECT_LT(dropped_items.value().size(), free_items.value().size());

  KnnQueryInfo healing_info;
  Result<std::vector<ItemId>> healed_items = healing.network->KnnQuery(
      center, k, knn, /*querying_peer=*/0, &healing_info);
  ASSERT_TRUE(healed_items.ok());
  EXPECT_GT(healing_info.range.reissues, 0);
  EXPECT_EQ(healing_info.range.layers_lost, 0);
  EXPECT_EQ(healed_items.value(), free_items.value());
}

}  // namespace
}  // namespace hyperm::core
