// The result cache's coherence contract: a cached answer never outlives the
// summaries it was computed from. Mechanically, ResultCache entries are
// (epoch, TTL)-guarded, and HyperMNetwork::summary_epoch() must bump on
// every answer-relevant state change — post-creation inserts, explicit
// republishes, crash wipes, rejoins, TTL expiry sweeps, and the republish
// tick that repairs wiped state — while staying put across answer-idempotent
// maintenance (plain TTL-refresh ticks) and across queries themselves.

#include "serve/cache.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/markov_generator.h"
#include "data/peer_assignment.h"
#include "hyperm/network.h"

namespace hyperm::serve {
namespace {

CacheOptions EnabledCache(double ttl_ms) {
  CacheOptions options;
  options.enabled = true;
  options.ttl_ms = ttl_ms;
  return options;
}

TEST(ResultCacheTest, FillThenLookupHits) {
  ResultCache cache(4, EnabledCache(1'000.0));
  cache.Fill(/*peer=*/1, /*signature=*/42, /*epoch=*/7, /*now_ms=*/0.0,
             {10, 11, 12});
  const std::vector<core::ItemId>* hit = cache.Lookup(1, 42, 7, 500.0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, (std::vector<core::ItemId>{10, 11, 12}));
  EXPECT_EQ(cache.stats().hits, 1u);
  // Caches are per peer: the same signature on another peer is a miss.
  EXPECT_EQ(cache.Lookup(2, 42, 7, 500.0), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ResultCacheTest, EpochMismatchInvalidates) {
  ResultCache cache(2, EnabledCache(/*ttl_ms=*/0.0));  // TTL disabled
  cache.Fill(0, 42, /*epoch=*/7, 0.0, {1});
  // The network state moved on; the entry must die, not serve stale data.
  EXPECT_EQ(cache.Lookup(0, 42, /*epoch=*/8, 0.0), nullptr);
  EXPECT_EQ(cache.stats().epoch_invalidations, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 0u);  // erased on the spot, not just skipped
}

TEST(ResultCacheTest, TtlExpiresEntries) {
  ResultCache cache(2, EnabledCache(/*ttl_ms=*/100.0));
  cache.Fill(0, 42, 7, /*now_ms=*/0.0, {1});
  ASSERT_NE(cache.Lookup(0, 42, 7, 99.0), nullptr);
  EXPECT_EQ(cache.Lookup(0, 42, 7, 101.0), nullptr);
  EXPECT_EQ(cache.stats().ttl_expirations, 1u);
  // ttl_ms <= 0 disables the clock entirely (epoch-only coherence).
  ResultCache eternal(1, EnabledCache(/*ttl_ms=*/0.0));
  eternal.Fill(0, 1, 7, 0.0, {2});
  EXPECT_NE(eternal.Lookup(0, 1, 7, 1.0e12), nullptr);
}

TEST(ResultCacheTest, DisabledCacheNeverHits) {
  CacheOptions disabled;
  disabled.enabled = false;
  ResultCache cache(2, disabled);
  cache.Fill(0, 42, 7, 0.0, {1});
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(0, 42, 7, 0.0), nullptr);
}

// -- summary_epoch(): the network side of the coherence argument -----------

struct Bed {
  data::Dataset dataset;
  data::PeerAssignment assignment;
  std::unique_ptr<core::HyperMNetwork> network;
};

Bed MakeBed(const core::HyperMOptions& options) {
  Rng rng(4242);
  data::MarkovOptions data_options;
  data_options.count = 64;
  data_options.dim = 8;
  data_options.num_families = 4;
  Result<data::Dataset> ds = data::GenerateMarkov(data_options, rng);
  EXPECT_TRUE(ds.ok());
  Bed bed;
  bed.dataset = std::move(ds).value();
  data::AssignmentOptions assign_options;
  assign_options.num_peers = 8;
  assign_options.num_interest_classes = 4;
  Result<data::PeerAssignment> assignment =
      data::AssignByInterest(bed.dataset, assign_options, rng);
  EXPECT_TRUE(assignment.ok());
  bed.assignment = std::move(assignment).value();
  Result<std::unique_ptr<core::HyperMNetwork>> net =
      core::HyperMNetwork::Build(bed.dataset, bed.assignment, options, rng);
  EXPECT_TRUE(net.ok()) << net.status().ToString();
  bed.network = std::move(net).value();
  return bed;
}

TEST(SummaryEpochTest, QueriesDoNotBumpTheEpoch) {
  core::HyperMOptions options;
  Bed bed = MakeBed(options);
  const uint64_t before = bed.network->summary_epoch();
  Result<std::vector<core::ItemId>> r =
      bed.network->RangeQuery(bed.dataset.items[0], 0.5, /*querying_peer=*/0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(bed.network->summary_epoch(), before);
}

TEST(SummaryEpochTest, InsertAndRepublishBump) {
  core::HyperMOptions options;
  Bed bed = MakeBed(options);
  const uint64_t e0 = bed.network->summary_epoch();
  ASSERT_TRUE(bed.network
                  ->AddItemWithoutRepublish(
                      0, static_cast<core::ItemId>(bed.dataset.items.size()),
                      bed.dataset.items[0])
                  .ok());
  const uint64_t e1 = bed.network->summary_epoch();
  EXPECT_GT(e1, e0);
  Rng rng(7);
  ASSERT_TRUE(bed.network->RepublishPeer(0, rng).ok());
  EXPECT_GT(bed.network->summary_epoch(), e1);
}

TEST(SummaryEpochTest, CrashAndRejoinBothBump) {
  core::HyperMOptions options;
  options.net.faults.peer_events.push_back(
      net::PeerEvent{/*at_ms=*/100.0, /*peer=*/1, /*up=*/false});
  options.net.faults.peer_events.push_back(
      net::PeerEvent{/*at_ms=*/200.0, /*peer=*/1, /*up=*/true});
  Bed bed = MakeBed(options);
  const uint64_t e0 = bed.network->summary_epoch();
  bed.network->AdvanceTo(150.0);  // crash wipes peer 1's published summaries
  const uint64_t e1 = bed.network->summary_epoch();
  EXPECT_GT(e1, e0);
  bed.network->AdvanceTo(250.0);  // rejoin: up again, stores still empty
  EXPECT_GT(bed.network->summary_epoch(), e1);
}

TEST(SummaryEpochTest, ExpirySweepBumpsOnlyWhenEntriesExpire) {
  core::HyperMOptions options;
  options.net.summary_ttl_ms = 500.0;  // swept every 250 ms
  Bed bed = MakeBed(options);
  const uint64_t e0 = bed.network->summary_epoch();
  // First sweep finds everything fresh: answer-idempotent, no bump.
  bed.network->AdvanceTo(450.0);
  EXPECT_EQ(bed.network->summary_epoch(), e0);
  // Past the TTL the sweep removes summaries — that can change answers.
  bed.network->AdvanceTo(1'000.0);
  EXPECT_GT(bed.network->summary_epoch(), e0);
}

TEST(SummaryEpochTest, RepublishTickRepairBumpsViaDirtyFlag) {
  core::HyperMOptions options;
  options.net.republish_period_ms = 300.0;
  options.net.faults.peer_events.push_back(
      net::PeerEvent{/*at_ms=*/100.0, /*peer=*/2, /*up=*/false});
  options.net.faults.peer_events.push_back(
      net::PeerEvent{/*at_ms=*/150.0, /*peer=*/2, /*up=*/true});
  Bed bed = MakeBed(options);
  bed.network->AdvanceTo(200.0);  // crash + rejoin: summaries wiped, dirty
  const uint64_t after_fault = bed.network->summary_epoch();
  // The next tick (t=300) re-publishes the wiped peer: one repair bump.
  bed.network->AdvanceTo(350.0);
  const uint64_t after_repair = bed.network->summary_epoch();
  EXPECT_GT(after_repair, after_fault);
  // Later ticks merely refresh TTLs on an already-consistent state: no bump.
  bed.network->AdvanceTo(1'200.0);
  EXPECT_EQ(bed.network->summary_epoch(), after_repair);
}

}  // namespace
}  // namespace hyperm::serve
