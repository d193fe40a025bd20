// Soft-state semantics: published summaries carry TTLs, expiry sweeps
// garbage-collect them, and periodic republish by the owners keeps the
// distributed index alive — including healing it after peer crashes wipe
// a node's volatile summary store.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/markov_generator.h"
#include "data/peer_assignment.h"
#include "hyperm/eval.h"
#include "hyperm/flat_index.h"
#include "hyperm/network.h"
#include "obs/metrics.h"

namespace hyperm::core {
namespace {

struct Bed {
  data::Dataset dataset;
  data::PeerAssignment assignment;
  std::unique_ptr<HyperMNetwork> network;
};

Bed MakeBed(const HyperMOptions& options) {
  Rng rng(777);
  data::MarkovOptions data_options;
  data_options.count = 600;
  data_options.dim = 64;
  data_options.num_families = 8;
  Result<data::Dataset> ds = data::GenerateMarkov(data_options, rng);
  EXPECT_TRUE(ds.ok());
  Bed bed;
  bed.dataset = std::move(ds).value();
  data::AssignmentOptions assign_options;
  assign_options.num_peers = 16;
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

// Mean range-query recall against the exact oracle; all queries issued from
// peer 0 (a peer that stays up in every scenario below).
double MeasureRecall(Bed& bed, int num_queries = 12, double epsilon = 0.8) {
  FlatIndex oracle(bed.dataset);
  std::vector<PrecisionRecall> results;
  for (int q = 0; q < num_queries; ++q) {
    const Vector& center =
        bed.dataset.items[static_cast<size_t>(q * 29 % 600)];
    Result<std::vector<ItemId>> retrieved =
        bed.network->RangeQuery(center, epsilon, /*querying_peer=*/0);
    EXPECT_TRUE(retrieved.ok()) << retrieved.status().ToString();
    results.push_back(
        Evaluate(retrieved.value(), oracle.RangeSearch(center, epsilon)));
  }
  return Summarize(results).mean_recall;
}

TEST(NetRepublishTest, TtlAloneDecaysTheIndex) {
  // TTL but no republish: the whole distributed index evaporates.
  HyperMOptions options;
  options.net.summary_ttl_ms = 1000.0;
  options.net.republish_period_ms = 0.0;
  Bed bed = MakeBed(options);

  const double fresh = MeasureRecall(bed);
  EXPECT_GT(fresh, 0.9);

  bed.network->AdvanceTo(2100.0);  // sweeps at 500/1000/1500/2000
  const double decayed = MeasureRecall(bed);
  EXPECT_LT(decayed, 0.3) << "index should have expired";
  EXPECT_GT(bed.network->soft_state().summaries_expired, 0u);
  EXPECT_EQ(bed.network->soft_state().republishes, 0u);
}

TEST(NetRepublishTest, RepublishSustainsTheIndexPastItsTtl) {
  HyperMOptions options;
  options.net.summary_ttl_ms = 1000.0;
  options.net.republish_period_ms = 500.0;
  Bed bed = MakeBed(options);

  const double fresh = MeasureRecall(bed);
  bed.network->AdvanceTo(2100.0);  // two full TTLs later
  const double sustained = MeasureRecall(bed);
  EXPECT_GE(sustained, fresh - 1e-12)
      << "republish must keep summaries refreshed in place";
  EXPECT_GT(bed.network->soft_state().republishes, 0u);
  EXPECT_EQ(bed.network->soft_state().summaries_lost, 0u);
}

TEST(NetRepublishTest, CrashDegradesAndRepublishHealsRecall) {
  obs::MetricsRegistry::Global().Reset();

  HyperMOptions options;
  options.net.summary_ttl_ms = 3000.0;       // sweeps every 1500 ms
  options.net.republish_period_ms = 2000.0;
  options.net.faults.peer_events = {
      {100.0, 3, /*up=*/false},   // two peers crash early...
      {100.0, 7, /*up=*/false},
      {4100.0, 3, /*up=*/true},   // ...and rejoin (empty) much later
      {4100.0, 7, /*up=*/true},
  };
  Bed bed = MakeBed(options);

  const double before = MeasureRecall(bed);
  EXPECT_GT(before, 0.9);

  // Crash applied: their summary shards are wiped and their items are
  // unreachable, so live peers' queries lose recall.
  bed.network->AdvanceTo(150.0);
  EXPECT_EQ(bed.network->soft_state().crashes, 2u);
  EXPECT_GT(bed.network->soft_state().summaries_lost, 0u);
  EXPECT_FALSE(bed.network->peer_up(3));
  EXPECT_FALSE(bed.network->peer_up(7));
  const double during = MeasureRecall(bed);
  EXPECT_LT(during, before);

  // Past rejoin + at least one republish round with everyone up: the sweep
  // at t=4500 expired the crashed owners' stale entries (published at t=0
  // with expires_at=3000, never refreshed while down) and the tick at
  // t=6000 re-published every peer's summaries.
  bed.network->AdvanceTo(6100.0);
  EXPECT_EQ(bed.network->soft_state().rejoins, 2u);
  EXPECT_TRUE(bed.network->peer_up(3));
  EXPECT_TRUE(bed.network->peer_up(7));
  EXPECT_GT(bed.network->soft_state().summaries_expired, 0u);
  EXPECT_GT(bed.network->soft_state().republishes, 0u);
  const double after = MeasureRecall(bed);
  EXPECT_GT(after, during);
  EXPECT_GE(after, 0.99 * before)
      << "before " << before << " during " << during << " after " << after;

  // The obs layer mirrors the soft-state ledger.
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  for (const char* name : {"net.crashes", "net.rejoins", "net.summaries_lost",
                           "net.summaries_expired", "net.republishes"}) {
    const auto it = snap.counters.find(name);
    ASSERT_NE(it, snap.counters.end()) << name;
    EXPECT_GT(it->second, 0u) << name;
  }
}

// Soft state needs a clock, not faults: on the default fault-free network a
// TTL shorter than the republish period empties the index at the first sweep
// past it, and the next republish tick restores it — each an epoch bump.
TEST(NetRepublishTest, ReliableTransportExpiresAndRepublishes) {
  HyperMOptions options;
  options.net.summary_ttl_ms = 400.0;        // sweeps every 200 ms
  options.net.republish_period_ms = 1000.0;
  Bed bed = MakeBed(options);

  const double fresh = MeasureRecall(bed);
  EXPECT_GT(fresh, 0.9);
  const uint64_t built_epoch = bed.network->summary_epoch();

  bed.network->AdvanceTo(700.0);  // the t=600 sweep expires every summary
  EXPECT_GT(bed.network->soft_state().summaries_expired, 0u);
  EXPECT_EQ(bed.network->soft_state().republishes, 0u);
  const uint64_t expired_epoch = bed.network->summary_epoch();
  EXPECT_GT(expired_epoch, built_epoch);
  EXPECT_LT(MeasureRecall(bed), 0.3) << "index should have expired";

  bed.network->AdvanceTo(1050.0);  // the t=1000 tick republishes every peer
  EXPECT_EQ(bed.network->soft_state().republishes,
            static_cast<uint64_t>(bed.network->num_peers()));
  EXPECT_GT(bed.network->summary_epoch(), expired_epoch);
  EXPECT_GE(MeasureRecall(bed), fresh - 1e-12);
  // Without faults nothing can lose a message.
  EXPECT_EQ(bed.network->soft_state().inserts_lost, 0u);
  EXPECT_EQ(bed.network->soft_state().summaries_lost, 0u);
}

}  // namespace
}  // namespace hyperm::core
