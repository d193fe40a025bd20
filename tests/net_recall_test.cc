// Recall under packet loss — the transport subsystem's acceptance bar:
// a Hyper-M deployment over a 20%-lossy MANET with link-layer retries must
// retain >= 95% of the fault-free recall, and seeded fault runs must repeat
// exactly.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/markov_generator.h"
#include "data/peer_assignment.h"
#include "hyperm/eval.h"
#include "hyperm/flat_index.h"
#include "hyperm/network.h"

namespace hyperm::core {
namespace {

struct Bed {
  data::Dataset dataset;
  data::PeerAssignment assignment;
  std::unique_ptr<HyperMNetwork> network;
};

Bed MakeBed(const HyperMOptions& options) {
  // Same seed + data for every transport configuration: the only difference
  // between beds is the fault model.
  Rng rng(4242);
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

struct RecallOutcome {
  double mean_recall = 0.0;
  double total_latency_ms = 0.0;
  int layers_lost = 0;
};

// Mean range-query recall against the centralized exact oracle over a fixed
// deterministic query workload.
RecallOutcome MeasureRecall(Bed& bed, int num_queries = 24,
                            double epsilon = 0.8) {
  FlatIndex oracle(bed.dataset);
  std::vector<PrecisionRecall> results;
  RecallOutcome outcome;
  for (int q = 0; q < num_queries; ++q) {
    const Vector& center =
        bed.dataset.items[static_cast<size_t>(q * 17 % 600)];
    RangeQueryInfo info;
    Result<std::vector<ItemId>> retrieved =
        bed.network->RangeQuery(center, epsilon, /*querying_peer=*/q % 16,
                                /*max_peers_contacted=*/-1, &info);
    EXPECT_TRUE(retrieved.ok()) << retrieved.status().ToString();
    results.push_back(Evaluate(retrieved.value(), oracle.RangeSearch(center, epsilon)));
    outcome.total_latency_ms += info.latency_ms;
    outcome.layers_lost += info.layers_lost;
  }
  outcome.mean_recall = Summarize(results).mean_recall;
  return outcome;
}

HyperMOptions LossyOptions(double loss) {
  HyperMOptions options;
  options.net.faults.loss_rate = loss;
  return options;
}

TEST(NetRecallTest, RetriesHoldRecallUnderTwentyPercentLoss) {
  Bed fault_free = MakeBed(HyperMOptions{});
  const RecallOutcome baseline = MeasureRecall(fault_free);
  EXPECT_GT(baseline.mean_recall, 0.9);  // the fault-free system works
  EXPECT_EQ(baseline.layers_lost, 0);

  Bed lossy = MakeBed(LossyOptions(0.2));
  const RecallOutcome with_retries = MeasureRecall(lossy);
  // The acceptance bar: loss <= 20% with ARQ keeps >= 95% of fault-free recall.
  EXPECT_GE(with_retries.mean_recall, 0.95 * baseline.mean_recall)
      << "fault-free " << baseline.mean_recall << " vs lossy "
      << with_retries.mean_recall;
  // Holding recall is not free: the transport had to retransmit.
  EXPECT_GT(lossy.network->transport().counters().retries, 0u);
  EXPECT_GT(with_retries.total_latency_ms, 0.0);
}

TEST(NetRecallTest, SeededFaultRunsAreReproducible) {
  Bed a = MakeBed(LossyOptions(0.15));
  const RecallOutcome ra = MeasureRecall(a);
  Bed b = MakeBed(LossyOptions(0.15));
  const RecallOutcome rb = MeasureRecall(b);
  EXPECT_EQ(ra.mean_recall, rb.mean_recall);
  EXPECT_EQ(ra.total_latency_ms, rb.total_latency_ms);
  EXPECT_EQ(ra.layers_lost, rb.layers_lost);
  EXPECT_EQ(a.network->transport().counters().messages_sent,
            b.network->transport().counters().messages_sent);
  EXPECT_EQ(a.network->transport().counters().dropped_loss,
            b.network->transport().counters().dropped_loss);
  EXPECT_EQ(a.network->transport().counters().retries,
            b.network->transport().counters().retries);
}

}  // namespace
}  // namespace hyperm::core
