// End-to-end acceptance of the radio-channel subsystem: a Hyper-M deployment
// over a mobile sparse radio field must (a) actually experience geometry-
// driven partitions — nonzero disconnected windows and unreachable
// transmissions, with no FaultPlan scripting at all — and (b) recover recall
// after the field heals, via soft-state republish re-inserting the summaries
// that expired or went missing while islands were separated.

#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "data/markov_generator.h"
#include "data/peer_assignment.h"
#include "hyperm/eval.h"
#include "hyperm/flat_index.h"
#include "hyperm/network.h"

namespace hyperm::core {
namespace {

constexpr int kNumPeers = 16;
constexpr int kNumItems = 400;

struct Bed {
  data::Dataset dataset;
  data::PeerAssignment assignment;
  std::unique_ptr<HyperMNetwork> network;
};

Bed MakeBed(const HyperMOptions& options) {
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

double MeasureRecall(Bed& bed, int num_queries = 16, double epsilon = 0.8) {
  FlatIndex oracle(bed.dataset);
  std::vector<PrecisionRecall> results;
  for (int q = 0; q < num_queries; ++q) {
    const Vector& center =
        bed.dataset.items[static_cast<size_t>(q * 17 % kNumItems)];
    Result<std::vector<ItemId>> retrieved = bed.network->RangeQuery(
        center, epsilon, /*querying_peer=*/q % kNumPeers,
        /*max_peers_contacted=*/-1);
    EXPECT_TRUE(retrieved.ok()) << retrieved.status().ToString();
    results.push_back(
        Evaluate(retrieved.value(), oracle.RangeSearch(center, epsilon)));
  }
  return Summarize(results).mean_recall;
}

HyperMOptions ChannelOptionsFor(double speed_m_per_s) {
  HyperMOptions options;
  options.net.retry.adaptive = true;  // exercise Jacobson ARQ end to end
  options.net.summary_ttl_ms = 1500.0;
  options.net.republish_period_ms = 400.0;
  options.channel.enabled = true;
  options.channel.field.field_size_m = 260.0;
  options.channel.field.radio_range_m = 60.0;  // sparse: mobility splits it
  options.channel.field.max_placement_attempts = 5000;  // sparse starts are rare
  options.channel.tick_ms = 100.0;
  options.channel.speed_m_per_s = speed_m_per_s;
  return options;
}

TEST(ChannelRecallTest, StaticSparseFieldWorksAndChargesMultiHopTraffic) {
  Bed bed = MakeBed(ChannelOptionsFor(/*speed_m_per_s=*/0.0));
  const channel::RadioChannel* radio = bed.network->radio_channel();
  ASSERT_NE(radio, nullptr);
  EXPECT_TRUE(radio->connected());
  // Let the publication backlog drain before timing anything.
  bed.network->AdvanceTo(radio->DrainedAtMs() + 1.0);
  const double recall = MeasureRecall(bed);
  EXPECT_GT(recall, 0.9);
  // Overlay hops ride multi-hop radio paths: physical transmissions exceed
  // overlay messages, and some sends waited behind a busy radio.
  EXPECT_GT(radio->counters().radio_transmissions,
            bed.network->stats().queries_served());
  EXPECT_GT(radio->counters().queued_transmissions, 0u);
  EXPECT_EQ(radio->counters().mobility_steps, 0u);  // speed 0: no ticks
  EXPECT_EQ(bed.network->transport().counters().dropped_unreachable, 0u);
}

TEST(ChannelRecallTest, MobilitySplitsHealAndRepublishRestoresRecall) {
  // Fresh-recall yardstick: the identical deployment with a frozen field.
  Bed still = MakeBed(ChannelOptionsFor(/*speed_m_per_s=*/0.0));
  still.network->AdvanceTo(still.network->radio_channel()->DrainedAtMs() + 1.0);
  const double fresh_recall = MeasureRecall(still);
  ASSERT_GT(fresh_recall, 0.9);

  Bed bed = MakeBed(ChannelOptionsFor(/*speed_m_per_s=*/25.0));
  const channel::RadioChannel* radio = bed.network->radio_channel();
  ASSERT_NE(radio, nullptr);

  // Walk the clock tick by tick until mobility splits the field, querying
  // while it is split so cross-island traffic is provably dropped, then keep
  // walking until it heals and a republish cycle has run.
  const double tick = radio->tick_ms();
  sim::TimeMs t = radio->DrainedAtMs() + 1.0;
  bed.network->AdvanceTo(t);
  bool queried_while_split = false;
  int healed_ticks = 0;
  constexpr int kMaxTicks = 3000;
  int step = 0;
  for (; step < kMaxTicks; ++step) {
    t += tick;
    bed.network->AdvanceTo(t);
    const bool split_seen = radio->counters().disconnected_steps > 0;
    if (!split_seen) continue;
    if (!radio->connected()) {
      healed_ticks = 0;
      if (!queried_while_split) {
        // One query from each island: at least one crosses the gap.
        for (int p = 0; p < kNumPeers; ++p) {
          (void)bed.network->RangeQuery(bed.dataset.items[0], 0.8, p, -1);
        }
        queried_while_split = true;
      }
    } else if (++healed_ticks * tick > 3.0 * 400.0) {
      break;  // stably healed + several republish rounds: recovery complete
    }
  }
  ASSERT_GT(radio->counters().disconnected_steps, 0u)
      << "mobility never split the sparse field within " << kMaxTicks << " ticks";
  ASSERT_TRUE(queried_while_split);
  ASSERT_LT(step, kMaxTicks) << "field never stably healed";

  // (a) partitions emerged from geometry: transmissions were dropped as
  // unreachable without any scripted FaultPlan partition.
  EXPECT_GT(bed.network->transport().counters().dropped_unreachable, 0u);
  EXPECT_EQ(bed.network->transport().counters().dropped_partition, 0u);

  // (b) soft state healed the index: post-heal recall is close to fresh.
  const double healed_recall = MeasureRecall(bed);
  EXPECT_GE(healed_recall, 0.9 * fresh_recall)
      << "fresh " << fresh_recall << " vs healed " << healed_recall;
  EXPECT_GT(bed.network->soft_state().republishes, 0u);
}

TEST(ChannelRecallTest, ChannelRunsAreReproducible) {
  auto run = [] {
    Bed bed = MakeBed(ChannelOptionsFor(/*speed_m_per_s=*/25.0));
    bed.network->AdvanceTo(2000.0);
    const double recall = MeasureRecall(bed, /*num_queries=*/8);
    const net::TransportCounters counters = bed.network->transport().counters();
    const channel::ChannelCounters radio = bed.network->radio_channel()->counters();
    return std::tuple(recall, counters.messages_sent, counters.dropped_unreachable,
                      radio.radio_transmissions, radio.queue_wait_ms,
                      radio.disconnected_steps);
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace hyperm::core
