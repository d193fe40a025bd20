// Flight-recorder acceptance test (ISSUE 6): a partitioned, healed range
// query must be reconstructible end to end from the event log ALONE — plan,
// per-level probe rounds, per-message transmission attempts with drop
// causes, the heal-window re-issue, and the final per-level lattice outcome
// — with no causal-chain gaps. And the log must be bit-identical at 1 and 8
// pool threads (events are recorded only from the orchestrating thread).
//
// The scenario mirrors query_partition_test: peer 0 is cut off during
// [1s, 2s), the query runs mid-partition at t=1200 with a 400 ms heal
// window and a re-issue budget of 2, so the second round crosses the
// partition's end and every deferred level heals.

#include <array>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/markov_generator.h"
#include "data/peer_assignment.h"
#include "hyperm/network.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/timeline.h"

namespace hyperm::core {
namespace {

constexpr int kNumPeers = 16;
constexpr int kNumItems = 400;
constexpr double kSplitStartMs = 1000.0;
constexpr double kSplitEndMs = 2000.0;
constexpr double kQueryTimeMs = kSplitStartMs + 200.0;
constexpr double kEpsilon = 0.8;

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

HyperMOptions HealingOptions(int num_threads = 0) {
  HyperMOptions options;
  options.num_layers = 3;
  options.clusters_per_peer = 6;
  options.num_threads = num_threads;
  net::Partition split;
  split.start_ms = kSplitStartMs;
  split.end_ms = kSplitEndMs;
  split.group = {0};
  options.net.faults.partitions.push_back(split);
  options.plan.reissue_budget = 2;
  options.plan.heal_window_ms = 400.0;
  return options;
}

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::EventLog::Global().Reset(); }
  void TearDown() override { obs::EventLog::Global().Reset(); }
};

// Builds the bed un-armed (keeping publication traffic out of the log), arms
// the recorder, then runs the canonical partitioned-and-healed query.
std::vector<ItemId> RunHealedQuery(const HyperMOptions& options,
                                   RangeQueryInfo* info) {
  Bed bed = MakeBed(options);
  obs::EventLog::Global().Arm();
  bed.network->AdvanceTo(kQueryTimeMs);
  const Vector& center = bed.dataset.items[3];
  Result<std::vector<ItemId>> retrieved = bed.network->RangeQuery(
      center, kEpsilon, /*querying_peer=*/0, /*max_peers_contacted=*/-1, info);
  EXPECT_TRUE(retrieved.ok()) << retrieved.status().ToString();
  EXPECT_GE(bed.network->now(), kSplitEndMs);  // the heal waits really ran
  return retrieved.value();
}

TEST_F(FlightRecorderTest, PartitionedQueryReconstructsEndToEnd) {
  RangeQueryInfo info;
  const std::vector<ItemId> retrieved = RunHealedQuery(HealingOptions(), &info);
  ASSERT_GT(info.reissues, 0);  // the scenario exercised the heal path
  ASSERT_EQ(info.layers_lost, 0);
  ASSERT_FALSE(retrieved.empty());

  const obs::EventLog& log = obs::EventLog::Global();
  EXPECT_EQ(log.dropped(), 0u);
  const std::vector<obs::Event>& events = log.events();

  const std::vector<int64_t> ids = obs::QueryIdsInLog(events);
  ASSERT_EQ(ids.size(), 1u);
  Result<obs::QueryTimeline> reconstructed =
      obs::ReconstructQueryTimeline(events, ids[0]);
  ASSERT_TRUE(reconstructed.ok()) << reconstructed.status().ToString();
  const obs::QueryTimeline& timeline = reconstructed.value();

  // No gaps anywhere in the causal chain — the acceptance criterion.
  const Status chain = obs::ValidateCausalChain(timeline);
  EXPECT_TRUE(chain.ok()) << chain.ToString();

  // Plan: emitted at query time, by the querying peer, covering every layer.
  EXPECT_EQ(timeline.querying_peer, 0);
  EXPECT_DOUBLE_EQ(timeline.plan_ms, kQueryTimeMs);
  EXPECT_EQ(timeline.levels_planned, 3);
  ASSERT_EQ(timeline.levels.size(), 3u);

  // Done: after the partition closed, reporting the returned result count.
  EXPECT_GE(timeline.done_ms, kSplitEndMs);
  EXPECT_EQ(timeline.results, static_cast<int64_t>(retrieved.size()));

  // Heal: the executor parked at least once for the configured window, and
  // the re-issued rounds it merged match the query's own accounting.
  ASSERT_FALSE(timeline.heal_waits.empty());
  EXPECT_DOUBLE_EQ(timeline.heal_waits[0].value, 400.0);
  int64_t reissues = 0;
  bool saw_reissued_round = false;
  bool saw_partition_drop = false;
  bool saw_healed_level = false;
  for (const obs::LevelTrace& level : timeline.levels) {
    EXPECT_TRUE(level.has_final);
    reissues += level.reissues;
    for (const obs::ProbeRound& round : level.rounds) {
      EXPECT_TRUE(round.closed);
      if (round.attempt > 0) saw_reissued_round = true;
      for (const obs::MessageTrace& message : round.messages) {
        for (const obs::Event& attempt : message.attempts) {
          if ((attempt.kind == obs::EventKind::kMsgDrop ||
               attempt.kind == obs::EventKind::kMsgDeadLetter) &&
              attempt.cause == 3) {
            saw_partition_drop = true;  // cause mirrors kLostPartition
          }
        }
      }
    }
    // A level that needed re-issues must end delivered (fate 0) or detoured
    // (fate 1): the second round crossed the partition's end.
    if (level.reissues > 0) {
      saw_healed_level = true;
      EXPECT_LE(level.final_fate, 1) << obs::LevelFateName(level.final_fate);
      EXPECT_GE(level.rounds.size(), 2u);
    }
  }
  EXPECT_EQ(reissues, static_cast<int64_t>(info.reissues));
  EXPECT_TRUE(saw_reissued_round);
  EXPECT_TRUE(saw_partition_drop)
      << "no per-attempt partition drop cause in the reconstructed trace";
  EXPECT_TRUE(saw_healed_level);

  // Retrieve traffic ran after the heal, under the query id but outside any
  // level probe, and reached its peers (the partition was over).
  ASSERT_FALSE(timeline.retrievals.empty());
  for (const obs::MessageTrace& message : timeline.retrievals) {
    EXPECT_TRUE(message.delivered);
    EXPECT_EQ(message.final_cause, 0);
  }
}

TEST_F(FlightRecorderTest, DeadLettersCarryCausesWithoutReissueBudget) {
  // Same partition, no heal budget: levels defer for good, and the chain —
  // including the dead letters' partition causes — must still be complete.
  HyperMOptions options = HealingOptions();
  options.plan = QueryPlanOptions{};
  Bed bed = MakeBed(options);
  obs::EventLog::Global().Arm();
  bed.network->AdvanceTo(kQueryTimeMs);
  RangeQueryInfo info;
  Result<std::vector<ItemId>> retrieved = bed.network->RangeQuery(
      bed.dataset.items[3], kEpsilon, /*querying_peer=*/0, -1, &info);
  ASSERT_TRUE(retrieved.ok());
  ASSERT_GT(info.layers_deferred, 0);
  EXPECT_EQ(info.reissues, 0);

  const std::vector<obs::Event>& events = obs::EventLog::Global().events();
  const std::vector<int64_t> ids = obs::QueryIdsInLog(events);
  ASSERT_EQ(ids.size(), 1u);
  Result<obs::QueryTimeline> timeline =
      obs::ReconstructQueryTimeline(events, ids[0]);
  ASSERT_TRUE(timeline.ok()) << timeline.status().ToString();
  const Status chain = obs::ValidateCausalChain(timeline.value());
  EXPECT_TRUE(chain.ok()) << chain.ToString();

  EXPECT_TRUE(timeline.value().heal_waits.empty());
  bool saw_dead_letter = false;
  for (const obs::LevelTrace& level : timeline.value().levels) {
    EXPECT_EQ(level.rounds.size(), 1u);  // no re-issues without a budget
    for (const obs::MessageTrace& message : level.rounds[0].messages) {
      if (!message.delivered) {
        EXPECT_EQ(message.final_cause, 3);  // partition, never random loss
        saw_dead_letter = true;
      }
    }
  }
  EXPECT_TRUE(saw_dead_letter);
}

TEST_F(FlightRecorderTest, LogIsBitIdenticalAcrossThreadCounts) {
  RangeQueryInfo info_1;
  const std::vector<ItemId> retrieved_1 =
      RunHealedQuery(HealingOptions(/*num_threads=*/1), &info_1);
  const obs::EventLog& log = obs::EventLog::Global();
  const std::string jsonl_1 = obs::EventsToJsonl(log.events(), log.dropped());

  obs::EventLog::Global().Reset();

  RangeQueryInfo info_8;
  const std::vector<ItemId> retrieved_8 =
      RunHealedQuery(HealingOptions(/*num_threads=*/8), &info_8);
  const std::string jsonl_8 = obs::EventsToJsonl(log.events(), log.dropped());

  EXPECT_EQ(retrieved_1, retrieved_8);
  ASSERT_GT(jsonl_1.size(), 100u);  // a real log, not two empty trailers
  EXPECT_EQ(jsonl_1, jsonl_8);
}

// ROADMAP invariant 2 on default options: with loss, a crash/rejoin and a
// partition window, every logical message ends in exactly one recorded
// outcome, the per-cause drop events match the transport's counters, and
// every query's causal chain is complete. The recorder is armed before Build
// so the log covers the same sends as the cumulative counters.
TEST_F(FlightRecorderTest, AccountingClosesOnDefaultNetwork) {
  HyperMOptions options;
  options.net.faults.loss_rate = 0.2;
  options.net.faults.peer_events = {{150.0, 5, /*up=*/false},
                                    {650.0, 5, /*up=*/true}};
  options.net.faults.partitions.push_back(
      net::Partition{300.0, 500.0, {0, 1, 2}});
  obs::MetricsRegistry::Global().Reset();
  obs::EventLog::Global().Arm();
  Bed bed = MakeBed(options);
  for (int q = 0; q < 16; ++q) {
    bed.network->AdvanceTo(50.0 * (q + 1));
    const Vector& center = bed.dataset.items[static_cast<size_t>(q * 23)];
    const int peer = q % kNumPeers;
    EXPECT_TRUE(bed.network->RangeQuery(center, kEpsilon, peer).ok());
    EXPECT_TRUE(bed.network->KnnQuery(center, 5, KnnOptions{}, peer).ok());
  }

  const obs::EventLog& log = obs::EventLog::Global();
  ASSERT_EQ(log.dropped(), 0u);
  uint64_t sends = 0, delivers = 0, drops = 0, dead_letters = 0;
  std::array<uint64_t, 6> drops_by_cause{};
  for (const obs::Event& event : log.events()) {
    switch (event.kind) {
      case obs::EventKind::kMsgSend: ++sends; break;
      case obs::EventKind::kMsgDeliver: ++delivers; break;
      case obs::EventKind::kMsgDeadLetter: ++dead_letters; break;
      case obs::EventKind::kMsgDrop:
        ++drops;
        ASSERT_GE(event.cause, 1);
        ASSERT_LT(event.cause, 6);
        ++drops_by_cause[static_cast<size_t>(event.cause)];
        break;
      default: break;
    }
  }
  const net::TransportCounters counters = bed.network->transport().counters();
  ASSERT_GT(sends, 0u);
  EXPECT_EQ(sends, delivers + dead_letters);
  EXPECT_EQ(dead_letters, counters.dead_letters);
  EXPECT_EQ(counters.messages_sent, delivers + drops);  // free channel
  EXPECT_EQ(drops_by_cause[1], counters.dropped_loss);
  EXPECT_EQ(drops_by_cause[2], counters.dropped_down);
  EXPECT_EQ(drops_by_cause[3], counters.dropped_partition);
  EXPECT_EQ(drops_by_cause[4], counters.dropped_unreachable);
  EXPECT_EQ(drops_by_cause[5], counters.dropped_mac);
  // Every fault in the plan bit.
  EXPECT_GT(counters.dropped_loss, 0u);
  EXPECT_GT(counters.dropped_down, 0u);
  EXPECT_GT(counters.dropped_partition, 0u);
  EXPECT_EQ(bed.network->soft_state().crashes, 1u);
  EXPECT_EQ(bed.network->soft_state().rejoins, 1u);

  const obs::MetricsSnapshot metrics = obs::MetricsRegistry::Global().Snapshot();
  const auto messages = metrics.counters.find("net.messages");
  ASSERT_NE(messages, metrics.counters.end());
  EXPECT_EQ(messages->second, counters.messages_sent);

  const std::vector<int64_t> ids = obs::QueryIdsInLog(log.events());
  EXPECT_EQ(ids.size(), 32u);
  for (int64_t id : ids) {
    Result<obs::QueryTimeline> timeline =
        obs::ReconstructQueryTimeline(log.events(), id);
    ASSERT_TRUE(timeline.ok()) << id << ": " << timeline.status().ToString();
    const Status chain = obs::ValidateCausalChain(timeline.value());
    EXPECT_TRUE(chain.ok()) << id << ": " << chain.ToString();
  }
}

}  // namespace
}  // namespace hyperm::core
