// Serving-engine acceptance: admission control is never silent (every shed
// is accounted by cause AND emitted as a flight-recorder event), cached and
// shortcut-accelerated serving returns the exact answers the plain path
// returns (fail-soft: miner state can cost airtime, never recall), and the
// shortcut miner's promote/demote lifecycle behaves.

#include "serve/engine.h"

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/markov_generator.h"
#include "data/peer_assignment.h"
#include "geom/shapes.h"
#include "hyperm/network.h"
#include "obs/event_log.h"
#include "serve/shortcuts.h"

namespace hyperm::serve {
namespace {

struct Bed {
  data::Dataset dataset;
  data::PeerAssignment assignment;
  std::unique_ptr<core::HyperMNetwork> network;
};

// `with_channel` needs `unreliable`; a bed with neither runs on the default
// reliable transport.
Bed MakeBed(bool with_channel = true, bool unreliable = true) {
  Rng rng(4242);
  data::MarkovOptions data_options;
  data_options.count = 128;
  data_options.dim = 16;
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
  core::HyperMOptions options;
  options.net.unreliable = unreliable;
  if (with_channel) {
    options.channel.enabled = true;
    options.channel.field.field_size_m = 200.0;
    options.channel.field.radio_range_m = 80.0;
    options.channel.field.max_placement_attempts = 5000;
    options.channel.speed_m_per_s = 0.0;
  }
  Result<std::unique_ptr<core::HyperMNetwork>> net =
      core::HyperMNetwork::Build(bed.dataset, bed.assignment, options, rng);
  EXPECT_TRUE(net.ok()) << net.status().ToString();
  bed.network = std::move(net).value();
  if (with_channel) {
    bed.network->AdvanceTo(bed.network->radio_channel()->DrainedAtMs() + 1.0);
  }
  return bed;
}

ServeOptions BaseServeOptions() {
  ServeOptions serve;
  serve.workload.duration_ms = 5'000.0;
  serve.workload.offered_qps = 3.0;
  serve.workload.num_templates = 6;
  serve.workload.zipf_s = 1.25;
  serve.workload.range_fraction = 1.0;
  serve.range_epsilon = 0.6;
  serve.deadline_ms = 30'000.0;
  return serve;
}

TEST(ServeEngineTest, AccountingIsExhaustive) {
  Bed bed = MakeBed();
  ServeOptions serve = BaseServeOptions();
  const std::vector<QueryTemplate> templates = MakeTemplates(
      bed.dataset.items, serve.workload, serve.range_epsilon, serve.knn_k);
  const std::vector<Arrival> schedule =
      GenerateArrivals(serve.workload, bed.network->num_peers());
  ServeEngine engine(bed.network.get(), serve);
  Result<ServeStats> stats = engine.Run(templates, schedule);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->offered, schedule.size());
  EXPECT_EQ(stats->offered, stats->admitted + stats->shed);
  EXPECT_EQ(stats->shed, stats->shed_tx_backlog + stats->shed_dispatch_lag);
  EXPECT_EQ(stats->admitted, stats->completed + stats->failed);
  EXPECT_EQ(stats->completed, stats->t2a_ms.size());
  EXPECT_TRUE(std::is_sorted(stats->t2a_ms.begin(), stats->t2a_ms.end()));
}

TEST(ServeEngineTest, ShedsAreNeverSilent) {
  obs::EventLog::Global().Reset();
  obs::EventLog::Global().Arm();
  Bed bed = MakeBed();
  ServeOptions serve = BaseServeOptions();
  // A watermark below one transmission's airtime: the first admitted query
  // saturates the "radio" and everything scheduled behind it must shed —
  // each with a recorded cause and a kServeShed event, never silently.
  serve.admission.max_backlog_ms = 0.1;
  const std::vector<QueryTemplate> templates = MakeTemplates(
      bed.dataset.items, serve.workload, serve.range_epsilon, serve.knn_k);
  const std::vector<Arrival> schedule =
      GenerateArrivals(serve.workload, bed.network->num_peers());
  ServeEngine engine(bed.network.get(), serve);
  Result<ServeStats> stats = engine.Run(templates, schedule);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->shed, 0u);
  EXPECT_EQ(stats->shed, stats->shed_tx_backlog + stats->shed_dispatch_lag);
  uint64_t shed_events = 0;
  uint64_t admit_events = 0;
  for (const obs::Event& e : obs::EventLog::Global().events()) {
    if (e.kind == obs::EventKind::kServeShed) {
      ++shed_events;
      // Every shed names a real cause.
      EXPECT_STRNE(obs::ShedCauseName(e.cause), "unknown");
    }
    if (e.kind == obs::EventKind::kServeAdmit) ++admit_events;
  }
  EXPECT_EQ(shed_events, stats->shed);
  EXPECT_EQ(admit_events, stats->admitted);
  obs::EventLog::Global().Reset();
}

// The default (reliable-transport) network serves on its own clock too:
// dispatch advances it to every arrival, so a time-to-answer is the query's
// simulated latency (never negative) and the deadline separates the answers
// that beat it from those that did not.
TEST(ServeEngineTest, ReliableTransportServesOnTheNetworkClock) {
  Bed bed = MakeBed(/*with_channel=*/false, /*unreliable=*/false);
  ASSERT_FALSE(bed.network->unreliable());
  ServeOptions serve = BaseServeOptions();
  // This bed's range queries answer in 37–73 ms of LinkModel hop time.
  serve.deadline_ms = 55.0;
  const std::vector<QueryTemplate> templates = MakeTemplates(
      bed.dataset.items, serve.workload, serve.range_epsilon, serve.knn_k);
  const std::vector<Arrival> schedule =
      GenerateArrivals(serve.workload, bed.network->num_peers());
  ASSERT_FALSE(schedule.empty());
  const double start_ms = bed.network->now();
  ServeEngine engine(bed.network.get(), serve);
  Result<ServeStats> stats = engine.Run(templates, schedule);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->completed, schedule.size());
  EXPECT_GE(bed.network->now(), start_ms + schedule.back().t_ms);
  uint64_t within = 0;
  for (double t2a : stats->t2a_ms) {
    EXPECT_GE(t2a, 0.0);
    if (t2a <= serve.deadline_ms) ++within;
  }
  EXPECT_EQ(stats->deadline_met, within);
  // The deadline sits inside this bed's latency range: some answers beat it
  // and some miss it.
  EXPECT_GT(stats->deadline_met, 0u);
  EXPECT_LT(stats->deadline_met, stats->completed);
}

// Caches + shortcuts must never change an answer — only its cost. Serve the
// identical schedule against identical beds with the serving aids on and
// off, and require the per-arrival answer sets to match exactly.
TEST(ServeEngineTest, CachesAndShortcutsPreserveAnswers) {
  auto run = [](bool serving_on) {
    Bed bed = MakeBed();
    ServeOptions serve = BaseServeOptions();
    serve.cache.enabled = serving_on;
    serve.cache.ttl_ms = serve.workload.duration_ms;
    serve.shortcuts.enabled = serving_on;
    const std::vector<QueryTemplate> templates = MakeTemplates(
        bed.dataset.items, serve.workload, serve.range_epsilon, serve.knn_k);
    const std::vector<Arrival> schedule =
        GenerateArrivals(serve.workload, bed.network->num_peers());
    std::vector<std::vector<core::ItemId>> answers;
    ServeEngine engine(bed.network.get(), serve);
    Result<ServeStats> stats = engine.Run(
        templates, schedule,
        [&](const Arrival&, const std::vector<core::ItemId>& items, bool,
            double) {
          std::vector<core::ItemId> sorted = items;
          std::sort(sorted.begin(), sorted.end());
          answers.push_back(std::move(sorted));
        });
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    if (serving_on) {
      EXPECT_GT(stats->cache_hits, 0u);
    }
    return answers;
  };
  const std::vector<std::vector<core::ItemId>> plain = run(false);
  const std::vector<std::vector<core::ItemId>> served = run(true);
  ASSERT_EQ(plain.size(), served.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i], served[i]) << "answer " << i << " changed";
  }
}

// A provider that hints every probe at one fixed node — wrong zone for most
// queries, and (optionally) a node that is down. Either way the executor
// must deliver the same answers as the un-hinted path.
class PinnedHint : public core::ShortcutProvider {
 public:
  explicit PinnedHint(overlay::NodeId node) : node_(node) {}
  overlay::NodeId EntryHint(int, const geom::Sphere&) override {
    return node_;
  }
  void Observe(int, const geom::Sphere&, overlay::NodeId, bool,
               bool) override {}

 private:
  overlay::NodeId node_;
};

TEST(ServeEngineTest, StaleOrWrongHintsCostAirtimeNeverRecall) {
  auto answers_with_provider =
      [](core::ShortcutProvider* provider) {
        Bed bed = MakeBed();
        bed.network->set_shortcut_provider(provider);
        std::vector<std::vector<core::ItemId>> answers;
        for (int q = 0; q < 8; ++q) {
          Result<std::vector<core::ItemId>> r = bed.network->RangeQuery(
              bed.dataset.items[static_cast<size_t>(q * 17 % 128)], 0.6,
              /*querying_peer=*/q % bed.network->num_peers());
          EXPECT_TRUE(r.ok()) << r.status().ToString();
          std::vector<core::ItemId> sorted = std::move(r).value();
          std::sort(sorted.begin(), sorted.end());
          answers.push_back(std::move(sorted));
        }
        bed.network->set_shortcut_provider(nullptr);
        return answers;
      };
  const auto plain = answers_with_provider(nullptr);
  // Wrong-zone hints: the overlay re-routes from the hinted node.
  PinnedHint wrong(/*node=*/3);
  EXPECT_EQ(answers_with_provider(&wrong), plain);
  // Invalid hints: the executor falls back to the plain plan outright.
  PinnedHint invalid(overlay::kInvalidNode);
  EXPECT_EQ(answers_with_provider(&invalid), plain);
}

// -- ShortcutMiner lifecycle ------------------------------------------------

ShortcutOptions MinerOptions() {
  ShortcutOptions options;
  options.enabled = true;
  return options;
}

static_assert(ShortcutMiner::kPromoteThreshold == 3,
              "the lifecycle tests below count support up to 3");

TEST(ShortcutMinerTest, PromotesAfterThresholdSupport) {
  ShortcutMiner miner(MinerOptions());
  const geom::Sphere sphere{Vector(4, 0.25), 0.1};
  EXPECT_EQ(miner.EntryHint(0, sphere), overlay::kInvalidNode);
  miner.Observe(0, sphere, /*entry_node=*/5, /*delivered=*/true,
                /*via_shortcut=*/false);
  miner.Observe(0, sphere, 5, true, false);
  EXPECT_EQ(miner.EntryHint(0, sphere), overlay::kInvalidNode);  // support 2
  miner.Observe(0, sphere, 5, true, false);
  EXPECT_EQ(miner.EntryHint(0, sphere), 5);  // support 3 == threshold
  EXPECT_EQ(miner.stats().promotions, 1u);
  // Same center, different layer: a distinct cell, still cold.
  EXPECT_EQ(miner.EntryHint(1, sphere), overlay::kInvalidNode);
}

TEST(ShortcutMinerTest, StaleHintDemotesAndScrubsSupport) {
  ShortcutMiner miner(MinerOptions());
  const geom::Sphere sphere{Vector(4, 0.25), 0.1};
  for (int i = 0; i < 3; ++i) miner.Observe(0, sphere, 5, true, false);
  ASSERT_EQ(miner.EntryHint(0, sphere), 5);
  // The hinted probe failed (node crashed): demote immediately, and the dead
  // node must not flap back in on its old window support.
  miner.Observe(0, sphere, 5, /*delivered=*/false, /*via_shortcut=*/true);
  EXPECT_EQ(miner.stats().demotions, 1u);
  EXPECT_EQ(miner.stats().stale, 1u);
  EXPECT_EQ(miner.EntryHint(0, sphere), overlay::kInvalidNode);
  miner.Observe(0, sphere, 5, true, false);
  miner.Observe(0, sphere, 5, true, false);
  EXPECT_EQ(miner.EntryHint(0, sphere), overlay::kInvalidNode);  // 2 < 3
  miner.Observe(0, sphere, 5, true, false);
  EXPECT_EQ(miner.EntryHint(0, sphere), 5);  // fresh evidence re-promotes
}

TEST(ShortcutMinerTest, WindowEvictionDropsOldSupport) {
  ShortcutMiner miner(MinerOptions());
  const geom::Sphere hot{Vector(4, 0.25), 0.1};
  const geom::Sphere warm{Vector(4, 0.55), 0.1};
  const geom::Sphere cold{Vector(4, 0.95), 0.1};
  for (int i = 0; i < 3; ++i) miner.Observe(0, hot, 5, true, false);
  ASSERT_EQ(miner.EntryHint(0, hot), 5);
  miner.Observe(0, warm, 7, true, false);
  miner.Observe(0, warm, 7, true, false);  // support 2, one short
  // A window's worth of colder observations pushes every `hot` and `warm`
  // observation out; the hot association stays promoted (demotion is
  // failure-driven), but its support is gone.
  for (int i = 0; i < ShortcutMiner::kWindow; ++i) {
    miner.Observe(0, cold, 2, true, false);
  }
  EXPECT_EQ(miner.EntryHint(0, cold), 2);
  EXPECT_EQ(miner.EntryHint(0, hot), 5);
  EXPECT_EQ(miner.stats().promotions, 2u);
  // Evicted support is given back: one more warm observation counts 1, not 3.
  miner.Observe(0, warm, 7, true, false);
  EXPECT_EQ(miner.EntryHint(0, warm), overlay::kInvalidNode);
}

}  // namespace
}  // namespace hyperm::serve
