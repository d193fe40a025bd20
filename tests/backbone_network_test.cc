// End-to-end acceptance of the supernode backbone (src/backbone) inside a
// Hyper-M deployment over the radio channel:
//
//   * fail-soft recall: on a fault-free static field the backbone-first
//     probe stage returns exactly the same result sets as the plain CAN
//     path, while actually serving probes and pruning domains;
//   * determinism: enabled runs are bit-identical at 1 and 8 pool threads;
//   * mobility: connectivity-epoch changes trigger re-elections and queries
//     keep succeeding throughout (falling back to CAN when stale);
//   * digest maintenance: every usable domain digest, merged from per-member
//     digests, equals a from-scratch rebuild, and members whose summaries
//     did not change are never re-hashed;
//   * observability: backbone events land in the flight recorder.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "data/markov_generator.h"
#include "data/peer_assignment.h"
#include "hyperm/eval.h"
#include "hyperm/flat_index.h"
#include "hyperm/network.h"
#include "obs/event_log.h"

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

// Static (or mobile) sparse radio field with zero injected faults; the
// backbone toggle is the only thing tests vary on top of this.
HyperMOptions RadioOptions(double speed_m_per_s, bool backbone_on) {
  HyperMOptions options;
  options.net.summary_ttl_ms = 1500.0;
  options.net.republish_period_ms = 400.0;
  options.channel.enabled = true;
  options.channel.field.field_size_m = 260.0;
  options.channel.field.radio_range_m = 60.0;
  options.channel.field.max_placement_attempts = 5000;
  options.channel.tick_ms = 100.0;
  options.channel.speed_m_per_s = speed_m_per_s;
  options.backbone.enabled = backbone_on;
  return options;
}

// Runs the same query set against a bed and returns each query's sorted
// result ids (exact set comparison, not recall).
std::vector<std::vector<ItemId>> RunQueries(Bed& bed, int num_queries = 12,
                                            double epsilon = 0.8) {
  std::vector<std::vector<ItemId>> all;
  for (int q = 0; q < num_queries; ++q) {
    const Vector& center =
        bed.dataset.items[static_cast<size_t>(q * 17 % kNumItems)];
    Result<std::vector<ItemId>> retrieved = bed.network->RangeQuery(
        center, epsilon, /*querying_peer=*/q % kNumPeers,
        /*max_peers_contacted=*/-1);
    EXPECT_TRUE(retrieved.ok()) << retrieved.status().ToString();
    std::vector<ItemId> ids = std::move(retrieved).value();
    std::sort(ids.begin(), ids.end());
    all.push_back(std::move(ids));
  }
  return all;
}

TEST(BackboneNetworkTest, DisabledBackboneIsNotConstructed) {
  Bed bed = MakeBed(RadioOptions(/*speed_m_per_s=*/0.0, /*backbone_on=*/false));
  EXPECT_EQ(bed.network->backbone(), nullptr);
}

TEST(BackboneNetworkTest, BackboneRequiresRadioChannel) {
  HyperMOptions options;
  options.backbone.enabled = true;
  Rng rng(1);
  data::MarkovOptions data_options;
  data_options.count = 64;
  data_options.dim = 16;
  Result<data::Dataset> ds = data::GenerateMarkov(data_options, rng);
  ASSERT_TRUE(ds.ok());
  data::AssignmentOptions assign_options;
  assign_options.num_peers = 8;
  Result<data::PeerAssignment> assignment =
      data::AssignByInterest(ds.value(), assign_options, rng);
  ASSERT_TRUE(assignment.ok());
  Result<std::unique_ptr<HyperMNetwork>> net = HyperMNetwork::Build(
      ds.value(), assignment.value(), options, rng);
  EXPECT_FALSE(net.ok());
}

TEST(BackboneNetworkTest, FaultFreeResultsMatchCanExactly) {
  // Same seed, same static field, same queries: the backbone-served probe
  // stage must produce the exact result sets of the digest-less CAN path
  // (fail-soft means "never worse recall"; fault-free means "identical").
  Bed plain = MakeBed(RadioOptions(0.0, /*backbone_on=*/false));
  Bed backboned = MakeBed(RadioOptions(0.0, /*backbone_on=*/true));
  plain.network->AdvanceTo(plain.network->radio_channel()->DrainedAtMs() + 1.0);
  backboned.network->AdvanceTo(
      backboned.network->radio_channel()->DrainedAtMs() + 1.0);

  const auto expected = RunQueries(plain);
  const auto actual = RunQueries(backboned);
  EXPECT_EQ(expected, actual);

  const backbone::BackboneManager* manager = backboned.network->backbone();
  ASSERT_NE(manager, nullptr);
  const backbone::BackboneCounters& counters = manager->counters();
  EXPECT_GT(counters.elections, 0u);
  EXPECT_GT(counters.reports_sent, 0u);
  EXPECT_GT(counters.probes_served, 0u);
  // Fault-free static field: every probe should be served by the backbone.
  EXPECT_EQ(counters.probes_fallback, 0u);
  // The digests did real work: domains were considered and some were pruned
  // without descending (the 2x criterion itself is bench_backbone's job).
  EXPECT_GT(counters.domains_considered, 0u);
  EXPECT_GT(counters.domains_pruned, 0u);
  EXPECT_GT(manager->num_supernodes(), 0);
}

TEST(BackboneNetworkTest, HugeEpsilonReturnsEveryStoredItem) {
  // A finite ε far past the unit key cube covers every digest cell, so the
  // backbone must descend everywhere and return every stored item, exactly
  // as the CAN path does (Thm 4.1). The digest clamps a cell index before
  // casting it to int; a cast first lands out of range and prunes every
  // domain.
  Bed plain = MakeBed(RadioOptions(0.0, /*backbone_on=*/false));
  Bed backboned = MakeBed(RadioOptions(0.0, /*backbone_on=*/true));
  plain.network->AdvanceTo(plain.network->radio_channel()->DrainedAtMs() + 1.0);
  backboned.network->AdvanceTo(
      backboned.network->radio_channel()->DrainedAtMs() + 1.0);
  for (double epsilon : {1e9, 1e300, std::numeric_limits<double>::max()}) {
    const auto expected = RunQueries(plain, /*num_queries=*/2, epsilon);
    const auto actual = RunQueries(backboned, /*num_queries=*/2, epsilon);
    EXPECT_EQ(expected, actual) << "epsilon=" << epsilon;
    for (const std::vector<ItemId>& ids : actual) {
      EXPECT_EQ(ids.size(), static_cast<size_t>(kNumItems)) << "epsilon=" << epsilon;
    }
  }
  const backbone::BackboneCounters& counters = backboned.network->backbone()->counters();
  EXPECT_GT(counters.probes_served, 0u);
  EXPECT_EQ(counters.probes_fallback, 0u);
}

TEST(BackboneNetworkTest, DigestlessModeDescendsEverywhere) {
  HyperMOptions options = RadioOptions(0.0, /*backbone_on=*/true);
  options.backbone.digest_bits = 0;  // comparator mode: no pruning possible
  Bed bed = MakeBed(options);
  bed.network->AdvanceTo(bed.network->radio_channel()->DrainedAtMs() + 1.0);
  RunQueries(bed, /*num_queries=*/6);
  const backbone::BackboneCounters& counters =
      bed.network->backbone()->counters();
  EXPECT_GT(counters.probes_served, 0u);
  EXPECT_EQ(counters.domains_pruned, 0u);
  EXPECT_EQ(counters.leaf_skips, 0u);
  EXPECT_EQ(counters.domains_descended, counters.domains_considered);
}

TEST(BackboneNetworkTest, EnabledRunsAreBitIdenticalAcrossThreadCounts) {
  auto run = [](int num_threads) {
    HyperMOptions options = RadioOptions(0.0, /*backbone_on=*/true);
    options.num_threads = num_threads;
    Bed bed = MakeBed(options);
    bed.network->AdvanceTo(bed.network->radio_channel()->DrainedAtMs() + 1.0);
    const auto results = RunQueries(bed, /*num_queries=*/8);
    const backbone::BackboneCounters& c = bed.network->backbone()->counters();
    return std::tuple(results, c.elections, c.reports_sent, c.probes_served,
                      c.domains_descended, c.domains_pruned, c.digest_bytes,
                      bed.network->transport().counters().messages_sent);
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(BackboneNetworkTest, MobilityReElectsAndQueriesStaySound) {
  // Moderate speed: the connectivity epoch moves several times over the run
  // (forcing re-elections) but is stable enough between maintenance ticks
  // that a good share of probes still find a fresh election to ride.
  Bed bed = MakeBed(RadioOptions(/*speed_m_per_s=*/4.0, /*backbone_on=*/true));
  const channel::RadioChannel* radio = bed.network->radio_channel();
  ASSERT_NE(radio, nullptr);
  const backbone::BackboneManager* manager = bed.network->backbone();
  ASSERT_NE(manager, nullptr);
  FlatIndex oracle(bed.dataset);

  // Walk the mobile field for a while, querying as the topology shifts. Every
  // query must succeed (fallback is invisible to the caller) and results must
  // stay subsets of the oracle's truth (precision 1 by construction).
  sim::TimeMs t = radio->DrainedAtMs() + 1.0;
  bed.network->AdvanceTo(t);
  const uint64_t first_epoch = manager->election_epoch();
  int queries_ok = 0;
  for (int step = 0; step < 40; ++step) {
    t += 500.0;
    bed.network->AdvanceTo(t);
    const Vector& center =
        bed.dataset.items[static_cast<size_t>(step * 31 % kNumItems)];
    Result<std::vector<ItemId>> retrieved = bed.network->RangeQuery(
        center, 0.8, /*querying_peer=*/step % kNumPeers,
        /*max_peers_contacted=*/-1);
    ASSERT_TRUE(retrieved.ok()) << retrieved.status().ToString();
    ++queries_ok;
    const std::vector<ItemId> truth = oracle.RangeSearch(center, 0.8);
    for (ItemId id : retrieved.value()) {
      EXPECT_TRUE(std::find(truth.begin(), truth.end(), id) != truth.end());
    }
  }
  EXPECT_EQ(queries_ok, 40);

  const backbone::BackboneCounters& counters = manager->counters();
  // Mobility moved the connectivity epoch: the backbone re-elected at least
  // once and the election it holds tracks a later epoch than the first.
  EXPECT_GT(counters.elections, 1u);
  EXPECT_GT(manager->election_epoch(), first_epoch);
  // Some probes were served from the backbone across the run.
  EXPECT_GT(counters.probes_served, 0u);
}

TEST(BackboneNetworkTest, ServedPlansCarryDistinctClusterIdsPerLevel) {
  // The backbone appends domain matches without a dedup set: each cluster id
  // sits in one peer's publish cache, each peer in one domain, and a plan
  // descends each domain once. Check that over a mobile run with writes
  // that republish under fresh ids.
  Bed bed = MakeBed(RadioOptions(/*speed_m_per_s=*/4.0, /*backbone_on=*/true));
  // Serving a plan by hand needs the mutable manager the executor drives.
  auto* manager = const_cast<backbone::BackboneManager*>(bed.network->backbone());
  ASSERT_NE(manager, nullptr);
  Rng write_rng(7);
  ItemId next_item = kNumItems;
  sim::TimeMs t = bed.network->radio_channel()->DrainedAtMs() + 1.0;
  int served = 0;
  size_t matches = 0;
  for (int step = 0; step < 40; ++step) {
    t += 500.0;
    bed.network->AdvanceTo(t);
    if (step % 5 == 0) {
      const int peer = step % kNumPeers;
      Vector features = bed.dataset.items[static_cast<size_t>(step * 13 % kNumItems)];
      features[0] += 0.25;
      ASSERT_TRUE(bed.network->AddItemWithoutRepublish(peer, next_item++, features).ok());
      ASSERT_TRUE(bed.network->RepublishPeer(peer, write_rng).ok());
    }
    const Vector& center = bed.dataset.items[static_cast<size_t>(step * 31 % kNumItems)];
    const QueryPlan plan = bed.network->CompileRangePlan(center, 0.8);
    std::vector<geom::Sphere> key_spheres;
    for (const LevelProbe& probe : plan.probes) key_spheres.push_back(probe.key_sphere);
    std::vector<backbone::ProbeServeResult> out;
    if (!manager->ServeRangePlan(key_spheres, step % kNumPeers,
                                 /*conjunctive=*/false, &out)) {
      continue;
    }
    ++served;
    for (size_t layer = 0; layer < out.size(); ++layer) {
      std::vector<uint64_t> ids;
      for (const overlay::ClusterMatch& match : out[layer].matches) {
        ids.push_back(match.cluster_id);
      }
      matches += ids.size();
      std::sort(ids.begin(), ids.end());
      EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
          << "step " << step << " level " << layer;
    }
  }
  EXPECT_GT(served, 10);
  EXPECT_GT(matches, 0u);
}

// Rebuilds every usable domain digest from scratch (one InsertSphere per
// cluster in every up member's last delivered report) and expects the
// manager's merged digest to match it exactly. Returns the domains checked.
int ExpectDigestsMatchRebuild(const HyperMNetwork& network) {
  const backbone::BackboneManager& manager = *network.backbone();
  backbone::DigestOptions digest_options;
  digest_options.bits = manager.options().digest_bits;
  digest_options.cells_per_axis = manager.options().digest_cells_per_axis;
  int checked = 0;
  for (int s = 0; s < network.num_peers(); ++s) {
    if (!manager.DigestUsable(s)) continue;
    const std::vector<backbone::SphereDigest>& merged = manager.domain_digests(s);
    EXPECT_EQ(static_cast<int>(merged.size()), network.num_layers());
    for (int layer = 0; layer < network.num_layers(); ++layer) {
      backbone::SphereDigest rebuilt(static_cast<int>(network.level(layer).dim()),
                                     digest_options);
      for (int m : manager.election().members_of[s]) {
        if (!network.peer_up(m)) continue;
        for (const overlay::PublishedCluster& cluster :
             manager.reported_clusters(m, layer)) {
          rebuilt.InsertSphere(cluster.sphere);
        }
      }
      EXPECT_TRUE(merged[layer].bloom().Serialize() ==
                  rebuilt.bloom().Serialize())
          << "supernode " << s << " layer " << layer << " at "
          << network.now();
      EXPECT_EQ(merged[layer].bloom().inserted(), rebuilt.bloom().inserted());
      EXPECT_EQ(merged[layer].spheres(), rebuilt.spheres());
    }
    ++checked;
  }
  return checked;
}

// Cluster ids of every peer's last delivered report, per level.
std::vector<std::vector<std::vector<uint64_t>>> ReportedIds(
    const HyperMNetwork& network) {
  std::vector<std::vector<std::vector<uint64_t>>> ids(network.num_peers());
  for (int p = 0; p < network.num_peers(); ++p) {
    for (int layer = 0; layer < network.num_layers(); ++layer) {
      std::vector<uint64_t> level;
      for (const overlay::PublishedCluster& cluster :
           network.backbone()->reported_clusters(p, layer)) {
        level.push_back(cluster.cluster_id);
      }
      ids[p].push_back(std::move(level));
    }
  }
  return ids;
}

TEST(BackboneNetworkTest, MergedDomainDigestsEqualFromScratchRebuilds) {
  // Mobile field, writes that republish, a supernode crash and its rejoin
  // (each forcing a re-election). The test stops exactly on every
  // maintenance tick: report timers due at a tick fire before it, and the
  // post-election reports run 1 ms after one, so each check sees the
  // snapshots the tick's digests were merged from.
  const HyperMOptions base = RadioOptions(/*speed_m_per_s=*/2.0,
                                          /*backbone_on=*/true);
  int victim = -1;
  sim::TimeMs start_ms = 0.0;
  {
    Bed probe = MakeBed(base);
    const backbone::ElectionResult& election = probe.network->backbone()->election();
    size_t largest = 1;
    for (int s = 0; s < kNumPeers; ++s) {
      if (election.is_supernode[s] && election.members_of[s].size() > largest) {
        largest = election.members_of[s].size();
        victim = s;
      }
    }
    start_ms = probe.network->now();
  }
  ASSERT_GE(victim, 0) << "no supernode has a member to strand";
  HyperMOptions options = base;
  const double period = 400.0;  // maintenance inherits republish_period_ms
  options.net.faults.peer_events = {
      {start_ms + 10.5 * period, victim, /*up=*/false},
      {start_ms + 25.5 * period, victim, /*up=*/true}};
  Bed bed = MakeBed(options);
  const backbone::BackboneManager* manager = bed.network->backbone();
  ASSERT_NE(manager, nullptr);
  ASSERT_EQ(bed.network->now(), start_ms);
  ASSERT_EQ(manager->options().maintenance_period_ms, period);
  ASSERT_TRUE(manager->election().is_supernode[victim]);

  Rng write_rng(99);
  ItemId next_item = kNumItems;
  const uint64_t base_elections = manager->counters().elections;
  EXPECT_GT(ExpectDigestsMatchRebuild(*bed.network), 0);
  auto ids = ReportedIds(*bed.network);
  uint64_t built = manager->counters().member_digests_built;
  int checked = 0;
  int quiet_ticks = 0;
  int changed_ticks = 0;
  sim::TimeMs t = start_ms;
  for (int tick = 1; tick <= 40; ++tick) {
    t += period;
    bed.network->AdvanceTo(t);
    checked += ExpectDigestsMatchRebuild(*bed.network);

    // Member digests are built exactly for the (member, level) reports whose
    // summaries changed since the last tick, and for nothing else.
    const auto now_ids = ReportedIds(*bed.network);
    uint64_t changed = 0;
    for (int p = 0; p < kNumPeers; ++p) {
      for (int layer = 0; layer < bed.network->num_layers(); ++layer) {
        if (now_ids[p][layer] != ids[p][layer]) ++changed;
      }
    }
    const uint64_t now_built = manager->counters().member_digests_built;
    EXPECT_EQ(now_built - built, changed) << "tick " << tick;
    ++(changed == 0 ? quiet_ticks : changed_ticks);
    ids = now_ids;
    built = now_built;
    if (tick == 10) {
      // The crash half a period from now must strand a live domain.
      ASSERT_TRUE(manager->election().is_supernode[victim]);
    }

    // Writes right after some ticks: a member, and the victim supernode
    // itself (its own summaries are refreshed inside the digest rebuild).
    if (tick % 4 == 0) {
      for (int peer : {(tick / 4) % kNumPeers, victim}) {
        if (!bed.network->peer_up(peer)) continue;
        Vector features = bed.dataset.items[static_cast<size_t>(
            (tick * 7 + peer) % kNumItems)];
        features[0] += 0.25;
        ASSERT_TRUE(bed.network
                        ->AddItemWithoutRepublish(peer, next_item++, features)
                        .ok());
        ASSERT_TRUE(bed.network->RepublishPeer(peer, write_rng).ok());
      }
    }
  }
  EXPECT_GT(checked, 40);
  EXPECT_GT(quiet_ticks, 5);
  EXPECT_GT(changed_ticks, 5);
  // The crash, the rejoin and mobility each forced a re-election.
  EXPECT_GE(manager->counters().elections, base_elections + 2);
  EXPECT_EQ(bed.network->soft_state().crashes, 1u);
  EXPECT_EQ(bed.network->soft_state().rejoins, 1u);
}

class BackboneFlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::EventLog::Global().Reset(); }
  void TearDown() override { obs::EventLog::Global().Reset(); }
};

struct BackboneEventCounts {
  uint64_t elects = 0, reports = 0, digests = 0, probes = 0, decisions = 0;
};

BackboneEventCounts CountBackboneEvents() {
  BackboneEventCounts counts;
  for (const obs::Event& e : obs::EventLog::Global().events()) {
    switch (e.kind) {
      case obs::EventKind::kBackboneElect: ++counts.elects; break;
      case obs::EventKind::kBackboneReport: ++counts.reports; break;
      case obs::EventKind::kBackboneDigest: ++counts.digests; break;
      case obs::EventKind::kBackboneProbe: ++counts.probes; break;
      case obs::EventKind::kBackboneDecision: ++counts.decisions; break;
      default: break;
    }
  }
  return counts;
}

TEST_F(BackboneFlightRecorderTest, BackboneEventsLandInTheLog) {
  // Mobile field so maintenance re-elects while the recorder is armed (the
  // initial election happens during Build, before arming). Two armed windows
  // keep the ring buffer far from overflow: window 1 catches the maintenance
  // cycle (elect/report/digest), window 2 the probe path.
  Bed bed = MakeBed(RadioOptions(/*speed_m_per_s=*/4.0, /*backbone_on=*/true));
  const backbone::BackboneManager* manager = bed.network->backbone();
  ASSERT_NE(manager, nullptr);

  sim::TimeMs t = bed.network->radio_channel()->DrainedAtMs() + 1.0;
  bed.network->AdvanceTo(t);
  const uint64_t base_elections = manager->counters().elections;
  while (manager->counters().elections <= base_elections && t < 60000.0) {
    // Re-arm each step so the buffer only ever holds the last 100 ms of
    // radio noise — the step that finally re-elects stays well within
    // capacity and nothing is dropped.
    obs::EventLog::Global().Reset();
    obs::EventLog::Global().Arm();
    t += 100.0;
    bed.network->AdvanceTo(t);
  }
  ASSERT_GT(manager->counters().elections, base_elections)
      << "mobility never forced a re-election within 60 s";
  // Let the accelerated post-election reports and the next digest rebuild
  // land in the same armed window.
  t += 500.0;
  bed.network->AdvanceTo(t);
  const BackboneEventCounts maintenance = CountBackboneEvents();
  EXPECT_EQ(obs::EventLog::Global().dropped(), 0u);
  EXPECT_GT(maintenance.elects, 0u);
  EXPECT_GT(maintenance.reports, 0u);
  EXPECT_GT(maintenance.digests, 0u);

  // Fresh window: query until the backbone actually serves a probe (a probe
  // landing on a just-changed radio graph falls back, which also logs the
  // event but records no walk decisions).
  const uint64_t base_served = manager->counters().probes_served;
  for (int attempt = 0; attempt < 40; ++attempt) {
    obs::EventLog::Global().Reset();
    obs::EventLog::Global().Arm();
    t += 500.0;
    bed.network->AdvanceTo(t);
    Result<std::vector<ItemId>> r = bed.network->RangeQuery(
        bed.dataset.items[static_cast<size_t>(attempt * 13 % kNumItems)], 0.8,
        /*querying_peer=*/attempt % kNumPeers, /*max_peers_contacted=*/-1);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (manager->counters().probes_served > base_served) break;
  }
  ASSERT_GT(manager->counters().probes_served, base_served)
      << "no probe was ever served from the backbone";
  const BackboneEventCounts probing = CountBackboneEvents();
  EXPECT_EQ(obs::EventLog::Global().dropped(), 0u);
  EXPECT_GT(probing.probes, 0u);
  EXPECT_GT(probing.decisions, 0u);
}

}  // namespace
}  // namespace hyperm::core
