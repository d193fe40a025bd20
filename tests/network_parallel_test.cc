// Determinism of the parallel build & query engine: every externally
// observable output — query results, traffic accounting, metric values,
// span structure — must be bit-identical at any thread count, because task
// RNG streams derive from (seed, peer, layer) and all ordered effects are
// drained on the orchestrating thread.

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/markov_generator.h"
#include "data/peer_assignment.h"
#include "hyperm/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hyperm::core {
namespace {

constexpr size_t kNumClasses = static_cast<size_t>(sim::TrafficClass::kCount_);

// Everything one deployment + query workload exposes to the outside world.
struct RunCapture {
  std::vector<PeerScore> scores;
  std::vector<ItemId> range_items;
  std::vector<ItemId> knn_items;
  std::vector<double> knn_radii;
  RangeQueryInfo range_info;
  KnnQueryInfo knn_info;
  std::vector<ItemId> post_republish_items;
  std::vector<uint64_t> publication_hops;
  uint64_t transport_messages = 0;
  std::array<uint64_t, kNumClasses> hops{};
  std::array<uint64_t, kNumClasses> bytes{};
  double energy_mj = 0.0;
  uint64_t queries_served = 0;
  obs::MetricsSnapshot metrics;
  std::vector<std::string> span_names;  // sorted multiset of span names
};

struct Deployment {
  data::Dataset dataset;
  std::unique_ptr<HyperMNetwork> network;
};

// The shared bed: 500 Markov items over 16 peers, built with `options`.
Deployment Deploy(const HyperMOptions& options, Rng& rng) {
  data::MarkovOptions data_options;
  data_options.count = 500;
  data_options.dim = 64;
  data_options.num_families = 8;
  Result<data::Dataset> dataset = data::GenerateMarkov(data_options, rng);
  EXPECT_TRUE(dataset.ok());
  data::AssignmentOptions assign_options;
  assign_options.num_peers = 16;
  assign_options.num_interest_classes = 8;
  assign_options.min_peers_per_class = 4;
  assign_options.max_peers_per_class = 6;
  Result<data::PeerAssignment> assignment =
      data::AssignByInterest(dataset.value(), assign_options, rng);
  EXPECT_TRUE(assignment.ok());
  Result<std::unique_ptr<HyperMNetwork>> net =
      HyperMNetwork::Build(dataset.value(), assignment.value(), options, rng);
  EXPECT_TRUE(net.ok()) << net.status().ToString();
  return Deployment{std::move(dataset).value(), std::move(net).value()};
}

// Which deployment RunWorkload builds. The defaults are the paper's
// fault-free configuration.
struct WorkloadConfig {
  // NetOptions spelled out with knobs that a fault-free run never reads:
  // adaptive ARQ (no attempt fails, so no timeout is charged) and another
  // per-message seed (no draw decides anything at loss 0).
  bool explicit_net_options = false;
  // Sets the inert net.unreliable field.
  bool unreliable_flag = false;
  // The full stack under the transport: mobile radio field, transmit
  // queues, adaptive ARQ, loss and republish ticks.
  bool radio_channel = false;
  // With radio_channel: CSMA/CA MAC and AODV routing instead of the legacy
  // MAC and the BFS oracle.
  bool csma_aodv = false;
};

RunCapture RunWorkload(int num_threads, const WorkloadConfig& config = {}) {
  obs::MetricsRegistry::Global().Reset();
  obs::Tracer::Global().Reset();

  Rng rng(606);
  HyperMOptions options;
  options.num_threads = num_threads;
  if (config.explicit_net_options) {
    options.net = net::NetOptions{};
    options.net.retry.adaptive = true;
    options.net.seed ^= 0x5eed;
  }
  if (config.radio_channel) {
    // Per-message RNG streams are consumed in issue order and queue state
    // advances with the (single-threaded) simulator, so every observable
    // must stay bit-identical at any thread count.
    options.net = net::NetOptions{};
    options.net.retry.adaptive = true;
    options.net.faults.loss_rate = 0.05;
    options.net.republish_period_ms = 250.0;
    options.channel.enabled = true;
    options.channel.field.field_size_m = 150.0;
    options.channel.field.radio_range_m = 70.0;
    options.channel.speed_m_per_s = 10.0;
    options.channel.tick_ms = 50.0;
    if (config.csma_aodv) {
      // The realistic underlay: CSMA/CA backoff draws come from per-node
      // SeedStream RNGs and AODV floods run on the simulator thread, so the
      // whole stack stays deterministic regardless of the pool size.
      options.channel.mac.kind = channel::MacOptions::Kind::kCsmaCa;
      options.channel.routing.kind = route::RoutingOptions::Kind::kAodv;
    }
  }
  options.net.unreliable = config.unreliable_flag;
  const Deployment deployment = Deploy(options, rng);
  HyperMNetwork& network = *deployment.network;

  RunCapture cap;
  const Vector& q1 = deployment.dataset.items[7];
  const Vector& q2 = deployment.dataset.items[123];

  Result<std::vector<PeerScore>> scores = network.ScorePeers(q1, 0.8, 0);
  EXPECT_TRUE(scores.ok());
  cap.scores = std::move(scores).value();

  Result<std::vector<ItemId>> range =
      network.RangeQuery(q1, 0.8, 1, /*max_peers_contacted=*/-1, &cap.range_info);
  EXPECT_TRUE(range.ok());
  cap.range_items = std::move(range).value();

  KnnOptions knn_options;
  Result<std::vector<ItemId>> knn = network.KnnQuery(q2, 5, knn_options, 2, &cap.knn_info);
  EXPECT_TRUE(knn.ok());
  cap.knn_items = std::move(knn).value();
  cap.knn_radii = cap.knn_info.level_radii;

  // Post-creation churn: insert a deterministic item, republish, query again.
  Vector extra(network.data_dim(), 0.0);
  for (double& x : extra) x = rng.Uniform(0.0, 1.0);
  EXPECT_TRUE(network.AddItemWithoutRepublish(0, 1 << 20, extra).ok());
  EXPECT_TRUE(network.RepublishPeer(0, rng).ok());
  Result<std::vector<ItemId>> post = network.RangeQuery(extra, 0.5, 3);
  EXPECT_TRUE(post.ok());
  cap.post_republish_items = std::move(post).value();

  for (int p = 0; p < network.num_peers(); ++p) {
    cap.publication_hops.push_back(network.publication_hops(p));
  }
  cap.transport_messages = network.transport().counters().messages_sent;
  for (size_t c = 0; c < kNumClasses; ++c) {
    cap.hops[c] = network.stats().hops(static_cast<sim::TrafficClass>(c));
    cap.bytes[c] = network.stats().bytes(static_cast<sim::TrafficClass>(c));
  }
  cap.energy_mj = network.stats().total_energy_millijoules();
  cap.queries_served = network.stats().queries_served();
  cap.metrics = obs::MetricsRegistry::Global().Snapshot();
  for (const obs::SpanRecord& span : obs::Tracer::Global().spans()) {
    cap.span_names.push_back(span.name);
  }
  std::sort(cap.span_names.begin(), cap.span_names.end());
  return cap;
}

// Wall-clock histograms (…_us) are nondeterministic run to run; everything
// else in the registry must match exactly, including bucket counts and sums.
void ExpectMetricsIdentical(const obs::MetricsSnapshot& a,
                            const obs::MetricsSnapshot& b) {
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.gauges, b.gauges);
  ASSERT_EQ(a.histograms.size(), b.histograms.size());
  for (const auto& [name, ha] : a.histograms) {
    const auto it = b.histograms.find(name);
    ASSERT_NE(it, b.histograms.end()) << name;
    const obs::HistogramSnapshot& hb = it->second;
    EXPECT_EQ(ha.count, hb.count) << name;
    if (name.find("_us") != std::string::npos) continue;
    EXPECT_EQ(ha.edges, hb.edges) << name;
    EXPECT_EQ(ha.counts, hb.counts) << name;
    EXPECT_EQ(ha.underflow, hb.underflow) << name;
    EXPECT_EQ(ha.overflow, hb.overflow) << name;
    EXPECT_EQ(ha.sum, hb.sum) << name;
    EXPECT_EQ(ha.min, hb.min) << name;
    EXPECT_EQ(ha.max, hb.max) << name;
  }
}

void ExpectRunsIdentical(const RunCapture& a, const RunCapture& b) {
  ASSERT_EQ(a.scores.size(), b.scores.size());
  for (size_t i = 0; i < a.scores.size(); ++i) {
    EXPECT_EQ(a.scores[i].peer, b.scores[i].peer) << i;
    EXPECT_EQ(a.scores[i].score, b.scores[i].score) << i;
  }
  EXPECT_EQ(a.range_items, b.range_items);
  EXPECT_EQ(a.knn_items, b.knn_items);
  EXPECT_EQ(a.knn_radii, b.knn_radii);
  EXPECT_EQ(a.post_republish_items, b.post_republish_items);

  EXPECT_EQ(a.range_info.overlay_routing_hops, b.range_info.overlay_routing_hops);
  EXPECT_EQ(a.range_info.overlay_flood_hops, b.range_info.overlay_flood_hops);
  EXPECT_EQ(a.range_info.candidate_peers, b.range_info.candidate_peers);
  EXPECT_EQ(a.range_info.peers_contacted, b.range_info.peers_contacted);
  EXPECT_EQ(a.range_info.latency_ms, b.range_info.latency_ms);
  EXPECT_EQ(a.range_info.layers_lost, b.range_info.layers_lost);
  EXPECT_EQ(a.range_info.layers_detoured, b.range_info.layers_detoured);
  EXPECT_EQ(a.range_info.layers_deferred, b.range_info.layers_deferred);
  EXPECT_EQ(a.range_info.reissues, b.range_info.reissues);
  EXPECT_EQ(a.range_info.level_outcomes, b.range_info.level_outcomes);
  EXPECT_EQ(a.knn_info.range.level_outcomes, b.knn_info.range.level_outcomes);
  EXPECT_EQ(a.knn_info.range.latency_ms, b.knn_info.range.latency_ms);
  EXPECT_EQ(a.transport_messages, b.transport_messages);
  EXPECT_EQ(a.knn_info.range.overlay_routing_hops, b.knn_info.range.overlay_routing_hops);
  EXPECT_EQ(a.knn_info.range.overlay_flood_hops, b.knn_info.range.overlay_flood_hops);
  EXPECT_EQ(a.knn_info.items_requested, b.knn_info.items_requested);

  EXPECT_EQ(a.publication_hops, b.publication_hops);
  EXPECT_EQ(a.hops, b.hops);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.energy_mj, b.energy_mj);
  EXPECT_EQ(a.queries_served, b.queries_served);
  ExpectMetricsIdentical(a.metrics, b.metrics);
  EXPECT_EQ(a.span_names, b.span_names);
}

TEST(NetworkParallelTest, BitIdenticalAcrossThreadCounts) {
  const RunCapture sequential = RunWorkload(1);
  // Sanity: the workload actually exercised the network.
  EXPECT_FALSE(sequential.scores.empty());
  EXPECT_FALSE(sequential.range_items.empty());
  EXPECT_FALSE(sequential.knn_items.empty());
  EXPECT_GT(sequential.queries_served, 0u);
  EXPECT_FALSE(sequential.span_names.empty());

  const RunCapture two_threads = RunWorkload(2);
  ExpectRunsIdentical(sequential, two_threads);

  const RunCapture eight_threads = RunWorkload(8);
  ExpectRunsIdentical(sequential, eight_threads);
}

TEST(NetworkParallelTest, PoolMetricsAreRecorded) {
  const RunCapture run = RunWorkload(2);
  const auto tasks = run.metrics.counters.find("pool.tasks");
  ASSERT_NE(tasks, run.metrics.counters.end());
  EXPECT_GT(tasks->second, 0u);
  const auto wall = run.metrics.histograms.find("pool.wall_us");
  ASSERT_NE(wall, run.metrics.histograms.end());
  EXPECT_GT(wall->second.count, 0u);
}

uint64_t PoolTasks() {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  const auto it = snap.counters.find("pool.tasks");
  return it == snap.counters.end() ? 0 : it->second;
}

// Only Build fans out to the pool: queries run their level probes in order
// on the calling thread, so at any lane count they add no pool tasks.
TEST(NetworkParallelTest, QueriesStayOffThePool) {
  obs::MetricsRegistry::Global().Reset();
  Rng rng(606);
  HyperMOptions options;
  options.num_threads = 4;
  const Deployment deployment = Deploy(options, rng);
  HyperMNetwork& network = *deployment.network;
  const uint64_t built = PoolTasks();
  ASSERT_GT(built, 0u);
  for (int q = 0; q < 6; ++q) {
    const Vector& center = deployment.dataset.items[static_cast<size_t>(q * 71)];
    EXPECT_TRUE(network.RangeQuery(center, 0.8, q).ok());
    EXPECT_TRUE(network.KnnQuery(center, 5, KnnOptions{}, q).ok());
  }
  EXPECT_EQ(PoolTasks(), built);
}

// The k-NN query's Eq. 8 solves are recorded at the ordered drain: at most
// one sweep count per level, and BitIdenticalAcrossThreadCounts compares
// them across lane counts like every other histogram.
TEST(NetworkParallelTest, KnnRadiusSolveMetricsAreRecorded) {
  const RunCapture run = RunWorkload(2);
  const auto sweeps = run.metrics.histograms.find("knn.radius_sweeps");
  ASSERT_NE(sweeps, run.metrics.histograms.end());
  EXPECT_GT(sweeps->second.count, 0u);
  EXPECT_LE(sweeps->second.count, run.knn_radii.size());
  EXPECT_GE(sweeps->second.min, 1.0);
  EXPECT_LE(sweeps->second.max, 202.0);
  // Every solve at this shape converges within the default budget.
  EXPECT_EQ(run.metrics.counters.count("knn.radius_unconverged"), 0u);
}

TEST(NetworkParallelTest, DefaultThreadCountMatchesSequentialResults) {
  // num_threads = 0 resolves to hardware concurrency; results still match.
  const RunCapture sequential = RunWorkload(1);
  const RunCapture defaulted = RunWorkload(0);
  ExpectRunsIdentical(sequential, defaulted);
}

// Options that no fault-free run reads, and the net.unreliable field in any
// configuration, must not change a single observable — results, traffic,
// metrics, latencies — at any thread count: every network sends through the
// same transport.
TEST(NetworkParallelTest, InertNetOptionsAreBitIdentical) {
  const RunCapture implicit_seq = RunWorkload(1);
  EXPECT_GT(implicit_seq.metrics.counters.count("net.messages"), 0u);
  const RunCapture explicit_seq = RunWorkload(1, {.explicit_net_options = true});
  ExpectRunsIdentical(implicit_seq, explicit_seq);
  const RunCapture explicit_par = RunWorkload(8, {.explicit_net_options = true});
  ExpectRunsIdentical(implicit_seq, explicit_par);
  // A fault-free run never reports faults.
  EXPECT_EQ(explicit_seq.range_info.layers_lost, 0);

  // The flag set on a fault-free run.
  for (int lanes : {1, 8}) {
    SCOPED_TRACE(lanes);
    ExpectRunsIdentical(implicit_seq,
                        RunWorkload(lanes, {.unreliable_flag = true}));
  }

  // The flag set and unset on the radio channel with loss and republish.
  const RunCapture radio_seq = RunWorkload(1, {.radio_channel = true});
  EXPECT_GT(radio_seq.transport_messages, 0u);
  for (int lanes : {1, 8}) {
    SCOPED_TRACE(lanes);
    ExpectRunsIdentical(
        radio_seq,
        RunWorkload(lanes, {.unreliable_flag = true, .radio_channel = true}));
  }
}

TEST(NetworkParallelTest, RadioChannelRunsBitIdenticalAcrossThreadCounts) {
  const RunCapture sequential = RunWorkload(1, {.radio_channel = true});
  EXPECT_FALSE(sequential.scores.empty());
  EXPECT_FALSE(sequential.range_items.empty());
  EXPECT_GT(sequential.transport_messages, 0u);
  const RunCapture eight_threads = RunWorkload(8, {.radio_channel = true});
  ExpectRunsIdentical(sequential, eight_threads);
}

TEST(NetworkParallelTest, CsmaAodvRunsBitIdenticalAcrossThreadCounts) {
  // Non-default underlay (CSMA/CA MAC + AODV routing): backoff, collision
  // and discovery randomness all live in dedicated per-node streams, so the
  // swap must not reintroduce thread-count sensitivity.
  const RunCapture sequential =
      RunWorkload(1, {.radio_channel = true, .csma_aodv = true});
  EXPECT_FALSE(sequential.scores.empty());
  EXPECT_FALSE(sequential.range_items.empty());
  EXPECT_GT(sequential.transport_messages, 0u);
  const RunCapture eight_threads =
      RunWorkload(8, {.radio_channel = true, .csma_aodv = true});
  ExpectRunsIdentical(sequential, eight_threads);
}

}  // namespace
}  // namespace hyperm::core
