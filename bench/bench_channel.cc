// Radio-channel regression bench: queue-aware latency vs offered load, plus
// a mobility disruption snapshot. Fully seeded and deterministic; the JSON
// report is diffed against bench/baselines/BENCH_channel.json in CI.
//
// Part 1 is the subsystem's headline property: with per-node FIFO transmit
// queues and finite bandwidth, latency must be monotone non-decreasing in
// offered load (the free-channel LinkModel was load-blind). The bench issues
// identical queries back-to-back at one simulated instant so each one queues
// behind its predecessors, reports the running mean latency at increasing
// load levels, and fails hard if monotonicity is ever violated.
//
// Part 2 deploys the same system on a mobile sparse field and reports the
// geometry-driven disruption counters (disconnected ticks, unreachable
// drops, ARQ retries) and the recall the soft-state machinery sustains.

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "channel/radio_channel.h"
#include "sim/stats.h"
#include "data/markov_generator.h"
#include "data/peer_assignment.h"
#include "hyperm/eval.h"
#include "hyperm/flat_index.h"
#include "hyperm/network.h"
#include "obs/metrics.h"

using namespace hyperm;

namespace {

// Flight-recorder time-series period, set from --trace-out in main. The
// sampling probe only reads state; 0 leaves the simulator queue untouched.
double g_trace_series_period_ms = 0.0;

struct ChannelBed {
  data::Dataset dataset;
  data::PeerAssignment assignment;
  std::unique_ptr<core::HyperMNetwork> network;
};

std::unique_ptr<ChannelBed> BuildBed(bool paper, double speed_m_per_s,
                                     double field_size_m, double radio_range_m,
                                     bool csma_mac = false) {
  Rng rng(4242);
  data::MarkovOptions data_options;
  data_options.count = paper ? 2000 : 400;
  data_options.dim = paper ? 128 : 32;
  data_options.num_families = 8;
  Result<data::Dataset> dataset = data::GenerateMarkov(data_options, rng);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset: %s\n", dataset.status().ToString().c_str());
    std::exit(1);
  }
  auto bed = std::make_unique<ChannelBed>();
  bed->dataset = std::move(dataset).value();
  data::AssignmentOptions assign_options;
  assign_options.num_peers = paper ? 50 : 16;
  assign_options.num_interest_classes = 8;
  assign_options.min_peers_per_class = 4;
  assign_options.max_peers_per_class = paper ? 12 : 6;
  Result<data::PeerAssignment> assignment =
      data::AssignByInterest(bed->dataset, assign_options, rng);
  if (!assignment.ok()) {
    std::fprintf(stderr, "assignment: %s\n", assignment.status().ToString().c_str());
    std::exit(1);
  }
  bed->assignment = std::move(assignment).value();
  core::HyperMOptions options;
  options.net.retry.adaptive = true;
  options.net.summary_ttl_ms = 1500.0;
  options.net.republish_period_ms = 400.0;
  options.channel.enabled = true;
  options.channel.field.field_size_m = field_size_m;
  options.channel.field.radio_range_m = radio_range_m;
  options.channel.field.max_placement_attempts = 5000;
  options.channel.tick_ms = 100.0;
  options.channel.speed_m_per_s = speed_m_per_s;
  // Room-scale radio, fast enough that a query burst's queueing signal is
  // readable in milliseconds rather than minutes.
  options.channel.bandwidth_bytes_per_ms = 1000.0;
  options.channel.tx_overhead_ms = 1.0;
  if (csma_mac) options.channel.mac.kind = channel::MacOptions::Kind::kCsmaCa;
  options.trace_series_period_ms = g_trace_series_period_ms;
  Result<std::unique_ptr<core::HyperMNetwork>> network =
      core::HyperMNetwork::Build(bed->dataset, bed->assignment, options, rng);
  if (!network.ok()) {
    std::fprintf(stderr, "network: %s\n", network.status().ToString().c_str());
    std::exit(1);
  }
  bed->network = std::move(network).value();
  return bed;
}

// --- Scale-out tier ---------------------------------------------------------
//
// --scale-smoke / --scale replace the default sweep with a channel-only
// large-deployment run: build a 1k-node (10k under --scale) radio topology,
// walk the mobility clock, and route a deterministic stream of messages
// through the epoch-cached BFS routes. This isolates the spatial-hash
// rebuild and route-cache hot paths from the overlay stack; every counter is
// seeded and deterministic, wall/throughput/RSS gauges are checked with
// wide or absolute tolerances from the baseline's "check" object.

double ScaleFieldSide(int num_nodes) {
  constexpr double kRange = 50.0;
  constexpr double kTargetDegree = 12.0;
  return std::sqrt(static_cast<double>(num_nodes) * 3.14159265358979323846 *
                   kRange * kRange / kTargetDegree);
}

void RunScaleDeployment(int num_nodes, int num_messages, int mobility_ticks,
                        const char* prefix) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  std::printf("\n--- scale deployment: %d nodes, %d messages, %d ticks ---\n",
              num_nodes, num_messages, mobility_ticks);

  bench::PhaseTimer build_timer;
  sim::NetworkStats stats;
  channel::ChannelOptions options;
  options.field.field_size_m = ScaleFieldSide(num_nodes);
  options.field.radio_range_m = 50.0;
  options.field.max_placement_attempts = 5000;
  options.tick_ms = 100.0;
  options.speed_m_per_s = 15.0;
  options.bandwidth_bytes_per_ms = 1000.0;
  options.tx_overhead_ms = 1.0;
  options.seed = 4242;
  Result<std::unique_ptr<channel::RadioChannel>> radio_result =
      channel::RadioChannel::Create(num_nodes, options, &stats);
  if (!radio_result.ok()) {
    std::fprintf(stderr, "channel: %s\n",
                 radio_result.status().ToString().c_str());
    std::exit(1);
  }
  const std::unique_ptr<channel::RadioChannel> radio =
      std::move(radio_result).value();
  const double build_ms = build_timer.ElapsedMs();

  // Interleave mobility with routed traffic: every tick invalidates the
  // route cache, then the next message burst repopulates it lazily — the
  // exact rebuild-amortisation pattern the cache exists for.
  bench::PhaseTimer route_timer;
  Rng traffic(MixSeed(options.seed, 7));
  const int messages_per_tick =
      std::max(1, num_messages / std::max(1, mobility_ticks));
  sim::TimeMs now = 0.0;
  int sent = 0;
  uint64_t reachable = 0;
  double latency_sum_ms = 0.0;
  for (int tick = 0; sent < num_messages; ++tick) {
    if (tick > 0 && tick <= mobility_ticks) {
      radio->Step();
      now += options.tick_ms;
    }
    for (int m = 0; m < messages_per_tick && sent < num_messages; ++m, ++sent) {
      net::Message message;
      message.src = static_cast<int>(traffic.UniformInt(0, num_nodes - 1));
      message.dst = static_cast<int>(traffic.UniformInt(0, num_nodes - 1));
      message.bytes = 256;
      message.cls = sim::TrafficClass::kQuery;
      const net::ChannelTransmission tx = radio->Transmit(message, now);
      if (tx.reachable) ++reachable;
      latency_sum_ms += tx.latency_ms;
    }
  }
  const double route_ms = route_timer.ElapsedMs();

  const channel::ChannelCounters& ch = radio->counters();
  const manet::RouteCacheCounters& rc =
      radio->topology().route_cache_counters();
  const double messages_per_sec =
      route_ms > 0.0 ? 1000.0 * num_messages / route_ms : 0.0;
  const double rss_mb = bench::PeakRssMb();
  std::printf("  build:    %10.1f ms\n", build_ms);
  std::printf("  routing:  %10.1f ms (%d messages, %.0f msg/s)\n", route_ms,
              num_messages, messages_per_sec);
  std::printf("  reachable: %llu/%d, mean latency %.2f ms\n",
              static_cast<unsigned long long>(reachable), num_messages,
              latency_sum_ms / num_messages);
  std::printf("  radio tx: %llu, route cache: %llu hits / %llu misses / "
              "%llu invalidations\n",
              static_cast<unsigned long long>(ch.radio_transmissions),
              static_cast<unsigned long long>(rc.hits),
              static_cast<unsigned long long>(rc.misses),
              static_cast<unsigned long long>(rc.invalidations));
  std::printf("  peak RSS: %9.1f MiB\n", rss_mb);

  char key[96];
  std::snprintf(key, sizeof(key), "scale.%s.build_wall_ms", prefix);
  reg.GetGauge(key).Set(build_ms);
  std::snprintf(key, sizeof(key), "scale.%s.route_wall_ms", prefix);
  reg.GetGauge(key).Set(route_ms);
  std::snprintf(key, sizeof(key), "scale.%s.messages_per_sec", prefix);
  reg.GetGauge(key).Set(messages_per_sec);
  std::snprintf(key, sizeof(key), "scale.%s.reachable_messages", prefix);
  reg.GetGauge(key).Set(static_cast<double>(reachable));
  std::snprintf(key, sizeof(key), "scale.%s.radio_transmissions", prefix);
  reg.GetGauge(key).Set(static_cast<double>(ch.radio_transmissions));
  std::snprintf(key, sizeof(key), "scale.%s.route_cache_hits", prefix);
  reg.GetGauge(key).Set(static_cast<double>(rc.hits));
  std::snprintf(key, sizeof(key), "scale.%s.route_cache_misses", prefix);
  reg.GetGauge(key).Set(static_cast<double>(rc.misses));
  std::snprintf(key, sizeof(key), "scale.%s.peak_rss_mb", prefix);
  reg.GetGauge(key).Set(rss_mb);
}

int RunScaleTier(bench::ScaleMode mode, int argc, char** argv) {
  bench::PrintHeader("Channel --scale",
                     "large-topology mobility + routed-message throughput",
                     /*paper_scale=*/false);
  if (mode == bench::ScaleMode::kSmoke) {
    RunScaleDeployment(/*num_nodes=*/1000, /*num_messages=*/50000,
                       /*mobility_ticks=*/100, "c1000");
  } else {
    RunScaleDeployment(/*num_nodes=*/1000, /*num_messages=*/200000,
                       /*mobility_ticks=*/200, "c1000");
    RunScaleDeployment(/*num_nodes=*/10000, /*num_messages=*/100000,
                       /*mobility_ticks=*/100, "c10000");
  }
  bench::WriteTraceArtifacts(argc, argv);
  bench::WriteBenchReport(argc, argv, "bench_channel");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool paper = bench::PaperScale(argc, argv);
  g_trace_series_period_ms = bench::ArmFlightRecorder(argc, argv);
  const bench::ScaleMode scale = bench::ScaleTier(argc, argv);
  if (scale != bench::ScaleMode::kNone) return RunScaleTier(scale, argc, argv);
  bench::PrintHeader("Channel", "queue-aware latency under load + mobility disruption",
                     paper);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();

  // --- Part 1: offered load -> latency (static dense field, queues only) ---
  auto bed = BuildBed(paper, /*speed_m_per_s=*/0.0, /*field_size_m=*/150.0,
                      /*radio_range_m=*/100.0);
  const channel::RadioChannel* radio = bed->network->radio_channel();
  bed->network->AdvanceTo(radio->DrainedAtMs() + 1.0);  // drain publication

  const int max_load = 16;
  const Vector& query = bed->dataset.items[7];
  std::vector<double> latency;  // latency of the i-th back-to-back query
  for (int i = 0; i < max_load; ++i) {
    core::RangeQueryInfo info;
    Result<std::vector<core::ItemId>> r =
        bed->network->RangeQuery(query, 0.8, /*querying_peer=*/0, -1, &info);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    latency.push_back(info.latency_ms);
  }

  std::printf("offered load (back-to-back queries) -> mean latency\n");
  std::printf("%-8s %16s %16s\n", "load", "mean lat (ms)", "last lat (ms)");
  double running_sum = 0.0;
  double previous_mean = 0.0;
  bool monotone = true;
  for (int i = 0; i < max_load; ++i) {
    running_sum += latency[static_cast<size_t>(i)];
    const int load = i + 1;
    const double mean = running_sum / load;
    if (load == 1 || load == 2 || load == 4 || load == 8 || load == 16) {
      std::printf("%-8d %16.2f %16.2f\n", load, mean,
                  latency[static_cast<size_t>(i)]);
      char key[64];
      std::snprintf(key, sizeof(key), "benchc.load%d_latency_ms", load);
      reg.GetGauge(key).Set(mean);
    }
    if (mean + 1e-9 < previous_mean) monotone = false;
    previous_mean = mean;
  }
  if (!monotone) {
    std::fprintf(stderr,
                 "FAIL: queue-aware latency not monotone in offered load\n");
    return 1;
  }
  std::printf("monotone non-decreasing in load: yes\n");
  std::printf("queued transmissions: %llu, total queue wait: %.1f ms\n\n",
              static_cast<unsigned long long>(radio->counters().queued_transmissions),
              radio->counters().queue_wait_ms);

  // --- Part 2: mobility disruption snapshot --------------------------------
  // A moderately sparse field: mostly connected, with intermittent splits.
  auto mobile = BuildBed(paper, /*speed_m_per_s=*/25.0, /*field_size_m=*/220.0,
                         /*radio_range_m=*/70.0);
  const channel::RadioChannel* mobile_radio = mobile->network->radio_channel();
  mobile->network->AdvanceTo(mobile_radio->DrainedAtMs() + 30000.0);  // 30 s
  // Measure recall at a stably-healed instant (splits at the measurement
  // moment would swamp the soft-state signal with routing failures): walk
  // the clock until the field has been whole for a full republish period.
  {
    int healed_ticks = 0;
    for (int i = 0; i < 3000 && healed_ticks * mobile_radio->tick_ms() <= 800.0;
         ++i) {
      mobile->network->AdvanceTo(mobile->network->now() + mobile_radio->tick_ms());
      healed_ticks = mobile_radio->connected() ? healed_ticks + 1 : 0;
    }
  }

  const core::FlatIndex oracle(mobile->dataset);
  std::vector<core::PrecisionRecall> results;
  const int num_queries = 12;
  const size_t n = mobile->dataset.size();
  for (int q = 0; q < num_queries; ++q) {
    const Vector& center = mobile->dataset.items[(static_cast<size_t>(q) * 17) % n];
    Result<std::vector<core::ItemId>> r = mobile->network->RangeQuery(
        center, 0.8, q % mobile->network->num_peers(), -1);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    results.push_back(core::Evaluate(*r, oracle.RangeSearch(center, 0.8)));
  }
  const double recall = core::Summarize(results).mean_recall;
  const net::TransportCounters net_counters = mobile->network->transport().counters();
  const channel::ChannelCounters& ch = mobile_radio->counters();

  std::printf("mobility snapshot after 30 s at 25 m/s (220 m field, 70 m range):\n");
  std::printf("  mobility ticks:        %llu (disconnected: %llu)\n",
              static_cast<unsigned long long>(ch.mobility_steps),
              static_cast<unsigned long long>(ch.disconnected_steps));
  std::printf("  radio transmissions:   %llu (unreachable: %llu)\n",
              static_cast<unsigned long long>(ch.radio_transmissions),
              static_cast<unsigned long long>(ch.unreachable_transmissions));
  std::printf("  ARQ retries:           %llu (dead letters: %llu)\n",
              static_cast<unsigned long long>(net_counters.retries),
              static_cast<unsigned long long>(net_counters.dead_letters));
  std::printf("  republish rounds:      %llu\n",
              static_cast<unsigned long long>(mobile->network->soft_state().republishes));
  std::printf("  range recall:          %.3f\n", recall);
  std::printf("  radio energy:          %.1f mJ\n",
              mobile->network->stats().total_energy_millijoules());

  reg.GetGauge("benchc.mobile_recall").Set(recall);
  reg.GetGauge("benchc.mobile_disconnected_steps")
      .Set(static_cast<double>(ch.disconnected_steps));
  reg.GetGauge("benchc.mobile_retries").Set(static_cast<double>(net_counters.retries));
  reg.GetGauge("benchc.mobile_energy_mj")
      .Set(mobile->network->stats().total_energy_millijoules());

  // --- Part 3: CSMA/CA contention snapshot ---------------------------------
  // Same dense static field as Part 1 but under the 802.11-style MAC: the
  // query burst now pays carrier-sense deferrals and collision retransmits.
  // The per-cause channel.mac.* counters flow into the global registry (and
  // hence this bench's JSON report) so MAC losses are never silent.
  auto csma = BuildBed(paper, /*speed_m_per_s=*/0.0, /*field_size_m=*/150.0,
                       /*radio_range_m=*/100.0, /*csma_mac=*/true);
  const channel::RadioChannel* csma_radio = csma->network->radio_channel();
  csma->network->AdvanceTo(csma_radio->DrainedAtMs() + 1.0);
  for (int i = 0; i < max_load; ++i) {
    Result<std::vector<core::ItemId>> r =
        csma->network->RangeQuery(query, 0.8, /*querying_peer=*/0, -1);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
  }
  const channel::MacCounters& mac = csma_radio->mac().counters();
  std::printf("\nCSMA/CA contention snapshot (same burst as part 1):\n");
  std::printf("  frames sent:        %llu\n",
              static_cast<unsigned long long>(mac.frames_sent));
  std::printf("  deferrals:          %llu\n",
              static_cast<unsigned long long>(mac.deferrals));
  std::printf("  collisions:         %llu (retransmits: %llu)\n",
              static_cast<unsigned long long>(mac.collisions),
              static_cast<unsigned long long>(mac.retransmits));
  std::printf("  retry-limit drops:  %llu\n",
              static_cast<unsigned long long>(mac.drops_retry_limit));
  reg.GetGauge("benchc.csma_frames_sent")
      .Set(static_cast<double>(mac.frames_sent));
  reg.GetGauge("benchc.csma_deferrals").Set(static_cast<double>(mac.deferrals));
  reg.GetGauge("benchc.csma_collisions")
      .Set(static_cast<double>(mac.collisions));
  reg.GetGauge("benchc.csma_drops_retry_limit")
      .Set(static_cast<double>(mac.drops_retry_limit));

  bench::WriteTraceArtifacts(argc, argv);
  bench::WriteBenchReport(argc, argv, "bench_channel");
  return 0;
}
