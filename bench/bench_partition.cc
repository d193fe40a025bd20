// Partition-tolerance sweep: range-query recall under geometry-driven radio
// partitions, legacy layer-dropping query path vs the partition-tolerant
// planner (CAN detour routing + heal-time re-issue), across mobility speeds
// (partition density) and heal windows. Fully seeded; the JSON report is
// diffed against bench/baselines/BENCH_partition.json in CI.
//
// Method: for each speed, a query-free probe deployment walks the mobility
// clock and records the first few split onsets. Mobility draws from its own
// per-tick RNG stream, so every deployment at that speed — probe, legacy,
// planner — sees the byte-identical split schedule, and the recorded times
// are split moments in all of them. Each (speed, heal-window) cell then
// replays the same query batches at those times and scores recall against a
// flat-scan oracle.
//
// The binary fails hard unless (a) every probe found its splits (the field
// really partitions) and (b) aggregate planner recall strictly exceeds the
// legacy path's — the repo's executable form of the planner's acceptance
// criterion.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "data/markov_generator.h"
#include "data/peer_assignment.h"
#include "hyperm/eval.h"
#include "hyperm/flat_index.h"
#include "hyperm/network.h"
#include "obs/metrics.h"

using namespace hyperm;

namespace {

constexpr double kEpsilon = 0.8;
constexpr int kBatches = 4;           // split moments sampled per speed
constexpr int kQueriesPerBatch = 8;
constexpr double kMinBatchGapMs = 10000.0;  // keep heal waits from colliding

// Flight-recorder time-series period, set from --trace-out in main. Sampling
// probes only read state, so deployments are bit-identical with or without
// them; 0 keeps the simulator event queue at its historical contents.
double g_trace_series_period_ms = 0.0;

struct PartitionBed {
  data::Dataset dataset;
  data::PeerAssignment assignment;
  std::unique_ptr<core::HyperMNetwork> network;
};

std::unique_ptr<PartitionBed> BuildBed(bool paper, double speed_m_per_s,
                                       const core::QueryPlanOptions& plan) {
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
  auto bed = std::make_unique<PartitionBed>();
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
  // Sparse enough that mobility splits the field; scaled with the peer count
  // so the paper bed keeps roughly the per-peer area of the default one. The
  // paper field needs the slightly longer radio range: at 60 m the 460 m
  // field sits below the connectivity threshold and no seed in the placement
  // budget yields a connected start.
  options.channel.field.field_size_m = paper ? 460.0 : 260.0;
  options.channel.field.radio_range_m = paper ? 72.0 : 60.0;
  options.channel.field.max_placement_attempts = 5000;
  options.channel.tick_ms = 100.0;
  options.channel.speed_m_per_s = speed_m_per_s;
  options.plan = plan;
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

/// Walks a query-free deployment's clock and returns the first kBatches
/// split onsets at least kMinBatchGapMs apart (empty on a field that never
/// splits within the walk budget).
std::vector<double> ProbeSplitTimes(bool paper, double speed_m_per_s) {
  auto probe = BuildBed(paper, speed_m_per_s, core::QueryPlanOptions{});
  const channel::RadioChannel* radio = probe->network->radio_channel();
  const double tick = radio->tick_ms();
  std::vector<double> times;
  double t = radio->DrainedAtMs() + 1.0;
  probe->network->AdvanceTo(t);
  constexpr int kMaxTicks = 6000;
  for (int step = 0; step < kMaxTicks && static_cast<int>(times.size()) < kBatches;
       ++step) {
    t += tick;
    probe->network->AdvanceTo(t);
    if (radio->connected()) continue;
    if (!times.empty() && t - times.back() < kMinBatchGapMs) continue;
    times.push_back(t);
  }
  return times;
}

struct CellResult {
  double mean_recall = 0.0;
  double mean_latency_ms = 0.0;
};

/// Replays the recorded query batches on a fresh deployment and scores them.
CellResult RunCell(bool paper, double speed_m_per_s,
                   const core::QueryPlanOptions& plan,
                   const std::vector<double>& batch_times,
                   const core::FlatIndex& oracle) {
  auto bed = BuildBed(paper, speed_m_per_s, plan);
  const size_t n = bed->dataset.size();
  const int num_peers = bed->network->num_peers();
  std::vector<core::PrecisionRecall> results;
  double latency_sum = 0.0;
  int query_count = 0;
  for (size_t b = 0; b < batch_times.size(); ++b) {
    // Heal waits from the previous batch may already have advanced the clock
    // past this batch's split; never rewind the simulator.
    bed->network->AdvanceTo(std::max(batch_times[b], bed->network->now()));
    for (int q = 0; q < kQueriesPerBatch; ++q) {
      const int i = static_cast<int>(b) * kQueriesPerBatch + q;
      const Vector& center = bed->dataset.items[(static_cast<size_t>(i) * 17) % n];
      core::RangeQueryInfo info;
      Result<std::vector<core::ItemId>> r = bed->network->RangeQuery(
          center, kEpsilon, /*querying_peer=*/i % num_peers,
          /*max_peers_contacted=*/-1, &info);
      if (!r.ok()) {
        std::fprintf(stderr, "query: %s\n", r.status().ToString().c_str());
        std::exit(1);
      }
      results.push_back(core::Evaluate(*r, oracle.RangeSearch(center, kEpsilon)));
      latency_sum += info.latency_ms;
      ++query_count;
    }
  }
  CellResult cell;
  cell.mean_recall = core::Summarize(results).mean_recall;
  cell.mean_latency_ms = latency_sum / query_count;
  return cell;
}

// --- Scale-out tier ---------------------------------------------------------
//
// --scale-smoke / --scale replace the recall sweep with a large-deployment
// throughput run: generate the dataset, build the full stack (CAN overlay +
// radio channel + spatial-hash topology) at 1k peers (and 10k under --scale),
// run a query burst, and gauge per-phase wall time, throughput and peak RSS.
// Counters stay deterministic (seeded); wall/throughput gauges are checked
// with wide or absolute tolerances from the baseline's "check" object.

/// Field side (m) that keeps mean radio degree ~12 at 50 m range:
/// side = sqrt(n * pi * r^2 / 12).
double ScaleFieldSide(int num_peers) {
  constexpr double kRange = 50.0;
  constexpr double kTargetDegree = 12.0;
  return std::sqrt(static_cast<double>(num_peers) * 3.14159265358979323846 *
                   kRange * kRange / kTargetDegree);
}

void RunScaleDeployment(int num_peers, int num_items, int num_queries,
                        const char* prefix) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  std::printf("\n--- scale deployment: %d peers, %d items ---\n", num_peers,
              num_items);

  bench::PhaseTimer dataset_timer;
  Rng rng(4242);
  data::MarkovOptions data_options;
  data_options.count = num_items;
  data_options.dim = 64;
  data_options.num_families = 8;
  Result<data::Dataset> dataset_result = data::GenerateMarkov(data_options, rng);
  if (!dataset_result.ok()) {
    std::fprintf(stderr, "dataset: %s\n",
                 dataset_result.status().ToString().c_str());
    std::exit(1);
  }
  // The network points into the dataset; keep it alive for the whole run.
  const data::Dataset dataset = std::move(dataset_result).value();
  const double dataset_ms = dataset_timer.ElapsedMs();

  bench::PhaseTimer build_timer;
  data::AssignmentOptions assign_options;
  assign_options.num_peers = num_peers;
  assign_options.num_interest_classes = 64;
  assign_options.min_peers_per_class = 4;
  assign_options.max_peers_per_class = std::max(8, num_peers / 32);
  Result<data::PeerAssignment> assignment =
      data::AssignByInterest(dataset, assign_options, rng);
  if (!assignment.ok()) {
    std::fprintf(stderr, "assignment: %s\n",
                 assignment.status().ToString().c_str());
    std::exit(1);
  }
  core::HyperMOptions options;
  options.net.retry.adaptive = true;
  options.net.summary_ttl_ms = 1500.0;
  options.net.republish_period_ms = 400.0;
  options.channel.enabled = true;
  options.channel.field.field_size_m = ScaleFieldSide(num_peers);
  options.channel.field.radio_range_m = 50.0;
  options.channel.field.max_placement_attempts = 5000;
  options.channel.tick_ms = 100.0;
  options.channel.speed_m_per_s = 15.0;
  options.trace_series_period_ms = g_trace_series_period_ms;
  Result<std::unique_ptr<core::HyperMNetwork>> network_result =
      core::HyperMNetwork::Build(dataset, assignment.value(), options, rng);
  if (!network_result.ok()) {
    std::fprintf(stderr, "network: %s\n",
                 network_result.status().ToString().c_str());
    std::exit(1);
  }
  const std::unique_ptr<core::HyperMNetwork> network =
      std::move(network_result).value();
  const double build_ms = build_timer.ElapsedMs();

  bench::PhaseTimer query_timer;
  const size_t n = dataset.size();
  uint64_t results_returned = 0;
  for (int q = 0; q < num_queries; ++q) {
    const Vector& center = dataset.items[(static_cast<size_t>(q) * 131) % n];
    Result<std::vector<core::ItemId>> r = network->RangeQuery(
        center, kEpsilon, /*querying_peer=*/q % num_peers, -1);
    if (!r.ok()) {
      std::fprintf(stderr, "query: %s\n", r.status().ToString().c_str());
      std::exit(1);
    }
    results_returned += r->size();
  }
  const double query_ms = query_timer.ElapsedMs();

  const double build_items_per_sec =
      build_ms > 0.0 ? 1000.0 * num_items / build_ms : 0.0;
  const double queries_per_sec =
      query_ms > 0.0 ? 1000.0 * num_queries / query_ms : 0.0;
  const double rss_mb = bench::PeakRssMb();
  std::printf("  dataset: %10.1f ms\n", dataset_ms);
  std::printf("  build:   %10.1f ms (%.0f items/s)\n", build_ms,
              build_items_per_sec);
  std::printf("  queries: %10.1f ms (%d queries, %.1f q/s, %llu results)\n",
              query_ms, num_queries, queries_per_sec,
              static_cast<unsigned long long>(results_returned));
  std::printf("  peak RSS: %9.1f MiB\n", rss_mb);

  char key[96];
  std::snprintf(key, sizeof(key), "scale.%s.dataset_wall_ms", prefix);
  reg.GetGauge(key).Set(dataset_ms);
  std::snprintf(key, sizeof(key), "scale.%s.build_wall_ms", prefix);
  reg.GetGauge(key).Set(build_ms);
  std::snprintf(key, sizeof(key), "scale.%s.query_wall_ms", prefix);
  reg.GetGauge(key).Set(query_ms);
  std::snprintf(key, sizeof(key), "scale.%s.build_items_per_sec", prefix);
  reg.GetGauge(key).Set(build_items_per_sec);
  std::snprintf(key, sizeof(key), "scale.%s.queries_per_sec", prefix);
  reg.GetGauge(key).Set(queries_per_sec);
  std::snprintf(key, sizeof(key), "scale.%s.results_returned", prefix);
  reg.GetGauge(key).Set(static_cast<double>(results_returned));
  std::snprintf(key, sizeof(key), "scale.%s.peak_rss_mb", prefix);
  reg.GetGauge(key).Set(rss_mb);
}

int RunScaleTier(bench::ScaleMode mode, int argc, char** argv) {
  bench::PrintHeader("Partition --scale",
                     "large-deployment build/query throughput + peak RSS",
                     /*paper_scale=*/false);
  if (mode == bench::ScaleMode::kSmoke) {
    // CI tier: 1k peers, trimmed items — completes in minutes under TSan.
    RunScaleDeployment(/*num_peers=*/1000, /*num_items=*/20000,
                       /*num_queries=*/16, "p1000");
  } else {
    RunScaleDeployment(/*num_peers=*/1000, /*num_items=*/100000,
                       /*num_queries=*/32, "p1000");
    RunScaleDeployment(/*num_peers=*/10000, /*num_items=*/100000,
                       /*num_queries=*/16, "p10000");
  }
  bench::WriteTraceArtifacts(argc, argv);
  bench::WriteBenchReport(argc, argv, "bench_partition");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool paper = bench::PaperScale(argc, argv);
  g_trace_series_period_ms = bench::ArmFlightRecorder(argc, argv);
  const bench::ScaleMode scale = bench::ScaleTier(argc, argv);
  if (scale != bench::ScaleMode::kNone) return RunScaleTier(scale, argc, argv);
  bench::PrintHeader("Partition", "split-time recall: legacy path vs planner sweep",
                     paper);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  bench::PhaseTimer sweep_timer;  // whole-sweep wall clock, reported below

  const std::vector<double> speeds = {15.0, 25.0};
  const std::vector<double> heal_windows_ms = {0.0, 300.0, 900.0};

  std::printf("%-12s", "speed (m/s)");
  for (double heal : heal_windows_ms) {
    char head[32];
    if (heal == 0.0) {
      std::snprintf(head, sizeof(head), "legacy");
    } else {
      std::snprintf(head, sizeof(head), "heal %.0fms", heal);
    }
    std::printf(" %14s", head);
  }
  std::printf("\n");

  double legacy_recall_sum = 0.0;
  double planner_recall_sum = 0.0;
  double legacy_latency_sum = 0.0;
  double planner_latency_sum = 0.0;
  int total_batches = 0;
  for (double speed : speeds) {
    const std::vector<double> batch_times = ProbeSplitTimes(paper, speed);
    if (static_cast<int>(batch_times.size()) < kBatches) {
      std::fprintf(stderr,
                   "FAIL: %zu/%d splits at %.0f m/s; the field is not "
                   "partitioning\n",
                   batch_times.size(), kBatches, speed);
      return 1;
    }
    total_batches += static_cast<int>(batch_times.size());

    // The oracle only needs the dataset, identical across beds by seeding.
    auto oracle_bed = BuildBed(paper, speed, core::QueryPlanOptions{});
    const core::FlatIndex oracle(oracle_bed->dataset);

    std::printf("%-12.0f", speed);
    for (double heal : heal_windows_ms) {
      core::QueryPlanOptions plan;
      if (heal > 0.0) {
        plan.route_detours = 4;
        plan.reissue_budget = 3;
        plan.heal_window_ms = heal;
      }
      const CellResult cell =
          RunCell(paper, speed, plan, batch_times, oracle);
      std::printf(" %14.3f", cell.mean_recall);
      char key[64];
      std::snprintf(key, sizeof(key), "benchp.v%.0f_h%.0f_recall", speed, heal);
      reg.GetGauge(key).Set(cell.mean_recall);
      if (heal == 0.0) {
        legacy_recall_sum += cell.mean_recall;
        legacy_latency_sum += cell.mean_latency_ms;
      } else if (heal == heal_windows_ms.back()) {
        planner_recall_sum += cell.mean_recall;
        planner_latency_sum += cell.mean_latency_ms;
      }
    }
    std::printf("\n");
  }

  const double num_speeds = static_cast<double>(speeds.size());
  const double legacy_recall = legacy_recall_sum / num_speeds;
  const double planner_recall = planner_recall_sum / num_speeds;
  std::printf("\nsplit batches sampled: %d (x%d queries each)\n", total_batches,
              kQueriesPerBatch);
  std::printf("aggregate split-time recall: legacy %.3f, planner %.3f\n",
              legacy_recall, planner_recall);
  std::printf("mean latency: legacy %.1f ms, planner %.1f ms (heal waits bill "
              "to the query)\n",
              legacy_latency_sum / num_speeds, planner_latency_sum / num_speeds);

  reg.GetGauge("benchp.legacy_recall").Set(legacy_recall);
  reg.GetGauge("benchp.planner_recall").Set(planner_recall);
  reg.GetGauge("benchp.legacy_latency_ms").Set(legacy_latency_sum / num_speeds);
  reg.GetGauge("benchp.planner_latency_ms").Set(planner_latency_sum / num_speeds);
  reg.GetGauge("benchp.split_batches").Set(static_cast<double>(total_batches));
  // Wall time of the whole sweep ("wall" keys are exempt from baseline
  // diffs); this is the number the scale-out PR's 2x acceptance is read from.
  reg.GetGauge("benchp.sweep_wall_ms").Set(sweep_timer.ElapsedMs());
  std::printf("sweep wall time: %.1f s\n", sweep_timer.ElapsedMs() / 1000.0);

  if (planner_recall <= legacy_recall) {
    std::fprintf(stderr,
                 "FAIL: planner recall %.3f not above the legacy path's %.3f "
                 "under active partitions\n",
                 planner_recall, legacy_recall);
    return 1;
  }
  std::printf("planner strictly above legacy under partitions: yes\n");

  bench::WriteTraceArtifacts(argc, argv);
  bench::WriteBenchReport(argc, argv, "bench_partition");
  return 0;
}
