// Heavy-traffic serving sweep: open-loop offered load x Zipf skew x
// {caches+shortcuts off, on} over a static loss-free radio bed. Fully
// seeded; the JSON report is diffed against bench/baselines/BENCH_serve.json
// in CI (schema-only under sanitizers).
//
// Method: every cell deploys the same seeded radio bed (no mobility, no
// scripted faults, republish disabled — the knee measured here comes from
// query airtime alone), settles the publication backlog, then serves one
// open-loop Poisson schedule through a fresh ServeEngine. Arrivals are
// scheduled independently of completions, so a saturated radio cannot slow
// the workload down — it can only queue, shed, or blow its deadline
// (EXPERIMENTS.md covers the open-loop methodology and the coordinated-
// omission argument for billing latency from the *scheduled* arrival).
//
// Per (zipf, config) the ladder's sustainable goodput is the best goodput
// among cells whose p99 time-to-answer still meets the deadline. The binary
// fails hard unless, on the skewed tier, caches+shortcuts sustain >= 1.5x
// the goodput of the off config at equal p99 acceptance and equal (+-1%)
// served-query recall — the executable form of the serving subsystem's
// acceptance criterion.

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
#include "serve/engine.h"

using namespace hyperm;

namespace {

double g_trace_series_period_ms = 0.0;  // set from --trace-out in main

double Epsilon(bool paper) { return paper ? 0.05 : 0.15; }

struct ServeBed {
  data::Dataset dataset;
  data::PeerAssignment assignment;
  std::unique_ptr<core::HyperMNetwork> network;
};

std::unique_ptr<ServeBed> BuildBed(bool paper) {
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
  auto bed = std::make_unique<ServeBed>();
  bed->dataset = std::move(dataset).value();
  data::AssignmentOptions assign_options;
  assign_options.num_peers = paper ? 50 : 16;
  assign_options.num_interest_classes = paper ? 16 : 8;
  Result<data::PeerAssignment> assignment =
      data::AssignByInterest(bed->dataset, assign_options, rng);
  if (!assignment.ok()) {
    std::fprintf(stderr, "assignment: %s\n",
                 assignment.status().ToString().c_str());
    std::exit(1);
  }
  bed->assignment = std::move(assignment).value();
  core::HyperMOptions options;
  options.net.retry.adaptive = true;
  // Static summaries: no TTL churn and no republish floods — the capacity
  // the ladder saturates is query airtime, nothing else. (The result
  // cache's epoch/TTL machinery is exercised by the serve unit tests.)
  options.channel.enabled = true;
  options.channel.field.field_size_m = paper ? 460.0 : 300.0;
  options.channel.field.radio_range_m = paper ? 72.0 : 60.0;
  options.channel.field.max_placement_attempts = 5000;
  options.channel.tick_ms = 100.0;
  options.channel.speed_m_per_s = 0.0;
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

struct CellResult {
  serve::ServeStats stats;
  double recall = 0.0;         ///< mean recall over completed queries
  double cache_hit_rate = 0.0; ///< hits / admitted
  uint64_t shortcut_hits = 0;
  uint64_t shortcut_stale = 0;
  double p99() const { return stats.Quantile(0.99); }
};

CellResult RunCell(bool paper, double zipf_s, double offered_qps, bool serving_on,
                   const core::FlatIndex& oracle, double deadline_ms) {
  auto bed = BuildBed(paper);
  // Settle: drain the publication backlog so serving starts on idle radios.
  bed->network->AdvanceTo(bed->network->radio_channel()->DrainedAtMs() + 1.0);

  serve::ServeOptions options;
  options.workload.duration_ms = 20000.0;
  options.workload.offered_qps = offered_qps;
  options.workload.num_templates = 16;
  options.workload.zipf_s = zipf_s;
  options.workload.range_fraction = 0.75;
  options.range_epsilon = Epsilon(paper);
  options.knn_k = 10;
  options.deadline_ms = deadline_ms;
  options.cache.enabled = serving_on;
  // Static bed: coherence is the summary epoch's job, so the soft-state TTL
  // can span the window (repeat gaps at <= 4 qps dwarf a 1 s TTL).
  options.cache.ttl_ms = options.workload.duration_ms;
  options.shortcuts.enabled = serving_on;
  // Per-node backlog is the admission signal; a queue already holding a
  // deadline's worth of airtime cannot serve a new arrival in time.
  options.admission.max_backlog_ms = deadline_ms;
  options.admission.max_lag_ms = deadline_ms;

  const std::vector<serve::QueryTemplate> templates = serve::MakeTemplates(
      bed->dataset.items, options.workload, options.range_epsilon,
      options.knn_k);
  const std::vector<serve::Arrival> schedule =
      serve::GenerateArrivals(options.workload, bed->network->num_peers());

  // Ground truth per template from the flat-scan oracle.
  std::vector<std::vector<core::ItemId>> truth;
  truth.reserve(templates.size());
  for (const serve::QueryTemplate& t : templates) {
    truth.push_back(t.knn ? oracle.Knn(t.center, t.k)
                          : oracle.RangeSearch(t.center, t.epsilon));
  }

  std::vector<core::PrecisionRecall> results;
  serve::ServeEngine engine(bed->network.get(), options);
  Result<serve::ServeStats> stats = engine.Run(
      templates, schedule,
      [&](const serve::Arrival& arrival,
          const std::vector<core::ItemId>& items, bool /*cache_hit*/,
          double /*t2a_ms*/) {
        results.push_back(core::Evaluate(
            items, truth[static_cast<size_t>(arrival.template_id)]));
      });
  if (!stats.ok()) {
    std::fprintf(stderr, "serve: %s\n", stats.status().ToString().c_str());
    std::exit(1);
  }
  CellResult cell;
  cell.stats = std::move(stats).value();
  cell.recall = results.empty() ? 0.0 : core::Summarize(results).mean_recall;
  cell.cache_hit_rate =
      cell.stats.admitted > 0
          ? static_cast<double>(cell.stats.cache_hits) /
                static_cast<double>(cell.stats.admitted)
          : 0.0;
  cell.shortcut_hits = engine.shortcuts().stats().hits;
  cell.shortcut_stale = engine.shortcuts().stats().stale;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const bool paper = bench::PaperScale(argc, argv);
  g_trace_series_period_ms = bench::ArmFlightRecorder(argc, argv);
  bench::PrintHeader("Serve",
                     "open-loop load x Zipf skew x caches/shortcuts sweep",
                     paper);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  bench::PhaseTimer sweep_timer;

  const std::vector<double> zipf = {0.5, 1.25};
  const std::vector<double> ladder = {0.5, 1.0, 2.0, 4.0};
  // ~2.5-4x the tier's uncongested p99 time-to-answer: tight enough that a
  // saturated rung blows it, loose enough that the base rung clears it.
  const double deadline_ms = paper ? 200000.0 : 10000.0;

  // The oracle depends only on the seeded dataset, identical across beds.
  const core::FlatIndex oracle(BuildBed(paper)->dataset);

  std::printf("%-5s %-4s %6s %9s %9s %9s %8s %8s %8s %8s\n", "zipf", "cfg",
              "qps", "goodput", "p50 ms", "p99 ms", "shed%", "cache%",
              "recall", "sc hits");

  // sustainable[zipf][on], recall of each config's base (unsaturated) rung.
  double sustainable[2][2] = {{0.0, 0.0}, {0.0, 0.0}};
  double base_recall[2][2] = {{0.0, 0.0}, {0.0, 0.0}};
  for (size_t z = 0; z < zipf.size(); ++z) {
    for (int on = 0; on <= 1; ++on) {
      for (size_t rung = 0; rung < ladder.size(); ++rung) {
        const CellResult cell = RunCell(paper, zipf[z], ladder[rung], on != 0,
                                        oracle, deadline_ms);
        std::printf(
            "%-5.2f %-4s %6.0f %9.1f %9.1f %9.1f %7.1f%% %7.1f%% %8.3f %8llu\n",
            zipf[z], on ? "on" : "off", ladder[rung],
            cell.stats.goodput_qps(), cell.stats.Quantile(0.50), cell.p99(),
            cell.stats.shed_rate() * 100.0, cell.cache_hit_rate * 100.0,
            cell.recall, static_cast<unsigned long long>(cell.shortcut_hits));
        char key[96];
        std::snprintf(key, sizeof(key), "benchsv.z%zu_%s_q%.0f_goodput", z,
                      on ? "on" : "off", ladder[rung]);
        reg.GetGauge(key).Set(cell.stats.goodput_qps());
        std::snprintf(key, sizeof(key), "benchsv.z%zu_%s_q%.0f_p99_ms", z,
                      on ? "on" : "off", ladder[rung]);
        reg.GetGauge(key).Set(cell.p99());
        std::snprintf(key, sizeof(key), "benchsv.z%zu_%s_q%.0f_shed_rate", z,
                      on ? "on" : "off", ladder[rung]);
        reg.GetGauge(key).Set(cell.stats.shed_rate());
        std::snprintf(key, sizeof(key), "benchsv.z%zu_%s_q%.0f_cache_hit_rate",
                      z, on ? "on" : "off", ladder[rung]);
        reg.GetGauge(key).Set(cell.cache_hit_rate);
        std::snprintf(key, sizeof(key), "benchsv.z%zu_%s_q%.0f_recall", z,
                      on ? "on" : "off", ladder[rung]);
        reg.GetGauge(key).Set(cell.recall);
        if (cell.stats.completed > 0 && cell.p99() <= deadline_ms) {
          sustainable[z][on] =
              std::max(sustainable[z][on], cell.stats.goodput_qps());
        }
        if (rung == 0) base_recall[z][on] = cell.recall;
      }
    }
  }

  const size_t skew = zipf.size() - 1;  // the enforcement tier
  const double sust_off = sustainable[skew][0];
  const double sust_on = sustainable[skew][1];
  const double speedup = sust_off > 0.0 ? sust_on / sust_off : 0.0;
  const double recall_delta =
      std::abs(base_recall[skew][1] - base_recall[skew][0]);
  std::printf("\nskewed tier (zipf %.2f), caches+shortcuts on vs off:\n",
              zipf[skew]);
  std::printf("  sustainable goodput (p99 <= %.0f ms): %.1f vs %.1f qps "
              "(%.2fx)\n",
              deadline_ms, sust_on, sust_off, speedup);
  std::printf("  served-query recall at the base rung: %.3f vs %.3f "
              "(|delta| %.4f)\n",
              base_recall[skew][1], base_recall[skew][0], recall_delta);

  reg.GetGauge("benchsv.sustainable_on_qps").Set(sust_on);
  reg.GetGauge("benchsv.sustainable_off_qps").Set(sust_off);
  reg.GetGauge("benchsv.goodput_speedup").Set(speedup);
  reg.GetGauge("benchsv.recall_delta").Set(recall_delta);
  reg.GetGauge("benchsv.sweep_wall_ms").Set(sweep_timer.ElapsedMs());
  std::printf("sweep wall time: %.1f s\n", sweep_timer.ElapsedMs() / 1000.0);

  if (speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: caches+shortcuts sustain only %.2fx the goodput of "
                 "the off config (need >= 1.5x)\n",
                 speedup);
    return 1;
  }
  if (recall_delta > 0.01) {
    std::fprintf(stderr,
                 "FAIL: served-query recall %.3f drifted more than 1%% from "
                 "the off config's %.3f\n",
                 base_recall[skew][1], base_recall[skew][0]);
    return 1;
  }
  std::printf(">=1.5x sustainable goodput at equal p99 and recall: yes\n");

  bench::WriteTraceArtifacts(argc, argv);
  bench::WriteBenchReport(argc, argv, "bench_serve");
  return 0;
}
