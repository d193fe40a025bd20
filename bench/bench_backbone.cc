// Supernode-backbone sweep: Bloom-digest query pruning vs digest-less CDS
// flooding, across digest sizes and mobility-driven churn. Fully seeded; the
// JSON report is diffed against bench/baselines/BENCH_backbone.json in CI.
//
// Method: every cell deploys the same seeded radio bed with the backbone
// enabled and one digest geometry (digest_bits == 0 is the digest-less
// comparator: the CDS walk still runs but descends into every domain). The
// static-field cells are the fault-free tier; mobile cells add churn, where
// probes landing on a just-changed radio graph fail soft to full CAN
// flooding. Each cell reports measured digest FPR (fresh empty descents /
// fresh prune opportunities), per-probe domain descents, query-class
// airtime, and recall against a flat-scan oracle.
//
// The binary fails hard unless, on the fault-free tier, the largest digest
// (a) descends into at least 2x fewer domains per served probe than the
// digest-less walk and (b) keeps recall within +-1% of it — the executable
// form of the backbone's acceptance criterion.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "backbone/manager.h"
#include "bench/bench_util.h"
#include "data/markov_generator.h"
#include "data/peer_assignment.h"
#include "hyperm/eval.h"
#include "hyperm/flat_index.h"
#include "hyperm/network.h"
#include "obs/metrics.h"

using namespace hyperm;

namespace {



double g_trace_series_period_ms = 0.0;  // set from --trace-out in main

/// Query threshold per tier. Queries center on stored items, so epsilon
/// controls how many interest classes — and hence domains — each query's
/// Theorem 4.1 spheres brush against; both tiers aim for class-selective
/// queries (recall is measured against a flat-scan oracle at the same
/// epsilon, so the digest-vs-digestless comparison is fair at any value).
double Epsilon(bool paper) { return paper ? 0.05 : 0.15; }

struct BackboneBed {
  data::Dataset dataset;
  data::PeerAssignment assignment;
  std::unique_ptr<core::HyperMNetwork> network;
};

std::unique_ptr<BackboneBed> BuildBed(bool paper, double speed_m_per_s,
                                      int digest_bits) {
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
  auto bed = std::make_unique<BackboneBed>();
  bed->dataset = std::move(dataset).value();
  data::AssignmentOptions assign_options;
  assign_options.num_peers = paper ? 50 : 16;
  // Narrow interests (the paper's "limited set of interests" skew, Section
  // 5.1): each class lands on few peers, so a radio domain of 3-6 members
  // covers a minority of the classes and most (query, domain) pairs are
  // provably empty at some level — the headroom digest pruning feeds on.
  assign_options.num_interest_classes = paper ? 16 : 8;
  assign_options.min_peers_per_class = paper ? 3 : 2;
  assign_options.max_peers_per_class = paper ? 4 : 3;
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
  options.net.summary_ttl_ms = 1500.0;
  options.net.republish_period_ms = 400.0;
  options.channel.enabled = true;
  // The bench_partition radio field: sparse enough that mobility reshapes
  // connectivity, connected at rest.
  options.channel.field.field_size_m = paper ? 460.0 : 300.0;
  options.channel.field.radio_range_m = paper ? 72.0 : 60.0;
  options.channel.field.max_placement_attempts = 5000;
  options.channel.tick_ms = 100.0;
  options.channel.speed_m_per_s = speed_m_per_s;
  options.backbone.enabled = true;
  options.backbone.digest_bits = digest_bits;
  options.backbone.digest_cells_per_axis = 24;
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
  double recall = 0.0;
  double descends_per_probe = 0.0;  ///< domains descended per served probe
  double fpr = 0.0;                 ///< measured digest false-positive rate
  double query_kb = 0.0;            ///< query-class airtime over the batch
  double digest_kb = 0.0;           ///< digest-exchange airtime, total
  uint64_t served = 0;
  uint64_t fallbacks = 0;
  uint64_t pruned = 0;
  uint64_t leaf_skips = 0;
};

CellResult RunCell(bool paper, double speed_m_per_s, int digest_bits,
                   int num_queries, const core::FlatIndex& oracle) {
  auto bed = BuildBed(paper, speed_m_per_s, digest_bits);
  const backbone::BackboneManager* manager = bed->network->backbone();
  const size_t n = bed->dataset.size();
  const int num_peers = bed->network->num_peers();

  // Settle: drain the publication backlog, then give the maintenance loop
  // time to collect member reports and complete + exchange every digest.
  double t = bed->network->radio_channel()->DrainedAtMs() + 1.0;
  bed->network->AdvanceTo(t);
  t += 1200.0;
  bed->network->AdvanceTo(t);

  const backbone::BackboneCounters before = manager->counters();
  const uint64_t query_bytes_before =
      bed->network->stats().bytes(sim::TrafficClass::kQuery);

  std::vector<core::PrecisionRecall> results;
  for (int q = 0; q < num_queries; ++q) {
    if (speed_m_per_s > 0.0) {
      // Churn tier: let the field move between queries.
      t += 300.0;
      bed->network->AdvanceTo(t);
    }
    const Vector& center = bed->dataset.items[(static_cast<size_t>(q) * 17) % n];
    Result<std::vector<core::ItemId>> r = bed->network->RangeQuery(
        center, Epsilon(paper), /*querying_peer=*/q % num_peers,
        /*max_peers_contacted=*/-1);
    if (!r.ok()) {
      std::fprintf(stderr, "query: %s\n", r.status().ToString().c_str());
      std::exit(1);
    }
    results.push_back(core::Evaluate(*r, oracle.RangeSearch(center, Epsilon(paper))));
  }

  const backbone::BackboneCounters& after = manager->counters();
  CellResult cell;
  cell.recall = core::Summarize(results).mean_recall;
  cell.served = after.probes_served - before.probes_served;
  cell.fallbacks = after.probes_fallback - before.probes_fallback;
  cell.pruned = after.domains_pruned - before.domains_pruned;
  cell.leaf_skips = after.leaf_skips - before.leaf_skips;
  const uint64_t descended = after.domains_descended - before.domains_descended;
  cell.descends_per_probe =
      cell.served > 0 ? static_cast<double>(descended) /
                            static_cast<double>(cell.served)
                      : 0.0;
  const uint64_t empty = after.descends_empty - before.descends_empty;
  // A fresh descend that finds nothing is a measured digest false positive;
  // pruned domains are provably true negatives (the digest has no false
  // dismissals for intersecting spheres).
  const uint64_t negatives = empty + cell.pruned;
  cell.fpr = negatives > 0
                 ? static_cast<double>(empty) / static_cast<double>(negatives)
                 : 0.0;
  cell.query_kb =
      static_cast<double>(bed->network->stats().bytes(sim::TrafficClass::kQuery) -
                          query_bytes_before) /
      1024.0;
  cell.digest_kb = static_cast<double>(after.digest_bytes) / 1024.0;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const bool paper = bench::PaperScale(argc, argv);
  g_trace_series_period_ms = bench::ArmFlightRecorder(argc, argv);
  bench::PrintHeader("Backbone",
                     "CDS + Bloom-digest pruning: digest bits x churn sweep",
                     paper);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  bench::PhaseTimer sweep_timer;

  const std::vector<double> speeds = {0.0, 8.0};
  const std::vector<int> digest_bits = {0, 512, 2048, 8192};
  const int num_queries = paper ? 32 : 16;

  // The oracle depends only on the seeded dataset, identical across beds.
  const core::FlatIndex oracle(BuildBed(paper, 0.0, 0)->dataset);

  std::printf("%-6s %-6s %8s %10s %8s %10s %10s %7s %7s\n", "speed", "bits",
              "recall", "desc/probe", "fpr", "query KiB", "digest KiB",
              "served", "fallbk");

  double digestless_descends = 0.0, best_descends = 0.0;
  double digestless_recall = 0.0, best_recall = 0.0;
  double digestless_kb = 0.0, best_kb = 0.0, best_fpr = 0.0;
  for (double speed : speeds) {
    for (int bits : digest_bits) {
      const CellResult cell = RunCell(paper, speed, bits, num_queries, oracle);
      std::printf("%-6.0f %-6d %8.3f %10.2f %8.4f %10.1f %10.1f %7llu %7llu\n",
                  speed, bits, cell.recall, cell.descends_per_probe, cell.fpr,
                  cell.query_kb, cell.digest_kb,
                  static_cast<unsigned long long>(cell.served),
                  static_cast<unsigned long long>(cell.fallbacks));
      char key[96];
      std::snprintf(key, sizeof(key), "benchbb.v%.0f_b%d_recall", speed, bits);
      reg.GetGauge(key).Set(cell.recall);
      std::snprintf(key, sizeof(key), "benchbb.v%.0f_b%d_descends_per_probe",
                    speed, bits);
      reg.GetGauge(key).Set(cell.descends_per_probe);
      std::snprintf(key, sizeof(key), "benchbb.v%.0f_b%d_fpr", speed, bits);
      reg.GetGauge(key).Set(cell.fpr);
      std::snprintf(key, sizeof(key), "benchbb.v%.0f_b%d_query_kb", speed, bits);
      reg.GetGauge(key).Set(cell.query_kb);
      std::snprintf(key, sizeof(key), "benchbb.v%.0f_b%d_served", speed, bits);
      reg.GetGauge(key).Set(static_cast<double>(cell.served));
      if (speed == 0.0 && bits == 0) {
        digestless_descends = cell.descends_per_probe;
        digestless_recall = cell.recall;
        digestless_kb = cell.query_kb;
      }
      if (speed == 0.0 && bits == digest_bits.back()) {
        best_descends = cell.descends_per_probe;
        best_recall = cell.recall;
        best_kb = cell.query_kb;
        best_fpr = cell.fpr;
      }
    }
  }

  const double prune_factor =
      best_descends > 0.0 ? digestless_descends / best_descends : 0.0;
  const double recall_delta = std::abs(best_recall - digestless_recall);
  const double airtime_saved =
      digestless_kb > 0.0 ? 1.0 - best_kb / digestless_kb : 0.0;
  std::printf("\nfault-free tier, %d-bit digests vs digest-less walk:\n",
              digest_bits.back());
  std::printf("  domain-probe reduction: %.2fx (%.2f -> %.2f per probe)\n",
              prune_factor, digestless_descends, best_descends);
  std::printf("  measured digest FPR: %.4f\n", best_fpr);
  std::printf("  query airtime saved: %.1f%%\n", airtime_saved * 100.0);
  std::printf("  recall: %.3f vs %.3f (|delta| %.4f)\n", best_recall,
              digestless_recall, recall_delta);

  reg.GetGauge("benchbb.prune_factor").Set(prune_factor);
  reg.GetGauge("benchbb.recall_delta").Set(recall_delta);
  reg.GetGauge("benchbb.airtime_saved").Set(airtime_saved);
  reg.GetGauge("benchbb.digest_fpr").Set(best_fpr);
  reg.GetGauge("benchbb.sweep_wall_ms").Set(sweep_timer.ElapsedMs());
  std::printf("sweep wall time: %.1f s\n", sweep_timer.ElapsedMs() / 1000.0);

  if (prune_factor < 2.0) {
    std::fprintf(stderr,
                 "FAIL: digests prune only %.2fx of the digest-less walk's "
                 "domain descents (need >= 2x)\n",
                 prune_factor);
    return 1;
  }
  if (recall_delta > 0.01) {
    std::fprintf(stderr,
                 "FAIL: digest recall %.3f drifted more than 1%% from the "
                 "digest-less walk's %.3f\n",
                 best_recall, digestless_recall);
    return 1;
  }
  std::printf(">=2x domain-probe reduction at equal recall: yes\n");

  bench::WriteTraceArtifacts(argc, argv);
  bench::WriteBenchReport(argc, argv, "bench_backbone");
  return 0;
}
