// Extension: overlay maintenance under node churn.
//
// The paper targets short-lived sessions and does not evaluate node
// departures; the CAN substrate here implements the full takeover protocol
// (merge with a sibling neighbour, or free a node by merging the deepest
// sibling pair). This bench measures what churn costs and proves the
// queries keep their guarantees while nodes leave: published clusters stay
// discoverable throughout.

#include <cstdio>
#include <set>
#include <string>

#include "bench/bench_util.h"
#include "can/can_overlay.h"
#include "common/rng.h"
#include "hyperm/eval.h"
#include "hyperm/flat_index.h"
#include "obs/metrics.h"

using namespace hyperm;

namespace {

// Mean range recall of a fixed query workload against the exact oracle; all
// queries issued from peer 0, which stays up in every fault plan below.
double MeanRecall(bench::EffectivenessBed& bed, const core::FlatIndex& oracle,
                  double* mean_latency_ms = nullptr) {
  const int num_queries = 12;
  std::vector<core::PrecisionRecall> results;
  double latency = 0.0;
  for (int q = 0; q < num_queries; ++q) {
    const size_t index = (static_cast<size_t>(q) * 173 + 19) % bed.dataset.size();
    const Vector& query = bed.dataset.items[index];
    const double eps = oracle.KnnRadius(query, 25);
    core::RangeQueryInfo info;
    Result<std::vector<core::ItemId>> retrieved =
        bed.network->RangeQuery(query, eps, /*querying_peer=*/0, -1, &info);
    if (!retrieved.ok()) {
      std::fprintf(stderr, "%s\n", retrieved.status().ToString().c_str());
      std::exit(1);
    }
    results.push_back(core::Evaluate(*retrieved, oracle.RangeSearch(query, eps)));
    latency += info.latency_ms;
  }
  if (mean_latency_ms != nullptr) latency /= num_queries;
  if (mean_latency_ms != nullptr) *mean_latency_ms = latency;
  return core::Summarize(results).mean_recall;
}

// Part 2: data dissemination under MANET faults. Sweeps packet loss x
// simultaneous peer crashes on the unreliable transport and reports recall
// while the faults are live, recall after the soft-state republish healed
// the index, and what the ARQ layer spent masking the loss.
int RunFaultSweep(bool paper) {
  std::printf("\n==============================================================\n");
  std::printf("Part 2 — recall under loss x crashes (unreliable transport)\n");
  std::printf("==============================================================\n");
  std::printf("%-6s %-8s %9s %9s %9s %12s %9s %9s %9s\n", "loss", "crashes",
              "fresh", "during", "healed", "latency ms", "retries", "dead",
              "expired");
  for (const double loss : {0.0, 0.05, 0.1, 0.2}) {
    for (const int crashes : {0, 4}) {
      core::HyperMOptions options;
      options.net.faults.loss_rate = loss;
      options.net.summary_ttl_ms = 2000.0;      // sweeps every 1000 ms
      options.net.republish_period_ms = 1000.0;
      for (int c = 0; c < crashes; ++c) {
        const int peer = 1 + 2 * c;  // peer 0 stays up (it issues the queries)
        options.net.faults.peer_events.push_back({100.0, peer, false});
        options.net.faults.peer_events.push_back({2600.0, peer, true});
      }
      auto bed = bench::BuildEffectivenessBed(
          paper, options, /*seed=*/606,
          /*num_objects_override=*/paper ? 350 : 120);
      const core::FlatIndex oracle(bed->dataset);

      const double fresh = MeanRecall(*bed, oracle);
      bed->network->AdvanceTo(150.0);  // crashes applied
      double latency_during = 0.0;
      const double during = MeanRecall(*bed, oracle, &latency_during);
      // Rejoin (2600) + republish rounds with everyone up (3000, 4000) have
      // passed: the index is as healed as soft state makes it.
      bed->network->AdvanceTo(4100.0);
      const double healed = MeanRecall(*bed, oracle);

      const net::TransportCounters& tc = bed->network->transport().counters();
      const core::SoftStateCounters& ss = bed->network->soft_state();
      std::printf("%-6.2f %-8d %9.3f %9.3f %9.3f %12.1f %9llu %9llu %9llu\n",
                  loss, crashes, fresh, during, healed, latency_during,
                  static_cast<unsigned long long>(tc.retries),
                  static_cast<unsigned long long>(tc.dead_letters),
                  static_cast<unsigned long long>(ss.summaries_expired));

      const std::string cell = "_l" + std::to_string(static_cast<int>(loss * 100)) +
                               "_c" + std::to_string(crashes);
      obs::MetricsRegistry::Global().GetGauge("ext_churn.recall_during" + cell)
          .Set(during);
      obs::MetricsRegistry::Global().GetGauge("ext_churn.recall_healed" + cell)
          .Set(healed);
      obs::MetricsRegistry::Global().GetGauge("ext_churn.retries" + cell)
          .Set(static_cast<double>(tc.retries));
    }
  }
  std::printf("\nexpected shape: retries hold 'fresh'/'healed' recall near the\n"
              "loss-free row at every loss level; 'during' dips with crashes\n"
              "(crashed peers' items are unreachable) and recovers after\n"
              "rejoin + republish; retry traffic grows with the loss rate\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool paper = bench::PaperScale(argc, argv);
  const int nodes = paper ? 100 : 64;
  bench::PrintHeader("Extension", "CAN maintenance cost and safety under churn",
                     paper);

  sim::NetworkStats stats;
  Rng rng(17);
  auto can = can::CanOverlay::Build(2, nodes, &stats, rng).value();

  // Publish a working set of spheres.
  std::vector<overlay::PublishedCluster> all;
  for (uint64_t id = 1; id <= 200; ++id) {
    overlay::PublishedCluster c;
    c.sphere = geom::Sphere{{rng.NextDouble(), rng.NextDouble()},
                            rng.Uniform(0.0, 0.1)};
    c.owner_peer = static_cast<int>(id % static_cast<uint64_t>(nodes));
    c.items = 5;
    c.cluster_id = id;
    if (!can->Insert(c, 0).ok()) return 1;
    all.push_back(c);
  }

  auto verify = [&]() -> int {
    overlay::NodeId origin = 0;
    while (!can->active(origin)) ++origin;
    int missed = 0;
    Rng query_rng(7);
    for (int q = 0; q < 60; ++q) {
      geom::Sphere query{{query_rng.NextDouble(), query_rng.NextDouble()},
                         query_rng.Uniform(0.0, 0.2)};
      Result<overlay::RangeQueryResult> result = can->RangeQuery(query, origin);
      if (!result.ok()) return -1;
      std::set<uint64_t> found;
      for (const overlay::ClusterMatch& c : result->matches) found.insert(c.cluster_id);
      for (const auto& c : all) {
        if (c.sphere.Intersects(query) && !found.count(c.cluster_id)) ++missed;
      }
    }
    return missed;
  };

  std::printf("%-16s %14s %18s %12s\n", "nodes remaining", "maint. hops",
              "maint. bytes (KB)", "missed");
  std::printf("%-16d %14s %18s %12d\n", nodes, "-", "-", verify());
  const int rounds = 5;
  const int departures_per_round = nodes / 8;
  for (int round = 0; round < rounds; ++round) {
    const uint64_t hops_before = stats.hops(sim::TrafficClass::kJoin);
    const uint64_t bytes_before = stats.bytes(sim::TrafficClass::kJoin);
    for (int i = 0; i < departures_per_round; ++i) {
      overlay::NodeId victim =
          static_cast<overlay::NodeId>(rng.NextIndex(static_cast<uint64_t>(nodes)));
      while (!can->active(victim)) {
        victim = static_cast<overlay::NodeId>(
            rng.NextIndex(static_cast<uint64_t>(nodes)));
      }
      if (!can->Leave(victim).ok()) return 1;
    }
    const int missed = verify();
    if (missed < 0) return 1;
    std::printf("%-16d %14llu %18.1f %12d\n", can->num_active_nodes(),
                static_cast<unsigned long long>(stats.hops(sim::TrafficClass::kJoin) -
                                                hops_before),
                static_cast<double>(stats.bytes(sim::TrafficClass::kJoin) -
                                    bytes_before) /
                    1024.0,
                missed);
  }
  std::printf("\nexpected shape: bounded per-round maintenance traffic and zero\n"
              "missed clusters at every churn level (takeover re-homes state)\n");
  if (RunFaultSweep(paper) != 0) return 1;
  bench::WriteBenchReport(argc, argv, "ext_churn");
  return 0;
}
