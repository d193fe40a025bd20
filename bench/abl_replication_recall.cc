// Ablation: sphere replication into overlapping zones (the Fig. 6 problem).
//
// "A problem specific to CAN when used to index non-zero sized objects is
// the possibility that the area of the object overlaps more than one region.
// As depicted in Figure 6, the query Q would not retrieve the information
// present in data cluster C because the node its centroid belongs to does
// not have any information about that cluster. Replication cannot be avoided
// in this context."
//
// Part 1 demonstrates the failure directly at the overlay level: random
// cluster spheres are published into a 2-D CAN with replication on/off and
// random range queries count the intersecting clusters that the zone flood
// fails to surface. Part 2 shows the end-to-end effect on Hyper-M range
// recall under coarse summaries (few clusters per peer = big spheres).

#include <cstdio>
#include <set>
#include <vector>

#include "bench/bench_util.h"
#include "can/can_overlay.h"
#include "hyperm/eval.h"
#include "hyperm/flat_index.h"

using namespace hyperm;

namespace {

void OverlayLevelDemo(bool replicate) {
  sim::NetworkStats stats;
  Rng rng(31);
  auto can = can::CanOverlay::Build(2, 64, &stats, rng).value();
  can->set_replicate_spheres(replicate);

  std::vector<overlay::PublishedCluster> all;
  for (uint64_t id = 1; id <= 300; ++id) {
    overlay::PublishedCluster c;
    c.sphere = geom::Sphere{{rng.NextDouble(), rng.NextDouble()},
                            rng.Uniform(0.02, 0.12)};
    c.owner_peer = static_cast<int>(id % 64);
    c.items = 10;
    c.cluster_id = id;
    if (!can->Insert(c, 0).ok()) std::exit(1);
    all.push_back(c);
  }
  const uint64_t insert_hops = stats.hops(sim::TrafficClass::kInsert) +
                               stats.hops(sim::TrafficClass::kReplicate);

  int should_match = 0, missed = 0, queries_with_misses = 0;
  const int num_queries = 200;
  for (int q = 0; q < num_queries; ++q) {
    geom::Sphere query{{rng.NextDouble(), rng.NextDouble()}, rng.Uniform(0.02, 0.15)};
    Result<overlay::RangeQueryResult> result = can->RangeQuery(query, 0);
    if (!result.ok()) std::exit(1);
    std::set<uint64_t> found;
    for (const overlay::ClusterMatch& c : result->matches) found.insert(c.cluster_id);
    bool miss_here = false;
    for (const overlay::PublishedCluster& c : all) {
      if (!c.sphere.Intersects(query)) continue;
      ++should_match;
      if (!found.count(c.cluster_id)) {
        ++missed;
        miss_here = true;
      }
    }
    if (miss_here) ++queries_with_misses;
  }
  std::printf("%-14s %14llu %14d %12d %18d/%d\n", replicate ? "on" : "off",
              static_cast<unsigned long long>(insert_hops), should_match, missed,
              queries_with_misses, num_queries);
}

}  // namespace

int main(int argc, char** argv) {
  const bool paper = bench::PaperScale(argc, argv);
  bench::PrintHeader("Ablation", "sphere replication on/off (Fig. 6 problem)", paper);

  std::printf("--- overlay level: 300 spheres, 64-node 2-D CAN, 200 queries ---\n");
  std::printf("%-14s %14s %14s %12s %20s\n", "replication", "insert hops",
              "intersecting", "missed", "queries with misses");
  OverlayLevelDemo(/*replicate=*/true);
  OverlayLevelDemo(/*replicate=*/false);

  std::printf("\n--- end to end: Hyper-M range recall, coarse summaries (K_p=3) ---\n");
  std::printf("%-14s %14s %16s %20s\n", "replication", "insert hops",
              "range recall", "queries with misses");
  for (bool replicate : {true, false}) {
    core::HyperMOptions options;
    options.num_layers = 4;
    options.clusters_per_peer = 3;  // coarse: big spheres straddle zones
    options.replicate_spheres = replicate;
    auto bed = bench::BuildEffectivenessBed(paper, options);
    const core::FlatIndex oracle(bed->dataset);
    const uint64_t insert_hops =
        bed->network->stats().hops(sim::TrafficClass::kInsert) +
        bed->network->stats().hops(sim::TrafficClass::kReplicate);

    std::vector<core::PrecisionRecall> range;
    int queries_with_misses = 0;
    const int num_queries = 40;
    for (int q = 0; q < num_queries; ++q) {
      const size_t index = (static_cast<size_t>(q) * 173 + 19) % bed->dataset.size();
      const Vector& query = bed->dataset.items[index];
      const double eps = oracle.KnnRadius(query, 20);
      Result<std::vector<core::ItemId>> full =
          bed->network->RangeQuery(query, eps, q % 50, /*max_peers=*/-1);
      if (!full.ok()) {
        std::fprintf(stderr, "%s\n", full.status().ToString().c_str());
        return 1;
      }
      const core::PrecisionRecall pr =
          core::Evaluate(*full, oracle.RangeSearch(query, eps));
      if (pr.recall < 1.0) ++queries_with_misses;
      range.push_back(pr);
    }
    std::printf("%-14s %14llu %16.3f %17d/%d\n", replicate ? "on" : "off",
                static_cast<unsigned long long>(insert_hops),
                core::Summarize(range).mean_recall, queries_with_misses, num_queries);
  }
  std::printf("\nexpected shape: at the overlay level, disabling replication\n"
              "loses a large share of intersecting clusters (the Fig. 6 bug).\n"
              "End to end the redundancy of multiple clusters per peer and\n"
              "multiple levels usually masks single-cluster misses — but the\n"
              "guarantee of Theorem 4.1 only holds with replication on.\n");
  return 0;
}
