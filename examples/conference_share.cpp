// Conference scenario (the paper's Section 6 configuration).
//
// Fifty attendees meet for a session and share ~10,000 image histograms
// (an ALOI-like collection: object prototypes observed under different
// viewing conditions). The network must be searchable within the session,
// so items are never published individually — only wavelet-space cluster
// summaries are. This example measures what an attendee experiences:
//
//   * how much traffic/energy overlay construction costs,
//   * recall of similarity (k-NN) search for "slides/photos like mine",
//   * how the C knob trades completeness against bandwidth.
//
//   ./build/examples/conference_share

#include <cstdio>

#include "data/histogram_generator.h"
#include "data/peer_assignment.h"
#include "hyperm/eval.h"
#include "hyperm/flat_index.h"
#include "hyperm/network.h"

using namespace hyperm;

namespace {

constexpr int kPeers = 50;
constexpr int kQueries = 30;
constexpr int kK = 10;

}  // namespace

int main() {
  Rng rng(7);

  // ~200 histograms per attendee, as in the paper's effectiveness setup.
  data::HistogramOptions data_options;
  data_options.num_objects = 840;
  data_options.views_per_object = 12;
  data_options.dim = 64;
  Result<data::Dataset> dataset = data::GenerateHistograms(data_options, rng);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("conference: %zu histograms across %d attendees\n", dataset->size(),
              kPeers);

  data::AssignmentOptions assign_options;
  assign_options.num_peers = kPeers;
  assign_options.num_interest_classes = 25;
  Result<data::PeerAssignment> assignment =
      data::AssignByInterest(*dataset, assign_options, rng);
  if (!assignment.ok()) {
    std::fprintf(stderr, "%s\n", assignment.status().ToString().c_str());
    return 1;
  }

  core::HyperMOptions options;
  options.num_layers = 4;
  options.clusters_per_peer = 10;
  Result<std::unique_ptr<core::HyperMNetwork>> network =
      core::HyperMNetwork::Build(*dataset, *assignment, options, rng);
  if (!network.ok()) {
    std::fprintf(stderr, "%s\n", network.status().ToString().c_str());
    return 1;
  }
  core::HyperMNetwork& net = **network;

  // Publication cost: peers publish concurrently, so the session-start
  // latency is governed by the slowest peer, not the sum.
  uint64_t max_peer_hops = 0;
  uint64_t sum_peer_hops = 0;
  for (int p = 0; p < net.num_peers(); ++p) {
    max_peer_hops = std::max(max_peer_hops, net.publication_hops(p));
    sum_peer_hops += net.publication_hops(p);
  }
  std::printf("publication: %llu total hops, slowest attendee %llu hops, "
              "%.3f hops per shared item, %.1f mJ radio energy\n",
              static_cast<unsigned long long>(sum_peer_hops),
              static_cast<unsigned long long>(max_peer_hops),
              static_cast<double>(sum_peer_hops) / net.total_items(),
              net.stats().total_energy_millijoules());

  const core::FlatIndex oracle(*dataset);

  // Similarity search sweep over the C bandwidth/completeness knob.
  for (double c : {1.0, 1.5, 2.0}) {
    core::KnnOptions knn_options;
    knn_options.c = c;
    std::vector<core::PrecisionRecall> results;
    int64_t items_requested = 0;
    for (int q = 0; q < kQueries; ++q) {
      const size_t index = (static_cast<size_t>(q) * 337 + 11) % dataset->size();
      core::KnnQueryInfo info;
      Result<std::vector<core::ItemId>> fetched = net.KnnQuery(
          dataset->items[index], kK, knn_options, /*querying_peer=*/q % kPeers, &info);
      if (!fetched.ok()) {
        std::fprintf(stderr, "%s\n", fetched.status().ToString().c_str());
        return 1;
      }
      results.push_back(core::Evaluate(*fetched, oracle.Knn(dataset->items[index], kK)));
      items_requested += info.items_requested;
    }
    const core::EffectivenessSummary s = core::Summarize(results);
    std::printf("k-NN (k=%d, C=%.1f): precision %.2f [%.2f..%.2f]  "
                "recall %.2f [%.2f..%.2f]  avg items fetched %.1f\n",
                kK, c, s.mean_precision, s.min_precision, s.max_precision,
                s.mean_recall, s.min_recall, s.max_recall,
                static_cast<double>(items_requested) / kQueries);
  }

  std::printf("session traffic: %s\n", net.stats().Summary().c_str());
  return 0;
}
