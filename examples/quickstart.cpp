// Quickstart: the smallest end-to-end Hyper-M deployment.
//
// Eight peers share 400 synthetic colour histograms. The example walks the
// full public API: generate data, assign it to peers by interest, build the
// per-level overlays (publication happens inside Build), then answer a range
// query and a k-NN query and compare them to exact centralized search.
//
//   ./build/examples/quickstart

#include <cstdio>

#include "data/histogram_generator.h"
#include "data/peer_assignment.h"
#include "hyperm/eval.h"
#include "hyperm/flat_index.h"
#include "hyperm/network.h"

using namespace hyperm;

int main() {
  Rng rng(2026);

  // 1. Data: 50 objects x 8 views of 64-bin histograms (an ALOI-like shape).
  data::HistogramOptions data_options;
  data_options.num_objects = 50;
  data_options.views_per_object = 8;
  data_options.dim = 64;
  Result<data::Dataset> dataset = data::GenerateHistograms(data_options, rng);
  if (!dataset.ok()) {
    std::fprintf(stderr, "data generation failed: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }

  // 2. Peers: spread each interest class over a few of the 8 devices.
  data::AssignmentOptions assign_options;
  assign_options.num_peers = 8;
  assign_options.num_interest_classes = 10;
  assign_options.min_peers_per_class = 2;
  assign_options.max_peers_per_class = 4;
  Result<data::PeerAssignment> assignment =
      data::AssignByInterest(*dataset, assign_options, rng);
  if (!assignment.ok()) {
    std::fprintf(stderr, "assignment failed: %s\n",
                 assignment.status().ToString().c_str());
    return 1;
  }

  // 3. Hyper-M: four wavelet layers (A, D0, D1, D2), ten clusters per peer.
  core::HyperMOptions options;
  options.num_layers = 4;
  options.clusters_per_peer = 10;
  Result<std::unique_ptr<core::HyperMNetwork>> network =
      core::HyperMNetwork::Build(*dataset, *assignment, options, rng);
  if (!network.ok()) {
    std::fprintf(stderr, "network build failed: %s\n",
                 network.status().ToString().c_str());
    return 1;
  }
  core::HyperMNetwork& net = **network;

  std::printf("Hyper-M quickstart\n");
  std::printf("  peers=%d layers=%d items=%d dim=%zu\n", net.num_peers(),
              net.num_layers(), net.total_items(), net.data_dim());
  std::printf("  setup traffic: %s\n", net.stats().Summary().c_str());

  // 4. Ground truth oracle for evaluation.
  const core::FlatIndex oracle(*dataset);
  const Vector& query = dataset->items[5];  // "find histograms like this one"

  // 5. Range query with the radius of the exact 10th neighbour.
  const double epsilon = oracle.KnnRadius(query, 10);
  core::RangeQueryInfo range_info;
  Result<std::vector<core::ItemId>> range =
      net.RangeQuery(query, epsilon, /*querying_peer=*/0,
                     /*max_peers_contacted=*/-1, &range_info);
  if (!range.ok()) {
    std::fprintf(stderr, "range query failed: %s\n", range.status().ToString().c_str());
    return 1;
  }
  const core::PrecisionRecall range_pr =
      core::Evaluate(*range, oracle.RangeSearch(query, epsilon));
  std::printf("\nrange query (eps=%.4f):\n", epsilon);
  std::printf("  retrieved=%zu precision=%.2f recall=%.2f candidates=%d contacted=%d\n",
              range->size(), range_pr.precision, range_pr.recall,
              range_info.candidate_peers, range_info.peers_contacted);

  // 6. k-NN query via the Fig. 5 heuristic.
  core::KnnOptions knn_options;
  knn_options.c = 1.5;
  core::KnnQueryInfo knn_info;
  Result<std::vector<core::ItemId>> knn =
      net.KnnQuery(query, /*k=*/10, knn_options, /*querying_peer=*/0, &knn_info);
  if (!knn.ok()) {
    std::fprintf(stderr, "knn query failed: %s\n", knn.status().ToString().c_str());
    return 1;
  }
  const core::PrecisionRecall knn_pr = core::Evaluate(*knn, oracle.Knn(query, 10));
  std::printf("\nk-NN query (k=10, C=%.1f):\n", knn_options.c);
  std::printf("  fetched=%zu precision=%.2f recall=%.2f peers=%d items_requested=%lld\n",
              knn->size(), knn_pr.precision, knn_pr.recall,
              knn_info.range.peers_contacted,
              static_cast<long long>(knn_info.items_requested));
  std::printf("  nearest ids:");
  for (size_t i = 0; i < knn->size() && i < 10; ++i) std::printf(" %d", (*knn)[i]);
  std::printf("\n\ntotal traffic after queries: %s\n", net.stats().Summary().c_str());
  return 0;
}
