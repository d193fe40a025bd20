// Configurable experiment runner: every knob of the framework on one
// command line. Useful both as an exploration tool and as a worked example
// of the full public API (generators, persistence, deployment, queries,
// evaluation, traffic accounting).
//
// Usage (all flags optional):
//   ./build/examples/custom_experiment ...flags...
//   --dataset=histogram --nodes=50 --items=4200 --dim=64
//   --layers=4 --clusters=10 --queries=25 --k=10 --c=1.5
//   --policy=min --wavelet=haar-avg --seed=606
//   --save-data=/tmp/corpus.hmd
//
//   --dataset=markov|histogram    synthetic corpus family
//   --load-data=PATH              read a saved corpus instead of generating
//   --save-data=PATH              persist the corpus (binary HMD format)
//   --policy=min|sum|product      score aggregation
//   --wavelet=haar-avg|haar-ortho|d4

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "data/dataset_io.h"
#include "data/histogram_generator.h"
#include "data/markov_generator.h"
#include "data/peer_assignment.h"
#include "hyperm/eval.h"
#include "hyperm/flat_index.h"
#include "hyperm/network.h"

using namespace hyperm;

namespace {

struct Flags {
  std::string dataset = "histogram";
  std::string load_data;
  std::string save_data;
  int nodes = 50;
  int items = 4200;
  int dim = 64;
  int layers = 4;
  int clusters = 10;
  int queries = 25;
  int k = 10;
  double c = 1.5;
  std::string policy = "min";
  std::string wavelet = "haar-avg";
  uint64_t seed = 606;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *out = arg + prefix.size();
  return true;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "dataset", &flags->dataset) ||
        ParseFlag(argv[i], "load-data", &flags->load_data) ||
        ParseFlag(argv[i], "save-data", &flags->save_data) ||
        ParseFlag(argv[i], "policy", &flags->policy) ||
        ParseFlag(argv[i], "wavelet", &flags->wavelet)) {
      continue;
    }
    if (ParseFlag(argv[i], "nodes", &value)) {
      flags->nodes = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "items", &value)) {
      flags->items = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "dim", &value)) {
      flags->dim = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "layers", &value)) {
      flags->layers = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "clusters", &value)) {
      flags->clusters = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "queries", &value)) {
      flags->queries = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "k", &value)) {
      flags->k = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "c", &value)) {
      flags->c = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "seed", &value)) {
      flags->seed = static_cast<uint64_t>(std::atoll(value.c_str()));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;
  Rng rng(flags.seed);

  // --- Corpus ----------------------------------------------------------------
  data::Dataset dataset;
  if (!flags.load_data.empty()) {
    Result<data::Dataset> loaded = data::ReadBinary(flags.load_data);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    dataset = std::move(loaded).value();
  } else if (flags.dataset == "markov") {
    data::MarkovOptions options;
    options.count = flags.items;
    options.dim = flags.dim;
    Result<data::Dataset> generated = data::GenerateMarkov(options, rng);
    if (!generated.ok()) {
      std::fprintf(stderr, "generate: %s\n", generated.status().ToString().c_str());
      return 1;
    }
    dataset = std::move(generated).value();
  } else if (flags.dataset == "histogram") {
    data::HistogramOptions options;
    options.dim = flags.dim;
    options.views_per_object = 12;
    options.num_objects = std::max(1, flags.items / 12);
    Result<data::Dataset> generated = data::GenerateHistograms(options, rng);
    if (!generated.ok()) {
      std::fprintf(stderr, "generate: %s\n", generated.status().ToString().c_str());
      return 1;
    }
    dataset = std::move(generated).value();
  } else {
    std::fprintf(stderr, "unknown --dataset=%s\n", flags.dataset.c_str());
    return 2;
  }
  if (!flags.save_data.empty()) {
    const Status saved = data::WriteBinary(dataset, flags.save_data);
    if (!saved.ok()) {
      std::fprintf(stderr, "save: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("corpus saved to %s\n", flags.save_data.c_str());
  }

  // --- Deployment --------------------------------------------------------------
  data::AssignmentOptions assign_options;
  assign_options.num_peers = flags.nodes;
  Result<data::PeerAssignment> assignment =
      data::AssignByInterest(dataset, assign_options, rng);
  if (!assignment.ok()) {
    std::fprintf(stderr, "assignment: %s\n", assignment.status().ToString().c_str());
    return 1;
  }

  core::HyperMOptions options;
  options.num_layers = flags.layers;
  options.clusters_per_peer = flags.clusters;
  if (flags.policy == "min") {
    options.score_policy = core::ScorePolicy::kMin;
  } else if (flags.policy == "sum") {
    options.score_policy = core::ScorePolicy::kSum;
  } else if (flags.policy == "product") {
    options.score_policy = core::ScorePolicy::kProduct;
  } else {
    std::fprintf(stderr, "unknown --policy=%s\n", flags.policy.c_str());
    return 2;
  }
  if (flags.wavelet == "haar-avg") {
    options.wavelet_kind = wavelet::WaveletKind::kHaarAveraging;
  } else if (flags.wavelet == "haar-ortho") {
    options.wavelet_kind = wavelet::WaveletKind::kHaarOrthonormal;
  } else if (flags.wavelet == "d4") {
    options.wavelet_kind = wavelet::WaveletKind::kDaubechies4;
  } else {
    std::fprintf(stderr, "unknown --wavelet=%s\n", flags.wavelet.c_str());
    return 2;
  }

  Result<std::unique_ptr<core::HyperMNetwork>> network =
      core::HyperMNetwork::Build(dataset, *assignment, options, rng);
  if (!network.ok()) {
    std::fprintf(stderr, "build: %s\n", network.status().ToString().c_str());
    return 1;
  }
  core::HyperMNetwork& net = **network;
  std::printf("deployment: %d peers, %d layers, %d clusters/peer, can overlay, %s\n",
              net.num_peers(), net.num_layers(), flags.clusters, flags.wavelet.c_str());
  std::printf("items: %zu x %zu-d (%s)\n", dataset.size(), dataset.dim(),
              flags.dataset.c_str());
  std::printf("setup traffic: %s\n", net.stats().Summary().c_str());

  // --- Workload ---------------------------------------------------------------
  const core::FlatIndex oracle(dataset);
  std::vector<core::PrecisionRecall> range_results, knn_results;
  for (int q = 0; q < flags.queries; ++q) {
    const size_t index = (static_cast<size_t>(q) * 7919 + 13) % dataset.size();
    const Vector& query = dataset.items[index];
    const double eps = oracle.KnnRadius(query, flags.k);

    Result<std::vector<core::ItemId>> range =
        net.RangeQuery(query, eps, q % flags.nodes, /*max_peers=*/-1);
    if (!range.ok()) {
      std::fprintf(stderr, "range: %s\n", range.status().ToString().c_str());
      return 1;
    }
    range_results.push_back(core::Evaluate(*range, oracle.RangeSearch(query, eps)));

    core::KnnOptions knn_options;
    knn_options.c = flags.c;
    Result<std::vector<core::ItemId>> knn =
        net.KnnQuery(query, flags.k, knn_options, q % flags.nodes);
    if (!knn.ok()) {
      std::fprintf(stderr, "knn: %s\n", knn.status().ToString().c_str());
      return 1;
    }
    knn_results.push_back(core::Evaluate(*knn, oracle.Knn(query, flags.k)));
  }

  const core::EffectivenessSummary range_summary = core::Summarize(range_results);
  const core::EffectivenessSummary knn_summary = core::Summarize(knn_results);
  std::printf("\nrange queries: precision %.3f recall %.3f [%.2f..%.2f]\n",
              range_summary.mean_precision, range_summary.mean_recall,
              range_summary.min_recall, range_summary.max_recall);
  std::printf("k-NN queries:  precision %.3f recall %.3f [%.2f..%.2f]\n",
              knn_summary.mean_precision, knn_summary.mean_recall,
              knn_summary.min_recall, knn_summary.max_recall);
  std::printf("total traffic: %s\n", net.stats().Summary().c_str());
  return 0;
}
