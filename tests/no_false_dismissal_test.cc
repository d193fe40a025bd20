// End-to-end property test of Theorem 4.1: a Hyper-M range query that
// contacts every positive-score candidate peer NEVER misses an item that an
// exact centralized search would return — across datasets, seeds, layer
// counts and cluster granularities.

#include <memory>
#include <ostream>

#include <gtest/gtest.h>

#include "data/histogram_generator.h"
#include "data/markov_generator.h"
#include "data/peer_assignment.h"
#include "hyperm/eval.h"
#include "hyperm/flat_index.h"
#include "hyperm/network.h"

namespace hyperm::core {
namespace {

struct Config {
  int num_layers;
  int clusters_per_peer;
  bool histogram_data;
  uint64_t seed;
};

// gtest would otherwise print the struct as raw bytes, padding included, and
// the uninitialized padding would make the listed test names vary by run.
void PrintTo(const Config& c, std::ostream* os) {
  *os << "{layers=" << c.num_layers << ", k=" << c.clusters_per_peer
      << (c.histogram_data ? ", hist" : ", markov") << ", seed=" << c.seed << "}";
}

class NoFalseDismissal : public ::testing::TestWithParam<Config> {};

TEST_P(NoFalseDismissal, RangeRecallIsPerfectWithFullContact) {
  const Config config = GetParam();
  Rng rng(config.seed);

  data::Dataset dataset;
  if (config.histogram_data) {
    data::HistogramOptions options;
    options.num_objects = 60;
    options.views_per_object = 8;
    options.dim = 64;
    Result<data::Dataset> ds = data::GenerateHistograms(options, rng);
    ASSERT_TRUE(ds.ok());
    dataset = std::move(ds).value();
  } else {
    data::MarkovOptions options;
    options.count = 500;
    options.dim = 64;
    options.num_families = 6;
    Result<data::Dataset> ds = data::GenerateMarkov(options, rng);
    ASSERT_TRUE(ds.ok());
    dataset = std::move(ds).value();
  }

  data::AssignmentOptions assign_options;
  assign_options.num_peers = 12;
  assign_options.num_interest_classes = 6;
  assign_options.min_peers_per_class = 3;
  assign_options.max_peers_per_class = 5;
  Result<data::PeerAssignment> assignment =
      data::AssignByInterest(dataset, assign_options, rng);
  ASSERT_TRUE(assignment.ok());

  HyperMOptions options;
  options.num_layers = config.num_layers;
  options.clusters_per_peer = config.clusters_per_peer;
  Result<std::unique_ptr<HyperMNetwork>> net =
      HyperMNetwork::Build(dataset, *assignment, options, rng);
  ASSERT_TRUE(net.ok()) << net.status().ToString();

  const FlatIndex oracle(dataset);
  for (int q = 0; q < 15; ++q) {
    const size_t query_index = (static_cast<size_t>(q) * 31 + 7) % dataset.size();
    const Vector& query = dataset.items[query_index];
    // Radii from tight (5-NN) to loose (50-NN).
    for (int k : {5, 20, 50}) {
      const double eps = oracle.KnnRadius(query, k);
      Result<std::vector<ItemId>> retrieved =
          (*net)->RangeQuery(query, eps, /*querying_peer=*/q % 12,
                             /*max_peers_contacted=*/-1);
      ASSERT_TRUE(retrieved.ok()) << retrieved.status().ToString();
      const std::vector<ItemId> truth = oracle.RangeSearch(query, eps);
      const PrecisionRecall pr = Evaluate(*retrieved, truth);
      EXPECT_DOUBLE_EQ(pr.recall, 1.0)
          << "FALSE DISMISSAL: query " << query_index << " k " << k << " layers "
          << config.num_layers << " clusters " << config.clusters_per_peer;
      EXPECT_DOUBLE_EQ(pr.precision, 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NoFalseDismissal,
    ::testing::Values(Config{1, 10, false, 11}, Config{2, 10, false, 12},
                      Config{4, 10, false, 13}, Config{4, 5, false, 14},
                      Config{4, 20, false, 15}, Config{6, 10, false, 16},
                      Config{4, 10, true, 17}, Config{2, 5, true, 18}),
    [](const ::testing::TestParamInfo<Config>& info) {
      const Config& c = info.param;
      return "layers" + std::to_string(c.num_layers) + "_k" +
             std::to_string(c.clusters_per_peer) + (c.histogram_data ? "_hist" : "_markov");
    });

}  // namespace
}  // namespace hyperm::core
