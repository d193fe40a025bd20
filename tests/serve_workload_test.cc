// Determinism and distribution checks for the open-loop workload generator:
// the arrival schedule must be a pure function of (options, num_peers) —
// byte-identical across runs and host thread counts — and its Zipf/Poisson
// streams must actually follow their configured distributions.

#include "serve/workload.h"

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/markov_generator.h"
#include "data/peer_assignment.h"
#include "hyperm/network.h"
#include "serve/engine.h"

namespace hyperm::serve {
namespace {

WorkloadOptions SampleWorkload() {
  WorkloadOptions workload;
  workload.duration_ms = 60'000.0;
  workload.offered_qps = 25.0;
  workload.num_templates = 16;
  workload.zipf_s = 1.25;
  workload.range_fraction = 0.75;
  return workload;
}

TEST(ZipfSamplerTest, ProbabilitiesSumToOneAndDecay) {
  const ZipfSampler zipf(16, 1.25);
  double sum = 0.0;
  for (int i = 0; i < zipf.n(); ++i) {
    sum += zipf.Probability(i);
    if (i > 0) {
      EXPECT_LT(zipf.Probability(i), zipf.Probability(i - 1));
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(ZipfSamplerTest, ZeroExponentIsUniform) {
  const ZipfSampler zipf(8, 0.0);
  for (int i = 0; i < zipf.n(); ++i) {
    EXPECT_NEAR(zipf.Probability(i), 1.0 / 8.0, 1e-12);
  }
}

TEST(ZipfSamplerTest, EmpiricalFrequenciesMatchExponent) {
  // Satellite check: the sampled stream follows the configured exponent,
  // not just the precomputed table. 200k draws give ~0.1% standard error on
  // the head ranks; 1% absolute tolerance is ~10 sigma.
  const ZipfSampler zipf(16, 1.25);
  Rng rng(MixSeed(0x7a697066ULL, 1));
  const int kDraws = 200'000;
  std::vector<int> counts(16, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[static_cast<size_t>(zipf.Sample(rng))];
  for (int i = 0; i < zipf.n(); ++i) {
    const double empirical = static_cast<double>(counts[static_cast<size_t>(i)]) / kDraws;
    EXPECT_NEAR(empirical, zipf.Probability(i), 0.01)
        << "rank " << i << " drifted from Zipf(1.25)";
  }
}

TEST(WorkloadTest, ArrivalCountMatchesPoissonRate) {
  const WorkloadOptions workload = SampleWorkload();
  const std::vector<Arrival> schedule = GenerateArrivals(workload, 16);
  // Expected 25 qps * 60 s = 1500 arrivals, sigma = sqrt(1500) ~ 39.
  const double expected = workload.offered_qps * workload.duration_ms / 1000.0;
  EXPECT_NEAR(static_cast<double>(schedule.size()), expected,
              5.0 * std::sqrt(expected));
  // Sorted by construction, in range, and strictly inside the window.
  for (size_t i = 0; i < schedule.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(schedule[i].t_ms, schedule[i - 1].t_ms);
    }
    EXPECT_GE(schedule[i].t_ms, 0.0);
    EXPECT_LT(schedule[i].t_ms, workload.duration_ms);
    EXPECT_GE(schedule[i].template_id, 0);
    EXPECT_LT(schedule[i].template_id, workload.num_templates);
    EXPECT_GE(schedule[i].querying_peer, 0);
    EXPECT_LT(schedule[i].querying_peer, 16);
  }
}

TEST(WorkloadTest, ScheduleIsByteIdenticalAcrossRuns) {
  const WorkloadOptions workload = SampleWorkload();
  const std::vector<Arrival> a = GenerateArrivals(workload, 16);
  const std::vector<Arrival> b = GenerateArrivals(workload, 16);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(ScheduleDigest(a), ScheduleDigest(b));
  // And the digest actually discriminates: any knob change moves it.
  WorkloadOptions reseeded = workload;
  reseeded.seed ^= 1;
  EXPECT_NE(ScheduleDigest(a), ScheduleDigest(GenerateArrivals(reseeded, 16)));
  EXPECT_NE(ScheduleDigest(a), ScheduleDigest(GenerateArrivals(workload, 8)));
}

// The full determinism contract: serving the same schedule through networks
// built at 1 and 8 host threads yields bit-identical accounting (the
// schedule is generated outside the network, and the network itself is
// bit-identical at any thread count).
TEST(WorkloadTest, ServingIsByteIdenticalAcrossThreadCounts) {
  struct RunOutcome {
    uint64_t digest = 0;
    ServeStats stats;
  };
  auto run = [](int num_threads) {
    Rng rng(4242);
    data::MarkovOptions data_options;
    data_options.count = 64;
    data_options.dim = 8;
    data_options.num_families = 4;
    Result<data::Dataset> dataset = data::GenerateMarkov(data_options, rng);
    EXPECT_TRUE(dataset.ok());
    data::AssignmentOptions assign_options;
    assign_options.num_peers = 8;
    assign_options.num_interest_classes = 4;
    Result<data::PeerAssignment> assignment =
        data::AssignByInterest(dataset.value(), assign_options, rng);
    EXPECT_TRUE(assignment.ok());
    core::HyperMOptions options;
    options.num_threads = num_threads;
    options.net.unreliable = true;
    options.channel.enabled = true;
    options.channel.field.field_size_m = 200.0;
    options.channel.field.radio_range_m = 80.0;
    options.channel.field.max_placement_attempts = 5000;
    options.channel.speed_m_per_s = 0.0;
    Result<std::unique_ptr<core::HyperMNetwork>> network =
        core::HyperMNetwork::Build(dataset.value(), assignment.value(),
                                   options, rng);
    EXPECT_TRUE(network.ok()) << network.status().ToString();
    network.value()->AdvanceTo(
        network.value()->radio_channel()->DrainedAtMs() + 1.0);

    ServeOptions serve;
    serve.workload.duration_ms = 4'000.0;
    serve.workload.offered_qps = 2.0;
    serve.workload.num_templates = 8;
    serve.workload.zipf_s = 1.0;
    serve.range_epsilon = 0.5;
    serve.deadline_ms = 20'000.0;
    serve.cache.enabled = true;
    serve.cache.ttl_ms = serve.workload.duration_ms;
    serve.shortcuts.enabled = true;
    const std::vector<QueryTemplate> templates = MakeTemplates(
        dataset.value().items, serve.workload, serve.range_epsilon, serve.knn_k);
    const std::vector<Arrival> schedule = GenerateArrivals(serve.workload, 8);
    RunOutcome outcome;
    outcome.digest = ScheduleDigest(schedule);
    ServeEngine engine(network.value().get(), serve);
    Result<ServeStats> stats = engine.Run(templates, schedule);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    outcome.stats = std::move(stats).value();
    return outcome;
  };
  const RunOutcome serial = run(1);
  const RunOutcome parallel = run(8);
  EXPECT_EQ(serial.digest, parallel.digest);
  EXPECT_EQ(serial.stats.admitted, parallel.stats.admitted);
  EXPECT_EQ(serial.stats.shed, parallel.stats.shed);
  EXPECT_EQ(serial.stats.cache_hits, parallel.stats.cache_hits);
  EXPECT_EQ(serial.stats.completed, parallel.stats.completed);
  ASSERT_EQ(serial.stats.t2a_ms.size(), parallel.stats.t2a_ms.size());
  for (size_t i = 0; i < serial.stats.t2a_ms.size(); ++i) {
    EXPECT_EQ(serial.stats.t2a_ms[i], parallel.stats.t2a_ms[i])
        << "time-to-answer " << i << " diverged across thread counts";
  }
}

TEST(WorkloadTest, MakeTemplatesSplitsRangeAndKnn) {
  std::vector<Vector> centers;
  for (int i = 0; i < 10; ++i) {
    centers.push_back(Vector(4, static_cast<double>(i)));
  }
  WorkloadOptions workload;
  workload.num_templates = 8;
  workload.range_fraction = 0.75;
  const std::vector<QueryTemplate> templates =
      MakeTemplates(centers, workload, 0.3, 5);
  ASSERT_EQ(templates.size(), 8u);
  for (size_t i = 0; i < templates.size(); ++i) {
    if (i < 6) {
      EXPECT_FALSE(templates[i].knn);
      EXPECT_DOUBLE_EQ(templates[i].epsilon, 0.3);
    } else {
      EXPECT_TRUE(templates[i].knn);
      EXPECT_EQ(templates[i].k, 5);
    }
  }
}

}  // namespace
}  // namespace hyperm::serve
