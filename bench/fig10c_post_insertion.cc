// Figure 10c: recall loss for documents inserted after overlay creation.
//
// "We have evaluated the impact of inserting documents after the creation of
// the overlay. Figure 10c shows the loss in recall versus the number of new
// documents... even if we insert as much as 45% new documents (3600 new data
// items, versus 8400 existing), the recall loses only up to 33%."
//
// New items join a peer's local store without republishing summaries, so the
// published clusters go stale. We measure range-query recall over the
// combined corpus as the post-creation batch grows.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "hyperm/eval.h"
#include "hyperm/flat_index.h"

using namespace hyperm;

int main(int argc, char** argv) {
  const bool paper = bench::PaperScale(argc, argv);
  bench::PrintHeader("Figure 10c", "recall loss vs post-creation insertions", paper);

  // Initial corpus: 8400 items at paper scale (700 objects), 2940 otherwise.
  const int initial_objects = paper ? 700 : 245;
  core::HyperMOptions options;
  options.num_layers = 4;
  options.clusters_per_peer = 10;
  auto bed = bench::BuildEffectivenessBed(paper, options, /*seed=*/606,
                                          /*num_objects_override=*/initial_objects);
  std::printf("initial items=%zu (nodes=50)\n\n", bed->dataset.size());

  // Fresh objects to trickle in after creation (45% of the initial corpus).
  Rng extra_rng(777);
  data::HistogramOptions extra_options;
  extra_options.num_objects = (initial_objects * 45) / 100;
  extra_options.views_per_object = 12;
  extra_options.dim = 64;
  Result<data::Dataset> extra = data::GenerateHistograms(extra_options, extra_rng);
  if (!extra.ok()) {
    std::fprintf(stderr, "%s\n", extra.status().ToString().c_str());
    return 1;
  }

  // Queries run under a realistic contact budget (16 of 50 peers — the
  // fig10a knee); the loss is measured against the pre-churn recall at the
  // same budget.
  const int kContactBudget = 16;
  data::Dataset combined = bed->dataset;

  // Pre-churn baseline recall at the same budget.
  double base_recall;
  {
    const core::FlatIndex oracle(combined);
    std::vector<core::PrecisionRecall> results;
    for (int q = 0; q < 30; ++q) {
      const size_t index = (static_cast<size_t>(q) * 97 + 7) % combined.items.size();
      const Vector& query = combined.items[index];
      const double eps = oracle.KnnRadius(query, 20);
      Result<std::vector<core::ItemId>> retrieved =
          bed->network->RangeQuery(query, eps, q % 50, kContactBudget);
      if (!retrieved.ok()) {
        std::fprintf(stderr, "%s\n", retrieved.status().ToString().c_str());
        return 1;
      }
      results.push_back(core::Evaluate(*retrieved, oracle.RangeSearch(query, eps)));
    }
    base_recall = core::Summarize(results).mean_recall;
  }
  std::printf("pre-churn recall at a %d-peer contact budget: %.3f\n\n",
              kContactBudget, base_recall);

  // Two columns separate the two loss sources: the contact budget (ranking
  // quality under scattered placement) and stale summaries (visible at full
  // contact, where fresh summaries guarantee recall 1).
  auto measure = [&](const data::Dataset& corpus, double* at_budget, double* full) {
    const core::FlatIndex oracle(corpus);
    std::vector<core::PrecisionRecall> budget_results, full_results;
    for (int q = 0; q < 30; ++q) {
      // Fixed workload over the growing corpus: queries sample the whole
      // collection, so the share of unpublished ground-truth items grows
      // with the churn (the paper's gradual loss curve).
      const size_t index = (static_cast<size_t>(q) * 14657 + 31) % corpus.items.size();
      const Vector& query = corpus.items[index];
      const double eps = oracle.KnnRadius(query, 20);
      const std::vector<core::ItemId> truth = oracle.RangeSearch(query, eps);
      Result<std::vector<core::ItemId>> budget =
          bed->network->RangeQuery(query, eps, q % 50, kContactBudget);
      Result<std::vector<core::ItemId>> everyone =
          bed->network->RangeQuery(query, eps, q % 50, /*max_peers=*/-1);
      if (!budget.ok() || !everyone.ok()) std::exit(1);
      budget_results.push_back(core::Evaluate(*budget, truth));
      full_results.push_back(core::Evaluate(*everyone, truth));
    }
    *at_budget = core::Summarize(budget_results).mean_recall;
    *full = core::Summarize(full_results).mean_recall;
  };

  std::printf("%-12s %10s %14s %14s %12s\n", "new items", "new/old",
              "recall@budget", "recall loss", "recall@all");
  size_t cursor = 0;
  Rng placement(13);
  const size_t step = extra->items.size() / 6;
  for (int stage = 1; stage <= 6; ++stage) {
    // Insert the next batch without republication.
    const size_t until = stage == 6 ? extra->items.size() : cursor + step;
    for (; cursor < until; ++cursor) {
      const core::ItemId id = static_cast<core::ItemId>(combined.items.size());
      combined.items.push_back(extra->items[cursor]);
      combined.labels.push_back(-1);
      const Status added = bed->network->AddItemWithoutRepublish(
          static_cast<int>(placement.NextIndex(50)), id, extra->items[cursor]);
      if (!added.ok()) {
        std::fprintf(stderr, "%s\n", added.ToString().c_str());
        return 1;
      }
    }
    double at_budget = 0.0, full = 0.0;
    measure(combined, &at_budget, &full);
    std::printf("%-12zu %9.1f%% %14.3f %13.1f%% %12.3f\n", cursor,
                100.0 * static_cast<double>(cursor) / bed->dataset.size(), at_budget,
                100.0 * (base_recall - at_budget) / base_recall, full);
  }

  // Extension: the repair action. Every peer re-clusters and republishes,
  // which restores fresh summaries — and with them the full-contact
  // guarantee — for the whole grown collection.
  Rng republish_rng(99);
  for (int p = 0; p < bed->network->num_peers(); ++p) {
    if (!bed->network->RepublishPeer(p, republish_rng).ok()) return 1;
  }
  double at_budget = 0.0, full = 0.0;
  measure(combined, &at_budget, &full);
  std::printf("%-12s %10s %14.3f %13.1f%% %12.3f\n", "(republish)", "-", at_budget,
              100.0 * (base_recall - at_budget) / base_recall, full);

  std::printf("\nexpected shape: graceful budget-recall degradation — at ~45%% new\n"
              "items the loss stays bounded (paper: at most ~33%%). Full-contact\n"
              "recall isolates the staleness component; republication returns it\n"
              "to 1.0 (the Theorem 4.1 guarantee over the grown corpus).\n");
  bench::WriteBenchReport(argc, argv, "fig10c_post_insertion");
  return 0;
}
