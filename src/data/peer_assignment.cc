#include "data/peer_assignment.h"

#include <algorithm>
#include <chrono>

#include "cluster/kmeans.h"
#include "common/check.h"

namespace hyperm::data {
namespace {

// Distinct random peers, `count` of them out of `num_peers`.
std::vector<int> SamplePeers(int num_peers, int count, Rng& rng) {
  std::vector<int> all(static_cast<size_t>(num_peers));
  for (int i = 0; i < num_peers; ++i) all[static_cast<size_t>(i)] = i;
  rng.Shuffle(all);
  all.resize(static_cast<size_t>(std::min(count, num_peers)));
  return all;
}

// Clusters the items into `k` interest classes and records the run's
// kmeans.* metrics (KMeans itself records nothing).
Result<cluster::KMeansResult> InterestClasses(const std::vector<Vector>& items, int k,
                                              Rng& rng) {
  cluster::KMeansOptions options;
  options.k = k;
  const auto start = std::chrono::steady_clock::now();
  Result<cluster::KMeansResult> classes = cluster::KMeans(items, options, rng);
  const double wall_us = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  if (classes.ok()) cluster::RecordKMeansRun(classes.value(), wall_us);
  return classes;
}

}  // namespace

Result<PeerAssignment> AssignByInterest(const Dataset& dataset,
                                        const AssignmentOptions& options, Rng& rng) {
  if (dataset.items.empty()) return InvalidArgumentError("AssignByInterest: empty dataset");
  if (options.num_peers < 1) return InvalidArgumentError("AssignByInterest: num_peers < 1");
  if (options.num_interest_classes < 1 ||
      options.min_peers_per_class < 1 ||
      options.max_peers_per_class < options.min_peers_per_class) {
    return InvalidArgumentError("AssignByInterest: bad class/peer options");
  }

  HM_ASSIGN_OR_RETURN(
      cluster::KMeansResult classes,
      InterestClasses(dataset.items, options.num_interest_classes, rng));

  // Bucket item indices by interest class.
  std::vector<std::vector<int>> class_members(classes.clusters.size());
  for (size_t i = 0; i < dataset.items.size(); ++i) {
    class_members[static_cast<size_t>(classes.assignments[i])].push_back(
        static_cast<int>(i));
  }

  PeerAssignment assignment(static_cast<size_t>(options.num_peers));
  for (auto& members : class_members) {
    if (members.empty()) continue;
    const int spread = static_cast<int>(
        rng.UniformInt(options.min_peers_per_class, options.max_peers_per_class));
    const std::vector<int> peers = SamplePeers(options.num_peers, spread, rng);
    rng.Shuffle(members);
    for (size_t i = 0; i < members.size(); ++i) {
      assignment[static_cast<size_t>(peers[i % peers.size()])].push_back(members[i]);
    }
  }

  // Top up empty peers by stealing one item from the fullest peer so every
  // peer participates in the network.
  for (auto& items : assignment) {
    if (!items.empty()) continue;
    auto fullest = std::max_element(
        assignment.begin(), assignment.end(),
        [](const auto& a, const auto& b) { return a.size() < b.size(); });
    if (fullest->size() <= 1) continue;  // nothing to steal
    items.push_back(fullest->back());
    fullest->pop_back();
  }
  return assignment;
}

Result<PeerAssignment> AssignUniform(const Dataset& dataset, int num_peers, Rng& rng) {
  if (dataset.items.empty()) return InvalidArgumentError("AssignUniform: empty dataset");
  if (num_peers < 1) return InvalidArgumentError("AssignUniform: num_peers < 1");
  PeerAssignment assignment(static_cast<size_t>(num_peers));
  for (size_t i = 0; i < dataset.items.size(); ++i) {
    assignment[rng.NextIndex(static_cast<size_t>(num_peers))].push_back(
        static_cast<int>(i));
  }
  return assignment;
}

Result<std::vector<int>> SelectSkewedSubset(const Dataset& dataset, int keep_classes,
                                            int num_interest_classes, Rng& rng) {
  if (dataset.items.empty()) return InvalidArgumentError("SelectSkewedSubset: empty dataset");
  if (keep_classes < 1 || keep_classes > num_interest_classes) {
    return InvalidArgumentError("SelectSkewedSubset: bad keep_classes");
  }
  HM_ASSIGN_OR_RETURN(cluster::KMeansResult classes,
                      InterestClasses(dataset.items, num_interest_classes, rng));

  // Keep the `keep_classes` most populated clusters (a deterministic way to
  // "select only a fixed number of clusters" that maximises the skew).
  std::vector<int> population(classes.clusters.size(), 0);
  for (int a : classes.assignments) ++population[static_cast<size_t>(a)];
  std::vector<int> order(classes.clusters.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return population[static_cast<size_t>(a)] >
                                       population[static_cast<size_t>(b)]; });
  order.resize(static_cast<size_t>(std::min<size_t>(
      static_cast<size_t>(keep_classes), order.size())));
  std::vector<bool> keep(classes.clusters.size(), false);
  for (int c : order) keep[static_cast<size_t>(c)] = true;

  std::vector<int> kept_indices;
  for (size_t i = 0; i < dataset.items.size(); ++i) {
    if (keep[static_cast<size_t>(classes.assignments[i])]) {
      kept_indices.push_back(static_cast<int>(i));
    }
  }
  (void)rng;
  return kept_indices;
}

}  // namespace hyperm::data
