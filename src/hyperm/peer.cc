#include "hyperm/peer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace hyperm::core {
namespace {

// Per-thread scratch for the batch sweeps: peer stores are small and
// scanned constantly, so a heap allocation per lookup would dominate.
std::vector<double>& DistScratch(size_t rows) {
  thread_local std::vector<double> scratch;
  if (scratch.size() < rows) scratch.resize(rows);
  return scratch;
}

}  // namespace

void Peer::AddItem(ItemId item_id, const Vector& features) {
  HM_CHECK(features_.empty() || features.size() == features_.cols());
  ids_.push_back(item_id);
  features_.AppendRow(features);
}

std::vector<ItemId> Peer::RangeSearch(const Vector& query, double epsilon) const {
  HM_CHECK_GE(epsilon, 0.0);
  thread_local std::vector<size_t> rows;  // per-thread, like DistScratch
  rows.clear();
  vec::RangeScanBatch(features_, query, epsilon * epsilon, &rows);
  std::vector<ItemId> hits;
  hits.reserve(rows.size());
  for (size_t r : rows) hits.push_back(ids_[r]);
  return hits;
}

std::vector<ItemId> Peer::NearestItems(const Vector& query, int count) const {
  std::vector<ItemId> out;
  for (const ScoredItem& item : NearestItemsScored(query, count)) {
    out.push_back(item.id);
  }
  return out;
}

std::vector<ScoredItem> Peer::NearestItemsScored(const Vector& query, int count) const {
  HM_CHECK_GE(count, 0);
  std::vector<double>& dist_sq = DistScratch(features_.rows());
  vec::SquaredDistanceBatch(features_, query, dist_sq.data());
  std::vector<std::pair<double, ItemId>> scored;
  scored.reserve(features_.rows());
  for (size_t i = 0; i < features_.rows(); ++i) {
    scored.emplace_back(dist_sq[i], ids_[i]);
  }
  const size_t take = std::min<size_t>(static_cast<size_t>(count), scored.size());
  std::partial_sort(scored.begin(), scored.begin() + static_cast<long>(take),
                    scored.end());
  std::vector<ScoredItem> out;
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    out.push_back(ScoredItem{scored[i].second, std::sqrt(scored[i].first)});
  }
  return out;
}

}  // namespace hyperm::core
