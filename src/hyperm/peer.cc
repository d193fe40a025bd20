#include "hyperm/peer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"
#include "wavelet/coarse.h"

namespace hyperm::core {

using wavelet::kCoarseCoefficients;

void Peer::AddItem(ItemId item_id, const Vector& features) {
  HM_CHECK(features_.empty() || features.size() == features_.cols());
  ids_.push_back(item_id);
  features_.AppendRow(features);
  coarse_.resize(coarse_.size() + kCoarseCoefficients);
  const double abs_sum = wavelet::CoarseHaar(
      features.data(), features.size(), coarse_.data() + coarse_.size() - kCoarseCoefficients);
  max_abs_sum_ = std::max(max_abs_sum_, abs_sum);
}

const double* Peer::coarse_row(size_t r) const {
  return coarse_.data() + r * kCoarseCoefficients;
}

std::vector<ItemId> Peer::RangeSearch(const Vector& query, const CoarseQuery& coarse,
                                      double epsilon) const {
  HM_CHECK_GE(epsilon, 0.0);
  HM_CHECK_EQ(query.size(), features_.empty() ? query.size() : features_.cols());
  const size_t n = features_.rows();
  const double bound_sq = epsilon * epsilon;
  // The rounding margin scales with the query's Σ|q_i| plus the largest
  // stored row's.
  const wavelet::CoarseMargin margin(query.size(), coarse.abs_sum + max_abs_sum_);
  const double threshold = margin.PruneThreshold(bound_sq);
  // Filter: one pass over the coefficient rows keeps, in row order, every
  // row the bound cannot rule out (branch-free compaction).
  thread_local std::vector<size_t> kept;  // per-thread scratch: no allocation per lookup
  kept.resize(n);
  size_t num_kept = 0;
  for (size_t r = 0; r < n; ++r) {
    kept[num_kept] = r;
    num_kept += !(wavelet::CoarseBoundSq(coarse_row(r), coarse.coef) > threshold);
  }
  // Refine: the exact bounded scan over the kept rows, four at a time.
  thread_local std::vector<size_t> rows;
  rows.clear();
  vec::RangeScanGather(features_.data(), features_.stride(), kept.data(), num_kept,
                       query.data(), query.size(), bound_sq, &rows);
  HM_OBS_COUNTER_ADD("peer.scan.rows", n);
  HM_OBS_COUNTER_ADD("peer.scan.rows_refined", num_kept);
  std::vector<ItemId> hits;
  hits.reserve(rows.size());
  for (size_t r : rows) hits.push_back(ids_[r]);
  return hits;
}

std::vector<ScoredItem> Peer::NearestItemsScored(const Vector& query,
                                                 const CoarseQuery& coarse, int count) const {
  HM_CHECK_GE(count, 0);
  HM_CHECK_EQ(query.size(), features_.empty() ? query.size() : features_.cols());
  const size_t n = features_.rows();
  const size_t take = std::min<size_t>(static_cast<size_t>(count), n);
  const wavelet::CoarseMargin margin(query.size(), coarse.abs_sum + max_abs_sum_);
  // (bound, row) per stored row, the `take` smallest bounds first (row
  // index on ties). A NaN bound becomes 0, which prunes nothing.
  thread_local std::vector<std::pair<double, size_t>> order;  // per-thread scratch
  order.resize(n);
  for (size_t r = 0; r < n; ++r) {
    const double bound = wavelet::CoarseBoundSq(coarse_row(r), coarse.coef);
    order[r] = {bound >= 0.0 ? bound : 0.0, r};
  }
  if (take > 0 && take < n) {
    std::nth_element(order.begin(), order.begin() + static_cast<long>(take - 1), order.end());
  }
  // best: a max-heap of the `take` smallest (squared distance, id) pairs so
  // far — the total order the result is sorted by. The `take` rows of
  // smallest bound seed it; every later row is refined only if its bound
  // cannot prove it strictly farther than the current worst of `best`.
  // That worst only shrinks, so a row dropped against it could never enter
  // the result nor tie with it. Refined rows go four at a time.
  std::vector<std::pair<double, ItemId>> best;
  best.reserve(take);
  auto offer = [&](const std::pair<double, ItemId>& candidate) {
    if (best.size() < take) {
      best.push_back(candidate);
      std::push_heap(best.begin(), best.end());
    } else if (candidate < best.front()) {
      std::pop_heap(best.begin(), best.end());
      best.back() = candidate;
      std::push_heap(best.begin(), best.end());
    }
  };
  size_t block[4];
  size_t pending = 0;
  size_t refined = 0;
  double worst = std::numeric_limits<double>::quiet_NaN();  // best.front() at the last update
  double threshold = std::numeric_limits<double>::infinity();
  auto flush = [&] {
    double dist_sq[4];
    vec::SquaredDistanceGather(features_.data(), features_.stride(), block, pending,
                               query.data(), query.size(), dist_sq);
    for (size_t i = 0; i < pending; ++i) offer({dist_sq[i], ids_[block[i]]});
    refined += pending;
    pending = 0;
    if (best.size() == take && best.front().first != worst) {
      worst = best.front().first;
      threshold = margin.PruneThreshold(worst);
    }
  };
  for (size_t pos = 0; pos < n && take > 0; ++pos) {
    if (order[pos].first > threshold) continue;
    block[pending++] = order[pos].second;
    if (pending == 4) flush();
  }
  if (pending > 0) flush();
  HM_OBS_COUNTER_ADD("peer.scan.rows", n);
  HM_OBS_COUNTER_ADD("peer.scan.rows_refined", refined);
  std::sort_heap(best.begin(), best.end());
  std::vector<ScoredItem> out;
  out.reserve(take);
  for (const auto& [d2, id] : best) out.push_back(ScoredItem{id, std::sqrt(d2)});
  return out;
}

}  // namespace hyperm::core
