// An application peer: the device that owns data items.
//
// Peers hold their items locally (Hyper-M never ships raw items into the
// overlay — only cluster summaries). Once the score phase has selected a
// peer, queries are resolved against this local store exactly, which is why
// range-query precision is always 100% (Section 6.1).
//
// Both local searches filter before they scan: each stored item keeps its
// 8 coarsest orthonormal Haar coefficients (wavelet/coarse.h), whose
// distance to the query's is a lower bound on the full distance (Parseval).
// Rows the bound rules out by more than a rounding margin are never read;
// the rest go through the exact kernels, so results are bit-identical to a
// full scan (DESIGN.md §23).

#ifndef HYPERM_HYPERM_PEER_H_
#define HYPERM_HYPERM_PEER_H_

#include <vector>

#include "vec/matrix.h"
#include "vec/vector.h"
#include "wavelet/coarse.h"

namespace hyperm::core {

/// Globally unique identifier of a data item (its dataset index).
using ItemId = int;

/// An item id with its exact distance to some query (what a peer actually
/// returns over the network, so callers can merge results globally).
struct ScoredItem {
  ItemId id = -1;
  double distance = 0.0;
};

/// The query's side of the coarse filter: its kCoarseCoefficients coarse
/// Haar coefficients and Σ|q_i|. A query computes it once, in O(d), and
/// passes it to every peer it searches.
struct CoarseQuery {
  explicit CoarseQuery(const Vector& query)
      : abs_sum(wavelet::CoarseHaar(query.data(), query.size(), coef)) {}

  double coef[wavelet::kCoarseCoefficients];
  double abs_sum;
};

/// A peer's local item store with exact search. Both searches take the
/// query's CoarseQuery, which must be CoarseQuery(query).
class Peer {
 public:
  /// Creates peer `id` with no items.
  explicit Peer(int id) : id_(id) {}

  /// The peer id (== its overlay node id in every layer).
  int id() const { return id_; }

  /// Adds one item. The vector is copied and its coarse Haar coefficients
  /// computed; `item_id` must be unique per peer.
  void AddItem(ItemId item_id, const Vector& features);

  /// Number of locally stored items.
  size_t num_items() const { return ids_.size(); }

  /// Stored item ids.
  const std::vector<ItemId>& item_ids() const { return ids_; }

  /// Stored feature vectors (flat row-major storage), rows parallel to
  /// item_ids().
  const vec::Matrix& item_features() const { return features_; }

  /// Exact local range search: ids of items within `epsilon` of `query`, in
  /// insertion order. Counts the rows considered (`peer.scan.rows`) and the
  /// rows the coarse bound left for the exact scan (`peer.scan.rows_refined`).
  std::vector<ItemId> RangeSearch(const Vector& query, const CoarseQuery& coarse,
                                  double epsilon) const;

  /// Exact local top-`count` search: the `count` items nearest to `query`
  /// with their exact distances, ordered by increasing distance, equal
  /// distances by id (fewer if the peer holds fewer items). Counts rows like
  /// RangeSearch.
  std::vector<ScoredItem> NearestItemsScored(const Vector& query, const CoarseQuery& coarse,
                                             int count) const;

 private:
  // Coefficient row r of coarse_.
  const double* coarse_row(size_t r) const;

  int id_;
  std::vector<ItemId> ids_;
  vec::Matrix features_;  // SoA: the local scans are batch distance sweeps
  // Per stored row, wavelet::kCoarseCoefficients coarse Haar coefficients,
  // row-major and parallel to features_.
  std::vector<double> coarse_;
  double max_abs_sum_ = 0.0;  // largest Σ|x_i| of a stored row (the margin)
};

}  // namespace hyperm::core

#endif  // HYPERM_HYPERM_PEER_H_
