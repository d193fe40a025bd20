// Mined shortcut routes: a sliding-window miner over finished range probes
// that promotes hot (query cell -> serving entry node) associations into
// first-probe hints.
//
// Every delivered probe reports where its zone flood started (the owner of
// the query center's zone — CAN zones are static after Build, so the
// association stays sound while the node is up). The miner quantizes the
// probe's key sphere into a per-layer grid cell and counts (cell, entry)
// observations over a sliding window; once a pair accumulates
// kPromoteThreshold in-window observations the cell is promoted and
// EntryHint starts answering with the mined node. The executor then opens
// with one direct hop to the hint instead of the full greedy walk.
//
// Fail-soft by construction: a hint that turns out stale (node crashed,
// radio island) costs its airtime and the probe re-runs on the plain greedy
// path — recall never depends on the miner's state — and the failure
// demotes the association immediately (plus scrubs its window support, so a
// dead node cannot flap back in without fresh evidence).

#ifndef HYPERM_SERVE_SHORTCUTS_H_
#define HYPERM_SERVE_SHORTCUTS_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>

#include "geom/shapes.h"
#include "hyperm/query_plan.h"
#include "overlay/overlay.h"
#include "serve/options.h"

namespace hyperm::serve {

/// Running miner totals.
struct ShortcutStats {
  uint64_t observations = 0;  ///< delivered probes fed to the miner
  uint64_t hints = 0;         ///< EntryHint calls answered with a mined node
  uint64_t hits = 0;          ///< hinted probes that delivered
  uint64_t stale = 0;         ///< hinted probes that failed (fail-soft path)
  uint64_t promotions = 0;    ///< cells (re)promoted to a hint
  uint64_t demotions = 0;     ///< promoted cells dropped after a stale hint
};

/// The core::ShortcutProvider implementation the serving engine installs on
/// its network. Single-threaded: the query executor consults it from the
/// calling thread, like the transport underneath.
class ShortcutMiner : public core::ShortcutProvider {
 public:
  static constexpr int kCellsPerDim = 8;  ///< key-space grid per dimension
  static constexpr int kWindow = 128;     ///< recent observations kept
  static constexpr int kPromoteThreshold = 3;  ///< in-window support to promote

  explicit ShortcutMiner(const ShortcutOptions& options);

  overlay::NodeId EntryHint(int layer,
                            const geom::Sphere& key_sphere) override;
  void Observe(int layer, const geom::Sphere& key_sphere,
               overlay::NodeId entry_node, bool delivered,
               bool via_shortcut) override;

  const ShortcutStats& stats() const { return stats_; }
  size_t promoted_cells() const { return promoted_.size(); }

 private:
  /// Quantizes the sphere's center into a per-layer grid cell id (FNV over
  /// the layer and the floor(center * kCellsPerDim) coordinates).
  uint64_t CellOf(int layer, const geom::Sphere& key_sphere) const;

  bool enabled_;
  /// Recent (cell, entry) observations, oldest first; evicted pairs give
  /// their support back. kInvalidNode entries are tombstones left by a
  /// demotion scrub.
  std::deque<std::pair<uint64_t, overlay::NodeId>> window_;
  /// In-window support per (cell, entry).
  std::unordered_map<uint64_t, std::unordered_map<overlay::NodeId, int>>
      counts_;
  /// Promoted associations EntryHint answers from.
  std::unordered_map<uint64_t, overlay::NodeId> promoted_;
  ShortcutStats stats_;
};

}  // namespace hyperm::serve

#endif  // HYPERM_SERVE_SHORTCUTS_H_
