#include "serve/shortcuts.h"

#include <cmath>

namespace hyperm::serve {

ShortcutMiner::ShortcutMiner(const ShortcutOptions& options)
    : enabled_(options.enabled) {}

uint64_t ShortcutMiner::CellOf(int layer,
                               const geom::Sphere& key_sphere) const {
  uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  };
  mix(static_cast<uint64_t>(layer));
  const double cells = static_cast<double>(kCellsPerDim);
  for (double c : key_sphere.center) {
    // Keys live in [0,1); clamp anyway so an out-of-range center cannot
    // index a phantom cell differently across platforms.
    double clamped = c;
    if (clamped < 0.0) clamped = 0.0;
    if (clamped > 1.0) clamped = 1.0;
    int cell = static_cast<int>(std::floor(clamped * cells));
    if (cell >= kCellsPerDim) cell = kCellsPerDim - 1;
    mix(static_cast<uint64_t>(cell));
  }
  return h;
}

overlay::NodeId ShortcutMiner::EntryHint(int layer,
                                         const geom::Sphere& key_sphere) {
  if (!enabled_) return overlay::kInvalidNode;
  const auto it = promoted_.find(CellOf(layer, key_sphere));
  if (it == promoted_.end()) return overlay::kInvalidNode;
  ++stats_.hints;
  return it->second;
}

void ShortcutMiner::Observe(int layer, const geom::Sphere& key_sphere,
                            overlay::NodeId entry_node, bool delivered,
                            bool via_shortcut) {
  if (!enabled_) return;
  const uint64_t cell = CellOf(layer, key_sphere);
  if (via_shortcut && !delivered) {
    // Stale hint: the association is wrong *now*. Demote it and scrub its
    // in-window support — without the scrub the stale pair's old support
    // would re-promote it on the very next delivered observation.
    ++stats_.stale;
    const auto it = promoted_.find(cell);
    if (it != promoted_.end()) {
      const overlay::NodeId dead = it->second;
      promoted_.erase(it);
      ++stats_.demotions;
      auto counts = counts_.find(cell);
      if (counts != counts_.end()) counts->second.erase(dead);
      for (auto& slot : window_) {
        if (slot.first == cell && slot.second == dead) {
          slot.second = overlay::kInvalidNode;  // tombstone
        }
      }
    }
    return;
  }
  if (!delivered || entry_node == overlay::kInvalidNode) return;
  if (via_shortcut) ++stats_.hits;
  ++stats_.observations;
  window_.emplace_back(cell, entry_node);
  const int support = ++counts_[cell][entry_node];
  if (window_.size() > static_cast<size_t>(kWindow)) {
    const auto [old_cell, old_entry] = window_.front();
    window_.pop_front();
    if (old_entry != overlay::kInvalidNode) {
      auto counts = counts_.find(old_cell);
      if (counts != counts_.end()) {
        auto entry = counts->second.find(old_entry);
        if (entry != counts->second.end() && --entry->second <= 0) {
          counts->second.erase(entry);
        }
        if (counts->second.empty()) counts_.erase(counts);
      }
    }
  }
  if (support >= kPromoteThreshold) {
    auto [it, inserted] = promoted_.emplace(cell, entry_node);
    if (inserted || it->second != entry_node) {
      it->second = entry_node;
      ++stats_.promotions;
    }
  }
}

}  // namespace hyperm::serve
