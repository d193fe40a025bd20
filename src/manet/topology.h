// Physical MANET topology underneath the overlay.
//
// The paper evaluates Hyper-M purely in overlay hops; its motivating
// scenario, however, is a physical ad-hoc radio network (conference room,
// train car) where one overlay hop between two arbitrary peers costs a
// multi-hop radio path. This module supplies that missing substrate: node
// placement in a field, unit-disk connectivity, shortest-path hop metrics
// and random-waypoint mobility. Because CAN zone assignment is independent
// of geography, overlay neighbours are uniform random node pairs physically,
// so `MeanPairwiseHops()` is the exact expected physical cost of one overlay
// hop — the conversion factor the energy benches use.
//
// Scale-out design (DESIGN.md §13):
//  - Connectivity is rebuilt through a uniform-grid spatial hash (cell size
//    = radio range), so a rebuild costs O(n · k) for mean degree k instead
//    of the O(n²) pairwise scan. Neighbour lists stay in ascending-id order,
//    which keeps BFS tie-breaking — and every downstream result —
//    bit-identical to the brute-force implementation.
//  - Every connectivity rebuild bumps a monotonically increasing epoch.
//    Shortest-path queries are served from per-source BFS trees built
//    lazily and cached until the epoch moves on; island (connected
//    component) labels are cached the same way, so reachability checks are
//    O(1) between mobility ticks.
//
// Thread-safety: like the radio channel above it, the topology is
// single-threaded by design — the route/island caches mutate under const
// accessors and must only be touched from the simulator thread.

#ifndef HYPERM_MANET_TOPOLOGY_H_
#define HYPERM_MANET_TOPOLOGY_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "vec/vector.h"

namespace hyperm::manet {

/// Physical deployment parameters.
struct TopologyOptions {
  int num_nodes = 50;
  double field_size_m = 200.0;   ///< square field side
  double radio_range_m = 50.0;   ///< unit-disk radio range
  int max_placement_attempts = 200;  ///< retries until a connected placement
};

/// Sentinel returned by PathHops when no radio path exists (the unit-disk
/// graph is split into islands — routine under mobility).
inline constexpr int kUnreachableHops = -1;

/// Route-cache effectiveness totals. Plain counters (the manet layer sits
/// below obs in the dependency order); the radio channel forwards deltas
/// into the metrics registry as `channel.route_cache.*`.
struct RouteCacheCounters {
  uint64_t hits = 0;           ///< lookups served by a fresh cached tree
  uint64_t misses = 0;         ///< lookups that had to run a BFS
  uint64_t invalidations = 0;  ///< misses whose cached tree was epoch-stale
};

/// A static snapshot of node positions with unit-disk connectivity.
class ManetTopology {
 public:
  /// Samples uniform placements until the unit-disk graph is connected.
  /// Returns FailedPrecondition if no connected placement is found within
  /// the attempt budget (radio range too small for the field).
  static Result<ManetTopology> Generate(const TopologyOptions& options, Rng& rng);

  /// Builds a topology from explicit node positions (2-D, inside the field).
  /// Connectivity is NOT required — this is how tests and the channel layer
  /// construct deterministic disconnected layouts. Waypoints start at the
  /// node positions (nodes are stationary until RandomWaypointStep re-draws).
  static Result<ManetTopology> FromPositions(const TopologyOptions& options,
                                             std::vector<Vector> positions);

  /// Number of nodes.
  int num_nodes() const { return static_cast<int>(positions_.size()); }

  /// Position of `node` (2-D, meters).
  const Vector& position(int node) const;

  /// Physical radio neighbours of `node` (within radio range), ascending
  /// id. Links are bidirectional: j is in neighbors(i) iff i is in
  /// neighbors(j).
  const std::vector<int>& neighbors(int node) const;

  /// Shortest-path hop count between two nodes (0 for a == b), or
  /// kUnreachableHops when mobility has split them into different radio
  /// islands — callers treat that as "unreachable this tick". Served from
  /// the per-source route cache (one BFS per source per epoch).
  int PathHops(int from, int to) const;

  /// Node sequence of one shortest path from `from` to `to`, both endpoints
  /// included ({from} when from == to). Empty when no path exists. Ties are
  /// broken deterministically (BFS in ascending neighbour order). Served
  /// from the per-source route cache.
  std::vector<int> ShortestPath(int from, int to) const;

  /// Allocation-free ShortestPath variant: clears `out` and fills it with
  /// the same node sequence. The transmit path calls this once per routed
  /// message, so it reuses the caller's buffer instead of returning a fresh
  /// vector.
  void ShortestPathInto(int from, int to, std::vector<int>& out) const;

  /// Mean hop count over all ordered *reachable* node pairs — the expected
  /// physical cost of one overlay hop (0 if no pair is reachable).
  double MeanPairwiseHops() const;

  /// True iff the connectivity graph is currently connected.
  bool connected() const;

  /// One random-waypoint mobility step: every node moves up to
  /// `max_step_m` toward its private waypoint (re-drawn when reached), then
  /// connectivity is recomputed (bumping the epoch). Low speeds model the
  /// paper's "limited mobility" sessions.
  void RandomWaypointStep(double max_step_m, Rng& rng);

  /// Monotonic counter bumped on every connectivity rebuild. Cached routes
  /// and island labels are valid exactly while this stays constant.
  uint64_t connectivity_epoch() const { return epoch_; }

  /// Island (connected-component) label per node, densely numbered from 0
  /// in ascending-node discovery order (the historical RelabelIslands
  /// contract). Lazily recomputed once per epoch.
  const std::vector<int>& island_labels() const;

  /// Number of distinct radio islands right now (1 when connected).
  int num_islands() const;

  /// True iff both nodes sit in the same radio island — O(1) between
  /// mobility ticks, the cheap pre-check that keeps unreachable drops free.
  bool SameIsland(int a, int b) const;

  /// Route-cache totals since construction (monotonic).
  const RouteCacheCounters& route_cache_counters() const { return route_counters_; }

  /// Number of cached per-source trees valid for the current epoch — what a
  /// connectivity rebuild is about to throw away.
  int CachedTreeCount() const;

 private:
  /// One cached BFS tree: parents + hop counts from a single source, tagged
  /// with the epoch it was built at (0 = never built; epochs start at 1).
  struct SourceTree {
    uint64_t epoch = 0;
    std::vector<int> parent;  // -1 = unreachable; parent[source] = source
    std::vector<int> hops;    // -1 = unreachable
  };

  ManetTopology() = default;

  void RebuildConnectivity();

  /// Rebuilds the spatial-hash grid from scratch (placement time).
  void RebuildGrid();
  /// Moves nodes between grid cells after a mobility step; only cells whose
  /// occupants changed are touched.
  void UpdateGridAfterMove();
  /// Recomputes every neighbour list from the grid (3×3 cell probe).
  void RecomputeNeighborLists();
  int CellOf(const Vector& position) const;

  /// Returns the cached BFS tree for `from`, building it if absent/stale.
  const SourceTree& TreeFor(int from) const;

  TopologyOptions options_;
  std::vector<Vector> positions_;   // 2-D points
  std::vector<Vector> waypoints_;   // mobility targets
  std::vector<std::vector<int>> neighbors_;

  // Spatial hash: cells_[cy * grid_dim_ + cx] lists the occupant node ids.
  int grid_dim_ = 1;
  std::vector<std::vector<int>> cells_;
  std::vector<int> node_cell_;  // current cell index per node

  // Epoch-tagged caches (mutable: filled lazily under const accessors on
  // the single simulator thread).
  uint64_t epoch_ = 0;
  mutable std::vector<SourceTree> trees_;
  mutable std::vector<int> islands_;
  mutable uint64_t island_epoch_ = 0;
  mutable int num_islands_ = 0;
  mutable RouteCacheCounters route_counters_;
};

}  // namespace hyperm::manet

#endif  // HYPERM_MANET_TOPOLOGY_H_
