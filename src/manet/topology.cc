#include "manet/topology.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace hyperm::manet {

Result<ManetTopology> ManetTopology::Generate(const TopologyOptions& options, Rng& rng) {
  if (options.num_nodes < 1) {
    return InvalidArgumentError("ManetTopology: num_nodes < 1");
  }
  if (options.field_size_m <= 0.0 || options.radio_range_m <= 0.0) {
    return InvalidArgumentError("ManetTopology: non-positive geometry");
  }
  ManetTopology topology;
  topology.options_ = options;
  for (int attempt = 0; attempt < options.max_placement_attempts; ++attempt) {
    topology.positions_.clear();
    topology.waypoints_.clear();
    for (int i = 0; i < options.num_nodes; ++i) {
      topology.positions_.push_back(
          {rng.Uniform(0.0, options.field_size_m), rng.Uniform(0.0, options.field_size_m)});
      topology.waypoints_.push_back(
          {rng.Uniform(0.0, options.field_size_m), rng.Uniform(0.0, options.field_size_m)});
    }
    topology.RebuildConnectivity();
    if (topology.connected()) return topology;
  }
  return FailedPreconditionError(
      "ManetTopology: no connected placement found (radio range too small?)");
}

Result<ManetTopology> ManetTopology::FromPositions(const TopologyOptions& options,
                                                   std::vector<Vector> positions) {
  if (positions.empty()) return InvalidArgumentError("FromPositions: no positions");
  if (options.field_size_m <= 0.0 || options.radio_range_m <= 0.0) {
    return InvalidArgumentError("FromPositions: non-positive geometry");
  }
  for (const Vector& p : positions) {
    if (p.size() != 2) return InvalidArgumentError("FromPositions: positions must be 2-D");
    if (p[0] < 0.0 || p[0] > options.field_size_m || p[1] < 0.0 ||
        p[1] > options.field_size_m) {
      return InvalidArgumentError("FromPositions: position outside the field");
    }
  }
  ManetTopology topology;
  topology.options_ = options;
  topology.options_.num_nodes = static_cast<int>(positions.size());
  topology.positions_ = std::move(positions);
  topology.waypoints_ = topology.positions_;
  topology.RebuildConnectivity();
  return topology;
}

int ManetTopology::CellOf(const Vector& position) const {
  const double cell = options_.radio_range_m;
  int cx = static_cast<int>(position[0] / cell);
  int cy = static_cast<int>(position[1] / cell);
  cx = std::min(std::max(cx, 0), grid_dim_ - 1);
  cy = std::min(std::max(cy, 0), grid_dim_ - 1);
  return cy * grid_dim_ + cx;
}

void ManetTopology::RebuildGrid() {
  const size_t n = positions_.size();
  grid_dim_ = std::max(
      1, static_cast<int>(std::ceil(options_.field_size_m / options_.radio_range_m)));
  cells_.assign(static_cast<size_t>(grid_dim_) * static_cast<size_t>(grid_dim_), {});
  node_cell_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const int cell = CellOf(positions_[i]);
    node_cell_[i] = cell;
    cells_[static_cast<size_t>(cell)].push_back(static_cast<int>(i));
  }
}

void ManetTopology::UpdateGridAfterMove() {
  // Only nodes that crossed a cell boundary touch the grid; with mobility
  // steps a fraction of the cell size that is a small minority per tick.
  for (size_t i = 0; i < positions_.size(); ++i) {
    const int cell = CellOf(positions_[i]);
    if (cell == node_cell_[i]) continue;
    std::vector<int>& old_cell = cells_[static_cast<size_t>(node_cell_[i])];
    old_cell.erase(std::find(old_cell.begin(), old_cell.end(), static_cast<int>(i)));
    cells_[static_cast<size_t>(cell)].push_back(static_cast<int>(i));
    node_cell_[i] = cell;
  }
}

void ManetTopology::RecomputeNeighborLists() {
  const size_t n = positions_.size();
  if (neighbors_.size() != n) neighbors_.resize(n);
  const double range_sq = options_.radio_range_m * options_.radio_range_m;
  for (size_t i = 0; i < n; ++i) {
    std::vector<int>& list = neighbors_[i];
    list.clear();  // keeps the previous epoch's capacity
    if (list.capacity() == 0) list.reserve(16);
    const int cx = node_cell_[i] % grid_dim_;
    const int cy = node_cell_[i] / grid_dim_;
    const int x_lo = std::max(cx - 1, 0), x_hi = std::min(cx + 1, grid_dim_ - 1);
    const int y_lo = std::max(cy - 1, 0), y_hi = std::min(cy + 1, grid_dim_ - 1);
    for (int y = y_lo; y <= y_hi; ++y) {
      for (int x = x_lo; x <= x_hi; ++x) {
        for (int j : cells_[static_cast<size_t>(y * grid_dim_ + x)]) {
          if (static_cast<size_t>(j) == i) continue;
          if (vec::SquaredDistance(positions_[i], positions_[static_cast<size_t>(j)]) <=
              range_sq) {
            list.push_back(j);
          }
        }
      }
    }
    // Cell visit order is spatial, not by id; ascending ids are the BFS
    // tie-break contract, so restore them here.
    std::sort(list.begin(), list.end());
  }
}

void ManetTopology::RebuildConnectivity() {
  RebuildGrid();
  RecomputeNeighborLists();
  ++epoch_;
  trees_.resize(positions_.size());
}

const Vector& ManetTopology::position(int node) const {
  HM_CHECK_GE(node, 0);
  HM_CHECK_LT(node, num_nodes());
  return positions_[static_cast<size_t>(node)];
}

const std::vector<int>& ManetTopology::neighbors(int node) const {
  HM_CHECK_GE(node, 0);
  HM_CHECK_LT(node, num_nodes());
  return neighbors_[static_cast<size_t>(node)];
}

const ManetTopology::SourceTree& ManetTopology::TreeFor(int from) const {
  SourceTree& tree = trees_[static_cast<size_t>(from)];
  if (tree.epoch == epoch_) {
    ++route_counters_.hits;
    return tree;
  }
  if (tree.epoch != 0) ++route_counters_.invalidations;
  ++route_counters_.misses;
  const size_t n = positions_.size();
  tree.parent.assign(n, -1);
  tree.hops.assign(n, -1);
  // Full BFS with an index-cursor frontier. Neighbours are stored ascending,
  // so the first parent discovered is the same deterministic tie-break the
  // historical early-exit per-pair BFS produced.
  std::vector<int> frontier;
  frontier.reserve(n);
  tree.parent[static_cast<size_t>(from)] = from;
  tree.hops[static_cast<size_t>(from)] = 0;
  frontier.push_back(from);
  for (size_t cursor = 0; cursor < frontier.size(); ++cursor) {
    const int node = frontier[cursor];
    const int next_hops = tree.hops[static_cast<size_t>(node)] + 1;
    for (int next : neighbors_[static_cast<size_t>(node)]) {
      if (tree.parent[static_cast<size_t>(next)] >= 0) continue;
      tree.parent[static_cast<size_t>(next)] = node;
      tree.hops[static_cast<size_t>(next)] = next_hops;
      frontier.push_back(next);
    }
  }
  tree.epoch = epoch_;
  return tree;
}

int ManetTopology::PathHops(int from, int to) const {
  HM_CHECK_GE(from, 0);
  HM_CHECK_LT(from, num_nodes());
  HM_CHECK_GE(to, 0);
  HM_CHECK_LT(to, num_nodes());
  if (from == to) return 0;
  const int h = TreeFor(from).hops[static_cast<size_t>(to)];
  return h >= 0 ? h : kUnreachableHops;
}

std::vector<int> ManetTopology::ShortestPath(int from, int to) const {
  std::vector<int> path;
  ShortestPathInto(from, to, path);
  return path;
}

void ManetTopology::ShortestPathInto(int from, int to,
                                     std::vector<int>& out) const {
  HM_CHECK_GE(from, 0);
  HM_CHECK_LT(from, num_nodes());
  HM_CHECK_GE(to, 0);
  HM_CHECK_LT(to, num_nodes());
  out.clear();
  if (from == to) {
    out.push_back(from);
    return;
  }
  const SourceTree& tree = TreeFor(from);
  if (tree.parent[static_cast<size_t>(to)] < 0) return;
  out.reserve(static_cast<size_t>(tree.hops[static_cast<size_t>(to)]) + 1);
  for (int node = to; node != from; node = tree.parent[static_cast<size_t>(node)]) {
    out.push_back(node);
  }
  out.push_back(from);
  std::reverse(out.begin(), out.end());
}

double ManetTopology::MeanPairwiseHops() const {
  const int n = num_nodes();
  if (n < 2) return 0.0;
  double total = 0.0;
  int pairs = 0;
  for (int i = 0; i < n; ++i) {
    const std::vector<int>& hops = TreeFor(i).hops;
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      if (hops[static_cast<size_t>(j)] < 0) continue;  // different radio island
      total += hops[static_cast<size_t>(j)];
      ++pairs;
    }
  }
  return pairs == 0 ? 0.0 : total / pairs;
}

const std::vector<int>& ManetTopology::island_labels() const {
  if (island_epoch_ == epoch_ && !islands_.empty()) return islands_;
  const int n = num_nodes();
  islands_.assign(static_cast<size_t>(n), -1);
  int label = 0;
  std::vector<int> frontier;
  frontier.reserve(static_cast<size_t>(n));
  for (int start = 0; start < n; ++start) {
    if (islands_[static_cast<size_t>(start)] >= 0) continue;
    islands_[static_cast<size_t>(start)] = label;
    frontier.clear();
    frontier.push_back(start);
    for (size_t cursor = 0; cursor < frontier.size(); ++cursor) {
      for (int next : neighbors_[static_cast<size_t>(frontier[cursor])]) {
        if (islands_[static_cast<size_t>(next)] >= 0) continue;
        islands_[static_cast<size_t>(next)] = label;
        frontier.push_back(next);
      }
    }
    ++label;
  }
  num_islands_ = label;
  island_epoch_ = epoch_;
  return islands_;
}

int ManetTopology::num_islands() const {
  island_labels();
  return num_islands_;
}

bool ManetTopology::SameIsland(int a, int b) const {
  HM_CHECK_GE(a, 0);
  HM_CHECK_LT(a, num_nodes());
  HM_CHECK_GE(b, 0);
  HM_CHECK_LT(b, num_nodes());
  const std::vector<int>& labels = island_labels();
  return labels[static_cast<size_t>(a)] == labels[static_cast<size_t>(b)];
}

int ManetTopology::CachedTreeCount() const {
  int fresh = 0;
  for (const SourceTree& tree : trees_) {
    if (tree.epoch == epoch_) ++fresh;
  }
  return fresh;
}

bool ManetTopology::connected() const {
  if (positions_.empty()) return false;
  return num_islands() == 1;
}

void ManetTopology::RandomWaypointStep(double max_step_m, Rng& rng) {
  HM_CHECK_GE(max_step_m, 0.0);
  for (size_t i = 0; i < positions_.size(); ++i) {
    Vector& pos = positions_[i];
    Vector& target = waypoints_[i];
    const double dist = vec::Distance(pos, target);
    if (dist <= max_step_m) {
      pos = target;
      target = {rng.Uniform(0.0, options_.field_size_m),
                rng.Uniform(0.0, options_.field_size_m)};
      continue;
    }
    for (size_t d = 0; d < 2; ++d) {
      pos[d] += (target[d] - pos[d]) / dist * max_step_m;
    }
  }
  UpdateGridAfterMove();
  RecomputeNeighborLists();
  ++epoch_;
}

}  // namespace hyperm::manet
