#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "vec/matrix.h"

namespace hyperm::cluster {

namespace internal {

size_t PickWeightedIndex(const std::vector<double>& weights, double target) {
  HM_CHECK(!weights.empty());
  size_t fallback = weights.size() - 1;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] > 0.0) fallback = i;
    target -= weights[i];
    if (target <= 0.0) return i;
  }
  return fallback;
}

}  // namespace internal

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Unit roundoff (2^-53): the relative error of one correctly rounded op.
constexpr double kUnitRoundoff = std::numeric_limits<double>::epsilon() / 2;
// Absolute slack, in distance units, for squared terms that underflow into
// subnormals (whose rounding error is absolute, not relative).
constexpr double kTinyDistance = 1e-150;

// Same operation order as vec::SquaredDistance (ascending j, diff*diff into a
// running sum) so row-major and Vector-based distances agree bit-for-bit.
// The norm-expansion trick (|p|^2 + |c|^2 - 2 p.c) would be faster still but
// rounds differently, so the speedup comes from pruning, not from changing
// the distance arithmetic. The batch kernels in vec/matrix.h keep the same
// per-row order, so SquaredDistanceBatch sweeps agree bit-for-bit too.
double RowSquaredDistance(const double* a, const double* b, size_t dim) {
  double sum = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    const double diff = a[j] - b[j];
    sum += diff * diff;
  }
  return sum;
}

// Working state shared by the naive and bounded kernels. Points and
// centroids live in contiguous row-major arrays so the inner loops stream
// memory instead of chasing one heap allocation per Vector.
struct LloydState {
  size_t n = 0;
  size_t dim = 0;
  int k = 0;
  std::vector<double> points;     // n rows
  std::vector<double> centroids;  // k rows
  std::vector<int> assignment;    // per point, -1 before the first pass
  std::vector<int> counts;        // per cluster, from the latest update step
  std::vector<double> best_sq;    // per point: sq dist to its assigned centroid
  std::vector<double> cent_sq;    // scratch: k distances for one batch sweep

  const double* point(size_t i) const { return points.data() + i * dim; }
  double* centroid(int c) { return centroids.data() + static_cast<size_t>(c) * dim; }
  const double* centroid(int c) const {
    return centroids.data() + static_cast<size_t>(c) * dim;
  }
  void AppendCentroid(size_t point_index) {
    const double* p = point(point_index);
    centroids.insert(centroids.end(), p, p + dim);
  }
};

// The tests built on centroid-to-centroid distances (the seeding skip and
// the half gaps) cost O(k²) distances per round, and every extra lower bound
// per point costs upkeep each round. They pay only when the points outnumber
// the centroids several times over and a full scan (k distances of `dim`
// terms) costs well above a bound update. Otherwise the seeding evaluates
// every point, the half gaps stay 0 (they settle nothing) and one group
// remains.
bool GapTestsPay(const LloydState& s) {
  const size_t k = static_cast<size_t>(s.k);
  return s.n >= 4 * k && k * s.dim >= 128;
}

// What the bounded kernel keeps from k-means++ seeding: every point's
// nearest seed (the naive kernel's first assignment) and, when the gap
// tests pay, the seeds' pairwise squared distances.
struct SeedSweep {
  std::vector<int> nearest;     // per point, lowest index on ties
  std::vector<double> near_sq;  // per point: squared distance to it
  std::vector<double> seed_sq;  // k*k, or empty
};

// k-means++ seeding over the flat point rows: first centroid uniform,
// subsequent ones proportional to the squared distance to the nearest
// centroid chosen so far — each round is one sweep against the newest
// centroid.
//
// With `sweep` non-null the rounds skip provably useless work. A point whose
// nearest seed a satisfies d(a, new) > 2·d(x, a) (with a rounding margin) is
// strictly closer to a than to the new seed by the triangle inequality, so
// the running minimum dist_sq would keep its value anyway: the distance is
// not evaluated, and the weights, totals and RNG draws stay bit-identical to
// the full sweep. One extra round against the last seed then leaves every
// point's nearest seed in `sweep`.
void SeedPlusPlus(LloydState& s, int k, Rng& rng, SeedSweep* sweep) {
  const size_t kk = static_cast<size_t>(k);
  const bool skip = sweep != nullptr && GapTestsPay(s);
  // Relative slack for the squared-distance skip test: each computed squared
  // distance is within (dim + 2) roundoffs of the exact one.
  const double rel = 8.0 * (static_cast<double>(s.dim) + 8.0) * kUnitRoundoff;
  std::vector<double> dist_sq(s.n, std::numeric_limits<double>::max());
  std::vector<double> last_sq(s.n);
  std::vector<size_t> open;  // points the skip test could not rule out
  if (sweep != nullptr) sweep->nearest.assign(s.n, 0);
  if (skip) {
    sweep->seed_sq.assign(kk * kk, 0.0);
    open.resize(s.n);
  }
  s.AppendCentroid(rng.NextIndex(s.n));
  // Round j sweeps seed j, then draws seed j + 1.
  const int rounds = sweep != nullptr ? k : k - 1;
  for (int j = 0; j < rounds; ++j) {
    const double* last = s.centroid(j);
    auto update = [&](size_t i, double sq) {
      if (sq < dist_sq[i]) {
        dist_sq[i] = sq;
        if (sweep != nullptr) sweep->nearest[i] = j;
      }
    };
    if (skip && j > 0) {
      double* row = sweep->seed_sq.data() + static_cast<size_t>(j) * kk;
      for (int a = 0; a < j; ++a) {
        row[a] = RowSquaredDistance(s.centroid(a), last, s.dim);
        sweep->seed_sq[static_cast<size_t>(a) * kk + static_cast<size_t>(j)] = row[a];
      }
      size_t num_open = 0;  // branch-free compaction
      for (size_t i = 0; i < s.n; ++i) {
        open[num_open] = i;
        num_open += !(4.0 * dist_sq[i] * (1.0 + rel) + kTinyDistance * kTinyDistance <
                      row[sweep->nearest[i]] * (1.0 - rel));
      }
      vec::SquaredDistanceGather(s.points.data(), s.dim, open.data(), num_open, last,
                                 s.dim, last_sq.data());
      for (size_t m = 0; m < num_open; ++m) update(open[m], last_sq[m]);
    } else {
      vec::SquaredDistanceBatch(s.points.data(), s.n, s.dim, last, s.dim,
                                last_sq.data());
      for (size_t i = 0; i < s.n; ++i) update(i, last_sq[i]);
    }
    if (j + 1 == k) break;
    double total = 0.0;
    for (size_t i = 0; i < s.n; ++i) total += dist_sq[i];
    if (total <= 0.0) {
      // All remaining points coincide with chosen centroids; duplicate one.
      s.AppendCentroid(rng.NextIndex(s.n));
      continue;
    }
    const double target = rng.NextDouble() * total;
    s.AppendCentroid(internal::PickWeightedIndex(dist_sq, target));
  }
  if (sweep != nullptr) sweep->near_sq = std::move(dist_sq);
}

void SeedUniform(LloydState& s, int k, Rng& rng) {
  // Sample k distinct indices via partial shuffle.
  std::vector<size_t> indices(s.n);
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  rng.Shuffle(indices);
  for (int i = 0; i < k; ++i) s.AppendCentroid(indices[static_cast<size_t>(i)]);
}

// Exact nearest centroid for point i: one batch sweep over the centroid
// rows, then an ascending scan with strict `<`, so the lowest index wins
// ties.
int NearestCentroid(LloydState& s, size_t i, double* best_sq_out) {
  vec::SquaredDistanceBatch(s.centroids.data(), static_cast<size_t>(s.k),
                            s.dim, s.point(i), s.dim, s.cent_sq.data());
  int best = 0;
  double best_sq = s.cent_sq[0];
  for (int c = 1; c < s.k; ++c) {
    const double sq = s.cent_sq[static_cast<size_t>(c)];
    if (sq < best_sq) {
      best_sq = sq;
      best = c;
    }
  }
  *best_sq_out = best_sq;
  return best;
}

// Full-scan assignment step: the reference kernel.
bool AssignNaive(LloydState& s) {
  bool changed = false;
  for (size_t i = 0; i < s.n; ++i) {
    const int best = NearestCentroid(s, i, &s.best_sq[i]);
    if (s.assignment[i] != best) {
      s.assignment[i] = best;
      changed = true;
    }
  }
  return changed;
}

// State of the exact bounded kernel (DESIGN.md §19). Centroids are split
// into t groups once, after seeding. Per point it keeps an upper bound u on
// the distance to the assigned centroid and, per group, a lower bound on the
// distance to every centroid of that group except the assigned one: O(n·t)
// doubles plus O(k·dim) per-centroid state, never O(n·k). (The k×k seed
// distances live only until the bounds are initialised.)
struct Bounds {
  size_t t = 0;
  std::vector<int> order;        // centroid ids grouped, ascending within a group
  std::vector<size_t> begin;     // t + 1 offsets into `order`
  std::vector<size_t> group_of;  // per centroid
  std::vector<double> grouped;   // centroid rows in `order` order
  std::vector<double> upper;     // n
  std::vector<double> lower;     // n * t
  std::vector<double> drift;     // per centroid: movement in the last update
  std::vector<double> group_drift;  // per group: max drift
  std::vector<double> half_gap;  // per centroid: half the distance to the nearest other
  bool gaps = false;             // GapTestsPay: half_gap is computed, not 0
  std::vector<char> dirty;       // per cluster: members changed since its sum
  std::vector<double> sq;        // scratch: k distances, in `order` order
  std::vector<char> scanned;     // scratch: t flags
  // Slack of the prune test; see Settled().
  double rel = 0.0;
  double abs = 0.0;
  double drift_total = 0.0;  // sum over updates of the largest drift
  int updates = 0;

  // True when a point whose distance to its centroid is at most `u` is
  // provably, after rounding, strictly closer to it than to any centroid at
  // distance at least `l`. Every bound is a sum or difference of computed
  // distances, each within (dim + 2) roundoffs of exact, and every update
  // adds one more rounding; so the combined error is at most
  // (dim + updates + 8)·eps·(3u + l + 2·drift_total). The test demands
  // eight times that, and near-ties fall through to the exact scan.
  bool Settled(double u, double l) const {
    return u * (1.0 + 3.0 * rel) + abs < l * (1.0 - rel);
  }
  void SetSlack(size_t dim) {
    rel = 8.0 * (static_cast<double>(dim) + updates + 8.0) * kUnitRoundoff;
    abs = 2.0 * rel * drift_total + kTinyDistance;
  }
};

// Group count: about k/8 groups (Yinyang's choice), at least min(k, 4).
size_t GroupCount(const LloydState& s) {
  if (!GapTestsPay(s)) return 1;
  return static_cast<size_t>(std::min(s.k, std::max(4, s.k / 8)));
}

// Splits the initial centroids into t groups by a few deterministic Lloyd
// rounds on the centroids themselves, started from the first t of them, and
// lays the ids out group by group. Grouping only decides how much work the
// bounds save, never a result; a group may end up empty.
void BuildGroups(const LloydState& s, Bounds& b) {
  const size_t k = static_cast<size_t>(s.k);
  b.t = GroupCount(s);
  b.group_of.assign(k, 0);
  if (b.t > 1) {
    std::vector<double> centers(s.centroids.begin(),
                                s.centroids.begin() + static_cast<std::ptrdiff_t>(b.t * s.dim));
    std::vector<double> sums(b.t * s.dim);
    std::vector<int> members(b.t);
    for (int round = 0; round < 5; ++round) {
      std::fill(sums.begin(), sums.end(), 0.0);
      std::fill(members.begin(), members.end(), 0);
      for (size_t c = 0; c < k; ++c) {
        const double* row = s.centroid(static_cast<int>(c));
        double best = kInf;
        for (size_t g = 0; g < b.t; ++g) {
          const double d = RowSquaredDistance(row, centers.data() + g * s.dim, s.dim);
          if (d < best) {
            best = d;
            b.group_of[c] = g;
          }
        }
        ++members[b.group_of[c]];
        double* sum = sums.data() + b.group_of[c] * s.dim;
        for (size_t j = 0; j < s.dim; ++j) sum[j] += row[j];
      }
      for (size_t g = 0; g < b.t; ++g) {
        if (members[g] == 0) continue;
        for (size_t j = 0; j < s.dim; ++j) {
          centers[g * s.dim + j] = sums[g * s.dim + j] / members[g];
        }
      }
    }
  }
  b.begin.assign(b.t + 1, 0);
  b.order.clear();
  for (size_t g = 0; g < b.t; ++g) {
    for (size_t c = 0; c < k; ++c) {
      if (b.group_of[c] == g) b.order.push_back(static_cast<int>(c));
    }
    b.begin[g + 1] = b.order.size();
  }
}

// Refreshes the centroid-derived state after the centroids changed: the
// grouped row copy, the half gaps, and — when `moved` — the per-group drift
// and the slack. `pair_sq`, when non-null, holds the k×k squared distances
// between the current centroids already.
void RefreshCentroids(const LloydState& s, Bounds& b, const double* pair_sq,
                      bool moved) {
  const size_t k = static_cast<size_t>(s.k);
  for (size_t p = 0; p < k; ++p) {
    std::copy_n(s.centroid(b.order[p]), s.dim, b.grouped.data() + p * s.dim);
  }
  std::fill(b.half_gap.begin(), b.half_gap.end(), b.gaps ? kInf : 0.0);
  for (size_t c = 0; c < k && b.gaps; ++c) {
    for (size_t o = c + 1; o < k; ++o) {
      const double sq =
          pair_sq != nullptr
              ? pair_sq[c * k + o]
              : RowSquaredDistance(s.centroid(static_cast<int>(c)),
                                   s.centroid(static_cast<int>(o)), s.dim);
      b.half_gap[c] = std::min(b.half_gap[c], sq);
      b.half_gap[o] = std::min(b.half_gap[o], sq);
    }
  }
  for (double& h : b.half_gap) h = 0.5 * std::sqrt(h);
  if (moved) {
    std::fill(b.group_drift.begin(), b.group_drift.end(), 0.0);
    double max_drift = 0.0;
    for (size_t c = 0; c < k; ++c) {
      double& g = b.group_drift[b.group_of[c]];
      g = std::max(g, b.drift[c]);
      max_drift = std::max(max_drift, b.drift[c]);
    }
    b.drift_total += max_drift;
    ++b.updates;
  }
  b.SetSlack(s.dim);
}

// Allocates the bound state. With a k-means++ `sweep` the first assignment
// is already known exactly (each point's nearest seed); its group lower
// bounds come from the triangle inequality d(x, c) >= d(a, c) - d(x, a)
// over the seeds' pairwise distances. Without one, every bound is empty and
// the first assignment step scans everything.
void InitBounds(LloydState& s, Bounds& b, const SeedSweep* sweep) {
  const size_t k = static_cast<size_t>(s.k);
  BuildGroups(s, b);
  const size_t t = b.t;
  b.grouped.resize(k * s.dim);
  b.half_gap.resize(k);
  b.drift.assign(k, 0.0);
  b.group_drift.assign(t, 0.0);
  b.dirty.assign(k, 1);
  b.sq.resize(k);
  b.scanned.resize(t);
  b.upper.assign(s.n, kInf);
  b.lower.assign(s.n * t, 0.0);
  b.gaps = GapTestsPay(s);
  const bool have_pairs = sweep != nullptr && b.gaps;
  RefreshCentroids(s, b, have_pairs ? sweep->seed_sq.data() : nullptr,
                   /*moved=*/false);
  if (sweep == nullptr) return;
  for (size_t i = 0; i < s.n; ++i) {
    s.assignment[i] = sweep->nearest[i];
    b.upper[i] = std::sqrt(sweep->near_sq[i]);
  }
  if (!have_pairs) return;  // lower bounds stay 0
  // nearest[a * t + g]: distance from seed a to the nearest other seed of g.
  std::vector<double> nearest(k * t, kInf);
  for (size_t a = 0; a < k; ++a) {
    for (size_t c = 0; c < k; ++c) {
      if (c == a) continue;
      double& m = nearest[a * t + b.group_of[c]];
      m = std::min(m, sweep->seed_sq[a * k + c]);
    }
  }
  for (double& m : nearest) m = std::sqrt(m);
  for (size_t i = 0; i < s.n; ++i) {
    const double* from = nearest.data() + static_cast<size_t>(sweep->nearest[i]) * t;
    double* lower = b.lower.data() + i * t;
    for (size_t g = 0; g < t; ++g) lower[g] = std::max(0.0, from[g] - b.upper[i]);
  }
}

// Bounded assignment step; same result as AssignNaive. Per point, after
// moving the bounds by the last update's drift:
//  1. skip when u < max(min group bound, half gap of the assigned centroid);
//  2. else tighten u to the exact distance and retest;
//  3. else scan, with exact distances, only the groups whose lower bound
//     the best candidate so far does not beat, and take the lowest-index
//     minimum over the candidates. Every centroid left out is provably
//     strictly farther than the winner, so it could neither win nor tie.
// Then the scanned groups' bounds become exact again. s.best_sq is not kept
// up to date here (the reseed path recomputes it).
bool AssignBounded(LloydState& s, Bounds& b) {
  const size_t t = b.t;
  bool changed = false;
  for (size_t i = 0; i < s.n; ++i) {
    const double* x = s.point(i);
    double* lower = b.lower.data() + i * t;
    double glb = kInf;
    for (size_t g = 0; g < t; ++g) {
      const double l = lower[g] - b.group_drift[g];
      lower[g] = l > 0.0 ? l : 0.0;
      glb = std::min(glb, lower[g]);
    }
    const int a = s.assignment[i];
    int best = a;
    double best_sq = kInf;
    double best_d = kInf;
    if (a >= 0) {
      const double u = b.upper[i] + b.drift[static_cast<size_t>(a)];
      const double bound = std::max(glb, b.half_gap[static_cast<size_t>(a)]);
      if (b.Settled(u, bound)) {
        b.upper[i] = u;
        continue;
      }
      best_sq = RowSquaredDistance(x, s.centroid(a), s.dim);
      best_d = std::sqrt(best_sq);
      b.upper[i] = best_d;
      if (b.Settled(best_d, bound)) continue;
    }
    const double a_d = best_d;
    for (size_t g = 0; g < t; ++g) {
      b.scanned[g] = !b.Settled(best_d, lower[g]);
      if (!b.scanned[g]) continue;
      const size_t from = b.begin[g], to = b.begin[g + 1];
      vec::SquaredDistanceBatch(b.grouped.data() + from * s.dim, to - from, s.dim,
                                x, s.dim, b.sq.data() + from);
      for (size_t p = from; p < to; ++p) {
        const int c = b.order[p];
        const double v = b.sq[p];
        if (best < 0 || v < best_sq || (v == best_sq && c < best)) {
          best = c;
          best_sq = v;
        }
      }
      best_d = std::sqrt(best_sq);
    }
    for (size_t g = 0; g < t; ++g) {
      if (!b.scanned[g]) continue;
      double m = kInf;
      for (size_t p = b.begin[g]; p < b.begin[g + 1]; ++p) {
        if (b.order[p] != best) m = std::min(m, b.sq[p]);
      }
      lower[g] = std::sqrt(m);
    }
    b.upper[i] = best_d;
    if (best != a) {
      if (a >= 0) {
        // The old centroid is now one of "the others" of its group.
        const size_t ga = b.group_of[static_cast<size_t>(a)];
        if (!b.scanned[ga]) lower[ga] = std::min(lower[ga], a_d);
        b.dirty[static_cast<size_t>(a)] = 1;
      }
      b.dirty[static_cast<size_t>(best)] = 1;
      s.assignment[i] = best;
      changed = true;
    }
  }
  return changed;
}

// Scatter-accumulates per-cluster coordinate sums and counts over i
// ascending — the same accumulation order as summing member Vectors. With
// `dirty`, only flagged clusters are re-summed (and the flags cleared): a
// cluster whose members did not change would repeat the same additions in
// the same order, so its previous sum is already bit-identical.
void AccumulateSums(LloydState& s, std::vector<double>& sums,
                    std::vector<char>* dirty) {
  std::fill(s.counts.begin(), s.counts.end(), 0);
  for (int c = 0; c < s.k; ++c) {
    if (dirty != nullptr && !(*dirty)[static_cast<size_t>(c)]) continue;
    std::fill_n(sums.data() + static_cast<size_t>(c) * s.dim, s.dim, 0.0);
  }
  for (size_t i = 0; i < s.n; ++i) {
    const size_t c = static_cast<size_t>(s.assignment[i]);
    ++s.counts[c];
    if (dirty != nullptr && !(*dirty)[c]) continue;
    const double* p = s.point(i);
    double* sum = sums.data() + c * s.dim;
    for (size_t j = 0; j < s.dim; ++j) sum[j] += p[j];
  }
  if (dirty != nullptr) std::fill(dirty->begin(), dirty->end(), 0);
}

// Reseeds each empty cluster with the point currently farthest from its
// (pre-update) centroid, among points whose donor cluster keeps at least one
// member. Requires s.best_sq to hold exact distances to the assigned
// centroids — O(n) per empty cluster instead of the O(n*k) recompute the
// first version of this loop did. Both clusters' sums are patched in place,
// so with `dirty` they are flagged for a full re-sum at the next
// accumulation. Returns the reseeded points.
std::vector<size_t> ReseedEmptyClusters(LloydState& s, std::vector<double>& sums,
                                        std::vector<char>* dirty) {
  std::vector<size_t> moved;
  for (int c = 0; c < s.k; ++c) {
    if (s.counts[static_cast<size_t>(c)] > 0) continue;
    size_t farthest = 0;
    double farthest_sq = -1.0;
    for (size_t i = 0; i < s.n; ++i) {
      if (s.best_sq[i] > farthest_sq &&
          s.counts[static_cast<size_t>(s.assignment[i])] > 1) {
        farthest_sq = s.best_sq[i];
        farthest = i;
      }
    }
    if (farthest_sq < 0.0) continue;  // every cluster is a singleton
    const double* p = s.point(farthest);
    double* gain = sums.data() + static_cast<size_t>(c) * s.dim;
    double* lose = sums.data() + static_cast<size_t>(s.assignment[farthest]) * s.dim;
    for (size_t j = 0; j < s.dim; ++j) {
      gain[j] += p[j];
      lose[j] -= p[j];
    }
    --s.counts[static_cast<size_t>(s.assignment[farthest])];
    if (dirty != nullptr) {
      (*dirty)[static_cast<size_t>(s.assignment[farthest])] = 1;
      (*dirty)[static_cast<size_t>(c)] = 1;
    }
    s.assignment[farthest] = c;
    s.counts[static_cast<size_t>(c)] = 1;
    // Distance to the stale centroid of c, so a later empty cluster in this
    // same pass sees the value an exact recompute would.
    s.best_sq[farthest] = RowSquaredDistance(p, s.centroid(c), s.dim);
    moved.push_back(farthest);
  }
  return moved;
}

// Moves each non-empty centroid to its members' mean. Returns the total
// squared movement; when `drift` is non-null, fills it with each centroid's
// movement distance (0 for empty clusters) for the bound updates.
double UpdateCentroids(LloydState& s, const std::vector<double>& sums,
                       std::vector<double>* drift) {
  double movement_sq = 0.0;
  for (int c = 0; c < s.k; ++c) {
    if (s.counts[static_cast<size_t>(c)] == 0) {
      if (drift != nullptr) (*drift)[static_cast<size_t>(c)] = 0.0;
      continue;
    }
    const double inv = 1.0 / s.counts[static_cast<size_t>(c)];
    const double* sum = sums.data() + static_cast<size_t>(c) * s.dim;
    double* centroid = s.centroid(c);
    double move_sq = 0.0;
    for (size_t j = 0; j < s.dim; ++j) {
      const double next = sum[j] * inv;
      const double diff = next - centroid[j];
      move_sq += diff * diff;
      centroid[j] = next;
    }
    movement_sq += move_sq;
    if (drift != nullptr) (*drift)[static_cast<size_t>(c)] = std::sqrt(move_sq);
  }
  return movement_sq;
}

}  // namespace

Result<KMeansResult> KMeans(const std::vector<Vector>& points,
                            const KMeansOptions& options, Rng& rng) {
  if (points.empty()) return InvalidArgumentError("KMeans: no points");
  if (options.k < 1) return InvalidArgumentError("KMeans: k must be >= 1");
  const int k = std::min<int>(options.k, static_cast<int>(points.size()));
  const size_t dim = points.front().size();
  for (const Vector& p : points) {
    if (p.size() != dim) return InvalidArgumentError("KMeans: inconsistent dimensionality");
    if (!vec::AllFinite(p)) return InvalidArgumentError("KMeans: non-finite point");
  }
  const bool bounded = options.pruned;

  LloydState s;
  s.n = points.size();
  s.dim = dim;
  s.k = k;
  s.points.reserve(s.n * dim);
  for (const Vector& p : points) s.points.insert(s.points.end(), p.begin(), p.end());
  s.centroids.reserve(static_cast<size_t>(k) * dim);
  SeedSweep sweep;
  const bool seeded = bounded && options.plus_plus_seeding;
  if (options.plus_plus_seeding) {
    SeedPlusPlus(s, k, rng, seeded ? &sweep : nullptr);
  } else {
    SeedUniform(s, k, rng);
  }
  s.assignment.assign(s.n, -1);
  s.counts.assign(static_cast<size_t>(k), 0);
  s.best_sq.assign(s.n, 0.0);
  if (!bounded) s.cent_sq.assign(static_cast<size_t>(k), 0.0);

  std::vector<double> sums(static_cast<size_t>(k) * dim);
  Bounds b;
  if (bounded) InitBounds(s, b, seeded ? &sweep : nullptr);
  sweep = SeedSweep();
  std::vector<char>* dirty = bounded ? &b.dirty : nullptr;

  int iterations = 0;
  int reseeds = 0;
  for (; iterations < options.max_iterations; ++iterations) {
    // With k-means++ seeding the bounded kernel's first assignment came out
    // of the seeding sweep.
    bool changed = !bounded ? AssignNaive(s)
                   : (seeded && iterations == 0) ? true
                                                 : AssignBounded(s, b);
    AccumulateSums(s, sums, dirty);

    bool any_empty = false;
    for (int c = 0; c < k; ++c) any_empty = any_empty || s.counts[static_cast<size_t>(c)] == 0;
    if (any_empty) {
      if (bounded) {
        // Bounded skips leave best_sq stale; the reseed needs exact values.
        for (size_t i = 0; i < s.n; ++i) {
          s.best_sq[i] = RowSquaredDistance(s.point(i), s.centroid(s.assignment[i]), dim);
        }
      }
      const std::vector<size_t> moved = ReseedEmptyClusters(s, sums, dirty);
      reseeds += static_cast<int>(moved.size());
      changed = changed || !moved.empty();
      if (bounded) {
        // A reseeded point changed cluster outside the assignment step, so
        // its bounds are void; the next step rescans it.
        for (size_t i : moved) {
          b.upper[i] = kInf;
          std::fill_n(b.lower.data() + i * b.t, b.t, 0.0);
        }
      }
    }

    const double movement_sq = UpdateCentroids(s, sums, bounded ? &b.drift : nullptr);
    if (bounded) RefreshCentroids(s, b, nullptr, /*moved=*/true);

    if (!changed || movement_sq < options.tolerance) {
      ++iterations;
      break;
    }
  }

  // Final tight assignment against the converged centroids (keeps the
  // invariant "every point belongs to its nearest returned centroid"); the
  // bounded kernel's bounds are still valid, so it is one more bounded step.
  if (bounded) {
    AssignBounded(s, b);
  } else {
    for (size_t i = 0; i < s.n; ++i) s.assignment[i] = NearestCentroid(s, i, &s.best_sq[i]);
  }

  // Build compacted output (drop empty clusters, remap assignments). The
  // summaries are computed straight from the final assignment — no deep copy
  // of points into per-cluster member lists.
  AccumulateSums(s, sums, dirty);
  KMeansResult result;
  result.clusters.reserve(static_cast<size_t>(k));
  std::vector<int> remap(static_cast<size_t>(k), -1);
  for (int c = 0; c < k; ++c) {
    if (s.counts[static_cast<size_t>(c)] == 0) continue;
    remap[static_cast<size_t>(c)] = static_cast<int>(result.clusters.size());
    SphereCluster cluster;
    cluster.count = s.counts[static_cast<size_t>(c)];
    const double inv = 1.0 / s.counts[static_cast<size_t>(c)];
    const double* sum = sums.data() + static_cast<size_t>(c) * dim;
    cluster.centroid.resize(dim);
    for (size_t j = 0; j < dim; ++j) cluster.centroid[j] = sum[j] * inv;
    result.clusters.push_back(std::move(cluster));
  }
  std::vector<double> max_sq(result.clusters.size(), 0.0);
  result.assignments.resize(s.n);
  result.inertia = 0.0;
  for (size_t i = 0; i < s.n; ++i) {
    const int c = remap[static_cast<size_t>(s.assignment[i])];
    HM_CHECK_GE(c, 0);
    result.assignments[i] = c;
    const double sq = RowSquaredDistance(
        s.point(i), result.clusters[static_cast<size_t>(c)].centroid.data(), dim);
    max_sq[static_cast<size_t>(c)] = std::fmax(max_sq[static_cast<size_t>(c)], sq);
    result.inertia += sq;
  }
  for (size_t c = 0; c < result.clusters.size(); ++c) {
    result.clusters[c].radius = std::sqrt(max_sq[c]);
  }
  result.iterations = iterations;
  result.reseeds = reseeds;
  return result;
}

}  // namespace hyperm::cluster
