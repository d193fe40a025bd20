// Two-stage query path: plan, then execute.
//
// The QueryPlanner *compiles* a range or k-NN query into per-level probe
// descriptors — the target key sphere (Theorem 4.1 thresholds for range
// queries, the Fig. 5 expanding-probe start for k-NN), the score policy and
// the partition-tolerance budgets — using only the wavelet machinery, so the
// QueryExecutor that *runs* the plan needs none of it. The executor runs the
// probes over the overlays, classifies each level's fate on the delivery
// outcome lattice
//
//     kDelivered  — the probe completed on the primary greedy path
//     kDetoured   — it completed, but only via alternate-neighbour routing
//     kDeferred   — it died crossing a partition / radio island; a heal
//                   window may fix it (re-issue rounds retry these)
//     kLost       — it died to loss or a crashed peer; retrying now is
//                   hopeless and the level's matches are gone
//
// and, when a heal window and re-issue budget are configured, advances the
// per-network simulator past the window and re-probes the deferred levels so
// their matches join the aggregation instead of silently pruning every
// candidate under the min-score policy. Each level keeps its match records
// and its score sphere; once every level has settled, one ScoreLevels pass
// turns them into the plan's peer ranking (Eq. 1, then the plan's policy).
//
// Determinism: planning is pure math and execution runs every probe in level
// order on the calling thread, so each transport's message stream is
// consumed in the same order at any pool size. The paper's levels are probed
// "in parallel" in simulated time only: a query's latency is the slowest
// level's. Without faults or a channel, and with zeroed budgets, the
// results are bit-identical to the historical query path.

#ifndef HYPERM_HYPERM_QUERY_PLAN_H_
#define HYPERM_HYPERM_QUERY_PLAN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "can/can_overlay.h"
#include "geom/radius_estimator.h"
#include "geom/shapes.h"
#include "hyperm/key_mapper.h"
#include "hyperm/score.h"
#include "overlay/overlay.h"

namespace hyperm::backbone {
class BackboneManager;  // query_plan.cc includes the real header
}
#include "sim/simulator.h"
#include "wavelet/level.h"
#include "wavelet/transform.h"

namespace hyperm::core {

/// Final fate of one level probe (see file comment for the lattice).
enum class LevelDelivery {
  kDelivered = 0,
  kDetoured,
  kDeferred,
  kLost,
};

/// Human-readable name, for logs and test diagnostics.
const char* LevelDeliveryName(LevelDelivery delivery);

/// Partition-tolerance knobs of the planned query path (one member of
/// HyperMOptions). All zero by default — the planner then reproduces the
/// historical layer-dropping behavior bit for bit.
struct QueryPlanOptions {
  /// k-alternative greedy routing budget per query route (see
  /// can::CanOverlay::set_route_detours). 0 = classic single-path walks.
  int route_detours = 0;

  /// Re-issue rounds for deferred levels. Each round waits heal_window_ms of
  /// simulated time (mobility ticks, partition windows and republishes run
  /// meanwhile) and re-probes every level still deferred. Without faults or
  /// a channel no level is deferred, so there it never spends a round.
  int reissue_budget = 0;

  /// Simulated wait before each re-issue round. 0 disables re-issue.
  double heal_window_ms = 0.0;
};

/// One compiled per-level probe.
struct LevelProbe {
  int layer = 0;      ///< level index == overlay index
  int layer_dim = 0;  ///< subspace dimensionality

  /// Range probes: the Theorem 4.1 threshold sphere in key space (epsilon
  /// scaled into the level, mapped, plus the boundary FP slack). Expanding
  /// probes: center is the query's key projection, radius the initial probe
  /// radius of the Fig. 5 widening loop.
  geom::Sphere key_sphere;

  bool expanding = false;        ///< true: k-NN expanding probe + Eq. 8
  int knn_k = 0;                 ///< k of the expanding probe
  double max_probe_radius = 0.0; ///< widening cap (the key cube diagonal)
};

/// A compiled query: the per-level probes plus everything the executor needs
/// to classify, retry and aggregate them.
struct QueryPlan {
  std::vector<LevelProbe> probes;
  ScorePolicy score_policy = ScorePolicy::kMin;
  int reissue_budget = 0;
  double heal_window_ms = 0.0;
};

/// Canonical signature of a compiled plan: a 64-bit FNV-1a hash over the
/// probes' exact key spheres (raw double bits), expanding/k parameters and
/// the score policy. Two queries whose compiled plans hash equal issue the
/// same overlay probes and aggregate them the same way, so — at a fixed
/// summary state — they return the same answer. The serving layer's
/// query-result cache keys on this.
uint64_t PlanSignature(const QueryPlan& plan);

/// Serving-layer seam: a mined (query cell -> entry node) shortcut table the
/// executor consults before the greedy walk of a non-expanding range probe.
/// Implemented by serve::ShortcutMiner; hyperm only sees this interface
/// (same dependency-breaking pattern as the BackboneManager hook above).
/// Single-threaded: the executor consults it from the calling thread.
class ShortcutProvider {
 public:
  virtual ~ShortcutProvider() = default;

  /// Mined entry-node hint for this probe, or overlay::kInvalidNode when the
  /// association is cold or stale.
  virtual overlay::NodeId EntryHint(int layer,
                                    const geom::Sphere& key_sphere) = 0;

  /// Feeds one finished range probe back to the miner. `entry_node` is the
  /// node the zone flood started from (kInvalidNode when the probe died);
  /// `via_shortcut` tells the miner its own hint carried the probe, so a
  /// failure demotes the association instead of merely not promoting it.
  virtual void Observe(int layer, const geom::Sphere& key_sphere,
                       overlay::NodeId entry_node, bool delivered,
                       bool via_shortcut) = 0;
};

/// Execution outcome of one level probe (one slot per probe, drained in level
/// order by the caller).
struct LevelOutcome {
  Status status = OkStatus();
  LevelDelivery delivery = LevelDelivery::kDelivered;

  /// The level's match records and score sphere radius: the probe's key
  /// sphere for range probes, the Eq. 8 radius for expanding ones (every
  /// record's distance is from the key sphere's center either way).
  LevelMatches matched;
  double level_radius = 0.0;            ///< k-NN only: Eq. 8 estimate
  geom::RadiusSolveStats radius_solve;  ///< k-NN only: the Eq. 8 solve's cost
  int routing_hops = 0;
  int flood_hops = 0;
  int detours = 0;   ///< alternate-neighbour forwards the level's routes took
  int reissues = 0;  ///< re-issue rounds this level went through
  double latency_ms = 0.0;  ///< simulated; includes heal-window waits
};

/// What QueryExecutor::Execute returns: every level's outcome and the one
/// scoring pass over all of them.
struct QueryOutcome {
  std::vector<LevelOutcome> levels;  ///< one per probe, in probe order
  std::vector<PeerScore> scores;     ///< ScoreLevels under the plan's policy
  int64_t scored_matches = 0;        ///< Eq. 1 evaluations behind `scores`
};

/// The levels' match sets, in level order, as ScoreLevels takes them.
std::vector<const LevelMatches*> MatchedLevels(
    const std::vector<LevelOutcome>& levels);

/// Compiles queries into QueryPlans. Cheap to construct per query; borrows
/// the level/mapper tables (must outlive the planner).
class QueryPlanner {
 public:
  QueryPlanner(const std::vector<wavelet::Level>* levels,
               const std::vector<KeyMapper>* mappers,
               wavelet::WaveletKind wavelet_kind, int num_detail_levels,
               ScorePolicy score_policy, const QueryPlanOptions& options);

  /// Range query: one threshold probe per level (Theorem 4.1 — the level
  /// epsilon guarantees no false dismissals). `query` must already be
  /// validated against the data dimensionality.
  QueryPlan PlanRange(const Vector& query, double epsilon) const;

  /// k-NN query: one expanding probe per level (Fig. 5 steps 1–3).
  QueryPlan PlanKnn(const Vector& query, int k) const;

 private:
  QueryPlan NewPlan() const;

  const std::vector<wavelet::Level>* levels_;  // not owned
  const std::vector<KeyMapper>* mappers_;      // not owned
  wavelet::WaveletKind wavelet_kind_;
  int num_detail_levels_;
  ScorePolicy score_policy_;
  QueryPlanOptions options_;
};

/// Runs a QueryPlan over the per-level overlays. Borrows everything; the
/// overlays and simulator must outlive the executor.
class QueryExecutor {
 public:
  /// `sim` is the network's clock: heal-window re-issue rounds advance it.
  /// `backbone`, when non-null, serves non-expanding range probes
  /// backbone-first (digest-pruned CDS walk) with full CAN probing as the
  /// fail-soft fallback; expanding (k-NN) probes always take the CAN path.
  /// `shortcuts`, when non-null, offers mined entry hints to non-expanding
  /// range probes — a stale hint costs its airtime and the probe re-runs on
  /// the plain greedy walk, so recall never depends on the miner's state.
  QueryExecutor(std::vector<std::unique_ptr<can::CanOverlay>>* overlays,
                sim::Simulator* sim,
                backbone::BackboneManager* backbone = nullptr,
                ShortcutProvider* shortcuts = nullptr);

  /// Executes every probe of `plan` from `querying_peer` in level order on
  /// the calling thread, then re-issues deferred levels for up to
  /// plan.reissue_budget rounds of plan.heal_window_ms each, then scores
  /// every level's matches once under plan.score_policy. Level outcomes are
  /// indexed by probe order; a level recovered by a re-issue ends
  /// kDelivered/kDetoured with its reissues count recording the rounds it
  /// took. Every probe run, re-issues included, is one query/layerN span; a
  /// backbone-served plan is one query/layers span for the walk. The scoring
  /// pass runs in the caller's span, outside every level span.
  QueryOutcome Execute(const QueryPlan& plan, int querying_peer);

 private:
  /// Runs one probe into `out` (fresh slot).
  void RunProbe(const LevelProbe& probe, int querying_peer, LevelOutcome* out);

  /// Folds a re-issue round's outcome into the level's cumulative one.
  static void MergeReissue(LevelOutcome&& retry, double heal_wait_ms,
                           LevelOutcome* out);

  std::vector<std::unique_ptr<can::CanOverlay>>* overlays_;  // not owned
  sim::Simulator* sim_;                                      // not owned
  backbone::BackboneManager* backbone_;                      // not owned, may be null
  ShortcutProvider* shortcuts_;                              // not owned, may be null
};

}  // namespace hyperm::core

#endif  // HYPERM_HYPERM_QUERY_PLAN_H_
