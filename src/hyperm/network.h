// HyperMNetwork: the Hyper-M system (Sections 3–4).
//
// Orchestrates the full pipeline of Fig. 2 over a simulated P2P network:
//
//   i1  every peer decomposes its items with the Haar DWT,
//   i2  each wavelet subspace is clustered independently with k-means,
//   i3  the cluster spheres are published into one overlay per subspace,
//
// and the two-phase retrieval of Fig. 3: score peers from published
// summaries (Eq. 1, min-score aggregation), then fetch actual items from
// the selected peers' local stores. Range queries follow Theorem 4.1's
// per-level thresholds (no false dismissals); k-NN uses the Fig. 5
// heuristic with the Eq. 8 radius estimator.
//
// Every network owns one sim::Simulator, whatever the transport: soft state,
// heal-window re-issue, series sampling and the serving layer all run on its
// clock. Only Build fans work out to the thread pool; queries run on the
// calling thread, their level probes "in parallel" in simulated time only
// (a query's latency is the slowest level's). Pool tasks are pure: a task
// reads shared inputs and writes only its own slot, and every effect —
// overlay inserts, cluster ids, traffic, metrics, spans, events — happens
// at the ordered drain on the calling thread (DESIGN.md §8).

#ifndef HYPERM_HYPERM_NETWORK_H_
#define HYPERM_HYPERM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "backbone/manager.h"
#include "can/can_overlay.h"
#include "channel/mobility.h"
#include "channel/radio_channel.h"
#include "cluster/kmeans.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "data/peer_assignment.h"
#include "hyperm/key_mapper.h"
#include "hyperm/peer.h"
#include "hyperm/query_plan.h"
#include "hyperm/score.h"
#include "net/fault_plan.h"
#include "net/transport.h"
#include "overlay/overlay.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "wavelet/level.h"
#include "wavelet/transform.h"

namespace hyperm::core {

/// Configuration of a Hyper-M deployment.
struct HyperMOptions {
  int num_layers = 4;          ///< overlays used: A, D_0, .., D_{num_layers-2}
  int clusters_per_peer = 10;  ///< K_p, identical on every peer (Section 5.1)
  ScorePolicy score_policy = ScorePolicy::kMin;
  wavelet::WaveletKind wavelet_kind = wavelet::WaveletKind::kHaarAveraging;
  bool replicate_spheres = true;  ///< false recreates the Fig. 6 failure mode
                                  ///< (ablation only; breaks the range-query
                                  ///< no-false-dismissal guarantee)
  /// Pool lanes for the Build fan-outs (per-peer decomposition, per
  /// (peer, layer) k-means): 0 picks ThreadPool::DefaultNumThreads()
  /// (hardware concurrency), 1 runs every fan-out inline on the calling
  /// thread. Queries always run on the calling thread. Results are
  /// bit-identical at any value — per-task RNG streams are derived from
  /// (seed, peer, layer), never from scheduling order.
  int num_threads = 0;

  /// Transport configuration. All overlay and retrieve traffic goes through
  /// one net::UnreliableTransport: the fault model (loss, crash/rejoin,
  /// partitions) with link-level retries. The default empty fault plan
  /// delivers every message on its first attempt. Soft state
  /// (summary_ttl_ms, republish_period_ms) runs on the network's simulator.
  /// net.unreliable is inert (see net::NetOptions).
  net::NetOptions net;

  /// Physical radio substrate. When channel.enabled, overlay hops ride
  /// queued multi-hop radio paths over a mobile unit-disk topology and radio
  /// islands make peers unreachable; when disabled (default) the transport
  /// keeps the free-channel LinkModel.
  channel::ChannelOptions channel;

  /// Partition-tolerant query planning (detour routing, heal-time re-issue).
  /// All-zero by default, which reproduces the historical query path bit for
  /// bit. Without faults or a channel no level is ever deferred, so a
  /// re-issue budget never spends a round.
  QueryPlanOptions plan;

  /// Supernode backbone (requires channel.enabled; Build rejects it
  /// otherwise): CDS election over the radio graph, per-domain Bloom
  /// digests, and a backbone-first stage for non-expanding range probes.
  /// Disabled by default, in which case nothing backbone-related is
  /// constructed and the whole pipeline is bit-identical to a backbone-less
  /// build.
  backbone::BackboneOptions backbone;

  /// Flight-recorder time-series sampling period (simulated ms). When > 0, a
  /// self-rescheduling probe samples queue occupancy
  /// (probe.busy_nodes), in-flight queries (probe.inflight_queries) and the
  /// live island count (probe.islands) into the global obs::EventLog's ring
  /// buffers every period. 0 (default) schedules nothing — zero overhead and
  /// the historical event-queue contents are preserved bit for bit.
  double trace_series_period_ms = 0.0;
};

/// Traffic/effort account of one range query.
struct RangeQueryInfo {
  int overlay_routing_hops = 0;  ///< greedy routing in all layers
  int overlay_flood_hops = 0;    ///< zone flooding in all layers
  int candidate_peers = 0;       ///< peers with a positive aggregated score
  int peers_contacted = 0;       ///< peers actually asked for items
  int layers_lost = 0;           ///< layer lookups that never answered, even
                                 ///< after any re-issue rounds (deferred+lost)
  int layers_detoured = 0;       ///< layers answered only via detour routing
  int layers_deferred = 0;       ///< layers deferred at least once (partition
                                 ///< or radio island on the route)
  int reissues = 0;              ///< re-issue probes sent across all layers
  double latency_ms = 0.0;       ///< simulated end-to-end latency (layers in
                                 ///< parallel, slowest branch wins; re-issued
                                 ///< layers add their heal-window waits)

  /// Final per-level fate, indexed by layer (empty if the query failed before
  /// execution).
  std::vector<LevelDelivery> level_outcomes;
};

/// Soft-state bookkeeping, deterministic and independent of the obs layer
/// (the equivalent net.* obs counters mirror these).
struct SoftStateCounters {
  uint64_t crashes = 0;            ///< peer crash events applied
  uint64_t rejoins = 0;            ///< peer rejoin events applied
  uint64_t summaries_lost = 0;     ///< stored summaries wiped by crashes
  uint64_t summaries_expired = 0;  ///< stored summaries removed by TTL sweeps
  uint64_t republishes = 0;        ///< per-peer republish rounds completed
  uint64_t inserts_lost = 0;       ///< publications that never reached their owner
  uint64_t retrieves_lost = 0;     ///< item fetches lost (request or response)
};

/// Traffic/effort account of one k-NN query.
struct KnnQueryInfo {
  RangeQueryInfo range;                ///< per-level probing + final queries
  std::vector<double> level_radii;     ///< estimated eps per layer (key space)
  int64_t items_requested = 0;         ///< sum of no_items_p over peers
};

/// Options of the Fig. 5 k-NN heuristic.
struct KnnOptions {
  double c = 1.5;           ///< the paper's C knob: items requested = C*k*share
  int max_peers = 1 << 20;  ///< optional cap on peers contacted (>= 1)
  bool truncate_to_k = false;  ///< return only the k best fetched items
                               ///< (raises precision, caps recall at the
                               ///< fetched set's coverage)
};

/// A deployed Hyper-M network over a dataset.
class HyperMNetwork {
 public:
  /// Builds the overlays and publishes every peer's summaries.
  ///
  /// `assignment[p]` lists dataset indices stored at peer p (see
  /// data::AssignByInterest). The dataset dimensionality must be a power of
  /// two (PadToPowerOfTwo the data otherwise). Items are copied into the
  /// peers' local stores; the dataset need not outlive the network. All
  /// traffic is recorded in stats(). A dataset holding a NaN or infinite
  /// value is rejected with InvalidArgument.
  static Result<std::unique_ptr<HyperMNetwork>> Build(
      const data::Dataset& dataset, const data::PeerAssignment& assignment,
      const HyperMOptions& options, Rng& rng);

  // Queries -----------------------------------------------------------------

  /// Scores all peers against a range query (phase 1 of Fig. 3): per-layer
  /// overlay range queries with the Theorem 4.1 thresholds, Eq. 1 scoring,
  /// aggregation per the configured policy. Sorted descending. A query or
  /// epsilon that is NaN or infinite is rejected with InvalidArgument.
  Result<std::vector<PeerScore>> ScorePeers(const Vector& query, double epsilon,
                                            int querying_peer,
                                            RangeQueryInfo* info = nullptr);

  /// Full range query: scores peers, contacts the top `max_peers_contacted`
  /// (all candidates if negative), and unions their exact local results.
  /// Precision is 1 by construction; recall depends on the contact budget.
  /// Validates its arguments as ScorePeers does.
  Result<std::vector<ItemId>> RangeQuery(const Vector& query, double epsilon,
                                         int querying_peer, int max_peers_contacted = -1,
                                         RangeQueryInfo* info = nullptr);

  /// The Fig. 5 k-NN heuristic. Returns the fetched ids ordered by true
  /// distance to the query (the caller may truncate to k; the paper
  /// evaluates the full fetched set, trading precision for recall via C).
  /// A query with a NaN or infinite coordinate, and a C that is not
  /// positive and finite or whose C*k exceeds the int range, are rejected
  /// with InvalidArgument.
  Result<std::vector<ItemId>> KnnQuery(const Vector& query, int k,
                                       const KnnOptions& options, int querying_peer,
                                       KnnQueryInfo* info = nullptr);

  /// Point query: ids of items exactly equal to `point` (a range query of
  /// radius zero — Section 4's "straight forward" case).
  Result<std::vector<ItemId>> PointQuery(const Vector& point, int querying_peer,
                                         RangeQueryInfo* info = nullptr);

  // Serving-layer hooks (src/serve) ------------------------------------------

  /// Compiles a range query into its executable plan without running it.
  /// The serving layer hashes the plan (PlanSignature) to key its per-peer
  /// query-result cache: two queries with equal signatures issue identical
  /// probes and, at a fixed summary state, return identical answers. `query`
  /// must match data_dim() and epsilon must be >= 0 (same contract as
  /// RangeQuery — compilation is pure math and does not validate).
  QueryPlan CompileRangePlan(const Vector& query, double epsilon) const;

  /// Compiles a k-NN query into its expanding-probe plan (see
  /// CompileRangePlan for the caching contract).
  QueryPlan CompileKnnPlan(const Vector& query, int k) const;

  /// Monotone generation counter of the answer-relevant network state:
  /// bumped whenever published summaries or peer local stores change in a
  /// way that can change a query's answer — post-creation inserts, explicit
  /// republishes, crash wipes, rejoins, and TTL expiry sweeps that removed
  /// entries (plus the republish tick that repairs wiped/expired state, via
  /// a dirty flag — ticks that merely refresh TTLs are answer-idempotent and
  /// do NOT bump). The serving layer's result cache records the epoch at
  /// fill time and treats any bump as invalidation, so cached answers never
  /// outlive the summaries that produced them.
  uint64_t summary_epoch() const { return summary_epoch_; }

  /// Installs (or, with nullptr, removes) the mined-shortcut table consulted
  /// by query executors before non-expanding range probes. Borrowed — must
  /// outlive every subsequent query. A stale hint costs airtime, never
  /// recall (see core::ShortcutProvider).
  void set_shortcut_provider(ShortcutProvider* provider) {
    shortcut_provider_ = provider;
  }

  // Post-creation churn (Fig. 10c) ------------------------------------------

  /// Adds an item to a peer's local store WITHOUT republishing summaries —
  /// the paper's post-creation insertion model: summaries go stale and
  /// recall degrades gracefully. Returns InvalidArgument, leaving the peer
  /// and summary_epoch() untouched, for a bad peer, a dimensionality
  /// mismatch or a non-finite feature value.
  Status AddItemWithoutRepublish(int peer, ItemId id, const Vector& features);

  /// Re-clusters a peer's current local items and replaces its published
  /// summaries in every layer (unpublish + fresh k-means + insert). This is
  /// the maintenance action that repairs the staleness AddItemWithoutRepublish
  /// introduces; all traffic is recorded in stats().
  Status RepublishPeer(int peer, Rng& rng);

  // Simulated time ------------------------------------------------------------

  /// Advances the network's simulator clock to `t` ms, applying every
  /// scheduled crash/rejoin event, republish tick, TTL expiry sweep and
  /// series sample with time <= t. Every network owns a simulator, whatever
  /// the transport.
  void AdvanceTo(sim::TimeMs t);

  /// Current simulated time.
  sim::TimeMs now() const { return sim_->now(); }

  /// The inert net.unreliable field as set. The library never branches on
  /// it; it stays only because perfbench/driver.cc reads it to choose its
  /// clock and ledger mode, and goes with the next change to the benchmark.
  bool unreliable() const { return options_.net.unreliable; }

  /// The transport all overlay/retrieve traffic goes through.
  const net::Transport& transport() const { return *transport_; }

  /// Soft-state / fault bookkeeping (the fault counters stay zero without
  /// faults).
  const SoftStateCounters& soft_state() const { return soft_; }

  /// True iff peer `p` is currently up: in range and not crashed by a fault
  /// plan event.
  bool peer_up(int p) const { return transport_->peer_up(p); }

  /// The physical radio channel, or nullptr when channel.enabled is false.
  const channel::RadioChannel* radio_channel() const { return channel_.get(); }

  /// The supernode backbone, or nullptr when backbone.enabled is false.
  const backbone::BackboneManager* backbone() const { return backbone_.get(); }

  // Introspection ------------------------------------------------------------

  int num_peers() const { return static_cast<int>(peers_.size()); }
  int num_layers() const { return static_cast<int>(levels_.size()); }
  size_t data_dim() const { return data_dim_; }

  /// Traffic counters (join/insert/replicate recorded during Build).
  const sim::NetworkStats& stats() const { return stats_; }
  sim::NetworkStats& mutable_stats() { return stats_; }

  /// Total items held by peers.
  int total_items() const;

  /// Overlay hops (routing + replication) spent publishing peer `id`'s
  /// summaries during Build. Peers publish in parallel in a real deployment,
  /// so the dissemination makespan is governed by the maximum of these.
  uint64_t publication_hops(int id) const;

  /// Overlay / level of a layer (0 <= layer < num_layers()), and a peer.
  const can::CanOverlay& overlay(int layer) const;
  const wavelet::Level& level(int layer) const;
  const Peer& peer(int id) const;

 private:
  HyperMNetwork() = default;

  /// Runs `fn(i)` for i in [0, n) on the pool, recording the fan-out in the
  /// `pool.tasks` counter and `pool.wall_us` histogram. Build-time work only.
  void PoolRun(size_t n, const std::function<void(size_t)>& fn);

  /// Planner over this network's level/mapper tables and plan options.
  QueryPlanner MakePlanner() const;

  /// Executor over this network's overlays, simulator, backbone and
  /// shortcut provider.
  QueryExecutor MakeExecutor();

  /// Retrieve phase of a range or k-NN query (Fig. 3, step 2): one request
  /// and one response exchange with each of the first `contact` peers in
  /// `targets`, in order. `local_search(i, peer)` answers target i from its
  /// local store and returns a vector of items. A lost request or response
  /// counts in retrieves_lost and contributes nothing; `info->latency_ms`
  /// grows by the slowest exchange (peers answer in parallel). Returns the
  /// delivered items in target order.
  template <typename LocalSearch>
  auto Retrieve(int querying_peer, const std::vector<PeerScore>& targets,
                size_t contact, const LocalSearch& local_search,
                RangeQueryInfo* info);

  /// Drains an executed plan in layer order on the calling thread: emits
  /// the kLevelFinal flight-recorder events, folds traffic + delivery-fate
  /// accounting into `info` (ignored when null) and records the
  /// query.level_matches / query.scored_matches counters. Returns the first
  /// failed level's status.
  Status DrainLevelOutcomes(const QueryOutcome& outcome, RangeQueryInfo* info);

  /// Publishes one finished query's accounting: `info` into the query.*
  /// histograms and counters (the single place per-query accounting becomes
  /// durable metrics, so the info structs stay thin views that cannot drift
  /// from the registry), one served query into stats_, and the kQueryDone
  /// flight-recorder event carrying the answer's `results` count.
  void FinishQuery(const RangeQueryInfo& info, int64_t query_id, int querying_peer,
                   size_t results);

  /// Every stored item of `peer` decomposed and projected onto each level:
  /// entry [layer][row] follows the peer's row order. Reads only this
  /// network's options and levels, so pool tasks may call it concurrently.
  Result<std::vector<std::vector<Vector>>> LevelProjections(const Peer& peer) const;

  /// Wires up the simulator, fault state and transport (and the radio
  /// channel when enabled), and schedules the periodic events: crash/rejoin,
  /// republish ticks, TTL expiry sweeps and series samples.
  Status InitTransport();

  /// One soft-state republish round: every live peer re-inserts its cached
  /// summaries with a refreshed TTL (same cluster ids — delivery refreshes
  /// the stored entry in place, losses leave the old entry to expire).
  void RepublishTick();

  /// Self-rescheduling periodic events on the simulator.
  void ScheduleRepublish();
  void ScheduleExpirySweep(sim::TimeMs period);
  void ScheduleSeriesProbe(sim::TimeMs period);

  /// Clusters and publishes the summaries of peers first_peer, first_peer+1,
  /// ... into all layers (steps i2–i3); `level_points[i][layer]` holds the
  /// layer projections of peer first_peer + i. One flat (peer, layer) task
  /// list of k-means runs fans out on the pool, each on the private RNG
  /// stream SeedStream(base_seed).At(peer, layer), so clustering is
  /// bit-identical at any thread count. A task keeps its result and its
  /// wall time in its own slot; the kmeans.* metrics and the inserts — which
  /// mutate the overlays and consume cluster ids — are drained on the
  /// calling thread in peer-major, layer-minor order; `after_peer(peer)`,
  /// when set, runs once each peer's inserts are drained.
  Status PublishPeers(int first_peer,
                      const std::vector<std::vector<std::vector<Vector>>>& level_points,
                      uint64_t base_seed,
                      const std::function<void(int)>& after_peer = {});

  /// Drains one (peer, layer) k-means result into the layer's overlay:
  /// key-sphere mapping, cluster-id assignment, replicated inserts. Must run
  /// on the orchestrating thread (mutates overlays and next_cluster_id_).
  Status InsertClusters(int peer_id, size_t layer,
                        const cluster::KMeansResult& result);

  cluster::KMeansOptions MakeKMeansOptions() const;

  size_t data_dim_ = 0;
  int num_detail_levels_ = 0;  // log2(data_dim_)
  HyperMOptions options_;
  std::vector<Peer> peers_;
  std::vector<wavelet::Level> levels_;
  std::vector<KeyMapper> mappers_;
  std::vector<std::unique_ptr<can::CanOverlay>> overlays_;
  std::unique_ptr<ThreadPool> pool_;
  sim::NetworkStats stats_;
  std::vector<uint64_t> publication_hops_;  // per peer, set during Build
  uint64_t next_cluster_id_ = 1;

  // Clock, transport + fault machinery. sim_, fault_state_ and transport_
  // are always set after Build; channel_/mobility_ only when
  // channel.enabled (the channel must outlive the transport that borrows
  // it).
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::FaultState> fault_state_;
  std::unique_ptr<channel::RadioChannel> channel_;
  std::unique_ptr<channel::MobilityProcess> mobility_;
  std::unique_ptr<net::Transport> transport_;
  // Supernode backbone; only when backbone.enabled (constructed after the
  // transport/channel it borrows, started after the initial publish).
  std::unique_ptr<backbone::BackboneManager> backbone_;
  SoftStateCounters soft_;
  // Serving-layer state: the mined-shortcut seam handed to every executor,
  // and the answer-relevant generation counter (see summary_epoch()).
  // summaries_dirty_ marks wiped/expired summary state whose repair by the
  // next republish tick is itself an answer-relevant change.
  ShortcutProvider* shortcut_provider_ = nullptr;  // not owned
  uint64_t summary_epoch_ = 0;
  bool summaries_dirty_ = false;
  // Queries currently between entry and return (sampled by the flight
  // recorder's probe.inflight_queries series). The orchestrating thread runs
  // queries one at a time, but a heal-window RunUntil keeps the owning query
  // "in flight" while scheduled callbacks observe the gauge.
  int inflight_queries_ = 0;
  // Last published summaries per [peer][layer]; what RepublishTick re-inserts.
  std::vector<std::vector<std::vector<overlay::PublishedCluster>>> published_cache_;
};

}  // namespace hyperm::core

#endif  // HYPERM_HYPERM_NETWORK_H_
