#include "hyperm/network.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <utility>

#include "can/can_overlay.h"
#include "common/check.h"
#include "common/math_util.h"
#include "common/seed_stream.h"
#include "obs/event_log.h"
#include "obs/trace.h"
#include "wavelet/haar.h"

namespace hyperm::core {
namespace {

// Message size used when contacting a peer directly for data (request) —
// header + query vector is dominated by the response, accounted separately.
constexpr uint64_t kRequestBytes = 64;

// Lloyd iteration budget of every peer's local k-means.
constexpr int kKMeansMaxIterations = 30;

// Floor on the number of peers a k-NN query contacts (Fig. 5's P). Scores
// are expectations, not guarantees; a single high-score peer rarely holds
// all k true neighbours.
constexpr size_t kKnnMinPeers = 5;

uint64_t ResponseBytes(size_t items, size_t dim) {
  return 16 + items * (8 * dim + 8);
}

// Tracks the number of queries between entry and return for the flight
// recorder's probe.inflight_queries gauge (exception-safe on early returns).
class ScopedInflight {
 public:
  explicit ScopedInflight(int* counter) : counter_(counter) { ++*counter_; }
  ~ScopedInflight() { --*counter_; }
  ScopedInflight(const ScopedInflight&) = delete;
  ScopedInflight& operator=(const ScopedInflight&) = delete;

 private:
  int* counter_;
};

}  // namespace

void HyperMNetwork::PoolRun(size_t n, const std::function<void(size_t)>& fn) {
  {
    HM_OBS_TIMER("pool.wall_us", obs::Buckets::Exponential(1, 4.0, 14));
    pool_->ParallelFor(n, fn);
  }
  HM_OBS_COUNTER_ADD("pool.tasks", n);
}

QueryPlanner HyperMNetwork::MakePlanner() const {
  return QueryPlanner(&levels_, &mappers_, options_.wavelet_kind,
                      num_detail_levels_, options_.score_policy, options_.plan);
}

QueryExecutor HyperMNetwork::MakeExecutor() {
  return QueryExecutor(&overlays_, sim_.get(), backbone_.get(),
                       shortcut_provider_);
}

QueryPlan HyperMNetwork::CompileRangePlan(const Vector& query,
                                          double epsilon) const {
  return MakePlanner().PlanRange(query, epsilon);
}

QueryPlan HyperMNetwork::CompileKnnPlan(const Vector& query, int k) const {
  return MakePlanner().PlanKnn(query, k);
}

Status HyperMNetwork::DrainLevelOutcomes(const QueryOutcome& outcome,
                                         RangeQueryInfo* info) {
  int64_t level_matches = 0;
  for (size_t layer = 0; layer < outcome.levels.size(); ++layer) {
    const LevelOutcome& out = outcome.levels[layer];
    if (!out.status.ok()) return out.status;
    level_matches += static_cast<int64_t>(out.matched.matches.size());
    // Final fate of the level after every re-issue round has settled — the
    // flight recorder's per-level verdict (cause mirrors LevelDelivery).
    HM_OBS_EVENT(.sim_ms = sim_->now(),
                 .kind = obs::EventKind::kLevelFinal,
                 .level = static_cast<int32_t>(layer),
                 .cause = static_cast<int32_t>(out.delivery),
                 .value = out.latency_ms, .aux = out.reissues);
    if (info != nullptr) {
      info->overlay_routing_hops += out.routing_hops;
      info->overlay_flood_hops += out.flood_hops;
      info->latency_ms = std::max(info->latency_ms, out.latency_ms);
      info->reissues += out.reissues;
      if (out.delivery == LevelDelivery::kDetoured) ++info->layers_detoured;
      // A level that healed through a re-issue ends kDelivered/kDetoured but
      // still counts as deferred-at-least-once (reissues records the rounds).
      if (out.delivery == LevelDelivery::kDeferred || out.reissues > 0) {
        ++info->layers_deferred;
      }
      if (out.delivery == LevelDelivery::kDeferred ||
          out.delivery == LevelDelivery::kLost) {
        ++info->layers_lost;
      }
      info->level_outcomes.push_back(out.delivery);
    }
  }
  // Their ratio is the share of matched records the scoring pass evaluated.
  HM_OBS_COUNTER_ADD("query.level_matches", level_matches);
  HM_OBS_COUNTER_ADD("query.scored_matches", outcome.scored_matches);
  return OkStatus();
}

Status HyperMNetwork::InitTransport() {
  const net::NetOptions& net_opts = options_.net;
  sim_ = std::make_unique<sim::Simulator>();
  published_cache_.assign(
      peers_.size(),
      std::vector<std::vector<overlay::PublishedCluster>>(levels_.size()));
  HM_RETURN_IF_ERROR(net_opts.faults.Validate(num_peers()));
  fault_state_ = std::make_unique<net::FaultState>(num_peers(), net_opts.faults);
  auto transport = std::make_unique<net::UnreliableTransport>(
      sim_.get(), &stats_, fault_state_.get(), net_opts);
  if (options_.channel.enabled) {
    HM_ASSIGN_OR_RETURN(
        channel_,
        channel::RadioChannel::Create(num_peers(), options_.channel, &stats_));
    transport->set_channel(channel_.get());
    mobility_ = std::make_unique<channel::MobilityProcess>(sim_.get(),
                                                           channel_.get());
    mobility_->Start();
  }
  transport_ = std::move(transport);

  for (const net::PeerEvent& event : net_opts.faults.peer_events) {
    sim_->ScheduleAt(event.at_ms, [this, event] {
      // Fault events can fire inside a query's heal-window RunUntil; their
      // flight-recorder events are epoch bookkeeping, not part of that
      // query's causal chain.
      HM_OBS_ROOT_SCOPE();
      // Either direction changes query answers (a down peer neither serves
      // summaries nor answers retrieves) and leaves state the next
      // republish tick will repair — epoch-bump now, and again at the tick.
      ++summary_epoch_;
      summaries_dirty_ = true;
      if (event.up) {
        fault_state_->SetUp(event.peer, true);
        ++soft_.rejoins;
        HM_OBS_COUNTER_ADD("net.rejoins", 1);
        HM_OBS_EVENT(.sim_ms = sim_->now(),
                     .kind = obs::EventKind::kPeerRejoin, .src = event.peer);
      } else {
        fault_state_->SetUp(event.peer, false);
        ++soft_.crashes;
        HM_OBS_COUNTER_ADD("net.crashes", 1);
        // A crash wipes the node's volatile summary store. Its zone and
        // its local item collection survive; its share of the distributed
        // index does not — republish ticks by the owners repair it.
        int lost = 0;
        for (auto& ov : overlays_) lost += ov->ClearNode(event.peer);
        soft_.summaries_lost += static_cast<uint64_t>(lost);
        HM_OBS_COUNTER_ADD("net.summaries_lost", lost);
        HM_OBS_EVENT(.sim_ms = sim_->now(),
                     .kind = obs::EventKind::kPeerCrash, .src = event.peer,
                     .aux = lost);
      }
    });
  }
  if (net_opts.republish_period_ms > 0.0) ScheduleRepublish();
  if (net_opts.summary_ttl_ms > 0.0) {
    ScheduleExpirySweep(net_opts.summary_ttl_ms / 2.0);
  }
  if (options_.trace_series_period_ms > 0.0) {
    ScheduleSeriesProbe(options_.trace_series_period_ms);
  }
  if (options_.backbone.enabled) {
    HM_RETURN_IF_ERROR(options_.backbone.Validate());
    // Resolve the piggyback defaults: report cadence rides the soft-state
    // republish period, digest freshness rides the summary TTL.
    backbone::BackboneOptions resolved = options_.backbone;
    if (resolved.report_period_ms <= 0.0) {
      resolved.report_period_ms = net_opts.republish_period_ms > 0.0
                                      ? net_opts.republish_period_ms
                                      : 400.0;
    }
    if (resolved.maintenance_period_ms <= 0.0) {
      resolved.maintenance_period_ms = resolved.report_period_ms;
    }
    if (resolved.digest_ttl_ms <= 0.0) {
      resolved.digest_ttl_ms = net_opts.summary_ttl_ms > 0.0
                                   ? net_opts.summary_ttl_ms
                                   : 3.0 * resolved.report_period_ms;
    }
    std::vector<int> layer_dims;
    layer_dims.reserve(levels_.size());
    for (const wavelet::Level& level : levels_) {
      layer_dims.push_back(static_cast<int>(level.dim()));
    }
    backbone_ = std::make_unique<backbone::BackboneManager>(
        sim_.get(), transport_.get(), fault_state_.get(),
        &channel_->topology(), std::move(layer_dims), resolved,
        [this](int peer, int layer) -> const std::vector<
            overlay::PublishedCluster>& {
          return published_cache_[static_cast<size_t>(peer)]
                                 [static_cast<size_t>(layer)];
        });
  }
  for (auto& ov : overlays_) {
    ov->set_transport(transport_.get());
    ov->set_route_detours(options_.plan.route_detours);
  }
  return OkStatus();
}

void HyperMNetwork::ScheduleRepublish() {
  sim_->ScheduleAfter(options_.net.republish_period_ms, [this] {
    RepublishTick();
    ScheduleRepublish();
  });
}

void HyperMNetwork::ScheduleExpirySweep(sim::TimeMs period) {
  sim_->ScheduleAfter(period, [this, period] {
    // Sweeps fire inside heal-window RunUntils too; clear the causal context.
    HM_OBS_ROOT_SCOPE();
    int expired = 0;
    for (auto& ov : overlays_) expired += ov->ExpireBefore(sim_->now());
    soft_.summaries_expired += static_cast<uint64_t>(expired);
    if (expired > 0) {
      // Answers change now (entries gone) and again when the owners'
      // republish tick restores them.
      ++summary_epoch_;
      summaries_dirty_ = true;
    }
    HM_OBS_COUNTER_ADD("net.summaries_expired", expired);
    HM_OBS_EVENT(.sim_ms = sim_->now(),
                 .kind = obs::EventKind::kSummariesExpired, .aux = expired);
    ScheduleExpirySweep(period);
  });
}

void HyperMNetwork::ScheduleSeriesProbe(sim::TimeMs period) {
  sim_->ScheduleAfter(period, [this, period] {
    const sim::TimeMs now = sim_->now();
    HM_OBS_SERIES("probe.inflight_queries", now,
                  static_cast<double>(inflight_queries_));
    HM_OBS_SERIES("probe.busy_nodes", now,
                  channel_ != nullptr ? channel_->BusyNodesAt(now) : 0.0);
    HM_OBS_SERIES("probe.islands", now,
                  channel_ != nullptr ? channel_->num_islands() : 1.0);
    ScheduleSeriesProbe(period);
  });
}

void HyperMNetwork::RepublishTick() {
  // Republish rounds are scheduled callbacks: their messages must not
  // inherit the causal ids of whatever query's RunUntil they interrupt.
  HM_OBS_ROOT_SCOPE();
  const double ttl = options_.net.summary_ttl_ms;
  int peers_republished = 0;
  for (int p = 0; p < num_peers(); ++p) {
    if (!transport_->peer_up(p)) continue;  // crashed peers cannot republish
    bool any = false;
    for (size_t layer = 0; layer < overlays_.size(); ++layer) {
      for (overlay::PublishedCluster cluster :
           published_cache_[static_cast<size_t>(p)][layer]) {
        if (ttl > 0.0) cluster.expires_at = sim_->now() + ttl;
        Result<overlay::InsertReceipt> receipt = overlays_[layer]->Insert(cluster, p);
        if (receipt.ok() && !receipt.value().delivered) {
          ++soft_.inserts_lost;
          HM_OBS_COUNTER_ADD("net.inserts_lost", 1);
        }
        any = true;
      }
    }
    if (any) {
      ++soft_.republishes;
      ++peers_republished;
      HM_OBS_COUNTER_ADD("net.republishes", 1);
    }
  }
  if (summaries_dirty_) {
    // This round re-inserted summaries into overlays that had lost them
    // (crash wipe, TTL expiry or a crashed owner coming back) — an
    // answer-relevant repair. Plain TTL-refresh rounds leave the flag clear
    // and bump nothing, so steady-state ticks never invalidate caches.
    ++summary_epoch_;
    summaries_dirty_ = false;
  }
  HM_OBS_EVENT(.sim_ms = sim_->now(), .kind = obs::EventKind::kRepublishRound,
               .aux = peers_republished);
}

void HyperMNetwork::AdvanceTo(sim::TimeMs t) { sim_->RunUntil(t); }

cluster::KMeansOptions HyperMNetwork::MakeKMeansOptions() const {
  cluster::KMeansOptions kmeans_options;
  kmeans_options.k = options_.clusters_per_peer;
  kmeans_options.max_iterations = kKMeansMaxIterations;
  return kmeans_options;
}

Result<std::unique_ptr<HyperMNetwork>> HyperMNetwork::Build(
    const data::Dataset& dataset, const data::PeerAssignment& assignment,
    const HyperMOptions& options, Rng& rng) {
  if (dataset.items.empty()) return InvalidArgumentError("Build: empty dataset");
  // A NaN coordinate poisons the key bounds and the cluster spheres of every
  // peer it reaches, so queries on finite items would miss true matches.
  for (const Vector& item : dataset.items) {
    if (!vec::AllFinite(item)) {
      return InvalidArgumentError("Build: dataset holds a non-finite value");
    }
  }
  if (!IsPowerOfTwo(static_cast<int64_t>(dataset.dim()))) {
    return InvalidArgumentError("Build: dataset dimensionality must be a power of two");
  }
  if (assignment.empty()) return InvalidArgumentError("Build: no peers");
  if (options.num_layers < 1) return InvalidArgumentError("Build: num_layers < 1");
  if (options.clusters_per_peer < 1) {
    return InvalidArgumentError("Build: clusters_per_peer < 1");
  }
  const int m = Log2Exact(static_cast<int64_t>(dataset.dim()));
  if (options.num_layers > m + 1) {
    return InvalidArgumentError("Build: num_layers exceeds available wavelet levels");
  }
  if (options.plan.route_detours < 0 || options.plan.reissue_budget < 0 ||
      options.plan.heal_window_ms < 0.0) {
    return InvalidArgumentError("Build: negative query-plan budget");
  }
  if (options.plan.reissue_budget > 0 && options.plan.heal_window_ms <= 0.0) {
    return InvalidArgumentError(
        "Build: plan.reissue_budget needs a positive plan.heal_window_ms");
  }
  // The rules ChannelOptions::Validate applies to the channel's copy.
  const sim::LinkModel& link = options.net.link;
  if (!std::isfinite(link.hop_overhead_ms) || !std::isfinite(link.bandwidth_bytes_per_ms) ||
      link.hop_overhead_ms < 0.0 || link.bandwidth_bytes_per_ms <= 0.0) {
    return InvalidArgumentError("Build: net.link needs finite overhead >= 0, bandwidth > 0");
  }
  if (options.backbone.enabled && !options.channel.enabled) {
    return InvalidArgumentError(
        "Build: backbone.enabled requires channel.enabled "
        "(the CDS is elected over the live radio graph)");
  }

  HM_OBS_SPAN("build");
  std::unique_ptr<HyperMNetwork> net(new HyperMNetwork());
  net->data_dim_ = dataset.dim();
  net->num_detail_levels_ = m;
  net->options_ = options;
  net->levels_ = wavelet::DefaultLevels(m, options.num_layers);
  net->pool_ = std::make_unique<ThreadPool>(
      options.num_threads != 0 ? options.num_threads : ThreadPool::DefaultNumThreads());

  // Peers + local stores (step i1 input).
  const int num_peers = static_cast<int>(assignment.size());
  net->peers_.reserve(static_cast<size_t>(num_peers));
  for (int p = 0; p < num_peers; ++p) net->peers_.emplace_back(p);

  // Per-peer, per-layer subspace projections of every item, plus global
  // per-layer bounds for the key mappers. (In a live MANET the bounds come
  // from the data domain — Haar averages of [lo,hi]-bounded features stay in
  // [lo,hi] and details in ±(hi-lo)/2; the simulation takes the tight
  // empirical equivalent.) Decomposition is fanned out per peer: every task
  // writes only peer p's store and projection rows. The bounds are one
  // serial pass over the projections in peer order afterwards.
  const size_t num_layers = net->levels_.size();
  std::vector<std::vector<std::vector<Vector>>> level_points(
      static_cast<size_t>(num_peers));
  std::vector<Status> peer_status(static_cast<size_t>(num_peers), OkStatus());
  {
    HM_OBS_SPAN("build/decompose");
    net->PoolRun(static_cast<size_t>(num_peers), [&](size_t p) {
      Peer& peer = net->peers_[p];
      for (int index : assignment[p]) {
        if (index < 0 || static_cast<size_t>(index) >= dataset.items.size()) {
          peer_status[p] = InvalidArgumentError("Build: assignment index out of range");
          return;
        }
        peer.AddItem(index, dataset.items[static_cast<size_t>(index)]);
      }
      Result<std::vector<std::vector<Vector>>> projections = net->LevelProjections(peer);
      if (!projections.ok()) {
        peer_status[p] = projections.status();
        return;
      }
      level_points[p] = std::move(projections).value();
    });
    for (int p = 0; p < num_peers; ++p) {
      HM_RETURN_IF_ERROR(peer_status[static_cast<size_t>(p)]);
    }
  }
  std::vector<Bounds> bounds(num_layers);
  for (size_t layer = 0; layer < num_layers; ++layer) {
    for (const std::vector<std::vector<Vector>>& peer_points : level_points) {
      for (const Vector& projection : peer_points[layer]) {
        if (bounds[layer].lo.empty()) {
          bounds[layer].lo = projection;
          bounds[layer].hi = projection;
        } else {
          bounds[layer].Extend(projection);
        }
      }
    }
    if (bounds[layer].lo.empty()) return InvalidArgumentError("Build: no items assigned");
  }

  // One overlay per layer (step i3 substrate).
  {
    HM_OBS_SPAN("build/overlays");
    for (size_t layer = 0; layer < num_layers; ++layer) {
      net->mappers_.push_back(KeyMapper::FromBounds(bounds[layer]));
      const size_t layer_dim = net->levels_[layer].dim();
      HM_ASSIGN_OR_RETURN(auto can, can::CanOverlay::Build(layer_dim, num_peers,
                                                           &net->stats_, rng));
      net->overlays_.push_back(std::move(can));
      net->overlays_.back()->set_replicate_spheres(options.replicate_spheres);
    }
  }

  // Transport + fault machinery. From here on, every overlay hop and
  // retrieve exchange is a message through net->transport_ — publication
  // included, so building under a lossy fault plan already loses summaries.
  HM_RETURN_IF_ERROR(net->InitTransport());

  // Cluster + publish every peer (steps i2-i3); a peer's publication hops
  // are the insert + replicate hops its drain added.
  {
    HM_OBS_SPAN("build/publish");
    net->publication_hops_.assign(static_cast<size_t>(num_peers), 0);
    const auto publish_hops = [&net] {
      return net->stats_.hops(sim::TrafficClass::kInsert) +
             net->stats_.hops(sim::TrafficClass::kReplicate);
    };
    uint64_t before = publish_hops();
    HM_RETURN_IF_ERROR(net->PublishPeers(
        0, level_points, rng.NextUint64(), [&](int p) {
          const uint64_t after = publish_hops();
          net->publication_hops_[static_cast<size_t>(p)] = after - before;
          before = after;
        }));
  }
  // The backbone bootstraps against the freshly published summaries: initial
  // election, member reports, digest build + CDS exchange, periodic timers.
  if (net->backbone_ != nullptr) {
    HM_OBS_SPAN("build/backbone");
    net->backbone_->Start();
  }
  HM_OBS_GAUGE_SET("build.num_peers", num_peers);
  HM_OBS_GAUGE_SET("build.num_layers", num_layers);
  HM_OBS_GAUGE_SET("build.total_items", net->total_items());
  return net;
}

Status HyperMNetwork::InsertClusters(int peer_id, size_t layer,
                                     const cluster::KMeansResult& result) {
  for (const cluster::SphereCluster& c : result.clusters) {
    overlay::PublishedCluster published;
    published.sphere = mappers_[layer].ToKeySphere(c.centroid, c.radius);
    published.owner_peer = peer_id;
    published.items = c.count;
    published.cluster_id = next_cluster_id_++;
    if (options_.net.summary_ttl_ms > 0.0) {
      published.expires_at = sim_->now() + options_.net.summary_ttl_ms;
    }
    published_cache_[static_cast<size_t>(peer_id)][layer].push_back(published);
    HM_ASSIGN_OR_RETURN(overlay::InsertReceipt receipt,
                        overlays_[layer]->Insert(published, peer_id));
    if (!receipt.delivered) {
      ++soft_.inserts_lost;
      HM_OBS_COUNTER_ADD("net.inserts_lost", 1);
    }
    HM_OBS_COUNTER_ADD("build.clusters_published", 1);
    HM_OBS_HISTOGRAM("overlay.insert_routing_hops",
                     obs::Buckets::Exponential(1, 2.0, 12), receipt.routing_hops);
    HM_OBS_HISTOGRAM("overlay.insert_replicas",
                     obs::Buckets::Exponential(1, 2.0, 12), receipt.replicas);
  }
  return OkStatus();
}

Status HyperMNetwork::PublishPeers(
    int first_peer,
    const std::vector<std::vector<std::vector<Vector>>>& level_points,
    uint64_t base_seed, const std::function<void(int)>& after_peer) {
  // One flat task list keeps all lanes busy even when peers hold uneven
  // collections.
  struct PublishTask {
    size_t index;  // into level_points
    size_t layer;
  };
  std::vector<PublishTask> tasks;
  for (size_t i = 0; i < level_points.size(); ++i) {
    for (size_t layer = 0; layer < level_points[i].size(); ++layer) {
      if (!level_points[i][layer].empty()) tasks.push_back(PublishTask{i, layer});
    }
  }
  // A task writes only its slot: the clustering and its wall time. Metrics
  // and overlay inserts happen at the ordered drain below. Result<T> is not
  // default-constructible, hence the optional.
  struct PublishSlot {
    std::optional<Result<cluster::KMeansResult>> result;
    double wall_us = 0.0;
  };
  std::vector<PublishSlot> slots(tasks.size());
  const cluster::KMeansOptions kmeans_options = MakeKMeansOptions();
  PoolRun(tasks.size(), [&](size_t t) {
    const PublishTask& task = tasks[t];
    Rng task_rng = SeedStream(base_seed).At(
        static_cast<uint64_t>(first_peer) + task.index, task.layer);
    const auto start = std::chrono::steady_clock::now();
    slots[t].result.emplace(cluster::KMeans(level_points[task.index][task.layer],
                                            kmeans_options, task_rng));
    slots[t].wall_us = std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  });
  size_t t = 0;
  for (size_t i = 0; i < level_points.size(); ++i) {
    const int peer = first_peer + static_cast<int>(i);
    for (; t < tasks.size() && tasks[t].index == i; ++t) {
      const Result<cluster::KMeansResult>& clustered = *slots[t].result;
      if (!clustered.ok()) return clustered.status();
      cluster::RecordKMeansRun(clustered.value(), slots[t].wall_us);
      HM_RETURN_IF_ERROR(InsertClusters(peer, tasks[t].layer, clustered.value()));
    }
    if (after_peer) after_peer(peer);
  }
  return OkStatus();
}

Result<std::vector<PeerScore>> HyperMNetwork::ScorePeers(const Vector& query,
                                                         double epsilon,
                                                         int querying_peer,
                                                         RangeQueryInfo* info) {
  if (query.size() != data_dim_) {
    return InvalidArgumentError("ScorePeers: query dimensionality mismatch");
  }
  if (!vec::AllFinite(query) || !std::isfinite(epsilon)) {
    return InvalidArgumentError("ScorePeers: non-finite query or epsilon");
  }
  if (epsilon < 0.0) return InvalidArgumentError("ScorePeers: negative epsilon");
  if (querying_peer < 0 || querying_peer >= num_peers()) {
    return InvalidArgumentError("ScorePeers: bad querying peer");
  }
  HM_OBS_SPAN("query/score");
  // Plan, then execute. The planner compiles the Theorem 4.1 probe spheres
  // (pure wavelet math); the executor runs the per-level range searches in
  // level order, re-issues deferred levels when so configured and scores
  // the settled levels once. Info accounting is drained in layer order below.
  const QueryPlan plan = MakePlanner().PlanRange(query, epsilon);
  QueryOutcome outcome = MakeExecutor().Execute(plan, querying_peer);
  HM_RETURN_IF_ERROR(DrainLevelOutcomes(outcome, info));
  if (info != nullptr) info->candidate_peers = static_cast<int>(outcome.scores.size());
  return std::move(outcome.scores);
}

template <typename LocalSearch>
auto HyperMNetwork::Retrieve(int querying_peer, const std::vector<PeerScore>& targets,
                             size_t contact, const LocalSearch& local_search,
                             RangeQueryInfo* info) {
  HM_OBS_SPAN("query/retrieve");
  std::invoke_result_t<const LocalSearch&, size_t, const Peer&> delivered;
  double retrieve_latency = 0.0;
  for (size_t i = 0; i < contact; ++i) {
    const int target_peer = targets[i].peer;
    const net::HopResult request = transport_->SendHop(
        {net::MessageType::kRetrieveRequest, querying_peer, target_peer,
         kRequestBytes, sim::TrafficClass::kRetrieve});
    if (!request.delivered) {
      ++soft_.retrieves_lost;
      HM_OBS_COUNTER_ADD("net.retrieves_lost", 1);
      continue;
    }
    auto local = local_search(i, peers_[static_cast<size_t>(target_peer)]);
    const net::HopResult response = transport_->SendHop(
        {net::MessageType::kRetrieveResponse, target_peer, querying_peer,
         ResponseBytes(local.size(), data_dim_), sim::TrafficClass::kRetrieve});
    retrieve_latency =
        std::max(retrieve_latency, request.latency_ms + response.latency_ms);
    if (!response.delivered) {
      ++soft_.retrieves_lost;
      HM_OBS_COUNTER_ADD("net.retrieves_lost", 1);
      continue;
    }
    delivered.insert(delivered.end(), local.begin(), local.end());
  }
  info->latency_ms += retrieve_latency;
  return delivered;
}

void HyperMNetwork::FinishQuery(const RangeQueryInfo& info, int64_t query_id,
                                int querying_peer, size_t results) {
  HM_OBS_HISTOGRAM("query.routing_hops", obs::Buckets::Exponential(1, 2.0, 12),
                   info.overlay_routing_hops);
  HM_OBS_HISTOGRAM("query.flood_hops", obs::Buckets::Exponential(1, 2.0, 12),
                   info.overlay_flood_hops);
  HM_OBS_HISTOGRAM("query.candidate_peers", obs::Buckets::Exponential(1, 2.0, 12),
                   info.candidate_peers);
  HM_OBS_HISTOGRAM("query.peers_contacted", obs::Buckets::Exponential(1, 2.0, 12),
                   info.peers_contacted);
  HM_OBS_COUNTER_ADD("query.levels_detoured", info.layers_detoured);
  HM_OBS_COUNTER_ADD("query.levels_deferred", info.layers_deferred);
  HM_OBS_COUNTER_ADD("query.reissues", info.reissues);
  stats_.RecordQueryServed();
  HM_OBS_EVENT(.sim_ms = sim_->now(),
               .kind = obs::EventKind::kQueryDone,
               .query_id = query_id, .src = querying_peer,
               .value = info.latency_ms,
               .aux = static_cast<int64_t>(results));
}

Result<std::vector<ItemId>> HyperMNetwork::RangeQuery(const Vector& query,
                                                      double epsilon, int querying_peer,
                                                      int max_peers_contacted,
                                                      RangeQueryInfo* info) {
  HM_OBS_SPAN("query/range");
  // Root of this query's causal chain: every event below — plan, probes,
  // messages, retrieves — inherits the fresh query id from ambient context.
  HM_OBS_QUERY_SCOPE(hm_obs_query_id);
  ScopedInflight inflight(&inflight_queries_);
  // The registry is the system of record for per-query accounting; the info
  // struct is a thin per-call view, so always accumulate into one and fold it
  // into the metrics at the end even when the caller passed none.
  RangeQueryInfo local_info;
  if (info == nullptr) info = &local_info;
  HM_ASSIGN_OR_RETURN(std::vector<PeerScore> scores,
                      ScorePeers(query, epsilon, querying_peer, info));
  HM_OBS_COUNTER_ADD("query.range_count", 1);  // arguments valid (ScorePeers)
  size_t contact = scores.size();
  if (max_peers_contacted >= 0) {
    contact = std::min<size_t>(contact, static_cast<size_t>(max_peers_contacted));
  }
  const CoarseQuery coarse(query);
  std::vector<ItemId> results =
      Retrieve(querying_peer, scores, contact,
               [&](size_t, const Peer& target) {
                 return target.RangeSearch(query, coarse, epsilon);
               },
               info);
  info->peers_contacted = static_cast<int>(contact);
  std::sort(results.begin(), results.end());
  results.erase(std::unique(results.begin(), results.end()), results.end());
  FinishQuery(*info, hm_obs_query_id, querying_peer, results.size());
  return results;
}

Result<std::vector<ItemId>> HyperMNetwork::KnnQuery(const Vector& query, int k,
                                                    const KnnOptions& options,
                                                    int querying_peer,
                                                    KnnQueryInfo* info) {
  if (query.size() != data_dim_) {
    return InvalidArgumentError("KnnQuery: query dimensionality mismatch");
  }
  if (!vec::AllFinite(query)) return InvalidArgumentError("KnnQuery: non-finite query");
  if (k < 1) return InvalidArgumentError("KnnQuery: k < 1");
  // C·k bounds every per-peer request, which is cast to int below.
  if (!(options.c > 0.0) || !(options.c * k <= std::numeric_limits<int>::max())) {
    return InvalidArgumentError("KnnQuery: C must be positive, finite and C*k within int");
  }
  if (options.max_peers < 1) return InvalidArgumentError("KnnQuery: max_peers < 1");
  if (querying_peer < 0 || querying_peer >= num_peers()) {
    return InvalidArgumentError("KnnQuery: bad querying peer");
  }
  HM_OBS_SPAN("query/knn");
  HM_OBS_COUNTER_ADD("query.knn_count", 1);
  // Root of this query's causal chain (see RangeQuery).
  HM_OBS_QUERY_SCOPE(hm_obs_query_id);
  ScopedInflight inflight(&inflight_queries_);

  // Same thin-view contract as RangeQuery: accumulate locally when the caller
  // passed no info struct so the registry always sees the query's accounting.
  KnnQueryInfo local_info;
  if (info == nullptr) info = &local_info;
  RangeQueryInfo* range_info = &info->range;

  // Plan, then execute: one expanding probe per level (Fig. 5), run like
  // ScorePeers'. Each probe keeps its hop counts and estimated radius in its
  // own outcome slot; the knn.level_radius histogram and the Eq. 8 solver's
  // cost (knn.radius_sweeps, knn.radius_unconverged) are observed at the
  // ordered drain.
  const QueryPlan plan = MakePlanner().PlanKnn(query, k);
  QueryOutcome outcome = MakeExecutor().Execute(plan, querying_peer);
  HM_RETURN_IF_ERROR(DrainLevelOutcomes(outcome, range_info));
  for (const LevelOutcome& out : outcome.levels) {
    info->level_radii.push_back(out.level_radius);
    HM_OBS_HISTOGRAM("knn.level_radius", obs::Buckets::Linear(0.0, 4.0, 32),
                     out.level_radius);
    // Levels whose solver never swept (no summaries found, k beyond them)
    // ran no solve to report.
    if (out.radius_solve.sweeps > 0) {
      HM_OBS_HISTOGRAM("knn.radius_sweeps", obs::Buckets::Exponential(1, 2.0, 8),
                       out.radius_solve.sweeps);
      if (!out.radius_solve.converged) {
        HM_OBS_COUNTER_ADD("knn.radius_unconverged", 1);
      }
    }
  }

  std::vector<PeerScore> merged = std::move(outcome.scores);
  if (merged.empty() && plan.score_policy != ScorePolicy::kSum) {
    // Min/product pruned every peer (an empty level probe zeroes everything).
    // Unlike range queries, a k-NN query must return *something*; fall back
    // to the optimistic sum aggregation, which scores every record.
    int64_t evaluations = 0;
    merged = ScoreLevels(MatchedLevels(outcome.levels), ScorePolicy::kSum,
                         &evaluations);
    HM_OBS_COUNTER_ADD("query.scored_matches", evaluations);
  }
  range_info->candidate_peers = static_cast<int>(merged.size());
  if (merged.empty()) {
    FinishQuery(*range_info, hm_obs_query_id, querying_peer, 0);
    return std::vector<ItemId>{};
  }

  // Step 4-6: P = the smallest score prefix expected to cover k items,
  // floored at kKnnMinPeers (scores are expected values; hedging across a
  // few extra peers costs little and recovers neighbours the estimate missed).
  size_t num_contacted = 0;
  double sum = 0.0;
  for (const PeerScore& ps : merged) {
    if (num_contacted >= static_cast<size_t>(options.max_peers)) break;
    if (sum >= static_cast<double>(k) && num_contacted >= kKnnMinPeers) break;
    sum += ps.score;
    ++num_contacted;
  }
  HM_CHECK_GT(num_contacted, 0u);

  // Steps 7-9: fetch a score-proportional number of items from each peer.
  // Peers return (id, exact distance) pairs so the querier can merge without
  // shipping the vectors themselves.
  std::vector<int> requests(num_contacted);
  for (size_t i = 0; i < num_contacted; ++i) {
    // The share comes first: it is at most 1 (exactly 1 for a single peer),
    // so the request is at most C*k, checked above to fit an int; C*k*s/s
    // could round one ulp above C*k and ask for one item more. The clamp
    // keeps the cast defined whatever the scores.
    const double want = std::ceil(options.c * k * (merged[i].score / sum));
    requests[i] = want >= 1.0 ? static_cast<int>(std::min<double>(
                                    want, std::numeric_limits<int>::max()))
                              : 1;
    info->items_requested += requests[i];
  }
  const CoarseQuery coarse(query);
  std::vector<ScoredItem> fetched =
      Retrieve(querying_peer, merged, num_contacted,
               [&](size_t i, const Peer& target) {
                 return target.NearestItemsScored(query, coarse, requests[i]);
               },
               range_info);
  range_info->peers_contacted = static_cast<int>(num_contacted);
  HM_OBS_HISTOGRAM("knn.items_requested", obs::Buckets::Exponential(1, 2.0, 14),
                   info->items_requested);

  // Step 10: global merge sorted by exact distance (ids are globally unique,
  // so deduplication is by id).
  std::sort(fetched.begin(), fetched.end(), [](const ScoredItem& a, const ScoredItem& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  });
  std::vector<ItemId> result;
  result.reserve(fetched.size());
  std::unordered_set<ItemId> seen;
  for (const ScoredItem& item : fetched) {
    if (!seen.insert(item.id).second) continue;
    result.push_back(item.id);
    if (options.truncate_to_k && result.size() >= static_cast<size_t>(k)) break;
  }
  FinishQuery(*range_info, hm_obs_query_id, querying_peer, result.size());
  return result;
}

Status HyperMNetwork::AddItemWithoutRepublish(int peer, ItemId id,
                                              const Vector& features) {
  if (peer < 0 || peer >= num_peers()) {
    return InvalidArgumentError("AddItemWithoutRepublish: bad peer");
  }
  if (features.size() != data_dim_) {
    return InvalidArgumentError("AddItemWithoutRepublish: dimension mismatch");
  }
  if (!vec::AllFinite(features)) {
    return InvalidArgumentError("AddItemWithoutRepublish: non-finite feature");
  }
  peers_[static_cast<size_t>(peer)].AddItem(id, features);
  // The peer's local store now answers differently even though its published
  // summaries are stale — cached results must not hide the new item.
  ++summary_epoch_;
  return OkStatus();
}

Result<std::vector<ItemId>> HyperMNetwork::PointQuery(const Vector& point,
                                                      int querying_peer,
                                                      RangeQueryInfo* info) {
  return RangeQuery(point, 0.0, querying_peer, /*max_peers_contacted=*/-1, info);
}

Status HyperMNetwork::RepublishPeer(int peer, Rng& rng) {
  if (peer < 0 || peer >= num_peers()) {
    return InvalidArgumentError("RepublishPeer: bad peer");
  }
  const Peer& target = peers_[static_cast<size_t>(peer)];
  if (target.num_items() == 0) return OkStatus();
  HM_OBS_SPAN("republish");
  HM_OBS_COUNTER_ADD("republish.count", 1);
  ++summary_epoch_;  // unpublish + fresh clustering changes answers

  // Unpublish: every replica holder processes one removal message. Removals
  // stay direct (always delivered) whatever the fault plan — a lost
  // unpublish would just leave a stale entry, and TTL expiry is the fault
  // model's real cleanup mechanism.
  for (auto& overlay : overlays_) {
    const int removed = overlay->RemoveByOwner(peer);
    for (int i = 0; i < removed; ++i) {
      stats_.RecordHop(sim::TrafficClass::kReplicate, 32);
    }
  }
  // The fresh publication below recaches; drop the superseded summaries so
  // republish ticks stop refreshing them.
  for (auto& per_layer : published_cache_[static_cast<size_t>(peer)]) {
    per_layer.clear();
  }

  // Fresh per-layer projections of the peer's current collection.
  std::vector<std::vector<std::vector<Vector>>> level_points(1);
  HM_ASSIGN_OR_RETURN(level_points[0], LevelProjections(target));
  return PublishPeers(peer, level_points, rng.NextUint64());
}

Result<std::vector<std::vector<Vector>>> HyperMNetwork::LevelProjections(
    const Peer& peer) const {
  std::vector<std::vector<Vector>> projections(levels_.size());
  const vec::Matrix& rows = peer.item_features();
  Vector item;  // reused across rows; assign() keeps the capacity
  for (size_t r = 0; r < rows.rows(); ++r) {
    item.assign(rows.row(r), rows.row(r) + rows.cols());
    HM_ASSIGN_OR_RETURN(wavelet::Pyramid pyramid,
                        wavelet::DecomposeWith(options_.wavelet_kind, item));
    for (size_t layer = 0; layer < levels_.size(); ++layer) {
      projections[layer].push_back(wavelet::Project(pyramid, levels_[layer]));
    }
  }
  return projections;
}

uint64_t HyperMNetwork::publication_hops(int id) const {
  HM_CHECK_GE(id, 0);
  HM_CHECK_LT(id, num_peers());
  return publication_hops_[static_cast<size_t>(id)];
}

int HyperMNetwork::total_items() const {
  int total = 0;
  for (const Peer& p : peers_) total += static_cast<int>(p.num_items());
  return total;
}

const can::CanOverlay& HyperMNetwork::overlay(int layer) const {
  HM_CHECK_GE(layer, 0);
  HM_CHECK_LT(static_cast<size_t>(layer), overlays_.size());
  return *overlays_[static_cast<size_t>(layer)];
}

const wavelet::Level& HyperMNetwork::level(int layer) const {
  HM_CHECK_GE(layer, 0);
  HM_CHECK_LT(static_cast<size_t>(layer), levels_.size());
  return levels_[static_cast<size_t>(layer)];
}

const Peer& HyperMNetwork::peer(int id) const {
  HM_CHECK_GE(id, 0);
  HM_CHECK_LT(id, num_peers());
  return peers_[static_cast<size_t>(id)];
}

}  // namespace hyperm::core
