#include "hyperm/query_plan.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "backbone/manager.h"
#include "common/check.h"
#include "geom/radius_estimator.h"
#include "obs/event_log.h"
#include "obs/trace.h"
#include "vec/vector.h"

namespace hyperm::core {

// The flight recorder's probe/level cause payload mirrors LevelDelivery
// numerically (obs sits below hyperm in the dependency order).
static_assert(static_cast<int>(LevelDelivery::kDelivered) == 0);
static_assert(static_cast<int>(LevelDelivery::kDetoured) == 1);
static_assert(static_cast<int>(LevelDelivery::kDeferred) == 2);
static_assert(static_cast<int>(LevelDelivery::kLost) == 3);

namespace {

// Host-time span of one level's work. Level spans are disjoint and in issue
// order; perfbench's ledger charges every span named query/layer* to one
// bucket.
std::string LayerSpanName(int layer) { return "query/layer" + std::to_string(layer); }

// Maps an undelivered probe's transport cause onto the level lattice: causes
// a heal window can plausibly fix become kDeferred, dead ends kLost.
LevelDelivery ClassifyFailure(net::DeliveryOutcome outcome) {
  switch (outcome) {
    case net::DeliveryOutcome::kLostPartition:
    case net::DeliveryOutcome::kLostUnreachable:
      return LevelDelivery::kDeferred;
    default:
      return LevelDelivery::kLost;
  }
}

}  // namespace

uint64_t PlanSignature(const QueryPlan& plan) {
  // FNV-1a over the plan's canonical bytes. Raw double bits (not rounded
  // text) so two plans hash equal iff they issue byte-identical probes.
  uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  };
  const auto mix_double = [&mix](double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  mix(static_cast<uint64_t>(plan.score_policy));
  mix(plan.probes.size());
  for (const LevelProbe& probe : plan.probes) {
    mix(static_cast<uint64_t>(probe.layer));
    mix(static_cast<uint64_t>(probe.layer_dim));
    mix(probe.expanding ? 1 : 0);
    mix(static_cast<uint64_t>(probe.knn_k));
    mix_double(probe.max_probe_radius);
    mix_double(probe.key_sphere.radius);
    for (double c : probe.key_sphere.center) mix_double(c);
  }
  return h;
}

const char* LevelDeliveryName(LevelDelivery delivery) {
  switch (delivery) {
    case LevelDelivery::kDelivered: return "delivered";
    case LevelDelivery::kDetoured: return "detoured";
    case LevelDelivery::kDeferred: return "deferred";
    case LevelDelivery::kLost: return "lost";
  }
  return "unknown";
}

std::vector<const LevelMatches*> MatchedLevels(
    const std::vector<LevelOutcome>& levels) {
  std::vector<const LevelMatches*> matched;
  matched.reserve(levels.size());
  for (const LevelOutcome& level : levels) matched.push_back(&level.matched);
  return matched;
}

QueryPlanner::QueryPlanner(const std::vector<wavelet::Level>* levels,
                           const std::vector<KeyMapper>* mappers,
                           wavelet::WaveletKind wavelet_kind,
                           int num_detail_levels, ScorePolicy score_policy,
                           const QueryPlanOptions& options)
    : levels_(levels),
      mappers_(mappers),
      wavelet_kind_(wavelet_kind),
      num_detail_levels_(num_detail_levels),
      score_policy_(score_policy),
      options_(options) {
  HM_CHECK(levels != nullptr);
  HM_CHECK(mappers != nullptr);
  HM_CHECK_EQ(levels->size(), mappers->size());
}

QueryPlan QueryPlanner::NewPlan() const {
  QueryPlan plan;
  plan.score_policy = score_policy_;
  plan.reissue_budget = options_.reissue_budget;
  plan.heal_window_ms = options_.heal_window_ms;
  return plan;
}

QueryPlan QueryPlanner::PlanRange(const Vector& query, double epsilon) const {
  QueryPlan plan = NewPlan();
  // One decomposition serves every level probe (Project is per-level).
  // The caller validated the query's dimensionality, so this cannot fail.
  Result<wavelet::Pyramid> pyramid = wavelet::DecomposeWith(wavelet_kind_, query);
  HM_CHECK(pyramid.ok()) << pyramid.status().ToString();
  plan.probes.reserve(levels_->size());
  for (size_t layer = 0; layer < levels_->size(); ++layer) {
    const wavelet::Level& level = (*levels_)[layer];
    LevelProbe probe;
    probe.layer = static_cast<int>(layer);
    probe.layer_dim = static_cast<int>(level.dim());
    const Vector projection = wavelet::Project(pyramid.value(), level);
    const double level_epsilon =
        epsilon * wavelet::RadiusScaleFor(wavelet_kind_, num_detail_levels_, level);
    probe.key_sphere = (*mappers_)[layer].ToKeySphere(projection, level_epsilon);
    // Guard the Theorem 4.1 boundary against floating-point rounding in the
    // key mapping: a cluster's farthest member sits exactly on its sphere, and
    // one ulp of per-coordinate error must not turn into a false dismissal.
    // The key cube has unit extent, so absolute slack is safe and negligible.
    probe.key_sphere.radius += 1e-9;
    plan.probes.push_back(std::move(probe));
  }
  return plan;
}

QueryPlan QueryPlanner::PlanKnn(const Vector& query, int k) const {
  QueryPlan plan = NewPlan();
  Result<wavelet::Pyramid> pyramid = wavelet::DecomposeWith(wavelet_kind_, query);
  HM_CHECK(pyramid.ok()) << pyramid.status().ToString();
  plan.probes.reserve(levels_->size());
  for (size_t layer = 0; layer < levels_->size(); ++layer) {
    const wavelet::Level& level = (*levels_)[layer];
    LevelProbe probe;
    probe.layer = static_cast<int>(layer);
    probe.layer_dim = static_cast<int>(level.dim());
    probe.expanding = true;
    probe.knn_k = k;
    // Fig. 5 widening loop bounds: the probe may grow to the key cube's
    // diagonal (every cluster is then in range) from a 5% start.
    probe.max_probe_radius = std::sqrt(static_cast<double>(probe.layer_dim));
    probe.key_sphere.center =
        (*mappers_)[layer].ToKey(wavelet::Project(pyramid.value(), level));
    probe.key_sphere.radius = 0.05 * probe.max_probe_radius;
    plan.probes.push_back(std::move(probe));
  }
  return plan;
}

QueryExecutor::QueryExecutor(
    std::vector<std::unique_ptr<can::CanOverlay>>* overlays, sim::Simulator* sim,
    backbone::BackboneManager* backbone, ShortcutProvider* shortcuts)
    : overlays_(overlays), sim_(sim), backbone_(backbone), shortcuts_(shortcuts) {
  HM_CHECK(overlays != nullptr);
  HM_CHECK(sim != nullptr);
}

void QueryExecutor::RunProbe(const LevelProbe& probe, int querying_peer,
                             LevelOutcome* out) {
  HM_OBS_SPAN(LayerSpanName(probe.layer));
  can::CanOverlay& overlay = *(*overlays_)[static_cast<size_t>(probe.layer)];
  bool delivered = true;
  net::DeliveryOutcome failure = net::DeliveryOutcome::kDelivered;
  [&] {
    if (!probe.expanding) {
      // Range probe: one threshold range query, whose matches are scored
      // against the same sphere the overlay evaluated. (The backbone-first
      // stage, when it applies, is served plan-wide in Execute before the
      // probe loop; a probe reaching here runs the full CAN path.)
      overlay::NodeId hint =
          shortcuts_ != nullptr
              ? shortcuts_->EntryHint(probe.layer, probe.key_sphere)
              : overlay::kInvalidNode;
      Result<overlay::RangeQueryResult> result =
          overlay.RangeQuery(probe.key_sphere, querying_peer, hint);
      if (!result.ok()) {
        out->status = result.status();
        return;
      }
      if (hint != overlay::kInvalidNode && !result.value().delivered) {
        // Fail-soft: the stale hint's attempt costs its airtime, never
        // recall — the probe re-runs on the plain greedy walk and the miner
        // demotes the association.
        HM_OBS_EVENT(.sim_ms = sim_->now(),
                     .kind = obs::EventKind::kServeShortcut,
                     .level = probe.layer, .src = querying_peer, .dst = hint,
                     .cause = 1, .value = result.value().latency_ms);
        shortcuts_->Observe(probe.layer, probe.key_sphere,
                            overlay::kInvalidNode, /*delivered=*/false,
                            /*via_shortcut=*/true);
        out->routing_hops = result.value().routing_hops;
        out->latency_ms = result.value().latency_ms;
        out->detours = result.value().route_detours;
        hint = overlay::kInvalidNode;
        result = overlay.RangeQuery(probe.key_sphere, querying_peer);
        if (!result.ok()) {
          out->status = result.status();
          return;
        }
      } else if (hint != overlay::kInvalidNode) {
        HM_OBS_EVENT(.sim_ms = sim_->now(),
                     .kind = obs::EventKind::kServeShortcut,
                     .level = probe.layer, .src = querying_peer, .dst = hint,
                     .cause = 0, .value = result.value().latency_ms);
      }
      out->routing_hops += result.value().routing_hops;
      out->flood_hops = result.value().flood_hops;
      out->latency_ms += result.value().latency_ms;
      out->detours += result.value().route_detours;
      delivered = result.value().delivered;
      failure = result.value().outcome;
      if (shortcuts_ != nullptr) {
        shortcuts_->Observe(probe.layer, probe.key_sphere,
                            result.value().entry_node, delivered,
                            /*via_shortcut=*/hint != overlay::kInvalidNode);
      }
      out->matched = LevelMatches{probe.layer_dim, probe.key_sphere.radius,
                                  std::move(result.value().matches)};
      return;
    }

    // Expanding probe: widen the overlay range query until the discovered
    // summaries can plausibly supply k items (Fig. 5, step 2 needs the
    // reachable clusters before Eq. 8 can be inverted).
    const Vector& key_center = probe.key_sphere.center;
    const double max_radius = probe.max_probe_radius;
    double probe_radius = probe.key_sphere.radius;
    overlay::RangeQueryResult last;
    // The discovered clusters as Eq. 8 sees them, rebuilt once per widening
    // step from the records (every widening sphere shares the key center, so
    // each record's distance is already the one Eq. 8 needs); the final
    // step's list feeds the radius solve below.
    std::vector<geom::ClusterView> views;
    while (true) {
      geom::Sphere probe_sphere{key_center, probe_radius};
      Result<overlay::RangeQueryResult> attempt =
          overlay.RangeQuery(probe_sphere, querying_peer);
      if (!attempt.ok()) {
        out->status = attempt.status();
        return;
      }
      last = std::move(attempt).value();
      out->routing_hops += last.routing_hops;
      out->flood_hops += last.flood_hops;
      // Probe widenings within a layer are sequential round trips.
      out->latency_ms += last.latency_ms;
      out->detours += last.route_detours;
      if (!last.delivered) {
        delivered = false;
        failure = last.outcome;
      }
      views.clear();
      views.reserve(last.matches.size());
      for (const overlay::ClusterMatch& match : last.matches) {
        views.push_back(geom::ClusterView{match.radius, match.distance, match.items});
      }
      if (probe_radius >= max_radius) break;
      if (!views.empty() &&
          geom::ExpectedItems(probe.layer_dim, views, probe_radius) >=
              static_cast<double>(probe.knn_k)) {
        break;
      }
      probe_radius = std::min(max_radius, probe_radius * 2.0);
    }

    // Invert Eq. 8 over the discovered clusters for the per-level radius.
    double level_radius = probe_radius;
    if (!views.empty()) {
      Result<double> solved = geom::SolveRadiusForCount(
          probe.layer_dim, views, static_cast<double>(probe.knn_k), {},
          &out->radius_solve);
      if (solved.ok()) level_radius = std::min(solved.value(), probe_radius);
    }
    out->level_radius = level_radius;

    // The level is scored against the estimated radius. The probe's matches
    // are a superset of the refined query's (level_radius <= probe_radius),
    // so no second flood is needed.
    out->matched =
        LevelMatches{probe.layer_dim, level_radius, std::move(last.matches)};
  }();
  if (delivered) {
    out->delivery =
        out->detours > 0 ? LevelDelivery::kDetoured : LevelDelivery::kDelivered;
  } else {
    out->delivery = ClassifyFailure(failure);
  }
}

void QueryExecutor::MergeReissue(LevelOutcome&& retry, double heal_wait_ms,
                                 LevelOutcome* out) {
  out->status = retry.status;
  out->routing_hops += retry.routing_hops;
  out->flood_hops += retry.flood_hops;
  out->detours += retry.detours;
  // A re-issued level answered only after the heal wait plus its re-probe.
  out->latency_ms += heal_wait_ms + retry.latency_ms;
  ++out->reissues;
  if (!retry.status.ok()) return;
  out->delivery = retry.delivery;
  if (retry.delivery == LevelDelivery::kDelivered ||
      retry.delivery == LevelDelivery::kDetoured) {
    // The healed probe's matches supersede the (empty) deferred ones and join
    // the aggregation under the plan's score policy like any other level.
    out->matched = std::move(retry.matched);
    out->level_radius = retry.level_radius;
    out->radius_solve = retry.radius_solve;
  }
}

QueryOutcome QueryExecutor::Execute(const QueryPlan& plan, int querying_peer) {
  QueryOutcome result;
  std::vector<LevelOutcome>& outcomes = result.levels;
  outcomes.resize(plan.probes.size());
  // Flight recorder: plan emission + round-0 probe issues, stamped before
  // any probe runs.
  const double plan_ms = sim_->now();
  HM_OBS_EVENT(.sim_ms = plan_ms, .kind = obs::EventKind::kQueryPlan,
               .src = querying_peer,
               .aux = static_cast<int64_t>(plan.probes.size()));
  for (const LevelProbe& probe : plan.probes) {
    HM_OBS_EVENT(.sim_ms = plan_ms, .kind = obs::EventKind::kProbeIssue,
                 .level = probe.layer, .attempt = 0, .src = querying_peer);
  }
  // Backbone-first stage: a range plan (one non-expanding probe per level,
  // in level order) is offered to the supernode backbone as a whole — one
  // CDS walk serves every level, and under min/product aggregation a domain
  // provably empty at any single level is pruned at every level (a peer
  // missing from one level scores zero overall, so nothing is lost). Any
  // fail-soft gate (stale election, partitioned/crashed backbone, lost walk
  // token) refuses the plan and every probe falls through to the full CAN
  // probe loop below — recall can never be worse than the digest-less path
  // at the same fault level. Expanding (k-NN) probes never take this stage:
  // their widening loop re-derives radii from discovered mass, which the
  // per-domain digest summaries cannot answer soundly.
  bool backbone_range_plan = backbone_ != nullptr && !plan.probes.empty();
  if (backbone_range_plan) {
    for (size_t i = 0; i < plan.probes.size(); ++i) {
      if (plan.probes[i].expanding ||
          plan.probes[i].layer != static_cast<int>(i)) {
        backbone_range_plan = false;
        break;
      }
    }
  }
  if (backbone_range_plan) {
    std::vector<backbone::ProbeServeResult> served;
    {
      // One walk serves every level, so its host time is charged to the
      // levels as a whole.
      HM_OBS_SPAN("query/layers");
      std::vector<geom::Sphere> key_spheres;
      key_spheres.reserve(plan.probes.size());
      for (const LevelProbe& probe : plan.probes) {
        key_spheres.push_back(probe.key_sphere);
      }
      backbone_range_plan = backbone_->ServeRangePlan(
          key_spheres, querying_peer,
          /*conjunctive=*/plan.score_policy != ScorePolicy::kSum, &served);
    }
    if (backbone_range_plan) {
      for (size_t i = 0; i < plan.probes.size(); ++i) {
        outcomes[i].routing_hops = served[i].walk_messages;
        outcomes[i].flood_hops = served[i].descend_messages;
        outcomes[i].latency_ms = served[i].latency_ms;
        outcomes[i].matched =
            LevelMatches{plan.probes[i].layer_dim, plan.probes[i].key_sphere.radius,
                         std::move(served[i].matches)};
        outcomes[i].delivery = LevelDelivery::kDelivered;
      }
    }
  }
  if (!backbone_range_plan) {
    // The levels are independent probes "in parallel" in simulated time (the
    // query's latency is the slowest level's); on the host they run in level
    // order, so every transport consumes its message stream in issue order.
    for (size_t i = 0; i < plan.probes.size(); ++i) {
      HM_OBS_LEVEL_SCOPE(plan.probes[i].layer);
      RunProbe(plan.probes[i], querying_peer, &outcomes[i]);
    }
  }
  for (size_t i = 0; i < outcomes.size(); ++i) {
    HM_OBS_EVENT(.sim_ms = sim_->now(), .kind = obs::EventKind::kProbeOutcome,
                 .level = plan.probes[i].layer, .attempt = 0,
                 .src = querying_peer,
                 .cause = static_cast<int32_t>(outcomes[i].delivery),
                 .value = outcomes[i].latency_ms);
  }
  const bool reissue = plan.reissue_budget > 0 && plan.heal_window_ms > 0.0;
  for (int round = 0; reissue && round < plan.reissue_budget; ++round) {
    std::vector<size_t> deferred;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      if (outcomes[i].status.ok() &&
          outcomes[i].delivery == LevelDelivery::kDeferred) {
        deferred.push_back(i);
      }
    }
    if (deferred.empty()) break;
    // Let the world turn for one heal window — mobility ticks, partition
    // windows closing, republishes — then re-probe every deferred level in
    // level order.
    HM_OBS_EVENT(.sim_ms = sim_->now(), .kind = obs::EventKind::kHealWait,
                 .src = querying_peer, .value = plan.heal_window_ms,
                 .aux = static_cast<int64_t>(deferred.size()));
    sim_->RunUntil(sim_->now() + plan.heal_window_ms);
    for (size_t i : deferred) {
      HM_OBS_EVENT(.sim_ms = sim_->now(), .kind = obs::EventKind::kProbeIssue,
                   .level = plan.probes[i].layer, .attempt = round + 1,
                   .src = querying_peer);
      LevelOutcome retry;
      {
        HM_OBS_LEVEL_SCOPE(plan.probes[i].layer);
        RunProbe(plan.probes[i], querying_peer, &retry);
      }
      HM_OBS_EVENT(.sim_ms = sim_->now(),
                   .kind = obs::EventKind::kProbeOutcome,
                   .level = plan.probes[i].layer, .attempt = round + 1,
                   .src = querying_peer,
                   .cause = static_cast<int32_t>(retry.delivery),
                   .value = retry.latency_ms);
      MergeReissue(std::move(retry), plan.heal_window_ms, &outcomes[i]);
    }
  }
  // Every level has settled: score them all at once (DESIGN.md §24).
  result.scores = ScoreLevels(MatchedLevels(outcomes), plan.score_policy,
                              &result.scored_matches);
  return result;
}

}  // namespace hyperm::core
