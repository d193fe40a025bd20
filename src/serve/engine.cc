#include "serve/engine.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "obs/event_log.h"
#include "obs/trace.h"

namespace hyperm::serve {

// The flight recorder names shed causes by number (obs::ShedCauseName);
// this enum is the typed mirror the engine sheds with. Pin the numbering so
// the two tables cannot drift apart.
static_assert(static_cast<int32_t>(ShedCause::kTxBacklog) == 0 &&
                  static_cast<int32_t>(ShedCause::kDispatchLag) == 1,
              "ShedCause must mirror obs::ShedCauseName's numbering");

const char* ShedCauseName(ShedCause cause) {
  return obs::ShedCauseName(static_cast<int32_t>(cause));
}

double ServeStats::Quantile(double q) const {
  if (t2a_ms.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const size_t n = t2a_ms.size();
  size_t index = static_cast<size_t>(q * static_cast<double>(n));
  if (index >= n) index = n - 1;
  return t2a_ms[index];
}

ServeEngine::ServeEngine(core::HyperMNetwork* network,
                         const ServeOptions& options)
    : network_(network),
      options_(options),
      cache_(network->num_peers(), options.cache),
      shortcuts_(options.shortcuts) {
  HM_CHECK(network_ != nullptr);
  if (options_.shortcuts.enabled) {
    network_->set_shortcut_provider(&shortcuts_);
  }
}

ServeEngine::~ServeEngine() {
  if (options_.shortcuts.enabled) {
    network_->set_shortcut_provider(nullptr);
  }
}

Result<ServeStats> ServeEngine::Run(
    const std::vector<QueryTemplate>& templates,
    const std::vector<Arrival>& schedule, const CompletionHook& on_complete) {
  if (templates.empty()) {
    return InvalidArgumentError("ServeEngine: empty template population");
  }
  ServeStats stats;
  stats.offered = schedule.size();
  stats.duration_ms = options_.workload.duration_ms;

  // Plans — and therefore cache keys — are fixed per template; compile each
  // once (pure math) instead of per arrival.
  std::vector<uint64_t> signatures(templates.size());
  for (size_t i = 0; i < templates.size(); ++i) {
    const QueryTemplate& t = templates[i];
    const core::QueryPlan plan =
        t.knn ? network_->CompileKnnPlan(t.center, t.k)
              : network_->CompileRangePlan(t.center, t.epsilon);
    signatures[i] = core::PlanSignature(plan);
  }

  const channel::RadioChannel* channel = network_->radio_channel();
  // Schedules are zero-based; the serving session starts wherever the
  // network's clock already is (after settling / previous sessions).
  const double start_ms = network_->now();
  for (const Arrival& arrival : schedule) {
    if (arrival.template_id < 0 ||
        static_cast<size_t>(arrival.template_id) >= templates.size()) {
      return InvalidArgumentError("ServeEngine: arrival template out of range");
    }
    if (arrival.querying_peer < 0 ||
        arrival.querying_peer >= network_->num_peers()) {
      return InvalidArgumentError("ServeEngine: arrival peer out of range");
    }
    // Open-loop dispatch: the clock never waits for completions, and a
    // previous query whose airtime pushed it past this arrival shows up as
    // dispatch lag billed to this query's time-to-answer.
    const double scheduled_ms = start_ms + arrival.t_ms;
    if (network_->now() < scheduled_ms) network_->AdvanceTo(scheduled_ms);
    const double now = network_->now();
    const double lag = now - scheduled_ms;
    const double backlog = channel ? channel->MaxQueueBacklogMs(now) : 0.0;

    // Admission. Backlog outranks lag: when both are over their watermarks
    // the radio is the bottleneck and the lag is just its echo.
    if (options_.admission.max_backlog_ms > 0.0 &&
        backlog > options_.admission.max_backlog_ms) {
      ++stats.shed;
      ++stats.shed_tx_backlog;
      HM_OBS_COUNTER_ADD("serve.shed.tx_backlog", 1);
      HM_OBS_EVENT(.sim_ms = now, .kind = obs::EventKind::kServeShed,
                   .src = arrival.querying_peer,
                   .cause = static_cast<int32_t>(ShedCause::kTxBacklog),
                   .value = backlog);
      continue;
    }
    if (options_.admission.max_lag_ms > 0.0 &&
        lag > options_.admission.max_lag_ms) {
      ++stats.shed;
      ++stats.shed_dispatch_lag;
      HM_OBS_COUNTER_ADD("serve.shed.dispatch_lag", 1);
      HM_OBS_EVENT(.sim_ms = now, .kind = obs::EventKind::kServeShed,
                   .src = arrival.querying_peer,
                   .cause = static_cast<int32_t>(ShedCause::kDispatchLag),
                   .value = lag);
      continue;
    }
    ++stats.admitted;
    HM_OBS_COUNTER_ADD("serve.admitted", 1);
    HM_OBS_EVENT(.sim_ms = now, .kind = obs::EventKind::kServeAdmit,
                 .src = arrival.querying_peer, .value = lag);
    if (channel != nullptr) {
      // Per-node queue depth at the query's entry point — the per-node view
      // complementing the channel.queue.* gauges set after the run.
      HM_OBS_HISTOGRAM("channel.queue.backlog_ms",
                       obs::Buckets::Exponential(1, 2.0, 16),
                       channel->QueueBacklogMs(arrival.querying_peer, now));
    }

    const QueryTemplate& t = templates[static_cast<size_t>(arrival.template_id)];
    const uint64_t signature =
        signatures[static_cast<size_t>(arrival.template_id)];
    const uint64_t epoch = network_->summary_epoch();
    if (cache_.enabled()) {
      const std::vector<core::ItemId>* cached =
          cache_.Lookup(arrival.querying_peer, signature, epoch, now);
      if (cached != nullptr) {
        // Answered locally: zero airtime, so time-to-answer is pure lag.
        const double t2a = lag;
        ++stats.cache_hits;
        ++stats.completed;
        if (t2a <= options_.deadline_ms) ++stats.deadline_met;
        stats.t2a_ms.push_back(t2a);
        HM_OBS_COUNTER_ADD("serve.cache.hits", 1);
        HM_OBS_HISTOGRAM("serve.t2a_ms",
                         obs::Buckets::Exponential(1, 2.0, 16), t2a);
        HM_OBS_EVENT(.sim_ms = now, .kind = obs::EventKind::kServeCacheHit,
                     .src = arrival.querying_peer,
                     .aux = static_cast<int64_t>(cached->size()));
        if (on_complete) on_complete(arrival, *cached, /*cache_hit=*/true, t2a);
        continue;
      }
      ++stats.cache_misses;
      HM_OBS_COUNTER_ADD("serve.cache.misses", 1);
    }

    double latency_ms = 0.0;
    Result<std::vector<core::ItemId>> answer = [&] {
      if (t.knn) {
        core::KnnQueryInfo info;
        auto result = network_->KnnQuery(t.center, t.k, core::KnnOptions{},
                                         arrival.querying_peer, &info);
        latency_ms = info.range.latency_ms;
        return result;
      }
      core::RangeQueryInfo info;
      auto result = network_->RangeQuery(t.center, t.epsilon,
                                         arrival.querying_peer,
                                         /*max_peers_contacted=*/-1, &info);
      latency_ms = info.latency_ms;
      return result;
    }();
    if (!answer.ok()) {
      ++stats.failed;
      HM_OBS_COUNTER_ADD("serve.failed", 1);
      continue;
    }
    // network_->now() re-read: heal-window re-issues advance the clock under
    // the query, and that wait is part of the answer's age too.
    const double t2a = (network_->now() - scheduled_ms) + latency_ms;
    if (cache_.enabled() && network_->summary_epoch() == epoch) {
      cache_.Fill(arrival.querying_peer, signature, epoch, network_->now(),
                  answer.value());
    }
    ++stats.completed;
    if (t2a <= options_.deadline_ms) ++stats.deadline_met;
    stats.t2a_ms.push_back(t2a);
    HM_OBS_HISTOGRAM("serve.t2a_ms", obs::Buckets::Exponential(1, 2.0, 16),
                     t2a);
    if (on_complete) {
      on_complete(arrival, answer.value(), /*cache_hit=*/false, t2a);
    }
  }

  std::sort(stats.t2a_ms.begin(), stats.t2a_ms.end());
  if (channel != nullptr) {
    HM_OBS_GAUGE_SET("channel.queue.high_watermark_ms",
                     channel->queue_high_watermark_ms());
    HM_OBS_GAUGE_SET("channel.queue.max_backlog_ms",
                     channel->MaxQueueBacklogMs(network_->now()));
  }
  return stats;
}

}  // namespace hyperm::serve
