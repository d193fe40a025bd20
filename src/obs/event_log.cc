#include "obs/event_log.h"

#include <cstdio>

#include "obs/json.h"

namespace hyperm::obs {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kQueryPlan: return "query_plan";
    case EventKind::kProbeIssue: return "probe_issue";
    case EventKind::kProbeOutcome: return "probe_outcome";
    case EventKind::kHealWait: return "heal_wait";
    case EventKind::kLevelFinal: return "level_final";
    case EventKind::kQueryDone: return "query_done";
    case EventKind::kMsgSend: return "msg_send";
    case EventKind::kMsgDeliver: return "msg_deliver";
    case EventKind::kMsgDrop: return "msg_drop";
    case EventKind::kMsgDeadLetter: return "msg_dead_letter";
    case EventKind::kTxQueueWait: return "tx_queue_wait";
    case EventKind::kTxAirtime: return "tx_airtime";
    case EventKind::kTxUnreachable: return "tx_unreachable";
    case EventKind::kMobilityTick: return "mobility_tick";
    case EventKind::kIslandChange: return "island_change";
    case EventKind::kPeerCrash: return "peer_crash";
    case EventKind::kPeerRejoin: return "peer_rejoin";
    case EventKind::kSummariesExpired: return "summaries_expired";
    case EventKind::kRepublishRound: return "republish_round";
    case EventKind::kRouteCacheBuild: return "route_cache_build";
    case EventKind::kRouteCacheInvalidate: return "route_cache_invalidate";
    case EventKind::kBackboneElect: return "backbone_elect";
    case EventKind::kBackboneReport: return "backbone_report";
    case EventKind::kBackboneDigest: return "backbone_digest";
    case EventKind::kBackboneProbe: return "backbone_probe";
    case EventKind::kBackboneDecision: return "backbone_decision";
    case EventKind::kServeAdmit: return "serve_admit";
    case EventKind::kServeShed: return "serve_shed";
    case EventKind::kServeCacheHit: return "serve_cache_hit";
    case EventKind::kServeShortcut: return "serve_shortcut";
    case EventKind::kMacDefer: return "mac_defer";
    case EventKind::kMacCollision: return "mac_collision";
    case EventKind::kRouteDiscover: return "route_discover";
    case EventKind::kRouteError: return "route_error";
  }
  return "unknown";
}

Subsystem SubsystemOf(EventKind kind) {
  switch (kind) {
    case EventKind::kQueryPlan:
    case EventKind::kProbeIssue:
    case EventKind::kProbeOutcome:
    case EventKind::kHealWait:
    case EventKind::kLevelFinal:
    case EventKind::kQueryDone:
      return Subsystem::kQuery;
    case EventKind::kMsgSend:
    case EventKind::kMsgDeliver:
    case EventKind::kMsgDrop:
    case EventKind::kMsgDeadLetter:
      return Subsystem::kNet;
    case EventKind::kTxQueueWait:
    case EventKind::kTxAirtime:
    case EventKind::kTxUnreachable:
    case EventKind::kRouteCacheBuild:
    case EventKind::kRouteCacheInvalidate:
    case EventKind::kMacDefer:
    case EventKind::kMacCollision:
      return Subsystem::kChannel;
    case EventKind::kRouteDiscover:
    case EventKind::kRouteError:
      return Subsystem::kRoute;
    case EventKind::kMobilityTick:
    case EventKind::kIslandChange:
      return Subsystem::kMobility;
    case EventKind::kPeerCrash:
    case EventKind::kPeerRejoin:
    case EventKind::kSummariesExpired:
    case EventKind::kRepublishRound:
      return Subsystem::kSoftState;
    case EventKind::kBackboneElect:
    case EventKind::kBackboneReport:
    case EventKind::kBackboneDigest:
    case EventKind::kBackboneProbe:
    case EventKind::kBackboneDecision:
      return Subsystem::kBackbone;
    case EventKind::kServeAdmit:
    case EventKind::kServeShed:
    case EventKind::kServeCacheHit:
    case EventKind::kServeShortcut:
      return Subsystem::kServe;
  }
  return Subsystem::kQuery;
}

const char* SubsystemName(Subsystem subsystem) {
  switch (subsystem) {
    case Subsystem::kQuery: return "query";
    case Subsystem::kNet: return "net";
    case Subsystem::kChannel: return "channel";
    case Subsystem::kMobility: return "mobility";
    case Subsystem::kSoftState: return "softstate";
    case Subsystem::kBackbone: return "backbone";
    case Subsystem::kServe: return "serve";
    case Subsystem::kRoute: return "route";
  }
  return "unknown";
}

const char* DeliveryCauseName(int32_t cause) {
  switch (cause) {
    case 0: return "delivered";
    case 1: return "loss";
    case 2: return "down";
    case 3: return "partition";
    case 4: return "unreachable";
    case 5: return "mac";
    default: return "unknown";
  }
}

const char* LevelFateName(int32_t fate) {
  switch (fate) {
    case 0: return "delivered";
    case 1: return "detoured";
    case 2: return "deferred";
    case 3: return "lost";
    default: return "unknown";
  }
}

const char* ShedCauseName(int32_t cause) {
  switch (cause) {
    case 0: return "tx_backlog";
    case 1: return "dispatch_lag";
    default: return "unknown";
  }
}

const char* MacCauseName(int32_t cause) {
  switch (cause) {
    case 0: return "deferrals";
    case 1: return "collisions";
    case 2: return "retransmits";
    case 3: return "drops_retry_limit";
    default: return "unknown";
  }
}

void TimeSeries::Sample(double sim_ms, double value) {
  if (ring_.size() < capacity_) {
    ring_.push_back(Point{sim_ms, value});
  } else {
    ring_[head_] = Point{sim_ms, value};
    head_ = (head_ + 1) % capacity_;
  }
  ++total_;
}

std::vector<TimeSeries::Point> TimeSeries::Points() const {
  std::vector<Point> out;
  out.reserve(ring_.size());
  // Oldest first: once the ring wrapped, head_ is the oldest slot.
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

void EventLog::Arm(size_t capacity) {
  capacity_ = capacity > 0 ? capacity : 1;
  events_.reserve(events_.size() < capacity_ ? capacity_ : events_.size());
  armed_ = true;
}

void EventLog::Record(Event event) {
  if (!enabled()) return;
  if (event.query_id < 0) event.query_id = ctx_query_;
  if (event.level < 0) event.level = ctx_level_;
  if (event.msg_id < 0) event.msg_id = ctx_msg_;
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(event);
}

TimeSeries& EventLog::Series(const std::string& name, size_t capacity) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_.emplace(name, TimeSeries(capacity)).first;
  }
  return it->second;
}

void EventLog::Reset() {
  armed_ = false;
  capacity_ = kDefaultCapacity;
  dropped_ = 0;
  events_.clear();
  events_.shrink_to_fit();
  series_.clear();
  next_query_id_ = 0;
  next_msg_id_ = 0;
  ctx_query_ = -1;
  ctx_level_ = -1;
  ctx_msg_ = -1;
}

EventLog& EventLog::Global() {
  static EventLog* log = new EventLog();  // leaked: alive for exit-time writers
  return *log;
}

std::string EventsToJsonl(const std::vector<Event>& events, uint64_t dropped) {
  std::string out;
  out.reserve(events.size() * 96 + 64);
  for (const Event& e : events) {
    Json obj = Json::Object();
    obj.Set("attempt", Json(e.attempt));
    obj.Set("aux", Json(e.aux));
    obj.Set("cause", Json(e.cause));
    obj.Set("dst", Json(e.dst));
    obj.Set("kind", Json(EventKindName(e.kind)));
    obj.Set("level", Json(e.level));
    obj.Set("msg_id", Json(e.msg_id));
    obj.Set("query_id", Json(e.query_id));
    obj.Set("sim_ms", Json(e.sim_ms));
    obj.Set("src", Json(e.src));
    obj.Set("sub", Json(SubsystemName(SubsystemOf(e.kind))));
    obj.Set("value", Json(e.value));
    out += obj.Dump(-1);
    out.push_back('\n');
  }
  Json trailer = Json::Object();
  trailer.Set("dropped_events", Json(dropped));
  trailer.Set("events", Json(static_cast<uint64_t>(events.size())));
  out += trailer.Dump(-1);
  out.push_back('\n');
  return out;
}

bool WriteEventsJsonl(const std::string& path, const EventLog& log) {
  const std::string text = EventsToJsonl(log.events(), log.dropped());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int close_rc = std::fclose(f);
  return written == text.size() && close_rc == 0;
}

}  // namespace hyperm::obs
