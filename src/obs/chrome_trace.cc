#include "obs/chrome_trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace hyperm::obs {
namespace {

constexpr int kPid = 0;

// Track (tid) layout: 0 is the global "sim" track, peer n lives on n + 1.
int32_t TrackOf(int32_t node) { return node >= 0 ? node + 1 : 0; }

Json BaseEvent(const char* ph, const std::string& name, const char* cat,
               int32_t tid, double ts_us) {
  Json e = Json::Object();
  e.Set("ph", Json(ph));
  e.Set("name", Json(name));
  e.Set("cat", Json(cat));
  e.Set("pid", Json(kPid));
  e.Set("tid", Json(tid));
  e.Set("ts", Json(ts_us));
  return e;
}

Json Instant(const std::string& name, const char* cat, int32_t tid,
             double ts_us) {
  Json e = BaseEvent("i", name, cat, tid, ts_us);
  e.Set("s", Json("t"));  // thread-scoped instant
  return e;
}

// Unique async id per (query, level, reissue round); queries themselves use
// their raw id on a separate category, so the spaces cannot collide.
int64_t ProbeAsyncId(int64_t query_id, int32_t level, int32_t attempt) {
  return (query_id * 64 + level) * 16 + attempt;
}

std::string ProbeName(int64_t query_id, int32_t level, int32_t attempt) {
  std::string name = "q";
  name += std::to_string(query_id);
  name += " L";
  name += std::to_string(level);
  name += " r";
  name += std::to_string(attempt);
  return name;
}

}  // namespace

Json ChromeTraceFromLog(const EventLog& log) {
  const std::vector<Event>& events = log.events();

  // Paired phases ("s"/"f" flows, "b"/"e" asyncs) are only drawn when both
  // endpoints are in the buffer, so a saturated log still exports a
  // well-formed trace: flows need send + deliver, query spans need
  // plan + done, probe spans need issue + outcome.
  std::set<int64_t> delivered_msgs;
  std::set<int64_t> sent_msgs;
  std::set<int64_t> planned_queries;
  std::set<int64_t> complete_queries;
  std::set<int64_t> issued_probes;
  std::set<int64_t> complete_probes;
  for (const Event& e : events) {
    if (e.kind == EventKind::kMsgSend) sent_msgs.insert(e.msg_id);
    if (e.kind == EventKind::kMsgDeliver && sent_msgs.count(e.msg_id) != 0) {
      delivered_msgs.insert(e.msg_id);
    }
    if (e.kind == EventKind::kQueryPlan) planned_queries.insert(e.query_id);
    if (e.kind == EventKind::kQueryDone &&
        planned_queries.count(e.query_id) != 0) {
      complete_queries.insert(e.query_id);
    }
    if (e.kind == EventKind::kProbeIssue) {
      issued_probes.insert(ProbeAsyncId(e.query_id, e.level, e.attempt));
    }
    if (e.kind == EventKind::kProbeOutcome &&
        issued_probes.count(ProbeAsyncId(e.query_id, e.level, e.attempt)) !=
            0) {
      complete_probes.insert(ProbeAsyncId(e.query_id, e.level, e.attempt));
    }
  }

  std::vector<Json> out;
  out.reserve(events.size() + 64);
  std::set<int32_t> tracks;
  tracks.insert(0);

  for (const Event& e : events) {
    const double ts = e.sim_ms * 1000.0;
    const int32_t tid = TrackOf(e.src);
    tracks.insert(tid);
    switch (e.kind) {
      case EventKind::kQueryPlan: {
        if (complete_queries.count(e.query_id) == 0) {
          out.push_back(Instant("plan q" + std::to_string(e.query_id), "query",
                                tid, ts));
          break;
        }
        Json b = BaseEvent("b", "query " + std::to_string(e.query_id), "query",
                           tid, ts);
        b.Set("id", Json(e.query_id));
        out.push_back(std::move(b));
        break;
      }
      case EventKind::kQueryDone: {
        if (complete_queries.count(e.query_id) == 0) {
          out.push_back(Instant("done q" + std::to_string(e.query_id), "query",
                                tid, ts));
          break;
        }
        Json end = BaseEvent("e", "query " + std::to_string(e.query_id),
                             "query", tid, ts);
        end.Set("id", Json(e.query_id));
        out.push_back(std::move(end));
        break;
      }
      case EventKind::kProbeIssue: {
        const int64_t pid_key = ProbeAsyncId(e.query_id, e.level, e.attempt);
        if (complete_probes.count(pid_key) == 0) {
          out.push_back(Instant(
              "issue " + ProbeName(e.query_id, e.level, e.attempt), "probe",
              tid, ts));
          break;
        }
        Json b = BaseEvent("b", ProbeName(e.query_id, e.level, e.attempt),
                           "probe", tid, ts);
        b.Set("id", Json(pid_key));
        out.push_back(std::move(b));
        break;
      }
      case EventKind::kProbeOutcome: {
        const int64_t pid_key = ProbeAsyncId(e.query_id, e.level, e.attempt);
        if (complete_probes.count(pid_key) == 0) {
          out.push_back(Instant(
              "outcome " + ProbeName(e.query_id, e.level, e.attempt), "probe",
              tid, ts));
          break;
        }
        Json end = BaseEvent("e", ProbeName(e.query_id, e.level, e.attempt),
                             "probe", tid, ts);
        end.Set("id", Json(pid_key));
        Json args = Json::Object();
        args.Set("fate", Json(LevelFateName(e.cause)));
        args.Set("latency_ms", Json(e.value));
        end.Set("args", std::move(args));
        out.push_back(std::move(end));
        break;
      }
      case EventKind::kHealWait: {
        out.push_back(Instant("heal_wait " + std::to_string(e.value) + "ms",
                              "query", tid, ts));
        break;
      }
      case EventKind::kLevelFinal: {
        out.push_back(Instant("level " + std::to_string(e.level) + " final:" +
                                  LevelFateName(e.cause),
                              "query", tid, ts));
        break;
      }
      case EventKind::kMsgSend: {
        if (delivered_msgs.count(e.msg_id) != 0) {
          Json s = BaseEvent("s", "msg " + std::to_string(e.msg_id), "msg",
                             tid, ts);
          s.Set("id", Json(e.msg_id));
          out.push_back(std::move(s));
        } else {
          out.push_back(
              Instant("send msg " + std::to_string(e.msg_id), "msg", tid, ts));
        }
        break;
      }
      case EventKind::kMsgDeliver: {
        const int32_t dst_tid = TrackOf(e.dst);
        tracks.insert(dst_tid);
        if (delivered_msgs.count(e.msg_id) != 0) {
          Json f = BaseEvent("f", "msg " + std::to_string(e.msg_id), "msg",
                             dst_tid, ts);
          f.Set("id", Json(e.msg_id));
          f.Set("bp", Json("e"));
          out.push_back(std::move(f));
        }
        break;
      }
      case EventKind::kMsgDrop: {
        out.push_back(Instant(std::string("drop:") + DeliveryCauseName(e.cause),
                              "msg", tid, ts));
        break;
      }
      case EventKind::kMsgDeadLetter: {
        out.push_back(
            Instant(std::string("dead_letter:") + DeliveryCauseName(e.cause),
                    "msg", tid, ts));
        break;
      }
      case EventKind::kTxQueueWait: {
        Json x = BaseEvent("X", "queue_wait", "channel", tid, ts);
        x.Set("dur", Json(e.value * 1000.0));
        out.push_back(std::move(x));
        break;
      }
      case EventKind::kTxAirtime: {
        Json x = BaseEvent("X", "tx", "channel", tid, ts);
        x.Set("dur", Json(e.value * 1000.0));
        Json args = Json::Object();
        args.Set("busy_neighbors", Json(e.aux));
        x.Set("args", std::move(args));
        out.push_back(std::move(x));
        break;
      }
      case EventKind::kTxUnreachable: {
        out.push_back(Instant("unreachable", "channel", tid, ts));
        break;
      }
      case EventKind::kMobilityTick: {
        Json c = BaseEvent("C", "islands", "mobility", 0, ts);
        Json args = Json::Object();
        args.Set("value", Json(e.aux));
        c.Set("args", std::move(args));
        out.push_back(std::move(c));
        break;
      }
      case EventKind::kIslandChange: {
        out.push_back(Instant("islands " + std::to_string(e.value) + "->" +
                                  std::to_string(e.aux),
                              "mobility", 0, ts));
        break;
      }
      case EventKind::kPeerCrash: {
        out.push_back(Instant("crash", "softstate", tid, ts));
        break;
      }
      case EventKind::kPeerRejoin: {
        out.push_back(Instant("rejoin", "softstate", tid, ts));
        break;
      }
      case EventKind::kSummariesExpired: {
        out.push_back(Instant("expired " + std::to_string(e.aux), "softstate",
                              0, ts));
        break;
      }
      case EventKind::kRepublishRound: {
        out.push_back(Instant("republish " + std::to_string(e.aux),
                              "softstate", 0, ts));
        break;
      }
      case EventKind::kRouteCacheBuild: {
        out.push_back(Instant("route_build x" + std::to_string(e.aux),
                              "channel", tid, ts));
        break;
      }
      case EventKind::kRouteCacheInvalidate: {
        out.push_back(Instant(
            "route_invalidate " + std::to_string(static_cast<int64_t>(e.value)),
            "mobility", 0, ts));
        break;
      }
      case EventKind::kBackboneElect: {
        out.push_back(Instant("cds_elect sn=" + std::to_string(e.aux),
                              "backbone", 0, ts));
        break;
      }
      case EventKind::kBackboneReport: {
        out.push_back(Instant("bb_report", "backbone", tid, ts));
        break;
      }
      case EventKind::kBackboneDigest: {
        out.push_back(Instant("digest->" + std::to_string(e.dst), "backbone",
                              tid, ts));
        break;
      }
      case EventKind::kBackboneProbe: {
        out.push_back(Instant(e.cause == 0 ? "bb_serve" : "bb_fallback",
                              "backbone", tid, ts));
        break;
      }
      case EventKind::kBackboneDecision: {
        out.push_back(Instant(e.cause == 1   ? "bb_prune"
                              : e.cause == 2 ? "bb_stale_descend"
                                             : "bb_descend",
                              "backbone", tid, ts));
        break;
      }
      case EventKind::kServeAdmit: {
        out.push_back(Instant("admit", "serve", tid, ts));
        break;
      }
      case EventKind::kServeShed: {
        out.push_back(Instant(std::string("shed:") + ShedCauseName(e.cause),
                              "serve", tid, ts));
        break;
      }
      case EventKind::kServeCacheHit: {
        out.push_back(Instant("cache_hit x" + std::to_string(e.aux), "serve",
                              tid, ts));
        break;
      }
      case EventKind::kServeShortcut: {
        out.push_back(Instant(e.cause == 0 ? "shortcut->" + std::to_string(e.dst)
                                           : "shortcut_stale",
                              "serve", tid, ts));
        break;
      }
      case EventKind::kMacDefer: {
        Json x = BaseEvent("X", "mac_defer", "channel", tid, ts);
        x.Set("dur", Json(e.value * 1000.0));
        Json args = Json::Object();
        args.Set("busy_neighbors", Json(e.aux));
        x.Set("args", std::move(args));
        out.push_back(std::move(x));
        break;
      }
      case EventKind::kMacCollision: {
        out.push_back(Instant("collision a" + std::to_string(e.attempt) +
                                  "->" + std::to_string(e.dst),
                              "channel", tid, ts));
        break;
      }
      case EventKind::kRouteDiscover: {
        out.push_back(Instant((e.cause == 0 ? "rreq->" : "rreq_fail->") +
                                  std::to_string(e.dst) + " x" +
                                  std::to_string(e.aux),
                              "route", tid, ts));
        break;
      }
      case EventKind::kRouteError: {
        out.push_back(Instant("rerr !" + std::to_string(e.dst) + " x" +
                                  std::to_string(e.aux),
                              "route", tid, ts));
        break;
      }
    }
  }

  // Ring-buffered time series become counter tracks.
  for (const auto& [name, series] : log.series()) {
    for (const TimeSeries::Point& p : series.Points()) {
      Json c = BaseEvent("C", name, "series", 0, p.sim_ms * 1000.0);
      Json args = Json::Object();
      args.Set("value", Json(p.value));
      c.Set("args", std::move(args));
      out.push_back(std::move(c));
    }
  }

  // The viewer sorts internally but the acceptance contract (and diff
  // friendliness) wants ts-sorted output; stable to preserve record order
  // at equal simulated instants.
  std::stable_sort(out.begin(), out.end(), [](const Json& a, const Json& b) {
    return a.Find("ts")->as_number() < b.Find("ts")->as_number();
  });

  Json trace_events = Json::Array();
  // Track-name metadata first (ts-less "M" events).
  Json pname = Json::Object();
  pname.Set("ph", Json("M"));
  pname.Set("name", Json("process_name"));
  pname.Set("pid", Json(kPid));
  Json pargs = Json::Object();
  pargs.Set("name", Json("hyperm-sim"));
  pname.Set("args", std::move(pargs));
  trace_events.Append(std::move(pname));
  for (int32_t tid : tracks) {
    Json m = Json::Object();
    m.Set("ph", Json("M"));
    m.Set("name", Json("thread_name"));
    m.Set("pid", Json(kPid));
    m.Set("tid", Json(tid));
    Json args = Json::Object();
    args.Set("name",
             Json(tid == 0 ? std::string("sim")
                           : "peer " + std::to_string(tid - 1)));
    m.Set("args", std::move(args));
    trace_events.Append(std::move(m));
  }
  for (Json& e : out) trace_events.Append(std::move(e));

  Json doc = Json::Object();
  doc.Set("displayTimeUnit", Json("ms"));
  doc.Set("traceEvents", std::move(trace_events));
  Json meta = Json::Object();
  meta.Set("dropped_events", Json(log.dropped()));
  meta.Set("recorded_events", Json(static_cast<uint64_t>(events.size())));
  doc.Set("otherData", std::move(meta));
  return doc;
}

bool WriteChromeTrace(const std::string& path, const EventLog& log) {
  const std::string text = ChromeTraceFromLog(log).Dump(-1);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool nl = std::fputc('\n', f) != EOF;
  const int close_rc = std::fclose(f);
  return written == text.size() && nl && close_rc == 0;
}

Status ValidateChromeTrace(const Json& doc) {
  if (!doc.is_object()) return InvalidArgumentError("trace root not an object");
  const Json* events = doc.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return InvalidArgumentError("missing traceEvents array");
  }
  double last_ts = -1.0;
  // (cat, id) -> open count, for "s"/"f" flows and "b"/"e" async pairs.
  std::map<std::pair<std::string, int64_t>, int> open_flows;
  std::map<std::pair<std::string, int64_t>, int> open_asyncs;
  size_t index = 0;
  for (const Json& e : events->items()) {
    const std::string where = "traceEvents[" + std::to_string(index++) + "]";
    if (!e.is_object()) return InvalidArgumentError(where + ": not an object");
    const Json* ph = e.Find("ph");
    if (ph == nullptr || !ph->is_string()) {
      return InvalidArgumentError(where + ": missing ph");
    }
    const std::string& phase = ph->as_string();
    const Json* name = e.Find("name");
    if (name == nullptr || !name->is_string()) {
      return InvalidArgumentError(where + ": missing name");
    }
    if (phase == "M") continue;  // metadata carries no timestamp
    const Json* ts = e.Find("ts");
    if (ts == nullptr || !ts->is_number()) {
      return InvalidArgumentError(where + ": missing ts");
    }
    if (ts->as_number() < last_ts) {
      return InvalidArgumentError(where + ": timestamps not sorted");
    }
    last_ts = ts->as_number();
    const Json* tid = e.Find("tid");
    if (tid == nullptr || !tid->is_number()) {
      return InvalidArgumentError(where + ": missing tid");
    }
    if (phase == "X") {
      const Json* dur = e.Find("dur");
      if (dur == nullptr || !dur->is_number() || dur->as_number() < 0.0) {
        return InvalidArgumentError(where + ": X event needs dur >= 0");
      }
    } else if (phase == "s" || phase == "f" || phase == "b" || phase == "e") {
      const Json* cat = e.Find("cat");
      const Json* id = e.Find("id");
      if (cat == nullptr || !cat->is_string() || id == nullptr ||
          !id->is_number()) {
        return InvalidArgumentError(where + ": paired event needs cat and id");
      }
      const std::pair<std::string, int64_t> key(
          cat->as_string(), static_cast<int64_t>(id->as_number()));
      auto& open = (phase == "s" || phase == "f") ? open_flows : open_asyncs;
      if (phase == "s" || phase == "b") {
        ++open[key];
      } else {
        auto it = open.find(key);
        if (it == open.end() || it->second <= 0) {
          return InvalidArgumentError(where + ": " + phase +
                                      " without a matching start (cat=" +
                                      key.first +
                                      " id=" + std::to_string(key.second) + ")");
        }
        --it->second;
      }
    } else if (phase == "i") {
      const Json* scope = e.Find("s");
      if (scope == nullptr || !scope->is_string()) {
        return InvalidArgumentError(where + ": instant needs a scope");
      }
    } else if (phase != "C") {
      return InvalidArgumentError(where + ": unexpected phase '" + phase + "'");
    }
  }
  for (const auto& [key, count] : open_flows) {
    if (count != 0) {
      return InvalidArgumentError("unpaired flow (cat=" + key.first +
                                  " id=" + std::to_string(key.second) + ")");
    }
  }
  for (const auto& [key, count] : open_asyncs) {
    if (count != 0) {
      return InvalidArgumentError("unpaired async event (cat=" + key.first +
                                  " id=" + std::to_string(key.second) + ")");
    }
  }
  return OkStatus();
}

}  // namespace hyperm::obs
