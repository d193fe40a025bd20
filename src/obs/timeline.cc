#include "obs/timeline.h"

#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"

namespace hyperm::obs {
namespace {

std::string Describe(const Event& e) {
  return std::string(EventKindName(e.kind)) + " @" + std::to_string(e.sim_ms) +
         "ms level=" + std::to_string(e.level) +
         " msg=" + std::to_string(e.msg_id);
}

// Where a message trace lives inside the timeline being built.
struct MsgLoc {
  int level_idx = -1;  // -1: timeline.retrievals, else index into levels
  size_t round_idx = 0;
  size_t msg_idx = 0;
};

MessageTrace* Locate(QueryTimeline* t, const MsgLoc& loc) {
  if (loc.level_idx < 0) return &t->retrievals[loc.msg_idx];
  return &t->levels[static_cast<size_t>(loc.level_idx)]
              .rounds[loc.round_idx]
              .messages[loc.msg_idx];
}

}  // namespace

Result<QueryTimeline> ReconstructQueryTimeline(const std::vector<Event>& events,
                                               int64_t query_id) {
  QueryTimeline t;
  t.query_id = query_id;

  std::map<int32_t, size_t> level_idx;   // level id -> index into t.levels
  std::map<int32_t, bool> round_open;    // level id -> has an un-closed round
  std::map<int64_t, MsgLoc> msg_loc;     // msg id -> where its trace lives

  auto level_slot = [&](int32_t level) -> size_t {
    auto it = level_idx.find(level);
    if (it != level_idx.end()) return it->second;
    LevelTrace lt;
    lt.level = level;
    t.levels.push_back(lt);
    level_idx.emplace(level, t.levels.size() - 1);
    return t.levels.size() - 1;
  };

  for (const Event& e : events) {
    if (e.query_id != query_id) continue;
    ++t.total_events;
    switch (e.kind) {
      case EventKind::kQueryPlan: {
        if (t.plan_ms >= 0.0) {
          return InternalError("duplicate query_plan for query " +
                               std::to_string(query_id));
        }
        t.plan_ms = e.sim_ms;
        t.querying_peer = e.src;
        t.levels_planned = e.aux;
        break;
      }
      case EventKind::kProbeIssue: {
        const size_t li = level_slot(e.level);
        if (round_open[e.level]) {
          return InternalError("probe_issue while a round is open: " +
                               Describe(e));
        }
        ProbeRound round;
        round.attempt = e.attempt;
        round.issue_ms = e.sim_ms;
        t.levels[li].rounds.push_back(round);
        round_open[e.level] = true;
        break;
      }
      case EventKind::kProbeOutcome: {
        auto it = level_idx.find(e.level);
        if (it == level_idx.end() || !round_open[e.level]) {
          return InternalError("probe_outcome without an open round: " +
                               Describe(e));
        }
        ProbeRound& round = t.levels[it->second].rounds.back();
        round.outcome_ms = e.sim_ms;
        round.closed = true;
        round.fate = e.cause;
        round.latency_ms = e.value;
        round_open[e.level] = false;
        break;
      }
      case EventKind::kHealWait: {
        t.heal_waits.push_back(e);
        break;
      }
      case EventKind::kLevelFinal: {
        const size_t li = level_slot(e.level);
        t.levels[li].has_final = true;
        t.levels[li].final_fate = e.cause;
        t.levels[li].reissues = e.aux;
        break;
      }
      case EventKind::kQueryDone: {
        t.done_ms = e.sim_ms;
        t.results = e.aux;
        break;
      }
      case EventKind::kMsgSend: {
        if (msg_loc.count(e.msg_id) != 0) {
          return InternalError("duplicate msg_send for msg " +
                               std::to_string(e.msg_id));
        }
        MessageTrace m;
        m.msg_id = e.msg_id;
        m.src = e.src;
        m.dst = e.dst;
        m.type = e.aux;
        m.send_ms = e.sim_ms;
        m.bytes = static_cast<uint64_t>(e.value);
        MsgLoc loc;
        if (e.level >= 0) {
          auto it = level_idx.find(e.level);
          if (it == level_idx.end() || !round_open[e.level]) {
            return InternalError("probe message outside an open round: " +
                                 Describe(e));
          }
          loc.level_idx = static_cast<int>(it->second);
          loc.round_idx = t.levels[it->second].rounds.size() - 1;
          auto& msgs = t.levels[it->second].rounds.back().messages;
          loc.msg_idx = msgs.size();
          msgs.push_back(m);
        } else {
          loc.msg_idx = t.retrievals.size();
          t.retrievals.push_back(m);
        }
        msg_loc.emplace(e.msg_id, loc);
        break;
      }
      case EventKind::kMsgDeliver:
      case EventKind::kMsgDrop:
      case EventKind::kMsgDeadLetter: {
        auto it = msg_loc.find(e.msg_id);
        if (it == msg_loc.end()) {
          return InternalError("message event before msg_send: " + Describe(e));
        }
        MessageTrace* m = Locate(&t, it->second);
        m->attempts.push_back(e);
        if (e.kind == EventKind::kMsgDeliver) {
          m->delivered = true;
          m->final_cause = 0;
        } else if (e.kind == EventKind::kMsgDeadLetter) {
          m->final_cause = e.cause;
        }
        break;
      }
      default:
        // Channel / mobility / soft-state events attributed to this query
        // are context, not chain links; counted in total_events only.
        break;
    }
  }

  if (t.plan_ms < 0.0) {
    return NotFoundError("no query_plan event for query " +
                         std::to_string(query_id));
  }
  return t;
}

namespace {

Status ValidateMessage(const MessageTrace& m, const char* where) {
  const std::string tag =
      std::string(where) + " msg " + std::to_string(m.msg_id);
  if (m.msg_id < 0) return InternalError(tag + ": unset msg_id");
  int expected_attempt = 0;
  bool terminal = false;
  for (const Event& e : m.attempts) {
    if (terminal) {
      return InternalError(tag + ": event after terminal outcome");
    }
    switch (e.kind) {
      case EventKind::kMsgDrop:
        if (e.attempt != expected_attempt) {
          return InternalError(tag + ": attempt gap (saw " +
                               std::to_string(e.attempt) + ", expected " +
                               std::to_string(expected_attempt) + ")");
        }
        if (e.cause <= 0) return InternalError(tag + ": drop without a cause");
        ++expected_attempt;
        break;
      case EventKind::kMsgDeliver:
        if (e.attempt != expected_attempt) {
          return InternalError(tag + ": delivery attempt gap");
        }
        terminal = true;
        break;
      case EventKind::kMsgDeadLetter:
        if (expected_attempt == 0) {
          return InternalError(tag + ": dead letter without any attempt");
        }
        if (e.cause <= 0) {
          return InternalError(tag + ": dead letter without a cause");
        }
        terminal = true;
        break;
      default:
        return InternalError(tag + ": foreign event in attempt list");
    }
  }
  if (!terminal) {
    return InternalError(tag + ": no terminal outcome (deliver/dead letter)");
  }
  if (m.delivered && m.final_cause != 0) {
    return InternalError(tag + ": delivered but cause != delivered");
  }
  return OkStatus();
}

}  // namespace

Status ValidateCausalChain(const QueryTimeline& t) {
  const std::string tag = "query " + std::to_string(t.query_id);
  if (t.plan_ms < 0.0) return InternalError(tag + ": no plan event");
  if (t.done_ms < 0.0) return InternalError(tag + ": no done event");
  if (t.done_ms + 1e-9 < t.plan_ms) {
    return InternalError(tag + ": done precedes plan");
  }
  if (static_cast<int64_t>(t.levels.size()) != t.levels_planned) {
    return InternalError(tag + ": planned " + std::to_string(t.levels_planned) +
                         " levels, observed " + std::to_string(t.levels.size()));
  }
  bool any_reissue = false;
  for (const LevelTrace& level : t.levels) {
    const std::string ltag = tag + " level " + std::to_string(level.level);
    if (level.rounds.empty()) return InternalError(ltag + ": no probe rounds");
    for (size_t r = 0; r < level.rounds.size(); ++r) {
      const ProbeRound& round = level.rounds[r];
      const std::string rtag = ltag + " round " + std::to_string(r);
      if (round.attempt != static_cast<int32_t>(r)) {
        return InternalError(rtag + ": reissue round numbering gap");
      }
      if (!round.closed) return InternalError(rtag + ": issue without outcome");
      if (round.fate < 0) return InternalError(rtag + ": outcome without fate");
      if (round.outcome_ms + 1e-9 < round.issue_ms) {
        return InternalError(rtag + ": outcome precedes issue");
      }
      for (const MessageTrace& m : round.messages) {
        HM_RETURN_IF_ERROR(ValidateMessage(m, rtag.c_str()));
        if (m.send_ms + 1e-9 < round.issue_ms ||
            (round.closed && m.send_ms > round.outcome_ms + 1e-9)) {
          return InternalError(rtag + " msg " + std::to_string(m.msg_id) +
                               ": sent outside its probe round");
        }
      }
    }
    if (level.rounds.size() > 1) any_reissue = true;
    if (!level.has_final) return InternalError(ltag + ": no final outcome");
    if (level.final_fate < 0) return InternalError(ltag + ": final without fate");
    if (level.reissues != static_cast<int64_t>(level.rounds.size()) - 1) {
      return InternalError(ltag + ": reissue count disagrees with rounds");
    }
  }
  if (any_reissue && t.heal_waits.empty()) {
    return InternalError(tag + ": re-issued levels but no heal wait recorded");
  }
  for (const MessageTrace& m : t.retrievals) {
    HM_RETURN_IF_ERROR(ValidateMessage(m, (tag + " retrieval").c_str()));
  }
  return OkStatus();
}

std::vector<int64_t> QueryIdsInLog(const std::vector<Event>& events) {
  std::vector<int64_t> ids;
  for (const Event& e : events) {
    if (e.kind == EventKind::kQueryPlan) ids.push_back(e.query_id);
  }
  return ids;
}

}  // namespace hyperm::obs
