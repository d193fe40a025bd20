// QueryTimeline: replays a flight-recorder log (event_log.h) into a
// per-query, per-level history — plan, probe rounds, every message exchange
// with its per-attempt drop causes, heal-window re-issues, and the final
// per-level lattice outcome.
//
// The reconstruction trusts only the causal ids and the record order of the
// log, never the live network objects; the flight-recorder test uses it to
// prove that the event log alone tells a partitioned query's complete story
// (ISSUE 6 acceptance). ValidateCausalChain() then checks the chain has no
// gaps: every probe round is issue/outcome-bracketed, every message has a
// send and a terminal event with consecutively numbered attempts, every
// drop carries a cause, and levels reach a final fate.

#ifndef HYPERM_OBS_TIMELINE_H_
#define HYPERM_OBS_TIMELINE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "obs/event_log.h"

namespace hyperm::obs {

/// One logical message exchange (a transport SendHop call): the kMsgSend
/// plus every per-attempt event that followed under the same msg_id.
struct MessageTrace {
  int64_t msg_id = -1;
  int32_t src = -1;
  int32_t dst = -1;
  int64_t type = 0;        ///< net::MessageType (from the kMsgSend aux)
  double send_ms = 0.0;
  uint64_t bytes = 0;
  /// kMsgDrop / kMsgDeliver / kMsgDeadLetter, record order.
  std::vector<Event> attempts;
  bool delivered = false;
  int32_t final_cause = -1;  ///< DeliveryCause of the terminal event
};

/// One issue of a level probe: round 0 is the initial fan-out, rounds >= 1
/// are heal-window re-issues.
struct ProbeRound {
  int32_t attempt = -1;      ///< reissue round index
  double issue_ms = 0.0;
  double outcome_ms = -1.0;  ///< -1 while un-closed (a causal-chain gap)
  bool closed = false;
  int32_t fate = -1;         ///< LevelDelivery of this round
  double latency_ms = 0.0;
  std::vector<MessageTrace> messages;
};

/// Everything that happened to one wavelet level of one query.
struct LevelTrace {
  int32_t level = -1;
  std::vector<ProbeRound> rounds;
  bool has_final = false;
  int32_t final_fate = -1;  ///< merged LevelDelivery (kLevelFinal)
  int64_t reissues = 0;     ///< re-issues the executor merged in
};

/// The reconstructed life of one query.
struct QueryTimeline {
  int64_t query_id = -1;
  int32_t querying_peer = -1;
  double plan_ms = -1.0;
  double done_ms = -1.0;
  int64_t levels_planned = 0;
  int64_t results = -1;            ///< kQueryDone aux, -1 when absent
  std::vector<LevelTrace> levels;  ///< ascending level id
  /// Message exchanges under the query but outside any level probe
  /// (retrieve request/response traffic).
  std::vector<MessageTrace> retrievals;
  std::vector<Event> heal_waits;
  size_t total_events = 0;  ///< log events attributed to this query
};

/// Replays `events` (full log, record order) into the timeline of
/// `query_id`. Fails when the log holds no kQueryPlan for that id or when
/// an event is structurally impossible to attach (e.g. a probe outcome for
/// a level that never opened a round).
Result<QueryTimeline> ReconstructQueryTimeline(const std::vector<Event>& events,
                                               int64_t query_id);

/// Verifies the causal chain is complete: plan precedes done, every planned
/// level is present with >= 1 round, rounds are issue/outcome-bracketed with
/// consecutive attempt numbers, every message has a terminal event with
/// consecutive tx attempts and cause-tagged drops, re-issued levels saw a
/// heal wait, and every level reached a final fate consistent with its last
/// round.
Status ValidateCausalChain(const QueryTimeline& timeline);

/// All query ids with a kQueryPlan in the log, in record order.
std::vector<int64_t> QueryIdsInLog(const std::vector<Event>& events);

}  // namespace hyperm::obs

#endif  // HYPERM_OBS_TIMELINE_H_
