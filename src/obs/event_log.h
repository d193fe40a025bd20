// Sim-time flight recorder: a bounded, deterministic log of structured
// events stamped in *simulated* time and linked by causal ids
// (query id -> level probe -> message id -> transmission attempt).
//
// The span tracer (trace.h) answers "where did wall-clock time go"; the
// event log answers "what happened to query 17's level 3 at t=1480 ms of
// simulated time, and why was its message dropped". Events carry a
// subsystem tag, a drop-cause payload and three causal ids that the
// timeline reconstruction API (timeline.h) replays into a per-query,
// per-level history.
//
// Determinism contract (DESIGN.md §12): every hook sits on a serially
// executed simulator-driven path (the transport, the radio channel, the
// query executor's in-order probe loop) on the orchestrating thread; pool
// tasks record nothing (DESIGN.md §8), so the log is bit-identical at 1 and
// 8 pool threads. The log itself is not thread-safe. The buffer is bounded;
// overflowing events are counted in dropped(), never stored.

#ifndef HYPERM_OBS_EVENT_LOG_H_
#define HYPERM_OBS_EVENT_LOG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"  // for HM_OBS_CONCAT_

namespace hyperm::obs {

/// What happened. Grouped by subsystem (see SubsystemOf). Exports carry the
/// kind's name (EventKindName), never its number.
enum class EventKind : int32_t {
  // hyperm query engine (query planner / executor / network query API)
  kQueryPlan = 0,   ///< plan emitted; src=querying peer, aux=#level probes
  kProbeIssue,      ///< one level probe issued; attempt=reissue round
  kProbeOutcome,    ///< level probe finished; cause=LevelDelivery, value=latency
  kHealWait,        ///< executor parks for the heal window; value=window ms
  kLevelFinal,      ///< merged per-level outcome; cause=LevelDelivery, aux=reissues
  kQueryDone,       ///< query finished; aux=result count
  // net transport (every network; one kMsgSend per logical message)
  kMsgSend,         ///< logical message enters SendHop; aux=MessageType, value=bytes
  kMsgDeliver,      ///< delivered; attempt=tx attempt, value=accumulated latency ms
  kMsgDrop,         ///< one attempt lost; cause=DeliveryCause, value=retry wait ms
  kMsgDeadLetter,   ///< retries exhausted; cause=last DeliveryCause
  // radio channel
  kTxQueueWait,     ///< hop waited for a busy air interface; value=wait ms
  kTxAirtime,       ///< one hop's airtime; value=tx ms, aux=busy neighbors
  kTxUnreachable,   ///< src/dst on different islands; one hop charged to the void
  // mobility
  kMobilityTick,    ///< mobility epoch; aux=island count
  kIslandChange,    ///< island count changed; value=old count, aux=new count
  // soft state / fault plan
  kPeerCrash,       ///< peer crashed (summaries lost); src=peer, aux=items lost
  kPeerRejoin,      ///< peer rejoined; src=peer
  kSummariesExpired,///< TTL sweep; aux=#summaries expired
  kRepublishRound,  ///< periodic republish; aux=#summaries pushed
  // radio route cache
  kRouteCacheBuild,      ///< BFS trees built for a transmit; src/dst=message, aux=#builds
  kRouteCacheInvalidate, ///< mobility dropped cached trees; value=#trees dropped
  // supernode backbone (src/backbone; appended)
  kBackboneElect,    ///< CDS election settled; value=greedy rounds, aux=#supernodes
  kBackboneReport,   ///< member summary report delivered; src=member, dst=supernode, aux=#clusters
  kBackboneDigest,   ///< digest exchanged between CDS neighbors; src/dst=supernodes, value=bytes
  kBackboneProbe,    ///< backbone probe verdict; cause 0=served 1=fallback, value=latency, aux=#descended
  kBackboneDecision, ///< per-domain verdict; src=supernode, cause 0=descend 1=prune 2=stale-descend, aux=#matches
  // serving subsystem (src/serve; appended)
  kServeAdmit,       ///< arrival admitted; src=querying peer, value=dispatch lag ms
  kServeShed,        ///< arrival shed; src=querying peer, cause=ShedCauseName, value=backlog ms
  kServeCacheHit,    ///< result cache answered locally; src=querying peer, aux=#items
  kServeShortcut,    ///< mined shortcut attempted; cause 0=hit 1=stale, dst=entry node, value=latency
  // CSMA/CA MAC + distributed routing (src/channel mac + src/route; appended)
  kMacDefer,         ///< carrier-sense deferral; src=node, value=defer ms, aux=busy neighbors
  kMacCollision,     ///< collision detected; src=node, dst=receiver, attempt=tx attempt, value=backoff ms
  kRouteDiscover,    ///< route discovery round; src=origin, dst=target, cause 0=found 1=failed, value=control ms, aux=#control frames
  kRouteError,       ///< link break + RERR; src=detecting node, dst=lost next hop, aux=#routes invalidated
};

/// Which layer of the stack emitted the event.
enum class Subsystem : int32_t {
  kQuery = 0, kNet, kChannel, kMobility, kSoftState, kBackbone, kServe, kRoute
};

const char* EventKindName(EventKind kind);
Subsystem SubsystemOf(EventKind kind);
const char* SubsystemName(Subsystem subsystem);

/// Names for the `cause` payload of kMsg* events. The values mirror
/// net::DeliveryOutcome numerically (obs sits below net in the dependency
/// order, so the enum itself cannot appear here); a static_assert at the
/// instrumentation site in transport.cc keeps the two in sync.
const char* DeliveryCauseName(int32_t cause);

/// Names for the `cause` payload of probe/level events; mirrors
/// hyperm::core::LevelDelivery (static_assert in query_plan.cc).
const char* LevelFateName(int32_t fate);

/// Names for the `cause` payload of kServeShed events; mirrors
/// serve::ShedCause numerically (static_assert in engine.cc — obs sits below
/// serve in the dependency order, like DeliveryCauseName above).
const char* ShedCauseName(int32_t cause);

/// Names for the per-cause MAC accounting (kMacDefer/kMacCollision events and
/// the channel.mac.* counters); mirrors channel::MacCause numerically
/// (static_assert in mac.cc — obs sits below channel, like the above).
const char* MacCauseName(int32_t cause);

/// One flight-recorder event. Plain data, no strings: ~64 bytes, cheap to
/// buffer in bulk. `-1` means "unset"; Record() fills unset causal ids from
/// the ambient context scopes. Field order matters at call sites (C++20
/// designated initializers must follow declaration order).
struct Event {
  double sim_ms = 0.0;    ///< simulated time (0 when no simulator is attached)
  EventKind kind = EventKind::kQueryPlan;
  int64_t query_id = -1;  ///< causal id: which query (see HM_OBS_QUERY_SCOPE)
  int32_t level = -1;     ///< causal id: which wavelet level / layer probe
  int64_t msg_id = -1;    ///< causal id: which logical message exchange
  int32_t attempt = -1;   ///< tx attempt (kMsg*) or reissue round (probes)
  int32_t src = -1;       ///< peer / node id
  int32_t dst = -1;       ///< peer / node id
  int32_t cause = -1;     ///< DeliveryCause or LevelFate payload (kind-specific)
  double value = 0.0;     ///< kind-specific scalar (ms, bytes, ...)
  int64_t aux = 0;        ///< kind-specific extra (counts, MessageType, ...)
};

/// Fixed-capacity ring of (sim_ms, value) samples; once full the oldest
/// sample is overwritten. total() keeps counting so exporters can tell how
/// much history was shed.
class TimeSeries {
 public:
  struct Point {
    double sim_ms = 0.0;
    double value = 0.0;
  };

  explicit TimeSeries(size_t capacity = 1024)
      : capacity_(capacity > 0 ? capacity : 1) {}

  void Sample(double sim_ms, double value);

  /// Samples ever taken (>= Points().size()).
  uint64_t total() const { return total_; }
  size_t capacity() const { return capacity_; }

  /// Retained samples, oldest first.
  std::vector<Point> Points() const;

 private:
  size_t capacity_;
  uint64_t total_ = 0;
  size_t head_ = 0;  // insertion slot once the ring is full
  std::vector<Point> ring_;
};

/// The flight recorder. Single writer: only the orchestrating thread records.
class EventLog {
 public:
  static constexpr size_t kDefaultCapacity = size_t{1} << 18;

  EventLog() = default;
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Starts recording. Arming twice keeps already-recorded events.
  void Arm(size_t capacity = kDefaultCapacity);

  /// True when armed. This is the hot gate the HM_OBS_EVENT macro checks
  /// before evaluating its arguments.
  bool enabled() const { return armed_; }

  /// Appends one event when armed. Unset (-1) causal ids are
  /// filled from the ambient context scopes. Past capacity the event is
  /// counted in dropped() and discarded.
  void Record(Event event);

  /// All retained events, in record order.
  const std::vector<Event>& events() const { return events_; }

  /// Events discarded because the buffer was full.
  uint64_t dropped() const { return dropped_; }

  size_t capacity() const { return capacity_; }

  /// Named ring-buffered time series (created on first use). Sampling via
  /// HM_OBS_SERIES goes through enabled() like events.
  TimeSeries& Series(const std::string& name, size_t capacity = 1024);
  const std::map<std::string, TimeSeries>& series() const { return series_; }

  /// Fresh causal ids. Deterministic: only ever drawn behind enabled()
  /// checks, in program order.
  int64_t NextQueryId() { return next_query_id_++; }
  int64_t NextMessageId() { return next_msg_id_++; }

  /// Ambient causal context (set by the Scoped* guards below).
  int64_t context_query() const { return ctx_query_; }
  int32_t context_level() const { return ctx_level_; }
  int64_t context_msg() const { return ctx_msg_; }

  /// Clears events, series, dropped count, context and id counters, and
  /// disarms. The next Arm() starts a fresh log.
  void Reset();

  /// The process-wide log the HM_OBS_EVENT / HM_OBS_SERIES macros feed.
  static EventLog& Global();

 private:
  friend class ScopedQueryContext;
  friend class ScopedLevelContext;
  friend class ScopedMessageContext;

  bool armed_ = false;
  size_t capacity_ = kDefaultCapacity;
  uint64_t dropped_ = 0;
  std::vector<Event> events_;
  std::map<std::string, TimeSeries> series_;
  int64_t next_query_id_ = 0;
  int64_t next_msg_id_ = 0;
  int64_t ctx_query_ = -1;
  int32_t ctx_level_ = -1;
  int64_t ctx_msg_ = -1;
};

/// RAII guards installing one causal id into the ambient context for the
/// enclosing scope. No-ops while the log is disarmed.
class ScopedQueryContext {
 public:
  explicit ScopedQueryContext(int64_t query_id, EventLog& log = EventLog::Global())
      : log_(&log), active_(log.enabled()) {
    if (active_) {
      saved_ = log_->ctx_query_;
      log_->ctx_query_ = query_id;
    }
  }
  ~ScopedQueryContext() {
    if (active_) log_->ctx_query_ = saved_;
  }
  ScopedQueryContext(const ScopedQueryContext&) = delete;
  ScopedQueryContext& operator=(const ScopedQueryContext&) = delete;

 private:
  EventLog* log_;
  bool active_;
  int64_t saved_ = -1;
};

class ScopedLevelContext {
 public:
  explicit ScopedLevelContext(int32_t level, EventLog& log = EventLog::Global())
      : log_(&log), active_(log.enabled()) {
    if (active_) {
      saved_ = log_->ctx_level_;
      log_->ctx_level_ = level;
    }
  }
  ~ScopedLevelContext() {
    if (active_) log_->ctx_level_ = saved_;
  }
  ScopedLevelContext(const ScopedLevelContext&) = delete;
  ScopedLevelContext& operator=(const ScopedLevelContext&) = delete;

 private:
  EventLog* log_;
  bool active_;
  int32_t saved_ = -1;
};

class ScopedMessageContext {
 public:
  explicit ScopedMessageContext(int64_t msg_id, EventLog& log = EventLog::Global())
      : log_(&log), active_(log.enabled()) {
    if (active_) {
      saved_ = log_->ctx_msg_;
      log_->ctx_msg_ = msg_id;
    }
  }
  ~ScopedMessageContext() {
    if (active_) log_->ctx_msg_ = saved_;
  }
  ScopedMessageContext(const ScopedMessageContext&) = delete;
  ScopedMessageContext& operator=(const ScopedMessageContext&) = delete;

 private:
  EventLog* log_;
  bool active_;
  int64_t saved_ = -1;
};

/// Clears all three ambient causal ids for the enclosing scope. Installed at
/// the top of scheduled simulator callbacks (mobility ticks, republish and
/// expiry sweeps): those can fire while a query's heal-window RunUntil is
/// on the stack, and their events must not be attributed to that query.
class ScopedRootContext {
 public:
  explicit ScopedRootContext(EventLog& log = EventLog::Global())
      : query_(-1, log), level_(-1, log), msg_(-1, log) {}

 private:
  ScopedQueryContext query_;
  ScopedLevelContext level_;
  ScopedMessageContext msg_;
};

/// JSONL exporter: one compact, key-sorted JSON object per event (schema in
/// DESIGN.md §12), then one trailer line `{"dropped_events":n,"events":n}`.
/// Byte-stable for identical logs — the 1-vs-8-thread determinism test
/// compares these strings directly.
std::string EventsToJsonl(const std::vector<Event>& events, uint64_t dropped);

/// Serializes EventsToJsonl(log.events(), log.dropped()) to `path`.
/// Returns false on I/O failure.
bool WriteEventsJsonl(const std::string& path, const EventLog& log);

}  // namespace hyperm::obs

// Flight-recorder hooks -------------------------------------------------------
//
// All feed EventLog::Global(). The enabled() gate runs before argument
// evaluation, so an un-armed log costs one load per hook.

/// Records one event. Arguments are designated initializers for obs::Event,
/// in declaration order, e.g.
///   HM_OBS_EVENT(.sim_ms = now, .kind = obs::EventKind::kMsgSend, .src = 3);
#define HM_OBS_EVENT(...)                                                   \
  do {                                                                      \
    ::hyperm::obs::EventLog& hm_obs_el = ::hyperm::obs::EventLog::Global(); \
    if (hm_obs_el.enabled())                                                \
      hm_obs_el.Record(::hyperm::obs::Event{__VA_ARGS__});                  \
  } while (0)

/// Samples (sim_ms, value) into the named ring-buffered time series.
#define HM_OBS_SERIES(name, sim_ms, value)                                  \
  do {                                                                      \
    ::hyperm::obs::EventLog& hm_obs_el = ::hyperm::obs::EventLog::Global(); \
    if (hm_obs_el.enabled())                                                \
      hm_obs_el.Series((name)).Sample((sim_ms), (value));                   \
  } while (0)

/// Declares `const int64_t var` holding a fresh query id (-1 when the log is
/// off) and installs it as the ambient query context for this scope.
#define HM_OBS_QUERY_SCOPE(var)                                             \
  const int64_t var = ::hyperm::obs::EventLog::Global().enabled()           \
                          ? ::hyperm::obs::EventLog::Global().NextQueryId() \
                          : int64_t{-1};                                    \
  ::hyperm::obs::ScopedQueryContext HM_OBS_CONCAT_(hm_obs_qctx_, __LINE__)(var)

/// Installs `level` as the ambient level context for this scope.
#define HM_OBS_LEVEL_SCOPE(level)                                  \
  ::hyperm::obs::ScopedLevelContext HM_OBS_CONCAT_(                \
      hm_obs_lctx_, __LINE__)(static_cast<int32_t>(level))

/// Clears the ambient causal context for this scope (scheduled simulator
/// callbacks that must not inherit the interrupted query's ids).
#define HM_OBS_ROOT_SCOPE() \
  ::hyperm::obs::ScopedRootContext HM_OBS_CONCAT_(hm_obs_rctx_, __LINE__)

/// Declares `const int64_t var` holding a fresh message id (-1 when the log
/// is off) and installs it as the ambient message context for this scope.
#define HM_OBS_MSG_SCOPE(var)                                                 \
  const int64_t var = ::hyperm::obs::EventLog::Global().enabled()             \
                          ? ::hyperm::obs::EventLog::Global().NextMessageId() \
                          : int64_t{-1};                                      \
  ::hyperm::obs::ScopedMessageContext HM_OBS_CONCAT_(hm_obs_mctx_, __LINE__)(var)

#endif  // HYPERM_OBS_EVENT_LOG_H_
