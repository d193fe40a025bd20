#include "channel/mac.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/seed_stream.h"
#include "obs/event_log.h"

namespace hyperm::channel {

// The channel.mac.* counters and kMacDefer/kMacCollision cause payloads
// mirror MacCause numerically (obs cannot include this header); keep the
// two in lockstep — the PR 9 shed-cause contract.
static_assert(static_cast<int32_t>(MacCause::kDeferral) == 0 &&
                  static_cast<int32_t>(MacCause::kCollision) == 1 &&
                  static_cast<int32_t>(MacCause::kRetransmit) == 2 &&
                  static_cast<int32_t>(MacCause::kDropRetryLimit) == 3,
              "MacCause must mirror obs::MacCauseName's numbering");

const char* MacCauseName(MacCause cause) {
  return obs::MacCauseName(static_cast<int32_t>(cause));
}

MacModel::MacModel(const manet::ManetTopology* topology, const AirParams& air)
    : topology_(topology),
      air_(air),
      busy_until_(static_cast<size_t>(topology->num_nodes()), 0.0) {
  HM_CHECK(topology != nullptr);
}

double MacModel::SerialiseMs(uint64_t bytes) const {
  return air_.tx_overhead_ms +
         static_cast<double>(bytes) / air_.bandwidth_bytes_per_ms;
}

sim::TimeMs MacModel::AcquireRadio(int node, sim::TimeMs ready_ms) {
  const sim::TimeMs tail = busy_until_[static_cast<size_t>(node)];
  const sim::TimeMs start = std::max(ready_ms, tail);
  if (start > ready_ms) {
    ++counters_.queued_transmissions;
    counters_.queue_wait_ms += start - ready_ms;
    queue_high_watermark_ms_ = std::max(queue_high_watermark_ms_, start - ready_ms);
    // Contention stall: the frame sat in `node`'s transmit queue from the
    // moment its payload was ready until the radio freed up.
    HM_OBS_EVENT(.sim_ms = ready_ms, .kind = obs::EventKind::kTxQueueWait,
                 .src = node, .value = start - ready_ms);
  }
  return start;
}

sim::TimeMs MacModel::DrainedAtMs() const {
  sim::TimeMs latest = 0.0;
  for (sim::TimeMs t : busy_until_) latest = std::max(latest, t);
  return latest;
}

int MacModel::BusyNodesAt(sim::TimeMs now) const {
  int busy = 0;
  for (sim::TimeMs t : busy_until_) {
    if (t > now) ++busy;
  }
  return busy;
}

double MacModel::QueueBacklogMs(int node, sim::TimeMs now) const {
  if (node < 0 || static_cast<size_t>(node) >= busy_until_.size()) return 0.0;
  return std::max(0.0, busy_until_[static_cast<size_t>(node)] - now);
}

double MacModel::MaxQueueBacklogMs(sim::TimeMs now) const {
  double worst = 0.0;
  for (sim::TimeMs t : busy_until_) worst = std::max(worst, t - now);
  return std::max(0.0, worst);
}

FrameResult LegacyStretchMac::SendFrame(int node, int receiver,
                                        const net::Message& message,
                                        sim::TimeMs ready_ms) {
  (void)receiver;  // no ack/retry machinery; the frame always survives
  const sim::TimeMs start = AcquireRadio(node, ready_ms);
  // Neighbourhood contention: every radio neighbour still draining its own
  // queue when this send starts shares the carrier and stretches the send.
  int busy_neighbors = 0;
  for (int peer : topology().neighbors(node)) {
    if (busy_until_[static_cast<size_t>(peer)] > start) ++busy_neighbors;
  }
  const double tx_ms =
      SerialiseMs(message.bytes) *
      (1.0 + kContentionPerBusyNeighbor * busy_neighbors);
  const sim::TimeMs done = start + tx_ms;
  busy_until_[static_cast<size_t>(node)] = done;
  ++counters_.frames_sent;
  HM_OBS_EVENT(.sim_ms = start, .kind = obs::EventKind::kTxAirtime,
               .src = node, .dst = message.dst, .value = tx_ms,
               .aux = busy_neighbors);
  return FrameResult{done, true, 1};
}

CsmaCaMac::CsmaCaMac(const manet::ManetTopology* topology, const AirParams& air,
                     uint64_t seed)
    : MacModel(topology, air) {
  // One backoff/collision stream per node, keyed by node id so the draw
  // sequence depends only on that node's frame history, never on scheduling.
  const SeedStream streams(seed);
  node_rng_.reserve(busy_until_.size());
  for (size_t node = 0; node < busy_until_.size(); ++node) {
    node_rng_.push_back(streams.At(static_cast<uint64_t>(node)));
  }
}

FrameResult CsmaCaMac::SendFrame(int node, int receiver,
                                 const net::Message& message,
                                 sim::TimeMs ready_ms) {
  sim::TimeMs start = AcquireRadio(node, ready_ms);
  Rng& rng = node_rng_[static_cast<size_t>(node)];
  const double serialise_ms = SerialiseMs(message.bytes);
  // Collision retries only make sense for acked unicast frames toward a
  // node that can currently hear the sender; broadcasts (RREQ floods,
  // receiver = -1) and frames into the void are fire-and-forget.
  const std::vector<int>& out = topology().neighbors(node);
  const bool acked =
      receiver >= 0 && std::binary_search(out.begin(), out.end(), receiver);
  int cw = kCsmaCwMinSlots;
  int attempt = 0;
  while (true) {
    ++attempt;
    // Carrier sense: defer while any neighbour's radio is still busy.
    sim::TimeMs idle_at = start;
    int busy = 0;
    for (int peer : out) {
      const sim::TimeMs t = busy_until_[static_cast<size_t>(peer)];
      if (t > start) {
        ++busy;
        idle_at = std::max(idle_at, t);
      }
    }
    if (busy > 0) {
      ++counters_.deferrals;
      HM_OBS_EVENT(.sim_ms = start, .kind = obs::EventKind::kMacDefer,
                   .src = node, .value = idle_at - start, .aux = busy);
      start = idle_at;
    }
    // Slotted binary exponential backoff: uniform in [0, cw) slots.
    const double backoff_ms =
        kCsmaSlotMs *
        static_cast<double>(rng.NextIndex(static_cast<uint64_t>(cw)));
    start += backoff_ms;
    const sim::TimeMs end = start + serialise_ms;
    busy_until_[static_cast<size_t>(node)] = end;  // airtime burns either way
    ++counters_.frames_sent;
    HM_OBS_EVENT(.sim_ms = start, .kind = obs::EventKind::kTxAirtime,
                 .src = node, .dst = message.dst, .value = serialise_ms,
                 .aux = busy);
    bool collided = false;
    if (acked) {
      // Hidden terminals: transmitters the *receiver* hears but the sender
      // could not carrier-sense. Each one still busy when this frame starts
      // corrupts it independently.
      int rx_busy = 0;
      for (int peer : topology().neighbors(receiver)) {
        if (peer == node) continue;
        if (busy_until_[static_cast<size_t>(peer)] > start) ++rx_busy;
      }
      if (rx_busy > 0) {
        const double p =
            1.0 - std::pow(1.0 - kCsmaCollisionPerBusyNeighbor, rx_busy);
        collided = rng.Bernoulli(p);
      }
    }
    if (!collided) return FrameResult{end, true, attempt};
    ++counters_.collisions;
    HM_OBS_EVENT(.sim_ms = start, .kind = obs::EventKind::kMacCollision,
                 .attempt = attempt, .src = node, .dst = receiver,
                 .value = backoff_ms);
    if (attempt >= kCsmaRetryLimit) {
      ++counters_.drops_retry_limit;
      return FrameResult{end, false, attempt};
    }
    ++counters_.retransmits;
    cw = std::min(cw * 2, kCsmaCwMaxSlots);
    start = end;  // the corrupted frame's airtime is gone before the retry
  }
}

Result<std::unique_ptr<MacModel>> CreateMac(const MacOptions& options,
                                            const MacModel::AirParams& air,
                                            const manet::ManetTopology* topology) {
  switch (options.kind) {
    case MacOptions::Kind::kLegacyStretch:
      return std::unique_ptr<MacModel>(new LegacyStretchMac(topology, air));
    case MacOptions::Kind::kCsmaCa:
      return std::unique_ptr<MacModel>(new CsmaCaMac(topology, air, options.seed));
  }
  return InvalidArgumentError("MacOptions: unknown kind");
}

}  // namespace hyperm::channel
