#include "net/transport.h"

#include "common/check.h"
#include "common/rng.h"
#include "obs/event_log.h"
#include "obs/trace.h"

namespace hyperm::net {

// The flight recorder's cause payload mirrors DeliveryOutcome numerically
// (obs cannot include this header); keep the two enums in lockstep.
static_assert(static_cast<int>(DeliveryOutcome::kDelivered) == 0);
static_assert(static_cast<int>(DeliveryOutcome::kLostLoss) == 1);
static_assert(static_cast<int>(DeliveryOutcome::kLostDown) == 2);
static_assert(static_cast<int>(DeliveryOutcome::kLostPartition) == 3);
static_assert(static_cast<int>(DeliveryOutcome::kLostUnreachable) == 4);
static_assert(static_cast<int>(DeliveryOutcome::kLostMac) == 5);

UnreliableTransport::UnreliableTransport(sim::Simulator* sim,
                                         sim::NetworkStats* stats,
                                         FaultState* state,
                                         const NetOptions& options)
    : sim_(sim),
      stats_(stats),
      state_(state),
      loss_rate_(options.faults.loss_rate),
      retry_(options.retry),
      link_(options.link),
      msg_streams_(options.seed) {
  HM_CHECK(sim != nullptr);
  HM_CHECK(stats != nullptr);
  HM_CHECK(state != nullptr);
  if (retry_.adaptive) {
    rtt_.resize(static_cast<size_t>(state->num_peers()));
  }
}

const RttEstimator* UnreliableTransport::rtt_estimator(int peer) const {
  if (peer < 0 || static_cast<size_t>(peer) >= rtt_.size()) return nullptr;
  return &rtt_[static_cast<size_t>(peer)];
}

double UnreliableTransport::RetryWaitMs(int dst, int attempt) const {
  if (!retry_.adaptive) return RetryDelayMs(attempt);
  if (dst < 0 || static_cast<size_t>(dst) >= rtt_.size()) {
    return AdaptiveRetryDelayMs(RttEstimator{}, attempt);
  }
  return AdaptiveRetryDelayMs(rtt_[static_cast<size_t>(dst)], attempt);
}

bool UnreliableTransport::ReachableHint(int src, int dst) const {
  if (!state_->up(src) || !state_->up(dst)) return false;
  if (!state_->Connected(src, dst, sim_->now())) return false;
  if (channel_ != nullptr && !channel_->Reachable(src, dst)) return false;
  return true;
}

HopResult UnreliableTransport::SendHop(const Message& message) {
  HopResult result;
  // Flight recorder: one exchange id per logical send; the channel hooks
  // fired inside Transmit() inherit it through the ambient message context.
  HM_OBS_MSG_SCOPE(hm_obs_msg_id);
  HM_OBS_EVENT(.sim_ms = sim_->now(), .kind = obs::EventKind::kMsgSend,
               .src = message.src, .dst = message.dst,
               .value = static_cast<double>(message.bytes),
               .aux = static_cast<int64_t>(message.type));
  const int attempts = MaxAttempts();
  for (int attempt = 0; attempt < attempts; ++attempt) {
    // One independent randomness stream per physical transmission: the draw
    // sequence depends only on (seed, issue order), never on timing. The
    // stream's one draw is the loss Bernoulli. A loss-free plan builds no
    // stream; loss_rate_ is fixed for the transport's lifetime, so no draw
    // sequence changes.
    const bool loss_draw =
        loss_rate_ > 0.0 && msg_streams_.Next().Bernoulli(loss_rate_);
    // The radio transmits — energy and traffic are spent — before fate
    // (crash, partition, loss) decides whether anything arrives. With a
    // physical channel the attempt is one queued transmission per radio hop
    // of the current shortest path (the channel records the traffic); the
    // free-channel model charges exactly one hop.
    double air_ms = 0.0;
    bool geo_reachable = true;
    bool mac_dropped = false;
    if (channel_ != nullptr) {
      const ChannelTransmission tx = channel_->Transmit(message, sim_->now());
      counters_.messages_sent += static_cast<uint64_t>(tx.radio_hops);
      HM_OBS_COUNTER_ADD("net.messages", tx.radio_hops);
      air_ms = tx.latency_ms;
      geo_reachable = tx.reachable;
      mac_dropped = tx.mac_dropped;
    } else {
      stats_->RecordHop(message.cls, message.bytes);
      ++counters_.messages_sent;
      HM_OBS_COUNTER_ADD("net.messages", 1);
      air_ms = link_.HopMs(message.bytes);
    }
    if (attempt > 0) {
      ++counters_.retries;
      HM_OBS_COUNTER_ADD("net.retries", 1);
    }

    bool lost = false;
    if (!state_->up(message.src) || !state_->up(message.dst)) {
      ++counters_.dropped_down;
      HM_OBS_COUNTER_ADD("net.dropped_down", 1);
      result.outcome = DeliveryOutcome::kLostDown;
      lost = true;
    } else if (!state_->Connected(message.src, message.dst, sim_->now())) {
      ++counters_.dropped_partition;
      HM_OBS_COUNTER_ADD("net.dropped_partition", 1);
      result.outcome = DeliveryOutcome::kLostPartition;
      lost = true;
    } else if (!geo_reachable) {
      ++counters_.dropped_unreachable;
      HM_OBS_COUNTER_ADD("net.dropped_unreachable", 1);
      result.outcome = DeliveryOutcome::kLostUnreachable;
      lost = true;
    } else if (mac_dropped) {
      // The channel's MAC exhausted its retry limit on some hop: the frame
      // is gone regardless of the end-to-end loss draw. Checked before the
      // Bernoulli so legacy-MAC runs (never mac_dropped) keep an identical
      // randomness stream.
      ++counters_.dropped_mac;
      HM_OBS_COUNTER_ADD("net.dropped_mac", 1);
      result.outcome = DeliveryOutcome::kLostMac;
      lost = true;
    } else if (loss_draw) {
      ++counters_.dropped_loss;
      HM_OBS_COUNTER_ADD("net.dropped_loss", 1);
      result.outcome = DeliveryOutcome::kLostLoss;
      lost = true;
    }

    if (!lost) {
      if (retry_.adaptive && message.dst >= 0 &&
          static_cast<size_t>(message.dst) < rtt_.size()) {
        // The delivered exchange is the RTT sample, so the timeout widens
        // with the queueing variance it actually observes.
        rtt_[static_cast<size_t>(message.dst)].Observe(air_ms);
      }
      result.delivered = true;
      result.outcome = DeliveryOutcome::kDelivered;
      result.latency_ms += air_ms;
      HM_OBS_EVENT(.sim_ms = sim_->now(), .kind = obs::EventKind::kMsgDeliver,
                   .attempt = attempt, .src = message.src, .dst = message.dst,
                   .cause = 0, .value = result.latency_ms);
      return result;
    }
    // The sender learns of the failure only by ack timeout; the wait is real
    // latency whether or not another attempt follows.
    const double wait_ms = RetryWaitMs(message.dst, attempt);
    HM_OBS_EVENT(.sim_ms = sim_->now(), .kind = obs::EventKind::kMsgDrop,
                 .attempt = attempt, .src = message.src, .dst = message.dst,
                 .cause = static_cast<int32_t>(result.outcome),
                 .value = wait_ms);
    result.latency_ms += wait_ms;
  }
  ++counters_.dead_letters;
  HM_OBS_COUNTER_ADD("net.dead_letters", 1);
  HM_OBS_EVENT(.sim_ms = sim_->now(), .kind = obs::EventKind::kMsgDeadLetter,
               .attempt = attempts - 1, .src = message.src, .dst = message.dst,
               .cause = static_cast<int32_t>(result.outcome),
               .value = result.latency_ms);
  return result;
}

}  // namespace hyperm::net
