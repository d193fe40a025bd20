// Link-layer ack/retry (ARQ) policy.
//
// MANET radios already retransmit at the MAC layer (802.11 link-level ARQ);
// this is that mechanism as the transport models it: a sender waits 20 ms
// for the ack, retransmits with exponential backoff (x2 per attempt) capped
// at 160 ms, and gives up after 4 physical transmissions — the message then
// counts as a dead letter. Every retransmission costs real radio energy and
// real latency, which is exactly the retry-traffic axis the fault benches
// sweep. The schedule's constants live in retry.cc.
//
// The policy has two timeout modes. Static (the default) uses the fixed
// 20 ms base. Adaptive derives the base from a Jacobson-style
// per-destination RTT estimate (srtt/rttvar EWMAs, RFC 6298 shape): under a
// congested channel the observed RTT inflates with queue depth, and a static
// timeout either fires spuriously (wasting energy on premature retransmits)
// or waits far too long.

#ifndef HYPERM_NET_RETRY_H_
#define HYPERM_NET_RETRY_H_

namespace hyperm::net {

/// Ack/retry configuration for one link-level exchange.
struct RetryPolicy {
  /// Adaptive mode (off by default). The ack-timeout base becomes
  /// srtt + 4 * rttvar of the destination's observed RTTs, floored at 5 ms;
  /// the static 20 ms base still seeds destinations with no samples yet.
  bool adaptive = false;
};

/// Jacobson/Karels RTT estimator for one destination: smoothed RTT plus a
/// mean-deviation estimate, so delay variance widens the timeout instead of
/// causing spurious retransmissions.
class RttEstimator {
 public:
  /// Folds one observed RTT sample into the estimate. First sample: srtt =
  /// rtt, rttvar = rtt / 2 (RFC 6298 §2.2); later samples use the EWMA gains
  /// 1/8 (srtt) and 1/4 (rttvar) (§2.3).
  void Observe(double rtt_ms);

  /// Ack-timeout base derived from the estimate: srtt + 4 * rttvar, never
  /// below 5 ms. Falls back to the static 20 ms base before the first sample.
  double TimeoutMs() const;

  bool has_sample() const { return has_sample_; }
  double srtt_ms() const { return srtt_; }
  double rttvar_ms() const { return rttvar_; }

 private:
  bool has_sample_ = false;
  double srtt_ = 0.0;
  double rttvar_ = 0.0;
};

/// Ack-timeout (ms) charged for failed attempt number `attempt` (0-based):
/// 20 * 2^attempt, capped at 160.
double RetryDelayMs(int attempt);

/// Adaptive variant: the estimator's timeout replaces the static base, then
/// the same backoff/cap schedule applies. The 5 ms floor holds for every
/// attempt.
double AdaptiveRetryDelayMs(const RttEstimator& estimator, int attempt);

/// Physical transmissions allowed per message.
int MaxAttempts();

}  // namespace hyperm::net

#endif  // HYPERM_NET_RETRY_H_
