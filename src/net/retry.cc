#include "net/retry.h"

#include <algorithm>
#include <cmath>

namespace hyperm::net {
namespace {

constexpr int kMaxAttempts = 4;          // total physical transmissions
constexpr double kTimeoutMs = 20.0;      // ack wait before the first retransmission
constexpr double kBackoff = 2.0;         // timeout multiplier per further attempt
constexpr double kMaxTimeoutMs = 160.0;  // backoff cap
constexpr double kRttGain = 0.125;       // srtt EWMA gain (Jacobson alpha)
constexpr double kRttvarGain = 0.25;     // rttvar EWMA gain (Jacobson beta)
constexpr double kRttvarMult = 4.0;      // timeout = srtt + kRttvarMult * rttvar
constexpr double kMinTimeoutMs = 5.0;    // hard floor on the adaptive timeout

// Shared backoff schedule: base * kBackoff^attempt, capped at kMaxTimeoutMs.
double BackoffDelayMs(double base, int attempt) {
  double delay = base;
  for (int i = 0; i < attempt; ++i) {
    delay *= kBackoff;
    if (delay >= kMaxTimeoutMs) return kMaxTimeoutMs;
  }
  return std::min(delay, kMaxTimeoutMs);
}

}  // namespace

void RttEstimator::Observe(double rtt_ms) {
  rtt_ms = std::max(rtt_ms, 0.0);
  if (!has_sample_) {
    srtt_ = rtt_ms;
    rttvar_ = rtt_ms / 2.0;
    has_sample_ = true;
    return;
  }
  rttvar_ = (1.0 - kRttvarGain) * rttvar_ + kRttvarGain * std::abs(srtt_ - rtt_ms);
  srtt_ = (1.0 - kRttGain) * srtt_ + kRttGain * rtt_ms;
}

double RttEstimator::TimeoutMs() const {
  const double base = has_sample_ ? srtt_ + kRttvarMult * rttvar_ : kTimeoutMs;
  return std::max(base, kMinTimeoutMs);
}

double RetryDelayMs(int attempt) { return BackoffDelayMs(kTimeoutMs, attempt); }

double AdaptiveRetryDelayMs(const RttEstimator& estimator, int attempt) {
  return std::max(BackoffDelayMs(estimator.TimeoutMs(), attempt), kMinTimeoutMs);
}

int MaxAttempts() { return kMaxAttempts; }

}  // namespace hyperm::net
