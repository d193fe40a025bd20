// Unit tests of the transport subsystem: fault plans, retry
// policy arithmetic, transport delivery semantics and their determinism.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "net/fault_plan.h"
#include "net/retry.h"
#include "net/transport.h"
#include "sim/dissemination.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace hyperm::net {
namespace {

TEST(FaultPlanTest, ValidatesProbabilitiesAndSchedules) {
  FaultPlan plan;
  EXPECT_TRUE(plan.Validate(4).ok());

  plan.loss_rate = 1.5;
  EXPECT_FALSE(plan.Validate(4).ok());
  plan.loss_rate = -0.1;
  EXPECT_FALSE(plan.Validate(4).ok());
  plan.loss_rate = 0.2;
  EXPECT_TRUE(plan.Validate(4).ok());

  plan.peer_events.push_back(PeerEvent{100.0, 7, false});
  EXPECT_FALSE(plan.Validate(4).ok());  // peer 7 of 4
  plan.peer_events.back().peer = 3;
  EXPECT_TRUE(plan.Validate(4).ok());

  plan.partitions.push_back(Partition{200.0, 100.0, {0, 1}});
  EXPECT_FALSE(plan.Validate(4).ok());  // end before start
  plan.partitions.back().end_ms = 300.0;
  EXPECT_TRUE(plan.Validate(4).ok());
}

// Satellite edge cases: schedules that are legal but easy to mis-handle.
TEST(FaultPlanTest, AcceptsOverlappingPartitionWindows) {
  FaultPlan plan;
  plan.partitions.push_back(Partition{100.0, 300.0, {0, 1}});
  plan.partitions.push_back(Partition{200.0, 400.0, {2}});  // overlaps in time
  ASSERT_TRUE(plan.Validate(4).ok());
  FaultState state(4, plan);
  // In the overlap both windows apply simultaneously: 0-2 crosses the second
  // split, 0-1 sit together in the first group, and 1-3 crosses the first.
  EXPECT_FALSE(state.Connected(0, 2, 250.0));
  EXPECT_TRUE(state.Connected(0, 1, 250.0));
  EXPECT_FALSE(state.Connected(1, 3, 250.0));
  // After the first window closes only the second still blocks.
  EXPECT_TRUE(state.Connected(1, 3, 350.0));
  EXPECT_FALSE(state.Connected(2, 3, 350.0));
}

TEST(FaultPlanTest, AcceptsOutOfOrderAndDuplicatePeerEvents) {
  FaultPlan plan;
  // Events need not be sorted by time, and the same peer may transition
  // repeatedly — even twice at the same instant (last write wins when the
  // simulator applies them in scheduling order).
  plan.peer_events.push_back(PeerEvent{300.0, 1, true});
  plan.peer_events.push_back(PeerEvent{100.0, 1, false});
  plan.peer_events.push_back(PeerEvent{100.0, 1, false});
  EXPECT_TRUE(plan.Validate(4).ok());
  plan.peer_events.push_back(PeerEvent{-1.0, 1, false});
  EXPECT_FALSE(plan.Validate(4).ok());  // negative times stay rejected
}

TEST(FaultPlanTest, ZeroLengthPartitionWindowNeverBlocks) {
  FaultPlan plan;
  plan.partitions.push_back(Partition{100.0, 100.0, {0}});  // empty [100,100)
  ASSERT_TRUE(plan.Validate(4).ok());
  FaultState state(4, plan);
  EXPECT_TRUE(state.Connected(0, 1, 99.0));
  EXPECT_TRUE(state.Connected(0, 1, 100.0));  // half-open: instant window is empty
  EXPECT_TRUE(state.Connected(0, 1, 101.0));
}

TEST(FaultStateTest, TracksAvailabilityAndPartitions) {
  FaultPlan plan;
  plan.partitions.push_back(Partition{100.0, 200.0, {0, 1}});
  FaultState state(4, plan);

  for (int p = 0; p < 4; ++p) EXPECT_TRUE(state.up(p));
  EXPECT_FALSE(state.up(-1));
  EXPECT_FALSE(state.up(4));
  state.SetUp(2, false);
  EXPECT_FALSE(state.up(2));
  state.SetUp(2, true);
  EXPECT_TRUE(state.up(2));

  // Outside the window everyone talks; inside, only within a group.
  EXPECT_TRUE(state.Connected(0, 2, 50.0));
  EXPECT_TRUE(state.Connected(0, 1, 150.0));   // both in the group
  EXPECT_TRUE(state.Connected(2, 3, 150.0));   // both in the complement
  EXPECT_FALSE(state.Connected(0, 2, 150.0));  // across the split
  EXPECT_FALSE(state.Connected(3, 1, 150.0));
  EXPECT_TRUE(state.Connected(0, 2, 200.0));  // window is half-open
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyWithCap) {
  // 20 ms, x2, cap 160 ms, 4 transmissions.
  EXPECT_DOUBLE_EQ(RetryDelayMs(0), 20.0);
  EXPECT_DOUBLE_EQ(RetryDelayMs(1), 40.0);
  EXPECT_DOUBLE_EQ(RetryDelayMs(2), 80.0);
  EXPECT_DOUBLE_EQ(RetryDelayMs(3), 160.0);
  EXPECT_DOUBLE_EQ(RetryDelayMs(9), 160.0);  // capped
  EXPECT_EQ(MaxAttempts(), 4);
}

// Satellite regression: HopMs must stay finite when the configured bandwidth
// is zero or negative instead of dividing by zero.
TEST(LinkModelTest, HopMsClampsNonPositiveBandwidth) {
  sim::LinkModel link;
  link.bandwidth_bytes_per_ms = 0.0;
  EXPECT_TRUE(std::isfinite(link.HopMs(1024.0)));
  link.bandwidth_bytes_per_ms = -5.0;
  EXPECT_TRUE(std::isfinite(link.HopMs(1024.0)));
  EXPECT_GE(link.HopMs(0.0), link.hop_overhead_ms);
  // Sane configurations are untouched.
  link.bandwidth_bytes_per_ms = 125.0;
  EXPECT_DOUBLE_EQ(link.HopMs(125.0), link.hop_overhead_ms + 1.0);
}

NetOptions LossyOptions(double loss) {
  NetOptions options;
  options.faults.loss_rate = loss;
  return options;
}

struct SendOutcome {
  int delivered = 0;
  double total_latency = 0.0;
  TransportCounters counters;
};

SendOutcome SendMany(const NetOptions& options, int count, int num_peers = 4) {
  sim::Simulator sim;
  sim::NetworkStats stats;
  FaultState state(num_peers, options.faults);
  UnreliableTransport transport(&sim, &stats, &state, options);
  SendOutcome outcome;
  for (int i = 0; i < count; ++i) {
    const HopResult r = transport.SendHop(
        {MessageType::kRoute, i % num_peers, (i + 1) % num_peers, 64,
         sim::TrafficClass::kQuery});
    outcome.delivered += r.delivered ? 1 : 0;
    outcome.total_latency += r.latency_ms;
  }
  outcome.counters = transport.counters();
  return outcome;
}

TEST(UnreliableTransportTest, SeededRunsAreDeterministic) {
  const NetOptions options = LossyOptions(0.3);
  const SendOutcome a = SendMany(options, 500);
  const SendOutcome b = SendMany(options, 500);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.total_latency, b.total_latency);
  EXPECT_EQ(a.counters.messages_sent, b.counters.messages_sent);
  EXPECT_EQ(a.counters.retries, b.counters.retries);
  EXPECT_EQ(a.counters.dead_letters, b.counters.dead_letters);
  EXPECT_EQ(a.counters.dropped_loss, b.counters.dropped_loss);

  NetOptions reseeded = options;
  reseeded.seed ^= 0xdecafbad;
  const SendOutcome c = SendMany(reseeded, 500);
  EXPECT_NE(a.counters.dropped_loss, c.counters.dropped_loss);
}

TEST(UnreliableTransportTest, RetriesMaskLossAtACost) {
  const SendOutcome with_retries = SendMany(LossyOptions(0.2), 1000);
  // 4 attempts vs 20% loss: effective failure ~0.2^4 = 0.16%.
  EXPECT_GE(with_retries.delivered, 985);
  EXPECT_GT(with_retries.counters.retries, 0u);
  // Retransmissions cost real traffic beyond one send per message.
  EXPECT_GT(with_retries.counters.messages_sent, 1000u);
  EXPECT_EQ(with_retries.counters.messages_sent,
            1000u + with_retries.counters.retries);
  // Each transmission still falls to the raw loss rate; retries recover
  // most of what the first attempts lost.
  const double tx_loss = static_cast<double>(with_retries.counters.dropped_loss) /
                         static_cast<double>(with_retries.counters.messages_sent);
  EXPECT_GT(tx_loss, 0.15);
  EXPECT_LT(tx_loss, 0.25);
  EXPECT_EQ(with_retries.counters.dead_letters,
            static_cast<uint64_t>(1000 - with_retries.delivered));
}

TEST(UnreliableTransportTest, LossFreePlanDeliversEverything) {
  const SendOutcome outcome = SendMany(LossyOptions(0.0), 200);
  EXPECT_EQ(outcome.delivered, 200);
  EXPECT_EQ(outcome.counters.dead_letters, 0u);
  EXPECT_EQ(outcome.counters.retries, 0u);
  EXPECT_EQ(outcome.counters.messages_sent, 200u);

  // The default (empty) plan is the fault-free network: one message is one
  // recorded hop of its class and bytes, delivered after one LinkModel hop.
  const NetOptions options;
  sim::Simulator sim;
  sim::NetworkStats stats;
  FaultState state(2, options.faults);
  UnreliableTransport transport(&sim, &stats, &state, options);
  const HopResult result = transport.SendHop(
      {MessageType::kQueryFlood, 0, 1, 100, sim::TrafficClass::kQuery});
  EXPECT_TRUE(result.delivered);
  EXPECT_EQ(result.outcome, DeliveryOutcome::kDelivered);
  EXPECT_GT(result.latency_ms, 0.0);
  EXPECT_DOUBLE_EQ(result.latency_ms, options.link.HopMs(100.0));
  EXPECT_EQ(stats.hops(sim::TrafficClass::kQuery), 1u);
  EXPECT_EQ(stats.bytes(sim::TrafficClass::kQuery), 100u);
  EXPECT_EQ(stats.hops(sim::TrafficClass::kInsert), 0u);
  EXPECT_EQ(transport.counters().messages_sent, 1u);
  EXPECT_EQ(transport.counters().retries, 0u);
  EXPECT_EQ(transport.counters().dead_letters, 0u);
  // Peers are known only in range: no id outside [0, num_peers) is up.
  EXPECT_TRUE(transport.peer_up(0));
  EXPECT_TRUE(transport.peer_up(1));
  EXPECT_FALSE(transport.peer_up(2));
  EXPECT_FALSE(transport.peer_up(-1));
  EXPECT_FALSE(transport.peer_up(12345));
}

TEST(UnreliableTransportTest, DownPeersAndPartitionsBlockDelivery) {
  NetOptions options;
  sim::Simulator sim;
  sim::NetworkStats stats;
  FaultState state(4, options.faults);
  UnreliableTransport transport(&sim, &stats, &state, options);

  state.SetUp(1, false);
  const HopResult to_down = transport.SendHop(
      {MessageType::kRoute, 0, 1, 64, sim::TrafficClass::kQuery});
  EXPECT_FALSE(to_down.delivered);
  EXPECT_GT(transport.counters().dropped_down, 0u);
  EXPECT_FALSE(transport.peer_up(1));
  state.SetUp(1, true);

  NetOptions split = options;
  split.faults.partitions.push_back(Partition{0.0, 1000.0, {0}});
  FaultState split_state(4, split.faults);
  UnreliableTransport split_transport(&sim, &stats, &split_state, split);
  const HopResult across = split_transport.SendHop(
      {MessageType::kRoute, 0, 2, 64, sim::TrafficClass::kQuery});
  EXPECT_FALSE(across.delivered);
  EXPECT_GT(split_transport.counters().dropped_partition, 0u);
  const HopResult inside = split_transport.SendHop(
      {MessageType::kRoute, 2, 3, 64, sim::TrafficClass::kQuery});
  EXPECT_TRUE(inside.delivered);
}

TEST(UnreliableTransportTest, FailedAttemptsChargeEnergyAndLatency) {
  NetOptions options;
  options.faults.loss_rate = 1.0;  // nothing ever arrives
  sim::Simulator sim;
  sim::NetworkStats stats;
  FaultState state(2, options.faults);
  UnreliableTransport transport(&sim, &stats, &state, options);
  const HopResult r = transport.SendHop(
      {MessageType::kInsert, 0, 1, 256, sim::TrafficClass::kInsert});
  EXPECT_FALSE(r.delivered);
  // Every physical attempt burnt radio traffic...
  EXPECT_EQ(stats.hops(sim::TrafficClass::kInsert),
            static_cast<uint64_t>(MaxAttempts()));
  // ...and the sender waited out every ack timeout: 20+40+80+160.
  EXPECT_DOUBLE_EQ(r.latency_ms, 300.0);
  EXPECT_EQ(transport.counters().dead_letters, 1u);
}

// --- Adaptive ARQ (Jacobson RTT estimation) --------------------------------

TEST(RttEstimatorTest, ConvergesOnFixedSyntheticTrace) {
  RttEstimator est;
  EXPECT_FALSE(est.has_sample());
  // Before any sample the static 20 ms timeout seeds the estimate.
  EXPECT_DOUBLE_EQ(est.TimeoutMs(), 20.0);

  est.Observe(80.0);  // first sample: srtt = rtt, rttvar = rtt/2
  EXPECT_TRUE(est.has_sample());
  EXPECT_DOUBLE_EQ(est.srtt_ms(), 80.0);
  EXPECT_DOUBLE_EQ(est.rttvar_ms(), 40.0);
  EXPECT_DOUBLE_EQ(est.TimeoutMs(), 80.0 + 4.0 * 40.0);

  // A constant 10 ms trace pulls srtt to 10 and rttvar toward zero, so the
  // timeout converges to ~srtt instead of staying at the inflated start.
  for (int i = 0; i < 200; ++i) est.Observe(10.0);
  EXPECT_NEAR(est.srtt_ms(), 10.0, 0.01);
  EXPECT_NEAR(est.rttvar_ms(), 0.0, 0.01);
  EXPECT_LT(est.TimeoutMs(), 11.0);
  EXPECT_GE(est.TimeoutMs(), 5.0);
}

TEST(RttEstimatorTest, TimeoutNeverBelowConfiguredFloor) {
  constexpr double kFloorMs = 5.0;  // the adaptive timeout's floor
  RttEstimator est;
  for (int i = 0; i < 50; ++i) est.Observe(0.25);  // near-zero RTTs
  EXPECT_DOUBLE_EQ(est.TimeoutMs(), kFloorMs);
  for (int attempt = 0; attempt < 6; ++attempt) {
    EXPECT_GE(AdaptiveRetryDelayMs(est, attempt), kFloorMs);
  }
  // The backoff/cap schedule still applies above the floor.
  RttEstimator wide;
  wide.Observe(30.0);  // timeout base 30 + 4*15 = 90
  EXPECT_DOUBLE_EQ(AdaptiveRetryDelayMs(wide, 0), 90.0);
  EXPECT_DOUBLE_EQ(AdaptiveRetryDelayMs(wide, 1), 160.0);  // capped
}

TEST(UnreliableTransportTest, AdaptiveModeTrainsPerDestinationEstimators) {
  NetOptions options;
  options.retry.adaptive = true;
  sim::Simulator sim;
  sim::NetworkStats stats;
  FaultState state(4, options.faults);
  UnreliableTransport transport(&sim, &stats, &state, options);
  // Loss-free deliveries: every exchange feeds its destination's estimator.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(
        transport
            .SendHop({MessageType::kRoute, 0, 1, 64, sim::TrafficClass::kQuery})
            .delivered);
  }
  const RttEstimator* trained = transport.rtt_estimator(1);
  ASSERT_NE(trained, nullptr);
  EXPECT_TRUE(trained->has_sample());
  // Free-channel link: every sample equals HopMs(64), so srtt locks onto it.
  EXPECT_DOUBLE_EQ(trained->srtt_ms(), options.link.HopMs(64.0));
  const RttEstimator* untouched = transport.rtt_estimator(2);
  ASSERT_NE(untouched, nullptr);
  EXPECT_FALSE(untouched->has_sample());
  EXPECT_EQ(transport.rtt_estimator(99), nullptr);
}

TEST(UnreliableTransportTest, AdaptiveTimeoutsDriveFailedAttemptLatency) {
  NetOptions options;
  options.faults.loss_rate = 1.0;  // nothing arrives: all waits are timeouts
  options.retry.adaptive = true;
  sim::Simulator sim;
  sim::NetworkStats stats;
  FaultState state(2, options.faults);
  UnreliableTransport transport(&sim, &stats, &state, options);
  const HopResult r = transport.SendHop(
      {MessageType::kInsert, 0, 1, 256, sim::TrafficClass::kInsert});
  EXPECT_FALSE(r.delivered);
  // No samples could be observed, so the waits follow the untrained
  // schedule — computable exactly from the public delay function.
  double expected = 0.0;
  const RttEstimator untrained;
  for (int attempt = 0; attempt < MaxAttempts(); ++attempt) {
    expected += AdaptiveRetryDelayMs(untrained, attempt);
  }
  EXPECT_DOUBLE_EQ(r.latency_ms, expected);
}

}  // namespace
}  // namespace hyperm::net
