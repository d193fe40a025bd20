// Unit tests of the MAC seam: cause naming pinned to obs, legacy-stretch
// equivalence, CSMA/CA carrier-sense deferral, hidden-terminal collisions
// with retransmit-until-retry-limit, and determinism of the per-node backoff
// streams.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "channel/mac.h"
#include "manet/topology.h"
#include "net/transport.h"
#include "obs/event_log.h"

namespace hyperm::channel {
namespace {

net::Message QueryMsg(int src, int dst, uint64_t bytes = 100) {
  return {net::MessageType::kQueryFlood, src, dst, bytes,
          sim::TrafficClass::kQuery};
}

manet::ManetTopology DenseField(int nodes = 12, uint64_t seed = 7) {
  manet::TopologyOptions options;
  options.num_nodes = nodes;
  options.field_size_m = 150.0;
  options.radio_range_m = 60.0;
  Rng rng(seed);
  Result<manet::ManetTopology> topology =
      manet::ManetTopology::Generate(options, rng);
  EXPECT_TRUE(topology.ok()) << topology.status().ToString();
  return std::move(topology).value();
}

/// Chain A(0) - B(1) - C(2) on a 60 m radio range, then `extra_c` more
/// nodes stacked on C: A and every C are classic hidden terminals (all hear
/// B, none hears A).
manet::ManetTopology HiddenTerminalChain(int extra_c = 0) {
  manet::TopologyOptions options;
  options.field_size_m = 200.0;
  options.radio_range_m = 60.0;
  std::vector<Vector> positions = {Vector{10.0, 100.0}, Vector{60.0, 100.0}};
  for (int i = 0; i <= extra_c; ++i) positions.push_back(Vector{110.0, 100.0});
  Result<manet::ManetTopology> topology =
      manet::ManetTopology::FromPositions(options, std::move(positions));
  EXPECT_TRUE(topology.ok()) << topology.status().ToString();
  return std::move(topology).value();
}

TEST(MacCauseTest, NamesMirrorObsNumbering) {
  EXPECT_STREQ(MacCauseName(MacCause::kDeferral), "deferrals");
  EXPECT_STREQ(MacCauseName(MacCause::kCollision), "collisions");
  EXPECT_STREQ(MacCauseName(MacCause::kRetransmit), "retransmits");
  EXPECT_STREQ(MacCauseName(MacCause::kDropRetryLimit), "drops_retry_limit");
  for (int32_t c = 0; c < 4; ++c) {
    EXPECT_STREQ(obs::MacCauseName(c),
                 MacCauseName(static_cast<MacCause>(c)));
  }
}

TEST(LegacyStretchMacTest, IdleFrameCostsSerialisationOnly) {
  manet::ManetTopology topology = DenseField();
  MacModel::AirParams air;
  LegacyStretchMac mac(&topology, air);
  const int dst = topology.neighbors(0).front();
  const FrameResult fr = mac.SendFrame(0, dst, QueryMsg(0, dst, 250), 0.0);
  EXPECT_TRUE(fr.delivered);
  EXPECT_EQ(fr.attempts, 1);
  EXPECT_DOUBLE_EQ(fr.done_ms,
                   air.tx_overhead_ms + 250.0 / air.bandwidth_bytes_per_ms);
  EXPECT_EQ(mac.counters().frames_sent, 1u);
  EXPECT_EQ(mac.counters().queued_transmissions, 0u);
  // A second frame queued at t=0 waits behind the first.
  const FrameResult second = mac.SendFrame(0, dst, QueryMsg(0, dst, 250), 0.0);
  EXPECT_GT(second.done_ms, fr.done_ms);
  EXPECT_EQ(mac.counters().queued_transmissions, 1u);
  EXPECT_GT(mac.queue_high_watermark_ms(), 0.0);
}

TEST(LegacyStretchMacTest, BusyNeighborsStretchAirtime) {
  // Chain A(0) - B(1) - C(2): C's frame keeps B's only other neighbour busy.
  manet::ManetTopology topology = HiddenTerminalChain();
  MacModel::AirParams air;
  LegacyStretchMac mac(&topology, air);
  (void)mac.SendFrame(2, 1, QueryMsg(2, 1, 4000), 0.0);
  const FrameResult fr = mac.SendFrame(1, 0, QueryMsg(1, 0, 250), 0.0);
  const double serialise = air.tx_overhead_ms + 250.0 / air.bandwidth_bytes_per_ms;
  EXPECT_DOUBLE_EQ(fr.done_ms, serialise * (1.0 + kContentionPerBusyNeighbor));
}

TEST(CsmaCaMacTest, DefersUntilBusyNeighborhoodClears) {
  // Chain A(0) - B(1) - C(2): A is busy, B sends to C. B hears A, so it
  // defers; C's only neighbour is B, so no busy node is hidden from B at C
  // and the frame cannot collide, whatever the collision rate.
  manet::ManetTopology topology = HiddenTerminalChain();
  MacModel::AirParams air;
  CsmaCaMac mac(&topology, air, MacOptions{}.seed);
  const FrameResult busy = mac.SendFrame(0, 1, QueryMsg(0, 1, 4000), 0.0);
  const FrameResult fr = mac.SendFrame(1, 2, QueryMsg(1, 2, 100), 0.0);
  EXPECT_TRUE(fr.delivered);
  EXPECT_EQ(fr.attempts, 1);
  EXPECT_GE(fr.done_ms, busy.done_ms);
  EXPECT_GE(mac.counters().deferrals, 1u);
  EXPECT_EQ(mac.counters().collisions, 0u);
}

TEST(CsmaCaMacTest, HiddenTerminalCollisionsRetryThenDrop) {
  // 400 hidden terminals stacked at C. They hear each other and queue
  // their frames back to back, and the MAC counts every neighbour of B whose
  // queued airtime outlasts the frame's start as busy. So each attempt of
  // A's frame to B collides with probability 1 - 0.98^400 > 0.9996, and the
  // frame drops after kCsmaRetryLimit attempts with probability above 0.998.
  constexpr int kHidden = 400;
  manet::ManetTopology topology = HiddenTerminalChain(kHidden - 1);
  ASSERT_EQ(topology.PathHops(0, 2), 2);  // A..C only via B
  MacModel::AirParams air;
  CsmaCaMac mac(&topology, air, MacOptions{}.seed);
  // Every C broadcasts a long frame into B's neighbourhood that A cannot
  // carrier-sense...
  for (int c = 2; c < 2 + kHidden; ++c) {
    (void)mac.SendFrame(c, /*receiver=*/-1, QueryMsg(c, 1, 100000), 0.0);
  }
  // ...so A's unicast to B collides at B, retries, and finally drops.
  const FrameResult fr = mac.SendFrame(0, 1, QueryMsg(0, 1, 100), 0.0);
  EXPECT_FALSE(fr.delivered);
  EXPECT_EQ(fr.attempts, kCsmaRetryLimit);
  EXPECT_EQ(mac.counters().collisions, static_cast<uint64_t>(kCsmaRetryLimit));
  EXPECT_EQ(mac.counters().retransmits, static_cast<uint64_t>(kCsmaRetryLimit - 1));
  EXPECT_EQ(mac.counters().drops_retry_limit, 1u);
  // Broadcasts are fire-and-forget: no ack, no collision machinery.
  const FrameResult bc = mac.SendFrame(0, -1, QueryMsg(0, 1, 100), fr.done_ms);
  EXPECT_TRUE(bc.delivered);
  EXPECT_EQ(bc.attempts, 1);
}

TEST(CsmaCaMacTest, DeterministicGivenSeedAcrossInstances) {
  manet::ManetTopology topology_a = DenseField(12, 7);
  manet::ManetTopology topology_b = DenseField(12, 7);
  MacModel::AirParams air;
  const uint64_t seed = MacOptions{}.seed;
  CsmaCaMac a(&topology_a, air, seed);
  CsmaCaMac b(&topology_b, air, seed);
  // A bursty interleaved workload: identical frame-by-frame outcomes.
  for (int i = 0; i < 64; ++i) {
    const int src = i % 12;
    const std::vector<int>& out = topology_a.neighbors(src);
    const int dst = out[static_cast<size_t>(i) % out.size()];
    const sim::TimeMs at = static_cast<double>(i / 4) * 2.0;
    const FrameResult fa = a.SendFrame(src, dst, QueryMsg(src, dst, 400), at);
    const FrameResult fb = b.SendFrame(src, dst, QueryMsg(src, dst, 400), at);
    EXPECT_EQ(fa.done_ms, fb.done_ms) << i;
    EXPECT_EQ(fa.delivered, fb.delivered) << i;
    EXPECT_EQ(fa.attempts, fb.attempts) << i;
  }
  EXPECT_EQ(a.counters().frames_sent, b.counters().frames_sent);
  EXPECT_EQ(a.counters().deferrals, b.counters().deferrals);
  EXPECT_EQ(a.counters().collisions, b.counters().collisions);
  EXPECT_EQ(a.counters().retransmits, b.counters().retransmits);
  EXPECT_EQ(a.counters().drops_retry_limit, b.counters().drops_retry_limit);
  // A different MAC seed reshuffles the backoff draws.
  manet::ManetTopology topology_c = DenseField(12, 7);
  CsmaCaMac c(&topology_c, air, seed ^ 0x5eed);
  bool any_differs = false;
  for (int i = 0; i < 64 && !any_differs; ++i) {
    const int src = i % 12;
    const std::vector<int>& out = topology_a.neighbors(src);
    const int dst = out[static_cast<size_t>(i) % out.size()];
    const sim::TimeMs at = static_cast<double>(i / 4) * 2.0;
    const FrameResult fc = c.SendFrame(src, dst, QueryMsg(src, dst, 400), at);
    const FrameResult fa = a.SendFrame(src, dst, QueryMsg(src, dst, 400), at);
    (void)fa;  // `a` has extra history; compare c against a fresh twin instead
    manet::ManetTopology topology_d = DenseField(12, 7);
    CsmaCaMac d(&topology_d, air, seed);
    const FrameResult fd = d.SendFrame(src, dst, QueryMsg(src, dst, 400), at);
    any_differs = fc.done_ms != fd.done_ms;
  }
  EXPECT_TRUE(any_differs);
}

TEST(CreateMacTest, FactorySelectsKindAndValidates) {
  manet::ManetTopology topology = DenseField();
  MacModel::AirParams air;
  MacOptions legacy;
  Result<std::unique_ptr<MacModel>> mac = CreateMac(legacy, air, &topology);
  ASSERT_TRUE(mac.ok());
  EXPECT_NE(dynamic_cast<LegacyStretchMac*>(mac->get()), nullptr);
  MacOptions csma;
  csma.kind = MacOptions::Kind::kCsmaCa;
  Result<std::unique_ptr<MacModel>> cs = CreateMac(csma, air, &topology);
  ASSERT_TRUE(cs.ok());
  EXPECT_NE(dynamic_cast<CsmaCaMac*>(cs->get()), nullptr);
  MacOptions unknown;
  unknown.kind = static_cast<MacOptions::Kind>(7);
  EXPECT_FALSE(CreateMac(unknown, air, &topology).ok());
}

}  // namespace
}  // namespace hyperm::channel
