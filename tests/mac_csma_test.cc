// Unit tests of the MAC seam: cause naming pinned to obs, option
// validation, legacy-stretch equivalence, CSMA/CA carrier-sense deferral,
// hidden-terminal collisions with retransmit-until-retry-limit, and
// determinism of the per-node backoff streams.

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

/// Chain A(0) - B(1) - C(2): A and C are classic hidden terminals (both hear
/// B, neither hears the other).
manet::ManetTopology HiddenTerminalChain() {
  manet::TopologyOptions options;
  options.num_nodes = 3;
  options.field_size_m = 200.0;
  options.radio_range_m = 60.0;
  std::vector<Vector> positions = {Vector{10.0, 100.0}, Vector{60.0, 100.0},
                                   Vector{110.0, 100.0}};
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

TEST(MacOptionsTest, ValidatesKnobs) {
  EXPECT_TRUE(MacOptions{}.Validate().ok());
  MacOptions bad;
  bad.slot_ms = -0.1;
  EXPECT_FALSE(bad.Validate().ok());
  bad = MacOptions{};
  bad.cw_min_slots = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = MacOptions{};
  bad.cw_max_slots = bad.cw_min_slots - 1;
  EXPECT_FALSE(bad.Validate().ok());
  bad = MacOptions{};
  bad.retry_limit = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = MacOptions{};
  bad.collision_per_busy_neighbor = 1.0;
  EXPECT_FALSE(bad.Validate().ok());
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
  manet::ManetTopology topology = DenseField();
  MacModel::AirParams air;
  air.contention_per_busy_neighbor = 0.5;
  LegacyStretchMac mac(&topology, air);
  const int nbr = topology.neighbors(0).front();
  const int nbr_dst = topology.neighbors(nbr).front();
  // Occupy the neighbour's radio, then measure node 0's stretched frame.
  (void)mac.SendFrame(nbr, nbr_dst, QueryMsg(nbr, nbr_dst, 4000), 0.0);
  const int dst = topology.neighbors(0).front();
  const FrameResult fr = mac.SendFrame(0, dst, QueryMsg(0, dst, 250), 0.0);
  const double serialise = air.tx_overhead_ms + 250.0 / air.bandwidth_bytes_per_ms;
  EXPECT_GT(fr.done_ms, serialise);  // at least one busy neighbour stretched it
}

TEST(CsmaCaMacTest, DefersUntilBusyNeighborhoodClears) {
  manet::ManetTopology topology = DenseField();
  MacModel::AirParams air;
  MacOptions options;
  options.kind = MacOptions::Kind::kCsmaCa;
  options.collision_per_busy_neighbor = 0.0;  // isolate carrier sensing
  CsmaCaMac mac(&topology, air, options);
  const int nbr = topology.neighbors(0).front();
  const int nbr_dst = topology.neighbors(nbr).front();
  const FrameResult busy =
      mac.SendFrame(nbr, nbr_dst, QueryMsg(nbr, nbr_dst, 4000), 0.0);
  // Node 0 senses the busy neighbour and defers past its tail.
  const int dst = topology.neighbors(0).front();
  const FrameResult fr = mac.SendFrame(0, dst, QueryMsg(0, dst, 100), 0.0);
  EXPECT_TRUE(fr.delivered);
  EXPECT_GE(fr.done_ms, busy.done_ms);
  EXPECT_GE(mac.counters().deferrals, 1u);
  EXPECT_EQ(mac.counters().collisions, 0u);
}

TEST(CsmaCaMacTest, HiddenTerminalCollisionsRetryThenDrop) {
  manet::ManetTopology topology = HiddenTerminalChain();
  ASSERT_EQ(topology.PathHops(0, 2), 2);  // A..C only via B
  MacModel::AirParams air;
  MacOptions options;
  options.kind = MacOptions::Kind::kCsmaCa;
  options.collision_per_busy_neighbor = 0.999;  // collide essentially always
  options.retry_limit = 3;
  CsmaCaMac mac(&topology, air, options);
  // C floods B's neighbourhood with a long frame A cannot carrier-sense...
  (void)mac.SendFrame(2, /*receiver=*/-1, QueryMsg(2, 1, 100000), 0.0);
  // ...so A's unicast to B collides at B, retries, and finally drops.
  const FrameResult fr = mac.SendFrame(0, 1, QueryMsg(0, 1, 100), 0.0);
  EXPECT_FALSE(fr.delivered);
  EXPECT_EQ(fr.attempts, options.retry_limit);
  EXPECT_EQ(mac.counters().collisions, 3u);
  EXPECT_EQ(mac.counters().retransmits, 2u);
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
  MacOptions options;
  options.kind = MacOptions::Kind::kCsmaCa;
  options.collision_per_busy_neighbor = 0.3;
  CsmaCaMac a(&topology_a, air, options);
  CsmaCaMac b(&topology_b, air, options);
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
  MacOptions reseeded = options;
  reseeded.seed ^= 0x5eed;
  manet::ManetTopology topology_c = DenseField(12, 7);
  CsmaCaMac c(&topology_c, air, reseeded);
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
    CsmaCaMac d(&topology_d, air, options);
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
  MacOptions bad = csma;
  bad.retry_limit = 0;
  EXPECT_FALSE(CreateMac(bad, air, &topology).ok());
}

}  // namespace
}  // namespace hyperm::channel
