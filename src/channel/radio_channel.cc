#include "channel/radio_channel.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/seed_stream.h"
#include "obs/event_log.h"
#include "obs/trace.h"

namespace hyperm::channel {

namespace {
// Sub-stream ids off ChannelOptions::seed (see common/seed_stream.h).
constexpr uint64_t kPlacementStream = 0;
constexpr uint64_t kMobilityStream = 1;
}  // namespace

Status ChannelOptions::Validate() const {
  if (tick_ms <= 0.0) return InvalidArgumentError("ChannelOptions: tick_ms <= 0");
  if (speed_m_per_s < 0.0) {
    return InvalidArgumentError("ChannelOptions: negative speed_m_per_s");
  }
  if (bandwidth_bytes_per_ms <= 0.0) {
    return InvalidArgumentError("ChannelOptions: bandwidth_bytes_per_ms <= 0");
  }
  if (tx_overhead_ms < 0.0) {
    return InvalidArgumentError("ChannelOptions: negative tx_overhead_ms");
  }
  if (field.field_size_m <= 0.0 || field.radio_range_m <= 0.0) {
    return InvalidArgumentError("ChannelOptions: non-positive field geometry");
  }
  return OkStatus();
}

Result<std::unique_ptr<RadioChannel>> RadioChannel::Create(
    int num_peers, const ChannelOptions& options, sim::NetworkStats* stats) {
  if (num_peers < 1) return InvalidArgumentError("RadioChannel: num_peers < 1");
  HM_CHECK(stats != nullptr);
  HM_RETURN_IF_ERROR(options.Validate());
  manet::TopologyOptions field = options.field;
  field.num_nodes = num_peers;
  Rng placement = SeedStream(options.seed).At(kPlacementStream);
  HM_ASSIGN_OR_RETURN(manet::ManetTopology topology,
                      manet::ManetTopology::Generate(field, placement));
  std::unique_ptr<RadioChannel> channel(
      new RadioChannel(options, std::move(topology), stats));
  MacModel::AirParams air;
  air.bandwidth_bytes_per_ms = options.bandwidth_bytes_per_ms;
  air.tx_overhead_ms = options.tx_overhead_ms;
  HM_ASSIGN_OR_RETURN(channel->mac_,
                      CreateMac(options.mac, air, &channel->topology_));
  HM_ASSIGN_OR_RETURN(
      channel->router_,
      route::CreateRouting(options.routing, &channel->topology_,
                           channel->mac_.get()));
  return channel;
}

RadioChannel::RadioChannel(const ChannelOptions& options,
                           manet::ManetTopology topology, sim::NetworkStats* stats)
    : options_(options),
      topology_(std::move(topology)),
      stats_(stats),
      mobility_rng_(SeedStream(options.seed).At(kMobilityStream)) {
  // PublishMacObs hardcodes the channel.mac.<cause> literals (the counter
  // macro caches its handle per call site); pin them to the enum's names so
  // a renamed cause cannot silently fork the counter from its events.
  HM_CHECK(std::strcmp(MacCauseName(MacCause::kDeferral), "deferrals") == 0);
  HM_CHECK(std::strcmp(MacCauseName(MacCause::kCollision), "collisions") == 0);
  HM_CHECK(std::strcmp(MacCauseName(MacCause::kRetransmit), "retransmits") == 0);
  HM_CHECK(std::strcmp(MacCauseName(MacCause::kDropRetryLimit),
                       "drops_retry_limit") == 0);
}

bool RadioChannel::connected() const { return topology_.connected(); }

int RadioChannel::island(int node) const {
  if (node < 0 || node >= topology_.num_nodes()) return -1;
  return topology_.island_labels()[static_cast<size_t>(node)];
}

int RadioChannel::num_islands() const { return topology_.num_islands(); }

bool RadioChannel::Reachable(int src, int dst) const {
  if (src < 0 || dst < 0 || src >= topology_.num_nodes() ||
      dst >= topology_.num_nodes()) {
    return false;
  }
  return topology_.SameIsland(src, dst);
}

const ChannelCounters& RadioChannel::counters() const {
  // The MAC owns the queue tails and frame totals now; mirror them so
  // existing readers keep seeing one flat counter block.
  const MacCounters& mc = mac_->counters();
  counters_.radio_transmissions = mc.frames_sent;
  counters_.queued_transmissions = mc.queued_transmissions;
  counters_.queue_wait_ms = mc.queue_wait_ms;
  return counters_;
}

void RadioChannel::PublishRouteCacheObs(sim::TimeMs now, int src, int dst) {
  const manet::RouteCacheCounters& rc = topology_.route_cache_counters();
  const uint64_t builds = rc.misses - emitted_route_.misses;
  if (builds > 0) {
    HM_OBS_COUNTER_ADD("channel.route_cache.misses", builds);
    HM_OBS_EVENT(.sim_ms = now, .kind = obs::EventKind::kRouteCacheBuild,
                 .src = src, .dst = dst, .aux = static_cast<int64_t>(builds));
  }
  if (rc.hits > emitted_route_.hits) {
    HM_OBS_COUNTER_ADD("channel.route_cache.hits", rc.hits - emitted_route_.hits);
  }
  if (rc.invalidations > emitted_route_.invalidations) {
    HM_OBS_COUNTER_ADD("channel.route_cache.invalidations",
                       rc.invalidations - emitted_route_.invalidations);
  }
  emitted_route_ = rc;
}

void RadioChannel::PublishMacObs() {
  const MacCounters& mc = mac_->counters();
  if (mc.deferrals > emitted_mac_.deferrals) {
    HM_OBS_COUNTER_ADD("channel.mac.deferrals",
                       mc.deferrals - emitted_mac_.deferrals);
  }
  if (mc.collisions > emitted_mac_.collisions) {
    HM_OBS_COUNTER_ADD("channel.mac.collisions",
                       mc.collisions - emitted_mac_.collisions);
  }
  if (mc.retransmits > emitted_mac_.retransmits) {
    HM_OBS_COUNTER_ADD("channel.mac.retransmits",
                       mc.retransmits - emitted_mac_.retransmits);
  }
  if (mc.drops_retry_limit > emitted_mac_.drops_retry_limit) {
    HM_OBS_COUNTER_ADD("channel.mac.drops_retry_limit",
                       mc.drops_retry_limit - emitted_mac_.drops_retry_limit);
  }
  emitted_mac_ = mc;
}

net::ChannelTransmission RadioChannel::Transmit(const net::Message& message,
                                                sim::TimeMs now) {
  HM_CHECK_GE(message.src, 0);
  HM_CHECK_LT(message.src, topology_.num_nodes());
  HM_CHECK_GE(message.dst, 0);
  HM_CHECK_LT(message.dst, topology_.num_nodes());
  net::ChannelTransmission result;
  if (message.src == message.dst) return result;  // local delivery, free
  route::RouteResolution res = router_->Resolve(message, now, path_scratch_);
  if (!res.found) {
    // No route this attempt (island boundary, or a discovery flood that
    // died out): the source radio still transmits into the void before the
    // ack timeout reveals the loss — fire-and-forget, after any discovery
    // latency the protocol already charged.
    const FrameResult fr =
        mac_->SendFrame(message.src, /*receiver=*/-1, message,
                        now + res.control_latency_ms);
    stats_->RecordHop(message.cls, message.bytes);
    HM_OBS_COUNTER_ADD("channel.radio_transmissions", 1);
    ++counters_.unreachable_transmissions;
    HM_OBS_COUNTER_ADD("channel.unreachable", 1);
    HM_OBS_EVENT(.sim_ms = now, .kind = obs::EventKind::kTxUnreachable,
                 .src = message.src, .dst = message.dst,
                 .value = fr.done_ms - now);
    result.latency_ms = fr.done_ms - now;
    result.radio_hops = 1;
    result.reachable = false;
    PublishMacObs();
    return result;
  }
  const std::vector<int>& path = path_scratch_;
  HM_CHECK(path.size() >= 2);  // full src..dst sequence by the seam contract
  PublishRouteCacheObs(now, message.src, message.dst);
  // One queued MAC frame per hop, in path order: each relay can only forward
  // once the previous hop's frame completes AND its own queue has drained —
  // this is where offered load becomes latency. Discovery latency (if any)
  // is serialized before the first data frame.
  sim::TimeMs ready = now + res.control_latency_ms;
  uint64_t frames = 0;
  bool dropped = false;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const FrameResult fr = mac_->SendFrame(path[i], path[i + 1], message, ready);
    frames += static_cast<uint64_t>(fr.attempts);
    ready = fr.done_ms;
    if (!fr.delivered) {
      // Retry limit exhausted: the frame is gone and the forwarder now knows
      // the link is dead — routing reacts (RERR), the transport sees a loss.
      dropped = true;
      router_->OnLinkBreak(path[i], path[i + 1], fr.done_ms);
      break;
    }
  }
  // Hop/byte/energy accounting batched per message: every frame carries the
  // same payload, so one RecordHops call replaces per-frame atomic
  // round-trips with identical totals (retransmitted frames included).
  stats_->RecordHops(message.cls, message.bytes, frames);
  HM_OBS_COUNTER_ADD("channel.radio_transmissions", frames);
  result.latency_ms = ready - now;
  result.radio_hops = static_cast<int>(frames);
  result.reachable = true;
  if (dropped) {
    ++counters_.mac_dropped_transmissions;
    HM_OBS_COUNTER_ADD("channel.mac_dropped", 1);
    result.mac_dropped = true;
  }
  PublishMacObs();
  return result;
}

void RadioChannel::Step() {
  topology_.RandomWaypointStep(step_m(), mobility_rng_);
  ++counters_.mobility_steps;
  if (!connected()) {
    ++counters_.disconnected_steps;
    HM_OBS_COUNTER_ADD("channel.disconnected_steps", 1);
  }
}

}  // namespace hyperm::channel
