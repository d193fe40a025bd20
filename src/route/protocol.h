// The routing seam: who decides a packet's forwarding path.
//
// PR 10 pulls path selection out of channel::RadioChannel::Transmit into a
// RoutingProtocol consulted once per transmission attempt. Two
// implementations:
//
//  * OracleRouting (route/oracle.h) — the default. Wraps the topology's
//    epoch-cached global BFS bit-identically to the pre-seam channel: an
//    O(1) same-island pre-check keeps unreachable drops BFS-free on
//    symmetric graphs, then the cached shortest path. Omniscient: it knows
//    the current connectivity the instant mobility changes it.
//
//  * AodvRouting (route/aodv.h) — an AODV-flavoured distributed protocol:
//    per-node route caches with soft-state expiry, RREQ flood discovery
//    with sequence numbers on a cache miss, RERR propagation when the MAC
//    reports a broken link. Staleness costs airtime and latency (control
//    frames burn real MAC time and discoveries delay the data), never
//    delivery-accounting correctness: within one Transmit the topology is
//    frozen (mobility only steps between simulator events), so a resolved
//    path is valid for the frames that follow it, and a failed discovery
//    means the destination is genuinely unreachable right now.
//
// The seam contract RadioChannel relies on (DESIGN.md §16):
//  - Resolve fills `path` with the full node sequence src..dst (both
//    endpoints) and returns found=false with an empty path when no route
//    exists this attempt.
//  - control_latency_ms is serialized *before* the data frames — the
//    channel starts forwarding at now + control_latency_ms.
//  - OnLinkBreak is the MAC's retransmit-failure feedback; protocols react
//    by invalidating state, never by failing the current call.

#ifndef HYPERM_ROUTE_PROTOCOL_H_
#define HYPERM_ROUTE_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "net/transport.h"
#include "sim/simulator.h"

namespace hyperm::channel {
class MacModel;
}
namespace hyperm::manet {
class ManetTopology;
}

namespace hyperm::route {

/// Routing configuration (one member of ChannelOptions). The default keeps
/// the omniscient oracle, so existing configurations are unchanged.
struct RoutingOptions {
  enum class Kind {
    kOracle = 0,  ///< epoch-cached global BFS (bit-identical default)
    kAodv,        ///< distributed discovery with soft-state route caches
  };
  Kind kind = Kind::kOracle;
};

/// Running totals a protocol exposes for benches and tests. The oracle only
/// moves resolutions/unreachable; everything else is AODV bookkeeping.
struct RoutingCounters {
  uint64_t resolutions = 0;         ///< Resolve calls
  uint64_t unreachable = 0;         ///< resolutions with no route
  uint64_t cache_hits = 0;          ///< served by a cached route walk
  uint64_t cache_expiries = 0;      ///< entries dropped by TTL during a walk
  uint64_t stale_routes = 0;        ///< entries whose next hop moved away
  uint64_t discoveries = 0;         ///< RREQ floods started
  uint64_t discovery_failures = 0;  ///< floods that never reached the target
  uint64_t control_frames = 0;      ///< RREQ/RREP/RERR frames charged
  uint64_t control_bytes = 0;       ///< payload bytes of those frames
  uint64_t link_breaks = 0;         ///< OnLinkBreak notifications
  uint64_t route_errors = 0;        ///< entries invalidated by link breaks
};

/// Outcome of one path resolution.
struct RouteResolution {
  bool found = false;             ///< `path` holds a full src..dst sequence
  bool discovered = false;        ///< a discovery round ran on this attempt
  double control_latency_ms = 0;  ///< discovery time serialized before data
};

/// The seam consulted by RadioChannel::Transmit once per attempt.
/// Single-threaded by contract, like the channel that owns it.
class RoutingProtocol {
 public:
  virtual ~RoutingProtocol() = default;

  /// Resolves the forwarding path for `message` (src -> dst) at `now` into
  /// `path`. found=false: no route this attempt (the channel charges the
  /// unreachable transmission exactly as before).
  virtual RouteResolution Resolve(const net::Message& message, sim::TimeMs now,
                                  std::vector<int>& path) = 0;

  /// Link-layer feedback: the MAC exhausted its retries on node->neighbor.
  virtual void OnLinkBreak(int node, int neighbor, sim::TimeMs now) {
    (void)node;
    (void)neighbor;
    (void)now;
  }

  virtual const RoutingCounters& counters() const = 0;

  /// Short protocol label for reports ("oracle", "aodv").
  virtual const char* name() const = 0;
};

/// Factory keyed on options.kind. `topology` must outlive the protocol;
/// `mac` is required by kAodv (control frames burn airtime through it) and
/// ignored by the oracle.
Result<std::unique_ptr<RoutingProtocol>> CreateRouting(
    const RoutingOptions& options, const manet::ManetTopology* topology,
    channel::MacModel* mac);

}  // namespace hyperm::route

#endif  // HYPERM_ROUTE_PROTOCOL_H_
