// AODV-flavoured distributed route discovery over the MAC seam.
//
// Per-node route tables (dst -> {next hop, hop count, sequence number,
// soft-state expiry}) answer Resolve by walking next hops from the source;
// every hop is validated against the *current* neighbour lists, so a
// mobility epoch that moved a relay out of range turns the walk into a
// cache miss instead of a wrong delivery. A miss triggers an RREQ flood —
// breadth-first over ascending neighbour lists, so discovered routes match
// the oracle's hop counts on static graphs — whose frames burn real airtime
// through the MacModel; the RREP unicasts back along the reverse path
// (radio links are bidirectional) installing forward routes, and every
// flooded node learns its reverse route to the origin for free (standard
// AODV behaviour).
//
// Staleness therefore costs control airtime and discovery latency, never
// delivery-accounting correctness: within one Transmit the topology is
// frozen, so a path that validates is a path the frames can follow, and a
// flood that fails proves the destination is unreachable right now.
//
// RERR: when the MAC exhausts retransmits on a link (OnLinkBreak), the
// detecting node drops every route through the dead neighbour, broadcasts
// one RERR frame, and direct precursors (nodes whose next hop toward an
// affected destination is the detecting node) drop theirs too. Deeper
// stale chains are caught lazily by walk validation.
//
// Determinism: no randomness at all — discovery order is the deterministic
// BFS, timing comes from the MAC, and route tables are std::map so
// iteration order is stable across platforms.

#ifndef HYPERM_ROUTE_AODV_H_
#define HYPERM_ROUTE_AODV_H_

#include <map>
#include <vector>

#include "channel/mac.h"
#include "manet/topology.h"
#include "route/protocol.h"

namespace hyperm::route {

// AODV constants (DESIGN.md §16).
inline constexpr double kAodvRouteTtlMs = 5000.0;  ///< soft-state expiry of cached routes
inline constexpr uint64_t kAodvControlBytes = 32;  ///< RREQ/RREP/RERR frame payload size

class AodvRouting : public RoutingProtocol {
 public:
  /// `topology` and `mac` are not owned and must outlive the protocol; the
  /// MAC is how control frames turn into airtime and queue pressure.
  AodvRouting(const manet::ManetTopology* topology, channel::MacModel* mac);

  RouteResolution Resolve(const net::Message& message, sim::TimeMs now,
                          std::vector<int>& path) override;
  void OnLinkBreak(int node, int neighbor, sim::TimeMs now) override;
  const RoutingCounters& counters() const override { return counters_; }
  const char* name() const override { return "aodv"; }

 private:
  struct Entry {
    int next_hop = -1;
    int hops = 0;
    uint64_t seq = 0;              ///< destination sequence number at install
    sim::TimeMs expires_ms = 0.0;  ///< soft-state TTL
  };

  /// Follows cached next hops src -> dst, validating each against the
  /// current neighbour lists and TTLs. Fills `path` and returns true on
  /// a complete valid walk; otherwise erases the offending entry and
  /// returns false with `path` cleared.
  bool WalkCachedRoute(int src, int dst, sim::TimeMs now,
                       std::vector<int>& path);

  /// RREQ flood + RREP back-propagation. Returns true when dst was reached;
  /// `control_ms` is the end-to-end discovery latency charged before data.
  bool Discover(const net::Message& message, sim::TimeMs now,
                double& control_ms);

  bool IsOutNeighbor(int node, int next) const;

  const manet::ManetTopology* topology_;  // not owned
  channel::MacModel* mac_;                // not owned
  std::vector<std::map<int, Entry>> table_;  // per node: dst -> route
  std::vector<uint64_t> seq_;                // per-node sequence numbers
  RoutingCounters counters_;

  // BFS scratch, reused across discoveries (single-threaded).
  std::vector<int> parent_;
  std::vector<int> frontier_;
  std::vector<double> reach_ms_;
  std::vector<char> on_path_;  // loop guard for cached-route walks
};

}  // namespace hyperm::route

#endif  // HYPERM_ROUTE_AODV_H_
