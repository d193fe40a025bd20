// The omniscient default: epoch-cached global BFS, bit-identical to the
// pre-seam RadioChannel::Transmit path selection.

#ifndef HYPERM_ROUTE_ORACLE_H_
#define HYPERM_ROUTE_ORACLE_H_

#include "manet/topology.h"
#include "route/protocol.h"

namespace hyperm::route {

/// Wraps manet::ManetTopology's cached shortest paths. The resolve sequence
/// is exactly the legacy channel's: SameIsland pre-check (O(1), keeps
/// unreachable drops BFS-free and the channel.route_cache.* counters
/// bit-identical), then ShortestPathInto.
class OracleRouting : public RoutingProtocol {
 public:
  explicit OracleRouting(const manet::ManetTopology* topology);

  RouteResolution Resolve(const net::Message& message, sim::TimeMs now,
                          std::vector<int>& path) override;
  const RoutingCounters& counters() const override { return counters_; }
  const char* name() const override { return "oracle"; }

 private:
  const manet::ManetTopology* topology_;  // not owned
  RoutingCounters counters_;
};

}  // namespace hyperm::route

#endif  // HYPERM_ROUTE_ORACLE_H_
