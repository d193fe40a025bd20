#include "route/oracle.h"

#include "common/check.h"

namespace hyperm::route {

OracleRouting::OracleRouting(const manet::ManetTopology* topology)
    : topology_(topology) {
  HM_CHECK(topology != nullptr);
}

RouteResolution OracleRouting::Resolve(const net::Message& message,
                                       sim::TimeMs now,
                                       std::vector<int>& path) {
  (void)now;  // omniscient: always current, never stale
  ++counters_.resolutions;
  RouteResolution res;
  // Exactly the legacy channel sequence: the island lookup costs no BFS,
  // so an unreachable drop leaves the route cache untouched.
  if (!topology_->SameIsland(message.src, message.dst)) {
    ++counters_.unreachable;
    path.clear();
    return res;
  }
  topology_->ShortestPathInto(message.src, message.dst, path);
  HM_CHECK(!path.empty());  // same island, so the cached tree reaches dst
  res.found = true;
  return res;
}

}  // namespace hyperm::route
