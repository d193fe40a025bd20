#include "route/aodv.h"
#include "route/oracle.h"
#include "route/protocol.h"

namespace hyperm::route {

Result<std::unique_ptr<RoutingProtocol>> CreateRouting(
    const RoutingOptions& options, const manet::ManetTopology* topology,
    channel::MacModel* mac) {
  switch (options.kind) {
    case RoutingOptions::Kind::kOracle:
      return std::unique_ptr<RoutingProtocol>(new OracleRouting(topology));
    case RoutingOptions::Kind::kAodv:
      if (mac == nullptr) {
        return InvalidArgumentError("CreateRouting: AODV needs a MacModel");
      }
      return std::unique_ptr<RoutingProtocol>(
          new AodvRouting(topology, mac));
  }
  return InvalidArgumentError("RoutingOptions: unknown kind");
}

}  // namespace hyperm::route
