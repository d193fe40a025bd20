#include "route/aodv.h"

#include <algorithm>

#include "common/check.h"
#include "obs/event_log.h"
#include "obs/trace.h"

namespace hyperm::route {

AodvRouting::AodvRouting(const manet::ManetTopology* topology,
                         channel::MacModel* mac)
    : topology_(topology), mac_(mac) {
  HM_CHECK(topology != nullptr);
  HM_CHECK(mac != nullptr);
  const size_t n = static_cast<size_t>(topology->num_nodes());
  table_.resize(n);
  seq_.assign(n, 0);
  on_path_.assign(n, 0);
}

bool AodvRouting::IsOutNeighbor(int node, int next) const {
  const std::vector<int>& out = topology_->neighbors(node);
  return std::binary_search(out.begin(), out.end(), next);
}

bool AodvRouting::WalkCachedRoute(int src, int dst, sim::TimeMs now,
                                  std::vector<int>& path) {
  path.clear();
  path.push_back(src);
  on_path_[static_cast<size_t>(src)] = 1;
  bool ok = false;
  int cur = src;
  while (true) {
    if (cur == dst) {
      ok = true;
      break;
    }
    std::map<int, Entry>& routes = table_[static_cast<size_t>(cur)];
    const auto it = routes.find(dst);
    if (it == routes.end()) break;
    const Entry& entry = it->second;
    if (entry.expires_ms <= now) {
      // Soft state: the entry outlived its TTL; forget it and rediscover.
      ++counters_.cache_expiries;
      routes.erase(it);
      break;
    }
    if (!IsOutNeighbor(cur, entry.next_hop)) {
      // Mobility moved the next hop out of range since the route was
      // installed — the connectivity-epoch hook that turns staleness into
      // a rediscovery instead of a wrong forward.
      ++counters_.stale_routes;
      routes.erase(it);
      break;
    }
    const int next = entry.next_hop;
    if (on_path_[static_cast<size_t>(next)]) break;  // stale loop
    on_path_[static_cast<size_t>(next)] = 1;
    path.push_back(next);
    cur = next;
  }
  for (int node : path) on_path_[static_cast<size_t>(node)] = 0;
  if (!ok) path.clear();
  return ok;
}

bool AodvRouting::Discover(const net::Message& message, sim::TimeMs now,
                           double& control_ms) {
  const int src = message.src;
  const int dst = message.dst;
  const int n = topology_->num_nodes();
  parent_.assign(static_cast<size_t>(n), -1);
  reach_ms_.assign(static_cast<size_t>(n), 0.0);
  frontier_.clear();
  parent_[static_cast<size_t>(src)] = src;
  reach_ms_[static_cast<size_t>(src)] = now;
  frontier_.push_back(src);
  net::Message control;
  control.type = net::MessageType::kControl;
  control.src = src;
  control.dst = dst;
  control.bytes = kAodvControlBytes;
  control.cls = message.cls;  // attributed to the traffic that caused it
  // RREQ flood: breadth-first over ascending neighbour lists (the oracle's
  // BFS tie-break, so hop counts match it on static graphs). Every reached
  // node rebroadcasts once — real airtime through the MAC — except the
  // destination, which answers instead.
  double last_ms = now;
  for (size_t cursor = 0; cursor < frontier_.size(); ++cursor) {
    const int node = frontier_[cursor];
    if (node == dst) continue;
    const channel::FrameResult fr = mac_->SendFrame(
        node, /*receiver=*/-1, control, reach_ms_[static_cast<size_t>(node)]);
    ++counters_.control_frames;
    counters_.control_bytes += control.bytes;
    last_ms = std::max(last_ms, fr.done_ms);
    for (int next : topology_->neighbors(node)) {
      if (parent_[static_cast<size_t>(next)] >= 0) continue;
      parent_[static_cast<size_t>(next)] = node;
      reach_ms_[static_cast<size_t>(next)] = fr.done_ms;
      frontier_.push_back(next);
    }
  }
  if (parent_[static_cast<size_t>(dst)] < 0) {
    // The flood drained without touching dst: genuinely unreachable now.
    // The source only learns that after the whole flood has died down.
    control_ms = last_ms - now;
    return false;
  }
  // Every flooded node heard the RREQ from its BFS parent — that parent is
  // its next hop back toward the origin (the free reverse routes standard
  // AODV installs).
  const sim::TimeMs expires = now + kAodvRouteTtlMs;
  for (int v = 0; v < n; ++v) {
    if (v == src || parent_[static_cast<size_t>(v)] < 0) continue;
    Entry& back = table_[static_cast<size_t>(v)][src];
    back.next_hop = parent_[static_cast<size_t>(v)];
    back.seq = seq_[static_cast<size_t>(src)];
    back.expires_ms = expires;
    int hops = 0;
    for (int w = v; w != src; w = parent_[static_cast<size_t>(w)]) ++hops;
    back.hops = hops;
  }
  // RREP: the destination answers with a fresh sequence number, unicast
  // hop-by-hop along the reverse path; each relay installs its forward
  // route to dst as the reply passes through. A collision-dropped RREP
  // still installs the route — the retransmit cost was charged in airtime,
  // and modelling control-plane loss as extra latency (not failure) keeps
  // delivery accounting exact.
  const uint64_t dst_seq = ++seq_[static_cast<size_t>(dst)];
  double t = reach_ms_[static_cast<size_t>(dst)];
  int hops_to_dst = 0;
  for (int cur = dst; cur != src;) {
    const int prev = parent_[static_cast<size_t>(cur)];
    const channel::FrameResult fr = mac_->SendFrame(cur, prev, control, t);
    ++counters_.control_frames;
    counters_.control_bytes += control.bytes;
    t = fr.done_ms;
    ++hops_to_dst;
    Entry& fwd = table_[static_cast<size_t>(prev)][dst];
    fwd.next_hop = cur;
    fwd.hops = hops_to_dst;
    fwd.seq = dst_seq;
    fwd.expires_ms = expires;
    cur = prev;
  }
  control_ms = t - now;
  return true;
}

RouteResolution AodvRouting::Resolve(const net::Message& message,
                                     sim::TimeMs now, std::vector<int>& path) {
  ++counters_.resolutions;
  RouteResolution res;
  if (WalkCachedRoute(message.src, message.dst, now, path)) {
    ++counters_.cache_hits;
    res.found = true;
    return res;
  }
  ++counters_.discoveries;
  HM_OBS_COUNTER_ADD("route.discoveries", 1);
  const uint64_t frames_before = counters_.control_frames;
  double control_ms = 0.0;
  const bool found = Discover(message, now, control_ms);
  res.discovered = true;
  res.control_latency_ms = control_ms;
  HM_OBS_EVENT(.sim_ms = now, .kind = obs::EventKind::kRouteDiscover,
               .src = message.src, .dst = message.dst,
               .cause = found ? 0 : 1, .value = control_ms,
               .aux = static_cast<int64_t>(counters_.control_frames -
                                           frames_before));
  HM_OBS_COUNTER_ADD("route.control_frames",
                     counters_.control_frames - frames_before);
  if (!found) {
    ++counters_.discovery_failures;
    ++counters_.unreachable;
    HM_OBS_COUNTER_ADD("route.discovery_failures", 1);
    path.clear();
    return res;
  }
  // The flood just installed a fresh hop-by-hop route and the topology is
  // frozen within this Transmit, so the walk must succeed.
  const bool ok = WalkCachedRoute(message.src, message.dst, now, path);
  HM_CHECK(ok);
  ++counters_.cache_hits;
  res.found = true;
  return res;
}

void AodvRouting::OnLinkBreak(int node, int neighbor, sim::TimeMs now) {
  ++counters_.link_breaks;
  // Drop every route at the detecting node that forwards through the dead
  // neighbour, remembering the destinations for the RERR.
  std::vector<int> dead_dsts;
  std::map<int, Entry>& routes = table_[static_cast<size_t>(node)];
  for (auto it = routes.begin(); it != routes.end();) {
    if (it->second.next_hop == neighbor) {
      dead_dsts.push_back(it->first);
      it = routes.erase(it);
      ++counters_.route_errors;
    } else {
      ++it;
    }
  }
  int invalidated = static_cast<int>(dead_dsts.size());
  if (!dead_dsts.empty()) {
    // One RERR broadcast from the detecting node; direct precursors (nodes
    // whose next hop toward an affected destination is `node`) drop their
    // entries too. Deeper chains are caught lazily by walk validation.
    net::Message rerr;
    rerr.type = net::MessageType::kControl;
    rerr.src = node;
    rerr.dst = neighbor;
    rerr.bytes = kAodvControlBytes;
    mac_->SendFrame(node, /*receiver=*/-1, rerr, now);
    ++counters_.control_frames;
    counters_.control_bytes += rerr.bytes;
    const int n = topology_->num_nodes();
    for (int u = 0; u < n; ++u) {
      if (u == node) continue;
      std::map<int, Entry>& up = table_[static_cast<size_t>(u)];
      for (int dst : dead_dsts) {
        const auto it = up.find(dst);
        if (it != up.end() && it->second.next_hop == node) {
          up.erase(it);
          ++counters_.route_errors;
          ++invalidated;
        }
      }
    }
  }
  if (invalidated > 0) {
    HM_OBS_COUNTER_ADD("route.errors", static_cast<uint64_t>(invalidated));
  }
  HM_OBS_EVENT(.sim_ms = now, .kind = obs::EventKind::kRouteError,
               .src = node, .dst = neighbor, .aux = invalidated);
}

}  // namespace hyperm::route
