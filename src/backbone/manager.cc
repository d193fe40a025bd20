#include "backbone/manager.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "obs/event_log.h"
#include "obs/trace.h"

namespace hyperm::backbone {
namespace {

// On-the-wire sizes (bytes). Spheres ship as dim doubles + radius + ids, the
// same 8*dim+24 footprint the retrieve path charges per cluster summary.
constexpr uint64_t kElectionBeaconBytes = 16;
constexpr uint64_t kAffiliationBytes = 12;
constexpr uint64_t kWalkBytes = 24;
constexpr uint64_t kDescendRequestBytes = 32;

uint64_t ClusterWireBytes(int dim) { return 8 * static_cast<uint64_t>(dim) + 24; }

// Keyed-timer namespace for per-peer report timers (the simulator's
// coalescing keyspace is global to the process).
uint64_t ReportTimerKey(int peer) {
  return (uint64_t{0xb0} << 56) | static_cast<uint64_t>(peer);
}

// True iff two summary lists carry the same clusters in the same order:
// ids, item counts and spheres compared exactly, so equal lists always hash
// into the same digest.
bool SameSummaries(const std::vector<overlay::PublishedCluster>& a,
                   const std::vector<overlay::PublishedCluster>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].cluster_id != b[i].cluster_id || a[i].items != b[i].items ||
        a[i].sphere.radius != b[i].sphere.radius ||
        a[i].sphere.center != b[i].sphere.center) {
      return false;
    }
  }
  return true;
}

}  // namespace

Status BackboneOptions::Validate() const {
  if (!enabled) return Status();
  if (digest_bits < 0) {
    return InvalidArgumentError("backbone.digest_bits must be >= 0");
  }
  if (digest_cells_per_axis < 1) {
    return InvalidArgumentError("backbone.digest_cells_per_axis must be >= 1");
  }
  return Status();
}

BackboneManager::BackboneManager(sim::Simulator* sim, net::Transport* transport,
                                 net::FaultState* fault_state,
                                 const manet::ManetTopology* topology,
                                 std::vector<int> layer_dims,
                                 const BackboneOptions& options,
                                 MemberClusters member_clusters)
    : sim_(sim),
      transport_(transport),
      fault_state_(fault_state),
      topology_(topology),
      layer_dims_(std::move(layer_dims)),
      options_(options),
      member_clusters_(std::move(member_clusters)) {
  HM_CHECK(sim_ != nullptr);
  HM_CHECK(transport_ != nullptr);
  HM_CHECK(fault_state_ != nullptr);
  HM_CHECK(topology_ != nullptr);
  HM_CHECK(member_clusters_ != nullptr);
  HM_CHECK_GT(options_.report_period_ms, 0.0)
      << "resolve report_period_ms before constructing BackboneManager";
  HM_CHECK_GT(options_.maintenance_period_ms, 0.0);
  HM_CHECK_GT(options_.digest_ttl_ms, 0.0);
  digest_options_.bits = options_.digest_bits;  // hash count stays at its default
  digest_options_.cells_per_axis = options_.digest_cells_per_axis;
  num_peers_ = fault_state_->num_peers();
  HM_CHECK_EQ(num_peers_, topology_->num_nodes());
  MemberSnapshot unreported;
  unreported.per_layer.resize(layer_dims_.size());
  unreported.digests.resize(layer_dims_.size());
  snapshots_.assign(num_peers_, unreported);
  digests_.assign(num_peers_, {});
  neighbor_digests_.assign(num_peers_, {});
}

void BackboneManager::Start() {
  RunElection();
  for (int peer = 0; peer < num_peers_; ++peer) {
    if (fault_state_->up(peer)) SendReport(peer);
  }
  BuildDigests();
  ExchangeDigests();
  for (int peer = 0; peer < num_peers_; ++peer) {
    sim_->ScheduleKeyedAfter(ReportTimerKey(peer), options_.report_period_ms,
                             [this, peer] { ReportTimerFired(peer); });
  }
  sim_->ScheduleAfter(options_.maintenance_period_ms,
                      [this] { MaintenanceTick(); });
}

void BackboneManager::RunElection() {
  const int n = num_peers_;
  std::vector<std::vector<int>> neighbors(n);
  std::vector<char> up(n, 0);
  for (int v = 0; v < n; ++v) {
    neighbors[v] = topology_->neighbors(v);
    up[v] = fault_state_->up(v) ? 1 : 0;
  }
  // Stickiness needs the previous vector alive while election_ is replaced.
  std::vector<char> prev_copy;
  const std::vector<char>* prev_ptr = nullptr;
  if (elected_) {
    prev_copy = election_.is_supernode;
    prev_ptr = &prev_copy;
  }
  election_ = ElectCds(neighbors, up, prev_ptr);
  elected_ = true;
  election_topology_epoch_ = topology_->connectivity_epoch();
  election_graph_fp_ = GraphFingerprint();
  neighbor_digests_.assign(n, {});  // CDS edges changed; drop stale copies

  // Charge the election's message cost: per greedy round, every up node
  // beacons its candidate priority to its lowest-id up neighbor; then each
  // member confirms affiliation to its supernode.
  for (int round = 0; round < election_.rounds; ++round) {
    for (int v = 0; v < n; ++v) {
      if (!up[v]) continue;
      int w = -1;
      for (int cand : neighbors[v]) {
        if (up[cand]) {
          w = cand;
          break;
        }
      }
      if (w < 0) continue;  // isolated node: nothing to beacon to
      const net::HopResult hop = transport_->SendHop(
          {net::MessageType::kControl, v, w, kElectionBeaconBytes,
           sim::TrafficClass::kJoin});
      ++counters_.election_messages;
      if (!hop.delivered) ++counters_.election_messages_lost;
    }
  }
  for (int v = 0; v < n; ++v) {
    if (!up[v] || election_.supernode_of[v] == v) continue;
    const int s = election_.supernode_of[v];
    if (s < 0) continue;
    const net::HopResult hop = transport_->SendHop(
        {net::MessageType::kControl, v, s, kAffiliationBytes,
         sim::TrafficClass::kJoin});
    ++counters_.election_messages;
    if (!hop.delivered) ++counters_.election_messages_lost;
  }

  ++counters_.elections;
  counters_.election_rounds += static_cast<uint64_t>(election_.rounds);
  HM_OBS_COUNTER_ADD("backbone.elections", 1);
  HM_OBS_GAUGE_SET("backbone.supernodes",
                   static_cast<double>(election_.num_supernodes));
  int connectors = 0;
  for (char c : election_.is_connector) connectors += c;
  HM_OBS_GAUGE_SET("backbone.connectors", static_cast<double>(connectors));
  HM_OBS_EVENT(.sim_ms = sim_->now(), .kind = obs::EventKind::kBackboneElect,
               .value = static_cast<double>(election_.rounds),
               .aux = election_.num_supernodes);
}

size_t BackboneManager::ReportBytes(int peer) const {
  size_t bytes = 16;
  for (size_t layer = 0; layer < layer_dims_.size(); ++layer) {
    bytes += member_clusters_(peer, static_cast<int>(layer)).size() *
             ClusterWireBytes(layer_dims_[layer]);
  }
  return bytes;
}

void BackboneManager::SendReport(int peer) {
  const int s = election_.supernode_of[peer];
  if (s < 0 || !fault_state_->up(s)) return;  // unaffiliated: next election fixes it

  if (peer != s) {
    const net::HopResult hop = transport_->SendHop(
        {net::MessageType::kControl, peer, s,
         static_cast<uint64_t>(ReportBytes(peer)), sim::TrafficClass::kJoin});
    if (!hop.delivered) {
      ++counters_.reports_lost;
      return;  // supernode keeps the previous (now aging) snapshot
    }
  }
  // Only levels whose summaries changed since the last delivered report (or
  // never reported: their digest is still geometry-less) are copied and
  // hashed; the rest keep their snapshot and digest as they are.
  MemberSnapshot& snapshot = snapshots_[peer];
  snapshot.report_ms = sim_->now();
  int total_clusters = 0;
  for (size_t layer = 0; layer < layer_dims_.size(); ++layer) {
    const std::vector<overlay::PublishedCluster>& live =
        member_clusters_(peer, static_cast<int>(layer));
    total_clusters += static_cast<int>(live.size());
    SphereDigest& digest = snapshot.digests[layer];
    if (digest.dim() > 0 && SameSummaries(snapshot.per_layer[layer], live)) {
      continue;
    }
    snapshot.per_layer[layer] = live;
    digest = SphereDigest(layer_dims_[layer], digest_options_);
    for (const overlay::PublishedCluster& cluster : live) {
      digest.InsertSphere(cluster.sphere);
    }
    ++counters_.member_digests_built;
  }
  ++counters_.reports_sent;
  HM_OBS_COUNTER_ADD("backbone.reports", 1);
  HM_OBS_EVENT(.sim_ms = sim_->now(), .kind = obs::EventKind::kBackboneReport,
               .src = peer, .dst = s, .aux = total_clusters);
}

void BackboneManager::ReportTimerFired(int peer) {
  HM_OBS_ROOT_SCOPE();
  if (fault_state_->up(peer)) SendReport(peer);
  sim_->ScheduleKeyedAfter(ReportTimerKey(peer), options_.report_period_ms,
                           [this, peer] { ReportTimerFired(peer); });
}

uint64_t BackboneManager::GraphFingerprint() const {
  const uint64_t epoch = topology_->connectivity_epoch();
  if (graph_fp_epoch_ == epoch) return graph_fp_;  // epochs start at 1
  uint64_t h = 0xb5ad4eceda1ce2a9ULL;
  for (int v = 0; v < num_peers_; ++v) {
    h = MixSeed(h, uint64_t{1} << 63, static_cast<uint64_t>(v));
    for (int w : topology_->neighbors(v)) {
      h = MixSeed(h, static_cast<uint64_t>(w));
    }
  }
  graph_fp_ = h;
  graph_fp_epoch_ = epoch;
  return h;
}

void BackboneManager::MaintenanceTick() {
  HM_OBS_ROOT_SCOPE();
  bool re_elect = GraphFingerprint() != election_graph_fp_;
  if (!re_elect) {
    for (int v = 0; v < num_peers_ && !re_elect; ++v) {
      if (!fault_state_->up(v)) continue;
      const int s = election_.supernode_of[v];
      // Rejoined while unaffiliated, or the domain's supernode crashed.
      if (s < 0 || !fault_state_->up(s)) re_elect = true;
    }
  }
  if (re_elect) {
    RunElection();
    // Affiliations moved: pull every live member's next report forward so the
    // new supernodes' digests can complete without waiting a full period.
    // ScheduleKeyedAfter supersedes the pending periodic timer (coalesced).
    for (int peer = 0; peer < num_peers_; ++peer) {
      sim_->ScheduleKeyedAfter(ReportTimerKey(peer), 1.0,
                               [this, peer] { ReportTimerFired(peer); });
    }
  }
  BuildDigests();
  ExchangeDigests();
  sim_->ScheduleAfter(options_.maintenance_period_ms,
                      [this] { MaintenanceTick(); });
}

void BackboneManager::BuildDigests() {
  const double now = sim_->now();
  for (int s = 0; s < num_peers_; ++s) {
    if (!election_.is_supernode[s] || !fault_state_->up(s)) {
      digests_[s] = {};
      continue;
    }
    // The supernode's own summaries are local: refresh them for free.
    SendReport(s);

    DomainDigest& digest = digests_[s];
    if (digest.per_layer.empty()) {
      digest.per_layer.reserve(layer_dims_.size());
      for (int dim : layer_dims_) {
        digest.per_layer.emplace_back(dim, digest_options_);
      }
    } else {
      for (SphereDigest& level : digest.per_layer) level.Clear();
    }
    // The domain digest is the union of the fresh members' digests: Bloom
    // insertion only ORs bits and the counters are sums, so this equals
    // inserting every member's spheres into one filter, in any order.
    digest.complete = true;
    for (int m : election_.members_of[s]) {
      if (!fault_state_->up(m)) continue;  // crashed members' data is gone anyway
      const MemberSnapshot& snapshot = snapshots_[m];
      const bool fresh = snapshot.report_ms >= 0.0 &&
                         now - snapshot.report_ms <= options_.digest_ttl_ms;
      if (!fresh) {
        digest.complete = false;
        continue;
      }
      for (size_t layer = 0; layer < digest.per_layer.size(); ++layer) {
        const Status merged =
            digest.per_layer[layer].Merge(snapshot.digests[layer]);
        HM_CHECK(merged.ok()) << merged.ToString();
      }
    }
    digest.built_ms = now;
  }
}

size_t BackboneManager::DigestMessageBytes(const DomainDigest& digest) const {
  size_t bytes = 16;
  for (const SphereDigest& level : digest.per_layer) {
    bytes += level.SerializedBytes();
  }
  return bytes;
}

void BackboneManager::ExchangeDigests() {
  for (int s = 0; s < num_peers_; ++s) {
    if (!election_.is_supernode[s] || !fault_state_->up(s)) continue;
    if (digests_[s].built_ms < 0.0) continue;
    for (int t : election_.cds_neighbors[s]) {
      if (!fault_state_->up(t)) continue;
      const uint64_t bytes =
          static_cast<uint64_t>(DigestMessageBytes(digests_[s]));
      const net::HopResult hop = transport_->SendHop(
          {net::MessageType::kControl, s, t, bytes, sim::TrafficClass::kJoin});
      counters_.digest_bytes += bytes;
      if (!hop.delivered) {
        ++counters_.digests_lost;
        continue;
      }
      NeighborDigest& copy = neighbor_digests_[t][s];
      copy.received_ms = sim_->now();
      copy.complete = digests_[s].complete;
      copy.per_layer = digests_[s].per_layer;
      ++counters_.digests_exchanged;
      HM_OBS_COUNTER_ADD("backbone.digest_bytes", bytes);
      HM_OBS_EVENT(.sim_ms = sim_->now(),
                   .kind = obs::EventKind::kBackboneDigest, .src = s, .dst = t,
                   .value = static_cast<double>(bytes));
    }
  }
}

bool BackboneManager::DigestUsable(int supernode) const {
  const DomainDigest& digest = digests_[supernode];
  return digest.built_ms >= 0.0 && digest.complete &&
         sim_->now() - digest.built_ms <= options_.digest_ttl_ms;
}

bool BackboneManager::DomainMayMatch(int supernode, int layer,
                                     const geom::Sphere& key_sphere,
                                     bool* stale) const {
  *stale = false;
  if (!DigestUsable(supernode)) {
    *stale = true;  // missing/incomplete/aged digest: descend unconditionally
    return true;
  }
  if (options_.digest_bits <= 0) return true;  // digest-less comparator mode
  return digests_[supernode].per_layer[layer].MayIntersect(key_sphere);
}

void BackboneManager::DescendDomain(
    int supernode, const std::vector<geom::Sphere>& key_spheres,
    const std::vector<char>& descend_layer, int querying_peer,
    double arrival_ms, std::vector<ProbeServeResult>* out,
    double* completion_ms, std::vector<int>* found_per_layer) {
  const size_t num_layers = layer_dims_.size();
  size_t first = 0;
  while (first < num_layers && !descend_layer[first]) ++first;
  HM_CHECK_LT(first, num_layers);
  ProbeServeResult& wire = (*out)[first];

  for (int m : election_.members_of[supernode]) {
    if (!fault_state_->up(m)) continue;
    const net::HopResult request = transport_->SendHop(
        {net::MessageType::kQueryFlood, supernode, m, kDescendRequestBytes,
         sim::TrafficClass::kQuery});
    ++wire.descend_messages;
    if (!request.delivered) continue;  // member's matches are lost (fail-soft)

    std::vector<std::vector<overlay::ClusterMatch>> matched(num_layers);
    uint64_t response_bytes = 16;
    for (size_t layer = 0; layer < num_layers; ++layer) {
      if (!descend_layer[layer]) continue;
      for (const overlay::PublishedCluster& cluster :
           member_clusters_(m, static_cast<int>(layer))) {
        overlay::AppendIfIntersects(cluster, key_spheres[layer], &matched[layer]);
      }
      response_bytes += matched[layer].size() *
                        ClusterWireBytes(layer_dims_[layer]);
    }
    const net::HopResult response = transport_->SendHop(
        {net::MessageType::kQueryFlood, m, querying_peer, response_bytes,
         sim::TrafficClass::kQuery});
    ++wire.descend_messages;
    if (!response.delivered) continue;

    // No replica reaches the backbone, so matches need no dedup: each
    // cluster id sits once in exactly one peer's publish cache, each peer
    // belongs to exactly one domain (members_of inverts supernode_of), and a
    // plan descends each domain at most once (ServeRangePlan's `visited`).
    for (size_t layer = 0; layer < num_layers; ++layer) {
      (*found_per_layer)[layer] += static_cast<int>(matched[layer].size());
      std::vector<overlay::ClusterMatch>& served = (*out)[layer].matches;
      served.insert(served.end(), matched[layer].begin(), matched[layer].end());
    }
    *completion_ms = std::max(
        *completion_ms, arrival_ms + request.latency_ms + response.latency_ms);
  }
}

bool BackboneManager::ServeRangePlan(
    const std::vector<geom::Sphere>& key_spheres, int querying_peer,
    bool conjunctive, std::vector<ProbeServeResult>* out) {
  const size_t num_layers = layer_dims_.size();
  HM_CHECK_EQ(key_spheres.size(), num_layers);
  // Counters stay per (domain, level) decision so digest-less and digested
  // runs compare like-for-like: one served plan is one probe per level.
  auto fallback = [&] {
    counters_.probes_fallback += static_cast<uint64_t>(num_layers);
    HM_OBS_COUNTER_ADD("backbone.fallbacks", 1);
    HM_OBS_EVENT(.sim_ms = sim_->now(), .kind = obs::EventKind::kBackboneProbe,
                 .src = querying_peer, .cause = 1);
    return false;
  };
  if (!elected_) return fallback();
  // Fail-soft gate: an election computed against a different radio graph may
  // route the walk into the void — hand the plan back to full CAN flooding.
  // (Fingerprints, not epochs: a mobility step that moved nodes without
  // flipping any link leaves the election perfectly valid.)
  if (GraphFingerprint() != election_graph_fp_) {
    return fallback();
  }
  if (querying_peer < 0 || querying_peer >= num_peers_ ||
      !fault_state_->up(querying_peer)) {
    return fallback();
  }
  const int root = election_.supernode_of[querying_peer];
  if (root < 0 || !fault_state_->up(root)) return fallback();

  out->assign(num_layers, ProbeServeResult());
  double token_ms = 0.0;      // walk token position on the sim clock
  double completion_ms = 0.0; // latest domain response arrival
  // The single walk's messages are physical; their counts land on level 0's
  // result slot (the executor sums hop counts across levels anyway).
  ProbeServeResult& wire = (*out)[0];

  if (querying_peer != root) {
    const net::HopResult hop = transport_->SendHop(
        {net::MessageType::kRoute, querying_peer, root, kWalkBytes,
         sim::TrafficClass::kQuery});
    ++wire.walk_messages;
    if (!hop.delivered) return fallback();
    token_ms += hop.latency_ms;
  }

  const bool digestless = options_.digest_bits <= 0;
  std::vector<bool> stale(num_layers);
  std::vector<char> descend_layer(num_layers);
  std::vector<int> found(num_layers);
  std::vector<char> visited(num_peers_, 0);
  int descended = 0;  // (domain, level) descents, for the kBackboneProbe event
  // DFS over the CDS inside the root's island; children pushed in descending
  // id order so pops come out ascending (deterministic walk order).
  std::vector<std::pair<int, int>> stack;
  stack.emplace_back(root, -1);
  while (!stack.empty()) {
    const auto [s, parent] = stack.back();
    stack.pop_back();
    if (visited[s]) continue;
    if (parent >= 0) {
      // The walk token moves parent -> s; losing it aborts to CAN (the
      // messages already spent stay spent — airtime is sunk, recall is not).
      const net::HopResult hop = transport_->SendHop(
          {net::MessageType::kRoute, parent, s, kWalkBytes,
           sim::TrafficClass::kQuery});
      ++wire.walk_messages;
      if (!hop.delivered) return fallback();
      token_ms += hop.latency_ms;
    }
    visited[s] = 1;
    counters_.domains_considered += static_cast<uint64_t>(num_layers);

    // Per-level digest verdicts, then the conjunctive collapse: under min or
    // product aggregation a peer missing from one level scores zero overall,
    // so a single fresh provably-no level rules the whole domain out — stale
    // levels included (the proof lives in the fresh level, not in them).
    bool provable_no = false;
    for (size_t layer = 0; layer < num_layers; ++layer) {
      bool layer_stale = false;
      const bool may = DomainMayMatch(s, static_cast<int>(layer),
                                      key_spheres[layer], &layer_stale);
      stale[layer] = layer_stale;
      descend_layer[layer] = may ? 1 : 0;
      if (!may) provable_no = true;
    }
    if (conjunctive && provable_no) {
      std::fill(descend_layer.begin(), descend_layer.end(), char{0});
    }

    bool any_descend = false;
    for (size_t layer = 0; layer < num_layers; ++layer) {
      if (descend_layer[layer]) {
        any_descend = true;
        ++descended;
        ++counters_.domains_descended;
        if (stale[layer]) ++counters_.stale_descends;
      } else {
        ++counters_.domains_pruned;
      }
    }
    HM_OBS_EVENT(.sim_ms = sim_->now(),
                 .kind = obs::EventKind::kBackboneDecision, .src = s,
                 .cause = !any_descend ? 1 : (stale[0] ? 2 : 0));
    if (any_descend) {
      std::fill(found.begin(), found.end(), 0);
      DescendDomain(s, key_spheres, descend_layer, querying_peer, token_ms,
                    out, &completion_ms, &found);
      for (size_t layer = 0; layer < num_layers; ++layer) {
        if (!descend_layer[layer] || stale[layer]) continue;
        // A fresh may-match that found nothing is a measured digest FP.
        if (found[layer] == 0) {
          ++counters_.descends_empty;
        } else {
          ++counters_.descends_matched;
        }
      }
    }

    const std::vector<int>& next = election_.cds_neighbors[s];
    for (auto it = next.rbegin(); it != next.rend(); ++it) {
      const int t = *it;
      if (visited[t] || !fault_state_->up(t)) continue;
      if (!topology_->SameIsland(root, t)) continue;
      // Leaf-skip: a degree-1 CDS neighbour whose digest copy (shipped to us
      // during the last exchange) provably cannot match never sees the walk
      // token at all — this is where exchanging digests pays for itself.
      // Conjunctive plans skip on any provably-no level; independent plans
      // need every level ruled out before the token can stay home.
      if (!digestless && election_.cds_neighbors[t].size() == 1) {
        const auto copy = neighbor_digests_[s].find(t);
        if (copy != neighbor_digests_[s].end() &&
            copy->second.received_ms >= 0.0 && copy->second.complete &&
            sim_->now() - copy->second.received_ms <= options_.digest_ttl_ms) {
          int no_levels = 0;
          for (size_t layer = 0; layer < num_layers; ++layer) {
            if (!copy->second.per_layer[layer].MayIntersect(
                    key_spheres[layer])) {
              ++no_levels;
            }
          }
          const bool skip = conjunctive
                                ? no_levels > 0
                                : no_levels == static_cast<int>(num_layers);
          if (skip) {
            visited[t] = 1;
            counters_.domains_considered += static_cast<uint64_t>(num_layers);
            counters_.domains_pruned += static_cast<uint64_t>(num_layers);
            ++counters_.leaf_skips;
            HM_OBS_EVENT(.sim_ms = sim_->now(),
                         .kind = obs::EventKind::kBackboneDecision, .src = t,
                         .cause = 1);
            continue;
          }
        }
      }
      stack.emplace_back(t, s);
    }
  }

  const double latency_ms = std::max(token_ms, completion_ms);
  for (size_t layer = 0; layer < num_layers; ++layer) {
    (*out)[layer].latency_ms = latency_ms;
  }
  counters_.probes_served += static_cast<uint64_t>(num_layers);
  HM_OBS_COUNTER_ADD("backbone.probes_served", 1);
  HM_OBS_EVENT(.sim_ms = sim_->now(), .kind = obs::EventKind::kBackboneProbe,
               .src = querying_peer, .cause = 0, .value = latency_ms,
               .aux = descended);
  return true;
}

}  // namespace hyperm::backbone
