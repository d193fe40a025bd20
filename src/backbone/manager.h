// Supernode backbone runtime: election scheduling, domain summary reports,
// digest exchange along the CDS, and the backbone-first range-probe stage.
//
// The manager glues the pure pieces together against the live simulation:
//
//   * election.h computes the CDS over the current radio graph; the manager
//     charges the election's beacon and affiliation messages to the
//     transport, re-elects when the mobility epoch moves or a supernode
//     crashes, and publishes backbone.* gauges.
//   * Domain members push soft-state reports of their published cluster
//     summaries to their supernode on a per-peer coalesced timer
//     (sim::Simulator::ScheduleKeyedAfter) — affiliation changes refresh the
//     pending timer instead of stacking duplicates. The report cadence and
//     digest TTL default to the net-layer republish period and summary TTL,
//     so backbone freshness piggybacks the existing soft-state machinery.
//   * Each member snapshot carries one SphereDigest per wavelet level, built
//     when a delivered report's summaries at that level differ from the
//     previous snapshot's. Each maintenance round the supernode ORs the
//     fresh members' digests into its domain digest (a Bloom union equals
//     inserting every sphere into one filter) and ships the serialized
//     digests to its CDS neighbours (so a parent can skip descending into a
//     leaf domain whose digest provably cannot match).
//   * ServeRangePlan walks the CDS depth-first inside the querier's radio
//     island — once per query, serving every wavelet level's probe off the
//     same walk token — consults each supernode's digests, descends into a
//     domain only on a possible match, and reports per-level accounting the
//     executor folds into the level outcomes. Under min/product score
//     aggregation the walk prunes *conjunctively*: a peer absent from any
//     single level scores zero overall, so a fresh digest that provably
//     rules a domain out at one level rules it out at every level. Any
//     fail-soft gate (stale election, crashed supernode, lost walk message)
//     aborts to full CAN probing — the backbone can cost airtime but never
//     recall.
//
// Determinism: all iteration is in ascending id order, all randomness flows
// through the transport's seeded draws, and the manager runs strictly on the
// simulation driver thread.

#ifndef HYPERM_BACKBONE_MANAGER_H_
#define HYPERM_BACKBONE_MANAGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "backbone/digest.h"
#include "backbone/election.h"
#include "common/status.h"
#include "geom/shapes.h"
#include "manet/topology.h"
#include "net/fault_plan.h"
#include "net/transport.h"
#include "overlay/overlay.h"
#include "sim/simulator.h"

namespace hyperm::backbone {

struct BackboneOptions {
  /// Master toggle; when false nothing backbone-related is constructed and
  /// every code path is bit-identical to a build without the subsystem.
  bool enabled = false;

  /// Bloom geometry per (supernode, wavelet level) digest. digest_bits == 0
  /// is the digest-less comparator mode: the backbone still elects, reports
  /// and walks, but descends into every domain (what bench_backbone measures
  /// pruning against). Every digest uses kDigestHashes Bloom hashes.
  int digest_bits = 2048;
  int digest_cells_per_axis = 8;

  /// Member report cadence; <= 0 inherits net.republish_period_ms.
  double report_period_ms = 0.0;
  /// Election check + digest rebuild/exchange cadence; <= 0 inherits the
  /// report period.
  double maintenance_period_ms = 0.0;
  /// Snapshot/digest freshness horizon; <= 0 inherits net.summary_ttl_ms.
  double digest_ttl_ms = 0.0;

  Status Validate() const;
};

/// Monotonic accounting, mirrored into backbone.* registry metrics.
struct BackboneCounters {
  uint64_t elections = 0;
  uint64_t election_rounds = 0;
  uint64_t election_messages = 0;
  uint64_t election_messages_lost = 0;
  uint64_t reports_sent = 0;
  uint64_t reports_lost = 0;
  uint64_t member_digests_built = 0;  ///< (member, level) digests built from changed reports
  uint64_t digests_exchanged = 0;
  uint64_t digests_lost = 0;
  uint64_t digest_bytes = 0;
  uint64_t probes_served = 0;
  uint64_t probes_fallback = 0;
  uint64_t domains_considered = 0;
  uint64_t domains_descended = 0;
  uint64_t domains_pruned = 0;
  uint64_t leaf_skips = 0;       ///< leaf domains pruned without a walk message (per plan)
  uint64_t stale_descends = 0;   ///< descents forced by stale/incomplete digests
  uint64_t descends_empty = 0;   ///< fresh-digest descents with 0 matches (measured FPs)
  uint64_t descends_matched = 0; ///< fresh-digest descents with >= 1 match
};

/// What a served probe hands back to the query executor.
struct ProbeServeResult {
  /// One record per cluster_id (the backbone never sees a replica);
  /// distances measured from the level's key-sphere center, as a CAN
  /// flood's records are.
  std::vector<overlay::ClusterMatch> matches;
  int walk_messages = 0;     ///< CDS walk hops (folds into routing_hops)
  int descend_messages = 0;  ///< domain request/response count (flood_hops)
  double latency_ms = 0.0;
};

class BackboneManager {
 public:
  /// Read access to the live published summaries of `peer` at `layer`; the
  /// network wires this to its per-peer publish cache.
  using MemberClusters = std::function<
      const std::vector<overlay::PublishedCluster>&(int peer, int layer)>;

  /// Borrows every pointer for its own lifetime. `layer_dims[l]` is the
  /// subspace dimensionality of wavelet level l.
  BackboneManager(sim::Simulator* sim, net::Transport* transport,
                  net::FaultState* fault_state,
                  const manet::ManetTopology* topology,
                  std::vector<int> layer_dims, const BackboneOptions& options,
                  MemberClusters member_clusters);

  /// Runs the initial election + report + digest rounds synchronously and
  /// schedules the periodic timers. Call once, after the initial publish.
  void Start();

  /// Backbone-first stage for a whole range plan: one CDS walk serves every
  /// level's probe. `key_spheres[l]` is level l's Theorem 4.1 sphere (one per
  /// wavelet level, in level order). With `conjunctive` — sound exactly when
  /// the caller aggregates scores by min or product, where a peer missing
  /// from any level is dropped — a domain whose fresh digest provably cannot
  /// match at ANY single level is pruned at every level; otherwise each level
  /// prunes independently on its own digest. Returns true and fills one
  /// ProbeServeResult per level when the backbone served the plan; false
  /// means a fail-soft gate fired and the caller must run the full CAN
  /// probes instead.
  bool ServeRangePlan(const std::vector<geom::Sphere>& key_spheres,
                      int querying_peer, bool conjunctive,
                      std::vector<ProbeServeResult>* out);

  const BackboneCounters& counters() const { return counters_; }
  const ElectionResult& election() const { return election_; }

  /// Topology connectivity epoch the current election was computed against.
  uint64_t election_epoch() const { return election_topology_epoch_; }

  int num_supernodes() const { return election_.num_supernodes; }

  /// True iff `supernode`'s digest is fresh and covers every member.
  bool DigestUsable(int supernode) const;

  const BackboneOptions& options() const { return options_; }

  /// Per-level digests of `supernode`'s domain as of the last maintenance
  /// round (empty when it was not a live supernode then).
  const std::vector<SphereDigest>& domain_digests(int supernode) const {
    return digests_[supernode].per_layer;
  }

  /// Summaries at `layer` from `member`'s last delivered report (empty before
  /// the first one).
  const std::vector<overlay::PublishedCluster>& reported_clusters(
      int member, int layer) const {
    return snapshots_[member].per_layer[layer];
  }

 private:
  struct MemberSnapshot {
    double report_ms = -1.0;  ///< sim time of the last delivered report
    std::vector<std::vector<overlay::PublishedCluster>> per_layer;
    std::vector<SphereDigest> digests;  ///< per_layer's spheres; geometry-less until reported
  };
  struct DomainDigest {
    double built_ms = -1.0;
    bool complete = false;  ///< every current member contributed a fresh snapshot
    std::vector<SphereDigest> per_layer;
  };
  struct NeighborDigest {
    double received_ms = -1.0;
    bool complete = false;
    std::vector<SphereDigest> per_layer;
  };

  void RunElection();
  /// Order-sensitive hash of the current radio adjacency (cached per
  /// connectivity epoch). Mobility bumps the topology epoch on every step
  /// even when no link flipped; staleness gates compare fingerprints so an
  /// election stays usable as long as the graph it saw is still the graph.
  uint64_t GraphFingerprint() const;
  void SendReport(int peer);
  void ReportTimerFired(int peer);
  void MaintenanceTick();
  void BuildDigests();
  void ExchangeDigests();
  bool DomainMayMatch(int supernode, int layer,
                      const geom::Sphere& key_sphere, bool* stale) const;
  /// Descends into `supernode`'s domain for every level with
  /// `descend_layer[l]` set: one batched request/response round per up
  /// member (the request names the levels, the response carries their
  /// matches together), answered from the live publish cache. Physical
  /// message counts land on the first descended level's result slot;
  /// per-level match counts accumulate into `found_per_layer`.
  void DescendDomain(int supernode, const std::vector<geom::Sphere>& key_spheres,
                     const std::vector<char>& descend_layer, int querying_peer,
                     double arrival_ms, std::vector<ProbeServeResult>* out,
                     double* completion_ms, std::vector<int>* found_per_layer);
  /// Wire size of a report carrying `peer`'s live summaries.
  size_t ReportBytes(int peer) const;
  size_t DigestMessageBytes(const DomainDigest& digest) const;

  sim::Simulator* sim_;
  net::Transport* transport_;
  net::FaultState* fault_state_;
  const manet::ManetTopology* topology_;
  std::vector<int> layer_dims_;
  BackboneOptions options_;
  MemberClusters member_clusters_;
  DigestOptions digest_options_;
  int num_peers_ = 0;

  ElectionResult election_;
  bool elected_ = false;
  uint64_t election_topology_epoch_ = 0;
  uint64_t election_graph_fp_ = 0;       ///< adjacency hash at election time
  mutable uint64_t graph_fp_ = 0;        ///< cached fingerprint ...
  mutable uint64_t graph_fp_epoch_ = 0;  ///< ... and the epoch it was built at

  std::vector<MemberSnapshot> snapshots_;        ///< by member peer
  std::vector<DomainDigest> digests_;            ///< by supernode peer
  std::vector<std::map<int, NeighborDigest>> neighbor_digests_;  ///< [holder][from]

  BackboneCounters counters_;
};

}  // namespace hyperm::backbone

#endif  // HYPERM_BACKBONE_MANAGER_H_
