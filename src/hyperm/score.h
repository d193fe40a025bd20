// Peer relevance scoring (Section 3.2).
//
// A peer's score at one wavelet level is the expected number of its items
// inside the query sphere (Eq. 1):
//
//   Score_l = sum_c  Vol(sphere_c ∩ sphere_q) / Vol(sphere_c) * items_c
//
// Per-level scores are then aggregated across levels; the paper uses the
// *minimum* score ("it has the desirable property of pruning many candidate
// peers") and proves it yields no false dismissals for range queries. Sum
// and product aggregation are provided for the ablation bench.
//
// Scoring reads only match records (overlay::ClusterMatch): a cluster's
// radius, its item count and its centroid's distance to the query center,
// which the overlay measured while testing the match. ScoreLevels scores a
// whole query at once, after every level has settled, and under min/product
// aggregation evaluates Eq. 1 only for peers that can survive it (DESIGN.md
// §24).

#ifndef HYPERM_HYPERM_SCORE_H_
#define HYPERM_HYPERM_SCORE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "overlay/overlay.h"

namespace hyperm::core {

/// How per-level scores combine into a global peer score.
enum class ScorePolicy {
  kMin,      ///< paper default; no false dismissals for range queries
  kSum,      ///< optimistic; keeps peers visible at any level
  kProduct,  ///< aggressive pruning; sensitive to near-zero levels
};

/// A peer and its aggregated relevance score.
struct PeerScore {
  int peer = -1;
  double score = 0.0;
};

/// One level's match records and the radius of the sphere they are scored
/// against, centered where every record's distance was measured.
struct LevelMatches {
  int dim = 0;                ///< level (subspace) dimensionality
  double query_radius = 0.0;  ///< ε of the level's score sphere (>= 0)
  std::vector<overlay::ClusterMatch> matches;
};

/// Eq. 1 coverage fraction of a cluster sphere of radius `radius` by a query
/// sphere of radius `query_radius` whose center lies at `distance` from the
/// cluster's, in a `dim`-dimensional level space. Point clusters (radius 0)
/// count fully iff their centroid lies inside the query; a point query
/// (radius 0) counts a cluster fully iff the cluster contains it. Positive
/// only if distance <= radius + query_radius.
double ClusterCoverageFraction(int dim, double radius, double query_radius,
                               double distance);

/// Per-peer Eq. 1 scores of one level's matches: the sum, in match order, of
/// fraction * items over the peer's records with a positive fraction.
std::unordered_map<int, double> ComputeLevelScores(const LevelMatches& level);

/// Aggregates per-level score maps into a single descending-sorted list.
/// With kMin/kProduct a peer missing from any level scores 0 and is dropped;
/// with kSum it keeps the sum of the levels where it appears. Ties broken by
/// peer id for determinism.
std::vector<PeerScore> AggregateScores(
    const std::vector<std::unordered_map<int, double>>& level_scores,
    ScorePolicy policy);

/// Scores a whole query: equal, bit for bit, to ComputeLevelScores on every
/// level followed by AggregateScores. Under kMin/kProduct it evaluates Eq. 1
/// only for the records of peers that have, at every level, a record with
/// distance <= radius + query_radius; any other peer scores 0 at some level
/// and would be dropped anyway. kSum scores every record. Adds the number of
/// Eq. 1 evaluations to `*evaluations` when non-null.
std::vector<PeerScore> ScoreLevels(const std::vector<const LevelMatches*>& levels,
                                   ScorePolicy policy,
                                   int64_t* evaluations = nullptr);

}  // namespace hyperm::core

#endif  // HYPERM_HYPERM_SCORE_H_
