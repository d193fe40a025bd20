#include "hyperm/score.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "geom/sphere_volume.h"

namespace hyperm::core {

namespace {

// Eq. 1 over one level's records, in match order, skipping every record whose
// owner `survivors` lacks (nullptr keeps all). Counts evaluations.
std::unordered_map<int, double> ScoreLevel(
    const LevelMatches& level, const std::unordered_map<int, size_t>* survivors,
    size_t num_levels, int64_t* evaluations) {
  std::unordered_map<int, double> scores;
  for (const overlay::ClusterMatch& match : level.matches) {
    if (survivors != nullptr) {
      const auto it = survivors->find(match.owner_peer);
      if (it == survivors->end() || it->second != num_levels) continue;
    }
    ++*evaluations;
    const double fraction = ClusterCoverageFraction(
        level.dim, match.radius, level.query_radius, match.distance);
    if (fraction <= 0.0) continue;
    scores[match.owner_peer] += fraction * match.items;
  }
  return scores;
}

}  // namespace

double ClusterCoverageFraction(int dim, double radius, double query_radius,
                               double distance) {
  HM_CHECK_GE(dim, 1);
  if (radius <= 0.0) {
    // Point cluster: covered entirely or not at all.
    return distance <= query_radius ? 1.0 : 0.0;
  }
  if (query_radius <= 0.0) {
    // Point query: the intersection volume is zero, but a cluster containing
    // the point is still a full candidate — degrade to the containment
    // indicator so score ranking keeps working.
    return distance <= radius ? 1.0 : 0.0;
  }
  return geom::SphereIntersectionFraction(dim, radius, query_radius, distance);
}

std::unordered_map<int, double> ComputeLevelScores(const LevelMatches& level) {
  int64_t evaluations = 0;
  return ScoreLevel(level, nullptr, 0, &evaluations);
}

std::vector<PeerScore> AggregateScores(
    const std::vector<std::unordered_map<int, double>>& level_scores,
    ScorePolicy policy) {
  std::unordered_map<int, double> aggregated;
  std::unordered_map<int, int> levels_present;
  for (const auto& level : level_scores) {
    for (const auto& [peer, score] : level) {
      ++levels_present[peer];
      auto [it, inserted] = aggregated.try_emplace(peer, score);
      if (inserted) continue;
      switch (policy) {
        case ScorePolicy::kMin:
          it->second = std::fmin(it->second, score);
          break;
        case ScorePolicy::kSum:
          it->second += score;
          break;
        case ScorePolicy::kProduct:
          it->second *= score;
          break;
      }
    }
  }
  std::vector<PeerScore> out;
  const int num_levels = static_cast<int>(level_scores.size());
  for (const auto& [peer, score] : aggregated) {
    // Min/product semantics: a level with no intersecting cluster is a zero
    // score, which zeroes the aggregate and prunes the peer.
    if (policy != ScorePolicy::kSum && levels_present[peer] < num_levels) continue;
    if (score <= 0.0) continue;
    out.push_back(PeerScore{peer, score});
  }
  std::sort(out.begin(), out.end(), [](const PeerScore& a, const PeerScore& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.peer < b.peer;
  });
  return out;
}

std::vector<PeerScore> ScoreLevels(const std::vector<const LevelMatches*>& levels,
                                   ScorePolicy policy, int64_t* evaluations) {
  int64_t local_evaluations = 0;
  if (evaluations == nullptr) evaluations = &local_evaluations;
  const size_t num_levels = levels.size();
  // Under min/product a peer keeps a nonzero aggregate only if some record
  // of its has a positive fraction at every level, and every branch of
  // ClusterCoverageFraction is positive only if distance <= radius + ε.
  // survivors[p] counts the leading levels at which p has such a record, so
  // p survives iff it reaches num_levels. That costs a compare and a hash
  // lookup per record; Eq. 1 costs an incomplete beta function.
  std::unordered_map<int, size_t> survivors;
  const bool conjunctive = policy != ScorePolicy::kSum;
  if (conjunctive) {
    for (size_t l = 0; l < num_levels; ++l) {
      const LevelMatches& level = *levels[l];
      HM_CHECK_GE(level.query_radius, 0.0);
      for (const overlay::ClusterMatch& match : level.matches) {
        if (!(match.distance <= match.radius + level.query_radius)) continue;
        if (l == 0) {
          survivors.try_emplace(match.owner_peer, 1);
          continue;
        }
        const auto it = survivors.find(match.owner_peer);
        if (it != survivors.end() && it->second == l) it->second = l + 1;
      }
    }
  }
  // Each kept peer's records are all scored, in match order, so its level
  // sums — and therefore its aggregate — carry the same bits as scoring
  // every record would give.
  std::vector<std::unordered_map<int, double>> level_scores;
  level_scores.reserve(num_levels);
  for (const LevelMatches* level : levels) {
    level_scores.push_back(ScoreLevel(*level, conjunctive ? &survivors : nullptr,
                                      num_levels, evaluations));
  }
  return AggregateScores(level_scores, policy);
}

}  // namespace hyperm::core
