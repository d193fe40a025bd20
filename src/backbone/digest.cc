#include "backbone/digest.h"

#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "common/status.h"

namespace hyperm::backbone {
namespace {

// Salt separating digest keys from every other MixSeed user in the tree.
constexpr uint64_t kDigestSalt = 0x4853'4447'424bULL;  // "HSDGBK"

// Joint pair cells use a coarser grid than the marginal intervals: insertions
// per sphere grow with the product of the two covered ranges, and a modest
// resolution already removes most of the marginal AND's false positives
// (hits contributed to different dimensions by *different* stored spheres).
constexpr int kPairCellsPerAxis = 8;

uint64_t CellKey(int dim_index, int cell) {
  return MixSeed(kDigestSalt, static_cast<uint64_t>(dim_index),
                 static_cast<uint64_t>(cell));
}

// Distinct key namespace for the joint cells of adjacent-dimension pairs.
uint64_t PairCellKey(int dim_index, int cell_a, int cell_b) {
  return MixSeed(MixSeed(~kDigestSalt, static_cast<uint64_t>(dim_index)),
                 static_cast<uint64_t>(cell_a), static_cast<uint64_t>(cell_b));
}

// Inclusive index range of the cells of width 1/cells covering
// [center - radius, center + radius], clamped to [0, cells). Spheres may
// bulge past [0,1), but the overlap geometry inside the cube is what
// matters, and clamping the same way on insert and query keeps the
// no-false-dismissal argument intact. The clamp runs in double, before the
// cast: a huge finite radius puts the cell index far outside int, where the
// cast is undefined (x86 yields INT_MIN, which would clamp to cell 0 and
// turn a query covering everything into one that matches nothing).
std::pair<int, int> CellRange(double center, double radius, int cells) {
  const double width = 1.0 / cells;
  const double last = cells - 1;
  const auto cell = [&](double x) {
    return static_cast<int>(
        std::fmin(std::fmax(std::floor(x / width), 0.0), last));
  };
  return {cell(center - radius), cell(center + radius)};
}

}  // namespace

SphereDigest::SphereDigest(int dim, const DigestOptions& options)
    : dim_(dim), options_(options) {
  HM_CHECK_GT(dim, 0);
  HM_CHECK_GE(options.cells_per_axis, 1);
  if (options_.bits > 0) bloom_ = BloomFilter(options_.bits, kDigestHashes);
}

void SphereDigest::InsertSphere(const geom::Sphere& sphere) {
  HM_CHECK_GT(dim_, 0) << "InsertSphere on a geometry-less SphereDigest";
  HM_CHECK_EQ(static_cast<int>(sphere.dim()), dim_);
  ++spheres_;
  if (options_.bits <= 0) return;  // digest-less mode: count only
  for (int d = 0; d < dim_; ++d) {
    const auto [lo, hi] =
        CellRange(sphere.center[d], sphere.radius, options_.cells_per_axis);
    for (int cell = lo; cell <= hi; ++cell) bloom_.Insert(CellKey(d, cell));
  }
  // Joint cells over adjacent dimension pairs (d, d+1 mod dim): the covered
  // box of the sphere's projection onto the pair plane. Same clamping on
  // insert and query, so an intersecting pair of spheres always shares a
  // joint cell (their projections overlap in both dimensions).
  if (dim_ >= 2) {
    for (int d = 0; d < dim_; ++d) {
      const int d2 = (d + 1) % dim_;
      const auto [alo, ahi] =
          CellRange(sphere.center[d], sphere.radius, kPairCellsPerAxis);
      const auto [blo, bhi] =
          CellRange(sphere.center[d2], sphere.radius, kPairCellsPerAxis);
      for (int a = alo; a <= ahi; ++a) {
        for (int b = blo; b <= bhi; ++b) {
          bloom_.Insert(PairCellKey(d, a, b));
        }
      }
      if (dim_ == 2) break;  // (0,1) and (1,0) carry the same information
    }
  }
}

Status SphereDigest::Merge(const SphereDigest& other) {
  if (dim_ != other.dim_ || options_.bits != other.options_.bits ||
      options_.cells_per_axis != other.options_.cells_per_axis) {
    return InvalidArgumentError("SphereDigest::Merge geometry mismatch");
  }
  if (options_.bits > 0) HM_RETURN_IF_ERROR(bloom_.Merge(other.bloom_));
  spheres_ += other.spheres_;
  return Status();
}

bool SphereDigest::MayIntersect(const geom::Sphere& query) const {
  if (spheres_ == 0) return false;  // empty domain level: provably no match
  if (options_.bits <= 0) return true;  // digest-less: always descend
  HM_CHECK_EQ(static_cast<int>(query.dim()), dim_);
  for (int d = 0; d < dim_; ++d) {
    const auto [lo, hi] =
        CellRange(query.center[d], query.radius, options_.cells_per_axis);
    bool hit = false;
    for (int cell = lo; cell <= hi && !hit; ++cell) {
      hit = bloom_.MayContain(CellKey(d, cell));
    }
    if (!hit) return false;  // no stored sphere projects into these cells
  }
  if (dim_ >= 2) {
    for (int d = 0; d < dim_; ++d) {
      const int d2 = (d + 1) % dim_;
      const auto [alo, ahi] =
          CellRange(query.center[d], query.radius, kPairCellsPerAxis);
      const auto [blo, bhi] =
          CellRange(query.center[d2], query.radius, kPairCellsPerAxis);
      bool hit = false;
      for (int a = alo; a <= ahi && !hit; ++a) {
        for (int b = blo; b <= bhi && !hit; ++b) {
          hit = bloom_.MayContain(PairCellKey(d, a, b));
        }
      }
      if (!hit) return false;  // no stored sphere meets the query's pair box
      if (dim_ == 2) break;
    }
  }
  return true;
}

void SphereDigest::Clear() {
  if (options_.bits > 0) bloom_.Clear();
  spheres_ = 0;
}

}  // namespace hyperm::backbone
