// Per-wavelet-level sphere digest: a Bloom summary of the cluster spheres a
// supernode's domain has published into one overlay level.
//
// Geometry: the unit key cube [0,1)^dim is cut into `cells_per_axis` interval
// cells per axis. Inserting a sphere inserts, for every dimension d, one key
// per cell overlapping the sphere's projection [c_d - r, c_d + r]; on top of
// the marginals, every adjacent dimension pair (d, d+1 mod dim) contributes
// the *joint* cells of the sphere's projected box on a coarser pair grid. A
// query sphere "may intersect" the digest iff every dimension has at least
// one overlapping marginal cell hit AND every dimension pair has at least
// one overlapping joint cell hit.
//
// No false dismissals: if a stored sphere intersects the query sphere, their
// projections overlap in every dimension, so every marginal test shares a
// cell and every pair test shares a joint cell — neither AND can reject. The
// joint cells exist to kill the marginal AND's characteristic false
// positive: per-dimension hits contributed by *different* stored spheres.
// Remaining false positives come from the box hull of each sphere and
// ordinary Bloom bit collisions; every approximation only ever widens the
// match, never shrinks it (the fail-soft direction — a widened match costs
// an extra domain descent, never a lost result).

#ifndef HYPERM_BACKBONE_DIGEST_H_
#define HYPERM_BACKBONE_DIGEST_H_

#include <cstdint>
#include <utility>

#include "backbone/bloom.h"
#include "common/status.h"
#include "geom/shapes.h"

namespace hyperm::backbone {

/// Bloom hash count of every level digest.
inline constexpr int kDigestHashes = 4;

struct DigestOptions {
  int bits = 2048;         ///< Bloom bits per level digest (0 = digest-less)
  int cells_per_axis = 8;  ///< interval quantization of each key axis
};

/// Bloom digest over cluster spheres of one wavelet level.
class SphereDigest {
 public:
  /// Geometry-less placeholder (containers); InsertSphere is illegal.
  SphereDigest() = default;

  SphereDigest(int dim, const DigestOptions& options);

  void InsertSphere(const geom::Sphere& sphere);

  /// Union with `other`: ORs the Bloom words and adds the sphere counts, so
  /// merging digests of sphere sets A and B gives exactly the digest of A
  /// followed by B inserted into one filter (insertion only ORs bits, which
  /// commutes). Fails when dim, bits or cells_per_axis differ.
  Status Merge(const SphereDigest& other);

  /// Conservative intersection test: false means *provably* no stored sphere
  /// intersects `query` (no false dismissals); true means "descend and look".
  bool MayIntersect(const geom::Sphere& query) const;

  void Clear();

  int dim() const { return dim_; }
  uint64_t spheres() const { return spheres_; }
  const BloomFilter& bloom() const { return bloom_; }

  /// Bytes a digest exchange message carries for this level.
  size_t SerializedBytes() const { return bloom_.SerializedBytes(); }

 private:
  int dim_ = 0;
  DigestOptions options_;
  BloomFilter bloom_;
  uint64_t spheres_ = 0;
};

}  // namespace hyperm::backbone

#endif  // HYPERM_BACKBONE_DIGEST_H_
