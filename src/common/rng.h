// Deterministic, seedable pseudo-random number generation.
//
// All stochastic components of the library (data generators, k-means++
// seeding, simulator jitter) draw from `Rng` so that every experiment is
// reproducible from a single seed.

#ifndef HYPERM_COMMON_RNG_H_
#define HYPERM_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hyperm {

/// xoshiro256** generator seeded via SplitMix64.
///
/// Small, fast and with well-understood statistical quality; deliberately not
/// std::mt19937 so that streams are stable across standard libraries.
class Rng {
 public:
  /// Seeds the generator; equal seeds produce equal streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit output.
  uint64_t NextUint64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Uses rejection sampling to
  /// avoid modulo bias.
  uint64_t NextIndex(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// True with probability `p` (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Standard normal variate (Marsaglia polar method).
  double Gaussian();

  /// Normal variate with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Exponential variate with the given rate (> 0).
  double Exponential(double rate);

  /// Gamma(shape, 1) variate, shape > 0 (Marsaglia–Tsang).
  double Gamma(double shape);

  /// Symmetric Dirichlet sample of the given dimension and concentration;
  /// entries are non-negative and sum to 1.
  std::vector<double> Dirichlet(int dim, double concentration);

  /// Fisher–Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(NextIndex(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

 private:
  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// Mixes `(seed, a, b)` into one well-distributed 64-bit stream seed
/// (SplitMix64-based). This is how parallel fan-outs derive a private,
/// reproducible `Rng` per task — e.g. `Rng(MixSeed(base, peer, layer))` —
/// so results are bit-identical at any thread count: the stream depends
/// only on the task's identity, never on scheduling order.
uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b = 0);

}  // namespace hyperm

#endif  // HYPERM_COMMON_RNG_H_
