#include "common/rng.h"

#include <cmath>

#include "common/check.h"

namespace hyperm {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(s);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 top bits -> [0,1) with full double precision.
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  HM_CHECK_LE(lo, hi);
  return lo + (hi - lo) * NextDouble();
}

uint64_t Rng::NextIndex(uint64_t n) {
  HM_CHECK_GT(n, 0u);
  // Rejection sampling over the largest multiple of n.
  const uint64_t limit = ~uint64_t{0} - (~uint64_t{0} % n);
  uint64_t v = NextUint64();
  while (v >= limit) v = NextUint64();
  return v % n;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  HM_CHECK_LE(lo, hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextIndex(span));
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u, v, s;
  do {
    u = Uniform(-1.0, 1.0);
    v = Uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_gaussian_ = v * factor;
  has_cached_gaussian_ = true;
  return u * factor;
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

double Rng::Exponential(double rate) {
  HM_CHECK_GT(rate, 0.0);
  // 1 - NextDouble() is in (0,1], so the log is finite.
  return -std::log(1.0 - NextDouble()) / rate;
}

double Rng::Gamma(double shape) {
  HM_CHECK_GT(shape, 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia–Tsang trick).
    const double u = NextDouble();
    return Gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  while (true) {
    double x, v;
    do {
      x = Gaussian();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = NextDouble();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

std::vector<double> Rng::Dirichlet(int dim, double concentration) {
  HM_CHECK_GT(dim, 0);
  HM_CHECK_GT(concentration, 0.0);
  std::vector<double> sample(static_cast<size_t>(dim));
  double total = 0.0;
  for (double& x : sample) {
    x = Gamma(concentration);
    total += x;
  }
  if (total <= 0.0) {
    // Degenerate draw (all zeros from tiny concentration): fall back to uniform.
    const double uniform = 1.0 / dim;
    for (double& x : sample) x = uniform;
    return sample;
  }
  for (double& x : sample) x /= total;
  return sample;
}

uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b) {
  // Three SplitMix64 rounds with the inputs folded in between; each fold
  // perturbs the walking state so (seed, a, b), (seed, b, a) and
  // (seed, a+1, b-1) land in unrelated streams.
  uint64_t x = seed;
  uint64_t out = SplitMix64(x);
  x ^= a * 0x9e3779b97f4a7c15ULL;
  out ^= SplitMix64(x);
  x ^= b * 0xbf58476d1ce4e5b9ULL;
  out ^= SplitMix64(x);
  return out;
}

}  // namespace hyperm
