#include "wavelet/transform.h"

#include <algorithm>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/markov_generator.h"
#include "vec/vector.h"

namespace hyperm::wavelet {
namespace {

Vector RandomVector(size_t dim, Rng& rng) {
  Vector x(dim);
  for (double& v : x) v = rng.Uniform(-5.0, 5.0);
  return x;
}

TEST(TransformTest, KindNames) {
  EXPECT_EQ(WaveletKindName(WaveletKind::kHaarAveraging), "haar-averaging");
  EXPECT_EQ(WaveletKindName(WaveletKind::kHaarOrthonormal), "haar-orthonormal");
  EXPECT_EQ(WaveletKindName(WaveletKind::kDaubechies4), "daubechies-4");
}

TEST(TransformTest, AveragingMatchesHaarModule) {
  Rng rng(1);
  const Vector x = RandomVector(32, rng);
  Result<Pyramid> a = DecomposeWith(WaveletKind::kHaarAveraging, x);
  Result<Pyramid> b = Decompose(x);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->approximation, b->approximation);
  for (size_t l = 0; l < a->details.size(); ++l) {
    EXPECT_EQ(a->details[l], b->details[l]);
  }
}

TEST(TransformTest, OrthonormalHaarPreservesEnergy) {
  Rng rng(2);
  const Vector x = RandomVector(64, rng);
  Result<Pyramid> p = DecomposeWith(WaveletKind::kHaarOrthonormal, x);
  ASSERT_TRUE(p.ok());
  double energy = vec::SquaredNorm(p->approximation);
  for (const Vector& d : p->details) energy += vec::SquaredNorm(d);
  EXPECT_NEAR(energy, vec::SquaredNorm(x), 1e-8);
}

TEST(TransformTest, Daubechies4PreservesEnergy) {
  Rng rng(3);
  const Vector x = RandomVector(64, rng);
  Result<Pyramid> p = DecomposeWith(WaveletKind::kDaubechies4, x);
  ASSERT_TRUE(p.ok());
  double energy = vec::SquaredNorm(p->approximation);
  for (const Vector& d : p->details) energy += vec::SquaredNorm(d);
  EXPECT_NEAR(energy, vec::SquaredNorm(x), 1e-8);
}

TEST(TransformTest, Daubechies4KillsLinearSignals) {
  // D4 has two vanishing moments: the detail of a linear ramp is ~0 away
  // from the periodic wrap-around.
  Vector ramp(16);
  for (size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<double>(i);
  HaarStep step = DecomposeStepWith(WaveletKind::kDaubechies4, ramp);
  for (size_t k = 0; k + 1 < step.detail.size(); ++k) {  // last tap wraps
    EXPECT_NEAR(step.detail[k], 0.0, 1e-10) << "k=" << k;
  }
}

// Property: perfect reconstruction for every family, dimension and seed.
class TransformRoundTrip
    : public ::testing::TestWithParam<std::tuple<WaveletKind, int, int>> {};

TEST_P(TransformRoundTrip, PerfectReconstruction) {
  const auto [kind, dim, seed] = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  const Vector x = RandomVector(static_cast<size_t>(dim), rng);
  Result<Pyramid> p = DecomposeWith(kind, x);
  ASSERT_TRUE(p.ok());
  const Vector back = ReconstructWith(kind, *p);
  ASSERT_EQ(back.size(), x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i], x[i], 1e-9) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, TransformRoundTrip,
    ::testing::Combine(::testing::Values(WaveletKind::kHaarAveraging,
                                         WaveletKind::kHaarOrthonormal,
                                         WaveletKind::kDaubechies4),
                       ::testing::Values(2, 4, 16, 128, 512),
                       ::testing::Values(5, 6)));

// Property: the advertised radius scale is sound — points inside a sphere
// stay inside the scaled sphere in every subspace, for every family.
class TransformContraction : public ::testing::TestWithParam<WaveletKind> {};

TEST_P(TransformContraction, RadiusScaleIsSound) {
  const WaveletKind kind = GetParam();
  Rng rng(77);
  const int dim = 32;
  const int m = 5;
  const double r = 1.5;
  Vector center = RandomVector(dim, rng);
  Result<Pyramid> center_pyramid = DecomposeWith(kind, center);
  ASSERT_TRUE(center_pyramid.ok());
  const std::vector<Level> levels = DefaultLevels(m, m + 1);
  for (int trial = 0; trial < 300; ++trial) {
    Vector offset(dim);
    for (double& v : offset) v = rng.Gaussian();
    const double norm = vec::Norm(offset);
    const double radius = r * std::pow(rng.NextDouble(), 1.0 / dim);
    Vector point = center;
    for (int i = 0; i < dim; ++i) {
      point[static_cast<size_t>(i)] += offset[static_cast<size_t>(i)] / norm * radius;
    }
    Result<Pyramid> point_pyramid = DecomposeWith(kind, point);
    ASSERT_TRUE(point_pyramid.ok());
    for (const Level& level : levels) {
      const double bound = r * RadiusScaleFor(kind, m, level);
      const double dist = vec::Distance(Project(*point_pyramid, level),
                                        Project(*center_pyramid, level));
      EXPECT_LE(dist, bound + 1e-9)
          << WaveletKindName(kind) << " level " << level.name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, TransformContraction,
                         ::testing::Values(WaveletKind::kHaarAveraging,
                                           WaveletKind::kHaarOrthonormal,
                                           WaveletKind::kDaubechies4));

// Property (Parseval): each level's coefficients divided by the family's
// radius scale are orthonormal-basis coefficients, so their energies sum to
// the vector's and no run of levels exceeds it. The level filters rely on
// this: Σ_ℓ ‖q_ℓ − x_ℓ‖² / s_ℓ² <= ‖q − x‖² for every subset of levels.
class TransformParseval : public ::testing::TestWithParam<WaveletKind> {};

TEST_P(TransformParseval, ScaledLevelEnergiesNeverExceedTheVector) {
  const WaveletKind kind = GetParam();
  Rng rng(91);
  for (int m = 3; m <= 10; ++m) {  // dims 8 ... 1024
    const size_t dim = size_t{1} << m;
    data::MarkovOptions markov;
    markov.count = 2;
    markov.dim = static_cast<int>(dim);
    markov.num_families = 1;
    std::vector<Vector> vectors = data::GenerateMarkov(markov, rng).value().items;
    vectors.push_back(RandomVector(dim, rng));
    vectors.push_back(Vector(dim, 3.25));  // constant: all energy in A
    Vector alternating(dim);
    for (size_t i = 0; i < dim; ++i) alternating[i] = i % 2 == 0 ? 1.5 : -1.5;
    vectors.push_back(alternating);  // all energy in the finest detail level
    for (const Vector& x : vectors) {
      Result<Pyramid> pyramid = DecomposeWith(kind, x);
      ASSERT_TRUE(pyramid.ok());
      const double energy = vec::SquaredNorm(x);
      const double slack = energy * 1e-12;
      double partial = 0.0;
      for (const Level& level : DefaultLevels(m, m + 1)) {
        const double scale = RadiusScaleFor(kind, m, level);
        partial += vec::SquaredNorm(Project(*pyramid, level)) / (scale * scale);
        EXPECT_LE(partial, energy + slack)
            << WaveletKindName(kind) << " dim " << dim << " through " << level.name();
      }
      EXPECT_NEAR(partial, energy, slack) << WaveletKindName(kind) << " dim " << dim;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, TransformParseval,
                         ::testing::Values(WaveletKind::kHaarAveraging,
                                           WaveletKind::kHaarOrthonormal,
                                           WaveletKind::kDaubechies4),
                         [](const ::testing::TestParamInfo<WaveletKind>& info) {
                           std::string name = WaveletKindName(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace hyperm::wavelet
