// The coarse Haar coefficients a peer keeps per stored item, and the lower
// bound they give on a squared distance: the coefficients must be the
// truncated orthonormal pyramid, and the bound with its margin must never
// rule out a pair at (or below) its own computed distance, at any magnitude.

#include "wavelet/coarse.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/markov_generator.h"
#include "vec/vector.h"
#include "wavelet/haar.h"
#include "wavelet/transform.h"

namespace hyperm::wavelet {
namespace {

struct Coarse {
  double coef[kCoarseCoefficients];
  double abs_sum = 0.0;
};

Coarse Of(const Vector& x) {
  Coarse c;
  c.abs_sum = CoarseHaar(x.data(), x.size(), c.coef);
  return c;
}

TEST(CoarseHaarTest, MatchesTheTruncatedOrthonormalPyramid) {
  Rng rng(5);
  for (size_t dim : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 12u, 16u, 64u, 100u, 512u, 1024u}) {
    Vector x(dim);
    double abs_sum = 0.0;
    for (double& v : x) {
      v = rng.Uniform(-4.0, 4.0);
      abs_sum += std::abs(v);
    }
    Result<Pyramid> pyramid = DecomposeWith(WaveletKind::kHaarOrthonormal, PadToPowerOfTwo(x));
    ASSERT_TRUE(pyramid.ok());
    // A, then D_0, D_1, D_2 while the pyramid has them; zeros after.
    std::vector<double> want = pyramid->approximation;
    for (int l = 0; l < std::min(3, pyramid->num_detail_levels()); ++l) {
      const Vector& detail = pyramid->details[static_cast<size_t>(l)];
      want.insert(want.end(), detail.begin(), detail.end());
    }
    want.resize(kCoarseCoefficients, 0.0);
    const Coarse got = Of(x);
    EXPECT_NEAR(got.abs_sum, abs_sum, 1e-12 * abs_sum) << "dim " << dim;
    for (size_t k = 0; k < kCoarseCoefficients; ++k) {
      EXPECT_NEAR(got.coef[k], want[k], 1e-12 * abs_sum) << "dim " << dim << " k " << k;
    }
  }
}

TEST(CoarseHaarTest, InfiniteInputsPruneNothing) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(CoarseMargin(64, 1.0).PruneThreshold(kInf), kInf);
  EXPECT_EQ(CoarseMargin(64, kInf).PruneThreshold(1.0), kInf);
}

// Pairs at each magnitude whose bound the margin must clear: independent
// rows, Markov traces, differences that lie wholly in the coarse levels
// (bound == distance in exact arithmetic) and near-identical rows (the
// coefficient differences cancel catastrophically).
class CoarseBoundMagnitude : public ::testing::TestWithParam<double> {};

TEST_P(CoarseBoundMagnitude, NeverRulesOutAPairAtItsOwnDistance) {
  const double scale = GetParam();
  Rng rng(17);
  for (size_t dim : {1u, 2u, 6u, 8u, 64u, 512u, 1024u}) {
    size_t padded = 1;
    while (padded < dim) padded <<= 1;
    const size_t width = std::max<size_t>(1, padded / 8);
    data::MarkovOptions markov;
    markov.count = 40;
    markov.dim = static_cast<int>(dim);
    markov.num_families = 2;
    const std::vector<Vector> traces = data::GenerateMarkov(markov, rng).value().items;
    for (int trial = 0; trial < 40; ++trial) {
      Vector q(dim), x(dim);
      for (double& v : q) v = scale * rng.Uniform(0.5, 1.5);
      const int type = trial % 4;
      if (type == 0) {
        for (double& v : x) v = scale * rng.Uniform(0.5, 1.5);
      } else if (type == 1) {
        q = vec::Scale(traces[rng.NextIndex(traces.size())], scale);
        x = vec::Scale(traces[rng.NextIndex(traces.size())], scale);
      } else if (type == 2) {
        for (size_t j = 0; j < dim; j += width) {
          const double offset = scale * 0.25 * static_cast<double>(rng.UniformInt(-3, 3));
          for (size_t i = j; i < std::min(dim, j + width); ++i) x[i] = q[i] + offset;
        }
      } else {
        for (size_t i = 0; i < dim; ++i) x[i] = q[i] * (1.0 + 1e-12 * rng.Uniform(-1.0, 1.0));
      }
      const Coarse cx = Of(x), cq = Of(q);
      const double bound = CoarseBoundSq(cx.coef, cq.coef);
      const double exact = vec::SquaredDistance(x, q);
      EXPECT_FALSE(bound > CoarseMargin(dim, cx.abs_sum + cq.abs_sum).PruneThreshold(exact))
          << "scale " << scale << " dim " << dim << " type " << type << ": bound " << bound
          << " vs distance " << exact;
      if (type == 2) {
        // The bound is tight when the difference lies in the coarse levels.
        EXPECT_NEAR(bound, exact, 1e-9 * exact) << "scale " << scale << " dim " << dim;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, CoarseBoundMagnitude,
                         ::testing::Values(1e-150, 1.0, 1e150),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return info.index == 0   ? std::string("tiny")
                                  : info.index == 1 ? std::string("unit")
                                                    : std::string("huge");
                         });

}  // namespace
}  // namespace hyperm::wavelet
