#include "data/histogram_generator.h"

#include <cmath>

#include "common/check.h"

namespace hyperm::data {
namespace {

// Shape of the generated histograms (DESIGN.md §22).
constexpr double kConcentration = 0.3;  // Dirichlet concentration of prototype shapes
constexpr double kMassSigma = 0.5;      // log-normal spread of per-object total mass
constexpr double kGainSigma = 0.08;     // log-normal illumination gain per view and bin
constexpr double kNoiseSigma = 0.004;   // additive per-bin noise (x object mass)
constexpr int kMaxShift = 1;            // max circular bin shift per view

}  // namespace

Result<Dataset> GenerateHistograms(const HistogramOptions& options, Rng& rng) {
  if (options.num_objects < 1) {
    return InvalidArgumentError("GenerateHistograms: num_objects < 1");
  }
  if (options.views_per_object < 1) {
    return InvalidArgumentError("GenerateHistograms: views_per_object < 1");
  }
  // dim >= 2 also keeps the bin shift (at most kMaxShift) below dim.
  if (options.dim < 2) return InvalidArgumentError("GenerateHistograms: dim < 2");

  Dataset dataset;
  const size_t total =
      static_cast<size_t>(options.num_objects) * static_cast<size_t>(options.views_per_object);
  dataset.items.reserve(total);
  dataset.labels.reserve(total);

  const size_t dim = static_cast<size_t>(options.dim);
  for (int object = 0; object < options.num_objects; ++object) {
    // Shape (where the colour mass sits) times mass (how much of the frame
    // the object covers) — both are object identity.
    std::vector<double> prototype = rng.Dirichlet(options.dim, kConcentration);
    const double object_mass = std::exp(rng.Gaussian(0.0, kMassSigma));
    for (double& bin : prototype) bin *= object_mass;
    for (int view = 0; view < options.views_per_object; ++view) {
      Vector histogram(dim, 0.0);
      // Viewing angle: blend a small circular shift of the bin mass into the
      // prototype (a hard shift would orthogonalize sparse histograms).
      const int shift = static_cast<int>(
          rng.UniformInt(-kMaxShift, kMaxShift));
      const double blend = rng.Uniform(0.0, 0.25);
      // Illumination affects the whole view; bin-level gain adds texture.
      const double view_gain = std::exp(rng.Gaussian(0.0, kGainSigma));
      const double mass_scale = kNoiseSigma * 0.1;
      for (size_t bin = 0; bin < dim; ++bin) {
        const size_t src =
            static_cast<size_t>((static_cast<int>(bin) - shift % options.dim +
                                 options.dim) %
                                options.dim);
        const double bin_gain = std::exp(rng.Gaussian(0.0, kGainSigma));
        const double base = (1.0 - blend) * prototype[bin] + blend * prototype[src];
        histogram[bin] = base * view_gain * bin_gain +
                         std::fabs(rng.Gaussian(0.0, mass_scale));
      }
      dataset.items.push_back(std::move(histogram));
      dataset.labels.push_back(object);
    }
  }
  return dataset;
}

}  // namespace hyperm::data
