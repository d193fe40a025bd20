// ALOI-like synthetic colour-histogram dataset.
//
// The paper's effectiveness experiments use the Amsterdam Library of Object
// Images [13]: 12,000 images (1,000 objects under 12 viewing/illumination
// conditions) represented as colour histograms. That collection is not
// available offline, so this generator synthesises a dataset with the same
// structure: each *object* is a Dirichlet shape prototype over histogram
// bins with its own total mass (how much of the frame the object covers),
// and each *view* perturbs the prototype with illumination gain, a small
// circular bin shift (viewing angle) and additive noise. Histograms are
// deliberately NOT normalised — raw colour counts carry the total-mass
// signal the wavelet approximation level indexes, exactly as raw ALOI
// histograms do. Ground-truth neighbours of a view are the other views of
// the same object, which is what the retrieval experiments rely on.

#ifndef HYPERM_DATA_HISTOGRAM_GENERATOR_H_
#define HYPERM_DATA_HISTOGRAM_GENERATOR_H_

#include "common/result.h"
#include "common/rng.h"
#include "data/dataset.h"

namespace hyperm::data {

/// Parameters of the histogram dataset generator.
struct HistogramOptions {
  int num_objects = 1000;     ///< distinct objects (labels)
  int views_per_object = 12;  ///< histograms per object
  int dim = 64;               ///< histogram bins (power of two for the DWT)
};

/// Generates num_objects * views_per_object non-negative raw-count
/// histograms; label = object id. Returns InvalidArgument on bad options.
Result<Dataset> GenerateHistograms(const HistogramOptions& options, Rng& rng);

}  // namespace hyperm::data

#endif  // HYPERM_DATA_HISTOGRAM_GENERATOR_H_
