#include "wavelet/level.h"

#include <cmath>

#include "common/check.h"

namespace hyperm::wavelet {

std::string Level::name() const {
  if (kind == Kind::kApproximation) return "A";
  std::string name(1, 'D');
  name += std::to_string(index);
  return name;
}

const Vector& Project(const Pyramid& pyramid, const Level& level) {
  if (level.kind == Level::Kind::kApproximation) {
    return pyramid.approximation;
  }
  HM_CHECK_GE(level.index, 0);
  HM_CHECK_LT(level.index, pyramid.num_detail_levels());
  return pyramid.details[static_cast<size_t>(level.index)];
}

double RadiusScale(int num_detail_levels, const Level& level) {
  HM_CHECK_GE(num_detail_levels, 0);
  // Number of averaging steps separating the level from the original space.
  int steps;
  if (level.kind == Level::Kind::kApproximation) {
    steps = num_detail_levels;
  } else {
    HM_CHECK_GE(level.index, 0);
    HM_CHECK_LT(level.index, num_detail_levels);
    steps = num_detail_levels - level.index;
  }
  return std::pow(2.0, -0.5 * steps);
}

std::vector<Level> DefaultLevels(int num_detail_levels, int num_layers) {
  HM_CHECK_GE(num_layers, 1);
  HM_CHECK_LE(num_layers, num_detail_levels + 1);
  std::vector<Level> levels;
  levels.reserve(static_cast<size_t>(num_layers));
  levels.push_back(Level::Approximation());
  for (int l = 0; l + 1 < num_layers; ++l) {
    levels.push_back(Level::Detail(l));
  }
  return levels;
}

}  // namespace hyperm::wavelet
