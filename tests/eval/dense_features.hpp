// Test-only materialized sample set: every feature row stored densely,
// which the library's sample sets deliberately never do. Solver tests pick
// their features directly through it; the bit-identity tests hold their
// reference Hadamard rows in it.
#pragma once

#include <cstdint>
#include <vector>

#include "gosh/eval/features.hpp"

namespace gosh::testing_util {

struct DenseFeatures final : eval::FeatureSource {
  /// Row-major size() x width block.
  std::vector<float> features;
  std::vector<uint8_t> labels;
  unsigned width = 0;

  std::size_t size() const noexcept override { return labels.size(); }
  unsigned dim() const noexcept override { return width; }
  uint8_t label(std::size_t i) const noexcept override { return labels[i]; }
  const float* row(std::size_t i, float*) const noexcept override {
    return features.data() + i * width;
  }
};

}  // namespace gosh::testing_util
