// Logistic regression — the downstream classifier of the evaluation
// pipeline (paper Section 4.1).
//
// Two fitting modes mirror the paper's tooling: kBatch replicates the
// scikit-learn LogisticRegression usage on medium graphs (full-gradient
// descent to convergence), kSgd replicates the SGDClassifier-with-log-loss
// fallback the paper switches to on large graphs, where full-batch passes
// are too expensive.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gosh/eval/features.hpp"

namespace gosh::eval {

struct LogRegConfig {
  enum class Solver { kBatch, kSgd };
  Solver solver = Solver::kBatch;
  unsigned max_iterations = 200;  ///< batch: gradient steps; sgd: epochs
  double learning_rate = 0.5;    ///< batch step size (on mean gradient)
  double sgd_learning_rate = 0.05;
  double l2 = 1e-4;
  /// Stop when the mean-gradient norm falls below this (batch only).
  double tolerance = 1e-5;
  std::uint64_t seed = 7;
};

class LogisticRegression {
 public:
  explicit LogisticRegression(const LogRegConfig& config = {});

  /// Fits weights (dim + intercept) on a sample set, visiting one
  /// on-demand feature row at a time.
  void fit(const FeatureSource& data);

  /// P(label = 1 | features), `features` holding dim floats.
  float predict_probability(const float* features) const;

  /// Scores a whole sample set in parallel, with one scratch row per
  /// worker.
  std::vector<float> predict(const FeatureSource& data) const;

  std::span<const double> weights() const noexcept { return weights_; }
  double intercept() const noexcept { return intercept_; }

 private:
  void fit_batch(const FeatureSource& data);
  void fit_sgd(const FeatureSource& data);

  LogRegConfig config_;
  std::vector<double> weights_;
  double intercept_ = 0.0;
};

}  // namespace gosh::eval
