// Logistic regression fitting (batch and SGD solvers).
#include <gtest/gtest.h>

#include "eval/dense_features.hpp"
#include "gosh/common/rng.hpp"
#include "gosh/eval/aucroc.hpp"
#include "gosh/eval/logreg.hpp"

namespace gosh::eval {
namespace {

using testing_util::DenseFeatures;

/// Linearly separable 2-feature set: label = [x0 + x1 > 0].
DenseFeatures separable_set(std::size_t n, std::uint64_t seed) {
  DenseFeatures set;
  set.width = 2;
  set.features.resize(n * 2);
  set.labels.resize(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const float x0 = rng.next_float() * 2.0f - 1.0f;
    const float x1 = rng.next_float() * 2.0f - 1.0f;
    set.features[i * 2] = x0;
    set.features[i * 2 + 1] = x1;
    set.labels[i] = x0 + x1 > 0.0f ? 1 : 0;
  }
  return set;
}

TEST(LogRegBatch, SeparatesLinearData) {
  const auto data = separable_set(2000, 1);
  LogisticRegression model;
  model.fit(data);
  const auto scores = model.predict(data);
  EXPECT_GT(auc_roc(scores, data.labels), 0.99);
}

TEST(LogRegBatch, LearnsPositiveWeightsForPositiveSignal) {
  const auto data = separable_set(2000, 2);
  LogisticRegression model;
  model.fit(data);
  EXPECT_GT(model.weights()[0], 0.0);
  EXPECT_GT(model.weights()[1], 0.0);
}

TEST(LogRegSgd, SeparatesLinearData) {
  const auto data = separable_set(2000, 3);
  LogRegConfig config;
  config.solver = LogRegConfig::Solver::kSgd;
  config.max_iterations = 30;
  LogisticRegression model(config);
  model.fit(data);
  const auto scores = model.predict(data);
  EXPECT_GT(auc_roc(scores, data.labels), 0.98);
}

TEST(LogReg, ProbabilitiesAreCalibratedDirectionally) {
  const auto data = separable_set(2000, 4);
  LogisticRegression model;
  model.fit(data);
  float strong_positive[2] = {1.0f, 1.0f};
  float strong_negative[2] = {-1.0f, -1.0f};
  EXPECT_GT(model.predict_probability(strong_positive), 0.9f);
  EXPECT_LT(model.predict_probability(strong_negative), 0.1f);
}

TEST(LogReg, BalancedNoiseStaysNearHalf) {
  DenseFeatures data;
  data.width = 4;
  const std::size_t n = 3000;
  data.features.resize(n * 4);
  data.labels.resize(n);
  Rng rng(5);
  for (std::size_t i = 0; i < n; ++i) {
    for (unsigned j = 0; j < 4; ++j) {
      data.features[i * 4 + j] = rng.next_float() - 0.5f;
    }
    data.labels[i] = static_cast<uint8_t>(rng.next_bounded(2));
  }
  LogisticRegression model;
  model.fit(data);
  const auto scores = model.predict(data);
  EXPECT_NEAR(auc_roc(scores, data.labels), 0.5, 0.06);
}

TEST(LogReg, L2ShrinksWeights) {
  const auto data = separable_set(1000, 6);
  LogRegConfig strong;
  strong.l2 = 1.0;
  LogRegConfig weak;
  weak.l2 = 1e-6;
  LogisticRegression strong_model(strong), weak_model(weak);
  strong_model.fit(data);
  weak_model.fit(data);
  EXPECT_LT(std::abs(strong_model.weights()[0]),
            std::abs(weak_model.weights()[0]));
}

}  // namespace
}  // namespace gosh::eval
