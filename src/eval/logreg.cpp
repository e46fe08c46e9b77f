#include "gosh/eval/logreg.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "gosh/common/parallel_for.hpp"
#include "gosh/common/rng.hpp"

namespace gosh::eval {
namespace {

double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

LogisticRegression::LogisticRegression(const LogRegConfig& config)
    : config_(config) {}

void LogisticRegression::fit(const FeatureSource& data) {
  weights_.assign(data.dim(), 0.0);
  intercept_ = 0.0;
  if (config_.solver == LogRegConfig::Solver::kBatch) {
    fit_batch(data);
  } else {
    fit_sgd(data);
  }
}

void LogisticRegression::fit_batch(const FeatureSource& data) {
  const std::size_t n = data.size();
  const unsigned d = data.dim();
  std::vector<double> gradient(d);
  std::vector<float> scratch(d);

  for (unsigned iter = 0; iter < config_.max_iterations; ++iter) {
    std::fill(gradient.begin(), gradient.end(), 0.0);
    double intercept_gradient = 0.0;

    for (std::size_t i = 0; i < n; ++i) {
      const float* x = data.row(i, scratch.data());
      double z = intercept_;
      for (unsigned j = 0; j < d; ++j) z += weights_[j] * x[j];
      const double error = sigmoid(z) - data.label(i);
      for (unsigned j = 0; j < d; ++j) gradient[j] += error * x[j];
      intercept_gradient += error;
    }

    const double scale = 1.0 / static_cast<double>(n);
    double norm = 0.0;
    for (unsigned j = 0; j < d; ++j) {
      const double g = gradient[j] * scale + config_.l2 * weights_[j];
      weights_[j] -= config_.learning_rate * g;
      norm += g * g;
    }
    intercept_ -= config_.learning_rate * intercept_gradient * scale;
    norm += (intercept_gradient * scale) * (intercept_gradient * scale);
    if (std::sqrt(norm) < config_.tolerance) break;
  }
}

void LogisticRegression::fit_sgd(const FeatureSource& data) {
  const std::size_t n = data.size();
  const unsigned d = data.dim();
  Rng rng(config_.seed);
  std::vector<float> scratch(d);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});

  for (unsigned epoch = 0; epoch < config_.max_iterations; ++epoch) {
    // Shuffle per epoch, as SGDClassifier does.
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_bounded(i)]);
    }
    const double lr = config_.sgd_learning_rate /
                      (1.0 + 0.1 * static_cast<double>(epoch));
    for (std::size_t idx : order) {
      const float* x = data.row(idx, scratch.data());
      double z = intercept_;
      for (unsigned j = 0; j < d; ++j) z += weights_[j] * x[j];
      const double error = sigmoid(z) - data.label(idx);
      for (unsigned j = 0; j < d; ++j) {
        weights_[j] -= lr * (error * x[j] + config_.l2 * weights_[j]);
      }
      intercept_ -= lr * error;
    }
  }
}

float LogisticRegression::predict_probability(const float* features) const {
  double z = intercept_;
  for (std::size_t j = 0; j < weights_.size(); ++j) {
    z += weights_[j] * features[j];
  }
  return static_cast<float>(sigmoid(z));
}

std::vector<float> LogisticRegression::predict(
    const FeatureSource& data) const {
  std::vector<float> scores(data.size());
  ParallelForOptions options;
  options.grain = 1024;
  std::vector<std::vector<float>> scratch(effective_threads(options),
                                          std::vector<float>(data.dim()));
  parallel_for_worker(
      data.size(),
      [&](unsigned worker, std::size_t begin, std::size_t end) {
        float* row = scratch[worker].data();
        for (std::size_t i = begin; i < end; ++i) {
          scores[i] = predict_probability(data.row(i, row));
        }
      },
      options);
  return scores;
}

}  // namespace gosh::eval
