// On-demand Hadamard features against a materialized reference: the rows a
// sample set computes, and every score and AUCROC the solvers derive from
// them, must match a dense feature block bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "eval/dense_features.hpp"
#include "gosh/common/rng.hpp"
#include "gosh/eval/aucroc.hpp"
#include "gosh/eval/logreg.hpp"
#include "gosh/eval/pipeline.hpp"
#include "gosh/graph/generators.hpp"
#include "gosh/graph/split.hpp"

namespace gosh::eval {
namespace {

using testing_util::DenseFeatures;

/// The Hadamard rows of `edges`, computed here rather than by the library.
DenseFeatures hadamard_block(const embedding::EmbeddingMatrix& m,
                             const std::vector<graph::Edge>& positives,
                             const std::vector<graph::Edge>& negatives) {
  DenseFeatures dense;
  dense.width = m.dim();
  auto emit = [&](const graph::Edge& edge, uint8_t label) {
    const auto a = m.row(edge.first);
    const auto b = m.row(edge.second);
    for (unsigned j = 0; j < m.dim(); ++j) dense.features.push_back(a[j] * b[j]);
    dense.labels.push_back(label);
  };
  for (const auto& edge : positives) emit(edge, 1);
  for (const auto& edge : negatives) emit(edge, 0);
  return dense;
}

/// The solvers as they ran over a materialized block: same arithmetic,
/// same visiting order, same shuffle.
struct ReferenceModel {
  std::vector<double> weights;
  double intercept = 0.0;

  static double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

  void fit(const DenseFeatures& data, const LogRegConfig& config) {
    const std::size_t n = data.size();
    const unsigned d = data.width;
    weights.assign(d, 0.0);
    intercept = 0.0;
    auto x_of = [&](std::size_t i) { return data.features.data() + i * d; };
    if (config.solver == LogRegConfig::Solver::kBatch) {
      std::vector<double> gradient(d);
      for (unsigned iter = 0; iter < config.max_iterations; ++iter) {
        std::fill(gradient.begin(), gradient.end(), 0.0);
        double intercept_gradient = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const float* x = x_of(i);
          double z = intercept;
          for (unsigned j = 0; j < d; ++j) z += weights[j] * x[j];
          const double error = sigmoid(z) - data.labels[i];
          for (unsigned j = 0; j < d; ++j) gradient[j] += error * x[j];
          intercept_gradient += error;
        }
        const double scale = 1.0 / static_cast<double>(n);
        double norm = 0.0;
        for (unsigned j = 0; j < d; ++j) {
          const double g = gradient[j] * scale + config.l2 * weights[j];
          weights[j] -= config.learning_rate * g;
          norm += g * g;
        }
        intercept -= config.learning_rate * intercept_gradient * scale;
        norm += (intercept_gradient * scale) * (intercept_gradient * scale);
        if (std::sqrt(norm) < config.tolerance) break;
      }
      return;
    }
    Rng rng(config.seed);
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (unsigned epoch = 0; epoch < config.max_iterations; ++epoch) {
      for (std::size_t i = n; i > 1; --i) {
        std::swap(order[i - 1], order[rng.next_bounded(i)]);
      }
      const double lr =
          config.sgd_learning_rate / (1.0 + 0.1 * static_cast<double>(epoch));
      for (std::size_t idx : order) {
        const float* x = x_of(idx);
        double z = intercept;
        for (unsigned j = 0; j < d; ++j) z += weights[j] * x[j];
        const double error = sigmoid(z) - data.labels[idx];
        for (unsigned j = 0; j < d; ++j) {
          weights[j] -= lr * (error * x[j] + config.l2 * weights[j]);
        }
        intercept -= lr * error;
      }
    }
  }

  std::vector<float> predict(const DenseFeatures& data) const {
    std::vector<float> scores(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      const float* x = data.features.data() + i * data.width;
      double z = intercept;
      for (std::size_t j = 0; j < weights.size(); ++j) z += weights[j] * x[j];
      scores[i] = static_cast<float>(sigmoid(z));
    }
    return scores;
  }
};

struct Fixture {
  graph::LinkPredictionSplit split;
  embedding::EmbeddingMatrix matrix;
  std::vector<graph::Edge> train_positives, train_negatives;
  std::vector<graph::Edge> test_negatives;
};

/// A seeded random graph, split and matrix, with the sample edges
/// evaluate_link_prediction draws under default options.
Fixture make_fixture() {
  Fixture f;
  f.split = graph::split_for_link_prediction(graph::erdos_renyi(400, 3000, 61),
                                             {.seed = 62});
  // Unit-scale entries, so the fitted weights are far from zero and any
  // change in how the products are formed or summed shows in the bits.
  f.matrix = embedding::EmbeddingMatrix(f.split.train.num_vertices(), 24);
  Rng rng(63);
  for (vid_t v = 0; v < f.matrix.rows(); ++v) {
    for (float& value : f.matrix.row(v)) value = rng.next_float() * 2.0f - 1.0f;
  }
  const LinkPredictionOptions defaults;
  f.train_positives = graph::undirected_edges(f.split.train);
  f.train_negatives = sample_negative_edges(
      f.split.train, f.train_positives.size(), defaults.negative_seed);
  f.test_negatives = sample_negative_edges(
      f.split.train, f.split.test_edges.size(), defaults.negative_seed + 1,
      f.split.test_edges);
  return f;
}

void expect_bitwise_equal(const std::vector<float>& a,
                          const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]))
        << "sample " << i;
  }
}

TEST(OnDemandFeatures, RowsEqualHadamardProductsBitForBit) {
  const Fixture f = make_fixture();
  const EdgeFeatureSet set =
      build_edge_features(f.matrix, f.train_positives, f.train_negatives);
  const DenseFeatures reference =
      hadamard_block(f.matrix, f.train_positives, f.train_negatives);
  ASSERT_EQ(set.size(), reference.size());
  ASSERT_EQ(set.dim(), reference.dim());

  std::vector<float> scratch(set.dim());
  std::vector<float> on_demand, materialized;
  for (std::size_t i = 0; i < set.size(); ++i) {
    ASSERT_EQ(set.label(i), reference.label(i)) << "sample " << i;
    const float* row = set.row(i, scratch.data());
    const float* expected = reference.row(i, nullptr);
    on_demand.insert(on_demand.end(), row, row + set.dim());
    materialized.insert(materialized.end(), expected, expected + set.dim());
  }
  expect_bitwise_equal(on_demand, materialized);
}

class OnDemandSolverTest
    : public ::testing::TestWithParam<LogRegConfig::Solver> {};

TEST_P(OnDemandSolverTest, ScoresAndAucMatchMaterializedReference) {
  const Fixture f = make_fixture();
  LinkPredictionOptions options;
  options.logreg.solver = GetParam();
  options.logreg.max_iterations =
      GetParam() == LogRegConfig::Solver::kSgd ? 10 : 200;
  options.logreg.tolerance = 0.0;  // batch: run every step, no early stop

  // Reference: the dense blocks and the solver as it ran over them.
  const DenseFeatures dense_train =
      hadamard_block(f.matrix, f.train_positives, f.train_negatives);
  const DenseFeatures dense_test =
      hadamard_block(f.matrix, f.split.test_edges, f.test_negatives);
  ReferenceModel reference;
  reference.fit(dense_train, options.logreg);
  const std::vector<float> expected_scores = reference.predict(dense_test);
  const double expected_auc = auc_roc(expected_scores, dense_test.labels);

  // On demand: the library's sample sets and solver.
  LogisticRegression model(options.logreg);
  model.fit(
      build_edge_features(f.matrix, f.train_positives, f.train_negatives));
  ASSERT_EQ(model.weights().size(), reference.weights.size());
  for (std::size_t j = 0; j < reference.weights.size(); ++j) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(model.weights()[j]),
              std::bit_cast<std::uint64_t>(reference.weights[j]))
        << "weight " << j;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(model.intercept()),
            std::bit_cast<std::uint64_t>(reference.intercept));
  const EdgeFeatureSet test_set =
      build_edge_features(f.matrix, f.split.test_edges, f.test_negatives);
  expect_bitwise_equal(model.predict(test_set), expected_scores);

  // The pipeline draws the same samples, so it reports the same AUCROC.
  const LinkPredictionReport report =
      evaluate_link_prediction(f.matrix, f.split, options);
  EXPECT_EQ(report.train_samples, dense_train.size());
  EXPECT_EQ(report.test_samples, dense_test.size());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(report.auc_roc),
            std::bit_cast<std::uint64_t>(expected_auc));
}

INSTANTIATE_TEST_SUITE_P(Solvers, OnDemandSolverTest,
                         ::testing::Values(LogRegConfig::Solver::kBatch,
                                           LogRegConfig::Solver::kSgd),
                         [](const auto& info) {
                           return info.param == LogRegConfig::Solver::kBatch
                                      ? std::string("Batch")
                                      : std::string("Sgd");
                         });

}  // namespace
}  // namespace gosh::eval
