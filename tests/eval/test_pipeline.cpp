// Link-prediction and node-classification pipelines end to end.
#include <gtest/gtest.h>

#include "gosh/api/api.hpp"

namespace gosh::eval {
namespace {

TEST(NegativeSampling, AvoidsEdgesAndSelfPairs) {
  const auto g = graph::erdos_renyi(200, 2000, 51);
  const auto negatives = sample_negative_edges(g, 500, 1);
  EXPECT_EQ(negatives.size(), 500u);
  for (const auto& [u, v] : negatives) {
    EXPECT_NE(u, v);
    EXPECT_FALSE(graph::has_arc(g, u, v));
  }
}

TEST(NegativeSampling, RespectsExtraExclusions) {
  const auto g = graph::erdos_renyi(100, 200, 52);
  std::vector<graph::Edge> exclude;
  for (vid_t u = 0; u < 50; ++u) {
    for (vid_t v = 50; v < 100; ++v) exclude.emplace_back(u, v);
  }
  // Only pairs inside [0,50) or [50,100) remain eligible.
  const auto negatives = sample_negative_edges(g, 300, 2, exclude);
  for (const auto& [u, v] : negatives) {
    EXPECT_EQ(u < 50, v < 50) << u << "," << v;
  }
}

TEST(Features, HadamardProducts) {
  embedding::EmbeddingMatrix m(3, 2);
  m.row(0)[0] = 1.0f; m.row(0)[1] = 2.0f;
  m.row(1)[0] = 3.0f; m.row(1)[1] = -1.0f;
  m.row(2)[0] = 0.5f; m.row(2)[1] = 4.0f;
  const auto set = build_edge_features(m, {{0, 1}}, {{1, 2}});
  ASSERT_EQ(set.size(), 2u);
  float row0[2], row1[2];
  set.row(0, row0);
  set.row(1, row1);
  EXPECT_FLOAT_EQ(row0[0], 3.0f);
  EXPECT_FLOAT_EQ(row0[1], -2.0f);
  EXPECT_EQ(set.labels[0], 1);
  EXPECT_FLOAT_EQ(row1[0], 1.5f);
  EXPECT_FLOAT_EQ(row1[1], -4.0f);
  EXPECT_EQ(set.labels[1], 0);
}

TEST(LinkPrediction, GoodEmbeddingScoresHighAuc) {
  // Full pipeline at miniature scale: LFR community graph (the learnable
  // structure real social graphs have), 80/20 split, GOSH embedding,
  // logistic regression. The bar (0.8) is well above chance and robust
  // at this size (typical result ~0.9).
  graph::LfrParams params;
  params.average_degree = 12.0;
  params.communities = 32;
  const auto g = graph::lfr_like(2048, params, 53);
  const auto split = graph::split_for_link_prediction(g, {.seed = 3});

  api::Options options;
  options.backend = "device";
  options.device.memory_bytes = 64u << 20;
  options.device.workers = 2;
  options.train().dim = 32;
  options.gosh.total_epochs = 300;
  auto result = api::embed(split.train, options);
  ASSERT_TRUE(result.ok()) << result.status().to_string();

  const auto report =
      evaluate_link_prediction(result.value().embedding, split);
  EXPECT_GT(report.auc_roc, 0.8);
  EXPECT_GT(report.train_samples, 0u);
  EXPECT_GT(report.test_samples, 0u);
}

TEST(LinkPrediction, RandomEmbeddingIsChance) {
  const auto g = graph::rmat(10, 6000, 54);
  const auto split = graph::split_for_link_prediction(g, {.seed = 4});
  embedding::EmbeddingMatrix random_matrix(split.train.num_vertices(), 16);
  random_matrix.initialize_random(5);
  const auto report = evaluate_link_prediction(random_matrix, split);
  EXPECT_NEAR(report.auc_roc, 0.5, 0.1);
}

TEST(LinkPrediction, MaxTrainEdgesCapsWork) {
  const auto g = graph::rmat(10, 6000, 55);
  const auto split = graph::split_for_link_prediction(g, {.seed = 5});
  embedding::EmbeddingMatrix m(split.train.num_vertices(), 8);
  m.initialize_random(6);
  LinkPredictionOptions options;
  options.max_train_edges = 100;
  const auto report = evaluate_link_prediction(m, split, options);
  EXPECT_EQ(report.train_samples, 200u);  // positives + negatives
}

TEST(NodeClassification, SeparableCommunities) {
  // Two cliques, labels = clique id; embeddings trained by GOSH should
  // classify almost perfectly.
  const vid_t clique = 16;
  std::vector<graph::Edge> edges;
  for (vid_t u = 0; u < clique; ++u) {
    for (vid_t v = u + 1; v < clique; ++v) {
      edges.emplace_back(u, v);
      edges.emplace_back(clique + u, clique + v);
    }
  }
  edges.emplace_back(0, clique);
  const auto g = graph::build_csr(2 * clique, std::move(edges));

  api::Options options;
  options.backend = "device";
  options.device.memory_bytes = 16u << 20;
  options.device.workers = 2;
  options.train().dim = 16;
  options.train().learning_rate = 0.05f;
  options.gosh.total_epochs = 300;
  options.gosh.coarsening.threshold = 4;
  auto result = api::embed(g, options);
  ASSERT_TRUE(result.ok()) << result.status().to_string();

  std::vector<unsigned> labels(2 * clique);
  for (vid_t v = 0; v < 2 * clique; ++v) labels[v] = v < clique ? 0 : 1;
  const auto report =
      evaluate_node_classification(result.value().embedding, labels);
  EXPECT_EQ(report.classes, 2u);
  EXPECT_GT(report.accuracy, 0.8);
}

}  // namespace
}  // namespace gosh::eval
