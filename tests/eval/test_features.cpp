// Negative-edge sampling and feature construction details.
#include <gtest/gtest.h>

#include <set>

#include "gosh/eval/features.hpp"
#include "gosh/graph/generators.hpp"
#include "gosh/graph/ops.hpp"

namespace gosh::eval {
namespace {

TEST(NegativeSampling, DeterministicInSeed) {
  const auto g = graph::erdos_renyi(100, 500, 1);
  EXPECT_EQ(sample_negative_edges(g, 200, 7),
            sample_negative_edges(g, 200, 7));
  EXPECT_NE(sample_negative_edges(g, 200, 7),
            sample_negative_edges(g, 200, 8));
}

TEST(NegativeSampling, ExhaustsSparseComplement) {
  // Nearly-complete graph: only a handful of non-edges exist; sampling a
  // few of them must terminate and produce valid non-edges.
  auto g = graph::complete_graph(12);
  // Remove 3 edges by rebuilding without them.
  auto edges = graph::undirected_edges(g);
  edges.resize(edges.size() - 3);
  g = graph::build_csr(12, std::move(edges));
  const auto negatives = sample_negative_edges(g, 3, 5);
  EXPECT_EQ(negatives.size(), 3u);
  for (const auto& [u, v] : negatives) {
    EXPECT_FALSE(graph::has_arc(g, u, v));
  }
}

TEST(NegativeSampling, ReturnsEveryNonEdgeWhenTooFewExist) {
  // Complete graph minus 2 edges holds exactly 2 non-edges; asking for 5
  // used to loop forever once the sampler ran out (it did, on K2 asked for
  // 1). Now each non-edge comes back once.
  auto edges = graph::undirected_edges(graph::complete_graph(10));
  const graph::Edge missing_a = edges[3];
  const graph::Edge missing_b = edges[17];
  edges.erase(edges.begin() + 17);
  edges.erase(edges.begin() + 3);
  const auto g = graph::build_csr(10, std::move(edges));
  EXPECT_EQ(sample_negative_edges(g, 5, 1),
            (std::vector<graph::Edge>{missing_a, missing_b}));
}

TEST(NegativeSampling, NoNonEdgeGivesEmpty) {
  EXPECT_TRUE(sample_negative_edges(graph::complete_graph(2), 1, 1).empty());
  EXPECT_TRUE(sample_negative_edges(graph::complete_graph(6), 4, 1).empty());
}

TEST(NegativeSampling, ExtraExclusionsCountAgainstTheSupply) {
  // 3 non-edges, one of them excluded: the other 2 come back, once each.
  auto edges = graph::undirected_edges(graph::complete_graph(8));
  const graph::Edge a = edges[1], b = edges[5], c = edges[9];
  edges.erase(edges.begin() + 9);
  edges.erase(edges.begin() + 5);
  edges.erase(edges.begin() + 1);
  const auto g = graph::build_csr(8, std::move(edges));
  const graph::Edge reversed_b{b.second, b.first};
  EXPECT_EQ(sample_negative_edges(g, 3, 2, {reversed_b}),
            (std::vector<graph::Edge>{a, c}));
}

TEST(NegativeSampling, ZeroCountIsEmpty) {
  const auto g = graph::cycle_graph(10);
  EXPECT_TRUE(sample_negative_edges(g, 0, 1).empty());
}

TEST(Features, LabelLayoutPositivesFirst) {
  embedding::EmbeddingMatrix m(4, 2);
  m.initialize_random(1);
  const auto set =
      build_edge_features(m, {{0, 1}, {1, 2}}, {{2, 3}});
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set.labels[0], 1);
  EXPECT_EQ(set.labels[1], 1);
  EXPECT_EQ(set.labels[2], 0);
}

TEST(Features, EmptyInputsGiveEmptySet) {
  embedding::EmbeddingMatrix m(4, 2);
  const auto set = build_edge_features(m, {}, {});
  EXPECT_EQ(set.size(), 0u);
}

TEST(Features, RowPointersIndexCorrectly) {
  embedding::EmbeddingMatrix m(3, 3);
  for (vid_t v = 0; v < 3; ++v) {
    for (unsigned j = 0; j < 3; ++j) {
      m.row(v)[j] = static_cast<float>(v * 10 + j);
    }
  }
  const auto set = build_edge_features(m, {{0, 1}}, {{1, 2}});
  float row0[3], row1[3];
  set.row(0, row0);
  set.row(1, row1);
  // row 0: m[0] * m[1] = [0*10, 1*11, 2*12]
  EXPECT_FLOAT_EQ(row0[0], 0.0f);
  EXPECT_FLOAT_EQ(row0[1], 11.0f);
  EXPECT_FLOAT_EQ(row0[2], 24.0f);
  // row 1: m[1] * m[2] = [10*20, 11*21, 12*22]
  EXPECT_FLOAT_EQ(row1[0], 200.0f);
  EXPECT_FLOAT_EQ(row1[1], 231.0f);
  EXPECT_FLOAT_EQ(row1[2], 264.0f);
}

}  // namespace
}  // namespace gosh::eval
