// LINE-on-device (GraphVite stand-in) through the gosh::api facade
// ("line-device" backend): learning and the single-GPU memory limitation
// surfacing as an out_of_memory Status.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "gosh/api/api.hpp"
#include "gosh/baselines/line_device.hpp"
#include "gosh/simt/device.hpp"

namespace gosh {
namespace {

api::Options line_options(std::size_t device_bytes, unsigned dim,
                          unsigned epochs) {
  api::Options options;
  options.backend = "line-device";
  options.train().dim = dim;
  options.gosh.total_epochs = epochs;
  options.device.memory_bytes = device_bytes;
  options.device.workers = 2;
  return options;
}

TEST(LineDevice, ProducesFiniteEmbedding) {
  auto result =
      api::embed(graph::rmat(9, 2000, 81), line_options(32u << 20, 16, 10));
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const embedding::EmbeddingMatrix& m = result.value().embedding;
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_TRUE(std::isfinite(m.data()[i]));
  }
}

TEST(LineDevice, LearnsCommunities) {
  const vid_t clique = 8;
  std::vector<graph::Edge> edges;
  for (vid_t u = 0; u < clique; ++u) {
    for (vid_t v = u + 1; v < clique; ++v) {
      edges.emplace_back(u, v);
      edges.emplace_back(clique + u, clique + v);
    }
  }
  edges.emplace_back(0, clique);
  const auto g = graph::build_csr(2 * clique, std::move(edges));

  api::Options options = line_options(16u << 20, 16, 600);
  options.train().learning_rate = 0.05f;
  auto result = api::embed(g, options);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const embedding::EmbeddingMatrix& m = result.value().embedding;

  float intra = 0.0f, inter = 0.0f;
  int intra_n = 0, inter_n = 0;
  for (vid_t u = 0; u < 2 * clique; ++u) {
    for (vid_t v = u + 1; v < 2 * clique; ++v) {
      const float d =
          embedding::dot(m.row(u).data(), m.row(v).data(), m.dim());
      if ((u < clique) == (v < clique)) {
        intra += d;
        intra_n++;
      } else {
        inter += d;
        inter_n++;
      }
    }
  }
  EXPECT_GT(intra / intra_n - inter / inter_n, 0.05f);
}

TEST(LineDevice, SelfSamplesLeaveLoneVertexUntouched) {
  // One vertex with a self-loop: every positive and every negative is the
  // source itself. Self-samples must be skipped: the kernel would update
  // the global row underneath its staged copy only for the writeback to
  // clobber it, so the row must come back bit-identical to its seed.
  graph::BuildOptions build;
  build.remove_self_loops = false;
  const graph::Graph g =
      graph::build_csr(1, std::vector<graph::Edge>{{0, 0}}, build);
  ASSERT_EQ(g.num_arcs(), 1u);
  simt::DeviceConfig device_config;
  device_config.memory_bytes = 16u << 20;
  device_config.workers = 2;
  simt::Device device(device_config);
  baselines::LineConfig config;
  config.dim = 8;
  config.epochs = 20;
  const embedding::EmbeddingMatrix trained =
      baselines::line_device_embed(g, device, config);
  embedding::EmbeddingMatrix seeded(1, config.dim);
  seeded.initialize_random(config.seed);
  for (std::size_t i = 0; i < seeded.size(); ++i) {
    EXPECT_EQ(trained.data()[i], seeded.data()[i]) << "element " << i;
  }
}

TEST(LineDevice, OutOfMemoryLikeGraphvite) {
  // The Table 7 behaviour: when matrix+graph exceed device memory the
  // backend fails with an out_of_memory Status instead of partitioning.
  const auto g = graph::rmat(11, 10000, 82);
  api::Options options = line_options(64u << 10, 64, 10);  // 64 KiB device
  options.device.workers = 1;
  auto result = api::embed(g, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), api::StatusCode::kOutOfMemory);
}

}  // namespace
}  // namespace gosh
