// Cross-module integration: the full paper pipeline at miniature scale,
// driven end to end through the gosh::api facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "gosh/api/api.hpp"

namespace gosh {
namespace {

api::Options device_options(std::size_t bytes) {
  api::Options options;
  options.device.memory_bytes = bytes;
  options.device.workers = 2;
  return options;
}

api::EmbedResult must_embed(const graph::Graph& g,
                            const api::Options& options) {
  auto result = api::embed(g, options);
  EXPECT_TRUE(result.ok()) << result.status().to_string();
  return std::move(result).value();
}

TEST(EndToEnd, DatasetRegistryCoversTable2) {
  const auto specs = graph::table2_datasets();
  ASSERT_EQ(specs.size(), 12u);
  int large = 0;
  for (const auto& spec : specs) large += spec.large_scale;
  EXPECT_EQ(large, 4);  // hyperlink2012, soc-sinaweibo, twitter_rv, friendster
  // Every analog preserves its paper density within 2x (dedup losses).
  for (const auto& spec : specs) {
    const auto g = graph::generate_dataset(
        graph::find_dataset(spec.name, 10, 11));  // small scale for speed
    const double analog_density =
        static_cast<double>(g.num_edges_undirected()) / g.num_vertices();
    EXPECT_GT(analog_density, spec.paper_density * 0.3) << spec.name;
    EXPECT_LT(analog_density, spec.paper_density * 2.0) << spec.name;
  }
}

TEST(EndToEnd, GoshBeatsRandomAndApproachesVerse) {
  // The Table 6 shape at miniature scale: GOSH (coarsened, device) and
  // VERSE (CPU) should land in the same AUC band, both far above chance.
  graph::LfrParams params;
  params.average_degree = 14.0;
  params.communities = 32;
  const auto g = graph::lfr_like(2048, params, 91);
  const auto split = graph::split_for_link_prediction(g, {.seed = 7});

  api::Options gosh_options = device_options(64u << 20);
  gosh_options.backend = "device";
  gosh_options.train().dim = 32;
  gosh_options.gosh.total_epochs = 300;
  const auto gosh_result = must_embed(split.train, gosh_options);
  const auto gosh_report =
      eval::evaluate_link_prediction(gosh_result.embedding, split);

  api::Options verse_options = device_options(64u << 20);
  verse_options.backend = "verse-cpu";
  verse_options.train().dim = 32;
  verse_options.gosh.total_epochs = 300;
  verse_options.verse_similarity = "adjacency";
  verse_options.verse_learning_rate = 0.025f;
  const auto verse_result = must_embed(split.train, verse_options);
  const auto verse_report =
      eval::evaluate_link_prediction(verse_result.embedding, split);

  EXPECT_GT(gosh_report.auc_roc, 0.8);
  EXPECT_GT(verse_report.auc_roc, 0.8);
  EXPECT_NEAR(gosh_report.auc_roc, verse_report.auc_roc, 0.1);
}

TEST(EndToEnd, LargeGraphPathMatchesResidentQuality) {
  // Same graph, two device sizes: one fits everything, one forces
  // Algorithm 5. AUCROC must land in the same band (the paper's claim
  // that partitioned training is "almost equivalent").
  graph::LfrParams params;
  params.average_degree = 14.0;
  params.communities = 32;
  const auto g = graph::lfr_like(2048, params, 92);
  const auto split = graph::split_for_link_prediction(g, {.seed = 8});

  auto run = [&](std::size_t device_bytes) {
    api::Options options = device_options(device_bytes);
    options.backend = "auto";  // the fits-check picks the engine
    options.train().dim = 32;
    options.gosh.total_epochs = 300;
    const auto result = must_embed(split.train, options);
    return eval::evaluate_link_prediction(result.embedding, split).auc_roc;
  };

  const double resident = run(64u << 20);
  const double partitioned = run(220u << 10);  // ~1/6 of the matrix fits
  EXPECT_GT(partitioned, 0.75);
  EXPECT_NEAR(resident, partitioned, 0.12);
}

TEST(EndToEnd, CoarseningSpeedsUpAtSimilarQuality) {
  // Figure 4's core claim in miniature: with equal epoch budgets, the
  // multilevel run needs less wall time than the flat run because most
  // epochs land on tiny graphs — while staying in the same quality band.
  graph::LfrParams params;
  params.average_degree = 18.0;
  params.communities = 64;
  const auto g = graph::lfr_like(4096, params, 93);
  const auto split = graph::split_for_link_prediction(g, {.seed = 9});

  auto run = [&](bool coarsen, double* auc) {
    api::Options options = device_options(128u << 20);
    options.backend = "device";
    if (!coarsen) {
      EXPECT_TRUE(options.set("preset", "nocoarse").is_ok());
    }
    options.train().dim = 32;
    options.gosh.total_epochs = 200;
    const auto result = must_embed(split.train, options);
    *auc = eval::evaluate_link_prediction(result.embedding, split).auc_roc;
    return result.total_seconds;
  };

  // Interleaved pairs, compared by median: a load burst from other test
  // processes (ctest -j) then hits both arms alike instead of deciding a
  // single coarse-vs-flat race.
  constexpr int kPairs = 3;
  std::vector<double> coarse_times, flat_times, coarse_aucs, flat_aucs;
  for (int pair = 0; pair < kPairs; ++pair) {
    double auc = 0.0;
    coarse_times.push_back(run(true, &auc));
    coarse_aucs.push_back(auc);
    flat_times.push_back(run(false, &auc));
    flat_aucs.push_back(auc);
  }
  const auto median = [](std::vector<double> values) {
    std::nth_element(values.begin(), values.begin() + values.size() / 2,
                     values.end());
    return values[values.size() / 2];
  };
  const double coarse_time = median(coarse_times);
  const double flat_time = median(flat_times);
  const double coarse_auc = median(coarse_aucs);
  const double flat_auc = median(flat_aucs);
  EXPECT_LT(coarse_time, flat_time);
  EXPECT_GT(coarse_auc, flat_auc - 0.1);
}

}  // namespace
}  // namespace gosh
