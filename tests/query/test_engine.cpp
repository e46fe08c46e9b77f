// QueryEngine construction validation (degenerate QueryEngineOptions must
// be kInvalidArgument, not a silent empty scan) and the strategy parser's
// name-enumerating errors.
#include <gtest/gtest.h>

#include <string>

#include "common/temp_path.hpp"
#include "gosh/query/engine.hpp"

namespace gosh::query {
namespace {

struct Fixture {
  store::EmbeddingStore store;
  testing_util::TempPath path{"engine_options.gshs"};

  explicit Fixture(vid_t rows = 32, unsigned dim = 8) {
    embedding::EmbeddingMatrix matrix(rows, dim);
    matrix.initialize_random(7);
    EXPECT_TRUE(store::EmbeddingStore::write(matrix, path).is_ok());
    auto opened = store::EmbeddingStore::open(path);
    EXPECT_TRUE(opened.ok()) << opened.status().to_string();
    store = std::move(opened).value();
  }
};

TEST(QueryEngineValidation, DefaultOptionsAreValid) {
  EXPECT_TRUE(QueryEngineOptions{}.validate().is_ok());
  Fixture fx;
  auto engine = QueryEngine::create(std::move(fx.store));
  ASSERT_TRUE(engine.ok()) << engine.status().to_string();
  EXPECT_EQ(engine.value().rows(), 32u);
}

TEST(QueryEngineValidation, ZeroBlockRowsIsInvalidArgument) {
  Fixture fx;
  QueryEngineOptions options;
  options.block_rows = 0;
  EXPECT_EQ(options.validate().code(), api::StatusCode::kInvalidArgument);
  auto engine = QueryEngine::create(std::move(fx.store), options);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), api::StatusCode::kInvalidArgument);
  EXPECT_NE(engine.status().message().find("block_rows"), std::string::npos);
}

TEST(QueryEngineValidation, ZeroEfSearchIsInvalidArgument) {
  Fixture fx;
  QueryEngineOptions options;
  options.ef_search = 0;
  auto engine = QueryEngine::create(std::move(fx.store), options);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), api::StatusCode::kInvalidArgument);
  EXPECT_NE(engine.status().message().find("ef_search"), std::string::npos);
}

TEST(QueryEngineValidation, AbsurdThreadCountIsInvalidArgument) {
  QueryEngineOptions options;
  options.threads = 100000;
  EXPECT_EQ(options.validate().code(), api::StatusCode::kInvalidArgument);
}

TEST(QueryEngineValidation, CreatedEngineAnswersQueries) {
  Fixture fx;
  QueryEngineOptions options;
  options.metric = Metric::kL2;
  auto engine = QueryEngine::create(std::move(fx.store), options);
  ASSERT_TRUE(engine.ok());
  auto top = engine.value().top_k_vertex(3, 5);
  ASSERT_TRUE(top.ok()) << top.status().to_string();
  EXPECT_EQ(top.value().size(), 5u);
}

TEST(QueryEngineValidation, ParseStrategyEnumeratesValidNames) {
  auto bogus = parse_strategy("simd");
  ASSERT_FALSE(bogus.ok());
  EXPECT_EQ(bogus.status().code(), api::StatusCode::kInvalidArgument);
  // The message must name every valid strategy, BackendRegistry-style.
  EXPECT_NE(bogus.status().message().find("exact"), std::string::npos);
  EXPECT_NE(bogus.status().message().find("hnsw"), std::string::npos);
  EXPECT_NE(bogus.status().message().find("'simd'"), std::string::npos);
}

TEST(QueryEngineValidation, ParseAggregateEnumeratesValidNames) {
  EXPECT_EQ(parse_aggregate("max").value(), Aggregate::kMax);
  EXPECT_EQ(parse_aggregate("mean").value(), Aggregate::kMean);
  auto bogus = parse_aggregate("median");
  ASSERT_FALSE(bogus.ok());
  EXPECT_NE(bogus.status().message().find("max"), std::string::npos);
  EXPECT_NE(bogus.status().message().find("mean"), std::string::npos);
}

}  // namespace
}  // namespace gosh::query
