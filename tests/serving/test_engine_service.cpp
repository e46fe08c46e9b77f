// EngineService, the one engine layer under every serving strategy:
// construction validation (degenerate engine shapes in ServeOptions are
// kInvalidArgument, not a silent empty scan), argument and index checks,
// the strategy parser's name-enumerating errors, and the BatchQueue
// serving loop over the engine's score() path. The QueryEngine* suite
// names are those of the engine class these checks first covered. The
// multi-threaded smoke tests here run under the ThreadSanitizer CI job.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/temp_path.hpp"
#include "gosh/query/batch_queue.hpp"
#include "gosh/serving/registry.hpp"
#include "gosh/serving/service.hpp"

namespace gosh::serving {
namespace {

using query::BatchQueue;
using query::HnswIndex;

/// One single-shard store of random rows; options() names it.
struct Fixture {
  testing_util::TempPath path{"engine_service.gshs"};

  explicit Fixture(vid_t rows = 32, unsigned dim = 8,
                   std::uint64_t seed = 7) {
    embedding::EmbeddingMatrix matrix(rows, dim);
    matrix.initialize_random(seed);
    EXPECT_TRUE(store::EmbeddingStore::write(matrix, path).is_ok());
  }

  ServeOptions options() const {
    ServeOptions serve;
    serve.store_path = path;
    return serve;
  }

  std::unique_ptr<EngineService> engine(
      const ServeOptions& serve, Strategy strategy = Strategy::kExact) const {
    auto opened = store::EmbeddingStore::open(path);
    EXPECT_TRUE(opened.ok()) << opened.status().to_string();
    if (!opened.ok()) return nullptr;
    auto created =
        EngineService::create(std::move(opened).value(), strategy, serve);
    EXPECT_TRUE(created.ok()) << created.status().to_string();
    return created.ok() ? std::move(created).value() : nullptr;
  }
  std::unique_ptr<EngineService> engine() const { return engine(options()); }
};

/// The batched strategy's scorer: the engine's unmetered score() path
/// with one vector per query.
query::BatchScorer scorer_of(const EngineService& engine) {
  return [&engine](std::span<const float> queries, std::size_t count,
                   unsigned k) {
    const std::vector<std::size_t> ones(count, 1);
    return engine.score(queries, ones, k, /*ef=*/64, engine.default_metric(),
                        Aggregate::kMax, RowFilter{});
  };
}

std::vector<float> row_of(const EngineService& engine, vid_t v) {
  const auto row = engine.store().row(v);
  return {row.begin(), row.end()};
}

TEST(QueryEngineValidation, DefaultOptionsAreValid) {
  Fixture fx;
  EXPECT_TRUE(fx.options().validate().is_ok());
  auto engine = EngineService::open(fx.options(), Strategy::kExact);
  ASSERT_TRUE(engine.ok()) << engine.status().to_string();
  EXPECT_EQ(engine.value()->rows(), 32u);
}

TEST(QueryEngineValidation, ZeroBlockRowsIsInvalidArgument) {
  Fixture fx;
  ServeOptions options = fx.options();
  options.block_rows = 0;
  EXPECT_EQ(options.validate().code(), api::StatusCode::kInvalidArgument);
  auto engine = EngineService::open(options, Strategy::kExact);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), api::StatusCode::kInvalidArgument);
  EXPECT_NE(engine.status().message().find("block_rows"), std::string::npos);
}

TEST(QueryEngineValidation, ZeroEfSearchIsInvalidArgument) {
  Fixture fx;
  ServeOptions options = fx.options();
  options.ef_search = 0;
  auto opened = store::EmbeddingStore::open(fx.path);
  ASSERT_TRUE(opened.ok());
  auto engine = EngineService::create(std::move(opened).value(),
                                      Strategy::kHnsw, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), api::StatusCode::kInvalidArgument);
  EXPECT_NE(engine.status().message().find("ef_search"), std::string::npos);
}

TEST(QueryEngineValidation, AbsurdThreadCountIsInvalidArgument) {
  ServeOptions options;
  options.store_path = "s";
  options.threads = 100000;
  const api::Status status = options.validate();
  EXPECT_EQ(status.code(), api::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("threads"), std::string::npos);
}

TEST(QueryEngineValidation, CreatedEngineAnswersQueries) {
  Fixture fx;
  ServeOptions options = fx.options();
  options.metric = Metric::kL2;
  auto engine = fx.engine(options);
  ASSERT_NE(engine, nullptr);
  auto top = engine->top_k_vertex(3, 5);
  ASSERT_TRUE(top.ok()) << top.status().to_string();
  EXPECT_EQ(top.value().size(), 5u);
}

TEST(QueryEngineValidation, ParseStrategyEnumeratesValidNames) {
  EXPECT_EQ(parse_strategy("exact").value(), Strategy::kExact);
  EXPECT_EQ(parse_strategy("hnsw").value(), Strategy::kHnsw);
  auto bogus = parse_strategy("simd");
  ASSERT_FALSE(bogus.ok());
  EXPECT_EQ(bogus.status().code(), api::StatusCode::kInvalidArgument);
  // The message must name every valid strategy, BackendRegistry-style.
  EXPECT_NE(bogus.status().message().find("exact"), std::string::npos);
  EXPECT_NE(bogus.status().message().find("hnsw"), std::string::npos);
  EXPECT_NE(bogus.status().message().find("'simd'"), std::string::npos);
}

TEST(QueryEngineValidation, ParseAggregateEnumeratesValidNames) {
  EXPECT_EQ(query::parse_aggregate("max").value(), Aggregate::kMax);
  EXPECT_EQ(query::parse_aggregate("mean").value(), Aggregate::kMean);
  auto bogus = query::parse_aggregate("median");
  ASSERT_FALSE(bogus.ok());
  EXPECT_NE(bogus.status().message().find("max"), std::string::npos);
  EXPECT_NE(bogus.status().message().find("mean"), std::string::npos);
}

TEST(QueryEngine, RejectsBadArguments) {
  Fixture fx(128, 8, 23);
  auto engine = fx.engine();
  ASSERT_NE(engine, nullptr);
  const std::vector<float> query(engine->dim(), 0.5f);

  // k = 0 is refused both as a default and by the shared request check.
  ServeOptions zero_k = fx.options();
  zero_k.k = 0;
  EXPECT_EQ(EngineService::open(zero_k, Strategy::kExact).status().code(),
            api::StatusCode::kInvalidArgument);
  EXPECT_EQ(check_request(QueryRequest::for_vector(query), engine->rows(),
                          engine->dim(), 0)
                .code(),
            api::StatusCode::kInvalidArgument);
  const std::vector<float> short_query(engine->dim() - 1, 0.5f);
  EXPECT_EQ(engine->top_k(short_query, 5).status().code(),
            api::StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->top_k_vertex(engine->rows(), 5).status().code(),
            api::StatusCode::kInvalidArgument);
  // HNSW without an index is a diagnosed error, not a crash.
  auto unindexed = fx.engine(fx.options(), Strategy::kHnsw);
  ASSERT_NE(unindexed, nullptr);
  EXPECT_EQ(unindexed->top_k(query, 5).status().code(),
            api::StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->load_index("/nonexistent/index.hnsw").code(),
            api::StatusCode::kIoError);
}

TEST(QueryEngine, VertexQueriesExcludeTheProbeItself) {
  Fixture fx(128, 8, 23);
  auto engine = fx.engine();
  ASSERT_NE(engine, nullptr);
  auto top = engine->top_k_vertex(40, 10);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top.value().size(), 10u);
  for (const Neighbor& n : top.value()) EXPECT_NE(n.id, 40u);
}

TEST(QueryEngine, RejectsIndexBuiltForAnotherMetricOrStore) {
  Fixture fx(128, 8, 23);
  ServeOptions l2 = fx.options();
  l2.metric = Metric::kL2;
  auto engine = fx.engine(l2, Strategy::kHnsw);
  ASSERT_NE(engine, nullptr);
  const HnswIndex cosine_index = HnswIndex::build(
      engine->store(), {.M = 4, .metric = Metric::kCosine});
  EXPECT_EQ(engine->attach_index(cosine_index).code(),
            api::StatusCode::kInvalidArgument);

  // Shape mismatch: an index over a smaller store.
  embedding::EmbeddingMatrix tiny(10, 8);
  tiny.initialize_random(1);
  const testing_util::TempPath tiny_path("engine_service_tiny.gshs");
  ASSERT_TRUE(store::EmbeddingStore::write(tiny, tiny_path).is_ok());
  auto tiny_store = store::EmbeddingStore::open(tiny_path);
  ASSERT_TRUE(tiny_store.ok());
  const HnswIndex tiny_index =
      HnswIndex::build(tiny_store.value(), {.M = 4, .metric = Metric::kL2});
  EXPECT_EQ(engine->attach_index(tiny_index).code(),
            api::StatusCode::kInvalidArgument);
}

TEST(BatchQueue, ServesOneQueryLikeTheEngine) {
  Fixture fx(128, 8, 23);
  auto engine = fx.engine();
  ASSERT_NE(engine, nullptr);
  const std::vector<float> row = row_of(*engine, 7);
  auto direct = engine->top_k(row, 5);
  ASSERT_TRUE(direct.ok());

  MetricsRegistry metrics;
  MetricsQueryObserver observer(metrics);
  BatchQueue queue(engine->dim(), scorer_of(*engine),
                   {.max_batch = 8, .k = 5}, &observer);
  auto future = queue.submit(row);
  const auto served = future.get();
  ASSERT_EQ(served.size(), direct.value().size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].id, direct.value()[i].id);
    EXPECT_EQ(served[i].score, direct.value()[i].score);
  }
  queue.stop();
  EXPECT_EQ(metrics.counter("gosh_serving_batch_queries_total").value(), 1u);
  EXPECT_EQ(metrics.counter("gosh_serving_batches_total").value(), 1u);
  EXPECT_EQ(metrics.histogram("gosh_serving_request_latency_seconds").count(),
            1u);
}

TEST(BatchQueue, ConcurrentSubmittersAllGetCorrectAnswers) {
  Fixture fx(200, 6, 23);
  auto engine = fx.engine();
  ASSERT_NE(engine, nullptr);
  MetricsRegistry metrics;
  MetricsQueryObserver observer(metrics);
  BatchQueue queue(engine->dim(), scorer_of(*engine),
                   {.max_batch = 16, .k = 3}, &observer);

  constexpr unsigned kThreads = 4;
  constexpr unsigned kPerThread = 32;
  std::vector<std::thread> submitters;
  std::vector<int> mismatches(kThreads, 0);
  for (unsigned t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (unsigned i = 0; i < kPerThread; ++i) {
        const vid_t probe = (t * kPerThread + i) % engine->rows();
        auto served = queue.submit(row_of(*engine, probe)).get();
        // A stored row's own top hit is itself under cosine.
        if (served.empty() || served[0].id != probe) ++mismatches[t];
      }
    });
  }
  for (std::thread& s : submitters) s.join();
  queue.stop();

  for (unsigned t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
  const std::uint64_t queries =
      metrics.counter("gosh_serving_batch_queries_total").value();
  const std::uint64_t batches =
      metrics.counter("gosh_serving_batches_total").value();
  EXPECT_EQ(queries, kThreads * kPerThread);
  EXPECT_GE(batches, 1u);
  EXPECT_LE(batches, queries);
  const Histogram& latency =
      metrics.histogram("gosh_serving_request_latency_seconds");
  EXPECT_EQ(latency.count(), queries);
  EXPECT_GT(latency.sum(), 0.0);
}

TEST(BatchQueue, SubmitAfterStopAndWrongDimAreBrokenFutures) {
  Fixture fx(128, 8, 23);
  auto engine = fx.engine();
  ASSERT_NE(engine, nullptr);
  BatchQueue queue(engine->dim(), scorer_of(*engine),
                   {.max_batch = 4, .k = 2});

  auto bad_dim = queue.submit(std::vector<float>(3, 1.0f));
  EXPECT_THROW(bad_dim.get(), std::runtime_error);

  queue.stop();
  auto after_stop = queue.submit(std::vector<float>(engine->dim(), 1.0f));
  EXPECT_THROW(after_stop.get(), std::runtime_error);
}

TEST(BatchQueue, DestructorDrainsPendingRequests) {
  Fixture fx(128, 8, 23);
  auto engine = fx.engine();
  ASSERT_NE(engine, nullptr);
  std::vector<std::future<std::vector<Neighbor>>> futures;
  {
    BatchQueue queue(engine->dim(), scorer_of(*engine),
                     {.max_batch = 2, .k = 4});
    for (vid_t v = 0; v < 20; ++v) {
      futures.push_back(queue.submit(row_of(*engine, v)));
    }
    // Queue destructs here with requests possibly still parked.
  }
  for (auto& f : futures) EXPECT_EQ(f.get().size(), 4u);
}

TEST(BatchQueue, ScorerFailureBreaksEveryFutureOfTheBatch) {
  BatchQueue queue(
      4,
      [](std::span<const float>, std::size_t, unsigned)
          -> api::Result<std::vector<std::vector<Neighbor>>> {
        return api::Status::internal("scorer down");
      },
      {.max_batch = 4, .k = 2});
  auto failed = queue.submit(std::vector<float>(4, 1.0f));
  EXPECT_THROW(failed.get(), std::runtime_error);
}

}  // namespace
}  // namespace gosh::serving
