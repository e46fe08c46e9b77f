// QueryEngine argument checking and the BatchQueue serving loop — the
// multi-threaded smoke test here runs under the ThreadSanitizer CI job
// (suite names BatchQueue* / QueryEngine* are in the TSan filter).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/temp_path.hpp"
#include "gosh/query/batch_queue.hpp"

namespace gosh::query {
namespace {

struct Fixture {
  store::EmbeddingStore store;
  testing_util::TempPath path{"batch_queue.gshs"};

  explicit Fixture(vid_t rows = 128, unsigned dim = 8) {
    embedding::EmbeddingMatrix matrix(rows, dim);
    matrix.initialize_random(23);
    EXPECT_TRUE(store::EmbeddingStore::write(matrix, path).is_ok());
    auto opened = store::EmbeddingStore::open(path);
    EXPECT_TRUE(opened.ok()) << opened.status().to_string();
    store = std::move(opened).value();
  }
};

TEST(QueryEngine, RejectsBadArguments) {
  Fixture fx;
  QueryEngine engine(std::move(fx.store), {});
  const std::vector<float> query(engine.dim(), 0.5f);

  EXPECT_EQ(engine.top_k(query, 0).status().code(),
            api::StatusCode::kInvalidArgument);
  const std::vector<float> short_query(engine.dim() - 1, 0.5f);
  EXPECT_EQ(engine.top_k(short_query, 5).status().code(),
            api::StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.top_k_vertex(engine.rows(), 5).status().code(),
            api::StatusCode::kInvalidArgument);
  // HNSW without an index is a diagnosed error, not a crash.
  EXPECT_EQ(engine.top_k(query, 5, Strategy::kHnsw).status().code(),
            api::StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.load_index("/nonexistent/index.hnsw").code(),
            api::StatusCode::kIoError);
}

TEST(QueryEngine, VertexQueriesExcludeTheProbeItself) {
  Fixture fx;
  QueryEngine engine(std::move(fx.store), {});
  auto top = engine.top_k_vertex(40, 10);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top.value().size(), 10u);
  for (const Neighbor& n : top.value()) EXPECT_NE(n.id, 40u);
}

TEST(QueryEngine, RejectsIndexBuiltForAnotherMetricOrStore) {
  Fixture fx;
  QueryEngineOptions l2;
  l2.metric = Metric::kL2;
  QueryEngine engine(std::move(fx.store), l2);
  const HnswIndex cosine_index = HnswIndex::build(
      engine.store(), {.M = 4, .metric = Metric::kCosine});
  EXPECT_EQ(engine.attach_index(cosine_index).code(),
            api::StatusCode::kInvalidArgument);

  // Shape mismatch: an index over a smaller store.
  embedding::EmbeddingMatrix tiny(10, 8);
  tiny.initialize_random(1);
  const testing_util::TempPath tiny_path("batch_queue_tiny.gshs");
  ASSERT_TRUE(store::EmbeddingStore::write(tiny, tiny_path).is_ok());
  auto tiny_store = store::EmbeddingStore::open(tiny_path);
  ASSERT_TRUE(tiny_store.ok());
  const HnswIndex tiny_index =
      HnswIndex::build(tiny_store.value(), {.M = 4, .metric = Metric::kL2});
  EXPECT_EQ(engine.attach_index(tiny_index).code(),
            api::StatusCode::kInvalidArgument);
}

TEST(BatchQueue, ServesOneQueryLikeTheEngine) {
  Fixture fx;
  QueryEngine engine(std::move(fx.store), {});
  const auto row = engine.store().row(7);
  auto direct = engine.top_k(row, 5);
  ASSERT_TRUE(direct.ok());

  QueryCounters counters;
  BatchQueue queue(engine, {.max_batch = 8, .k = 5}, &counters);
  auto future = queue.submit(std::vector<float>(row.begin(), row.end()));
  const auto served = future.get();
  ASSERT_EQ(served.size(), direct.value().size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].id, direct.value()[i].id);
  }
  queue.stop();
  EXPECT_EQ(counters.queries(), 1u);
  EXPECT_EQ(counters.batches(), 1u);
  EXPECT_GE(counters.max_latency_seconds(), 0.0);
}

TEST(BatchQueue, ConcurrentSubmittersAllGetCorrectAnswers) {
  Fixture fx(200, 6);
  QueryEngine engine(std::move(fx.store), {});
  QueryCounters counters;
  BatchQueue queue(engine, {.max_batch = 16, .k = 3}, &counters);

  constexpr unsigned kThreads = 4;
  constexpr unsigned kPerThread = 32;
  std::vector<std::thread> submitters;
  std::vector<int> mismatches(kThreads, 0);
  for (unsigned t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (unsigned i = 0; i < kPerThread; ++i) {
        const vid_t probe = (t * kPerThread + i) % engine.rows();
        const auto row = engine.store().row(probe);
        auto served =
            queue.submit(std::vector<float>(row.begin(), row.end())).get();
        // A stored row's own top hit is itself under cosine.
        if (served.empty() || served[0].id != probe) ++mismatches[t];
      }
    });
  }
  for (std::thread& s : submitters) s.join();
  queue.stop();

  for (unsigned t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
  EXPECT_EQ(counters.queries(), kThreads * kPerThread);
  EXPECT_GE(counters.batches(), 1u);
  EXPECT_LE(counters.batches(), counters.queries());
  EXPECT_GT(counters.mean_latency_seconds(), 0.0);
  EXPECT_GE(counters.max_latency_seconds(),
            counters.mean_latency_seconds() - 1e-12);
}

TEST(BatchQueue, SubmitAfterStopAndWrongDimAreBrokenFutures) {
  Fixture fx;
  QueryEngine engine(std::move(fx.store), {});
  BatchQueue queue(engine, {.max_batch = 4, .k = 2});

  auto bad_dim = queue.submit(std::vector<float>(3, 1.0f));
  EXPECT_THROW(bad_dim.get(), std::runtime_error);

  queue.stop();
  auto after_stop =
      queue.submit(std::vector<float>(engine.dim(), 1.0f));
  EXPECT_THROW(after_stop.get(), std::runtime_error);
}

TEST(BatchQueue, DestructorDrainsPendingRequests) {
  Fixture fx;
  QueryEngine engine(std::move(fx.store), {});
  std::vector<std::future<std::vector<Neighbor>>> futures;
  {
    BatchQueue queue(engine, {.max_batch = 2, .k = 4});
    for (int i = 0; i < 20; ++i) {
      const auto row = engine.store().row(static_cast<vid_t>(i));
      futures.push_back(
          queue.submit(std::vector<float>(row.begin(), row.end())));
    }
    // Queue destructs here with requests possibly still parked.
  }
  for (auto& f : futures) EXPECT_EQ(f.get().size(), 4u);
}

}  // namespace
}  // namespace gosh::query
