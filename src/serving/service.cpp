#include "gosh/serving/service.hpp"

#include <algorithm>
#include <filesystem>
#include <future>
#include <mutex>
#include <utility>

#include "gosh/common/parallel_for.hpp"
#include "gosh/common/timer.hpp"
#include "gosh/query/brute_force.hpp"
#include "gosh/serving/registry.hpp"
#include "gosh/trace/trace.hpp"

namespace gosh::serving {

/// The whole request is rejected on the first malformed query, before any
/// work (or queue submission) happens.
api::Status check_request(const QueryRequest& request, vid_t rows,
                          unsigned dim, unsigned k) {
  if (k == 0) return api::Status::invalid_argument("k must be >= 1");
  for (std::size_t q = 0; q < request.queries.size(); ++q) {
    const Query& query = request.queries[q];
    if (query.is_vertex) {
      if (query.vertex_id >= rows) {
        return api::Status::invalid_argument(
            "query " + std::to_string(q) + ": vertex " +
            std::to_string(query.vertex_id) + " out of range (store has " +
            std::to_string(rows) + " rows)");
      }
      continue;
    }
    if (query.vector_count == 0) {
      return api::Status::invalid_argument(
          "query " + std::to_string(q) + ": needs at least one vector");
    }
    if (query.vectors.size() != query.vector_count * dim) {
      return api::Status::invalid_argument(
          "query " + std::to_string(q) + ": holds " +
          std::to_string(query.vectors.size()) + " floats, expected " +
          std::to_string(query.vector_count) + " x dim " +
          std::to_string(dim));
    }
  }
  return api::Status::ok();
}

namespace {

/// Drops the probe vertex from its own answer and trims to k.
void finalize_answer(std::vector<Neighbor>& neighbors, const Query& query,
                     unsigned k) {
  if (query.is_vertex) {
    std::erase_if(neighbors, [&query](const Neighbor& n) {
      return n.id == query.vertex_id;
    });
  }
  if (neighbors.size() > k) neighbors.resize(k);
}

}  // namespace

QueryRequest QueryRequest::for_vertex(vid_t v, unsigned k) {
  QueryRequest request;
  request.queries.push_back(Query::vertex(v));
  request.k = k;
  return request;
}

QueryRequest QueryRequest::for_vector(std::vector<float> values, unsigned k) {
  QueryRequest request;
  request.queries.push_back(Query::vector(std::move(values)));
  request.k = k;
  return request;
}

api::Result<std::vector<Neighbor>> QueryService::top_k(
    std::span<const float> query, unsigned k) {
  auto response = serve(QueryRequest::for_vector(
      std::vector<float>(query.begin(), query.end()), k));
  if (!response.ok()) return response.status();
  return std::move(response.value().results.front());
}

api::Result<std::vector<Neighbor>> QueryService::top_k_vertex(vid_t v,
                                                              unsigned k) {
  auto response = serve(QueryRequest::for_vertex(v, k));
  if (!response.ok()) return response.status();
  return std::move(response.value().results.front());
}

// ---- EngineService --------------------------------------------------------

api::Result<std::unique_ptr<EngineService>> EngineService::open(
    const ServeOptions& options, Strategy strategy, MetricsRegistry* metrics) {
  // --shard I/N: serve one shard of a sharded store as a whole store in
  // LOCAL ids — the dist-router child's view of the world.
  auto opened =
      options.shard_count > 0
          ? store::EmbeddingStore::open_shard(
                options.store_path, options.shard_index, options.shard_count,
                options.open_options())
          : store::EmbeddingStore::open(options.store_path,
                                        options.open_options());
  if (!opened.ok()) return opened.status();
  auto service =
      create(std::move(opened).value(), strategy, options, metrics);
  if (!service.ok() || strategy != Strategy::kHnsw) return service;
  if (api::Status status =
          service.value()->load_index(options.resolved_index_path());
      !status.is_ok()) {
    return status;
  }
  return service;
}

api::Result<std::unique_ptr<EngineService>> EngineService::create(
    store::EmbeddingStore store, Strategy strategy,
    const ServeOptions& options, MetricsRegistry* metrics) {
  if (api::Status status = options.validate(); !status.is_ok()) return status;
  return std::unique_ptr<EngineService>(
      new EngineService(std::move(store), strategy, options, metrics));
}

EngineService::EngineService(store::EmbeddingStore store, Strategy strategy,
                             const ServeOptions& options,
                             MetricsRegistry* metrics)
    : store_(std::move(store)),
      strategy_(strategy),
      metric_(options.metric),
      scan_{.threads = options.threads,
            .block_rows = static_cast<std::size_t>(options.block_rows)},
      default_k_(options.k),
      default_ef_(options.ef_search) {
  if (metrics != nullptr) {
    requests_ = &metrics->counter("gosh_serving_requests_total",
                                  "QueryService requests served");
    queries_ = &metrics->counter("gosh_serving_queries_total",
                                 "Logical queries answered");
    seconds_ = &metrics->histogram("gosh_serving_request_seconds",
                                   "Wall time per QueryService request");
  }
  // Metric overrides are lock-free at serve time: the only norms a cosine
  // override needs on a non-cosine exact engine are computed here too.
  if (metric_ == Metric::kCosine || strategy_ == Strategy::kExact) {
    cosine_norms_ = query::row_inverse_norms(store_, Metric::kCosine);
  }
}

std::string_view EngineService::strategy_name() const noexcept {
  return serving::strategy_name(strategy_);
}

api::Status EngineService::attach_index(query::HnswIndex index) {
  if (index.rows() != store_.rows() || index.dim() != store_.dim()) {
    return api::Status::invalid_argument(
        "hnsw index shape (" + std::to_string(index.rows()) + " x " +
        std::to_string(index.dim()) + ") does not match the store (" +
        std::to_string(store_.rows()) + " x " + std::to_string(store_.dim()) +
        ")");
  }
  if (index.metric() != metric_) {
    return api::Status::invalid_argument(
        std::string("hnsw index was built for metric '") +
        std::string(query::metric_name(index.metric())) +
        "', engine serves '" + std::string(query::metric_name(metric_)) +
        "'");
  }
  index_ = std::move(index);
  return api::Status::ok();
}

api::Status EngineService::build_index(query::HnswOptions options) {
  options.metric = metric_;
  // The engine's norms skip a second full pass over a possibly
  // SSD-resident store.
  return attach_index(
      query::HnswIndex::build(store_, options, norms_for(metric_)));
}

api::Status EngineService::load_index(const std::string& path) {
  auto loaded = query::HnswIndex::load(path);
  if (!loaded.ok()) return loaded.status();
  return attach_index(std::move(loaded).value());
}

std::span<const float> EngineService::norms_for(Metric metric) const noexcept {
  if (metric != Metric::kCosine) return {};
  return cosine_norms_;
}

api::Result<std::vector<float>> EngineService::row_vector(vid_t v) const {
  if (v >= rows()) {
    return api::Status::invalid_argument(
        "vertex " + std::to_string(v) + " out of range (store has " +
        std::to_string(rows()) + " rows)");
  }
  const auto row = store_.row(v);
  return std::vector<float>(row.begin(), row.end());
}

api::Result<QueryResponse> EngineService::serve(const QueryRequest& request) {
  WallTimer timer;
  const unsigned k = request.k > 0 ? request.k : default_k_;
  const unsigned ef = request.ef > 0 ? request.ef : default_ef_;
  const Metric metric = request.metric.value_or(metric_);

  if (api::Status status = check_request(request, rows(), dim(), k);
      !status.is_ok()) {
    return status;
  }

  // Vertex queries fetch one extra neighbor so dropping the probe itself
  // still leaves k answers.
  const bool any_vertex =
      std::any_of(request.queries.begin(), request.queries.end(),
                  [](const Query& q) { return q.is_vertex; });
  const unsigned fetch_k = any_vertex ? k + 1 : k;

  TRACE_SPAN("scan");
  // Flatten the batch into score()'s shape: one flat vector buffer plus
  // per-query vector counts.
  std::vector<float> vectors;
  std::vector<std::size_t> counts;
  counts.reserve(request.queries.size());
  for (const Query& query : request.queries) {
    if (query.is_vertex) {
      const auto row = store_.row(query.vertex_id);
      vectors.insert(vectors.end(), row.begin(), row.end());
      counts.push_back(1);
    } else {
      vectors.insert(vectors.end(), query.vectors.begin(),
                     query.vectors.end());
      counts.push_back(query.vector_count);
    }
  }
  auto scored = score(vectors, counts, fetch_k, ef, metric,
                      request.aggregate, request.filter);
  if (!scored.ok()) return scored.status();

  QueryResponse response;
  response.results = std::move(scored).value();
  for (std::size_t q = 0; q < request.queries.size(); ++q) {
    finalize_answer(response.results[q], request.queries[q], k);
  }

  response.seconds = timer.seconds();
  if (requests_ != nullptr) {
    requests_->increment();
    queries_->increment(request.queries.size());
    seconds_->observe(response.seconds);
  }
  return response;
}

api::Result<std::vector<std::vector<Neighbor>>> EngineService::score(
    std::span<const float> vectors, std::span<const std::size_t> counts,
    unsigned k, unsigned ef, Metric metric, Aggregate aggregate,
    const RowFilter& filter) const {
  if (strategy_ == Strategy::kExact) {
    // The scan vets the buffer against the counts and the norms itself,
    // so a bad shape is a Status, not an out-of-bounds read.
    return query::scan_top_k_multi(store_, vectors, counts, k, metric,
                                   norms_for(metric), aggregate, filter,
                                   scan_);
  }
  if (index_.max_level() < 0) {
    return api::Status::invalid_argument(
        "hnsw strategy requested but no index is attached "
        "(build_index/load_index first)");
  }
  if (metric != metric_) {
    return api::Status::invalid_argument(
        std::string("hnsw index was built for metric '") +
        std::string(query::metric_name(metric_)) + "', request asks for '" +
        std::string(query::metric_name(metric)) + "'");
  }
  // Query q's vectors start at offsets[q] floats.
  std::vector<std::size_t> offsets(counts.size() + 1, 0);
  for (std::size_t q = 0; q < counts.size(); ++q) {
    offsets[q + 1] = offsets[q] + counts[q] * dim();
  }
  if (offsets.back() != vectors.size()) {
    return api::Status::invalid_argument(
        "query buffer holds " + std::to_string(vectors.size()) +
        " floats, the vector counts need " + std::to_string(offsets.back()));
  }

  // One beam search per vector, fanned across the pool. A filter narrows
  // what the beam may keep, so widen it; multi-vector queries union their
  // per-vector candidates and re-score under the aggregate.
  const unsigned ef_effective = filter ? std::max(ef, 2 * k) : ef;
  std::vector<std::vector<Neighbor>> results(counts.size());
  parallel_for(
      counts.size(),
      [&](std::size_t q) {
        const std::size_t count = counts[q];
        const float* first = vectors.data() + offsets[q];
        if (count == 1) {
          results[q] = index_.search(store_, {first, dim()}, k, ef_effective,
                                     filter);
          return;
        }
        // Multi-vector: candidates from each vector's beam...
        std::vector<Neighbor> candidates;
        for (std::size_t i = 0; i < count; ++i) {
          auto found = index_.search(store_, {first + i * dim(), dim()}, k,
                                     ef_effective, filter);
          candidates.insert(candidates.end(), found.begin(), found.end());
        }
        std::sort(candidates.begin(), candidates.end(),
                  [](const Neighbor& a, const Neighbor& b) {
                    return a.id < b.id;
                  });
        candidates.erase(std::unique(candidates.begin(), candidates.end(),
                                     [](const Neighbor& a, const Neighbor& b) {
                                       return a.id == b.id;
                                     }),
                         candidates.end());
        // ...then re-scored exactly under the aggregate rule.
        const bool cosine = metric == Metric::kCosine;
        std::vector<float> vec_norms(cosine ? count : 0);
        for (std::size_t i = 0; i < vec_norms.size(); ++i) {
          vec_norms[i] = query::inverse_norm(first + i * dim(), dim());
        }
        for (Neighbor& candidate : candidates) {
          const float* row = store_.row(candidate.id).data();
          const float row_inv = cosine ? cosine_norms_[candidate.id] : 0.0f;
          float score = 0.0f;
          for (std::size_t i = 0; i < count; ++i) {
            const float vec_inv = cosine ? vec_norms[i] : 0.0f;
            const float sim = query::similarity(metric, first + i * dim(), row,
                                                dim(), vec_inv, row_inv);
            if (aggregate == Aggregate::kMean) {
              score += sim;
            } else if (i == 0 || sim > score) {
              score = sim;
            }
          }
          if (aggregate == Aggregate::kMean) {
            score /= static_cast<float>(count);
          }
          candidate.score = score;
        }
        std::sort(candidates.begin(), candidates.end(), query::better);
        if (candidates.size() > k) candidates.resize(k);
        results[q] = std::move(candidates);
      },
      {.threads = scan_.threads, .grain = 1});
  return results;
}

// ---- BatchedService -------------------------------------------------------

api::Result<std::unique_ptr<BatchedService>> BatchedService::open(
    const ServeOptions& options, MetricsRegistry* metrics) {
  // Index-present policy for the inner engine, like the "auto" strategy:
  // coalesce onto whichever path the deployment has prepared.
  const bool indexed =
      std::filesystem::exists(options.resolved_index_path());
  auto inner = EngineService::open(
      options, indexed ? Strategy::kHnsw : Strategy::kExact, metrics);
  if (!inner.ok()) return inner.status();
  return std::make_unique<BatchedService>(std::move(inner).value(), options,
                                          metrics);
}

BatchedService::BatchedService(std::unique_ptr<EngineService> inner,
                               const ServeOptions& defaults,
                               MetricsRegistry* metrics)
    : inner_(std::move(inner)), default_k_(defaults.k) {
  if (metrics != nullptr) {
    observer_ = std::make_unique<MetricsQueryObserver>(*metrics);
  }
  query::BatchQueueOptions queue_options = defaults.batch_options();
  // k+1 headroom so vertex queries can drop the probe row, matching the
  // direct path.
  queue_options.k = default_k_ + 1;
  // The engine's unmetered path: queued traffic is counted once, by the
  // observer, not again as engine requests.
  auto score = [engine = inner_.get(), ef = defaults.ef_search](
                   std::span<const float> queries, std::size_t count,
                   unsigned k) {
    const std::vector<std::size_t> ones(count, 1);
    return engine->score(queries, ones, k, ef, engine->default_metric(),
                         Aggregate::kMax, RowFilter{});
  };
  queue_ = std::make_unique<query::BatchQueue>(
      inner_->dim(), std::move(score), queue_options, observer_.get());
}

BatchedService::~BatchedService() = default;

bool BatchedService::queueable(const QueryRequest& request) const noexcept {
  if (request.filter || request.metric.has_value() || request.ef > 0)
    return false;
  if (request.k != 0 && request.k != default_k_) return false;
  return std::all_of(request.queries.begin(), request.queries.end(),
                     [](const Query& q) {
                       return q.is_vertex || q.vector_count == 1;
                     });
}

api::Result<QueryResponse> BatchedService::serve(const QueryRequest& request) {
  if (!queueable(request)) return inner_->serve(request);

  WallTimer timer;
  const unsigned k = request.k > 0 ? request.k : default_k_;
  if (api::Status status =
          check_request(request, rows(), dim(), k);
      !status.is_ok()) {
    return status;
  }

  std::vector<std::future<std::vector<Neighbor>>> futures;
  futures.reserve(request.queries.size());
  for (const Query& query : request.queries) {
    std::vector<float> vector;
    if (query.is_vertex) {
      const auto row = inner_->store().row(query.vertex_id);
      vector.assign(row.begin(), row.end());
    } else {
      vector = query.vectors;
    }
    futures.push_back(queue_->submit(std::move(vector)));
  }

  QueryResponse response;
  response.results.resize(request.queries.size());
  {
    // The gather: the dispatcher records "queue-wait"/"scan" into this
    // trace from its own thread; this span is the caller-side wait.
    trace::Span merge_span("merge");
    for (std::size_t q = 0; q < futures.size(); ++q) {
      try {
        response.results[q] = futures[q].get();
      } catch (const std::exception& error) {
        return api::Status::internal(error.what());
      }
      finalize_answer(response.results[q], request.queries[q], k);
    }
  }
  response.seconds = timer.seconds();
  return response;
}

// ---- Offline index build --------------------------------------------------

api::Result<IndexBuildReport> build_index(const ServeOptions& options) {
  auto opened =
      store::EmbeddingStore::open(options.store_path, options.open_options());
  if (!opened.ok()) return opened.status();
  // An hnsw-strategy engine holds only the norms its own metric needs,
  // and the build reuses them instead of re-scanning the store.
  auto engine = EngineService::create(std::move(opened).value(),
                                      Strategy::kHnsw, options, nullptr);
  if (!engine.ok()) return engine.status();

  WallTimer timer;
  if (api::Status status = engine.value()->build_index(options.hnsw_options());
      !status.is_ok()) {
    return status;
  }
  IndexBuildReport report;
  report.seconds = timer.seconds();
  report.path = options.resolved_index_path();
  const query::HnswIndex& index = engine.value()->index();
  report.M = index.M();
  report.ef_construction = index.ef_construction();
  report.max_level = index.max_level();
  if (api::Status status = index.save(report.path); !status.is_ok()) {
    return status;
  }
  return report;
}

}  // namespace gosh::serving
