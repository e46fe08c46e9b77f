#include "gosh/serving/shard_router.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "gosh/common/timer.hpp"
#include "gosh/serving/registry.hpp"
#include "gosh/trace/trace.hpp"

namespace gosh::serving {

/// One shard's share of a request.
struct ShardRouter::Call {
  const QueryRequest* request = nullptr;  ///< null = filtered out, not called
  QueryRequest rebased;   ///< the shard's own copy when a filter is rebased
  api::Status failure;    ///< why the shard did not answer, if it did not
  ShardStatus status;
  std::vector<std::vector<Neighbor>> partials;
};

api::Result<std::unique_ptr<ShardRouter>> ShardRouter::open(
    const ServeOptions& options, MetricsRegistry* metrics) {
  return open_shards(options, metrics, nullptr);
}

api::Result<std::unique_ptr<ShardRouter>> ShardRouter::open(
    std::vector<std::vector<Endpoint>> groups, const ServeOptions& options,
    MetricsRegistry* metrics) {
  return open_shards(options, metrics, &groups);
}

api::Result<std::unique_ptr<ShardRouter>> ShardRouter::open_shards(
    const ServeOptions& options, MetricsRegistry* metrics,
    std::vector<std::vector<Endpoint>>* groups) {
  auto info = store::EmbeddingStore::probe(options.store_path);
  if (!info.ok()) return info.status();
  const std::uint32_t shard_count = info.value().shard_count;
  if (groups != nullptr && groups->size() != shard_count) {
    return api::Status::invalid_argument(
        "dist-router: --backends names " + std::to_string(groups->size()) +
        " shard group(s) but the store at " + options.store_path + " has " +
        std::to_string(shard_count) +
        " shard(s) — one group per shard, ',' between shards, '|' between "
        "replicas");
  }

  std::unique_ptr<ShardRouter> router(new ShardRouter());
  router->name_ = groups != nullptr ? "dist-router" : "router";
  router->rows_ = static_cast<vid_t>(info.value().rows);
  router->dim_ = info.value().dim;
  router->metric_ = options.metric;
  router->default_k_ = options.k;
  router->require_all_shards_ = options.require_all_shards;
  if (metrics != nullptr) {
    router->requests_ = &metrics->counter("gosh_serving_requests_total",
                                          "QueryService requests served");
    router->scattered_ =
        &metrics->counter("gosh_serving_router_scatters_total",
                          "Per-shard calls the router fanned out");
    router->degraded_total_ = &metrics->counter(
        "gosh_remote_degraded_responses_total",
        "Scatters answered from a partial merge (a shard was down)");
    router->seconds_ = &metrics->histogram(
        "gosh_serving_request_seconds", "Wall time per QueryService request");
  }

  for (std::uint32_t s = 0; s < shard_count; ++s) {
    auto slice = store::EmbeddingStore::open_shard(
        options.store_path, s, shard_count, options.open_options());
    if (!slice.ok()) return slice.status();
    Shard shard;
    shard.row_begin = static_cast<vid_t>(slice.value().row_begin());
    shard.rows = slice.value().rows();
    // owner() and row_vector() rely on the equal-split layout
    // EmbeddingStore::open enforces: every shard but the last holds shard
    // 0's row count, and the last one ends at the store's last row.
    const vid_t per_shard =
        router->shards_.empty() ? shard.rows : router->shards_.front().rows;
    const std::uint64_t end = std::uint64_t{shard.row_begin} + shard.rows;
    if (shard.row_begin != std::uint64_t{s} * per_shard ||
        (s + 1 < shard_count ? shard.rows != per_shard
                             : end != router->rows_)) {
      return api::Status::io_error(
          slice.value().path() + ": shard holds rows [" +
          std::to_string(shard.row_begin) + ", " + std::to_string(end) +
          "), which breaks the equal split of " +
          std::to_string(router->rows_) + " rows into shards of " +
          std::to_string(per_shard));
    }
    if (groups != nullptr) {
      shard.slice = std::move(slice).value();
      shard.replicas = std::make_unique<ReplicaSet>(
          std::move((*groups)[s]), ReplicaOptions::from(options), metrics);
    } else {
      // Shards skip the metrics registry: the router counts the request
      // once, not once per shard.
      auto engine = EngineService::create(std::move(slice).value(),
                                          Strategy::kExact, options,
                                          /*metrics=*/nullptr);
      if (!engine.ok()) return engine.status();
      shard.engine = std::move(engine).value();
    }
    router->shards_.push_back(std::move(shard));
  }
  return router;
}

const ShardRouter::Shard& ShardRouter::owner(vid_t v) const noexcept {
  // Equal-split layout: every shard but the last holds shards_[0].rows.
  const vid_t per_shard = shards_.front().rows > 0 ? shards_.front().rows : 1;
  std::size_t s = static_cast<std::size_t>(v / per_shard);
  if (s >= shards_.size()) s = shards_.size() - 1;
  return shards_[s];
}

api::Result<std::vector<float>> ShardRouter::row_vector(vid_t v) const {
  if (v >= rows_) {
    return api::Status::invalid_argument(
        "vertex " + std::to_string(v) + " out of range (store has " +
        std::to_string(rows_) + " rows)");
  }
  const Shard& shard = owner(v);
  const store::EmbeddingStore& slice =
      shard.engine != nullptr ? shard.engine->store() : shard.slice;
  const auto row = slice.row(v - shard.row_begin);
  return std::vector<float>(row.begin(), row.end());
}

void ShardRouter::answer(std::size_t c, Call& call) {
  Shard& shard = shards_[c];
  auto answered = [&]() -> api::Result<QueryResponse> {
    try {
      if (shard.replicas != nullptr) {
        return forward_query(*shard.replicas, *call.request, call.status);
      }
      WallTimer timer;
      auto local = shard.engine->serve(*call.request);
      call.status.seconds = timer.seconds();
      return local;
    } catch (const std::exception& error) {
      // This may run on a scatter worker, where an escaping exception
      // would end the process; the shard fails instead.
      return api::Status::internal("shard " + std::to_string(c) + ": " +
                                   error.what());
    }
  }();
  call.status.ok = answered.ok();
  if (answered.ok()) {
    call.partials = std::move(answered.value().results);
    return;
  }
  call.failure = answered.status();
  if (call.status.error.empty()) call.status.error = call.failure.message();
}

api::Result<QueryResponse> ShardRouter::serve(const QueryRequest& request) {
  WallTimer timer;
  const unsigned k = request.k > 0 ? request.k : default_k_;
  if (api::Status status = check_request(request, rows_, dim_, k);
      !status.is_ok()) {
    return status;
  }

  const bool any_vertex =
      std::any_of(request.queries.begin(), request.queries.end(),
                  [](const Query& q) { return q.is_vertex; });
  const unsigned fetch_k = any_vertex ? k + 1 : k;

  // The scatter shape every shard shares: vertex queries become raw-vector
  // queries (a global vertex id means nothing to a shard), resolved once
  // from the owning shard's file.
  QueryRequest scattered;
  scattered.k = fetch_k;
  scattered.ef = request.ef;
  scattered.metric = request.metric;
  scattered.aggregate = request.aggregate;
  scattered.queries.reserve(request.queries.size());
  for (const Query& query : request.queries) {
    if (!query.is_vertex) {
      scattered.queries.push_back(query);
      continue;
    }
    auto row = row_vector(query.vertex_id);
    if (!row.ok()) return row.status();
    scattered.queries.push_back(Query::vector(std::move(row).value()));
  }

  // Only the filter differs per shard: rebased from global to local ids,
  // its range (when it has one) intersected with the shard's slice.
  std::vector<Call> calls(shards_.size());
  for (std::size_t c = 0; c < shards_.size(); ++c) {
    Call& call = calls[c];
    call.status.shard = static_cast<unsigned>(c);
    call.request = &scattered;
    if (!request.filter) continue;
    const vid_t begin = shards_[c].row_begin;
    const vid_t lo = std::max(request.filter_begin, begin);
    const vid_t hi = std::min(request.filter_end, begin + shards_[c].rows);
    const bool ranged = request.filter_end > request.filter_begin;
    if (ranged && lo >= hi) {
      call.request = nullptr;
      call.status.ok = true;
      call.partials.resize(request.queries.size());
      continue;
    }
    call.rebased = scattered;
    call.rebased.filter = [begin, filter = request.filter](vid_t local) {
      return filter(local + begin);
    };
    if (ranged) {
      call.rebased.filter_begin = lo - begin;
      call.rebased.filter_end = hi - begin;
    }
    call.request = &call.rebased;
  }

  {
    trace::Span scatter_span("scatter");
    // Workers join the caller's trace, so their shard spans and everything
    // below them (scan, remote-call) land in the request's record.
    const std::shared_ptr<trace::Trace> trace = trace::current_shared();
    const auto run = [this, &calls, &trace](std::size_t c) {
      trace::ScopedTrace scope(trace);
      // Per-shard span names only materialize for traced requests.
      trace::Span shard_span(trace::enabled() ? "shard-" + std::to_string(c)
                                              : std::string());
      answer(c, calls[c]);
    };
    std::vector<std::size_t> called;
    for (std::size_t c = 0; c < calls.size(); ++c) {
      if (calls[c].request != nullptr) called.push_back(c);
    }
    // Every called shard but the first gets a worker; the caller answers
    // the first. Each answer is bounded (a local scan, or a remote call
    // capped by its deadline), so the joins are too.
    std::vector<std::jthread> workers;
    workers.reserve(called.size());
    for (std::size_t i = 1; i < called.size(); ++i) {
      workers.emplace_back(run, called[i]);
    }
    if (!called.empty()) run(called.front());
  }

  for (const Call& call : calls) {
    if (call.failure.code() == api::StatusCode::kInvalidArgument) {
      return call.failure;
    }
  }
  const bool degraded =
      std::any_of(calls.begin(), calls.end(),
                  [](const Call& call) { return !call.status.ok; });
  if (degraded && degraded_total_ != nullptr) degraded_total_->increment();
  if (degraded && require_all_shards_) {
    std::string missing;
    for (const Call& call : calls) {
      if (call.status.ok) continue;
      if (!missing.empty()) missing += "; ";
      missing += "shard " + std::to_string(call.status.shard) + " (" +
                 (call.status.backend.empty() ? "no backend"
                                              : call.status.backend) +
                 "): " + call.status.error;
    }
    return api::Status::unavailable(
        "--require-all-shards: partial merge refused — " + missing);
  }

  // Merge over the shards that answered: their lists, rebased to global
  // ids, ranked under the (score desc, id asc) total order. With every
  // shard in, that is bit-identical to one engine's unsharded scan.
  QueryResponse response;
  response.results.resize(request.queries.size());
  trace::Span merge_span("merge");
  for (std::size_t q = 0; q < request.queries.size(); ++q) {
    std::vector<Neighbor> merged;
    for (std::size_t c = 0; c < calls.size(); ++c) {
      if (!calls[c].status.ok) continue;
      for (Neighbor n : calls[c].partials[q]) {
        n.id += shards_[c].row_begin;
        merged.push_back(n);
      }
    }
    const std::size_t keep = std::min<std::size_t>(merged.size(), fetch_k);
    std::partial_sort(merged.begin(), merged.begin() + keep, merged.end(),
                      query::better);
    merged.resize(keep);
    if (request.queries[q].is_vertex) {
      const vid_t self = request.queries[q].vertex_id;
      std::erase_if(merged,
                    [self](const Neighbor& n) { return n.id == self; });
    }
    if (merged.size() > k) merged.resize(k);
    response.results[q] = std::move(merged);
  }

  response.degraded = degraded;
  response.shards.reserve(calls.size());
  for (Call& call : calls) response.shards.push_back(std::move(call.status));
  response.seconds = timer.seconds();
  if (requests_ != nullptr) {
    requests_->increment();
    scattered_->increment(shards_.size());
    seconds_->observe(response.seconds);
  }
  return response;
}

}  // namespace gosh::serving
