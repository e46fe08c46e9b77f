#include "gosh/serving/options.hpp"

#include <string>
#include <utility>
#include <vector>

namespace gosh::serving {
namespace {

using api::quoted;

api::Status set_metric(ServeOptions& options, std::string_view value) {
  auto parsed = query::parse_metric(value);
  if (!parsed.ok()) return parsed.status();
  options.metric = parsed.value();
  return api::Status::ok();
}

std::string show_metric(const ServeOptions& options) {
  return std::string(query::metric_name(options.metric));
}

api::Status set_aggregate(ServeOptions& options, std::string_view value) {
  auto parsed = query::parse_aggregate(value);
  if (!parsed.ok()) return parsed.status();
  options.aggregate = std::string(query::aggregate_name(parsed.value()));
  return api::Status::ok();
}

std::string show_aggregate(const ServeOptions& options) {
  return options.aggregate;
}

/// Splits "A<sep>B" into two unsigned fields; `form` names the expected
/// shape in the error.
template <typename T>
api::Status parse_pair(std::string_view key, std::string_view form,
                       std::string_view value, std::string_view separators,
                       T& first, T& second) {
  const std::size_t sep = value.find_first_of(separators);
  if (sep == std::string_view::npos)
    return api::Status::invalid_argument(std::string(key) + ": expected " +
                                         std::string(form) + ", got " +
                                         quoted(value));
  T a = 0, b = 0;
  if (api::Status s = api::parse_field(key, value.substr(0, sep), a);
      !s.is_ok())
    return s;
  if (api::Status s = api::parse_field(key, value.substr(sep + 1), b);
      !s.is_ok())
    return s;
  first = a;
  second = b;
  return api::Status::ok();
}

api::Status set_filter(ServeOptions& options, std::string_view value) {
  return parse_pair("filter", "LO:HI (ids in [LO, HI))", value, ":",
                    options.filter_begin, options.filter_end);
}

std::string show_filter(const ServeOptions& options) {
  return std::to_string(options.filter_begin) + ":" +
         std::to_string(options.filter_end);
}

api::Status set_shard(ServeOptions& options, std::string_view value) {
  // "I/N" (also accepts "I:N"): this process serves shard I of N.
  return parse_pair("shard", "I/N (serve shard I of N)", value, "/:",
                    options.shard_index, options.shard_count);
}

std::string show_shard(const ServeOptions& options) {
  return std::to_string(options.shard_index) + "/" +
         std::to_string(options.shard_count);
}

}  // namespace

std::string ServeOptions::resolved_index_path() const {
  return index_path.empty() ? query::HnswIndex::default_path(store_path)
                            : index_path;
}

query::QueryEngineOptions ServeOptions::engine_options() const {
  query::QueryEngineOptions options;
  options.metric = metric;
  options.threads = threads;
  options.block_rows = static_cast<std::size_t>(block_rows);
  options.ef_search = ef_search;
  return options;
}

query::HnswOptions ServeOptions::hnsw_options() const {
  query::HnswOptions options;
  options.M = hnsw_m;
  options.ef_construction = ef_construction;
  options.seed = seed;
  options.metric = metric;
  return options;
}

query::BatchQueueOptions ServeOptions::batch_options() const {
  query::BatchQueueOptions options;
  options.max_batch = static_cast<std::size_t>(max_batch);
  options.k = k;
  return options;
}

store::OpenOptions ServeOptions::open_options() const {
  store::OpenOptions options;
  options.verify_checksums = verify_checksums;
  return options;
}

query::Aggregate ServeOptions::aggregate_mode() const {
  auto parsed = query::parse_aggregate(aggregate);
  return parsed.ok() ? parsed.value() : query::Aggregate::kMax;
}

query::RowFilter ServeOptions::row_filter() const {
  if (filter_begin == 0 && filter_end == 0) return {};
  const vid_t begin = filter_begin, end = filter_end;
  return [begin, end](vid_t v) { return v >= begin && v < end; };
}

const api::OptionTable<ServeOptions>& ServeOptions::table() {
  using O = ServeOptions;
  static const api::OptionTable<ServeOptions> table =
      api::OptionTable<ServeOptions>("serving option")
          // Store and strategy.
          .field("store", "PATH", "GSHS embedding store (required)",
                 &O::store_path)
          .field("index", "PATH", "HNSW index file; empty = STORE.hnsw",
                 &O::index_path)
          .field("strategy",
                 "exact|hnsw|batched|router|dist-router|remote:LIST|cached:S|"
                 "auto",
                 "auto = hnsw when the index exists",
                 &O::strategy)
          .field("verify", "", "verify store checksums at open",
                 &O::verify_checksums)
          .negation("no-verify")
          .custom("shard", "I/N",
                  "serve shard I of N only, in local ids",
                  set_shard, show_shard)
          // Query defaults.
          .field("k", "K", "neighbors per query", &O::k)
          .custom("metric", "M", "cosine|dot|l2", set_metric, show_metric)
          .custom("aggregate", "A", "multi-vector combine rule: max|mean",
                  set_aggregate, show_aggregate)
          .custom("filter", "LO:HI",
                  "answer only ids in [LO, HI); 0:0 = all",
                  set_filter, show_filter)
          // Engine shape.
          .field("threads", "T", "scan parallelism; 0 = every worker",
                 &O::threads)
          .field("block-rows", "N", "rows per scan block", &O::block_rows)
          .field("ef", "EF", "HNSW search beam width", &O::ef_search)
          .field("M", "M", "HNSW links per node (index build)", &O::hnsw_m)
          .field("ef-construction", "EC", "HNSW build beam width",
                 &O::ef_construction)
          .field("seed", "S", "index build and --eval sampling seed",
                 &O::seed)
          .field("batch", "B", "max requests coalesced per scan (batched)",
                 &O::max_batch)
          // Semantic result cache.
          .field("cache", "", "wrap the strategy in the semantic cache",
                 &O::cache_enabled)
          .field("cache-threshold", "T",
                 "cosine floor for hits; 1 = exact only",
                 &O::cache_threshold)
          .field("cache-capacity", "N", "max cached entries (LRU)",
                 &O::cache_capacity)
          .field("cache-ttl-ms", "MS", "cache entry lifetime; 0 = forever",
                 &O::cache_ttl_ms)
          // Distributed serving.
          .field("backends", "LIST",
                 "host:port list (',' shards, '|' replicas) or a file",
                 &O::backends)
          .field("remote-deadline-ms", "MS", "budget per remote call",
                 &O::remote_deadline_ms)
          .field("retries", "N", "extra attempts per remote call",
                 &O::remote_retries)
          .field("hedge-after-ms", "MS",
                 "hedge a quiet remote call; 0 = off",
                 &O::hedge_after_ms)
          .field("breaker-failures", "N",
                 "failures that open a circuit breaker",
                 &O::breaker_failures)
          .field("breaker-cooldown-ms", "MS",
                 "open time before one half-open probe",
                 &O::breaker_cooldown_ms)
          .field("probe-interval-ms", "MS",
                 "/healthz probe cadence; 0 = off",
                 &O::probe_interval_ms)
          .field("require-all-shards", "",
                 "partial merges become 503, not degraded answers",
                 &O::require_all_shards)
          // Tool modes (gosh_query).
          .field("build-index", "", "build the HNSW index beside the store",
                 &O::build_index)
          .field("queries", "FILE", "answer top-k per line; - = stdin",
                 &O::queries_path)
          .field("eval", "N", "recall@k against exact on N sampled rows",
                 &O::eval_samples)
          .field("recall-floor", "F", "fail when --eval recall is below F",
                 &O::recall_floor)
          .field("metrics", "", "print the metrics exposition at exit",
                 &O::dump_metrics);
  return table;
}

api::Status ServeOptions::set(std::string_view key, std::string_view value) {
  return table().set(*this, key, value);
}

api::Status ServeOptions::validate() const {
  const auto bad = [](std::string message) {
    return api::Status::invalid_argument(std::move(message));
  };
  if (strategy.empty()) return bad("strategy: empty name");
  if (store_path.empty()) return bad("store: a store path is required");
  if (k < 1 || k > 1000000) return bad("k: must be in [1, 1000000]");
  if (auto parsed = query::parse_aggregate(aggregate); !parsed.ok())
    return parsed.status();
  if (filter_begin != 0 || filter_end != 0) {
    if (filter_end <= filter_begin)
      return bad("filter: needs LO < HI, got [" +
                 std::to_string(filter_begin) + ", " +
                 std::to_string(filter_end) + ")");
  }
  // The engine-shape checks live with QueryEngineOptions so programmatic
  // engine users hit the identical rules.
  if (api::Status status = engine_options().validate(); !status.is_ok())
    return status;
  if (hnsw_m < 2 || hnsw_m > 512) return bad("M: must be in [2, 512]");
  if (ef_construction < 1) return bad("ef-construction: must be >= 1");
  if (max_batch < 1) return bad("batch: must be >= 1");
  if (cache_threshold < 0.0 || cache_threshold > 1.0)
    return bad("cache-threshold: must be in [0, 1]");
  if (cache_capacity < 1) return bad("cache-capacity: must be >= 1");
  if (shard_count > 0 && shard_index >= shard_count)
    return bad("shard: needs I < N, got " + std::to_string(shard_index) +
               "/" + std::to_string(shard_count));
  if (remote_deadline_ms < 1 || remote_deadline_ms > 600000)
    return bad("remote-deadline-ms: must be in [1, 600000]");
  if (remote_retries > 16) return bad("retries: must be in [0, 16]");
  if (breaker_failures < 1 || breaker_failures > 1000)
    return bad("breaker-failures: must be in [1, 1000]");
  if (breaker_cooldown_ms < 1 || breaker_cooldown_ms > 600000)
    return bad("breaker-cooldown-ms: must be in [1, 600000]");
  if (probe_interval_ms > 60000)
    return bad("probe-interval-ms: must be in [0, 60000]");
  if (recall_floor < 0.0 || recall_floor > 1.0)
    return bad("recall-floor: must be in [0, 1]");
  return api::Status::ok();
}

api::Result<ServeOptions> ServeOptions::from_args(int argc, char** argv) {
  return table().from_args(argc, argv);
}

api::Result<ServeOptions> ServeOptions::from_file(const std::string& path) {
  return from_file(path, ServeOptions{});
}

api::Result<ServeOptions> ServeOptions::from_file(const std::string& path,
                                                  const ServeOptions& base) {
  return table().from_file(path, base);
}

}  // namespace gosh::serving
