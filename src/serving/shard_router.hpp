// ShardRouter — one QueryService over the shards of a vertex-range-sharded
// GSHS store: the "router" and "dist-router" strategies.
//
// A GSHS store is split into `<path>.sNNNN-of-NNNN` shard files so a matrix
// bigger than RAM can stream from SSD. The ShardRouter serves it the way
// GOSH's decomposition trains it: part by part. Vertex queries become raw
// vectors read from the owning shard's file (a shard only knows its LOCAL
// ids, yet the probe row must score against every shard), the request is
// scattered to every shard in local ids, and the partial top-k lists are
// merged under the global (score desc, id asc) order — so with every shard
// answering, the result is bit-identical to one engine over the unsharded
// matrix, ties included.
//
// Shards differ only in how they answer a shard-local request:
//   * "router" — each shard group is its own in-process exact-strategy
//     EngineService (own mmap, norm cache and scan threads);
//   * "dist-router" — each shard is a ReplicaSet of child processes
//     started with `gosh_serve --shard I/N`, asked through forward_query()
//     (remote.hpp). The parent mmaps each shard file lazily for row_vector.
//
// Everything else runs once, for both:
//   * Fan-out. Every shard but one answers on its own per-request worker
//     thread; the calling thread answers the remaining one inline. Not the
//     global ThreadPool: a local scan nests parallel_for on that pool, and
//     a remote call parks its thread for up to a whole deadline.
//   * Errors. kInvalidArgument from any shard fails the request, since
//     every shard would say the same (e.g. a filter predicate without its
//     [begin, end) range cannot be sent to remote shards). Any other
//     failure marks that shard not-ok and the merge goes on without it:
//     the response is degraded, or kUnavailable (HTTP 503) under
//     `--require-all-shards`.
//   * Filter ranges. Each shard gets the filter rebased to its local ids,
//     with the request's range intersected with its slice; a shard whose
//     slice misses the range is answered with empty lists and not called.
//   * Annotations. Every response carries one ShardStatus per shard.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "gosh/serving/remote.hpp"
#include "gosh/serving/service.hpp"
#include "gosh/store/embedding_store.hpp"

namespace gosh::serving {

class ShardRouter final : public QueryService {
 public:
  /// "router": probes the store rooted at options.store_path and opens
  /// every shard as its own exact-strategy engine. (Per-shard HNSW indexes
  /// are not built: the router is the sharding seam, not an ANN strategy.)
  static api::Result<std::unique_ptr<ShardRouter>> open(
      const ServeOptions& options, MetricsRegistry* metrics = nullptr);

  /// "dist-router": `groups` is one replica group per shard, in shard
  /// order — options.backends parsed by parse_backends(). The group count
  /// must match the store's shard count. Makes no network call.
  static api::Result<std::unique_ptr<ShardRouter>> open(
      std::vector<std::vector<Endpoint>> groups, const ServeOptions& options,
      MetricsRegistry* metrics = nullptr);

  api::Result<QueryResponse> serve(const QueryRequest& request) override;
  vid_t rows() const noexcept override { return rows_; }
  unsigned dim() const noexcept override { return dim_; }
  Metric default_metric() const noexcept override { return metric_; }
  std::string_view strategy_name() const noexcept override { return name_; }
  api::Result<std::vector<float>> row_vector(vid_t v) const override;

  std::size_t shard_count() const noexcept { return shards_.size(); }
  /// The replica set behind `shard`; "dist-router" only.
  ReplicaSet& replicas(std::size_t shard) noexcept {
    return *shards_[shard].replicas;
  }

 private:
  struct Shard {
    vid_t row_begin = 0;  ///< global id of the shard's local row 0
    vid_t rows = 0;
    std::unique_ptr<EngineService> engine;  ///< "router": answers in-process
    std::unique_ptr<ReplicaSet> replicas;   ///< "dist-router": over HTTP
    store::EmbeddingStore slice;  ///< "dist-router": row_vector's source
  };
  struct Call;

  ShardRouter() = default;

  /// Both factories: `groups` null = in-process shards.
  static api::Result<std::unique_ptr<ShardRouter>> open_shards(
      const ServeOptions& options, MetricsRegistry* metrics,
      std::vector<std::vector<Endpoint>>* groups);

  /// The shard owning global row `v`.
  const Shard& owner(vid_t v) const noexcept;
  /// Answers shard `c`'s local request into `call`.
  void answer(std::size_t c, Call& call);

  std::vector<Shard> shards_;
  std::string_view name_;
  vid_t rows_ = 0;
  unsigned dim_ = 0;
  Metric metric_ = Metric::kCosine;
  unsigned default_k_ = 10;
  bool require_all_shards_ = false;

  Counter* requests_ = nullptr;
  Counter* scattered_ = nullptr;
  Counter* degraded_total_ = nullptr;
  Histogram* seconds_ = nullptr;
};

}  // namespace gosh::serving
