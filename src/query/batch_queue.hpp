// BatchQueue — coalesces concurrent KNN requests into batched scans.
//
// Serving traffic arrives one query at a time, but the exact strategy's
// cost is dominated by streaming the store's rows: a scan that answers 64
// pending queries costs barely more than one that answers 1 (each mmap'd
// block is read once and scored against every query while hot). The queue
// therefore parks incoming requests, and a single dispatcher thread drains
// up to `max_batch` of them per call of its batch scorer, fulfilling each
// caller's future. The queue owns no store: its owner hands it the query
// dim and the scorer (serving::BatchedService passes its EngineService's
// unmetered scoring path). Latency is measured enqueue -> fulfillment and
// reported through a ProgressObserver-style callback (QueryObserver;
// serving::MetricsQueryObserver streams it into a MetricsRegistry).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "gosh/api/status.hpp"
#include "gosh/common/sync.hpp"
#include "gosh/query/metric.hpp"
#include "gosh/trace/trace.hpp"

namespace gosh::query {

/// Observer of the serving loop, in the style of api::ProgressObserver:
/// the queue fires structured events, the owner decides how to render
/// them. Callbacks come from the dispatcher thread and must be
/// thread-safe against the owner's reads.
class QueryObserver {
 public:
  virtual ~QueryObserver() = default;
  /// One scorer call serving `queries` coalesced requests.
  virtual void on_batch(std::size_t /*queries*/, double /*seconds*/) {}
  /// One request fulfilled; `latency_seconds` covers enqueue -> result.
  virtual void on_query(double /*latency_seconds*/) {}
};

struct BatchQueueOptions {
  /// Most requests coalesced into one scorer call.
  std::size_t max_batch = 64;
  /// Neighbors returned per request.
  unsigned k = 10;
};

/// Scores `count` back-to-back query vectors held in `queries`: one
/// top-`k` list per query, or a Status that fails the whole batch.
using BatchScorer =
    std::function<api::Result<std::vector<std::vector<Neighbor>>>(
        std::span<const float> queries, std::size_t count, unsigned k)>;

class BatchQueue {
 public:
  /// Queries are `dim` floats each. `score` and `observer` (optional) must
  /// stay callable until the queue is destroyed.
  BatchQueue(unsigned dim, BatchScorer score, BatchQueueOptions options = {},
             QueryObserver* observer = nullptr);
  BatchQueue(const BatchQueue&) = delete;
  BatchQueue& operator=(const BatchQueue&) = delete;
  /// Drains pending requests, then joins the dispatcher.
  ~BatchQueue();

  /// Enqueues one query (must be `dim` floats; a wrong size or a stopped
  /// queue surfaces as a broken future carrying a runtime_error).
  /// Thread-safe.
  std::future<std::vector<Neighbor>> submit(std::vector<float> query);

  /// Stops accepting, serves what is pending, joins. Idempotent.
  void stop();

  std::size_t pending() const;

 private:
  struct Pending {
    std::vector<float> query;
    std::promise<std::vector<Neighbor>> promise;
    std::chrono::steady_clock::time_point enqueued;
    /// The submitter's trace context, carried across the thread handoff so
    /// the dispatcher can record "queue-wait" and "scan" spans into it
    /// (null when tracing is off or the submitter was untraced).
    std::shared_ptr<trace::Trace> trace;
  };

  void dispatch_loop();

  const unsigned dim_;
  const BatchScorer score_;
  const BatchQueueOptions options_;
  QueryObserver* observer_;

  mutable common::Mutex mutex_;
  common::CondVar cv_;
  std::deque<Pending> pending_ GOSH_GUARDED_BY(mutex_);
  bool stopping_ GOSH_GUARDED_BY(mutex_) = false;
  /// Guarded: stop() is idempotent by moving the thread out under the lock,
  /// so exactly one caller joins. (Initialized in the constructor's member
  /// list, before any concurrency exists.)
  std::thread dispatcher_ GOSH_GUARDED_BY(mutex_);
};

}  // namespace gosh::query
