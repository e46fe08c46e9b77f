#include "gosh/query/batch_queue.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace gosh::query {

using Clock = std::chrono::steady_clock;

BatchQueue::BatchQueue(unsigned dim, BatchScorer score,
                       BatchQueueOptions options, QueryObserver* observer)
    : dim_(dim),
      score_(std::move(score)),
      options_(options),
      observer_(observer),
      dispatcher_([this] { dispatch_loop(); }) {}

BatchQueue::~BatchQueue() { stop(); }

std::future<std::vector<Neighbor>> BatchQueue::submit(
    std::vector<float> query) {
  Pending request;
  request.enqueued = Clock::now();
  if (trace::enabled()) request.trace = trace::current_shared();
  auto future = request.promise.get_future();
  if (query.size() != dim_) {
    request.promise.set_exception(std::make_exception_ptr(std::runtime_error(
        "BatchQueue: query holds " + std::to_string(query.size()) +
        " floats, queue dim is " + std::to_string(dim_))));
    return future;
  }
  request.query = std::move(query);
  {
    common::MutexLock lock(mutex_);
    if (stopping_) {
      request.promise.set_exception(std::make_exception_ptr(
          std::runtime_error("BatchQueue: submit after stop")));
      return future;
    }
    pending_.push_back(std::move(request));
  }
  cv_.notify_one();
  return future;
}

void BatchQueue::stop() {
  std::thread worker;
  {
    common::MutexLock lock(mutex_);
    stopping_ = true;
    worker = std::move(dispatcher_);  // exactly one caller gets to join
  }
  cv_.notify_all();
  if (worker.joinable()) worker.join();
}

std::size_t BatchQueue::pending() const {
  common::MutexLock lock(mutex_);
  return pending_.size();
}

void BatchQueue::dispatch_loop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      common::UniqueLock lock(mutex_);
      while (!stopping_ && pending_.empty()) cv_.wait(lock);
      if (pending_.empty()) return;  // stopping and drained
      const std::size_t take =
          std::min(options_.max_batch > 0 ? options_.max_batch : 1,
                   pending_.size());
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(pending_.front()));
        pending_.pop_front();
      }
    }

    std::vector<float> queries(batch.size() * dim_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      std::copy(batch[i].query.begin(), batch[i].query.end(),
                queries.begin() + i * dim_);
    }

    const auto scan_begin = Clock::now();
    auto results = score_(queries, batch.size(), options_.k);
    const auto done = Clock::now();

    // Spans recorded explicitly (not via TRACE_SPAN): the dispatcher thread
    // holds no trace context of its own, and the submitter's may already
    // have moved on — the captured shared_ptr keeps each Trace alive.
    const auto to_ns = [](Clock::time_point tp) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              tp.time_since_epoch())
              .count());
    };
    for (const Pending& request : batch) {
      if (request.trace == nullptr) continue;
      const std::uint32_t thread = trace::thread_ordinal();
      request.trace->record("queue-wait", to_ns(request.enqueued),
                            to_ns(scan_begin), /*depth=*/2, thread);
      request.trace->record("scan", to_ns(scan_begin), to_ns(done),
                            /*depth=*/2, thread);
    }

    if (observer_ != nullptr) {
      observer_->on_batch(
          batch.size(),
          std::chrono::duration<double>(done - scan_begin).count());
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      // Observe BEFORE fulfilling: a caller joining on the future must see
      // its own request already accounted in the observer's counters.
      if (observer_ != nullptr) {
        observer_->on_query(
            std::chrono::duration<double>(done - batch[i].enqueued).count());
      }
      if (results.ok()) {
        batch[i].promise.set_value(std::move(results.value()[i]));
      } else {
        batch[i].promise.set_exception(std::make_exception_ptr(
            std::runtime_error(results.status().to_string())));
      }
    }
  }
}

}  // namespace gosh::query
