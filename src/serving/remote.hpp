// gosh::serving remote scatter — the fault-tolerance layer under the
// "remote:" and "dist-router" strategies.
//
// Four pieces, innermost out:
//   * CircuitBreaker — per-backend closed -> open -> half-open state
//     machine over trace::now_ns(). `breaker_failures` consecutive
//     failures open it; after `breaker_cooldown_ms` ONE probe call is let
//     through (half-open); that probe's outcome closes or re-opens it.
//     Both query traffic and the background /healthz probe loop feed it.
//   * ReplicaSet — a set of interchangeable backends with a connection
//     pool, latency tracking, a background health-probe thread and the
//     retry/hedge engine: call() runs every attempt in its own bounded
//     worker (each HttpClient exchange carries the remaining deadline as
//     its total budget AND as the X-Deadline-Ms header the server
//     enforces), retries sequentially with exponential backoff + jitter,
//     and optionally launches one hedged attempt on a DIFFERENT backend
//     once the first has been quiet past the hedge delay (clipped to the
//     backend's observed p99 when enough samples exist). First success
//     wins; losers finish on their own bounded clock and are reaped by
//     the destructor, so no thread outlives the set.
//     When the caller carries a trace, every attempt sends its request id
//     as X-Request-Id, so the backend's trace joins the caller's.
//   * forward_query — one query over the wire: render the request as JSON
//     (QueryHandler::render_request), call() a ReplicaSet, parse the
//     answer back (parse_response).
//   * RemoteService — a QueryService that forward_query()s every request
//     to a ReplicaSet of backends all serving the SAME store. Geometry
//     (rows/dim) is learned from a backend's /healthz; row_vector() reads
//     the local store file when one is named, since fetching raw rows is
//     not on the wire.
//
// The "dist-router" ShardRouter (shard_router.hpp) composes one ReplicaSet
// per shard on top of this file and asks each through forward_query().
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gosh/api/status.hpp"
#include "gosh/common/sync.hpp"
#include "gosh/net/client.hpp"
#include "gosh/serving/metrics.hpp"
#include "gosh/serving/service.hpp"
#include "gosh/store/embedding_store.hpp"

namespace gosh::serving {

/// One "host:port" backend address.
struct Endpoint {
  std::string host;
  unsigned short port = 0;

  std::string label() const { return host + ":" + std::to_string(port); }
};

/// Parses a backend spec: inline "host:port,host:port|host:port,..." or
/// the path of a file with one entry per line ('#' comments). The outer
/// list (',' or lines) is one entry per shard group; '|' separates
/// replicas within a group. A flat replica set is the one-group case.
api::Result<std::vector<std::vector<Endpoint>>> parse_backends(
    const std::string& spec);

/// The closed -> open -> half-open breaker. NOT thread-safe by itself —
/// the owning Backend's mutex serializes it (state transitions are rare
/// and cheap; a lock-free breaker would buy nothing here).
class CircuitBreaker {
 public:
  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };

  CircuitBreaker(unsigned failure_threshold, std::uint64_t cooldown_ns)
      : threshold_(failure_threshold > 0 ? failure_threshold : 1),
        cooldown_ns_(cooldown_ns) {}

  /// May this call proceed at `now_ns`? Open past its cooldown converts
  /// to half-open and admits exactly one probe; open within cooldown and
  /// half-open-with-probe-in-flight are denied.
  bool allow(std::uint64_t now_ns);
  /// Reports the outcome of an admitted call. Returns true when THIS
  /// failure transitioned the breaker closed/half-open -> open (the
  /// caller's cue to bump gosh_remote_breaker_open_total).
  bool on_result(bool success, std::uint64_t now_ns);

  State state() const noexcept { return state_; }
  unsigned consecutive_failures() const noexcept { return failures_; }

 private:
  unsigned threshold_;
  std::uint64_t cooldown_ns_;
  State state_ = State::kClosed;
  unsigned failures_ = 0;
  std::uint64_t open_until_ns_ = 0;
  bool probe_in_flight_ = false;
};

/// The retry/hedge/deadline knobs one ReplicaSet runs under — the
/// ServeOptions subset, split out so tests can build sets without a full
/// options object.
struct ReplicaOptions {
  unsigned deadline_ms = 250;       ///< whole-call budget
  unsigned retries = 2;             ///< extra sequential attempts
  unsigned hedge_after_ms = 0;      ///< 0 = hedging off
  unsigned breaker_failures = 5;
  unsigned breaker_cooldown_ms = 1000;
  unsigned probe_interval_ms = 200; ///< 0 = no background probe thread
  std::uint64_t seed = 42;          ///< backoff-jitter stream

  static ReplicaOptions from(const ServeOptions& options);
};

/// How one call() went — the raw material for a ShardStatus.
struct CallStats {
  std::string backend;     ///< who answered (or who was tried last)
  unsigned retries = 0;    ///< extra attempts launched
  bool hedged = false;     ///< a hedge attempt was launched
  double seconds = 0.0;    ///< wall time inside call()
  std::string error;       ///< empty on success
};

class ReplicaSet {
 public:
  /// `metrics` (optional) receives the gosh_remote_* counters and a
  /// per-backend latency histogram. Starts the probe thread when
  /// options.probe_interval_ms > 0.
  ReplicaSet(std::vector<Endpoint> endpoints, const ReplicaOptions& options,
             MetricsRegistry* metrics);
  /// Stops the probe thread and waits for every in-flight attempt worker
  /// (each is bounded by its deadline, so this terminates).
  ~ReplicaSet();

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  /// One fault-tolerant POST: deadline + retries + optional hedge across
  /// the replicas. Success = a 200; any HTTP error status or transport
  /// failure counts against the backend's breaker. `stats` (optional)
  /// receives the per-call accounting either way.
  api::Result<net::HttpResponse> call(const std::string& target,
                                      const std::string& body,
                                      CallStats* stats = nullptr);

  /// One bounded GET to any admissible backend (no retries, no hedging) —
  /// how geometry is learned from /healthz at open time.
  api::Result<net::HttpResponse> get_any(const std::string& target);

  std::size_t size() const noexcept { return backends_.size(); }
  /// Backends currently answering their probe (all of them when the probe
  /// loop is off and no traffic has failed yet).
  std::size_t healthy_count() const;
  /// The breaker state of backend `i` — test/introspection surface.
  CircuitBreaker::State breaker_state(std::size_t i) const;
  /// Runs one synchronous probe round now (what the background loop does
  /// every probe_interval_ms) — lets tests drive recovery deterministically.
  void probe_now();

 private:
  struct Backend {
    Endpoint endpoint;
    mutable common::Mutex mutex;
    std::vector<std::unique_ptr<net::HttpClient>> pool
        GOSH_GUARDED_BY(mutex);       ///< idle keep-alive connections
    CircuitBreaker breaker GOSH_GUARDED_BY(mutex);
    bool healthy GOSH_GUARDED_BY(mutex) = true;
    Histogram latency;                ///< own atomics; feeds the hedge delay
    Histogram* exported = nullptr;    ///< registry twin, null w/o metrics

    Backend(Endpoint e, const ReplicaOptions& options)
        : endpoint(std::move(e)),
          breaker(options.breaker_failures,
                  std::uint64_t(options.breaker_cooldown_ms) * 1'000'000ULL) {}
  };

  /// Shared scoreboard of one call(): attempt workers publish into it,
  /// the coordinating caller waits on the condvar. Held by shared_ptr so
  /// a losing worker may outlive the call (never the set).
  struct CallState;

  /// Next admissible backend round-robin, preferring healthy ones and
  /// skipping `except`; falls back to any admissible, then (all breakers
  /// open / all unhealthy) to nullptr.
  Backend* pick(const Backend* except);
  void launch_attempt(Backend* backend, std::shared_ptr<CallState> state,
                      bool hedged);
  void attempt(Backend* backend, std::shared_ptr<CallState> state,
               bool hedged);
  bool probe_backend(Backend& backend);
  void probe_loop();

  ReplicaOptions options_;
  std::vector<std::unique_ptr<Backend>> backends_;
  std::atomic<std::uint64_t> rr_{0};      ///< round-robin cursor
  std::atomic<std::uint64_t> jitter_{0};  ///< backoff-jitter draw counter

  Counter* retries_total_ = nullptr;
  Counter* hedges_total_ = nullptr;
  Counter* breaker_open_total_ = nullptr;

  // Probe thread + in-flight attempt accounting, reaped by ~ReplicaSet.
  mutable common::Mutex lifecycle_mutex_;
  common::CondVar lifecycle_cv_;
  bool stopping_ GOSH_GUARDED_BY(lifecycle_mutex_) = false;
  unsigned outstanding_ GOSH_GUARDED_BY(lifecycle_mutex_) = 0;
  std::unique_ptr<std::thread> probe_thread_;
};

/// One query over the wire: renders `request`, POSTs it to /v1/query
/// through `replicas` and parses the answer. `status` receives the call's
/// backend, retries, hedge, seconds and error; `status.ok` mirrors the
/// result. kInvalidArgument when the request does not render (a filter
/// predicate without its [begin, end) range); kUnavailable when no replica
/// answered, or the answer is not one result list per query.
api::Result<QueryResponse> forward_query(ReplicaSet& replicas,
                                         const QueryRequest& request,
                                         ShardStatus& status);

/// QueryService over a ReplicaSet of backends serving the SAME store —
/// the "remote:" strategy. Vertex queries forward natively (the backend
/// holds the full store); filters forward as their [begin, end) range.
class RemoteService final : public QueryService {
 public:
  /// `endpoints` are replicas of one logical service. Learns rows/dim
  /// from a backend's /healthz (bounded retries across replicas); opens
  /// options.store_path locally for row_vector() when it names a store.
  static api::Result<std::unique_ptr<RemoteService>> open(
      std::vector<Endpoint> endpoints, const ServeOptions& options,
      MetricsRegistry* metrics = nullptr);

  api::Result<QueryResponse> serve(const QueryRequest& request) override;
  vid_t rows() const noexcept override { return rows_; }
  unsigned dim() const noexcept override { return dim_; }
  Metric default_metric() const noexcept override { return metric_; }
  std::string_view strategy_name() const noexcept override { return "remote"; }
  api::Result<std::vector<float>> row_vector(vid_t v) const override;

  ReplicaSet& replicas() noexcept { return *replicas_; }

 private:
  RemoteService() = default;

  std::unique_ptr<ReplicaSet> replicas_;
  std::unique_ptr<store::EmbeddingStore> local_store_;  ///< may be null
  vid_t rows_ = 0;
  unsigned dim_ = 0;
  Metric metric_ = Metric::kCosine;
  unsigned default_k_ = 10;
  Counter* requests_ = nullptr;
  Histogram* seconds_ = nullptr;
};

}  // namespace gosh::serving
