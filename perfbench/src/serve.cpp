// Serving workloads: serve-exact, serve-trained and serve-dist.
//
// Each writes a GSHS store and drives it over loopback HTTP with vertex
// queries drawn Zipf(s=1.0) over vertices, k=10, cache off. serve-exact and
// serve-dist store 20,000 x 64 seeded random rows; serve-trained stores the
// embedding one train-resident embed learns from the seed's graph (~64.6k x
// 128). serve-exact and serve-trained put one HttpServer in front of the
// exact scan; serve-dist shards the store 3 ways behind three in-process
// children and a dist-router parent. The load generator is one process:
//
//   * in-process: the query stream through QueryService::serve, no
//     sockets (query.inproc_qps, and the reference answers);
//   * closed loop: one keep-alive connection per client thread, next
//     request as soon as the previous answer lands (throughput);
//   * open loop: a fixed offered rate, each request timed from its
//     scheduled send, with the generator's own lag recorded (latency).
//
// Every answer is checked against the in-process exact scan of the
// unsharded store: ids in order (serve-exact), ids and scores bit for bit
// and never "degraded" (serve-dist).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gosh/api/api.hpp"
#include "gosh/common/zipf.hpp"
#include "gosh/net/json.hpp"
#include "gosh/trace/trace.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace gosh;

constexpr unsigned kK = 10;
constexpr unsigned kShards = 3;
constexpr double kZipfS = 1.0;
constexpr int kSetupRepeats = 7;
constexpr std::size_t kStreamLength = 2048;
/// Each load phase is cut into this many equal windows; throughput and
/// quantiles are reported as the median over windows, so a burst of host
/// contention that spoils one window does not move the result.
constexpr std::size_t kWindows = 8;
/// Open-loop offered rates against closed-loop saturation on a 4-vCPU host:
/// exact ~5600 q/s (worst seen ~4000), dist-router ~1800 q/s (worst seen
/// ~670, when the shared host got busy — every request spawns its scatter
/// threads). Fixed, so that two commits see identical load; the exact
/// rates are recorded on their BENCHMARK.json workload lines. The trained
/// store is ~6.5x larger: ~1200 q/s closed loop, a quarter of it offered.
constexpr double kOpenRateExact = 2000.0;
constexpr double kOpenRateTrained = 300.0;
constexpr double kOpenRateDist = 300.0;

struct Shape {
  vid_t rows;
  unsigned dim;
  double open_rate;
};

/// serve-trained's rows and dim come from its embedding instead.
Shape shape_for(const RunConfig& config) {
  const bool dist = config.workload == "serve-dist";
  if (config.tiny) return {2000, 16, dist ? 200.0 : 400.0};
  if (config.workload == "serve-trained") return {0, 0, kOpenRateTrained};
  return {20000, 64, dist ? kOpenRateDist : kOpenRateExact};
}

unsigned client_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(hw, 1u, 4u);
}

std::string query_body(vid_t probe) {
  return "{\"queries\":[{\"vertex\":" + std::to_string(probe) +
         "}],\"k\":" + std::to_string(kK) + "}";
}

/// One loopback server with its own service, handler and registry — what a
/// gosh_serve process holds, in-process.
struct Backend {
  serving::MetricsRegistry metrics;
  std::unique_ptr<serving::QueryService> service;
  std::unique_ptr<net::QueryHandler> handler;
  net::HealthState health;
  std::unique_ptr<net::HttpServer> server;

  ~Backend() {
    if (server != nullptr) server->shutdown();
  }
};

api::Result<std::unique_ptr<Backend>> start_backend(
    const serving::ServeOptions& options, trace::Tracer* tracer,
    vid_t rows, unsigned dim) {
  auto backend = std::make_unique<Backend>();
  auto service = serving::make_service(options, &backend->metrics);
  if (!service.ok()) return service.status();
  backend->service = std::move(service.value());
  backend->handler = std::make_unique<net::QueryHandler>(*backend->service);
  net::NetOptions net_options;
  net_options.host = "127.0.0.1";
  net_options.port = 0;
  net_options.threads = client_threads();
  backend->server =
      std::make_unique<net::HttpServer>(net_options, &backend->metrics, tracer);
  net::QueryHandler* handler = backend->handler.get();
  backend->server->handle("POST", "/v1/query",
                          [handler](const net::HttpRequest& request) {
                            return handler->handle(request);
                          });
  net::add_builtin_routes(*backend->server, backend->metrics, nullptr,
                          &backend->health);
  if (api::Status status = backend->server->start(); !status.is_ok()) {
    return status;
  }
  backend->health.rows.store(rows, std::memory_order_relaxed);
  backend->health.dim.store(dim, std::memory_order_relaxed);
  backend->health.shards.store(
      options.shard_count > 0 ? options.shard_count : 1,
      std::memory_order_relaxed);
  backend->health.ready.store(true, std::memory_order_release);
  return backend;
}

/// One complete set-up: the store on disk, every service open, every
/// server listening. `front` is the server the load generator hits.
struct Deployment {
  std::vector<std::unique_ptr<Backend>> children;
  std::unique_ptr<Backend> front;
  double write_s = 0.0;
  double open_s = 0.0;
  std::uint64_t bytes = 0;
};

api::Result<std::unique_ptr<Deployment>> deploy(
    const embedding::EmbeddingMatrix& matrix, const std::string& dir, bool dist,
    trace::Tracer* front_tracer, trace::Tracer* child_tracer) {
  auto deployment = std::make_unique<Deployment>();
  std::filesystem::create_directories(dir);
  const std::string store_path = dir + "/store.gshs";
  store::StoreOptions layout;
  if (dist) layout.rows_per_shard = (matrix.rows() + kShards - 1) / kShards;
  WallTimer timer;
  if (api::Status status = store::EmbeddingStore::write(matrix, store_path,
                                                        layout);
      !status.is_ok()) {
    return status;
  }
  deployment->write_s = timer.seconds();
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) deployment->bytes += entry.file_size();
  }

  serving::ServeOptions options;
  options.store_path = store_path;
  options.strategy = "exact";
  options.k = kK;
  options.verify_checksums = false;
  // One scan thread per request: the client connections already keep
  // every core busy, and the default per-request fan-out over the pool
  // made both throughput and latency swing with host contention (see
  // README.md, "Scan threads").
  options.threads = 1;
  timer.reset();
  if (!dist) {
    auto front = start_backend(options, front_tracer, matrix.rows(),
                               matrix.dim());
    if (!front.ok()) return front.status();
    deployment->front = std::move(front.value());
    deployment->open_s = timer.seconds();
    return deployment;
  }
  std::string backends;
  for (unsigned s = 0; s < kShards; ++s) {
    serving::ServeOptions child = options;
    child.shard_index = s;
    child.shard_count = kShards;
    const vid_t begin = s * layout.rows_per_shard;
    const vid_t shard_rows = static_cast<vid_t>(std::min<std::uint64_t>(
        layout.rows_per_shard, matrix.rows() - begin));
    auto backend = start_backend(child, child_tracer, shard_rows, matrix.dim());
    if (!backend.ok()) return backend.status();
    if (!backends.empty()) backends += ",";
    backends += "127.0.0.1:" + std::to_string(backend.value()->server->port());
    deployment->children.push_back(std::move(backend.value()));
  }
  serving::ServeOptions parent = options;
  parent.strategy = "dist-router";
  parent.backends = backends;
  // Generous budget: on a healthy loopback a degraded answer is a failure
  // this benchmark reports, not a deadline it provokes.
  parent.remote_deadline_ms = 2000;
  parent.remote_retries = 1;
  auto front = start_backend(parent, front_tracer, matrix.rows(), matrix.dim());
  if (!front.ok()) return front.status();
  deployment->front = std::move(front.value());
  deployment->open_s = timer.seconds();
  return deployment;
}

using Reference = std::unordered_map<vid_t, std::vector<serving::Neighbor>>;

/// Checks one answer against the in-process exact scan of the unsharded
/// store, on the client thread that received it (no body is kept). Reads
/// only the reference map, which is complete before any load starts.
struct Checker {
  const Reference& reference;
  bool dist = false;

  /// Empty when the answer is right; otherwise what is wrong with it.
  std::string check(vid_t probe,
                    const api::Result<net::HttpResponse>& response) const {
    if (!response.ok()) return "transport error";
    if (response.value().status / 100 != 2) {
      return "HTTP " + std::to_string(response.value().status);
    }
    auto parsed = net::json::Value::parse(response.value().body);
    auto answer = parsed.ok()
                      ? net::QueryHandler::parse_response(parsed.value())
                      : api::Result<serving::QueryResponse>(parsed.status());
    if (!answer.ok()) return "unparsable answer";
    if (answer.value().degraded) return "degraded answer";
    if (answer.value().results.size() != 1) return "wrong result-list count";
    const auto want = reference.find(probe);
    if (want == reference.end()) return "no reference answer";
    const auto& got = answer.value().results[0];
    bool same = got.size() == want->second.size();
    for (std::size_t i = 0; same && i < got.size(); ++i) {
      same = got[i].id == want->second[i].id &&
             (!dist || got[i].score == want->second[i].score);
    }
    if (same) return {};
    return dist ? "ids or scores differ from the exact scan"
                : "ids differ from the exact scan";
  }
};

/// One answered request as the client saw it.
struct Sample {
  vid_t probe = 0;
  double latency_s = 0.0;  ///< from scheduled send (open) or send (closed)
  double lag_s = 0.0;      ///< open loop: actual send - scheduled send
  double at_s = 0.0;       ///< completion (closed) or due time (open),
                           ///< seconds since the phase started
  int status = 0;          ///< HTTP status; 0 = transport error
  std::string error;       ///< empty when the answer checked out
};

struct Phase {
  std::vector<Sample> samples;
  double seconds = 0.0;
};

void record(Sample& sample, const Checker& checker,
            const api::Result<net::HttpResponse>& response) {
  if (response.ok()) sample.status = response.value().status;
  sample.error = checker.check(sample.probe, response);
}

/// Closed loop: `threads` clients, each one keep-alive connection, until
/// `seconds` elapse.
Phase closed_loop(unsigned short port, const std::vector<vid_t>& probes,
                  const Checker& checker, unsigned threads, double seconds) {
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<Sample>> per_thread(threads);
  std::vector<std::thread> clients;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  WallTimer phase_timer;
  for (unsigned t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      net::HttpClient client("127.0.0.1", port);
      while (std::chrono::steady_clock::now() < deadline) {
        const std::size_t i = next.fetch_add(1) % probes.size();
        Sample sample;
        sample.probe = probes[i];
        WallTimer timer;
        auto response = client.post_json("/v1/query", query_body(sample.probe));
        sample.latency_s = timer.seconds();
        sample.at_s = phase_timer.seconds();
        record(sample, checker, response);
        per_thread[t].push_back(std::move(sample));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  Phase phase;
  phase.seconds = phase_timer.seconds();
  for (auto& samples : per_thread) {
    for (Sample& sample : samples) phase.samples.push_back(std::move(sample));
  }
  return phase;
}

/// Open loop: request i is due at start + i/rate whatever happened to the
/// earlier ones; `threads` senders take due requests in order. Latency
/// runs from the due time, so a stall is charged to every request it
/// delays. Traced runs tag request i with X-Request-Id "pb-<i>".
Phase open_loop(unsigned short port, const std::vector<vid_t>& probes,
                const Checker& checker, unsigned threads, double rate,
                double seconds, bool tag) {
  const auto count = static_cast<std::size_t>(rate * seconds);
  std::atomic<std::size_t> next{0};
  std::vector<Sample> samples(count);
  const auto start = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(20);
  std::vector<std::thread> senders;
  for (unsigned t = 0; t < threads; ++t) {
    senders.emplace_back([&] {
      net::HttpClient client("127.0.0.1", port);
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= count) return;
        const auto due =
            start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(static_cast<double>(i) /
                                                      rate));
        std::this_thread::sleep_until(due);
        Sample& sample = samples[i];
        sample.probe = probes[i % probes.size()];
        const auto sent = std::chrono::steady_clock::now();
        std::vector<net::Header> headers = {
            {"Content-Type", "application/json"}};
        if (tag) headers.push_back({"X-Request-Id", "pb-" + std::to_string(i)});
        auto response = client.request("POST", "/v1/query",
                                       query_body(sample.probe), headers);
        const auto done = std::chrono::steady_clock::now();
        sample.latency_s = std::chrono::duration<double>(done - due).count();
        sample.lag_s = std::chrono::duration<double>(sent - due).count();
        sample.at_s = static_cast<double>(i) / rate;
        record(sample, checker, response);
      }
    });
  }
  for (std::thread& sender : senders) sender.join();
  Phase phase;
  phase.samples = std::move(samples);
  phase.seconds = seconds;
  return phase;
}

/// Counts a phase's operations into `out` (every failed check is a failed
/// operation) and returns the share of answers that checked out.
double tally(const Phase& phase, const char* label, RunResult& out,
             std::uint64_t& non2xx) {
  std::uint64_t matched = 0;
  std::string first_error;
  for (const Sample& sample : phase.samples) {
    ++out.attempted;
    if (sample.status != 0 && sample.status / 100 != 2) ++non2xx;
    if (sample.error.empty()) {
      ++matched;
      continue;
    }
    ++out.failed;
    if (first_error.empty()) {
      first_error = sample.error + " for vertex " + std::to_string(sample.probe);
    }
  }
  if (!first_error.empty()) out.fail(std::string(label) + ": " + first_error);
  return phase.samples.empty()
             ? 0.0
             : static_cast<double>(matched) / phase.samples.size();
}

std::vector<double> latencies_ms(const Phase& phase) {
  std::vector<double> values;
  values.reserve(phase.samples.size());
  for (const Sample& sample : phase.samples) {
    values.push_back(sample.latency_s * 1e3);
  }
  return values;
}

std::vector<double> lags_ms(const Phase& phase) {
  std::vector<double> values;
  values.reserve(phase.samples.size());
  for (const Sample& sample : phase.samples) values.push_back(sample.lag_s * 1e3);
  return values;
}

/// The phase cut into `windows` equal slices of its duration by sample
/// time; each slice holds its latencies in ms.
std::vector<std::vector<double>> windows_ms(const Phase& phase,
                                            std::size_t windows) {
  std::vector<std::vector<double>> out(windows);
  for (const Sample& sample : phase.samples) {
    auto w = static_cast<std::size_t>(sample.at_s / phase.seconds *
                                      static_cast<double>(windows));
    out[std::min(w, windows - 1)].push_back(sample.latency_s * 1e3);
  }
  return out;
}

/// Value of an unlabelled counter line "name value" in a /metrics body.
double scrape_counter(unsigned short port, const std::string& name) {
  net::HttpClient client("127.0.0.1", port);
  auto response = client.get("/metrics");
  if (!response.ok() || response.value().status != 200) return -1.0;
  const std::string& body = response.value().body;
  std::size_t at = 0;
  while ((at = body.find(name, at)) != std::string::npos) {
    const bool line_start = at == 0 || body[at - 1] == '\n';
    const std::size_t after = at + name.size();
    if (line_start && after < body.size() && body[after] == ' ') {
      return std::strtod(body.c_str() + after + 1, nullptr);
    }
    at = after;
  }
  return 0.0;  // never incremented: not yet exported
}

/// Mean per-request self times from the traced phase, by layer.
struct Breakdown {
  std::size_t requests = 0;
  std::map<std::string, double> mean_s;  ///< span family -> mean self s
  double shard_max_s = 0.0;              ///< mean slowest shard-N span
  double remote_call_s = 0.0;            ///< mean remote-call duration sum
  double wire_s = 0.0;                   ///< mean client latency - handler
  double latency_s = 0.0;                ///< mean client latency
};

Breakdown front_breakdown(const trace::Tracer& tracer, const Phase& phase) {
  std::unordered_map<std::string, std::shared_ptr<trace::Trace>> by_id;
  for (auto& t : tracer.snapshot()) by_id[t->request_id()] = t;
  Breakdown out;
  for (std::size_t i = 0; i < phase.samples.size(); ++i) {
    const auto found = by_id.find("pb-" + std::to_string(i));
    if (found == by_id.end()) continue;
    const auto spans = found->second->spans();
    ++out.requests;
    for (const auto& [family, seconds] : self_seconds(spans)) {
      out.mean_s[family] += seconds;
    }
    double handler = 0.0, shard_max = 0.0, remote = 0.0;
    for (const auto& span : spans) {
      const double d = static_cast<double>(span.end_ns - span.begin_ns) * 1e-9;
      const std::string family = span_family(span.name);
      if (family == "handler") handler += d;
      if (family == "shard") shard_max = std::max(shard_max, d);
      if (family == "remote-call" || family == "hedge") remote += d;
    }
    out.shard_max_s += shard_max;
    out.remote_call_s += remote;
    out.wire_s += phase.samples[i].latency_s - handler;
    out.latency_s += phase.samples[i].latency_s;
  }
  if (out.requests > 0) {
    const double n = static_cast<double>(out.requests);
    for (auto& [family, seconds] : out.mean_s) seconds /= n;
    out.shard_max_s /= n;
    out.remote_call_s /= n;
    out.wire_s /= n;
    out.latency_s /= n;
  }
  return out;
}

/// Mean self time per span family over the query traces of `tracer`
/// (health probes are traced too, and are skipped).
std::map<std::string, double> mean_self(const trace::Tracer& tracer,
                                        std::size_t& traces) {
  std::map<std::string, double> sums;
  traces = 0;
  for (const auto& t : tracer.snapshot()) {
    if (t->label() != "POST /v1/query") continue;
    ++traces;
    for (const auto& [family, seconds] : self_seconds(t->spans())) {
      sums[family] += seconds;
    }
  }
  for (auto& [family, seconds] : sums) {
    seconds /= std::max<std::size_t>(traces, 1);
  }
  return sums;
}

double at(const std::map<std::string, double>& values, const char* key) {
  const auto it = values.find(key);
  return it == values.end() ? 0.0 : it->second;
}

/// One deployment's traced measurement: the open loop once untraced,
/// then once with every request traced.
struct TracedRun {
  Phase plain;
  Phase traced;
  Breakdown front;
  std::map<std::string, double> child;  ///< mean self time, child requests
  double counters[3] = {0, 0, 0};       ///< retries, hedges, degraded deltas
  std::uint64_t non2xx = 0;
  double overhead = 0.0;                ///< traced p50 / untraced p50
};

/// Runs both open loops against `port`, counts their operations into
/// `out`, and prints each layer's self time along the blocking path next
/// to the untraced p50 with the gap the spans leave unexplained.
TracedRun trace_deployment(const char* label, unsigned short port,
                           trace::Tracer& front_tracer,
                           trace::Tracer& child_tracer, std::size_t ring,
                           bool dist, const std::vector<vid_t>& probes,
                           const Checker& checker, unsigned threads,
                           double rate, double seconds, RunResult& out) {
  static const char* const kRemoteCounters[] = {
      "gosh_remote_retries_total", "gosh_remote_hedges_total",
      "gosh_remote_degraded_responses_total"};
  TracedRun run;
  for (int c = 0; c < 3; ++c) {
    run.counters[c] = -scrape_counter(port, kRemoteCounters[c]);
  }
  run.plain = open_loop(port, probes, checker, threads, rate, seconds, false);
  const auto switch_tracing = [&](double sample_rate) {
    front_tracer.configure(trace::TraceOptions{sample_rate, 0.0, ring, 42});
    child_tracer.configure(
        trace::TraceOptions{sample_rate, 0.0, ring * (kShards + 1), 42});
  };
  switch_tracing(1.0);
  run.traced = open_loop(port, probes, checker, threads, rate, seconds, true);
  switch_tracing(0.0);
  tally(run.plain, "open loop (untraced)", out, run.non2xx);
  tally(run.traced, "open loop (traced)", out, run.non2xx);
  for (int c = 0; c < 3; ++c) {
    run.counters[c] += scrape_counter(port, kRemoteCounters[c]);
  }
  run.front = front_breakdown(front_tracer, run.traced);
  std::size_t child_traces = 0;
  run.child = mean_self(child_tracer, child_traces);
  const double plain_p50 = quantile(latencies_ms(run.plain), 0.5);
  const double traced_p50 = quantile(latencies_ms(run.traced), 0.5);
  run.overhead = plain_p50 > 0 ? traced_p50 / plain_p50 : 0.0;

  std::printf("\n%s traced open loop: %zu of %zu requests matched to a "
              "trace, %.1f q/s offered\n",
              label, run.front.requests, run.traced.samples.size(), rate);
  std::printf("blocking path, mean self time per request (ms):\n");
  // Parallel shard spans overlap: only the slowest one blocks the answer.
  double explained = dist ? run.front.shard_max_s : 0.0;
  for (const auto& [family, seconds] : run.front.mean_s) {
    std::printf("  front %-12s %9.4f%s\n", family.c_str(), seconds * 1e3,
                family == "shard" ? "  (sum over shards, run in parallel)"
                                  : "");
    if (family != "shard") explained += seconds;
  }
  if (dist) {
    std::printf("  (%zu child traces; per child request:)\n", child_traces);
    for (const auto& [family, seconds] : run.child) {
      std::printf("  child %-12s %9.4f\n", family.c_str(), seconds * 1e3);
    }
    std::printf("  slowest shard span %9.4f ms per request (inside scatter)\n",
                run.front.shard_max_s * 1e3);
  }
  std::printf("  wire (client - handler) %9.4f\n", run.front.wire_s * 1e3);
  std::printf("traced mean latency %.4f ms = spans %.4f + wire %.4f\n",
              run.front.latency_s * 1e3, explained * 1e3,
              run.front.wire_s * 1e3);
  std::printf("untraced query p50 %.4f ms vs front spans %.4f ms: "
              "unexplained gap %.4f ms (socket, kernel, client)\n",
              plain_p50, explained * 1e3, plain_p50 - explained * 1e3);
  std::printf("trace.overhead %.4f (traced p50 %.4f ms / untraced %.4f ms)\n",
              run.overhead, traced_p50, plain_p50);
  return run;
}

}  // namespace

RunResult run_serve(const RunConfig& config) {
  RunResult out;
  const bool dist = config.workload == "serve-dist";
  const bool trained = config.workload == "serve-trained";
  Shape shape = shape_for(config);
  const unsigned threads = client_threads();
  ScratchDir scratch(config.scratch_root, config.workload, config.seed);

  // ---- Inputs from the seed: the stored rows and the query stream. ------
  // The trained rows' embed is input preparation, outside every end-to-end
  // metric; a traced run keeps training's per-layer metrics.
  embedding::EmbeddingMatrix matrix;
  if (trained) {
    RunResult training = train_rows(config, matrix);
    out.attempted += training.attempted;
    out.failed += training.failed;
    for (std::string& why : training.errors) out.fail(std::move(why));
    if (!training.correct) return out;
    if (config.trace) {
      for (Metric& metric : training.metrics) {
        // Serving reports its own tracing overhead.
        if (metric.name != "trace.overhead") out.metrics.push_back(metric);
      }
    }
    shape.rows = matrix.rows();
    shape.dim = matrix.dim();
    std::printf("\n");
  } else {
    matrix = embedding::EmbeddingMatrix(shape.rows, shape.dim);
    matrix.initialize_random(config.seed);
  }
  Rng rng(config.seed + 7);
  ZipfSampler zipf(shape.rows, kZipfS, rng);
  // A Zipf-drawn stream the phases cycle through; its length bounds the
  // distinct probes the reference scan has to answer.
  std::vector<vid_t> probes(kStreamLength);
  for (vid_t& probe : probes) probe = zipf.sample(rng);

  // ---- Set-up: store write + open + server start, repeated; the last one
  // stays up. Traced runs hand their servers a tracer that starts off.
  const std::size_t ring =
      static_cast<std::size_t>(shape.open_rate * config.seconds) + 1024;
  trace::Tracer front_tracer(trace::TraceOptions{0.0, 0.0, ring, 42});
  trace::Tracer child_tracer(
      trace::TraceOptions{0.0, 0.0, ring * (kShards + 1), 42});
  std::vector<double> setup_s, write_s, open_s;
  std::unique_ptr<Deployment> live;
  for (int i = 0; i < kSetupRepeats; ++i) {
    live.reset();  // the previous set-up's servers go down first
    WallTimer timer;
    ++out.attempted;
    auto deployed = deploy(matrix, scratch.file("setup-" + std::to_string(i)),
                           dist, config.trace ? &front_tracer : nullptr,
                           config.trace ? &child_tracer : nullptr);
    if (!deployed.ok()) {
      ++out.failed;
      out.fail("set-up: " + deployed.status().to_string());
      return out;
    }
    setup_s.push_back(timer.seconds());
    write_s.push_back(deployed.value()->write_s);
    open_s.push_back(deployed.value()->open_s);
    live = std::move(deployed.value());
  }
  const unsigned short port = live->front->server->port();

  // ---- In-process: the same stream through QueryService::serve on the
  // unsharded store; also the reference answers every check compares to.
  serving::ServeOptions reference_options;
  reference_options.store_path = scratch.file("reference.gshs");
  if (api::Status status = store::EmbeddingStore::write(
          matrix, reference_options.store_path, {});
      !status.is_ok()) {
    out.fail("reference store: " + status.to_string());
    return out;
  }
  reference_options.strategy = "exact";
  reference_options.k = kK;
  reference_options.verify_checksums = false;
  auto reference_service = serving::make_service(reference_options);
  if (!reference_service.ok()) {
    out.fail("reference service: " + reference_service.status().to_string());
    return out;
  }
  Reference reference;
  const double inproc_budget = std::min(1.0, 0.1 * config.seconds);
  std::size_t inproc_queries = 0;
  WallTimer inproc_timer;
  while (inproc_timer.seconds() < inproc_budget || inproc_queries < 100) {
    const vid_t probe = probes[inproc_queries % probes.size()];
    auto response = reference_service.value()->serve(
        serving::QueryRequest::for_vertex(probe, kK));
    ++inproc_queries;
    if (!response.ok()) {
      out.fail("in-process serve: " + response.status().to_string());
      return out;
    }
    reference.emplace(probe, std::move(response.value().results[0]));
  }
  const double inproc_qps = inproc_queries / inproc_timer.seconds();
  // Every probe of the stream gets a reference answer.
  for (const vid_t probe : probes) {
    if (reference.count(probe) != 0) continue;
    auto response = reference_service.value()->serve(
        serving::QueryRequest::for_vertex(probe, kK));
    if (!response.ok()) {
      out.fail("in-process serve: " + response.status().to_string());
      return out;
    }
    reference.emplace(probe, std::move(response.value().results[0]));
  }

  const Checker checker{reference, dist};
  if (!config.trace) {
    std::uint64_t non2xx = 0;
    // ---- End-to-end: closed loop, then open loop, both untraced. --------
    // The gated metrics come from the closed loop, so it gets most of the
    // time; the open loop's figures are printed.
    const Phase closed =
        closed_loop(port, probes, checker, threads, 0.6 * config.seconds);
    const Phase open = open_loop(port, probes, checker, threads,
                                 shape.open_rate, 0.3 * config.seconds, false);
    const double closed_ok = tally(closed, "closed loop", out, non2xx);
    const double open_ok = tally(open, "open loop", out, non2xx);
    const auto closed_ms = latencies_ms(closed);
    const auto open_ms = latencies_ms(open);
    const auto lag = lags_ms(open);
    const auto closed_w = windows_ms(closed, kWindows);
    const auto open_w = windows_ms(open, kWindows);
    std::vector<double> w_qps, w_closed_p50, w_p50, w_p90;
    std::printf("window  closed q/s  closed p50 ms |  open n   p50 ms   p90 ms\n");
    for (std::size_t w = 0; w < kWindows; ++w) {
      w_qps.push_back(closed_w[w].size() / (closed.seconds / kWindows));
      w_closed_p50.push_back(quantile(closed_w[w], 0.5));
      w_p50.push_back(quantile(open_w[w], 0.5));
      w_p90.push_back(quantile(open_w[w], 0.9));
      std::printf("%6zu  %10.1f  %13.4f | %6zu  %7.4f  %7.4f\n", w, w_qps[w],
                  w_closed_p50[w], open_w[w].size(), w_p50[w], w_p90[w]);
    }
    const double qps = median(w_qps);
    std::printf("%s: %u rows x %u dim, k=%u, zipf s=%.1f, %u client threads\n",
                config.workload.c_str(), shape.rows, shape.dim, kK, kZipfS,
                threads);
    std::printf("in-process   %10.1f q/s (%zu queries, no sockets)\n",
                inproc_qps, inproc_queries);
    std::printf("closed loop  %10.1f q/s window median (%zu queries, %.2f s), "
                "latency p50 %.4f ms p99 %.4f ms\n",
                qps, closed.samples.size(), closed.seconds,
                quantile(closed_ms, 0.5), quantile(closed_ms, 0.99));
    std::printf("open loop    %10.1f q/s offered, %zu requests: p50 %.4f ms, "
                "p99 %.4f ms (%zu samples beyond p99); generator lag p50 "
                "%.4f ms p99 %.4f ms\n",
                shape.open_rate, open.samples.size(), quantile(open_ms, 0.5),
                quantile(open_ms, 0.99), open_ms.size() / 100,
                quantile(lag, 0.5), quantile(lag, 0.99));
    std::printf("error_rate   %.6f (%llu failed of %llu attempted)\n",
                out.attempted ? static_cast<double>(out.failed) / out.attempted
                              : 0.0,
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));
    out.set("setup_s", median(setup_s), "s");
    out.set("throughput_per_s", qps, "1/s");
    // Closed-loop latency: the open loop's p50 swung 0.9-2.6 ms between
    // runs as idle cores woke slowly on a contended host (README.md).
    out.set("latency_p50_ms", median(w_closed_p50), "ms");
    out.set("quality", std::min(closed_ok, open_ok), "ratio");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // ---- Traced run: self times along the blocking path. serve-exact also
  // traces a dist-router rung over the same rows, so the serving layer
  // (scatter, shards, merge) is measured on a gated workload too;
  // serve-trained has no scatter.
  const double phase_s = 0.25 * config.seconds;
  const TracedRun main = trace_deployment(
      config.workload.c_str(), port, front_tracer, child_tracer, ring, dist,
      probes, checker, threads, shape.open_rate, phase_s, out);
  const TracedRun* scatter = dist ? &main : nullptr;
  // The rung's servers hold these tracers: declared first, destroyed last.
  trace::Tracer rung_front(trace::TraceOptions{0.0, 0.0, ring, 42});
  trace::Tracer rung_child(
      trace::TraceOptions{0.0, 0.0, ring * (kShards + 1), 42});
  std::unique_ptr<Deployment> rung;
  TracedRun ladder;
  if (config.workload == "serve-exact") {
    ++out.attempted;
    auto deployed = deploy(matrix, scratch.file("dist-rung"), true,
                           &rung_front, &rung_child);
    if (!deployed.ok()) {
      ++out.failed;
      out.fail("dist-router rung: " + deployed.status().to_string());
      return out;
    }
    rung = std::move(deployed.value());
    const Checker rung_checker{reference, true};
    ladder = trace_deployment("serve-exact, dist-router rung",
                              rung->front->server->port(), rung_front,
                              rung_child, ring, true, probes, rung_checker,
                              threads, kOpenRateDist, phase_s, out);
    scatter = &ladder;
  }

  out.set("store.write_s", median(write_s), "s");
  out.set("store.open_s", median(open_s), "s");
  out.set("store.bytes", static_cast<double>(live->bytes), "B");
  out.set("query.inproc_qps", inproc_qps, "1/s");
  // Exact: the scan runs in the front trace; dist: in each child's trace.
  out.set("query.scan_s",
          dist ? at(main.child, "scan") : at(main.front.mean_s, "scan"), "s");
  out.set("query.bytes_per_query",
          static_cast<double>(shape.rows) * shape.dim * sizeof(float), "B");
  if (scatter != nullptr) {
    out.set("serving.scatter_s", at(scatter->front.mean_s, "scatter"), "s");
    out.set("serving.shard_max_s", scatter->front.shard_max_s, "s");
    out.set("serving.merge_s", at(scatter->front.mean_s, "merge"), "s");
    out.set("serving.remote_call_s", scatter->front.remote_call_s, "s");
    out.set("serving.retries", scatter->counters[0], "count");
    out.set("serving.hedges", scatter->counters[1], "count");
    out.set("serving.degraded", scatter->counters[2], "count");
  }
  out.set("net.handler_s", at(main.front.mean_s, "handler"), "s");
  out.set("net.parse_s", at(main.front.mean_s, "parse"), "s");
  out.set("net.serve_s", at(main.front.mean_s, "serve"), "s");
  out.set("net.render_s", at(main.front.mean_s, "render"), "s");
  out.set("net.wire_s", main.front.wire_s, "s");
  out.set("net.non2xx", static_cast<double>(main.non2xx + ladder.non2xx),
          "count");
  out.set("loadgen.p50_ms", quantile(latencies_ms(main.plain), 0.5), "ms");
  out.set("loadgen.p99_ms", quantile(latencies_ms(main.plain), 0.99), "ms");
  out.set("loadgen.lag_p99_ms", quantile(lags_ms(main.traced), 0.99), "ms");
  out.set("trace.overhead", main.overhead, "ratio");
  return out;
}

}  // namespace perfbench
