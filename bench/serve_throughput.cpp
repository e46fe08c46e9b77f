// The serving smokes' client: drives an external gosh_serve over HTTP and
// checks what it answers. Serving throughput is measured by perfbench
// (`python3 perfbench/run.py --workload serve-exact|serve-trained|
// serve-dist`), which takes seed and window medians and checks every
// answer against the exact scan; this probe only has to prove the wire
// works end to end.
//
//   bench_serve_throughput --connect HOST:PORT [--shutdown]
//                          [--expect-traces] [--expect-cache]
//                          [--expect-degraded] [--expect-recovered]
//
// Polls /healthz until the server reports ready and reads its row count
// from there. Then a closed-loop load phase (64 vertex queries at
// concurrency 1, then 2; every client thread keeps one keep-alive
// connection) must see no transport error or non-2xx/429 answer, and the
// /metrics exposition must carry the per-endpoint series. Queries send no
// "k", so the server's default applies. Any other argument is an error.
//
// --expect-traces POSTs one query with an explicit X-Request-Id and
// asserts GET /debug/traces reports the span chain under that id —
// handler -> queue-wait -> scan -> merge when the answer came from a scan,
// handler -> cache-lookup when the server's semantic cache answered (the
// response's "cache" annotation picks the expectation).
// --expect-cache POSTs the same query twice so the second is a guaranteed
// exact-byte hit, asserts the "cache":["hit"] annotation, a nonzero
// gosh_cache_hits_total in /metrics, and the cache-lookup span under the
// hit's request id.
// --expect-degraded / --expect-recovered are the dist smoke's
// fault-tolerance probes against a dist-router parent: the first polls
// POST /v1/query until an answer carries "degraded": true AND the parent's
// /metrics count a nonzero gosh_remote_degraded_responses_total and
// gosh_remote_breaker_open_total (a shard child was killed and the router
// kept answering); the second polls until an answer comes back
// "degraded": false (the child restarted, the half-open probe closed the
// breaker, full merges are back). Both skip the load phase.
// --shutdown posts /admin/shutdown at the end.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "gosh/api/api.hpp"
#include "gosh/net/json.hpp"

namespace {

using namespace gosh;

/// The load phase: this many vertex queries at each concurrency level.
constexpr std::size_t kLoadRequests = 64;
constexpr unsigned kConcurrencyLevels[] = {1, 2};

int fail(const api::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
  return 1;
}

/// One vertex query as the wire sees it; no "k", so the server's default
/// applies.
std::string query_body(vid_t probe) {
  return "{\"queries\":[{\"vertex\":" + std::to_string(probe) + "}]}";
}

struct LoadResult {
  std::uint64_t ok_2xx = 0;
  std::uint64_t shed_429 = 0;
  std::uint64_t failed = 0;  ///< transport errors or non-2xx/429 statuses
};

/// Closed-loop phase: `concurrency` threads, each owning one keep-alive
/// connection, splitting the probe ids 0, 1, ... (mod `rows`) among them.
LoadResult run_closed_loop(const std::string& host, unsigned short port,
                           vid_t rows, unsigned concurrency) {
  std::atomic<std::uint64_t> ok{0}, shed{0}, failed{0};
  std::vector<std::thread> clients;
  clients.reserve(concurrency);
  for (unsigned c = 0; c < concurrency; ++c) {
    clients.emplace_back([&, c] {
      net::HttpClient client(host, port);
      for (std::size_t i = c; i < kLoadRequests; i += concurrency) {
        auto response = client.post_json(
            "/v1/query", query_body(static_cast<vid_t>(i % rows)));
        if (!response.ok()) {
          failed.fetch_add(1, std::memory_order_relaxed);
        } else if (response.value().status / 100 == 2) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else if (response.value().status == 429) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  return {ok.load(), shed.load(), failed.load()};
}

/// GET /metrics and sanity-check it is the Prometheus text format carrying
/// the per-endpoint series.
int scrape_metrics(const std::string& host, unsigned short port) {
  net::HttpClient client(host, port);
  auto response = client.get("/metrics");
  if (!response.ok()) return fail(response.status());
  if (response.value().status != 200) {
    std::fprintf(stderr, "error: /metrics answered %d\n",
                 response.value().status);
    return 1;
  }
  const std::string& body = response.value().body;
  for (const char* needle :
       {"# TYPE ", "gosh_http_requests_total_post_v1_query",
        "gosh_http_request_seconds_post_v1_query"}) {
    if (body.find(needle) == std::string::npos) {
      std::fprintf(stderr, "error: /metrics exposition is missing \"%s\"\n",
                   needle);
      return 1;
    }
  }
  std::printf("/metrics: %zu bytes, per-endpoint series present\n",
              body.size());
  return 0;
}

/// Query 0's "cache" annotation from a response body — "hit"/"miss"/
/// "skip", or "" when the annotation is absent (no cache in the path).
std::string cache_annotation(const std::string& body) {
  auto parsed = net::json::Value::parse(body);
  if (!parsed.ok()) return "";
  const net::json::Value* cache = parsed.value().find("cache");
  if (cache == nullptr || !cache->is_array() || cache->size() == 0) {
    return "";
  }
  return (*cache)[0].is_string() ? (*cache)[0].as_string() : "";
}

/// Scans /debug/traces for the named spans under one request id; fills
/// `missing` with the absentees. Returns nonzero on transport/JSON errors.
int spans_for_id(net::HttpClient& client, const std::string& id,
                 const std::vector<const char*>& names,
                 std::vector<std::string>& missing) {
  auto traces = client.get("/debug/traces");
  if (!traces.ok()) return fail(traces.status());
  if (traces.value().status != 200) {
    std::fprintf(stderr, "error: /debug/traces answered %d\n",
                 traces.value().status);
    return 1;
  }
  auto parsed = net::json::Value::parse(traces.value().body);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: /debug/traces is not strict JSON: %s\n",
                 parsed.status().to_string().c_str());
    return 1;
  }
  const net::json::Value* events = parsed.value().find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "error: /debug/traces carries no traceEvents\n");
    return 1;
  }
  for (const char* name : names) {
    bool found = false;
    for (std::size_t i = 0; i < events->size() && !found; ++i) {
      const net::json::Value& event = (*events)[i];
      const net::json::Value* event_name = event.find("name");
      const net::json::Value* args = event.find("args");
      const net::json::Value* request_id =
          args != nullptr ? args->find("request_id") : nullptr;
      found = event_name != nullptr && event_name->is_string() &&
              event_name->as_string() == name && request_id != nullptr &&
              request_id->is_string() && request_id->as_string() == id;
    }
    if (!found) missing.emplace_back(name);
  }
  return 0;
}

/// One POST under a client-chosen id with status + echo checks; returns
/// the body through `body_out` so callers can read the cache annotation.
int traced_post(net::HttpClient& client, const std::string& id, vid_t probe,
                std::string& body_out) {
  auto posted = client.request("POST", "/v1/query", query_body(probe),
                               {{"Content-Type", "application/json"},
                                {"X-Request-Id", id}});
  if (!posted.ok()) return fail(posted.status());
  if (posted.value().status != 200) {
    std::fprintf(stderr, "error: traced POST /v1/query answered %d\n",
                 posted.value().status);
    return 1;
  }
  const std::string* echoed = posted.value().header("X-Request-Id");
  if (echoed == nullptr || *echoed != id) {
    std::fprintf(stderr, "error: X-Request-Id was not echoed (got \"%s\")\n",
                 echoed != nullptr ? echoed->c_str() : "<missing>");
    return 1;
  }
  body_out = posted.value().body;
  return 0;
}

/// The tracing acceptance probe: one POST under a client-chosen request
/// id, then /debug/traces must report the span chain for exactly that id,
/// as strict JSON. A scan-served answer must show the batched strategy's
/// nested handler -> queue-wait -> scan -> merge chain. With the semantic
/// cache in the path the response annotation decides: a hit must show
/// handler -> cache-lookup, and a miss handler -> cache-lookup -> scan ->
/// cache-insert — the cache's k+1 over-fetch makes its sub-request
/// non-queueable, so misses reach the engine directly, not through the
/// BatchQueue. Requires the server to run --strategy batched with
/// sampling on — the smoke test's configuration.
int verify_traces(const std::string& host, unsigned short port) {
  net::HttpClient client(host, port);
  const std::string id = "smoke-trace-probe";
  std::string body;
  if (int rc = traced_post(client, id, 0, body); rc != 0) return rc;
  const std::string annotation = cache_annotation(body);
  const bool hit = annotation == "hit";
  const std::vector<const char*> expected =
      annotation.empty()
          ? std::vector<const char*>{"handler", "queue-wait", "scan", "merge"}
          : (hit ? std::vector<const char*>{"handler", "cache-lookup"}
                 : std::vector<const char*>{"handler", "cache-lookup", "scan",
                                            "cache-insert"});
  std::vector<std::string> missing;
  if (int rc = spans_for_id(client, id, expected, missing); rc != 0) return rc;
  if (!missing.empty()) {
    std::string list;
    for (const std::string& name : missing) list += " " + name;
    std::fprintf(stderr,
                 "error: /debug/traces is missing span(s)%s for "
                 "request id \"%s\" (%s-served)\n",
                 list.c_str(), id.c_str(), hit ? "cache" : "scan");
    return 1;
  }
  std::string chain;
  for (const char* name : expected) {
    if (!chain.empty()) chain += "/";
    chain += name;
  }
  std::printf("/debug/traces: %s spans present for \"%s\"\n", chain.c_str(),
              id.c_str());
  return 0;
}

/// One sample's value out of a Prometheus text exposition, or -1.0 when
/// the series is absent. The leading '\n' skips "# TYPE name ..." lines
/// and lands on the sample itself.
double metric_sample(const std::string& text, const char* name) {
  const std::string needle = std::string("\n") + name + " ";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

/// GET /metrics and read one counter; -1.0 on transport errors or when
/// the series has not been registered yet.
double scrape_metric(const std::string& host, unsigned short port,
                     const char* name) {
  net::HttpClient client(host, port);
  auto response = client.get("/metrics");
  if (!response.ok() || response.value().status != 200) return -1.0;
  return metric_sample(response.value().body, name);
}

/// The semantic-cache acceptance probe: POST the same vertex query twice
/// under distinct request ids. The first installs (or refreshes) the
/// entry; the second is a guaranteed exact-byte hit, so its response must
/// carry "cache":["hit"], /metrics must count a nonzero
/// gosh_cache_hits_total, and /debug/traces must hold the cache-lookup
/// span under the second id.
int verify_cache(const std::string& host, unsigned short port) {
  net::HttpClient client(host, port);
  std::string body;
  if (int rc = traced_post(client, "smoke-cache-warm", 1, body); rc != 0) {
    return rc;
  }
  const std::string hit_id = "smoke-cache-hit";
  if (int rc = traced_post(client, hit_id, 1, body); rc != 0) return rc;
  if (cache_annotation(body) != "hit") {
    std::fprintf(stderr,
                 "error: repeated query was not served from the cache "
                 "(response: %s)\n",
                 body.c_str());
    return 1;
  }
  if (scrape_metric(host, port, "gosh_cache_hits_total") <= 0.0) {
    std::fprintf(stderr,
                 "error: gosh_cache_hits_total is missing or zero in "
                 "/metrics after a guaranteed hit\n");
    return 1;
  }
  std::vector<std::string> missing;
  if (int rc = spans_for_id(client, hit_id, {"handler", "cache-lookup"},
                            missing);
      rc != 0) {
    return rc;
  }
  if (!missing.empty()) {
    std::fprintf(stderr,
                 "error: /debug/traces is missing the cache-lookup span "
                 "for the guaranteed hit \"%s\"\n",
                 hit_id.c_str());
    return 1;
  }
  std::printf("cache probe: hit annotated, gosh_cache_hits_total > 0, "
              "cache-lookup span present for \"%s\"\n",
              hit_id.c_str());
  return 0;
}

/// Polls /healthz until the server reports "ready": true, then returns
/// its "rows" through `rows_out`. gosh_serve listens before the store
/// loads, so a 200 alone does not mean it can answer queries.
int wait_until_ready(const std::string& host, unsigned short port,
                     unsigned timeout_ms, vid_t& rows_out) {
  net::HttpClient client(host, port);
  const unsigned step_ms = 200;
  for (unsigned waited = 0;; waited += step_ms) {
    auto health = client.get("/healthz");
    if (health.ok() && health.value().status == 200) {
      auto parsed = net::json::Value::parse(health.value().body);
      const net::json::Value* ready =
          parsed.ok() ? parsed.value().find("ready") : nullptr;
      if (ready != nullptr && ready->is_bool() && ready->as_bool()) {
        const net::json::Value* rows = parsed.value().find("rows");
        if (rows == nullptr || !rows->is_number() || rows->as_number() < 1) {
          std::fprintf(stderr,
                       "error: /healthz reports no rows to query: %s\n",
                       health.value().body.c_str());
          return 1;
        }
        rows_out = static_cast<vid_t>(rows->as_number());
        return 0;
      }
    }
    if (waited >= timeout_ms) {
      std::fprintf(stderr,
                   "error: %s:%u did not report ready within %u ms\n",
                   host.c_str(), port, timeout_ms);
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(step_ms));
  }
}

/// POSTs one vertex query and reads the answer's "degraded" annotation:
/// 1 = degraded merge, 0 = clean answer (flag false or absent),
/// -1 = transport error or non-200 (a breaker-shed 503 counts here).
int post_degraded(net::HttpClient& client) {
  auto response = client.post_json("/v1/query", query_body(0));
  if (!response.ok() || response.value().status != 200) return -1;
  auto parsed = net::json::Value::parse(response.value().body);
  if (!parsed.ok()) return -1;
  const net::json::Value* degraded = parsed.value().find("degraded");
  const bool is_degraded =
      degraded != nullptr && degraded->is_bool() && degraded->as_bool();
  return is_degraded ? 1 : 0;
}

/// The dist smoke's fault probe: with a shard child down, the dist-router
/// parent must keep answering 200 with "degraded": true, and its metrics
/// must show the degradation was counted and the breaker opened. Polls
/// because the kill is racing the first scatter.
int verify_degraded(const std::string& host, unsigned short port) {
  net::HttpClient client(host, port);
  for (int attempt = 0; attempt < 100; ++attempt) {
    const int state = post_degraded(client);
    const double degraded_total =
        scrape_metric(host, port, "gosh_remote_degraded_responses_total");
    const double breaker_total =
        scrape_metric(host, port, "gosh_remote_breaker_open_total");
    if (state == 1 && degraded_total > 0.0 && breaker_total > 0.0) {
      std::printf("degraded probe: partial merges annotated "
                  "(gosh_remote_degraded_responses_total %.0f, "
                  "gosh_remote_breaker_open_total %.0f)\n",
                  degraded_total, breaker_total);
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::fprintf(stderr,
               "error: no degraded answer with a counted breaker opening "
               "within 20 s of a shard going down\n");
  return 1;
}

/// The recovery probe: after the killed child restarts, the probe loop's
/// half-open breaker admission must restore clean full merges. Polls one
/// breaker cooldown + probe interval at a time.
int verify_recovered(const std::string& host, unsigned short port) {
  net::HttpClient client(host, port);
  for (int attempt = 0; attempt < 150; ++attempt) {
    if (post_degraded(client) == 0) {
      std::printf("recovery probe: clean merges restored "
                  "(\"degraded\": false)\n");
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::fprintf(stderr,
               "error: merges still degraded 30 s after the shard child "
               "came back\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect;
  bool remote_shutdown = false, expect_traces = false, expect_cache = false,
       expect_degraded = false, expect_recovered = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--connect") {
      if (i + 1 < argc) connect = argv[++i];
    } else if (arg == "--shutdown") {
      remote_shutdown = true;
    } else if (arg == "--expect-traces") {
      expect_traces = true;
    } else if (arg == "--expect-cache") {
      expect_cache = true;
    } else if (arg == "--expect-degraded") {
      expect_degraded = true;
    } else if (arg == "--expect-recovered") {
      expect_recovered = true;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      return 1;
    }
  }

  const std::size_t colon = connect.rfind(':');
  unsigned long long port_value = 0;
  if (colon != std::string::npos) {
    auto port_parsed = api::parse_unsigned(connect.substr(colon + 1));
    if (port_parsed.ok()) port_value = port_parsed.value();
  }
  if (colon == std::string::npos || port_value == 0 || port_value > 65535) {
    std::fprintf(stderr, "error: --connect wants HOST:PORT, got '%s'\n",
                 connect.c_str());
    return 1;
  }
  const std::string host = connect.substr(0, colon);
  const auto port = static_cast<unsigned short>(port_value);

  vid_t rows = 0;
  if (int rc = wait_until_ready(host, port, /*timeout_ms=*/60000, rows);
      rc != 0) {
    return rc;
  }

  // The fault probes replace the load phase: the dist smoke calls back
  // with one of these while a shard child is down (or freshly back) and
  // only needs the degradation verdict.
  if (expect_degraded || expect_recovered) {
    if (expect_degraded) {
      if (int rc = verify_degraded(host, port); rc != 0) return rc;
    }
    if (expect_recovered) {
      if (int rc = verify_recovered(host, port); rc != 0) return rc;
    }
    return 0;
  }

  for (const unsigned concurrency : kConcurrencyLevels) {
    const LoadResult load = run_closed_loop(host, port, rows, concurrency);
    std::printf("closed loop at concurrency %u: %llu answered, %llu shed "
                "429, %llu failed\n",
                concurrency, static_cast<unsigned long long>(load.ok_2xx),
                static_cast<unsigned long long>(load.shed_429),
                static_cast<unsigned long long>(load.failed));
    if (load.failed > 0) {
      std::fprintf(stderr, "error: %llu requests failed\n",
                   static_cast<unsigned long long>(load.failed));
      return 1;
    }
  }
  if (int rc = scrape_metrics(host, port); rc != 0) return rc;
  if (expect_traces) {
    if (int rc = verify_traces(host, port); rc != 0) return rc;
  }
  if (expect_cache) {
    if (int rc = verify_cache(host, port); rc != 0) return rc;
  }
  if (remote_shutdown) {
    net::HttpClient client(host, port);
    auto stop = client.post_json("/admin/shutdown", "{}");
    if (!stop.ok()) return fail(stop.status());
    if (stop.value().status != 200) {
      std::fprintf(stderr, "error: /admin/shutdown answered %d\n",
                   stop.value().status);
      return 1;
    }
    std::printf("shutdown requested\n");
  }
  return 0;
}
