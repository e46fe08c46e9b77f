// HttpServer + HttpClient — live loopback exchanges on ephemeral ports:
// routing, keep-alive, concurrent clients, graceful shutdown, admission
// control, and the malformed-wire suite driven through HttpClient::raw()
// (suites HttpServer* / HttpClient* are in the TSan CI filter).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "gosh/net/client.hpp"
#include "gosh/net/json.hpp"
#include "gosh/net/query_handler.hpp"
#include "gosh/net/server.hpp"
#include "gosh/trace/trace.hpp"

namespace gosh::net {
namespace {

/// Answers every query with one fixed neighbor — enough service for the
/// wire to be exercised end to end without a store on disk.
class FakeService final : public serving::QueryService {
 public:
  api::Result<serving::QueryResponse> serve(
      const serving::QueryRequest& request) override {
    if (handler_sleep_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(handler_sleep_ms));
    }
    serving::QueryResponse response;
    response.results.resize(request.queries.size(),
                            {serving::Neighbor{3, 0.5f}});
    response.seconds = 0.001;
    served.fetch_add(1, std::memory_order_relaxed);
    return response;
  }
  vid_t rows() const noexcept override { return 100; }
  unsigned dim() const noexcept override { return 4; }
  serving::Metric default_metric() const noexcept override {
    return serving::Metric::kCosine;
  }
  std::string_view strategy_name() const noexcept override { return "fake"; }
  api::Result<std::vector<float>> row_vector(vid_t) const override {
    return std::vector<float>(dim(), 0.0f);
  }

  std::atomic<std::uint64_t> served{0};
  int handler_sleep_ms = 0;
};

NetOptions loopback() {
  NetOptions options;
  options.host = "127.0.0.1";
  options.port = 0;  // ephemeral: ctest -j safe
  options.threads = 2;
  return options;
}

/// A started server with the query wire and the builtin routes mounted.
struct ServerFixture {
  explicit ServerFixture(NetOptions options = loopback())
      : handler(service), server(options, &metrics) {
    server.handle("POST", "/v1/query", [this](const HttpRequest& request) {
      return handler.handle(request);
    });
    server.handle("GET", "/ping", [](const HttpRequest&) {
      return HttpResponse::json(200, "{\"pong\":true}");
    });
    add_builtin_routes(server, metrics, server.tracer());
    const api::Status status = server.start();
    EXPECT_TRUE(status.is_ok()) << status.to_string();
  }
  ~ServerFixture() { server.shutdown(); }

  HttpClient client(int timeout_ms = 5000) {
    return HttpClient("127.0.0.1", server.port(), timeout_ms);
  }

  serving::MetricsRegistry metrics;
  FakeService service;
  QueryHandler handler;
  HttpServer server;
};

constexpr const char* kQuery = R"({"queries": [{"vertex": 7}], "k": 3})";

TEST(HttpServer, ServesRoutesOnAnEphemeralPort) {
  ServerFixture fixture;
  ASSERT_NE(fixture.server.port(), 0);
  HttpClient client = fixture.client();

  auto ping = client.get("/ping");
  ASSERT_TRUE(ping.ok()) << ping.status().to_string();
  EXPECT_EQ(ping.value().status, 200);
  EXPECT_EQ(ping.value().body, "{\"pong\":true}");

  auto query = client.post_json("/v1/query", kQuery);
  ASSERT_TRUE(query.ok()) << query.status().to_string();
  EXPECT_EQ(query.value().status, 200);
  EXPECT_NE(query.value().body.find("\"results\""), std::string::npos);
  EXPECT_EQ(fixture.service.served.load(), 1u);

  auto health = client.get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status().to_string();
  EXPECT_EQ(health.value().status, 200);
  auto parsed = json::Value::parse(health.value().body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const json::Value& root = parsed.value();
  ASSERT_NE(root.find("status"), nullptr);
  EXPECT_EQ(root.find("status")->as_string(), "ok");
  ASSERT_NE(root.find("uptime_seconds"), nullptr);
  EXPECT_GE(root.find("uptime_seconds")->as_number(), 0.0);
  ASSERT_NE(root.find("build"), nullptr);
  EXPECT_NE(root.find("build")->find("compiler"), nullptr);
  ASSERT_NE(root.find("simd_isa"), nullptr);
  EXPECT_FALSE(root.find("simd_isa")->as_string().empty());
}

TEST(HttpServer, EchoesInboundRequestIdAndMintsOneOtherwise) {
  ServerFixture fixture;
  HttpClient client = fixture.client();

  auto echoed = client.request("POST", "/v1/query", kQuery,
                               {{"Content-Type", "application/json"},
                                {"X-Request-Id", "trace-me-42"}});
  ASSERT_TRUE(echoed.ok()) << echoed.status().to_string();
  ASSERT_NE(echoed.value().header("X-Request-Id"), nullptr);
  EXPECT_EQ(*echoed.value().header("X-Request-Id"), "trace-me-42");

  auto minted = client.post_json("/v1/query", kQuery);
  ASSERT_TRUE(minted.ok()) << minted.status().to_string();
  ASSERT_NE(minted.value().header("X-Request-Id"), nullptr);
  EXPECT_EQ(minted.value().header("X-Request-Id")->substr(0, 5), "gosh-");

  // An inbound id full of log-breaking bytes comes back sanitized.
  auto hostile = client.request("GET", "/ping", "",
                                {{"X-Request-Id", "a b\"c\\d"}});
  ASSERT_TRUE(hostile.ok()) << hostile.status().to_string();
  ASSERT_NE(hostile.value().header("X-Request-Id"), nullptr);
  EXPECT_EQ(*hostile.value().header("X-Request-Id"), "a_b_c_d");
}

TEST(HttpServer, ErrorBodiesCarryTheRequestId) {
  ServerFixture fixture;
  HttpClient client = fixture.client();

  // Routing error (404), handler error (400), and wire error (431 via a
  // malformed request line is covered elsewhere): each body must be strict
  // JSON whose error.request_id matches the response header.
  for (const auto& [method, target, body] :
       {std::tuple<const char*, const char*, const char*>{"GET", "/nope", ""},
        {"POST", "/v1/query", "{not json"}}) {
    auto response = client.request(method, target, body,
                                   {{"X-Request-Id", "err-7"}});
    ASSERT_TRUE(response.ok()) << response.status().to_string();
    EXPECT_GE(response.value().status, 400);
    ASSERT_NE(response.value().header("X-Request-Id"), nullptr);
    EXPECT_EQ(*response.value().header("X-Request-Id"), "err-7");
    auto parsed = json::Value::parse(response.value().body);
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string() << ": "
                             << response.value().body;
    const json::Value* error = parsed.value().find("error");
    ASSERT_NE(error, nullptr);
    ASSERT_NE(error->find("request_id"), nullptr) << response.value().body;
    EXPECT_EQ(error->find("request_id")->as_string(), "err-7");
  }
}

TEST(HttpServer, DebugTracesServesChromeJsonForSampledRequests) {
  NetOptions options = loopback();
  options.trace_sample_rate = 1.0;
  ServerFixture fixture(options);
  ASSERT_NE(fixture.server.tracer(), nullptr);
  fixture.server.tracer()->clear();
  HttpClient client = fixture.client();

  auto query = client.request("POST", "/v1/query", kQuery,
                              {{"Content-Type", "application/json"},
                               {"X-Request-Id", "debug-traces-1"}});
  ASSERT_TRUE(query.ok()) << query.status().to_string();
  ASSERT_EQ(query.value().status, 200);

  auto traces = client.get("/debug/traces");
  ASSERT_TRUE(traces.ok()) << traces.status().to_string();
  EXPECT_EQ(traces.value().status, 200);
  auto parsed = json::Value::parse(traces.value().body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const json::Value* events = parsed.value().find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  bool saw_handler = false, saw_parse = false, saw_id = false;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const json::Value& event = (*events)[i];
    const json::Value* name = event.find("name");
    if (name == nullptr || !name->is_string()) continue;
    if (name->as_string() == "handler") saw_handler = true;
    if (name->as_string() == "parse") saw_parse = true;
    const json::Value* args = event.find("args");
    if (args != nullptr && args->find("request_id") != nullptr &&
        args->find("request_id")->as_string() == "debug-traces-1") {
      saw_id = true;
    }
  }
  EXPECT_TRUE(saw_handler) << traces.value().body;
  EXPECT_TRUE(saw_parse) << traces.value().body;
  EXPECT_TRUE(saw_id) << traces.value().body;
}

TEST(HttpServer, MetricsEndpointSpeaksPrometheusText) {
  ServerFixture fixture;
  HttpClient client = fixture.client();
  ASSERT_TRUE(client.post_json("/v1/query", kQuery).ok());

  auto response = client.get("/metrics");
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_EQ(response.value().status, 200);
  ASSERT_NE(response.value().header("Content-Type"), nullptr);
  EXPECT_NE(response.value().header("Content-Type")->find("text/plain"),
            std::string::npos);

  const std::string& body = response.value().body;
  EXPECT_NE(body.find("# TYPE gosh_http_requests_total_post_v1_query counter"),
            std::string::npos);
  EXPECT_NE(body.find("gosh_http_request_seconds_post_v1_query_count 1"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE gosh_http_inflight_connections gauge"),
            std::string::npos);
  EXPECT_NE(body.find("gosh_http_connections_total 1"), std::string::npos);

  // Every sample line must parse as "name[{labels}] value" with a numeric
  // value — the contract a Prometheus scraper depends on.
  std::size_t line_start = 0, samples = 0;
  while (line_start < body.size()) {
    std::size_t line_end = body.find('\n', line_start);
    if (line_end == std::string::npos) line_end = body.size();
    const std::string line = body.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, space);
    ASSERT_FALSE(name.empty()) << line;
    EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(name[0])) ||
                name[0] == '_')
        << line;
    char* end = nullptr;
    std::strtod(line.c_str() + space + 1, &end);
    EXPECT_EQ(*end, '\0') << "non-numeric sample value: " << line;
    ++samples;
  }
  EXPECT_GT(samples, 10u);
}

TEST(HttpServer, AnswersNotFoundAndMethodNotAllowed) {
  ServerFixture fixture;
  HttpClient client = fixture.client();

  auto missing = client.get("/nope");
  ASSERT_TRUE(missing.ok()) << missing.status().to_string();
  EXPECT_EQ(missing.value().status, 404);
  EXPECT_NE(missing.value().body.find("\"not_found\""), std::string::npos);

  auto wrong_method = client.get("/v1/query");
  ASSERT_TRUE(wrong_method.ok()) << wrong_method.status().to_string();
  EXPECT_EQ(wrong_method.value().status, 405);
  ASSERT_NE(wrong_method.value().header("Allow"), nullptr);
  EXPECT_EQ(*wrong_method.value().header("Allow"), "POST");
}

TEST(HttpServer, KeepAliveServesManyRequestsOnOneConnection) {
  ServerFixture fixture;
  HttpClient client = fixture.client();
  for (int i = 0; i < 20; ++i) {
    auto response = client.post_json("/v1/query", kQuery);
    ASSERT_TRUE(response.ok()) << response.status().to_string();
    ASSERT_EQ(response.value().status, 200);
  }
  EXPECT_EQ(fixture.metrics.counter("gosh_http_connections_total").value(),
            1u);
  EXPECT_EQ(fixture.service.served.load(), 20u);
}

TEST(HttpServer, KeepaliveRequestCapTurnsTheConnectionOver) {
  NetOptions options = loopback();
  options.keepalive_requests = 1;
  ServerFixture fixture(options);
  HttpClient client = fixture.client();
  for (int i = 0; i < 3; ++i) {
    auto response = client.get("/ping");
    ASSERT_TRUE(response.ok()) << response.status().to_string();
    EXPECT_EQ(response.value().status, 200);
    ASSERT_NE(response.value().header("Connection"), nullptr);
    EXPECT_EQ(*response.value().header("Connection"), "close");
  }
  // Each request had to redial.
  EXPECT_EQ(fixture.metrics.counter("gosh_http_connections_total").value(),
            3u);
}

TEST(HttpServer, ConcurrentClientsAreAllServed) {
  NetOptions options = loopback();
  options.threads = 4;
  ServerFixture fixture(options);
  constexpr int kClients = 4;
  constexpr int kRequests = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&fixture, &failures] {
      HttpClient client("127.0.0.1", fixture.server.port());
      for (int i = 0; i < kRequests; ++i) {
        auto response = client.post_json("/v1/query", kQuery);
        if (!response.ok() || response.value().status != 200) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(fixture.service.served.load(),
            static_cast<std::uint64_t>(kClients * kRequests));
}

TEST(HttpServer, GracefulShutdownReleasesAnIdleKeepAliveConnection) {
  auto fixture = std::make_unique<ServerFixture>();
  HttpClient client = fixture->client();
  ASSERT_TRUE(client.get("/ping").ok());
  ASSERT_TRUE(client.connected());  // parked keep-alive connection

  // Must return promptly even though a worker is blocked reading that
  // idle connection — the self-pipe wakes it.
  fixture->server.shutdown();
  EXPECT_FALSE(fixture->server.running());

  auto after = client.get("/ping");
  EXPECT_FALSE(after.ok());
  fixture.reset();
}

TEST(HttpServer, ShutdownLetsAnInFlightRequestFinish) {
  ServerFixture fixture;
  fixture.service.handler_sleep_ms = 200;

  std::atomic<bool> got_response{false};
  std::atomic<int> status{0};
  std::thread slow_client([&] {
    HttpClient client("127.0.0.1", fixture.server.port());
    auto response = client.post_json("/v1/query", kQuery);
    if (response.ok()) {
      got_response = true;
      status = response.value().status;
    }
  });
  // Let the request reach the handler, then stop the server under it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  fixture.server.shutdown();
  slow_client.join();

  EXPECT_TRUE(got_response.load());
  EXPECT_EQ(status.load(), 200);
}

TEST(HttpServer, ShutdownIsIdempotent) {
  ServerFixture fixture;
  fixture.server.shutdown();
  fixture.server.shutdown();
  EXPECT_FALSE(fixture.server.running());
}

TEST(HttpServer, RateLimiterSheds429WithRetryAfter) {
  NetOptions options = loopback();
  options.rate_qps = 0.5;  // refills far slower than the test runs
  options.burst = 1.0;
  ServerFixture fixture(options);
  HttpClient client = fixture.client();

  auto first = client.post_json("/v1/query", kQuery);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  EXPECT_EQ(first.value().status, 200);

  auto second = client.post_json("/v1/query", kQuery);
  ASSERT_TRUE(second.ok()) << second.status().to_string();
  EXPECT_EQ(second.value().status, 429);
  EXPECT_NE(second.value().body.find("\"rate_limited\""), std::string::npos);
  ASSERT_NE(second.value().header("Retry-After"), nullptr);
  EXPECT_GE(std::atoi(second.value().header("Retry-After")->c_str()), 1);

  // The connection survived the shed, observability stays reachable, and
  // the shed is counted.
  auto health = client.get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status().to_string();
  EXPECT_EQ(health.value().status, 200);
  EXPECT_GE(fixture.metrics.counter("gosh_http_rate_limited_total").value(),
            1u);
  // The exposition's sample line, not just its "# TYPE" line, counts it.
  auto metrics = client.get("/metrics");
  ASSERT_TRUE(metrics.ok());
  const std::string& text = metrics.value().body;
  const std::string sample = "\ngosh_http_rate_limited_total ";
  const std::size_t at = text.find(sample);
  ASSERT_NE(at, std::string::npos) << text;
  EXPECT_GE(std::strtod(text.c_str() + at + sample.size(), nullptr), 1.0);
}

TEST(HttpServer, PerConnectionLimiterShedsAHotClient) {
  NetOptions options = loopback();
  options.conn_rate_qps = 0.5;
  options.conn_burst = 2.0;
  ServerFixture fixture(options);
  HttpClient client = fixture.client();
  int shed = 0;
  for (int i = 0; i < 4; ++i) {
    auto response = client.post_json("/v1/query", kQuery);
    ASSERT_TRUE(response.ok()) << response.status().to_string();
    if (response.value().status == 429) ++shed;
  }
  EXPECT_EQ(shed, 2);
  // A fresh connection gets a fresh bucket.
  HttpClient other = fixture.client();
  auto response = other.post_json("/v1/query", kQuery);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 200);
}

// ---- Malformed wire, via HttpClient::raw(). -------------------------------

TEST(HttpClient, TruncatedBodyWithHalfCloseIsA400) {
  ServerFixture fixture;
  HttpClient client = fixture.client();
  auto response = client.raw(
      "POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n{\"qu",
      /*half_close_after_send=*/true);
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_EQ(response.value().status, 400);
  EXPECT_NE(response.value().body.find("\"truncated_body\""),
            std::string::npos);
  // The server is still healthy afterwards.
  EXPECT_EQ(fixture.client().get("/ping").value().status, 200);
}

TEST(HttpClient, StalledBodyTimesOutWithA408) {
  NetOptions options = loopback();
  options.read_timeout_ms = 100;
  ServerFixture fixture(options);
  HttpClient client = fixture.client();
  auto response = client.raw(
      "POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n{\"qu");
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_EQ(response.value().status, 408);
}

TEST(HttpClient, OversizedContentLengthIsA413) {
  NetOptions options = loopback();
  options.max_body = 64;
  ServerFixture fixture(options);
  HttpClient client = fixture.client();
  auto response = client.raw(
      "POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Length: 100000\r\n\r\n");
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_EQ(response.value().status, 413);
  EXPECT_NE(response.value().body.find("\"body_too_large\""),
            std::string::npos);
}

TEST(HttpClient, OversizedHeaderBlockIsA431) {
  NetOptions options = loopback();
  options.max_header = 128;
  ServerFixture fixture(options);
  HttpClient client = fixture.client();
  std::string head = "GET /ping HTTP/1.1\r\nHost: t\r\nX-Pad: ";
  head.append(512, 'a');  // never terminated: the block only grows
  auto response = client.raw(head, /*half_close_after_send=*/true);
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_EQ(response.value().status, 431);
}

TEST(HttpClient, MalformedContentLengthIsA400) {
  ServerFixture fixture;
  HttpClient client = fixture.client();
  auto response = client.raw(
      "POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Length: banana\r\n\r\n");
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_EQ(response.value().status, 400);
}

TEST(HttpClient, ChunkedTransferEncodingIsA501) {
  ServerFixture fixture;
  HttpClient client = fixture.client();
  auto response = client.raw(
      "POST /v1/query HTTP/1.1\r\nHost: t\r\n"
      "Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n");
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_EQ(response.value().status, 501);
}

TEST(HttpClient, GarbageRequestLineIsA400) {
  ServerFixture fixture;
  HttpClient client = fixture.client();
  auto response = client.raw("this is not http\r\n\r\n");
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_EQ(response.value().status, 400);
  EXPECT_GE(fixture.metrics.counter("gosh_http_parse_errors_total").value(),
            1u);
}

TEST(HttpClient, ApplicationErrorsAreStructured4xxJson) {
  ServerFixture fixture;
  HttpClient client = fixture.client();
  for (const char* body :
       {"{not json at all",                       // bad JSON
        R"({"queries": [], "k": 3})",             // empty batch
        R"({"quieres": [{"vertex": 1}]})",        // unknown field
        R"({"queries": [{"vertex": 1}], "frobnicate": true})"}) {
    auto response = client.post_json("/v1/query", body);
    ASSERT_TRUE(response.ok()) << response.status().to_string();
    EXPECT_EQ(response.value().status, 400) << body;
    EXPECT_NE(response.value().body.find("\"error\""), std::string::npos)
        << body;
    ASSERT_NE(response.value().header("Content-Type"), nullptr);
    EXPECT_EQ(*response.value().header("Content-Type"), "application/json");
  }
  // Nothing reached the service, and the server still answers.
  EXPECT_EQ(fixture.service.served.load(), 0u);
  EXPECT_EQ(client.get("/ping").value().status, 200);
}

TEST(HttpClient, PipelinedRequestsAreAnsweredInOrder) {
  ServerFixture fixture;
  HttpClient client = fixture.client();
  // Two GETs in one write; the server must answer both off one buffer.
  const std::string two =
      "GET /ping HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
  auto first = client.raw(two);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  EXPECT_EQ(first.value().status, 200);
  EXPECT_EQ(first.value().body, "{\"pong\":true}");
}

}  // namespace
}  // namespace gosh::net
