// The HTTP request-head parsers under torture: find_header_end,
// parse_request_head and content_length read bytes straight off a client
// socket. Hand-picked cases pin the request-line split, the version
// strings, bare-LF line endings and every Content-Length edge (empty,
// duplicate, conflicting, overflowing). A seeded generator then mutates
// valid heads (flip / insert / delete / truncate / splice bytes) and
// asserts each input gives a Status or a well-formed request — never a
// crash, which the ASan/UBSan CI leg turns into a hard failure.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "gosh/net/http.hpp"

namespace gosh::net {
namespace {

constexpr int kMutationCases = 6000;

api::Status parse(std::string_view head) {
  HttpRequest request;
  return parse_request_head(head, request);
}

/// What a successful parse promises its caller.
void expect_well_formed(const HttpRequest& request, const std::string& input) {
  SCOPED_TRACE(testing::PrintToString(input));
  EXPECT_FALSE(request.method.empty());
  ASSERT_FALSE(request.target.empty());
  EXPECT_EQ(request.target.front(), '/');
  EXPECT_TRUE(request.version == "HTTP/1.1" || request.version == "HTTP/1.0")
      << request.version;
  for (const std::string* field :
       {&request.method, &request.target, &request.version}) {
    EXPECT_EQ(field->find_first_of(" \n"), std::string::npos) << *field;
  }
  for (const Header& header : request.headers) {
    EXPECT_FALSE(header.name.empty());
    EXPECT_EQ(header.name.find_first_of(" \t\n:"), std::string::npos)
        << header.name;
    EXPECT_EQ(header.value.find('\n'), std::string::npos) << header.value;
  }
}

/// find_header_end's contract: npos, or the end of the EARLIEST blank
/// line terminator (so no shorter prefix holds one). The blank line is
/// "\n" or "\r\n" after a line's LF, so "\n\r\n" also covers CRLFCRLF.
void expect_header_end_contract(std::string_view buffer) {
  const std::size_t end = find_header_end(buffer);
  if (end == std::string_view::npos) return;
  ASSERT_LE(end, buffer.size());
  const std::string_view head = buffer.substr(0, end);
  EXPECT_TRUE(head.ends_with("\n\n") || head.ends_with("\n\r\n"));
  EXPECT_EQ(find_header_end(buffer.substr(0, end - 1)),
            std::string_view::npos);
}

TEST(HttpTorture, RequestLineSplits) {
  HttpRequest request;
  ASSERT_TRUE(parse_request_head("GET /v1/query?x=1 HTTP/1.1\r\n\r\n", request)
                  .is_ok());
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/v1/query?x=1");
  EXPECT_EQ(request.path(), "/v1/query");
  EXPECT_EQ(request.version, "HTTP/1.1");

  for (const char* bad : {
           "",
           "\r\n\r\n",
           "GET\r\n\r\n",
           "GET /\r\n\r\n",
           "GET / HTTP/1.1 extra\r\n\r\n",
           "GET  / HTTP/1.1\r\n\r\n",     // empty target between spaces
           "GET /  HTTP/1.1\r\n\r\n",     // empty version
           "GET\t/\tHTTP/1.1\r\n\r\n",    // tabs do not split
           " / HTTP/1.1\r\n\r\n",         // no method after the trim
           "GET relative HTTP/1.1\r\n\r\n",
           "GET * HTTP/1.1\r\n\r\n",
           "GET http://host/ HTTP/1.1\r\n\r\n",
       }) {
    const api::Status status = parse(bad);
    EXPECT_EQ(status.code(), api::StatusCode::kInvalidArgument)
        << testing::PrintToString(std::string(bad));
  }
}

TEST(HttpTorture, OnlyHttp10And11Versions) {
  HttpRequest request;
  ASSERT_TRUE(parse_request_head("POST / HTTP/1.0\r\n\r\n", request).is_ok());
  EXPECT_FALSE(request.keep_alive());
  ASSERT_TRUE(parse_request_head("POST / HTTP/1.1\r\n\r\n", request).is_ok());
  EXPECT_TRUE(request.keep_alive());
  for (const char* version : {"HTTP/2", "HTTP/2.0", "HTTP/1.2", "HTTP/1",
                              "http/1.1", "HTTP/1.1x", "HTTP/1.10", "HTTP/",
                              "HTTP/0.9"}) {
    const std::string head =
        std::string("GET / ") + version + "\r\nHost: x\r\n\r\n";
    EXPECT_EQ(parse(head).code(), api::StatusCode::kInvalidArgument)
        << version;
  }
}

TEST(HttpTorture, BareLineFeedsAreLineEnds) {
  const std::string lf =
      "GET /healthz HTTP/1.1\nHost: a\nX-Request-Id: r1\n\n";
  EXPECT_EQ(find_header_end(lf), lf.size());
  HttpRequest request;
  ASSERT_TRUE(parse_request_head(lf, request).is_ok());
  ASSERT_EQ(request.headers.size(), 2u);
  EXPECT_EQ(*request.header("host"), "a");
  EXPECT_EQ(*request.header("X-Request-Id"), "r1");

  // Mixed endings: CRLF lines closed by a bare-LF blank line, and the
  // reverse. Either way the values carry no stray CR.
  const std::string mixed = "GET / HTTP/1.1\r\nHost: b\r\n\n";
  EXPECT_EQ(find_header_end(mixed), mixed.size());
  ASSERT_TRUE(parse_request_head(mixed, request).is_ok());
  EXPECT_EQ(*request.header("Host"), "b");
  const std::string reverse = "GET / HTTP/1.1\nHost: c\r\n\r\n";
  EXPECT_EQ(find_header_end(reverse), reverse.size());
  ASSERT_TRUE(parse_request_head(reverse, request).is_ok());
  EXPECT_EQ(*request.header("Host"), "c");
  // LF-ended lines closed by a CRLF blank line: the parser takes it, so
  // the framer must end the head there instead of waiting for more bytes.
  const std::string lf_then_crlf = "GET / HTTP/1.1\nHost: x\n\r\n";
  EXPECT_EQ(find_header_end(lf_then_crlf), lf_then_crlf.size());
  ASSERT_TRUE(parse_request_head(lf_then_crlf, request).is_ok());
  EXPECT_EQ(*request.header("Host"), "x");
  EXPECT_EQ(find_header_end("GET / HTTP/1.1\n\r\nGET /b HTTP/1.1\n\n"), 17u);

  // The earliest terminator wins, and the body after it is not the head.
  const std::string pipelined = "GET /a HTTP/1.1\n\nGET /b HTTP/1.1\r\n\r\n";
  EXPECT_EQ(find_header_end(pipelined), 17u);
  EXPECT_EQ(find_header_end("GET / HTTP/1.1\r\nHost: x\r\n"),
            std::string_view::npos);
  EXPECT_EQ(find_header_end(""), std::string_view::npos);
}

TEST(HttpTorture, MalformedHeaderLinesAreRejected) {
  for (const char* bad : {
           "GET / HTTP/1.1\r\nNoColon\r\n\r\n",
           "GET / HTTP/1.1\r\n: value\r\n\r\n",
           "GET / HTTP/1.1\r\nBad Name: v\r\n\r\n",
           "GET / HTTP/1.1\r\nBad\tName: v\r\n\r\n",
       }) {
    EXPECT_EQ(parse(bad).code(), api::StatusCode::kInvalidArgument)
        << testing::PrintToString(std::string(bad));
  }
  // Whitespace around names and values is trimmed; empty values are fine.
  HttpRequest request;
  ASSERT_TRUE(
      parse_request_head("GET / HTTP/1.1\r\nA:   spaced \t\r\nB:\r\n\r\n",
                         request)
          .is_ok());
  EXPECT_EQ(*request.header("a"), "spaced");
  EXPECT_EQ(*request.header("b"), "");
}

api::Result<std::size_t> length_of(std::vector<std::string> values) {
  std::vector<Header> headers = {{"Host", "x"}};
  for (std::string& value : values) {
    headers.push_back({"Content-Length", std::move(value)});
  }
  return content_length(headers);
}

TEST(HttpTorture, ContentLengthEdges) {
  EXPECT_EQ(length_of({}).value(), 0u);  // absent
  EXPECT_EQ(length_of({"0"}).value(), 0u);
  EXPECT_EQ(length_of({"42"}).value(), 42u);
  EXPECT_EQ(length_of({"007"}).value(), 7u);
  // Duplicates that agree are one length; any disagreement is refused.
  EXPECT_EQ(length_of({"12", "12"}).value(), 12u);
  for (const std::vector<std::string>& bad :
       std::vector<std::vector<std::string>>{
           {""},
           {"12", "13"},
           {"12", ""},
           {"12", "012"},
           {"", "12"},
           {"-1"},
           {"+5"},
           {"5 5"},
           {"0x10"},
           {"1e3"},
           {"12abc"},
           {"\xff"},
       }) {
    auto length = length_of(bad);
    ASSERT_FALSE(length.ok()) << testing::PrintToString(bad);
    EXPECT_EQ(length.status().code(), api::StatusCode::kInvalidArgument);
  }
  // The name matches case-insensitively.
  EXPECT_EQ(content_length({{"content-LENGTH", "9"}}).value(), 9u);

  // Overflow: the largest size_t parses, one more digit's worth does not.
  const std::string max =
      std::to_string(std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(length_of({max}).value(), std::numeric_limits<std::size_t>::max());
  std::string over = max;
  over.back() = static_cast<char>(over.back() + 1);
  for (const std::string& bad :
       {over, max + "0", std::string(40, '9'), std::string(400, '1')}) {
    auto length = length_of({bad});
    ASSERT_FALSE(length.ok()) << bad;
    EXPECT_NE(length.status().message().find("overflow"), std::string::npos);
  }
}

/// Checks every parser on `input` the way the server chains them.
void run_parsers(const std::string& input) {
  expect_header_end_contract(input);
  const std::size_t end = find_header_end(input);
  const std::string_view head =
      end == std::string_view::npos ? std::string_view(input)
                                    : std::string_view(input).substr(0, end);
  HttpRequest request;
  const api::Status status = parse_request_head(head, request);
  if (!status.is_ok()) {
    EXPECT_EQ(status.code(), api::StatusCode::kInvalidArgument);
    return;
  }
  expect_well_formed(request, input);
  auto length = content_length(request.headers);
  if (!length.ok()) {
    EXPECT_EQ(length.status().code(), api::StatusCode::kInvalidArgument);
    return;
  }
  const std::string* declared = request.header("Content-Length");
  if (declared == nullptr) {
    EXPECT_EQ(length.value(), 0u);
  } else {
    EXPECT_EQ(std::to_string(length.value()),
              declared->substr(std::min(declared->find_first_not_of('0'),
                                        declared->size() - 1)));
  }
}

class HeadMutator {
 public:
  explicit HeadMutator(std::uint64_t seed) : rng_(seed) {}

  std::string mutate(std::string head) {
    const int rounds = 1 + pick(4);
    for (int r = 0; r < rounds; ++r) {
      const std::size_t at = head.empty() ? 0 : pick(head.size());
      switch (pick(7)) {
        case 0:  // flip a bit
          if (!head.empty()) {
            head[at] = static_cast<char>(head[at] ^ (1 << pick(8)));
          }
          break;
        case 1:  // insert a byte the grammar cares about
          head.insert(at, 1, " \t\r\n:/0"[pick(7)]);
          break;
        case 2:  // insert any byte
          head.insert(at, 1, static_cast<char>(pick(256)));
          break;
        case 3:  // delete a run
          if (!head.empty()) head.erase(at, 1 + pick(4));
          break;
        case 4:  // truncate
          head.resize(at);
          break;
        case 5:  // splice in a Content-Length line
          head.insert(at, kLengths[pick(std::size(kLengths))]);
          break;
        default:  // duplicate a slice
          if (!head.empty()) {
            head.insert(at, head.substr(pick(head.size()), 1 + pick(16)));
          }
          break;
      }
    }
    return head;
  }

 private:
  static constexpr const char* kLengths[] = {
      "\r\nContent-Length: 5", "\nContent-Length:", "\r\ncontent-length: 05",
      "\r\nContent-Length: 99999999999999999999999",
      "\r\nContent-Length: 18446744073709551615", "\r\nContent-Length: -0"};

  std::size_t pick(std::size_t n) { return rng_() % n; }

  std::mt19937_64 rng_;
};

TEST(HttpTorture, MutatedHeadsParseCleanlyOrFail) {
  const std::vector<std::string> seeds = {
      "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n",
      "POST /v1/query HTTP/1.1\r\nHost: a:8080\r\nContent-Type: "
      "application/json\r\nContent-Length: 27\r\nX-Request-Id: abc-1\r\n"
      "X-Deadline-Ms: 250\r\n\r\n{\"vertex\": 3, \"k\": 10}",
      "GET /metrics HTTP/1.0\nConnection: keep-alive\n\n",
      "POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc",
      "GET /debug/traces?limit=5 HTTP/1.1\r\nAccept: */*\r\nHost: h\r\n\n",
  };
  for (const std::string& seed : seeds) run_parsers(seed);

  HeadMutator mutator(20261019);
  int parsed = 0;
  for (int i = 0; i < kMutationCases; ++i) {
    const std::string input = mutator.mutate(seeds[i % seeds.size()]);
    run_parsers(input);
    HttpRequest request;
    if (parse_request_head(input, request).is_ok()) ++parsed;
    if (testing::Test::HasFatalFailure()) return;
  }
  // The generator must exercise both outcomes, not just reject.
  EXPECT_GT(parsed, kMutationCases / 20);
  EXPECT_LT(parsed, kMutationCases);
}

}  // namespace
}  // namespace gosh::net
