// HTTP/1.1 message model and wire parsing — the socket-free half of the
// front-end, shared by HttpServer and HttpClient.
//
// Scope is deliberately the subset the serving wire needs: request-line +
// headers + Content-Length bodies (chunked transfer encoding is answered
// with 501), case-insensitive header lookup, keep-alive semantics per RFC
// 9112 (1.1 defaults to persistent, "Connection: close" wins), and
// deterministic serialization. Size limits are the caller's: the server
// enforces max-header/max-body BEFORE buffering, these routines only
// parse what they are handed.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "gosh/api/status.hpp"

namespace gosh::net {

struct Header {
  std::string name;
  std::string value;
};

/// Case-insensitive header lookup over an ordered header list; nullptr
/// when absent (first occurrence wins, the only sane answer for the
/// singleton headers this wire uses).
const std::string* find_header(const std::vector<Header>& headers,
                               std::string_view name);

struct HttpRequest {
  std::string method;   ///< "GET", "POST", ... (kept verbatim)
  std::string target;   ///< request target as sent ("/v1/query?x=1")
  std::string version;  ///< "HTTP/1.1" | "HTTP/1.0"
  std::vector<Header> headers;
  std::string body;

  const std::string* header(std::string_view name) const {
    return find_header(headers, name);
  }
  /// The target without its query string ("/v1/query").
  std::string_view path() const noexcept;
  /// Persistent-connection semantics: 1.1 defaults on, 1.0 defaults off,
  /// an explicit Connection header overrides either way.
  bool keep_alive() const;
};

struct HttpResponse {
  int status = 200;
  std::string reason;  ///< empty = filled from `status` at serialization
  std::vector<Header> headers;
  std::string body;

  const std::string* header(std::string_view name) const {
    return find_header(headers, name);
  }
  /// Sets (or replaces) a header.
  void set_header(std::string name, std::string value);

  /// An application/json response with the given body.
  static HttpResponse json(int status, std::string body);
  /// The structured error shape every 4xx/5xx on this wire carries:
  /// {"error": {"code": "...", "message": "..."}}.
  static HttpResponse error(int status, std::string_view code,
                            std::string_view message);
};

/// Stamps the request id onto a response, idempotently: sets the
/// X-Request-Id header unless one is already present, and — when the body
/// is the standard error shape and carries no request_id yet — injects
/// "request_id" as the first member of the error object, so every 4xx/5xx
/// on this wire names the request it answered.
void stamp_request_id(HttpResponse& response, const std::string& request_id);

/// Standard reason phrase for `status` ("OK", "Too Many Requests", ...);
/// "Status" for codes off the map.
std::string_view reason_phrase(int status);

/// Byte offset one past the earliest blank line terminating the header
/// block (a line's LF followed by "\n" or "\r\n": LFLF, CRLFCRLF or a
/// mix), or npos while the block is still incomplete.
std::size_t find_header_end(std::string_view buffer);

/// Parses "METHOD target HTTP/1.x\r\nName: value\r\n..." — the request
/// head as delimited by find_header_end (terminator included or not).
api::Status parse_request_head(std::string_view head, HttpRequest& out);

/// Parses "HTTP/1.x NNN Reason\r\nName: value\r\n..." for the client.
api::Status parse_response_head(std::string_view head, HttpResponse& out);

/// Content-Length of a parsed head: 0 when absent, kInvalidArgument when
/// malformed (non-numeric, negative, or duplicated with disagreement).
api::Result<std::size_t> content_length(const std::vector<Header>& headers);

/// Serializes status line + headers + body. Content-Length is always
/// emitted from body.size(); a Connection header is emitted from
/// `keep_alive` unless the response already set one.
std::string serialize_response(const HttpResponse& response, bool keep_alive);

/// Serializes a request the same way (Content-Length from body.size();
/// Connection emitted from `keep_alive` unless already set).
std::string serialize_request(const HttpRequest& request, bool keep_alive);

}  // namespace gosh::net
