#include "gosh/net/http.hpp"

#include <algorithm>
#include <cctype>
#include <limits>

#include "gosh/net/json.hpp"

namespace gosh::net {

namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t'))
    text.remove_prefix(1);
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t' ||
                           text.back() == '\r'))
    text.remove_suffix(1);
  return text;
}

/// Splits the head into lines (tolerating bare-LF line ends) and parses
/// "Name: value" pairs after the start line.
api::Status parse_header_lines(std::string_view head, std::size_t first_line_end,
                               std::vector<Header>& out) {
  std::size_t begin = first_line_end;
  while (begin < head.size()) {
    std::size_t end = head.find('\n', begin);
    if (end == std::string_view::npos) end = head.size();
    const std::string_view line = trim(head.substr(begin, end - begin));
    begin = end + 1;
    if (line.empty()) continue;  // the blank terminator line
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return api::Status::invalid_argument("http: malformed header line");
    }
    Header header;
    header.name = std::string(trim(line.substr(0, colon)));
    header.value = std::string(trim(line.substr(colon + 1)));
    if (header.name.find(' ') != std::string::npos ||
        header.name.find('\t') != std::string::npos) {
      return api::Status::invalid_argument("http: malformed header name");
    }
    out.push_back(std::move(header));
  }
  return api::Status::ok();
}

bool valid_version(std::string_view version) {
  return version == "HTTP/1.1" || version == "HTTP/1.0";
}

}  // namespace

const std::string* find_header(const std::vector<Header>& headers,
                               std::string_view name) {
  for (const Header& header : headers) {
    if (iequals(header.name, name)) return &header.value;
  }
  return nullptr;
}

std::string_view HttpRequest::path() const noexcept {
  const std::string_view t(target);
  const std::size_t question = t.find('?');
  return question == std::string_view::npos ? t : t.substr(0, question);
}

bool HttpRequest::keep_alive() const {
  if (const std::string* connection = header("Connection")) {
    if (iequals(*connection, "close")) return false;
    if (iequals(*connection, "keep-alive")) return true;
  }
  return version != "HTTP/1.0";
}

void HttpResponse::set_header(std::string name, std::string value) {
  for (Header& header : headers) {
    if (iequals(header.name, name)) {
      header.value = std::move(value);
      return;
    }
  }
  headers.push_back({std::move(name), std::move(value)});
}

HttpResponse HttpResponse::json(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  response.set_header("Content-Type", "application/json");
  return response;
}

HttpResponse HttpResponse::error(int status, std::string_view code,
                                 std::string_view message) {
  json::Value error = json::Value::object();
  error.set("code", json::Value(std::string(code)));
  error.set("message", json::Value(std::string(message)));
  json::Value root = json::Value::object();
  root.set("error", std::move(error));
  return json(status, root.dump());
}

void stamp_request_id(HttpResponse& response, const std::string& request_id) {
  if (response.header("X-Request-Id") == nullptr) {
    response.set_header("X-Request-Id", request_id);
  }
  // The structured error shape is deterministic (HttpResponse::error dumps
  // members in insertion order), so prefix matching is exact, and a body
  // already stamped by an inner layer starts with the request_id member.
  static constexpr std::string_view kErrorPrefix = "{\"error\":{";
  static constexpr std::string_view kIdKey = "\"request_id\":";
  if (response.body.compare(0, kErrorPrefix.size(), kErrorPrefix) != 0) {
    return;
  }
  if (response.body.compare(kErrorPrefix.size(), kIdKey.size(), kIdKey) == 0) {
    return;
  }
  std::string member(kIdKey);
  member += json::Value(request_id).dump();
  member += ',';
  response.body.insert(kErrorPrefix.size(), member);
}

std::string_view reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Content Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

std::size_t find_header_end(std::string_view buffer) {
  // One pass over the line feeds: the blank line after a line's LF is
  // "\n" or "\r\n", so "\n\r\n" covers CRLFCRLF and the LF-lines-then-
  // CRLF-blank mix alike. The first LF followed by one ends the head.
  for (std::size_t lf = buffer.find('\n'); lf != std::string_view::npos;
       lf = buffer.find('\n', lf + 1)) {
    const std::string_view rest = buffer.substr(lf + 1);
    if (rest.starts_with('\n')) return lf + 2;
    if (rest.starts_with("\r\n")) return lf + 3;
  }
  return std::string_view::npos;
}

api::Status parse_request_head(std::string_view head, HttpRequest& out) {
  out = HttpRequest();
  std::size_t line_end = head.find('\n');
  if (line_end == std::string_view::npos) line_end = head.size();
  const std::string_view line = trim(head.substr(0, line_end));

  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = sp1 == std::string_view::npos
                              ? std::string_view::npos
                              : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      line.find(' ', sp2 + 1) != std::string_view::npos) {
    return api::Status::invalid_argument("http: malformed request line");
  }
  out.method = std::string(line.substr(0, sp1));
  out.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  out.version = std::string(line.substr(sp2 + 1));
  if (out.method.empty() || out.target.empty() || out.target[0] != '/' ||
      !valid_version(out.version)) {
    return api::Status::invalid_argument("http: malformed request line");
  }
  return parse_header_lines(head, line_end + 1, out.headers);
}

api::Status parse_response_head(std::string_view head, HttpResponse& out) {
  out = HttpResponse();
  std::size_t line_end = head.find('\n');
  if (line_end == std::string_view::npos) line_end = head.size();
  const std::string_view line = trim(head.substr(0, line_end));

  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos || !valid_version(line.substr(0, sp1))) {
    return api::Status::invalid_argument("http: malformed status line");
  }
  std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) sp2 = line.size();
  const std::string_view code = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (code.size() != 3 ||
      !std::all_of(code.begin(), code.end(), [](char c) {
        return c >= '0' && c <= '9';
      })) {
    return api::Status::invalid_argument("http: malformed status code");
  }
  out.status = (code[0] - '0') * 100 + (code[1] - '0') * 10 + (code[2] - '0');
  out.reason = sp2 < line.size() ? std::string(trim(line.substr(sp2 + 1)))
                                 : std::string();
  return parse_header_lines(head, line_end + 1, out.headers);
}

api::Result<std::size_t> content_length(const std::vector<Header>& headers) {
  const std::string* value = find_header(headers, "Content-Length");
  if (value == nullptr) return std::size_t{0};
  if (value->empty()) {
    return api::Status::invalid_argument("http: empty Content-Length");
  }
  std::size_t length = 0;
  for (const char c : *value) {
    if (c < '0' || c > '9') {
      return api::Status::invalid_argument("http: malformed Content-Length '" +
                                           *value + "'");
    }
    const std::size_t digit = static_cast<std::size_t>(c - '0');
    if (length > (std::numeric_limits<std::size_t>::max() - digit) / 10) {
      return api::Status::invalid_argument("http: Content-Length overflow");
    }
    length = length * 10 + digit;
  }
  // A second, disagreeing Content-Length is request smuggling bait.
  for (const Header& header : headers) {
    if (iequals(header.name, "Content-Length") && header.value != *value) {
      return api::Status::invalid_argument(
          "http: conflicting Content-Length headers");
    }
  }
  return length;
}

namespace {

void append_headers(std::string& out, const std::vector<Header>& headers,
                    std::size_t body_size, bool keep_alive,
                    bool have_connection) {
  bool have_length = false;
  for (const Header& header : headers) {
    if (iequals(header.name, "Content-Length")) have_length = true;
    out += header.name;
    out += ": ";
    out += header.value;
    out += "\r\n";
  }
  if (!have_length) {
    out += "Content-Length: " + std::to_string(body_size) + "\r\n";
  }
  if (!have_connection) {
    out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  }
  out += "\r\n";
}

}  // namespace

std::string serialize_response(const HttpResponse& response, bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " ";
  out += response.reason.empty() ? std::string(reason_phrase(response.status))
                                 : response.reason;
  out += "\r\n";
  append_headers(out, response.headers, response.body.size(), keep_alive,
                 response.header("Connection") != nullptr);
  out += response.body;
  return out;
}

std::string serialize_request(const HttpRequest& request, bool keep_alive) {
  std::string out = request.method + " " + request.target + " ";
  out += request.version.empty() ? "HTTP/1.1" : request.version;
  out += "\r\n";
  append_headers(out, request.headers, request.body.size(), keep_alive,
                 request.header("Connection") != nullptr);
  out += request.body;
  return out;
}

}  // namespace gosh::net
