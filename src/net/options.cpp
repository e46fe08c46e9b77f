#include "gosh/net/options.hpp"

#include <string>
#include <utility>

namespace gosh::net {

const api::OptionTable<NetOptions>& NetOptions::table() {
  using O = NetOptions;
  static const api::OptionTable<NetOptions> table =
      api::OptionTable<NetOptions>("serving option")
          // Wire.
          .field("host", "H", "bind address", &O::host)
          .field("port", "P", "TCP port; 0 = ephemeral", &O::port)
          .field("threads", "T", "connection worker pool", &O::threads)
          // ServeOptions' "threads" (scan parallelism), renamed here.
          .field("scan-threads", "T", "scan parallelism; 0 = every worker",
                 [](auto& o) -> auto& { return o.serve.threads; })
          .field("port-file", "PATH", "write the bound port here after listen",
                 &O::port_file)
          .field("allow-remote-shutdown", "", "register POST /admin/shutdown",
                 &O::allow_remote_shutdown)
          // Request limits.
          .field("max-body", "N", "request body cap in bytes (else 413)",
                 &O::max_body)
          .field("max-header", "N", "request head cap in bytes (else 431)",
                 &O::max_header)
          .field("read-timeout-ms", "MS", "per-read deadline (else 408)",
                 &O::read_timeout_ms)
          .field("keepalive-requests", "N",
                 "requests per connection; 0 = unlimited",
                 &O::keepalive_requests)
          // Admission control.
          .field("rate-qps", "Q", "global admission rate; 0 = off",
                 &O::rate_qps)
          .field("burst", "B", "global bucket depth; 0 = max(Q, 1)",
                 &O::burst)
          .field("conn-rate-qps", "Q", "per-connection admission rate; 0 = off",
                 &O::conn_rate_qps)
          .field("conn-burst", "B", "per-connection bucket depth",
                 &O::conn_burst)
          // Observability.
          .field("trace-sample-rate", "R", "fraction of requests traced",
                 &O::trace_sample_rate)
          .field("trace-slow-ms", "MS", "always trace requests slower than MS",
                 &O::trace_slow_ms)
          .field("trace-out", "PATH",
                 "dump traces as Chrome JSON on shutdown (alone: rate 1)",
                 &O::trace_out)
          .field("access-log", "", "one structured log line per response",
                 &O::access_log)
          // Chaos (deterministic fault injection).
          .field("chaos-drop-rate", "R", "drop this fraction of requests",
                 &O::chaos_drop_rate)
          .field("chaos-500-rate", "R", "answer this fraction with a 500",
                 &O::chaos_500_rate)
          .field("chaos-stall", "R", "stall this fraction, never answered",
                 &O::chaos_stall)
          .field("chaos-delay-ms", "MS", "delay every surviving request",
                 &O::chaos_delay_ms)
          .field("chaos-seed", "S", "fault-draw seed", &O::chaos_seed)
          .nest(serving::ServeOptions::table(), &O::serve);
  return table;
}

api::Status NetOptions::set(std::string_view key, std::string_view value) {
  return table().set(*this, key, value);
}

api::Status NetOptions::validate() const {
  const auto bad = [](std::string message) {
    return api::Status::invalid_argument(std::move(message));
  };
  if (host.empty()) return bad("host: empty address");
  if (port > 65535) return bad("port: must be in [0, 65535]");
  if (threads < 1 || threads > 1024)
    return bad("threads: must be in [1, 1024]");
  if (max_body < 1 || max_body > (std::uint64_t{1} << 30))
    return bad("max-body: must be in [1, 2^30]");
  if (max_header < 64 || max_header > (1 << 24))
    return bad("max-header: must be in [64, 2^24]");
  if (read_timeout_ms < 1 || read_timeout_ms > 600000)
    return bad("read-timeout-ms: must be in [1, 600000]");
  const std::pair<const char*, double> non_negative[] = {
      {"rate-qps", rate_qps},           {"burst", burst},
      {"conn-rate-qps", conn_rate_qps}, {"conn-burst", conn_burst},
      {"trace-sample-rate", trace_sample_rate},
      {"trace-slow-ms", trace_slow_ms}, {"chaos-drop-rate", chaos_drop_rate},
      {"chaos-500-rate", chaos_500_rate}, {"chaos-stall", chaos_stall}};
  for (const auto& [key, value] : non_negative) {
    if (value < 0.0) return bad(std::string(key) + ": must be >= 0");
  }
  if (burst > 0.0 && rate_qps <= 0.0)
    return bad("burst: needs rate-qps > 0");
  if (conn_burst > 0.0 && conn_rate_qps <= 0.0)
    return bad("conn-burst: needs conn-rate-qps > 0");
  if (trace_sample_rate > 1.0)
    return bad("trace-sample-rate: must be in [0, 1]");
  if (chaos_drop_rate > 1.0 || chaos_500_rate > 1.0 || chaos_stall > 1.0)
    return bad("chaos rates: must be in [0, 1]");
  if (chaos_drop_rate + chaos_500_rate + chaos_stall > 1.0)
    return bad("chaos rates: drop + 500 + stall must not exceed 1");
  return serve.validate();
}

api::Result<NetOptions> NetOptions::from_args(int argc, char** argv) {
  return table().from_args(argc, argv);
}

api::Result<NetOptions> NetOptions::from_file(const std::string& path) {
  return from_file(path, NetOptions{});
}

api::Result<NetOptions> NetOptions::from_file(const std::string& path,
                                              const NetOptions& base) {
  return table().from_file(path, base);
}

}  // namespace gosh::net
