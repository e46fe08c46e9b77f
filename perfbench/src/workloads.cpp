#include "workloads.hpp"

#include <charconv>
#include <cmath>

namespace perfbench {

RunResult run_workload(const RunConfig& config) {
  if (config.workload == "train-resident" ||
      config.workload == "train-largegraph") {
    return run_train(config);
  }
  if (config.workload == "serve-exact" || config.workload == "serve-trained" ||
      config.workload == "serve-dist") {
    return run_serve(config);
  }
  RunResult result;
  result.attempted = 1;
  result.failed = 1;
  result.fail("unknown workload '" + config.workload + "'");
  return result;
}

const std::vector<Metric>& per_layer_defaults() {
  static const std::vector<Metric> metrics = {
      {"graph.generate_s", 0, "s"},
      {"graph.split_s", 0, "s"},
      {"coarsening.s", 0, "s"},
      {"coarsening.levels", 0, "count"},
      {"coarsening.shrink_l0", 0, "ratio"},
      {"embedding.level0_s", 0, "s"},
      {"embedding.upper_s", 0, "s"},
      {"embedding.tiny_s", 0, "s"},
      {"embedding.samples", 0, "count"},
      {"embedding.tiny_samples", 0, "count"},
      {"embedding.ns_per_sample", 0, "ns"},
      {"embedding.train_s", 0, "s"},
      {"embedding.samples_per_s", 0, "1/s"},
      {"embedding.step_p99_ms", 0, "ms"},
      {"largegraph.s", 0, "s"},
      {"largegraph.parts", 0, "count"},
      {"largegraph.rotations", 0, "count"},
      {"largegraph.pair_kernels", 0, "count"},
      {"largegraph.switches", 0, "count"},
      {"largegraph.switches_per_kernel", 0, "ratio"},
      {"largegraph.pools", 0, "count"},
      {"largegraph.pool_wait_s", 0, "s"},
      {"largegraph.pair_kernel_s", 0, "s"},
      {"largegraph.rotation_self_s", 0, "s"},
      {"simt.h2d_bytes", 0, "B"},
      {"simt.d2h_bytes", 0, "B"},
      {"simt.kernels", 0, "count"},
      {"simt.global_accesses", 0, "count"},
      {"simt.shared_accesses", 0, "count"},
      {"eval.s", 0, "s"},
      {"eval.test_edges", 0, "count"},
      {"store.write_s", 0, "s"},
      {"store.open_s", 0, "s"},
      {"store.bytes", 0, "B"},
      {"query.inproc_qps", 0, "1/s"},
      {"query.scan_s", 0, "s"},
      {"query.bytes_per_query", 0, "B"},
      {"serving.scatter_s", 0, "s"},
      {"serving.shard_max_s", 0, "s"},
      {"serving.merge_s", 0, "s"},
      {"serving.remote_call_s", 0, "s"},
      {"serving.retries", 0, "count"},
      {"serving.hedges", 0, "count"},
      {"serving.degraded", 0, "count"},
      {"net.handler_s", 0, "s"},
      {"net.parse_s", 0, "s"},
      {"net.serve_s", 0, "s"},
      {"net.render_s", 0, "s"},
      {"net.wire_s", 0, "s"},
      {"net.non2xx", 0, "count"},
      {"loadgen.p50_ms", 0, "ms"},
      {"loadgen.p99_ms", 0, "ms"},
      {"loadgen.lag_p99_ms", 0, "ms"},
      {"trace.overhead", 0, "ratio"},
  };
  return metrics;
}

void complete_per_layer(RunResult& result) {
  std::vector<Metric> ordered;
  ordered.reserve(per_layer_defaults().size());
  for (const Metric& wanted : per_layer_defaults()) {
    Metric metric = wanted;
    for (const Metric& have : result.metrics) {
      if (have.name != wanted.name) continue;
      if (have.unit != wanted.unit) {
        result.fail("metric " + have.name + " reported in " + have.unit +
                    ", declared in " + wanted.unit);
      }
      metric.value = have.value;
    }
    ordered.push_back(std::move(metric));
  }
  for (const Metric& have : result.metrics) {
    bool declared = false;
    for (const Metric& wanted : per_layer_defaults()) {
      declared = declared || wanted.name == have.name;
    }
    if (!declared) result.fail("undeclared per-layer metric " + have.name);
  }
  result.metrics = std::move(ordered);
}

namespace {

std::string number(double value) {
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc{}) return "0";
  return std::string(buffer, end);
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string result_json(const RunResult& result) {
  bool finite = true;
  std::string metrics;
  for (const Metric& metric : result.metrics) {
    if (!metrics.empty()) metrics += ", ";
    const bool ok = std::isfinite(metric.value);
    finite = finite && ok;
    metrics += quoted(metric.name) + ": {\"value\": " +
               number(ok ? metric.value : 0.0) +
               ", \"unit\": " + quoted(metric.unit) + "}";
  }
  return std::string("{\"correct\": ") +
         (result.correct && finite ? "true" : "false") +
         ", \"attempted\": " + std::to_string(result.attempted) +
         ", \"failed\": " + std::to_string(result.failed) +
         ", \"metrics\": {" + metrics + "}}";
}

}  // namespace perfbench
