// gosh_perfbench — runs one benchmark workload and prints its metrics.
//
//   gosh_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--scratch DIR] [--tiny]
//
// Human-readable detail (per-level tables, layer breakdowns) goes to
// stdout first; the last stdout line is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 prints the end-to-end
// metrics, --trace 1 the per-layer ones. Any failed operation or failed
// correctness check exits 1.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>

#include "gosh/api/api.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: gosh_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scratch DIR] [--tiny]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.scratch_root = std::filesystem::current_path() / ".bench_build" / "run";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--tiny") {
      config.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return usage("flag without a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      auto parsed = gosh::api::parse_unsigned(value);
      if (!parsed.ok()) return usage("--seed wants a non-negative integer");
      config.seed = parsed.value();
    } else if (flag == "--seconds") {
      auto parsed = gosh::api::parse_real(value);
      if (!parsed.ok() || parsed.value() <= 0.0 || parsed.value() > 600.0) {
        return usage("--seconds wants a number in (0, 600]");
      }
      config.seconds = parsed.value();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace wants 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--scratch") {
      config.scratch_root = value;
    } else {
      return usage("unknown flag");
    }
  }
  if (!have_workload) return usage("--workload is required");

  gosh::set_log_level(gosh::LogLevel::Warn);
  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(config);
  } catch (const std::exception& e) {
    result.fail(std::string("exception: ") + e.what());
    ++result.failed;
    if (result.attempted < result.failed) result.attempted = result.failed;
  }
  if (config.trace) perfbench::complete_per_layer(result);
  for (const perfbench::Metric& metric : result.metrics) {
    if (!std::isfinite(metric.value)) {
      result.fail("metric " + metric.name + " is not finite");
    }
  }
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "FAILED: %s\n", error.c_str());
  }
  if (result.attempted == 0) result.fail("no operation was attempted");
  std::fflush(stdout);
  std::printf("%s\n", perfbench::result_json(result).c_str());
  return result.correct && result.failed == 0 ? 0 : 1;
}
