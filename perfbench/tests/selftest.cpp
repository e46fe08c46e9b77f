// Self-tests of the benchmark's own measurement code, checked against
// hand-computed values: exact quantiles, the samples/s formula, span self
// time, and the per-run scratch directory. Exits nonzero on any failure.
// (The tiny-scale run of every workload lives in run.py --self-test.)
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok    " : "FAILED", what);
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

gosh::trace::SpanRecord span(const char* name, std::uint64_t begin,
                             std::uint64_t end, std::uint32_t depth = 0,
                             std::uint32_t thread = 0) {
  gosh::trace::SpanRecord record;
  record.name = name;
  record.begin_ns = begin;
  record.end_ns = end;
  record.depth = depth;
  record.thread = thread;
  return record;
}

void quantiles() {
  const std::vector<double> five = {5, 1, 4, 2, 3};
  check(perfbench::quantile(five, 0.5) == 3, "p50 of {1..5} is 3");
  check(perfbench::quantile(five, 0.9) == 5, "p90 of {1..5} is 5 (rank 5)");
  check(perfbench::quantile(five, 0.2) == 1, "p20 of {1..5} is 1 (rank 1)");
  check(perfbench::quantile(five, 0.0) == 1, "p0 clamps to the minimum");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  check(perfbench::quantile(hundred, 0.99) == 99, "p99 of {1..100} is 99");
  check(perfbench::quantile(hundred, 0.999) == 100, "p99.9 of {1..100} is 100");
  check(perfbench::quantile({}, 0.5) == 0, "quantile of nothing is 0");
  check(perfbench::median({4, 1, 3, 2}) == 2.5, "median of {1,2,3,4} is 2.5");
  check(perfbench::median({7, 9, 8}) == 8, "median of {7,8,9} is 8");
}

void samples_per_second() {
  std::vector<gosh::embedding::LevelReport> levels(2);
  levels[0].vertices = 1000;
  levels[0].passes = 10;
  levels[1].vertices = 100;
  levels[1].passes = 50;
  check(perfbench::positive_samples(levels) == 15000,
        "samples = 1000*10 + 100*50");
  check(near(perfbench::samples_per_second(levels, 3.0), 5000.0),
        "15000 samples in 3 s = 5000/s");
  check(perfbench::samples_per_second(levels, 0.0) == 0.0,
        "no training time -> 0, not inf");
}

void self_time() {
  check(perfbench::span_family("rotation-12") == "rotation", "rotation-12");
  check(perfbench::span_family("shard-0") == "shard", "shard-0");
  check(perfbench::span_family("pool-wait") == "pool-wait", "pool-wait kept");
  check(perfbench::span_family("x-") == "x-", "trailing dash kept");

  // handler [0,100] > parse [10,20], serve [20,90] > scan [30,80]; recorded
  // innermost first, as RAII spans close.
  const auto nested = perfbench::self_seconds(
      {span("parse", 10, 20, 1), span("scan", 30, 80, 2),
       span("serve", 20, 90, 1), span("handler", 0, 100, 0)});
  check(near(nested.at("handler"), 20e-9), "handler self = 100 - 10 - 70");
  check(near(nested.at("parse"), 10e-9), "parse self = 10");
  check(near(nested.at("serve"), 20e-9), "serve self = 70 - 50");
  check(near(nested.at("scan"), 50e-9), "scan self = 50 (leaf)");

  // Parallel children recorded from other threads overlap; the parent
  // loses their union once: scatter [0,80] over [10,60] u [20,80] u
  // [30,50] = [10,80]. shard-2 lies inside shard-0 in time but is its
  // sibling, not its child.
  const auto parallel = perfbench::self_seconds(
      {span("shard-0", 10, 60, 0, 1), span("shard-1", 20, 80, 0, 2),
       span("shard-2", 30, 50, 0, 3), span("merge", 85, 95, 2, 0),
       span("scatter", 0, 80, 2, 0), span("serve", 0, 100, 1, 0)});
  check(near(parallel.at("scatter"), 10e-9), "scatter self = 80 - 70");
  check(near(parallel.at("shard"), 130e-9), "shards are siblings: 50+60+20");
  check(near(parallel.at("serve"), 10e-9), "serve self = 100 - 80 - 10");

  // Identical intervals on one thread: the shallower span is the parent.
  const auto same = perfbench::self_seconds(
      {span("inner", 0, 10, 1), span("outer", 0, 10, 0)});
  check(near(same.at("inner"), 10e-9) && near(same.at("outer"), 0.0),
        "equal intervals: the outer span has no self time");
}

void scratch_dir() {
  const std::filesystem::path root =
      std::filesystem::current_path() / ".bench_build" /
      ("selftest-" + std::to_string(::getpid()));
  std::filesystem::path made;
  {
    perfbench::ScratchDir dir(root, "serve-dist", 42);
    made = dir.path();
    std::ofstream(dir.file("store.gshs")) << "x";
    const std::string name = made.filename().string();
    check(name == "serve-dist-s42-p" + std::to_string(::getpid()),
          "scratch dir is per workload, seed and pid");
    check(std::filesystem::exists(dir.file("store.gshs")),
          "scratch dir holds files");
  }
  check(!std::filesystem::exists(made), "scratch dir removed on scope exit");
  std::filesystem::remove_all(root);
}

}  // namespace

int main() {
  quantiles();
  samples_per_second();
  self_time();
  scratch_dir();
  std::printf("%s (%d failure(s))\n", failures == 0 ? "passed" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
