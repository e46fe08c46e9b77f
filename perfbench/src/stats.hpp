// The benchmark's own measurement helpers: exact sample quantiles, the
// GraphVite samples/s formula, span self time, peak RSS, and the per-run
// scratch directory. Everything here is pure (or process-local) so the
// self-test can check it against hand-computed values.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "gosh/embedding/gosh.hpp"
#include "gosh/trace/trace.hpp"

namespace perfbench {

/// Nearest-rank quantile of an exact sample: the smallest value with at
/// least q*n samples at or below it. `samples` need not be sorted; empty
/// input yields 0. Never interpolates, so every reported quantile is a
/// latency some request actually saw.
double quantile(std::vector<double> samples, double q);

/// Classical median (mean of the two middle values for even n).
double median(std::vector<double> samples);

/// Positive training samples one embedding run drew: sum over levels of
/// passes_i * |V_i| — one positive per vertex per Algorithm 3 pass, the
/// unit GraphVite reports throughput in.
std::uint64_t positive_samples(
    const std::vector<gosh::embedding::LevelReport>& levels);

/// Positive samples per second of training time (0 when either is 0).
double samples_per_second(
    const std::vector<gosh::embedding::LevelReport>& levels,
    double training_seconds);

/// "rotation-12" -> "rotation", "shard-0" -> "shard": the span family a
/// numbered span is reported under.
std::string span_family(std::string_view name);

/// Self time per span family within one trace, in seconds: each span's
/// duration minus the part of its interval covered by its children. A
/// span's parent is the tightest span enclosing its interval — shallower
/// on the same thread, or of another family on another thread, so a
/// scatter's per-shard records nest under the scatter, not in each other —
/// and overlapping children are counted once (interval union).
std::map<std::string, double> self_seconds(
    const std::vector<gosh::trace::SpanRecord>& spans);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// A per-process, per-workload, per-seed directory under `root`, created
/// on construction and removed with everything in it on destruction — no
/// two concurrent runs can share a store, port file or trace file.
class ScratchDir {
 public:
  ScratchDir(const std::filesystem::path& root, std::string_view workload,
             std::uint64_t seed);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::filesystem::path& path() const noexcept { return path_; }
  std::string file(std::string_view name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace perfbench
