#include "stats.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <system_error>
#include <utility>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return 0.5 * (samples[mid - 1] + samples[mid]);
}

std::uint64_t positive_samples(
    const std::vector<gosh::embedding::LevelReport>& levels) {
  std::uint64_t total = 0;
  for (const auto& level : levels) {
    total += static_cast<std::uint64_t>(level.passes) * level.vertices;
  }
  return total;
}

double samples_per_second(
    const std::vector<gosh::embedding::LevelReport>& levels,
    double training_seconds) {
  if (training_seconds <= 0.0) return 0.0;
  return static_cast<double>(positive_samples(levels)) / training_seconds;
}

std::string span_family(std::string_view name) {
  const std::size_t dash = name.rfind('-');
  if (dash == std::string_view::npos || dash + 1 == name.size()) {
    return std::string(name);
  }
  for (std::size_t i = dash + 1; i < name.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(name[i]))) {
      return std::string(name);
    }
  }
  return std::string(name.substr(0, dash));
}

namespace {

std::uint64_t duration(const gosh::trace::SpanRecord& span) {
  return span.end_ns > span.begin_ns ? span.end_ns - span.begin_ns : 0;
}

/// True when `outer` (at index o) may be the parent of `inner` (at index
/// i): it encloses the interval and, on one thread, sits shallower; across
/// threads (a scatter's per-shard records) it is of another family — the
/// parallel siblings of one family never nest in each other — and longer,
/// or equally long but recorded later (spans are recorded as they close).
bool encloses(const gosh::trace::SpanRecord& outer, std::size_t o,
              const gosh::trace::SpanRecord& inner, std::size_t i) {
  if (o == i) return false;
  if (outer.begin_ns > inner.begin_ns || inner.end_ns > outer.end_ns) {
    return false;
  }
  if (outer.thread == inner.thread) return outer.depth < inner.depth;
  if (span_family(outer.name) == span_family(inner.name)) return false;
  const std::uint64_t outer_len = duration(outer);
  const std::uint64_t inner_len = duration(inner);
  return outer_len > inner_len || (outer_len == inner_len && o > i);
}

/// Of two parent candidates of one span, the tighter one.
bool tighter(const gosh::trace::SpanRecord& a, std::size_t ia,
             const gosh::trace::SpanRecord& b, std::size_t ib) {
  const std::uint64_t la = duration(a);
  const std::uint64_t lb = duration(b);
  if (la != lb) return la < lb;
  if (a.thread == b.thread && a.depth != b.depth) return a.depth > b.depth;
  return ia < ib;
}

}  // namespace

std::map<std::string, double> self_seconds(
    const std::vector<gosh::trace::SpanRecord>& spans) {
  const std::size_t n = spans.size();
  // parent[i] = the tightest span that may enclose span i (n = none).
  std::vector<std::size_t> parent(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p = 0; p < n; ++p) {
      if (!encloses(spans[p], p, spans[i], i)) continue;
      if (parent[i] == n || tighter(spans[p], p, spans[parent[i]], parent[i])) {
        parent[i] = p;
      }
    }
  }
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (parent[i] != n) {
      children[parent[i]].emplace_back(spans[i].begin_ns, spans[i].end_ns);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < n; ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = spans[i].begin_ns;  // end of the union so far
    for (const auto& [begin, end] : kids) {
      const std::uint64_t from = std::max(begin, reach);
      if (end > from) {
        covered += end - from;
        reach = end;
      }
    }
    const std::uint64_t total = duration(spans[i]);
    const std::uint64_t own = total > covered ? total - covered : 0;
    self[span_family(spans[i].name)] += static_cast<double>(own) * 1e-9;
  }
  return self;
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

ScratchDir::ScratchDir(const std::filesystem::path& root,
                       std::string_view workload, std::uint64_t seed)
    : path_(root / (std::string(workload) + "-s" + std::to_string(seed) +
                    "-p" + std::to_string(::getpid()))) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

}  // namespace perfbench
