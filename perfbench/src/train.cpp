// Training workloads: train-resident and train-largegraph.
//
// Both build the `youtube` analog from the run's seed, split it 80/20 for
// link prediction, embed the train graph through api::embed and score
// the held-out edges. They differ only in backend and device size:
// train-resident keeps every level on a 512 MiB device (Algorithm 3
// alone); train-largegraph caps the device at 8 MiB so level 0 (and
// level 1) go through Algorithm 5's rotations. serve-trained takes its
// stored rows from one train-resident embed (train_rows below). The library
// is driven only through its public calls and timed from outside.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "gosh/api/api.hpp"
#include "gosh/trace/trace.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace gosh;

/// AUCROC below this fails the run. Measured runs read 0.897-0.913 on both
/// training workloads; a drop of 0.05 is a broken trainer, not noise.
constexpr double kAucFloor = 0.85;
/// Levels with fewer vertices than this are "tiny": thousands of short
/// passes each, where per-pass dispatch rather than sampling dominates.
constexpr vid_t kTinyLevel = 1024;
/// Set-up is repeated this many times per run and reported as a median.
constexpr int kSetupRepeats = 7;

/// Times level-0 training steps from outside: each Algorithm 3 pass on a
/// resident level 0, each pair kernel (with its pool wait and sub-matrix
/// switch) on a partitioned one.
class StepObserver final : public api::ProgressObserver {
 public:
  void on_level_begin(const api::LevelInfo& level) override {
    level_ = level.level;
    partitioned_ = level.partitioned;
    last_ns_ = trace::now_ns();
  }
  void on_epoch(std::size_t level, unsigned, unsigned) override {
    // A rotation tick on a partitioned level only re-bases the clock; the
    // pair ticks are the steps there.
    if (level == 0 && !partitioned_) record();
    last_ns_ = trace::now_ns();
  }
  void on_pair(std::size_t level, unsigned, std::size_t,
               std::size_t) override {
    if (level == 0) record();
    last_ns_ = trace::now_ns();
  }

  std::vector<double> step_ms;

 private:
  void record() {
    if (level_ == 0) {
      step_ms.push_back(static_cast<double>(trace::now_ns() - last_ns_) * 1e-6);
    }
  }

  std::size_t level_ = 0;
  bool partitioned_ = false;
  std::uint64_t last_ns_ = 0;
};

struct EmbedRun {
  api::EmbedResult result;
  double wall_s = 0.0;
  std::vector<double> step_ms;
  std::vector<trace::SpanRecord> spans;  ///< traced runs only
};

api::Result<EmbedRun> embed_once(const graph::Graph& graph,
                                 const api::Options& options, bool traced) {
  EmbedRun run;
  StepObserver observer;
  trace::Tracer tracer(trace::TraceOptions{traced ? 1.0 : 0.0, 0.0, 4, 42});
  std::shared_ptr<trace::Trace> profile;
  if (traced) profile = tracer.begin(trace::mint_request_id());
  auto embedded = [&] {
    trace::ScopedTrace scope(profile);
    WallTimer timer;
    auto result = api::embed(graph, options, &observer);
    run.wall_s = timer.seconds();
    return result;
  }();
  if (traced) {
    tracer.finish(profile);
    run.spans = profile->spans();
    tracer.configure(trace::TraceOptions{});  // gate back off
  }
  if (!embedded.ok()) return embedded.status();
  run.result = std::move(embedded.value());
  run.step_ms = std::move(observer.step_ms);
  return run;
}

/// The end-to-end training throughput: level 0 only. The coarse levels'
/// thousands of sub-millisecond passes are dispatch-bound, and their time
/// swung 3-7x between runs with host contention; they are reported per
/// layer (embedding.upper_s, embedding.tiny_s, embedding.samples_per_s).
double level0_samples_per_second(const api::EmbedResult& result) {
  const embedding::LevelReport& level0 = result.levels.front();
  return samples_per_second({level0}, level0.train_seconds);
}

bool all_finite(const embedding::EmbeddingMatrix& matrix) {
  const std::size_t count =
      static_cast<std::size_t>(matrix.rows()) * matrix.dim();
  const emb_t* data = matrix.data();
  for (std::size_t i = 0; i < count; ++i) {
    if (!std::isfinite(data[i])) return false;
  }
  return true;
}

void print_levels(const api::EmbedResult& result) {
  std::printf("%5s %9s %10s %7s %8s %9s %6s %6s %8s %8s %8s\n", "level",
              "|V|", "arcs", "epochs", "passes", "seconds", "parts", "rots",
              "kernels", "switches", "pools");
  for (std::size_t i = 0; i < result.levels.size(); ++i) {
    const auto& level = result.levels[i];
    std::printf("%5zu %9llu %10llu %7u %8u %9.4f %6u %6u %8llu %8llu %8llu\n",
                i, static_cast<unsigned long long>(level.vertices),
                static_cast<unsigned long long>(level.arcs), level.epochs,
                level.passes, level.train_seconds, level.partitions,
                level.rotations,
                static_cast<unsigned long long>(level.pair_kernels),
                static_cast<unsigned long long>(level.submatrix_switches),
                static_cast<unsigned long long>(level.pools_consumed));
  }
}

/// Preset `normal`, d=128: every level resident on a 512 MiB device, or
/// backend `largegraph` on an 8 MiB device (level 0 splits into 15 parts).
api::Options train_options(bool largegraph, bool tiny) {
  api::Options options;
  options.backend = largegraph ? "largegraph" : "device";
  options.device.memory_bytes =
      largegraph ? (tiny ? std::size_t{64} << 10 : std::size_t{8} << 20)
                 : std::size_t{512} << 20;
  if (tiny) options.gosh.total_epochs = 100;
  return options;
}

/// run_train, or with `rows` set, train_rows: one embed (traced in a
/// traced run, with no untraced twin), and the scored embedding moved into
/// `*rows`.
RunResult embed_and_score(const RunConfig& config,
                          embedding::EmbeddingMatrix* rows) {
  RunResult out;
  const bool largegraph = config.workload == "train-largegraph";

  // ---- Set-up: dataset generation + split, repeated, median reported. ---
  graph::DatasetSpec spec = config.tiny ? graph::find_dataset("youtube", 11, 12)
                                        : graph::find_dataset("youtube", 16, 19);
  spec.seed = config.seed;
  std::vector<double> setup_s, generate_s, split_s;
  graph::LinkPredictionSplit split;
  for (int i = 0; i < kSetupRepeats; ++i) {
    WallTimer timer;
    graph::Graph full = graph::generate_dataset(spec);
    generate_s.push_back(timer.seconds());
    WallTimer split_timer;
    split = graph::split_for_link_prediction(
        full, graph::SplitOptions{0.8, config.seed + 1});
    split_s.push_back(split_timer.seconds());
    setup_s.push_back(timer.seconds());
  }
  const graph::Graph& train = split.train;
  std::printf("%s: seed %llu, train graph |V|=%llu |E|=%llu, %zu test edges\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              static_cast<unsigned long long>(train.num_vertices()),
              static_cast<unsigned long long>(train.num_edges_undirected()),
              split.test_edges.size());

  const api::Options options = train_options(largegraph, config.tiny);
  if (api::Status status = options.validate(); !status.is_ok()) {
    out.fail("options: " + status.to_string());
    return out;
  }

  // ---- Measured phase: embed again while the next embed is expected to
  // end within 1.25x of --seconds (so a slow host shortens the run rather
  // than stretching it) and report medians. The traced run embeds once
  // untraced and once traced; the ratio of their per-sample cost is the
  // tracing overhead.
  std::vector<EmbedRun> runs;
  double measured = 0.0;
  const auto another = [&] {
    // train_rows' traced run skips the untraced embed: serving reports its
    // own tracing overhead.
    if (config.trace) return runs.size() < (rows != nullptr ? 1u : 2u);
    if (runs.empty()) return true;
    if (rows != nullptr) return false;
    const double mean = measured / static_cast<double>(runs.size());
    return measured + mean <= 1.25 * config.seconds;
  };
  while (another()) {
    const bool traced =
        config.trace && (rows != nullptr || runs.size() == 1);
    ++out.attempted;
    auto run = embed_once(train, options, traced);
    if (!run.ok()) {
      ++out.failed;
      out.fail("api::embed: " + run.status().to_string());
      return out;
    }
    measured += run.value().wall_s;
    if (!all_finite(run.value().result.embedding)) {
      ++out.failed;
      out.fail("embedding has non-finite rows");
    }
    const auto& levels = run.value().result.levels;
    if (levels.empty() || levels[0].used_large_graph_path != largegraph) {
      ++out.failed;
      out.fail("level 0 did not take the " +
               std::string(largegraph ? "partitioned" : "resident") +
               " training path");
      return out;
    }
    // Only the last embedding is scored; dropping the earlier ones keeps
    // peak memory independent of how many embeds fit the budget.
    if (!runs.empty()) runs.back().result.embedding = {};
    runs.push_back(std::move(run.value()));
  }

  // ---- Validation: link-prediction AUCROC of the last embedding. --------
  const EmbedRun& last = runs.back();
  ++out.attempted;
  WallTimer eval_timer;
  const eval::LinkPredictionReport report = eval::evaluate_link_prediction(
      last.result.embedding, split,
      api::bench_eval_options(train.num_edges_undirected()));
  const double eval_s = eval_timer.seconds();
  if (!(report.auc_roc >= kAucFloor)) {
    ++out.failed;
    out.fail("auc_roc " + std::to_string(report.auc_roc) + " below floor " +
             std::to_string(kAucFloor));
  }
  if (rows != nullptr) *rows = std::move(runs.back().result.embedding);

  for (const EmbedRun& run : runs) {
    std::printf("embed: %.3f s wall, %.3f s training, %.3f s coarsening, "
                "%zu levels, %.4g samples/s (level 0: %.4g)%s\n",
                run.wall_s, run.result.training_seconds,
                run.result.coarsening_seconds, run.result.levels.size(),
                samples_per_second(run.result.levels,
                                   run.result.training_seconds),
                level0_samples_per_second(run.result),
                run.spans.empty() ? "" : " (traced)");
  }
  print_levels(last.result);
  std::printf("auc_roc %.4f on %zu test samples (eval %.2f s)\n",
              report.auc_roc, report.test_samples, eval_s);

  if (!config.trace) {
    std::vector<double> wall, rate, steps;
    for (const EmbedRun& run : runs) {
      wall.push_back(run.wall_s);
      rate.push_back(level0_samples_per_second(run.result));
      steps.insert(steps.end(), run.step_ms.begin(), run.step_ms.end());
    }
    std::printf("train_s %.3f s (median of %zu embeds; depth varies, see "
                "the levels column)\n",
                median(wall), wall.size());
    std::printf("level-0 steps: %zu samples, p50 %.4f ms, p90 %.4f ms, "
                "p99 %.4f ms\n",
                steps.size(), quantile(steps, 0.5), quantile(steps, 0.9),
                quantile(steps, 0.99));
    out.set("setup_s", median(setup_s), "s");
    out.set("throughput_per_s", median(rate), "1/s");
    out.set("latency_p50_ms", quantile(steps, 0.5), "ms");
    out.set("quality", report.auc_roc, "ratio");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // ---- Per-layer metrics (traced run). ----------------------------------
  // train-resident's traced run adds one traced embed in the
  // train-largegraph configuration, so the partitioned path (Algorithm 5)
  // is measured on a gated workload too.
  const EmbedRun* partitioned = &last;
  EmbedRun rung;
  if (!largegraph) {
    ++out.attempted;
    auto run = embed_once(train, train_options(true, config.tiny), true);
    if (!run.ok() || run.value().result.levels.empty() ||
        !run.value().result.levels[0].used_large_graph_path ||
        !all_finite(run.value().result.embedding)) {
      ++out.failed;
      out.fail("largegraph rung: " + (run.ok() ? std::string("bad embedding")
                                               : run.status().to_string()));
      return out;
    }
    rung = std::move(run.value());
    std::printf("\nlargegraph rung (traced embed, 8 MiB device):\n");
    print_levels(rung.result);
    partitioned = &rung;
  }

  const EmbedRun& base = runs.front();
  const api::EmbedResult& r = last.result;
  double level0_s = 0, upper_s = 0, tiny_s = 0, large_s = 0;
  std::uint64_t samples = 0, tiny_samples = 0, rotations = 0, kernels = 0,
                switches = 0, pools = 0;
  for (std::size_t i = 0; i < r.levels.size(); ++i) {
    const auto& level = r.levels[i];
    if (level.used_large_graph_path) continue;
    const std::uint64_t level_samples =
        static_cast<std::uint64_t>(level.passes) * level.vertices;
    samples += level_samples;
    (i == 0 ? level0_s : upper_s) += level.train_seconds;
    if (level.vertices < kTinyLevel) {
      tiny_s += level.train_seconds;
      tiny_samples += level_samples;
    }
  }
  for (const auto& level : partitioned->result.levels) {
    if (!level.used_large_graph_path) continue;
    large_s += level.train_seconds;
    rotations += level.rotations;
    kernels += level.pair_kernels;
    switches += level.submatrix_switches;
    pools += level.pools_consumed;
  }
  const double resident_s = level0_s + upper_s;
  // Only the partitioned path emits training spans (rotation, pool-wait,
  // pair-kernel); resident levels run outside any span.
  const auto self = self_seconds(partitioned->spans);
  const auto at = [&self](const char* family) {
    const auto it = self.find(family);
    return it == self.end() ? 0.0 : it->second;
  };
  const double base_ns = 1e9 * base.result.training_seconds /
                         std::max<double>(1, positive_samples(base.result.levels));
  const double traced_ns = 1e9 * r.training_seconds /
                           std::max<double>(1, positive_samples(r.levels));
  const auto& device = r.device_metrics;
  const unsigned parts0 = partitioned->result.levels[0].partitions;

  out.set("graph.generate_s", median(generate_s), "s");
  out.set("graph.split_s", median(split_s), "s");
  out.set("coarsening.s", r.coarsening_seconds, "s");
  out.set("coarsening.levels", static_cast<double>(r.levels.size()), "count");
  out.set("coarsening.shrink_l0",
          r.levels.size() > 1 ? static_cast<double>(r.levels[1].vertices) /
                                    r.levels[0].vertices
                              : 1.0,
          "ratio");
  out.set("embedding.level0_s", level0_s, "s");
  out.set("embedding.upper_s", upper_s, "s");
  out.set("embedding.tiny_s", tiny_s, "s");
  out.set("embedding.samples", static_cast<double>(samples), "count");
  out.set("embedding.tiny_samples", static_cast<double>(tiny_samples), "count");
  out.set("embedding.ns_per_sample",
          samples > 0 ? 1e9 * resident_s / static_cast<double>(samples) : 0.0,
          "ns");
  out.set("embedding.train_s", base.wall_s, "s");
  out.set("embedding.samples_per_s",
          samples_per_second(base.result.levels, base.result.training_seconds),
          "1/s");
  out.set("embedding.step_p99_ms", quantile(base.step_ms, 0.99), "ms");
  out.set("largegraph.s", large_s, "s");
  out.set("largegraph.parts", parts0, "count");
  out.set("largegraph.rotations", static_cast<double>(rotations), "count");
  out.set("largegraph.pair_kernels", static_cast<double>(kernels), "count");
  out.set("largegraph.switches", static_cast<double>(switches), "count");
  out.set("largegraph.switches_per_kernel",
          kernels > 0 ? static_cast<double>(switches) / kernels : 0.0, "ratio");
  out.set("largegraph.pools", static_cast<double>(pools), "count");
  out.set("largegraph.pool_wait_s", at("pool-wait"), "s");
  out.set("largegraph.pair_kernel_s", at("pair-kernel"), "s");
  out.set("largegraph.rotation_self_s", at("rotation"), "s");
  out.set("simt.h2d_bytes", static_cast<double>(device.h2d_bytes), "B");
  out.set("simt.d2h_bytes", static_cast<double>(device.d2h_bytes), "B");
  out.set("simt.kernels", static_cast<double>(device.kernels_launched), "count");
  out.set("simt.global_accesses", static_cast<double>(device.global_accesses),
          "count");
  out.set("simt.shared_accesses", static_cast<double>(device.shared_accesses),
          "count");
  out.set("eval.s", eval_s, "s");
  out.set("eval.test_edges", static_cast<double>(split.test_edges.size()),
          "count");
  out.set("trace.overhead", base_ns > 0 ? traced_ns / base_ns : 0.0, "ratio");

  const api::EmbedResult& p = partitioned->result;
  std::printf("\ntraced partitioned embed, self time by layer (blocking "
              "path = the training thread):\n");
  for (const auto& [family, seconds] : self) {
    std::printf("  %-14s %9.4f s\n", family.c_str(), seconds);
  }
  std::printf("  %-14s %9.4f s  (of %.4f s training, %.4f s coarsening)\n",
              "outside spans",
              p.total_seconds - at("rotation") - at("pool-wait") -
                  at("pair-kernel"),
              p.training_seconds, p.coarsening_seconds);
  if (rows == nullptr) {
    std::printf("trace.overhead %.4f (traced %.3f ns/sample vs untraced "
                "%.3f)\n",
                base_ns > 0 ? traced_ns / base_ns : 0.0, traced_ns, base_ns);
  }
  return out;
}

}  // namespace

RunResult run_train(const RunConfig& config) {
  return embed_and_score(config, nullptr);
}

RunResult train_rows(const RunConfig& config,
                     embedding::EmbeddingMatrix& rows) {
  return embed_and_score(config, &rows);
}

}  // namespace perfbench
