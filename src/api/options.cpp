#include "gosh/api/options.hpp"

#include <utility>
#include <vector>

namespace gosh::api {
namespace {

/// The preset-controlled fields of GoshConfig (Table 3). Deliberately does
/// NOT reset the rest of `gosh`, so `preset` composes with explicit knobs
/// applied from other sources (a config file under CLI overrides).
Status apply_preset(Options& options) {
  embedding::GoshConfig base;
  if (options.preset == "fast") {
    base = embedding::gosh_fast(options.large_scale);
  } else if (options.preset == "normal") {
    base = embedding::gosh_normal(options.large_scale);
  } else if (options.preset == "slow") {
    base = embedding::gosh_slow(options.large_scale);
  } else if (options.preset == "nocoarse") {
    base = embedding::gosh_no_coarsening(options.large_scale);
  } else {
    return Status::invalid_argument(
        "unknown preset " + quoted(options.preset) +
        " (expected fast|normal|slow|nocoarse)");
  }
  options.gosh.smoothing_ratio = base.smoothing_ratio;
  options.gosh.train.learning_rate = base.train.learning_rate;
  options.gosh.total_epochs = base.total_epochs;
  options.gosh.enable_coarsening = base.enable_coarsening;
  options.gosh.coarsening.threads = base.coarsening.threads;
  return Status::ok();
}

Status set_device_mib(Options& options, std::string_view value) {
  unsigned long long mib = 0;
  if (Status s = parse_field("device-mib", value, mib); !s.is_ok()) return s;
  if (mib == 0 || mib > (std::size_t{1} << 24))
    return Status::invalid_argument("device-mib: out of range " +
                                    quoted(value));
  options.device.memory_bytes = static_cast<std::size_t>(mib) << 20;
  return Status::ok();
}

std::string show_device_mib(const Options& options) {
  return std::to_string(options.device.memory_bytes >> 20);
}

}  // namespace

Result<long long> flag_integer(int argc, char** argv, std::string_view name,
                               long long fallback) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] != name) continue;
    if (i + 1 >= argc)
      return Status::invalid_argument(std::string(name) +
                                      " expects a value");
    auto parsed = parse_integer(argv[i + 1]);
    if (!parsed.ok())
      return Status::invalid_argument(std::string(name) + ": " +
                                      parsed.status().message());
    return parsed.value();
  }
  return fallback;
}

bool flag_present(int argc, char** argv, std::string_view name) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == name) return true;
  }
  return false;
}

std::vector<std::string> flag_list(int argc, char** argv,
                                   std::string_view name,
                                   std::vector<std::string> fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] != name) continue;
    std::vector<std::string> values;
    const std::string_view raw = argv[i + 1];
    std::size_t begin = 0;
    while (begin <= raw.size()) {
      const std::size_t comma = raw.find(',', begin);
      const std::size_t end = comma == std::string_view::npos ? raw.size()
                                                              : comma;
      if (end > begin)
        values.emplace_back(raw.substr(begin, end - begin));
      if (comma == std::string_view::npos) break;
      begin = comma + 1;
    }
    return values;
  }
  return fallback;
}

const OptionTable<Options>& Options::table() {
  using embedding::PositiveSampling;
  using embedding::UpdateRule;
  static const OptionTable<Options> table =
      OptionTable<Options>("option")
          // Tool io.
          .field("input", "PATH", "edge-list file (required unless --demo)",
                 &Options::input_path)
          .field("demo", "", "embed a generated LFR demo graph instead",
                 &Options::demo)
          .field("output", "PATH", "embedding output", &Options::output_path)
          .field("format", "FMT", "binary, text or store (GSHS)",
                 &Options::output_format)
          .field("rows-per-shard", "N",
                 "store format: rows per shard; 0 = one file",
                 &Options::rows_per_shard)
          .field("eval", "", "run the 80/20 link-prediction evaluation",
                 &Options::run_eval)
          .field("verbose", "", "narrate per-level progress",
                 &Options::verbose)
          .field("trace-out", "PATH",
                 "dump a Chrome trace of the run to PATH",
                 &Options::trace_out)
          // Facade-level selection.
          .field("backend",
                 "auto|device|largegraph|multidevice|verse-cpu|line-device|mile",
                 "auto = the fits-in-device policy",
                 &Options::backend)
          .field("large-scale", "", "use the preset's e_large epoch budgets",
                 &Options::large_scale, apply_preset)
          .early()
          .field("preset", "fast|normal|slow|nocoarse", "Table 3 preset",
                 &Options::preset, apply_preset)
          .early()
          // Training.
          .field("dim", "D", "embedding dimension",
                 [](auto& o) -> auto& { return o.gosh.train.dim; })
          .field("negative-samples", "N", "negative samples per positive",
                 [](auto& o) -> auto& { return o.gosh.train.negative_samples; })
          .field("learning-rate", "LR", "initial learning rate",
                 [](auto& o) -> auto& { return o.gosh.train.learning_rate; })
          .field("epochs", "E", "total epoch budget",
                 [](auto& o) -> auto& { return o.gosh.total_epochs; })
          .field("seed", "S", "RNG seed",
                 [](auto& o) -> auto& { return o.gosh.train.seed; })
          .field("smoothing", "P", "smoothing ratio p of the epoch split",
                 [](auto& o) -> auto& { return o.gosh.smoothing_ratio; })
          .field("edge-epochs", "", "one epoch samples |E| targets",
                 [](auto& o) -> auto& { return o.gosh.edge_epochs; })
          .choice("update-rule", "embedding update order",
                  [](auto& o) -> auto& { return o.gosh.train.update_rule; },
                  std::vector<std::pair<std::string, UpdateRule>>{
                      {"simultaneous", UpdateRule::kSimultaneous},
                      {"sequential", UpdateRule::kPaperSequential}})
          .choice("positive-sampling", "how positive samples are drawn",
                  [](auto& o) -> auto& {
                    return o.gosh.train.positive_sampling;
                  },
                  std::vector<std::pair<std::string, PositiveSampling>>{
                      {"adjacency", PositiveSampling::kAdjacency},
                      {"ppr", PositiveSampling::kPpr}})
          // Device shape.
          .custom("device-mib", "M", "emulated device memory in MiB",
                  set_device_mib, show_device_mib)
          .field("workers", "N", "emulated SM workers; 0 = all cores",
                 [](auto& o) -> auto& { return o.device.workers; })
          .field("memory-fraction", "F",
                 "device share the fits-check plans for",
                 [](auto& o) -> auto& { return o.gosh.device_memory_fraction; })
          // Multi-device.
          .field("devices", "N", "replicas of the multidevice backend",
                 &Options::num_devices)
          .field("sync-interval", "N", "multidevice passes between averagings",
                 &Options::sync_interval)
          // Baselines.
          .field("mile-levels", "N", "mile backend: coarsening levels",
                 &Options::mile_levels)
          .field("mile-refinement", "N", "mile backend: refinement rounds",
                 &Options::mile_refinement_rounds)
          .choice("verse-similarity", "verse-cpu backend: similarity",
                  &Options::verse_similarity,
                  std::vector<std::pair<std::string, std::string>>{
                      {"ppr", "ppr"}, {"adjacency", "adjacency"}})
          .field("verse-lr", "LR", "verse-cpu backend: learning rate",
                 &Options::verse_learning_rate)
          // Coarsening.
          .field("coarsening", "", "coarsen before training",
                 [](auto& o) -> auto& { return o.gosh.enable_coarsening; })
          .field("coarsening-threshold", "N",
                 "stop coarsening below this many vertices",
                 [](auto& o) -> auto& { return o.gosh.coarsening.threshold; })
          .field("coarsening-threads", "N",
                 "1 = sequential Algorithm 4; 0 = all cores",
                 [](auto& o) -> auto& { return o.gosh.coarsening.threads; })
          // Large-graph engine (Algorithm 5).
          .field("pgpu", "N", "sub-matrix slots on the device",
                 [](auto& o) -> auto& { return o.gosh.large_graph.pgpu; })
          .field("sgpu", "N", "sample-pool slots on the device",
                 [](auto& o) -> auto& { return o.gosh.large_graph.sgpu; })
          .field("batch", "B", "positives per vertex per sample pool",
                 [](auto& o) -> auto& { return o.gosh.large_graph.batch_B; })
          .field("sampler-threads", "N", "sample-pool producers; 0 = all cores",
                 [](auto& o) -> auto& {
                   return o.gosh.large_graph.sampler_threads;
                 });
  return table;
}

Status Options::set(std::string_view key, std::string_view value) {
  return table().set(*this, key, value);
}

Status Options::validate() const {
  const auto bad = [](std::string message) {
    return Status::invalid_argument(std::move(message));
  };
  if (backend.empty()) return bad("backend: empty name");
  if (preset != "fast" && preset != "normal" && preset != "slow" &&
      preset != "nocoarse")
    return bad("preset: unknown preset " + quoted(preset));
  if (gosh.train.dim < 1 || gosh.train.dim > 4096)
    return bad("dim: must be in [1, 4096]");
  if (gosh.train.negative_samples < 1 || gosh.train.negative_samples > 64)
    return bad("negative-samples: must be in [1, 64]");
  if (!(gosh.train.learning_rate > 0.0f) || gosh.train.learning_rate > 10.0f)
    return bad("learning-rate: must be in (0, 10]");
  if (gosh.total_epochs < 1) return bad("epochs: must be >= 1");
  // p = 0 is meaningful: the fully geometric split (all weight on the
  // coarse levels) the smoothing ablation sweeps down to.
  if (gosh.smoothing_ratio < 0.0 || gosh.smoothing_ratio > 1.0)
    return bad("smoothing: must be in [0, 1]");
  if (!(gosh.device_memory_fraction > 0.0) ||
      gosh.device_memory_fraction > 1.0)
    return bad("memory-fraction: must be in (0, 1]");
  if (!(gosh.train.ppr_alpha > 0.0f) || !(gosh.train.ppr_alpha < 1.0f))
    return bad("ppr-alpha: must be in (0, 1)");
  // No lower bound beyond non-zero: benches deliberately shrink the device
  // to a few hundred KiB to force the Algorithm 5 path at test scale.
  if (device.memory_bytes == 0)
    return bad("device-mib: device needs nonzero memory");
  // Thread-count caps: these spawn real host threads at construction, so
  // an absurd value must be an error here, not a std::system_error later.
  if (device.workers > 1024) return bad("workers: must be <= 1024");
  if (gosh.coarsening.threads > 1024)
    return bad("coarsening-threads: must be <= 1024");
  if (gosh.large_graph.sampler_threads > 1024)
    return bad("sampler-threads: must be <= 1024");
  if (num_devices < 1 || num_devices > 64)
    return bad("devices: must be in [1, 64]");
  if (sync_interval < 1) return bad("sync-interval: must be >= 1");
  if (mile_levels < 1) return bad("mile-levels: must be >= 1");
  if (verse_similarity != "ppr" && verse_similarity != "adjacency")
    return bad("verse-similarity: expected ppr|adjacency, got " +
               quoted(verse_similarity));
  if (!(verse_learning_rate > 0.0f) || verse_learning_rate > 10.0f)
    return bad("verse-lr: must be in (0, 10]");
  if (gosh.coarsening.threshold < 2)
    return bad("coarsening-threshold: must be >= 2");
  if (gosh.coarsening.max_levels < 1)
    return bad("coarsening max_levels: must be >= 1");
  if (gosh.large_graph.pgpu < 2)
    return bad("pgpu: the rotation needs at least 2 sub-matrix slots");
  if (gosh.large_graph.sgpu < 1) return bad("sgpu: must be >= 1");
  if (gosh.large_graph.batch_B < 1) return bad("batch: must be >= 1");
  if (output_format != "binary" && output_format != "text" &&
      output_format != "store")
    return bad("format: expected binary|text|store, got " +
               quoted(output_format));
  if (rows_per_shard != 0 && output_format != "store")
    return bad("rows-per-shard: only meaningful with --format store");
  return Status::ok();
}

Result<Options> Options::from_args(int argc, char** argv) {
  return table().from_args(argc, argv);
}

Result<Options> Options::from_file(const std::string& path) {
  return from_file(path, Options{});
}

Result<Options> Options::from_file(const std::string& path,
                                   const Options& base) {
  return table().from_file(path, base);
}

}  // namespace gosh::api
