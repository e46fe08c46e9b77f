// The four workloads and the result record every run prints.
//
// A run is one (workload, seed, seconds, trace) tuple. The untraced run
// fills the end-to-end metrics; the traced run fills the per-layer ones.
// Both always check the outputs and count every failed operation.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "gosh/embedding/matrix.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs (self-test): the same code paths at a scale that runs in
  /// about a second.
  bool tiny = false;
  /// Parent of the run's ScratchDir; inside the checkout.
  std::filesystem::path scratch_root;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void set(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// A correctness failure: the run is marked incorrect and exits nonzero.
  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

/// "train-resident" / "train-largegraph".
RunResult run_train(const RunConfig& config);
/// serve-trained's input: one train-resident embed of the seed's graph,
/// scored against the AUCROC floor, moved into `rows`. The traced form
/// traces that embed, adds train-resident's 8 MiB largegraph embed and
/// returns the training per-layer metrics; the untraced form's metrics are
/// training's end-to-end ones, for the caller to drop.
RunResult train_rows(const RunConfig& config,
                     gosh::embedding::EmbeddingMatrix& rows);
/// "serve-exact" / "serve-trained" / "serve-dist".
RunResult run_serve(const RunConfig& config);

/// Dispatches on config.workload; an unknown name is a failed run.
RunResult run_workload(const RunConfig& config);

/// The per-layer metrics every traced run prints, in order; a layer a
/// workload does not exercise reports 0.
const std::vector<Metric>& per_layer_defaults();

/// Fills in every per-layer metric the workload did not set (as 0), in
/// per_layer_defaults() order.
void complete_per_layer(RunResult& result);

/// The last stdout line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..}}}.
std::string result_json(const RunResult& result);

}  // namespace perfbench
