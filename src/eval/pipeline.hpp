// End-to-end link-prediction evaluation (paper Section 4.1).
//
// Given a trained embedding of G_train and the held-out test edges, the
// pipeline: (1) assembles the balanced train set — all train edges plus an
// equal number of sampled non-edges; (2) fits logistic regression on
// Hadamard features; (3) assembles the balanced test set from the test
// edges the same way; (4) reports the test AUCROC.
//
// A node-classification pipeline (the paper's future-work task) is also
// provided: one-vs-rest logistic regression over per-vertex labels.
#pragma once

#include <cstdint>

#include "gosh/embedding/matrix.hpp"
#include "gosh/eval/logreg.hpp"
#include "gosh/graph/split.hpp"

namespace gosh::eval {

struct LinkPredictionOptions {
  LogRegConfig logreg;
  /// Cap on train positives fed to the classifier (0 = all). The paper
  /// switches solver rather than subsampling; the cap keeps the harness
  /// usable for quick smoke runs.
  std::size_t max_train_edges = 0;
  std::uint64_t negative_seed = 99;
};

struct LinkPredictionReport {
  double auc_roc = 0.0;
  std::size_t train_samples = 0;
  std::size_t test_samples = 0;
  double fit_seconds = 0.0;
};

/// Evaluates `matrix` (the embedding of split.train) on split.test_edges.
/// Throws std::invalid_argument (from auc_roc) when the test set holds one
/// class only: no test edge, or no pair outside train and test edges.
LinkPredictionReport evaluate_link_prediction(
    const embedding::EmbeddingMatrix& matrix,
    const graph::LinkPredictionSplit& split,
    const LinkPredictionOptions& options = {});

struct NodeClassificationOptions {
  LogRegConfig logreg;
  double train_fraction = 0.8;
  std::uint64_t seed = 11;
};

struct NodeClassificationReport {
  double micro_f1 = 0.0;
  double accuracy = 0.0;
  std::size_t classes = 0;
};

/// One-vs-rest classification of per-vertex labels from embedding rows.
NodeClassificationReport evaluate_node_classification(
    const embedding::EmbeddingMatrix& matrix,
    const std::vector<unsigned>& labels,
    const NodeClassificationOptions& options = {});

}  // namespace gosh::eval
