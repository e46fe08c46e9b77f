#include "gosh/eval/pipeline.hpp"

#include <algorithm>
#include <cassert>
#include <span>

#include "gosh/common/rng.hpp"
#include "gosh/common/timer.hpp"
#include "gosh/eval/aucroc.hpp"
#include "gosh/graph/builder.hpp"

namespace gosh::eval {

namespace {

/// One-vs-rest node-classification samples: sample i is vertex ids[i], its
/// features are that embedding row as stored, and it is positive when
/// classes[ids[i]] == positive_class.
class VertexFeatureSet final : public FeatureSource {
 public:
  VertexFeatureSet(const embedding::EmbeddingMatrix& matrix,
                   std::span<const vid_t> ids,
                   std::span<const unsigned> classes, unsigned positive_class)
      : matrix_(&matrix),
        ids_(ids),
        classes_(classes),
        positive_class_(positive_class) {}

  std::size_t size() const noexcept override { return ids_.size(); }
  unsigned dim() const noexcept override { return matrix_->dim(); }
  uint8_t label(std::size_t i) const noexcept override {
    return classes_[ids_[i]] == positive_class_ ? 1 : 0;
  }
  const float* row(std::size_t i, float*) const noexcept override {
    return matrix_->row(ids_[i]).data();
  }

 private:
  const embedding::EmbeddingMatrix* matrix_;
  std::span<const vid_t> ids_;
  std::span<const unsigned> classes_;
  unsigned positive_class_;
};

/// R_train: all train edges + equal negatives from (VxV) \ E_train. The
/// edge lists die here; the set keeps one copy of each pair.
EdgeFeatureSet train_samples(const embedding::EmbeddingMatrix& matrix,
                             const graph::LinkPredictionSplit& split,
                             const LinkPredictionOptions& options) {
  std::vector<graph::Edge> positives = graph::undirected_edges(split.train);
  if (options.max_train_edges != 0 &&
      positives.size() > options.max_train_edges) {
    // Deterministic subsample: shuffle then truncate.
    Rng rng(options.negative_seed);
    for (std::size_t i = positives.size(); i > 1; --i) {
      std::swap(positives[i - 1], positives[rng.next_bounded(i)]);
    }
    positives.resize(options.max_train_edges);
  }
  const std::vector<graph::Edge> negatives = sample_negative_edges(
      split.train, positives.size(), options.negative_seed);
  return build_edge_features(matrix, positives, negatives);
}

/// R_test: test edges + equal negatives excluding train AND test.
EdgeFeatureSet test_samples(const embedding::EmbeddingMatrix& matrix,
                            const graph::LinkPredictionSplit& split,
                            const LinkPredictionOptions& options) {
  const std::vector<graph::Edge> negatives = sample_negative_edges(
      split.train, split.test_edges.size(), options.negative_seed + 1,
      /*also_exclude=*/split.test_edges);
  return build_edge_features(matrix, split.test_edges, negatives);
}

}  // namespace

LinkPredictionReport evaluate_link_prediction(
    const embedding::EmbeddingMatrix& matrix,
    const graph::LinkPredictionSplit& split,
    const LinkPredictionOptions& options) {
  assert(matrix.rows() == split.train.num_vertices());

  LinkPredictionReport report;
  LogisticRegression model(options.logreg);
  {
    const EdgeFeatureSet train_set = train_samples(matrix, split, options);
    report.train_samples = train_set.size();
    WallTimer fit_timer;
    model.fit(train_set);
    report.fit_seconds = fit_timer.seconds();
  }

  const EdgeFeatureSet test_set = test_samples(matrix, split, options);
  report.test_samples = test_set.size();
  const std::vector<float> scores = model.predict(test_set);
  report.auc_roc = auc_roc(scores, test_set.labels);
  return report;
}

NodeClassificationReport evaluate_node_classification(
    const embedding::EmbeddingMatrix& matrix,
    const std::vector<unsigned>& labels,
    const NodeClassificationOptions& options) {
  assert(labels.size() == matrix.rows());
  const vid_t n = matrix.rows();
  const unsigned num_classes =
      labels.empty() ? 0 : *std::max_element(labels.begin(), labels.end()) + 1;

  // Split vertices into train/test.
  Rng rng(options.seed);
  std::vector<vid_t> train_ids, test_ids;
  for (vid_t v = 0; v < n; ++v) {
    (rng.next_double() < options.train_fraction ? train_ids : test_ids)
        .push_back(v);
  }

  // One-vs-rest: each class's model reads the train vertices' rows straight
  // from the embedding; only its label is per class.
  std::vector<LogisticRegression> models;
  models.reserve(num_classes);
  for (unsigned c = 0; c < num_classes; ++c) {
    LogisticRegression model(options.logreg);
    model.fit(VertexFeatureSet(matrix, train_ids, labels, c));
    models.push_back(std::move(model));
  }

  // Predict argmax over the per-class probabilities.
  std::size_t correct = 0;
  for (vid_t v : test_ids) {
    const float* features = matrix.row(v).data();
    unsigned best_class = 0;
    float best_probability = -1.0f;
    for (unsigned c = 0; c < num_classes; ++c) {
      const float probability = models[c].predict_probability(features);
      if (probability > best_probability) {
        best_probability = probability;
        best_class = c;
      }
    }
    if (best_class == labels[v]) ++correct;
  }

  NodeClassificationReport report;
  report.classes = num_classes;
  report.accuracy = test_ids.empty()
                        ? 0.0
                        : static_cast<double>(correct) / test_ids.size();
  // With single-label classes, micro-F1 equals accuracy.
  report.micro_f1 = report.accuracy;
  return report;
}

}  // namespace gosh::eval
