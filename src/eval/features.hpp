// Edge feature construction for link prediction (paper Section 4.1).
//
// A candidate edge (u, v) becomes the element-wise (Hadamard) product of
// the two embedding rows — d features per sample; the logistic regression
// then learns a weighted dot product. Negative candidates are uniform
// non-edges, as many as there are positives, so the training set is
// balanced exactly as in the paper.
//
// Feature rows are never stored: a sample set keeps a reference to the
// embedding plus one id pair and one label per sample (9 B), and computes
// a sample's row into caller-owned scratch when it is visited.
// Memory is O(samples), not O(samples x d) — at the paper's 1.8 B-edge
// scale a materialized d=128 train set alone would be ~1.5 TB.
#pragma once

#include <cstdint>
#include <vector>

#include "gosh/embedding/matrix.hpp"
#include "gosh/graph/builder.hpp"
#include "gosh/graph/graph.hpp"

namespace gosh::eval {

/// Labelled samples whose feature rows are produced on demand. This is what
/// LogisticRegression fits and scores; implementations must be safe to read
/// from several threads at once (each with its own scratch).
class FeatureSource {
 public:
  virtual ~FeatureSource() = default;

  virtual std::size_t size() const noexcept = 0;
  virtual unsigned dim() const noexcept = 0;
  /// 1 for a positive sample, 0 for a negative.
  virtual uint8_t label(std::size_t i) const noexcept = 0;
  /// The dim() features of sample i. Either points into the embedding or
  /// into `scratch` (which must hold dim() floats); valid until `scratch`
  /// is next written.
  virtual const float* row(std::size_t i, float* scratch) const noexcept = 0;
};

/// Link-prediction samples: edge i's features are the Hadamard product
/// matrix.row(u) * matrix.row(v). Holds a reference to `matrix`, which must
/// outlive the set.
class EdgeFeatureSet final : public FeatureSource {
 public:
  EdgeFeatureSet(const embedding::EmbeddingMatrix& matrix,
                 std::vector<graph::Edge> edges, std::vector<uint8_t> labels);

  std::size_t size() const noexcept override { return labels.size(); }
  unsigned dim() const noexcept override { return matrix_->dim(); }
  uint8_t label(std::size_t i) const noexcept override { return labels[i]; }
  const float* row(std::size_t i, float* scratch) const noexcept override;

  std::vector<uint8_t> labels;

 private:
  const embedding::EmbeddingMatrix* matrix_;
  std::vector<graph::Edge> edges_;
};

/// Samples `count` vertex pairs that are NOT arcs of `exclude` (and not
/// self-pairs), uniformly over V x V. Used for both train and test
/// negatives; the test set additionally excludes its own positives via
/// `also_exclude` (may be empty). Pairs may repeat. When fewer than `count`
/// eligible unordered pairs exist at all, returns each of them once (as
/// (u, v) with u < v, in ascending order) instead.
std::vector<graph::Edge> sample_negative_edges(
    const graph::Graph& exclude, std::size_t count, std::uint64_t seed,
    const std::vector<graph::Edge>& also_exclude = {});

/// Builds the balanced sample set: every `positive_edges` entry (label 1)
/// followed by every `negative_edges` entry (label 0), Hadamard features
/// over `matrix`.
EdgeFeatureSet build_edge_features(const embedding::EmbeddingMatrix& matrix,
                                   const std::vector<graph::Edge>& positive_edges,
                                   const std::vector<graph::Edge>& negative_edges);

}  // namespace gosh::eval
