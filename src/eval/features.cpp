#include "gosh/eval/features.hpp"

#include <algorithm>
#include <unordered_set>

#include "gosh/common/rng.hpp"
#include "gosh/graph/ops.hpp"

namespace gosh::eval {

EdgeFeatureSet::EdgeFeatureSet(const embedding::EmbeddingMatrix& matrix,
                               std::vector<graph::Edge> edges,
                               std::vector<uint8_t> labels)
    : labels(std::move(labels)), matrix_(&matrix), edges_(std::move(edges)) {}

const float* EdgeFeatureSet::row(std::size_t i,
                                 float* scratch) const noexcept {
  const auto a = matrix_->row(edges_[i].first);
  const auto b = matrix_->row(edges_[i].second);
  for (std::size_t j = 0; j < a.size(); ++j) scratch[j] = a[j] * b[j];
  return scratch;
}

std::vector<graph::Edge> sample_negative_edges(
    const graph::Graph& exclude, std::size_t count, std::uint64_t seed,
    const std::vector<graph::Edge>& also_exclude) {
  const vid_t n = exclude.num_vertices();
  Rng rng(seed);

  std::unordered_set<std::uint64_t> extra;
  extra.reserve(also_exclude.size() * 2);
  auto pack = [](vid_t u, vid_t v) {
    if (u > v) std::swap(u, v);
    return (static_cast<std::uint64_t>(u) << 32) | v;
  };
  for (const auto& [u, v] : also_exclude) extra.insert(pack(u, v));

  auto eligible = [&](vid_t u, vid_t v) {
    return u != v && !graph::has_arc(exclude, u, v) &&
           (extra.empty() || !extra.contains(pack(u, v)));
  };

  // Eligible unordered pairs: all u < v, minus the arcs of the (symmetric)
  // graph, minus the extra exclusions that are neither arcs nor self-pairs.
  // Rejection sampling cannot finish when fewer than `count` exist (none at
  // all on a complete graph), so then every eligible pair is returned once.
  std::uint64_t excluded = 0;
  for (vid_t u = 0; u < n; ++u) {
    const auto nb = exclude.neighbors(u);
    excluded += static_cast<std::uint64_t>(
        nb.end() - std::upper_bound(nb.begin(), nb.end(), u));
  }
  for (const std::uint64_t key : extra) {
    const auto u = static_cast<vid_t>(key >> 32);
    const auto v = static_cast<vid_t>(key);
    if (u != v && v < n && !graph::has_arc(exclude, u, v)) ++excluded;
  }
  const std::uint64_t pairs =
      n == 0 ? 0 : static_cast<std::uint64_t>(n) * (n - 1) / 2;

  std::vector<graph::Edge> negatives;
  if (pairs - excluded < count) {
    negatives.reserve(pairs - excluded);
    for (vid_t u = 0; u < n; ++u) {
      for (vid_t v = u + 1; v < n; ++v) {
        if (eligible(u, v)) negatives.emplace_back(u, v);
      }
    }
    return negatives;
  }

  negatives.reserve(count);
  while (negatives.size() < count) {
    const vid_t u = rng.next_vertex(n);
    const vid_t v = rng.next_vertex(n);
    if (eligible(u, v)) negatives.emplace_back(u, v);
  }
  return negatives;
}

EdgeFeatureSet build_edge_features(
    const embedding::EmbeddingMatrix& matrix,
    const std::vector<graph::Edge>& positive_edges,
    const std::vector<graph::Edge>& negative_edges) {
  std::vector<graph::Edge> edges;
  edges.reserve(positive_edges.size() + negative_edges.size());
  edges.insert(edges.end(), positive_edges.begin(), positive_edges.end());
  edges.insert(edges.end(), negative_edges.begin(), negative_edges.end());
  std::vector<uint8_t> labels(edges.size(), 0);
  std::fill_n(labels.begin(), positive_edges.size(), uint8_t{1});
  return EdgeFeatureSet(matrix, std::move(edges), std::move(labels));
}

}  // namespace gosh::eval
