#include "graph/distance_oracle.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/hot.hpp"

namespace arvy::graph {

DistanceOracle::DistanceOracle(const Graph& g)
    : graph_(&g), rows_(g.node_count()) {}

const ShortestPathTree& DistanceOracle::row(NodeId source) const {
  ARVY_EXPECTS(graph_->contains(source));
  const auto& slot = rows_[source];
  return slot ? *slot : fill_row(source);
}

ARVY_COLD const ShortestPathTree& DistanceOracle::fill_row(
    NodeId source) const {
  auto& slot = rows_[source];
  slot = std::make_unique<ShortestPathTree>(dijkstra(*graph_, source));
  return *slot;
}

Weight DistanceOracle::distance(NodeId from, NodeId to) const {
  ARVY_EXPECTS(graph_->contains(from) && graph_->contains(to));
  if (from == to) return 0.0;
  // Reuse whichever row is already cached before computing a new one.
  if (rows_[to] && !rows_[from]) return rows_[to]->distance[from];
  return row(from).distance[to];
}

std::vector<NodeId> DistanceOracle::shortest_path(NodeId from, NodeId to) const {
  return row(from).path_to(to);
}

void DistanceOracle::prewarm_all() const {
  for (NodeId v = 0; v < graph_->node_count(); ++v) {
    (void)row(v);
  }
}

std::size_t DistanceOracle::cached_rows() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(rows_.begin(), rows_.end(),
                    [](const auto& p) { return p != nullptr; }));
}

}  // namespace arvy::graph
