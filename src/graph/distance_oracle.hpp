// Lazy cached distance queries.
//
// The simulator charges every message send with dist_G(from, to) (§3 of the
// paper: routing is solved and follows shortest paths). An experiment on a
// ring of 1024 nodes only ever touches a few source rows, so the oracle
// computes Dijkstra rows on demand and caches them instead of paying the
// full O(n^2) APSP up front.
#pragma once

#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "graph/shortest_paths.hpp"

namespace arvy::graph {

class DistanceOracle {
 public:
  explicit DistanceOracle(const Graph& g);

  // Shortest-path distance; computes and caches the source row on first use.
  [[nodiscard]] Weight distance(NodeId from, NodeId to) const;

  // Nodes on a shortest path from -> to (inclusive of both endpoints).
  [[nodiscard]] std::vector<NodeId> shortest_path(NodeId from, NodeId to) const;

  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] std::size_t cached_rows() const noexcept;

  // Computes every row eagerly. After this call all queries are pure reads,
  // which makes the oracle safe to share across threads (the lazy cache is
  // NOT thread-safe).
  void prewarm_all() const;

 private:
  const ShortestPathTree& row(NodeId source) const;
  // The lazy Dijkstra fill behind row(): out of line and ARVY_COLD, so a hot
  // caller's audit stops at it (the runtime prewarms every row, so it never
  // runs there).
  const ShortestPathTree& fill_row(NodeId source) const;

  const Graph* graph_;
  // unique_ptr cells so cached rows have stable addresses; mutable because
  // caching does not change observable distances.
  mutable std::vector<std::unique_ptr<ShortestPathTree>> rows_;
};

}  // namespace arvy::graph
