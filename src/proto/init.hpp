// Initial configurations for Algorithm 1.
//
// The protocol starts from parent pointers that form a rooted tree directed
// towards a root holding the token (§4). This module builds the initial
// trees the experiments need, including Algorithm 2's ring split with its
// designated bridge edge.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/spanning_tree.hpp"

namespace arvy::proto {

using graph::NodeId;

struct InitialConfig {
  NodeId root = graph::kInvalidNode;     // token's initial location
  std::vector<NodeId> parent;            // parent[root] == root
  std::vector<bool> parent_edge_is_bridge;  // Algorithm 2 flag, default false

  [[nodiscard]] std::size_t node_count() const noexcept { return parent.size(); }
  // Exactly one self-loop (the root) and every node reaches it; one bridge
  // flag per node. The tree check is is_rooted_tree.
  [[nodiscard]] bool is_valid_tree() const;
};

// The one rooted-tree validator: true iff `root` is a node, parents[root] ==
// root, every parent is a node, and every parent chain reaches `root` - so
// the root is the only self-loop and there is no cycle. One pass in O(n):
// each node is stamped once, by the first walk that reaches it. `scratch`
// must hold parents.size() entries and is overwritten; callers own it so
// that validation never allocates.
[[nodiscard]] bool is_rooted_tree(std::span<const NodeId> parents, NodeId root,
                                  std::span<NodeId> scratch) noexcept;

// The incremental form of is_rooted_tree, for a row that was a rooted tree
// before some of its nodes were re-pointed: true iff `root` is a node,
// parents[root] == root, and the parent walk from every node of `from`
// reaches `root` without a repeat (and so without leaving the node range).
//
// It equals is_rooted_tree(parents, root) whenever `from` holds every node
// whose parent changed since the row was last a rooted tree AND that tree's
// root. A walk from any other node follows edges of the old tree, which
// lead it into `from` (at the old root at the latest), and from there it is
// checked. The old root is needed: from {0->0, 1->0} to {0->0, 1->1} only
// node 1 changed, and its walk reaches root 1, yet 0 is a second self-loop.
//
// O(|from| + nodes walked), not O(n): `marks` (n entries) holds walk stamps,
// and the call advances `epoch` past every stamp it writes, so stamps of
// earlier calls read as unvisited and marks never needs clearing. Start
// every mark and the epoch at zero.
[[nodiscard]] bool walks_reach_root(std::span<const NodeId> parents,
                                    NodeId root, std::span<const NodeId> from,
                                    std::span<std::uint64_t> marks,
                                    std::uint64_t& epoch) noexcept;

// A parked row's parent word: one byte per node on graphs of up to 256
// nodes, a NodeId above (SimEngine::park_row/adopt_row, DirectoryService).
template <typename Word>
concept RowWord =
    std::same_as<Word, std::uint8_t> || std::same_as<Word, NodeId>;

// The most nodes a row of Word can name.
template <RowWord Word>
inline constexpr std::size_t kRowNodes =
    std::size_t{std::numeric_limits<Word>::max()} + 1;

// The seal of a parked row: a nonzero 64-bit hash of n and the row's stored
// bytes - the parent words, then the bridge words. SimEngine::park_row
// returns it for a row it has just validated, and adopt_row skips
// is_rooted_tree for a row whose bytes still hash to the seal it is handed.
// The parent bytes are read as 8-byte little-endian words, the last one
// zero-padded, so a NodeId row packs two parents per word (an odd n's last
// parent zero-extended) and a byte row eight. Four independent lanes take
// every fourth word each through xor-multiply-xorshift steps, then a
// splitmix64 finalizer mixes the lanes. Every step is a bijection of its
// lane, so an edit to any one byte changes the seal unless it moves the
// final value between 0 and 1 (0 maps to 1).
template <RowWord Word>
[[nodiscard]] std::uint64_t row_seal(
    std::span<const Word> parents,
    std::span<const std::uint64_t> bridges) noexcept;

// The row's first self-loop (parents[v] == v), or parents.size() when it has
// none. A byte row (at most kRowNodes<std::uint8_t> parents) is scanned
// eight parents per word.
template <RowWord Word>
[[nodiscard]] NodeId row_root(std::span<const Word> parents) noexcept;

// Any rooted spanning tree, no bridge.
[[nodiscard]] InitialConfig from_tree(const graph::RootedTree& tree);

// Algorithm 2's initialization for a ring of even size n: two semicircles of
// parent pointers meeting at root v_{n/2}, bridge on edge
// (v_{n/2+1}, v_{n/2}). With this module's 0-based ids the root is n/2 - 1
// and the bridge child is n/2.
[[nodiscard]] InitialConfig ring_bridge_config(std::size_t n);

// Theorem 7's initialization for a weighted ring: drop edge {n-1, 0}, choose
// the bridge so the tree weight strictly on each side is below W/2 (always
// possible; see the proof sketch after Theorem 6), root at the bridge's
// parent-side endpoint.
[[nodiscard]] InitialConfig weighted_ring_bridge_config(const graph::Graph& ring);

// Chain p(v_i) = v_{i+1} rooted at the last node - the Ivy lower-bound
// instance of Lemma 8.
[[nodiscard]] InitialConfig chain_config(std::size_t n);

// Path tree oriented towards position `root`, no bridge (Arrow on a ring's
// spanning path, Lemma 8).
[[nodiscard]] InitialConfig path_config(std::size_t n, NodeId root);

}  // namespace arvy::proto
