// Tests for initial configurations (rooted trees, Algorithm 2's ring split).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/generators.hpp"
#include "proto/init.hpp"
#include "support/rng.hpp"

namespace {

using namespace arvy::proto;

TEST(InitFromTree, BfsTreeRoundTrip) {
  const auto g = arvy::graph::make_grid(3, 3);
  const auto tree = arvy::graph::bfs_tree(g, 4);
  const InitialConfig cfg = from_tree(tree);
  EXPECT_TRUE(cfg.is_valid_tree());
  EXPECT_EQ(cfg.root, 4u);
  EXPECT_EQ(cfg.parent[4], 4u);
  for (bool b : cfg.parent_edge_is_bridge) EXPECT_FALSE(b);
}

TEST(RingBridge, MatchesAlgorithmTwoLayout) {
  // n = 8, 0-based: root v_{n/2} = node 3, bridge child node 4.
  const InitialConfig cfg = ring_bridge_config(8);
  EXPECT_TRUE(cfg.is_valid_tree());
  EXPECT_EQ(cfg.root, 3u);
  // First semicircle points clockwise towards the root.
  EXPECT_EQ(cfg.parent[0], 1u);
  EXPECT_EQ(cfg.parent[1], 2u);
  EXPECT_EQ(cfg.parent[2], 3u);
  // Second semicircle points counterclockwise towards the root.
  EXPECT_EQ(cfg.parent[4], 3u);
  EXPECT_EQ(cfg.parent[5], 4u);
  EXPECT_EQ(cfg.parent[6], 5u);
  EXPECT_EQ(cfg.parent[7], 6u);
  // The bridge is the edge (v_{n/2+1}, v_{n/2}) = (4, 3).
  for (NodeId v = 0; v < 8; ++v) {
    EXPECT_EQ(cfg.parent_edge_is_bridge[v], v == 4u) << "node " << v;
  }
}

TEST(RingBridge, BridgeEndsSplitRingInHalves) {
  const InitialConfig cfg = ring_bridge_config(12);
  // Set A = {v_1..v_{n/2}} = nodes 0..5, set B = nodes 6..11. The bridge
  // child (node 6) is in B and its parent (the root, node 5) is in A.
  EXPECT_EQ(cfg.root, 5u);
  EXPECT_TRUE(cfg.parent_edge_is_bridge[6]);
  EXPECT_EQ(cfg.parent[6], 5u);
}

TEST(RingBridgeDeath, OddOrTinyRingRejected) {
  EXPECT_DEATH((void)ring_bridge_config(7), "even");
  EXPECT_DEATH((void)ring_bridge_config(2), "even");
}

TEST(WeightedRingBridge, SidesBelowHalfTotalWeight) {
  arvy::support::Rng rng(5);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    arvy::support::Rng local(seed + 1);
    const auto ring = arvy::graph::make_weighted_ring(9, local, 0.2, 5.0);
    const InitialConfig cfg = weighted_ring_bridge_config(ring);
    EXPECT_TRUE(cfg.is_valid_tree());
    // Find the bridge child; sum tree-edge weights on each side of it.
    NodeId bridge_child = arvy::graph::kInvalidNode;
    for (NodeId v = 0; v < 9; ++v) {
      if (cfg.parent_edge_is_bridge[v]) {
        EXPECT_EQ(bridge_child, arvy::graph::kInvalidNode);
        bridge_child = v;
      }
    }
    ASSERT_NE(bridge_child, arvy::graph::kInvalidNode);
    EXPECT_EQ(cfg.root, bridge_child - 1);
    double left = 0.0;
    double right = 0.0;
    for (NodeId v = 0; v + 1 < 9; ++v) {
      const double w = ring.edge_weight(v, v + 1);
      if (v + 1 <= cfg.root) {
        left += w;
      } else if (v >= bridge_child) {
        right += w;
      }
    }
    EXPECT_LT(left, ring.total_weight() / 2.0);
    EXPECT_LT(right, ring.total_weight() / 2.0);
  }
}

TEST(ChainConfig, PointsTowardsLastNode) {
  const InitialConfig cfg = chain_config(5);
  EXPECT_TRUE(cfg.is_valid_tree());
  EXPECT_EQ(cfg.root, 4u);
  for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(cfg.parent[v], v + 1);
}

TEST(PathConfig, OrientsTowardsArbitraryRoot) {
  const InitialConfig cfg = path_config(6, 2);
  EXPECT_TRUE(cfg.is_valid_tree());
  EXPECT_EQ(cfg.parent[0], 1u);
  EXPECT_EQ(cfg.parent[1], 2u);
  EXPECT_EQ(cfg.parent[3], 2u);
  EXPECT_EQ(cfg.parent[5], 4u);
}

TEST(Validity, DetectsCycle) {
  InitialConfig cfg;
  cfg.root = 0;
  cfg.parent = {0, 2, 1};  // 1 <-> 2 cycle
  cfg.parent_edge_is_bridge = {false, false, false};
  EXPECT_FALSE(cfg.is_valid_tree());
}

TEST(Validity, DetectsSecondSelfLoop) {
  InitialConfig cfg;
  cfg.root = 0;
  cfg.parent = {0, 1, 0};  // node 1 is a second root
  cfg.parent_edge_is_bridge = {false, false, false};
  EXPECT_FALSE(cfg.is_valid_tree());
}

TEST(Validity, RejectsAnOutOfRangeParentMidWalk) {
  // The walk from node 0 reaches node 1, whose parent is not a node: the
  // check must come before the parent is followed (an out-of-bounds read
  // otherwise, reported by the asan-ubsan preset).
  InitialConfig cfg;
  cfg.root = 2;
  cfg.parent = {1, 1000, 2};
  cfg.parent_edge_is_bridge = {false, false, false};
  EXPECT_FALSE(cfg.is_valid_tree());
}

// The per-node root walk is_valid_tree used before is_rooted_tree replaced
// it: O(n * depth), kept here as the reference predicate. Its range check
// is hoisted into a first pass: inline, a walk from v read out of bounds
// when it passed a later node whose parent was out of range.
bool reference_walk(std::span<const NodeId> parent, NodeId root) {
  if (root >= parent.size() || parent[root] != root) return false;
  for (NodeId v = 0; v < parent.size(); ++v) {
    if (parent[v] >= parent.size()) return false;
  }
  for (NodeId v = 0; v < parent.size(); ++v) {
    if (v != root && parent[v] == v) return false;  // only one self-loop
    NodeId u = v;
    std::size_t steps = 0;
    while (parent[u] != u) {
      u = parent[u];
      if (++steps > parent.size()) return false;  // cycle
    }
    if (u != root) return false;
  }
  return true;
}

bool validate(std::span<const NodeId> parent, NodeId root) {
  // Dirty scratch: the validator must not rely on what it held before.
  std::vector<NodeId> scratch(parent.size(), 7);
  return is_rooted_tree(parent, root, scratch);
}

TEST(RootedTree, AgreesWithTheWalkOnEveryArrayUpToSixNodes) {
  // Parents range over 0..n, roots over 0..n: the value n is out of range.
  std::size_t trees = 0;
  for (NodeId n = 1; n <= 6; ++n) {
    std::vector<NodeId> parent(n, 0);
    for (;;) {
      for (NodeId root = 0; root <= n; ++root) {
        const bool expected = reference_walk(parent, root);
        ASSERT_EQ(validate(parent, root), expected)
            << "n=" << n << " root=" << root;
        trees += expected ? 1 : 0;
      }
      NodeId digit = 0;
      while (digit < n && parent[digit] == n) parent[digit++] = 0;
      if (digit == n) break;
      ++parent[digit];
    }
  }
  // Cayley: n^(n-1) rooted labelled trees on n nodes, summed for n = 1..6.
  EXPECT_EQ(trees, 1u + 2u + 9u + 64u + 625u + 7776u);
}

// A uniformly shuffled random rooted tree: each node's parent is a node
// placed earlier in a random order whose first node is the root.
std::vector<NodeId> random_tree(std::size_t n, arvy::support::Rng& rng,
                                NodeId& root) {
  std::vector<NodeId> order(n);
  for (NodeId v = 0; v < n; ++v) order[v] = v;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  root = order[0];
  std::vector<NodeId> parent(n);
  parent[root] = root;
  for (std::size_t i = 1; i < n; ++i) {
    parent[order[i]] = order[rng.next_below(i)];
  }
  return parent;
}

TEST(RootedTree, AgreesWithTheWalkOnRandomCorruptedTrees) {
  arvy::support::Rng rng(2024);
  for (int round = 0; round < 400; ++round) {
    const std::size_t n = 1 + rng.next_below(1024);
    NodeId root = 0;
    std::vector<NodeId> parent = random_tree(n, rng, root);
    ASSERT_TRUE(validate(parent, root)) << "n=" << n;
    ASSERT_TRUE(reference_walk(parent, root));
    const auto v = static_cast<NodeId>(rng.next_below(n));
    switch (round % 4) {
      case 0: {  // plant a cycle: point an ancestor of v (or v) back at v
        NodeId a = v;
        for (std::size_t hops = rng.next_below(n); hops > 0 && a != root;
             --hops) {
          a = parent[a];
        }
        parent[a] = v;
        break;
      }
      case 1:  // a second self-loop (or, at the root, no change)
        parent[v] = v;
        break;
      case 2:  // an out-of-range parent
        parent[v] = rng.next_below(2) == 0 ? static_cast<NodeId>(n)
                                          : arvy::graph::kInvalidNode;
        break;
      default:  // re-point v anywhere: a cycle or still a tree
        parent[v] = static_cast<NodeId>(rng.next_below(n));
        break;
    }
    const bool expected = reference_walk(parent, root);
    EXPECT_EQ(validate(parent, root), expected)
        << "n=" << n << " round=" << round;
    if (round % 4 == 2 || (round % 4 == 0 && v != root)) {
      EXPECT_FALSE(expected) << "n=" << n << " round=" << round;
    }
  }
}

TEST(RootedTree, ThousandNodeChain) {
  // The walk's O(n^2) case: every node's chain runs to the far end.
  const InitialConfig cfg = chain_config(1024);
  EXPECT_TRUE(validate(cfg.parent, cfg.root));
  EXPECT_TRUE(reference_walk(cfg.parent, cfg.root));
  EXPECT_TRUE(cfg.is_valid_tree());
  EXPECT_FALSE(validate(cfg.parent, 0));  // node 0 is no self-loop
  std::vector<NodeId> looped = cfg.parent;
  looped[1023] = 0;  // close the chain into one 1024-cycle, no root
  EXPECT_FALSE(validate(looped, 1023));
  EXPECT_FALSE(reference_walk(looped, 1023));
}

// --- The incremental check park_row runs -----------------------------------

// walks_reach_root over `from`, on marks and an epoch shared by every call of
// a test: stamps of earlier calls must read as unvisited.
struct Walker {
  std::vector<std::uint64_t> marks;
  std::uint64_t epoch = 0;

  explicit Walker(std::size_t n) : marks(n, 0) {}

  bool operator()(std::span<const NodeId> parent, NodeId root,
                  std::span<const NodeId> from) {
    return walks_reach_root(parent, root, from, marks, epoch);
  }
};

// The nodes whose parent differs between the rows, plus the old root.
std::vector<NodeId> diff_and_old_root(std::span<const NodeId> before,
                                      std::span<const NodeId> after,
                                      NodeId old_root) {
  std::vector<NodeId> from{old_root};
  for (NodeId v = 0; v < before.size(); ++v) {
    if (before[v] != after[v] && v != old_root) from.push_back(v);
  }
  return from;
}

TEST(IncrementalTree, OldRootIsNeeded) {
  // Only node 1 changed and its walk reaches holder 1, but node 0 is a
  // second self-loop: the changed nodes alone do not carry the check.
  const std::vector<NodeId> before{0, 0};
  const std::vector<NodeId> after{0, 1};
  Walker walk(2);
  const std::vector<NodeId> changed{1};
  EXPECT_TRUE(walk(after, 1, changed));
  EXPECT_FALSE(validate(after, 1));
  EXPECT_FALSE(walk(after, 1, diff_and_old_root(before, after, 0)));
}

TEST(IncrementalTree, AgreesWithTheWholeRowOnEveryArrayUpToFiveNodes) {
  // Every (valid old row, new array over 0..n, holder) triple: D = the diff
  // plus the old root, and a random superset of it, must both agree with
  // is_rooted_tree on the new row. D = the diff alone must not.
  arvy::support::Rng rng(5);
  std::size_t triples = 0;
  std::size_t diff_only_wrong = 0;
  for (NodeId n = 1; n <= 5; ++n) {
    std::vector<std::vector<NodeId>> arrays;
    std::vector<NodeId> parent(n, 0);
    for (;;) {
      arrays.push_back(parent);
      NodeId digit = 0;
      while (digit < n && parent[digit] == n) parent[digit++] = 0;
      if (digit == n) break;
      ++parent[digit];
    }
    // whole[a * n + h]: is array a a rooted tree with root h?
    std::vector<bool> whole(arrays.size() * n);
    for (std::size_t a = 0; a < arrays.size(); ++a) {
      for (NodeId h = 0; h < n; ++h) whole[a * n + h] = validate(arrays[a], h);
    }
    Walker walk(n);
    // D lists: the diff (then the old root), and a superset of both.
    std::array<NodeId, 16> buffer{};
    std::array<NodeId, 16> superset{};
    for (std::size_t o = 0; o < arrays.size(); ++o) {
      NodeId old_root = n;
      for (NodeId h = 0; h < n; ++h) {
        if (whole[o * n + h]) old_root = h;
      }
      if (old_root == n) continue;  // not a valid old row
      for (std::size_t a = 0; a < arrays.size(); ++a) {
        std::size_t changed = 0;
        for (NodeId v = 0; v < n; ++v) {
          if (arrays[o][v] != arrays[a][v]) buffer[changed++] = v;
        }
        const std::span<const NodeId> diff(buffer.data(), changed);
        buffer[changed] = old_root;
        const std::span<const NodeId> from(buffer.data(), changed + 1);
        for (NodeId h = 0; h < n; ++h) {
          const bool expected = whole[a * n + h];
          ++triples;
          std::size_t size = from.size();
          std::copy(from.begin(), from.end(), superset.begin());
          const std::uint64_t extra = rng.next_below(std::uint64_t{1} << n);
          for (NodeId v = 0; v < n; ++v) {
            if (((extra >> v) & 1U) != 0) superset[size++] = v;
          }
          if (walk(arrays[a], h, from) != expected ||
              walk(arrays[a], h, {superset.data(), size}) != expected) {
            ADD_FAILURE() << "n=" << n << " old=" << o << " new=" << a
                          << " h=" << h;
            return;
          }
          if (walk(arrays[a], h, diff) != expected) ++diff_only_wrong;
        }
      }
    }
  }
  // sum over n of n^(n-1) old rows x (n+1)^n arrays x n holders
  EXPECT_EQ(triples, 2u + 36u + 1728u + 160000u + 24300000u);
  // (908 of them with n <= 4, 161,766 triples)
  EXPECT_EQ(diff_only_wrong, 53888u);
}

// A random rooted tree re-rooted at `to` the way a find re-points nodes:
// the path from `to` to the old root is reversed.
void reroot(std::vector<NodeId>& parent, NodeId to) {
  NodeId previous = to;
  NodeId u = to;
  while (parent[u] != u) {
    const NodeId up = parent[u];
    parent[u] = previous;
    previous = u;
    u = up;
  }
  parent[u] = previous;
}

TEST(IncrementalTree, AgreesWithTheWholeRowOnRandomEditsUpToThousandNodes) {
  arvy::support::Rng rng(1705);
  Walker walk(1024);
  std::size_t valid = 0;
  for (int round = 0; round < 2000; ++round) {
    const std::size_t n = 1 + rng.next_below(1024);
    NodeId old_root = 0;
    const std::vector<NodeId> before = random_tree(n, rng, old_root);
    std::vector<NodeId> after = before;
    auto holder = static_cast<NodeId>(rng.next_below(n));
    reroot(after, holder);
    const auto v = static_cast<NodeId>(rng.next_below(n));
    switch (round % 5) {
      case 0:  // the re-rooted tree itself
        break;
      case 1: {  // plant a cycle: point an ancestor of v (or v) back at v
        NodeId a = v;
        for (std::size_t hops = rng.next_below(n); hops > 0 && a != holder;
             --hops) {
          a = after[a];
        }
        after[a] = v;
        break;
      }
      case 2:  // a second self-loop (or, at the holder, no change)
        after[v] = v;
        break;
      case 3:  // an out-of-range parent
        after[v] = rng.next_below(2) == 0 ? static_cast<NodeId>(n)
                                         : arvy::graph::kInvalidNode;
        break;
      default:  // re-point a few nodes anywhere, maybe hold elsewhere
        for (std::size_t k = 1 + rng.next_below(4); k > 0; --k) {
          after[rng.next_below(n)] = static_cast<NodeId>(rng.next_below(n));
        }
        if (rng.next_below(2) == 0) {
          holder = static_cast<NodeId>(rng.next_below(n));
        }
        break;
    }
    const bool expected = validate(after, holder);
    if (expected) ++valid;
    std::vector<NodeId> from = diff_and_old_root(before, after, old_root);
    ASSERT_EQ(walk(after, holder, from), expected)
        << "n=" << n << " round=" << round;
    for (std::size_t k = rng.next_below(8); k > 0; --k) {
      from.push_back(static_cast<NodeId>(rng.next_below(n)));
    }
    ASSERT_EQ(walk(after, holder, from), expected)
        << "n=" << n << " round=" << round << " (superset)";
    if (round % 5 == 0) {
      EXPECT_TRUE(expected) << "n=" << n;
    }
    if (round % 5 == 3) {
      EXPECT_FALSE(expected) << "n=" << n;
    }
  }
  EXPECT_GT(valid, 400u);
}

// --- The row root scan adopt runs -------------------------------------------

// The scan's answer by definition: the first v with parents[v] == v.
template <typename Word>
NodeId first_self_loop(const std::vector<Word>& parents) {
  NodeId v = 0;
  while (v < parents.size() && NodeId{parents[v]} != v) ++v;
  return v;
}

template <typename Word>
void expect_row_root_finds_every_self_loop() {
  // Rows of every length up to the byte limit, with no self-loop and then
  // with one at each position, over a background that puts each parent one
  // away from its node - the values a word-wide zero-byte test could borrow
  // into - and over random backgrounds.
  arvy::support::Rng rng(13);
  for (std::size_t n = 1; n <= kRowNodes<std::uint8_t>; ++n) {
    for (int background = 0; background < 3; ++background) {
      std::vector<Word> row(n);
      for (std::size_t v = 0; v < n; ++v) {
        const std::size_t p = background == 0   ? v + 1
                              : background == 1 ? v + n - 1
                                                : rng.next_below(n);
        row[v] = static_cast<Word>(p % n);
      }
      if (n == 1) row[0] = 0;
      ASSERT_EQ(row_root<Word>(row), first_self_loop(row)) << "n " << n;
      for (std::size_t r = 0; r < n; ++r) {
        std::vector<Word> rooted = row;
        rooted[r] = static_cast<Word>(r);
        ASSERT_EQ(row_root<Word>(rooted), first_self_loop(rooted))
            << "n " << n << " self-loop at " << r;
      }
    }
  }
}

TEST(RowRoot, FindsTheFirstSelfLoopAtBothWidths) {
  expect_row_root_finds_every_self_loop<std::uint8_t>();
  expect_row_root_finds_every_self_loop<NodeId>();
}

TEST(RootedTreeDeath, ShortScratchAborts) {
  const InitialConfig cfg = chain_config(4);
  std::vector<NodeId> scratch(3);
  EXPECT_DEATH((void)is_rooted_tree(cfg.parent, cfg.root, scratch),
               "scratch");
}

TEST(RootedTreeDeath, ShortWalkMarksAbort) {
  const InitialConfig cfg = chain_config(4);
  std::vector<std::uint64_t> marks(3);
  std::uint64_t epoch = 0;
  const std::vector<NodeId> from{0};
  EXPECT_DEATH(
      (void)walks_reach_root(cfg.parent, cfg.root, from, marks, epoch),
      "mark words");
}

}  // namespace
