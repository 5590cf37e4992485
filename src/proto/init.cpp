#include "proto/init.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "support/assert.hpp"
#include "support/hot.hpp"

namespace arvy::proto {

namespace {

// Path tree on 0..n-1 with pointers towards `root`; `bridge_child`, when
// valid, marks (bridge_child, parent(bridge_child)) as the bridge.
InitialConfig oriented_path(std::size_t n, NodeId root, NodeId bridge_child) {
  ARVY_EXPECTS(n >= 2 && root < n);
  InitialConfig cfg;
  cfg.root = root;
  cfg.parent.resize(n);
  cfg.parent_edge_is_bridge.assign(n, false);
  cfg.parent[root] = root;
  for (NodeId v = root; v > 0; --v) cfg.parent[v - 1] = v;
  for (NodeId v = root; v + 1 < n; ++v) cfg.parent[v + 1] = v;
  if (bridge_child != graph::kInvalidNode) {
    ARVY_EXPECTS(bridge_child < n && bridge_child != root);
    cfg.parent_edge_is_bridge[bridge_child] = true;
  }
  ARVY_ENSURES(cfg.is_valid_tree());
  return cfg;
}

// Odd, so multiplying by it is a bijection of 64-bit words.
constexpr std::uint64_t kSealMultiplier = 0x9fb21c651e98df25ULL;

// One step of a seal lane: a bijection of the lane for a fixed word, and of
// the word for a fixed lane. The xorshift folds the high bits back down, so
// the next multiply spreads them.
constexpr std::uint64_t seal_step(std::uint64_t lane,
                                  std::uint64_t word) noexcept {
  lane = (lane ^ word) * kSealMultiplier;
  return lane ^ (lane >> 32);
}

// The `count` (at most 8) bytes at `bytes` as a little-endian word, zero
// above them.
std::uint64_t load_le(const unsigned char* bytes, std::size_t count) noexcept {
  std::uint64_t word = 0;
  for (std::size_t k = 0; k < count; ++k) {
    word |= std::uint64_t{bytes[k]} << (8 * k);
  }
  return word;
}

// The eight bytes at `bytes` as a little-endian word: one load on a
// little-endian host.
std::uint64_t load_le(const unsigned char* bytes) noexcept {
  if constexpr (std::endian::native != std::endian::little) {
    return load_le(bytes, 8);
  }
  std::uint64_t word = 0;
  std::memcpy(&word, bytes, sizeof word);
  return word;
}

}  // namespace

bool InitialConfig::is_valid_tree() const {
  if (parent_edge_is_bridge.size() != parent.size()) return false;
  std::vector<NodeId> scratch(parent.size());
  return is_rooted_tree(parent, root, scratch);
}

ARVY_HOT bool is_rooted_tree(std::span<const NodeId> parents, NodeId root,
                             std::span<NodeId> scratch) noexcept {
  const std::size_t n = parents.size();
  ARVY_EXPECTS_MSG(scratch.size() >= n, "is_rooted_tree needs n scratch words");
  if (root >= n || parents[root] != root) return false;
  // scratch[v] is 0 until a walk reaches v, then that walk's id (v + 1 for
  // the walk started at v). The root's mark is no walk's id, so a walk that
  // meets its own id has closed a cycle (a second self-loop is one), and a
  // walk that meets an earlier id joins a chain already known to end at
  // the root.
  std::fill_n(scratch.begin(), n, NodeId{0});
  scratch[root] = graph::kInvalidNode;
  for (NodeId v = 0; v < n; ++v) {
    const NodeId walk = v + 1;
    NodeId u = v;
    while (scratch[u] == 0) {
      scratch[u] = walk;
      u = parents[u];
      if (u >= n) return false;
    }
    if (scratch[u] == walk) return false;
  }
  return true;
}

ARVY_HOT bool walks_reach_root(std::span<const NodeId> parents, NodeId root,
                               std::span<const NodeId> from,
                               std::span<std::uint64_t> marks,
                               std::uint64_t& epoch) noexcept {
  const std::size_t n = parents.size();
  ARVY_EXPECTS_MSG(marks.size() >= n, "walks_reach_root needs n mark words");
  if (root >= n || parents[root] != root) return false;
  // Walk k stamps base + k + 1. A stamp at or below base is an earlier
  // call's, i.e. unvisited here; meeting the walk's own stamp closes a
  // cycle, and meeting an earlier walk's joins a chain known to reach root.
  const std::uint64_t base = epoch;
  epoch += from.size();
  for (std::size_t k = 0; k < from.size(); ++k) {
    const std::uint64_t walk = base + k + 1;
    NodeId u = from[k];
    if (u >= n) return false;
    while (u != root) {
      if (marks[u] > base) {
        if (marks[u] == walk) return false;
        break;
      }
      marks[u] = walk;
      u = parents[u];
      if (u >= n) return false;
    }
  }
  return true;
}

template <RowWord Word>
ARVY_HOT std::uint64_t row_seal(
    std::span<const Word> parents,
    std::span<const std::uint64_t> bridges) noexcept {
  const auto* bytes = reinterpret_cast<const unsigned char*>(parents.data());
  const std::size_t size = parents.size_bytes();
  std::uint64_t a = 0x243f6a8885a308d3ULL ^ parents.size();
  std::uint64_t b = 0x13198a2e03707344ULL;
  std::uint64_t c = 0xa4093822299f31d0ULL;
  std::uint64_t d = 0x082efa98ec4e6c89ULL;
  std::size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    a = seal_step(a, load_le(bytes + i));
    b = seal_step(b, load_le(bytes + i + 8));
    c = seal_step(c, load_le(bytes + i + 16));
    d = seal_step(d, load_le(bytes + i + 24));
  }
  // The remaining words go to the lanes in turn: lane a takes the next one,
  // then the lanes rotate.
  const auto absorb = [&a, &b, &c, &d](std::uint64_t word) {
    const std::uint64_t stepped = seal_step(a, word);
    a = b;
    b = c;
    c = d;
    d = stepped;
  };
  for (; i + 8 <= size; i += 8) absorb(load_le(bytes + i));
  if (i < size) absorb(load_le(bytes + i, size - i));
  for (const std::uint64_t word : bridges) absorb(word);
  // splitmix64's finalizer over the lanes, each rotated apart.
  std::uint64_t h = a ^ std::rotl(b, 16) ^ std::rotl(c, 32) ^ std::rotl(d, 48);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h != 0 ? h : 1;
}

// A byte row is scanned a word at a time: byte k of word ^ iota is zero iff
// parent v + k is v + k (v + 7 < 256, so iota has no carry), and the
// zero-byte test flags the first such byte exactly; a borrow can flag only
// bytes above it.
template <RowWord Word>
ARVY_HOT NodeId row_root(std::span<const Word> parents) noexcept {
  const std::size_t n = parents.size();
  std::size_t v = 0;
  if constexpr (sizeof(Word) == 1) {
    constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
    constexpr std::uint64_t kHighs = 0x8080808080808080ULL;
    constexpr std::uint64_t kIota = 0x0706050403020100ULL;
    for (; v + 8 <= n; v += 8) {
      const std::uint64_t x =
          load_le(parents.data() + v) ^ (kIota + v * kOnes);
      const std::uint64_t zero = (x - kOnes) & ~x & kHighs;
      if (zero != 0) {
        return static_cast<NodeId>(
            v + static_cast<std::size_t>(std::countr_zero(zero)) / 8);
      }
    }
  }
  while (v < n && parents[v] != v) ++v;
  return static_cast<NodeId>(v);
}

template std::uint64_t row_seal<std::uint8_t>(
    std::span<const std::uint8_t>, std::span<const std::uint64_t>) noexcept;
template std::uint64_t row_seal<NodeId>(
    std::span<const NodeId>, std::span<const std::uint64_t>) noexcept;
template NodeId row_root<std::uint8_t>(std::span<const std::uint8_t>) noexcept;
template NodeId row_root<NodeId>(std::span<const NodeId>) noexcept;

InitialConfig from_tree(const graph::RootedTree& tree) {
  ARVY_EXPECTS(tree.is_valid());
  InitialConfig cfg;
  cfg.root = tree.root;
  cfg.parent = tree.parent;
  cfg.parent_edge_is_bridge.assign(tree.parent.size(), false);
  ARVY_ENSURES(cfg.is_valid_tree());
  return cfg;
}

InitialConfig ring_bridge_config(std::size_t n) {
  ARVY_EXPECTS_MSG(n >= 4 && n % 2 == 0,
                   "Algorithm 2's initialization assumes even n >= 4");
  // Root v_{n/2} (0-based: n/2 - 1); bridge child v_{n/2+1} (0-based: n/2).
  return oriented_path(n, static_cast<NodeId>(n / 2 - 1),
                       static_cast<NodeId>(n / 2));
}

InitialConfig weighted_ring_bridge_config(const graph::Graph& ring) {
  const std::size_t n = ring.node_count();
  ARVY_EXPECTS(n >= 3);
  ARVY_EXPECTS_MSG(ring.has_edge(static_cast<NodeId>(n - 1), 0),
                   "expected a canonical ring (edges {i, i+1 mod n})");
  // Drop edge {n-1, 0}; the tree is the path 0..n-1. Put the bridge on the
  // edge {k, k+1} containing the weight midpoint of the path: then each side
  // weighs at most P/2 < W/2, as the Theorem 7 construction requires.
  double path_weight = 0.0;
  for (NodeId v = 0; v + 1 < n; ++v) {
    path_weight += ring.edge_weight(v, static_cast<NodeId>(v + 1));
  }
  double prefix = 0.0;
  NodeId k = 0;
  for (NodeId v = 0; v + 1 < n; ++v) {
    const double w = ring.edge_weight(v, static_cast<NodeId>(v + 1));
    if (prefix + w >= path_weight / 2.0) {
      k = v;
      break;
    }
    prefix += w;
  }
  const double left = prefix;
  const double right =
      path_weight - prefix - ring.edge_weight(k, static_cast<NodeId>(k + 1));
  ARVY_ASSERT(left < ring.total_weight() / 2.0);
  ARVY_ASSERT(right < ring.total_weight() / 2.0);
  // Root at k; bridge child k+1 (its parent pointer crosses to the root).
  return oriented_path(n, k, static_cast<NodeId>(k + 1));
}

InitialConfig chain_config(std::size_t n) {
  ARVY_EXPECTS(n >= 2);
  return oriented_path(n, static_cast<NodeId>(n - 1), graph::kInvalidNode);
}

InitialConfig path_config(std::size_t n, NodeId root) {
  return oriented_path(n, root, graph::kInvalidNode);
}

}  // namespace arvy::proto
