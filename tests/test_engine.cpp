// Integration tests for SimEngine: cost accounting, sequential and
// concurrent drivers, token tracking.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/generators.hpp"
#include "graph/spanning_tree.hpp"
#include "proto/engine.hpp"
#include "proto/policies.hpp"
#include "support/rng.hpp"
#include "verify/configuration.hpp"

namespace {

using namespace arvy::proto;
using arvy::graph::make_path;
using arvy::graph::make_ring;

SimEngine make_engine(const arvy::graph::Graph& g, const InitialConfig& init,
                      PolicyKind kind, std::uint64_t seed = 1) {
  auto policy = make_policy(kind);
  SimEngine::Options options;
  options.seed = seed;
  return SimEngine(g, init, *policy, std::move(options));
}

TEST(Engine, SingleRequestOnPathCostsPathLength) {
  // Path 0-1-2-3-4, token at 4, request at 0: find travels 4 unit hops,
  // token returns over distance 4.
  const auto g = make_path(5);
  SimEngine engine = make_engine(g, chain_config(5), PolicyKind::kArrow);
  engine.submit(0);
  engine.run_until_idle();
  EXPECT_DOUBLE_EQ(engine.costs().find_distance, 4.0);
  EXPECT_DOUBLE_EQ(engine.costs().token_distance, 4.0);
  EXPECT_EQ(engine.costs().find_messages, 4u);
  EXPECT_EQ(engine.costs().token_messages, 1u);
  EXPECT_EQ(engine.token_holder(), std::optional<arvy::graph::NodeId>{0});
  EXPECT_EQ(engine.unsatisfied_count(), 0u);
}

TEST(Engine, RequestAtHolderIsFreeAndImmediate) {
  const auto g = make_path(3);
  SimEngine engine = make_engine(g, chain_config(3), PolicyKind::kArrow);
  engine.submit(2);  // node 2 is the initial holder
  EXPECT_EQ(engine.unsatisfied_count(), 0u);
  EXPECT_DOUBLE_EQ(engine.costs().total_distance(), 0.0);
  EXPECT_TRUE(engine.bus().idle());
}

TEST(Engine, SequentialRunSatisfiesEveryRequestInOrder) {
  const auto g = make_ring(8);
  SimEngine engine = make_engine(g, ring_bridge_config(8), PolicyKind::kBridge);
  const std::vector<arvy::graph::NodeId> sequence{0, 6, 2, 7, 3};
  engine.run_sequential(sequence);
  ASSERT_EQ(engine.requests().size(), sequence.size());
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    const RequestRecord& r = engine.requests()[i];
    EXPECT_TRUE(r.satisfied_at.has_value());
    EXPECT_EQ(r.satisfaction_index, i + 1);  // sequential order preserved
    EXPECT_EQ(r.node, sequence[i]);
  }
  EXPECT_EQ(engine.token_holder(), std::optional<arvy::graph::NodeId>{3});
}

TEST(Engine, ArrowOnPathKeepsCostSymmetric) {
  // Alternating requests across a 4-path under Arrow cost 3 (find) each.
  const auto g = make_path(4);
  SimEngine engine = make_engine(g, path_config(4, 3), PolicyKind::kArrow);
  const std::vector<arvy::graph::NodeId> sequence{0, 3, 0, 3};
  engine.run_sequential(sequence);
  EXPECT_DOUBLE_EQ(engine.costs().find_distance, 4 * 3.0);
  EXPECT_DOUBLE_EQ(engine.costs().token_distance, 4 * 3.0);
}

TEST(Engine, MaxVisitedLengthTracksLongestFindPath) {
  const auto g = make_path(6);
  SimEngine engine = make_engine(g, chain_config(6), PolicyKind::kArrow);
  engine.run_sequential(std::vector<arvy::graph::NodeId>{0});
  // The find visits 0,1,2,3,4 before reaching the root 5.
  EXPECT_EQ(engine.costs().max_visited_length, 5u);
}

TEST(Engine, ConcurrentTimedRequestsAllSatisfied) {
  const auto g = make_ring(10);
  SimEngine engine = make_engine(g, ring_bridge_config(10), PolicyKind::kIvy);
  std::vector<SimEngine::TimedRequest> requests{
      {1, 0.0}, {7, 0.5}, {3, 0.7}, {9, 2.0}};
  engine.run_concurrent(requests);
  EXPECT_EQ(engine.unsatisfied_count(), 0u);
  EXPECT_EQ(engine.requests().size(), 4u);
}

TEST(Engine, PostEventHookFiresPerEvent) {
  const auto g = make_path(4);
  SimEngine engine = make_engine(g, chain_config(4), PolicyKind::kArrow);
  std::size_t events = 0;
  engine.set_post_event_hook([&](const SimEngine&) { ++events; });
  engine.submit(0);
  engine.run_until_idle();
  // 1 submit + 3 find deliveries + 1 token delivery.
  EXPECT_EQ(events, 5u);
}

TEST(Engine, TokenHolderIsEmptyWhileInFlight) {
  const auto g = make_path(3);
  SimEngine engine = make_engine(g, chain_config(3), PolicyKind::kArrow);
  engine.submit(0);
  // Deliver the two find hops but not the token.
  engine.step();
  engine.step();
  EXPECT_FALSE(engine.token_holder().has_value());
  EXPECT_EQ(engine.bus().in_flight_count(), 1u);
  engine.run_until_idle();
  EXPECT_EQ(engine.token_holder(), std::optional<arvy::graph::NodeId>{0});
}

TEST(Engine, SeedChangesRandomDisciplineInterleaving) {
  const auto g = make_ring(8);
  auto run = [&](std::uint64_t seed) {
    auto policy = make_policy(PolicyKind::kIvy);
    SimEngine::Options options;
    options.discipline = arvy::sim::Discipline::kRandom;
    options.seed = seed;
    SimEngine engine(g, ring_bridge_config(8), *policy, std::move(options));
    for (arvy::graph::NodeId v : {0u, 5u, 2u, 7u}) engine.submit(v);
    engine.run_until_idle();
    EXPECT_EQ(engine.unsatisfied_count(), 0u);
    return engine.costs().total_distance();
  };
  // All seeds satisfy everything; interleavings (and thus costs) may differ.
  const double a = run(1);
  const double b = run(2);
  EXPECT_GT(a, 0.0);
  EXPECT_GT(b, 0.0);
}

TEST(Engine, UnsatisfiedCountReflectsInFlightRequests) {
  const auto g = make_path(4);
  SimEngine engine = make_engine(g, chain_config(4), PolicyKind::kArrow);
  engine.submit(0);
  EXPECT_EQ(engine.unsatisfied_count(), 1u);
  engine.run_until_idle();
  EXPECT_EQ(engine.unsatisfied_count(), 0u);
}

TEST(EngineDeath, MismatchedInitSizeAborts) {
  const auto g = make_path(4);
  auto policy = make_policy(PolicyKind::kArrow);
  EXPECT_DEATH(SimEngine(g, chain_config(5), *policy, {}), "node_count");
}

TEST(EngineDeath, InvalidInitialTreeAborts) {
  const auto g = make_path(3);
  InitialConfig bad;
  bad.root = 0;
  bad.parent = {0, 2, 1};
  bad.parent_edge_is_bridge = {false, false, false};
  auto policy = make_policy(PolicyKind::kArrow);
  EXPECT_DEATH(SimEngine(g, bad, *policy, {}), "rooted tree");
}

// --- Row-form park/adopt: the DirectoryService seam ------------------------
// Every row test runs at both row widths: one byte per node, the form the
// service parks graphs of up to 256 nodes in, and NodeId words above.

using arvy::graph::NodeId;

template <typename Word>
struct Row {
  std::vector<Word> parents;
  std::vector<std::uint64_t> bridges;

  explicit Row(std::size_t n) : parents(n), bridges(bridge_words(n)) {}
};

template <typename Word>
std::vector<Word> narrow(const std::vector<NodeId>& parents) {
  std::vector<Word> out(parents.size());
  std::transform(parents.begin(), parents.end(), out.begin(),
                 [](NodeId p) { return static_cast<Word>(p); });
  return out;
}

template <typename Word>
std::vector<NodeId> widen(const std::vector<Word>& parents) {
  return {parents.begin(), parents.end()};
}

// Calls body(std::type_identity<Word>{}) for each row word, under a trace
// that names it.
template <typename Body>
void for_each_width(Body&& body) {
  {
    SCOPED_TRACE("byte rows");
    body(std::type_identity<std::uint8_t>{});
  }
  {
    SCOPED_TRACE("NodeId rows");
    body(std::type_identity<NodeId>{});
  }
}

// Drives an engine through random concurrent bursts (distinct nodes per
// burst, so no node ever has two requests outstanding) and, at the
// quiescent point after each, parks it into a row and adopts that row, with
// the seal park returned, into a second engine: adopt(park(c)) must be c.
template <typename Word>
void expect_rows_round_trip(const arvy::graph::Graph& g,
                            const InitialConfig& init, PolicyKind kind) {
  auto policy = make_policy(kind);
  SimEngine::Options options;
  options.discipline = arvy::sim::Discipline::kRandom;
  options.seed = 7;
  SimEngine engine(g, init, *policy, std::move(options));
  SimEngine copy(g, init, *policy, {});
  const std::size_t n = g.node_count();
  arvy::support::Rng rng(99);
  std::vector<NodeId> nodes(n);
  for (NodeId v = 0; v < n; ++v) nodes[v] = v;
  std::vector<NodeId> scratch(n);

  for (int burst = 0; burst < 40; ++burst) {
    for (std::size_t i = n; i > 1; --i) {
      std::swap(nodes[i - 1], nodes[rng.next_below(i)]);
    }
    std::vector<TimedRequest> requests(1 + rng.next_below(n));
    double at = engine.bus().now();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      at += rng.next_double(0.0, 2.0);
      requests[i] = {nodes[i], at};
    }
    engine.run_concurrent(requests);

    Row<Word> row(n);
    const std::uint64_t seal = engine.park_row<Word>(row.parents, row.bridges);
    ASSERT_NE(seal, 0u) << "burst " << burst;
    EXPECT_EQ(seal, row_seal<Word>(row.parents, row.bridges))
        << "burst " << burst;
    // The sealed adopt below trusts park's incremental check; hold that
    // check to the whole-row one, rooted at the token holder, here.
    ASSERT_TRUE(engine.token_holder().has_value()) << "burst " << burst;
    EXPECT_TRUE(
        is_rooted_tree(widen(row.parents), *engine.token_holder(), scratch))
        << "burst " << burst;
    copy.adopt_row<Word>(row.parents, row.bridges, seal,
                         static_cast<std::uint64_t>(burst));
    EXPECT_EQ(arvy::verify::capture(copy), arvy::verify::capture(engine))
        << "burst " << burst;
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(copy.node(v).parent_edge_is_bridge(),
                engine.node(v).parent_edge_is_bridge())
          << "burst " << burst << " node " << v;
    }
    Row<Word> again(n);
    // The same bytes seal the same.
    EXPECT_EQ(copy.park_row<Word>(again.parents, again.bridges), seal)
        << "burst " << burst;
    EXPECT_EQ(again.parents, row.parents) << "burst " << burst;
    EXPECT_EQ(again.bridges, row.bridges) << "burst " << burst;
  }
}

TEST(EngineRows, ParkThenAdoptRoundTripsOnAGrid) {
  // Nine nodes: neither row width fills its last seal word.
  const auto g = arvy::graph::make_grid(3, 3);
  const InitialConfig init = from_tree(arvy::graph::bfs_tree(g, 4));
  for_each_width([&]<typename Word>(std::type_identity<Word>) {
    for (PolicyKind kind :
         {PolicyKind::kArrow, PolicyKind::kIvy, PolicyKind::kRandom}) {
      SCOPED_TRACE(std::string(policy_kind_name(kind)));
      expect_rows_round_trip<Word>(g, init, kind);
    }
  });
}

TEST(EngineRows, ParkThenAdoptCarriesTheBridgeOnARing) {
  const auto g = make_ring(8);
  for_each_width([&]<typename Word>(std::type_identity<Word>) {
    expect_rows_round_trip<Word>(g, ring_bridge_config(8), PolicyKind::kBridge);
  });
}

TEST(EngineRows, AdapterRoundTripsThroughInitialConfig) {
  const auto g = make_ring(8);
  SimEngine engine = make_engine(g, ring_bridge_config(8), PolicyKind::kBridge);
  engine.run_sequential(std::vector<arvy::graph::NodeId>{6, 1, 5});
  InitialConfig parked;
  ASSERT_TRUE(engine.park_state(parked));
  EXPECT_TRUE(parked.is_valid_tree());
  EXPECT_EQ(parked.root, 5u);
  SimEngine copy = make_engine(g, ring_bridge_config(8), PolicyKind::kBridge);
  copy.adopt_state(parked, 1);
  EXPECT_EQ(arvy::verify::capture(copy), arvy::verify::capture(engine));
  for (arvy::graph::NodeId v = 0; v < 8; ++v) {
    EXPECT_EQ(parked.parent_edge_is_bridge[v],
              engine.node(v).parent_edge_is_bridge());
  }
}

TEST(EngineRows, ParkRefusesAnOutstandingRequest) {
  // A dropped find leaves node 0 waiting: p(0) == 0 without the token.
  const auto g = make_path(4);
  SimEngine engine = make_engine(g, chain_config(4), PolicyKind::kArrow);
  engine.submit(0);
  const auto ids = engine.bus().deliverable_ids();
  ASSERT_EQ(ids.size(), 1u);
  engine.bus().drop(ids.front());
  ASSERT_TRUE(engine.bus().idle());
  for_each_width([&]<typename Word>(std::type_identity<Word>) {
    Row<Word> row(4);
    EXPECT_EQ(engine.park_row<Word>(row.parents, row.bridges), 0u);
  });
  InitialConfig parked;
  EXPECT_FALSE(engine.park_state(parked));
}

// The park predicate before the incremental check, over every node: no
// request outstanding, a token holder, and a whole-row rooted tree there.
bool whole_row_parkable(const SimEngine& engine) {
  const std::size_t n = engine.node_count();
  std::vector<arvy::graph::NodeId> parents(n);
  std::optional<arvy::graph::NodeId> holder;
  for (arvy::graph::NodeId v = 0; v < n; ++v) {
    if (engine.node(v).outstanding().has_value()) return false;
    if (engine.node(v).holds_token()) holder = v;
    parents[v] = engine.node(v).parent();
  }
  std::vector<arvy::graph::NodeId> scratch(n);
  return holder.has_value() && is_rooted_tree(parents, *holder, scratch);
}

// token_holder() reads the dirty list; this scans every node.
std::optional<arvy::graph::NodeId> scanned_holder(const SimEngine& engine) {
  for (arvy::graph::NodeId v = 0; v < engine.node_count(); ++v) {
    if (engine.node(v).holds_token()) return v;
  }
  return std::nullopt;
}

// Parks a quiescent engine and returns the seal; the verdict must equal the
// whole-row predicate, and a resumable row must be the nodes' parents and
// bridge flags, sealed with their hash.
template <typename Word>
std::uint64_t expect_park_matches(const SimEngine& engine, Row<Word>& row,
                                  const std::string& where) {
  EXPECT_TRUE(engine.bus().idle()) << where;
  EXPECT_EQ(engine.token_holder(), scanned_holder(engine)) << where;
  const std::uint64_t seal = engine.park_row<Word>(row.parents, row.bridges);
  const bool parked = seal != 0;
  EXPECT_EQ(parked, whole_row_parkable(engine)) << where;
  if (parked) {
    EXPECT_EQ(seal, row_seal<Word>(row.parents, row.bridges)) << where;
    std::vector<NodeId> parents(engine.node_count());
    std::vector<bool> flags(engine.node_count());
    for (NodeId v = 0; v < engine.node_count(); ++v) {
      parents[v] = engine.node(v).parent();
      flags[v] = engine.node(v).parent_edge_is_bridge();
    }
    EXPECT_EQ(widen(row.parents), parents) << where;
    Row<Word> expected(engine.node_count());
    pack_bridges(flags, expected.bridges);
    EXPECT_EQ(row.bridges, expected.bridges) << where;
  }
  return seal;
}

// The dirty-tracking seam's invariant: a node outside the dirty list keeps
// the parent and bridge flag of the last validated row and has no per-burst
// state, so park and adopt may skip it.
template <typename Word>
void expect_clean_outside_dirty(const SimEngine& engine,
                                const Row<Word>& validated,
                                const std::string& where) {
  const std::size_t n = engine.node_count();
  std::vector<bool> dirty(n, false);
  for (const NodeId v : engine.dirty_nodes()) dirty[v] = true;
  for (NodeId v = 0; v < n; ++v) {
    if (dirty[v]) continue;
    const ArvyCore& core = engine.node(v);
    const bool bridge = ((validated.bridges[v / 64] >> (v % 64)) & 1U) != 0;
    EXPECT_TRUE(core.parent() == NodeId{validated.parents[v]} &&
                core.parent_edge_is_bridge() == bridge &&
                !core.holds_token() && !core.next().has_value() &&
                !core.outstanding().has_value() && core.token_serial() == 0)
        << where << ": node " << v << " changed outside the dirty list";
  }
}

TEST(EngineRows, ParkCheckAgreesWithTheWholeRowCheck) {
  // Random episodes through every entry point of the dirty-tracking seam:
  // queued submits, deferred tokens released by flush_token, dropped finds
  // and tokens, and adopt -> park with no event in between. After every
  // step nothing outside the dirty list has changed and token_holder (dirty
  // list) equals a full scan; at every quiescent point park_row's
  // O(touched) verdict equals the old whole-row predicate. A parked row is
  // resumed with its seal, so adopt runs the sealed path.
  struct Case {
    arvy::graph::Graph g;
    InitialConfig init;
    PolicyKind kind;
  };
  const auto grid = arvy::graph::make_grid(3, 3);
  const InitialConfig grid_tree = from_tree(arvy::graph::bfs_tree(grid, 4));
  std::vector<Case> cases;
  for (PolicyKind kind : {PolicyKind::kArrow, PolicyKind::kIvy,
                          PolicyKind::kRandom, PolicyKind::kMidpoint}) {
    cases.push_back({grid, grid_tree, kind});
  }
  cases.push_back({make_ring(8), ring_bridge_config(8), PolicyKind::kBridge});

  for_each_width([&]<typename Word>(std::type_identity<Word>) {
    std::size_t parks = 0;
    std::size_t refused = 0;
    for (const Case& c : cases) {
      for (const bool auto_send : {true, false}) {
        const std::string name = std::string(policy_kind_name(c.kind)) +
                                 (auto_send ? " auto" : " deferred");
        auto policy = make_policy(c.kind);
        SimEngine::Options options;
        options.discipline = arvy::sim::Discipline::kRandom;
        options.seed = 11;
        options.auto_send_token = auto_send;
        SimEngine engine(c.g, c.init, *policy, std::move(options));
        const std::size_t n = c.g.node_count();
        Row<Word> row(n);
        Row<Word> canonical(n);
        canonical.parents = narrow<Word>(c.init.parent);
        pack_bridges(c.init.parent_edge_is_bridge, canonical.bridges);
        Row<Word> validated = canonical;
        expect_park_matches(engine, row, name + " after construction");

        arvy::support::Rng rng(23);
        for (int step = 0; step < 400; ++step) {
          const std::string where = name + " step " + std::to_string(step);
          const auto v = static_cast<NodeId>(rng.next_below(n));
          switch (rng.next_below(6)) {
            case 0:
            case 1:  // queues behind an outstanding request at v, if any
              (void)engine.submit_queued(v);
              break;
            case 2:
              (void)engine.step();
              break;
            case 3: {  // from quiet: lose the one find or token just sent
              engine.run_until_idle();
              if (rng.next_below(4) != 0) break;
              const std::optional<NodeId> holder = scanned_holder(engine);
              if (!auto_send && holder.has_value()) {
                engine.flush_token(*holder);
              } else {
                (void)engine.submit_queued(v);
              }
              const auto ids = engine.bus().deliverable_ids();
              if (ids.size() == 1) engine.bus().drop(ids.front());
              break;
            }
            case 4:  // the deferred SendToken event
              if (const auto holder = scanned_holder(engine)) {
                engine.flush_token(*holder);
              }
              break;
            default: {
              engine.run_until_idle();
              ++parks;
              const std::uint64_t seal =
                  expect_park_matches(engine, row, where);
              const bool parked = seal != 0;
              if (!parked) ++refused;
              if (rng.next_below(2) == 0) {
                // Resume the parked row with its seal (or re-seed a refused
                // one, unsealed) and park again with no event in between.
                validated = parked ? row : canonical;
                engine.adopt_row<Word>(validated.parents, validated.bridges,
                                       seal, 5);
                Row<Word> again(n);
                EXPECT_NE(
                    expect_park_matches(engine, again, where + " adopt"), 0u);
                EXPECT_EQ(again.parents, validated.parents) << where;
              }
              break;
            }
          }
          EXPECT_EQ(engine.token_holder(), scanned_holder(engine)) << where;
          expect_clean_outside_dirty(engine, validated, where);
        }
      }
    }
    // Both verdicts occur often enough to mean something.
    EXPECT_GT(parks - refused, 100u);
    EXPECT_GT(refused, 50u);
  });
}

TEST(EngineRows, ParksRightAfterConstructionAndAdoption) {
  // No event has touched any node: the dirty list holds only the root that
  // construction (then adoption) seated, and that must be enough.
  for_each_width([]<typename Word>(std::type_identity<Word>) {
    const auto g = make_path(4);
    SimEngine engine = make_engine(g, chain_config(4), PolicyKind::kArrow);
    EXPECT_EQ(engine.token_holder(), std::optional<NodeId>{3});
    Row<Word> row(4);
    ASSERT_NE(engine.park_row<Word>(row.parents, row.bridges), 0u);
    EXPECT_EQ(widen(row.parents), chain_config(4).parent);
    const InitialConfig other = path_config(4, 1);
    engine.adopt_row<Word>(narrow<Word>(other.parent), {}, 0, 1);
    EXPECT_EQ(engine.token_holder(), std::optional<NodeId>{1});
    ASSERT_NE(engine.park_row<Word>(row.parents, row.bridges), 0u);
    EXPECT_EQ(widen(row.parents), other.parent);
  });
}

// Parks `engine` and edits each word of the row in turn: each parent is
// set to every other value its word is tested with - every byte value in a
// byte row; every other node, one past the range and the invalid id in a
// NodeId row - and each bit of the first bridge word is flipped. Every edit
// must change the seal.
template <typename Word>
void expect_every_edit_changes_the_seal(const SimEngine& engine) {
  const std::size_t n = engine.node_count();
  Row<Word> row(n);
  const std::uint64_t seal = engine.park_row<Word>(row.parents, row.bridges);
  ASSERT_NE(seal, 0u);
  std::size_t edits = 0;
  for (NodeId v = 0; v < n; ++v) {
    const Word kept = row.parents[v];
    std::vector<Word> values;
    if constexpr (sizeof(Word) == 1) {
      for (unsigned p = 0; p < 256; ++p) values.push_back(static_cast<Word>(p));
    } else {
      for (NodeId p = 0; p <= n; ++p) values.push_back(p);
      values.push_back(arvy::graph::kInvalidNode);
    }
    for (const Word p : values) {
      if (p == kept) continue;
      row.parents[v] = p;
      EXPECT_NE(row_seal<Word>(row.parents, row.bridges), seal)
          << "parent of " << v << " set to " << NodeId{p};
      ++edits;
    }
    row.parents[v] = kept;
  }
  for (std::size_t bit = 0; bit < 64; ++bit) {
    row.bridges[0] ^= std::uint64_t{1} << bit;
    EXPECT_NE(row_seal<Word>(row.parents, row.bridges), seal)
        << "bridge bit " << bit;
    row.bridges[0] ^= std::uint64_t{1} << bit;
    ++edits;
  }
  EXPECT_EQ(edits, n * (sizeof(Word) == 1 ? 255u : n + 1) + 64u);
  EXPECT_EQ(row_seal<Word>(row.parents, row.bridges), seal);
}

TEST(EngineRows, EverySingleWordEditChangesTheSeal) {
  // A parked 8-node ring row that carries Algorithm 2's bridge, and a
  // 9-node grid row, whose last parents fill only part of a seal word.
  const auto ring = make_ring(8);
  SimEngine bridged =
      make_engine(ring, ring_bridge_config(8), PolicyKind::kBridge);
  bridged.run_sequential(std::vector<NodeId>{6, 1, 5});
  bool carries_bridge = false;
  for (NodeId v = 0; v < 8; ++v) {
    carries_bridge = carries_bridge || bridged.node(v).parent_edge_is_bridge();
  }
  ASSERT_TRUE(carries_bridge);
  const auto grid = arvy::graph::make_grid(3, 3);
  SimEngine grid_engine = make_engine(
      grid, from_tree(arvy::graph::bfs_tree(grid, 4)), PolicyKind::kIvy);
  grid_engine.run_sequential(std::vector<NodeId>{8, 0, 5});
  for_each_width([&]<typename Word>(std::type_identity<Word>) {
    expect_every_edit_changes_the_seal<Word>(bridged);
    expect_every_edit_changes_the_seal<Word>(grid_engine);
  });
}

TEST(EngineRows, ASealedRowEditedIntoAnotherTreeAdoptsThatTree) {
  // The stale seal no longer matches, so adopt validates the edited row
  // and, since it is a tree, seats it.
  const auto g = make_path(4);
  for_each_width([&]<typename Word>(std::type_identity<Word>) {
    SimEngine engine = make_engine(g, chain_config(4), PolicyKind::kArrow);
    Row<Word> row(4);
    const std::uint64_t seal = engine.park_row<Word>(row.parents, row.bridges);
    ASSERT_NE(seal, 0u);
    const InitialConfig other = path_config(4, 1);
    row.parents = narrow<Word>(other.parent);
    engine.adopt_row<Word>(row.parents, row.bridges, seal, 1);
    const arvy::verify::Configuration cfg = arvy::verify::capture(engine);
    EXPECT_EQ(cfg.parent, other.parent);
    EXPECT_EQ(cfg.token_at, std::optional<NodeId>{1});
    EXPECT_NE(engine.park_row<Word>(row.parents, row.bridges), seal);
  });
}

TEST(EngineRowsDeath, AdoptingANonTreeRowAborts) {
  const auto g = make_path(4);
  SimEngine engine = make_engine(g, chain_config(4), PolicyKind::kArrow);
  const std::vector<std::uint64_t> none;
  for_each_width([&]<typename Word>(std::type_identity<Word>) {
    const std::vector<Word> two_roots{1, 1, 3, 3};
    const std::vector<Word> cycle{1, 2, 1, 3};
    const std::vector<Word> out_of_range{1, 4, 3, 3};
    EXPECT_DEATH(engine.adopt_row<Word>(two_roots, none, 0, 1),
                 "adopted parent pointers must form a rooted tree");
    EXPECT_DEATH(engine.adopt_row<Word>(cycle, none, 0, 1),
                 "adopted parent pointers must form a rooted tree");
    EXPECT_DEATH(engine.adopt_row<Word>(out_of_range, none, 0, 1),
                 "adopted parent pointers must form a rooted tree");
  });
  // The adapter's named root must be the row's self-loop.
  InitialConfig misrooted = chain_config(4);
  misrooted.root = 0;
  EXPECT_DEATH(engine.adopt_state(misrooted, 1),
               "adopted parent pointers must form a rooted tree");
}

TEST(EngineRowsDeath, AStaleSealDoesNotVouchForAnEditedRow) {
  // A row park sealed, then edited into a non-tree: the seal it carries no
  // longer matches its bytes, so adopt runs the whole-row check and aborts.
  const auto g = make_path(4);
  for_each_width([&]<typename Word>(std::type_identity<Word>) {
    SimEngine engine = make_engine(g, chain_config(4), PolicyKind::kArrow);
    Row<Word> sealed(4);
    const std::uint64_t seal =
        engine.park_row<Word>(sealed.parents, sealed.bridges);
    ASSERT_NE(seal, 0u);
    const std::vector<std::vector<Word>> edits{
        {1, 1, 3, 3},  // two roots
        {1, 2, 1, 3},  // a cycle
        {1, 4, 3, 3},  // an out-of-range parent
    };
    for (const std::vector<Word>& edited : edits) {
      Row<Word> row = sealed;
      row.parents = edited;
      EXPECT_DEATH(engine.adopt_row<Word>(row.parents, row.bridges, seal, 1),
                   "adopted parent pointers must form a rooted tree");
    }
  });
}

TEST(EngineRowsDeath, AForgedSealDoesNotSeatARootlessRow) {
  // A row with no self-loop, handed in with its own hash as the seal: the
  // seal matches, so the whole-row check is skipped, and the row's missing
  // root must still abort adopt before it seats a token past the last node.
  const auto g = make_path(4);
  for_each_width([&]<typename Word>(std::type_identity<Word>) {
    SimEngine engine = make_engine(g, chain_config(4), PolicyKind::kArrow);
    const std::vector<Word> rootless{1, 2, 3, 0};
    const std::vector<std::uint64_t> none;
    const std::uint64_t forged = row_seal<Word>(rootless, none);
    EXPECT_DEATH(engine.adopt_row<Word>(rootless, none, forged, 1),
                 "adopted parent pointers must form a rooted tree");
  });
}

}  // namespace
