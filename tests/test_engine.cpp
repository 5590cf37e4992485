// Integration tests for SimEngine: cost accounting, sequential and
// concurrent drivers, token tracking.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "graph/generators.hpp"
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

struct Row {
  std::vector<arvy::graph::NodeId> parents;
  std::vector<std::uint64_t> bridges;

  explicit Row(std::size_t n) : parents(n), bridges(bridge_words(n)) {}
};

// Drives an engine through random concurrent bursts (distinct nodes per
// burst, so no node ever has two requests outstanding) and, at the
// quiescent point after each, parks it into a row and adopts that row into
// a second engine: adopt(park(c)) must be c.
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
  std::vector<arvy::graph::NodeId> nodes(n);
  for (arvy::graph::NodeId v = 0; v < n; ++v) nodes[v] = v;

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

    Row row(n);
    ASSERT_TRUE(engine.park_row(row.parents, row.bridges))
        << "burst " << burst;
    copy.adopt_row(row.parents, row.bridges,
                   static_cast<std::uint64_t>(burst));
    EXPECT_EQ(arvy::verify::capture(copy), arvy::verify::capture(engine))
        << "burst " << burst;
    for (arvy::graph::NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(copy.node(v).parent_edge_is_bridge(),
                engine.node(v).parent_edge_is_bridge())
          << "burst " << burst << " node " << v;
    }
    Row again(n);
    ASSERT_TRUE(copy.park_row(again.parents, again.bridges));
    EXPECT_EQ(again.parents, row.parents) << "burst " << burst;
    EXPECT_EQ(again.bridges, row.bridges) << "burst " << burst;
  }
}

TEST(EngineRows, ParkThenAdoptRoundTripsOnAGrid) {
  const auto g = arvy::graph::make_grid(3, 3);
  const InitialConfig init = from_tree(arvy::graph::bfs_tree(g, 4));
  for (PolicyKind kind :
       {PolicyKind::kArrow, PolicyKind::kIvy, PolicyKind::kRandom}) {
    SCOPED_TRACE(std::string(policy_kind_name(kind)));
    expect_rows_round_trip(g, init, kind);
  }
}

TEST(EngineRows, ParkThenAdoptCarriesTheBridgeOnARing) {
  const auto g = make_ring(8);
  expect_rows_round_trip(g, ring_bridge_config(8), PolicyKind::kBridge);
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
  Row row(4);
  EXPECT_FALSE(engine.park_row(row.parents, row.bridges));
  InitialConfig parked;
  EXPECT_FALSE(engine.park_state(parked));
}

TEST(EngineRowsDeath, AdoptingANonTreeRowAborts) {
  const auto g = make_path(4);
  SimEngine engine = make_engine(g, chain_config(4), PolicyKind::kArrow);
  const std::vector<std::uint64_t> none;
  const std::vector<arvy::graph::NodeId> two_roots{1, 1, 3, 3};
  const std::vector<arvy::graph::NodeId> cycle{1, 2, 1, 3};
  const std::vector<arvy::graph::NodeId> out_of_range{1, 4, 3, 3};
  EXPECT_DEATH(engine.adopt_row(two_roots, none, 1),
               "adopted parent pointers must form a rooted tree");
  EXPECT_DEATH(engine.adopt_row(cycle, none, 1),
               "adopted parent pointers must form a rooted tree");
  EXPECT_DEATH(engine.adopt_row(out_of_range, none, 1),
               "adopted parent pointers must form a rooted tree");
  // The adapter's named root must be the row's self-loop.
  InitialConfig misrooted = chain_config(4);
  misrooted.root = 0;
  EXPECT_DEATH(engine.adopt_state(misrooted, 1),
               "adopted parent pointers must form a rooted tree");
}

}  // namespace
