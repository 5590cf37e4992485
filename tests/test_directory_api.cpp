// Tests for the public facade: Directory, plus the single-object corners of
// the sharded DirectoryService that replaced MultiDirectory (the service's
// own suite is tests/test_directory_service.cpp).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <type_traits>
#include <vector>

#include "graph/generators.hpp"
#include "proto/directory.hpp"
#include "service/directory_service.hpp"

namespace {

using namespace arvy;
using graph::NodeId;

TEST(Directory, QuickstartFlow) {
  const auto g = graph::make_ring(8);
  Directory dir(g, {.policy = proto::PolicyKind::kBridge});
  EXPECT_TRUE(dir.holder().has_value());
  dir.acquire_and_wait(3);
  EXPECT_EQ(dir.holder(), std::optional<NodeId>{3});
  dir.acquire_and_wait(6);
  EXPECT_EQ(dir.holder(), std::optional<NodeId>{6});
  EXPECT_GT(dir.costs().total_distance(), 0.0);
  EXPECT_EQ(dir.requests().size(), 2u);
}

TEST(Directory, AsynchronousAcquireCompletesOnRun) {
  const auto g = graph::make_grid(3, 3);
  Directory dir(g, {.policy = proto::PolicyKind::kIvy});
  const auto id = dir.acquire(8);
  EXPECT_GT(id, 0u);
  dir.run();
  EXPECT_EQ(dir.holder(), std::optional<NodeId>{8});
}

TEST(Directory, DefaultInitUsesAlgorithmTwoOnUnitRings) {
  const auto g = graph::make_ring(8);
  const auto init = default_initial_config(g, proto::PolicyKind::kBridge);
  EXPECT_EQ(init.root, 3u);  // Algorithm 2's v_{n/2}
  EXPECT_TRUE(init.parent_edge_is_bridge[4]);
}

TEST(Directory, DefaultInitUsesWeightedSplitOnWeightedRings) {
  support::Rng rng(3);
  const auto g = graph::make_weighted_ring(9, rng, 0.5, 3.0);
  const auto init = default_initial_config(g, proto::PolicyKind::kBridge);
  EXPECT_TRUE(init.is_valid_tree());
  std::size_t bridges = 0;
  for (bool b : init.parent_edge_is_bridge) bridges += b ? 1 : 0;
  EXPECT_EQ(bridges, 1u);
}

TEST(Directory, DefaultInitCentersNonBridgePolicies) {
  const auto g = graph::make_path(9);
  const auto init = default_initial_config(g, proto::PolicyKind::kArrow);
  EXPECT_EQ(init.root, 4u);  // path's metric center
  for (bool b : init.parent_edge_is_bridge) EXPECT_FALSE(b);
}

TEST(Directory, CustomInitialConfigIsHonored) {
  const auto g = graph::make_path(5);
  Options options;
  options.policy = proto::PolicyKind::kArrow;
  options.initial = proto::chain_config(5);
  Directory dir(g, options);
  EXPECT_EQ(dir.holder(), std::optional<NodeId>{4});
}

TEST(DirectoryService_, ObjectsAreIndependent) {
  const auto g = graph::make_ring(6);
  DirectoryService service(g, /*object_count=*/3, /*shard_count=*/2,
                           {.policy = proto::PolicyKind::kIvy});
  EXPECT_EQ(service.object_count(), 3u);
  service.acquire_and_wait(0, 2);
  service.acquire_and_wait(1, 4);
  EXPECT_EQ(service.holder(0), std::optional<NodeId>{2});
  EXPECT_EQ(service.holder(1), std::optional<NodeId>{4});
  // Object 2 was never touched; its holder is its canonical root, unaffected
  // by the other objects' traffic, and it was never materialized.
  EXPECT_TRUE(service.holder(2).has_value());
  EXPECT_LE(service.resident_objects(), 2u);
}

TEST(DirectoryService_, RootsAreSpreadAcrossNodes) {
  const auto g = graph::make_ring(8);
  DirectoryService service(g, /*object_count=*/8, /*shard_count=*/2,
                           {.policy = proto::PolicyKind::kArrow});
  std::set<NodeId> roots;
  for (std::size_t i = 0; i < 8; ++i) {
    roots.insert(*service.holder(i));
  }
  EXPECT_GT(roots.size(), 1u);
}

TEST(DirectoryService_, TotalCostsAggregateAcrossShards) {
  const auto g = graph::make_ring(6);
  DirectoryService service(g, /*object_count=*/2, /*shard_count=*/2,
                           {.policy = proto::PolicyKind::kIvy});
  service.acquire_and_wait(0, 3);
  service.acquire_and_wait(1, 5);
  const auto total = service.cost_snapshot();
  EXPECT_GT(total.total_distance(), 0.0);
  EXPECT_GT(total.find_messages + total.token_messages, 0u);
  EXPECT_EQ(service.satisfied_count(), 2u);
}

TEST(AnyDirectoryFacade, DirectoryWorksThroughTheBaseInterface) {
  const auto g = graph::make_ring(8);
  std::unique_ptr<AnyDirectory> dir =
      std::make_unique<Directory>(g, Options{});
  EXPECT_EQ(dir->node_count(), 8u);
  const auto id = dir->acquire(3);
  EXPECT_GT(id, 0u);
  EXPECT_TRUE(dir->drain());
  dir->acquire_and_wait(6);
  EXPECT_EQ(dir->submitted_count(), 2u);
  EXPECT_EQ(dir->satisfied_count(), 2u);
  EXPECT_GT(dir->cost_snapshot().total_distance(), 0.0);
  // No faults declared: the stats stay identically zero.
  const auto stats = dir->fault_stats();
  EXPECT_EQ(stats.drops, 0u);
  EXPECT_EQ(stats.permanent_losses, 0u);
}

TEST(DirectoryObservers, MessageHookSeesEveryDelivery) {
  const auto g = graph::make_ring(8);
  Directory dir(g, {.policy = proto::PolicyKind::kIvy});
  std::size_t finds = 0;
  std::size_t tokens = 0;
  dir.on_message([&](const MessageEvent& event) {
    ASSERT_LT(event.from, 8u);
    ASSERT_LT(event.to, 8u);
    ASSERT_GT(event.distance, 0.0);
    if (event.is_find) {
      ASSERT_GT(event.request, 0u);
      ++finds;
    } else {
      ASSERT_EQ(event.request, 0u);
      ++tokens;
    }
  });
  dir.acquire_and_wait(4);
  // Observed counts match the charged cost account exactly.
  EXPECT_EQ(finds, dir.costs().find_messages);
  EXPECT_EQ(tokens, dir.costs().token_messages);
  EXPECT_GT(finds + tokens, 0u);
}

TEST(DirectoryObservers, SatisfiedHookFiresOncePerRequestInOrder) {
  const auto g = graph::make_grid(3, 3);
  Directory dir(g, {.policy = proto::PolicyKind::kIvy});
  std::vector<proto::RequestId> satisfied;
  dir.on_satisfied([&](const proto::RequestRecord& record) {
    EXPECT_TRUE(record.satisfied_at.has_value());
    satisfied.push_back(record.id);
  });
  dir.run_sequential(std::vector<NodeId>{1, 5, 7, 2});
  EXPECT_EQ(satisfied, (std::vector<proto::RequestId>{1, 2, 3, 4}));
}

TEST(DirectoryObservers, EventHookSeesAConsistentDirectoryAfterEveryEvent) {
  const auto g = graph::make_ring(8);
  Directory dir(g, {.policy = proto::PolicyKind::kIvy});
  std::size_t events = 0;
  dir.on_event([&](const Directory& d) {
    ++events;
    // The hook receives the facade itself, const: observers can capture and
    // verify but never mutate mid-run.
    EXPECT_LE(d.satisfied_count(), d.submitted_count());
  });
  dir.acquire_and_wait(5);
  EXPECT_GT(events, 0u);
}

TEST(Options_, DesignatedInitCoversTheWholeSurface) {
  const auto g = graph::make_ring(8);
  // The Quickstart's "with faults and retries" form, verbatim shape.
  Directory dir(g, {
                       .policy = proto::PolicyKind::kIvy,
                       .discipline = sim::Discipline::kTimed,
                       .seed = 7,
                       .delay = sim::make_uniform_delay(1.0, 3.0),
                       .faults = {.drop_find = 0.1, .drop_token = 0.1},
                       .retry = {.rto = 4.0, .backoff = 2.0},
                   });
  dir.run_sequential(std::vector<NodeId>{3, 6, 1});
  EXPECT_TRUE(dir.drain());
  EXPECT_EQ(dir.satisfied_count(), 3u);
}

TEST(DirectoryInspect, InspectIsReadOnlyAndMatchesTheFacade) {
  const auto g = graph::make_ring(8);
  Directory dir(g, {.policy = proto::PolicyKind::kIvy});
  dir.acquire_and_wait(2);
  const proto::SimEngine& engine = dir.inspect();
  EXPECT_EQ(engine.requests().size(), dir.requests().size());
  EXPECT_EQ(engine.token_holder(), dir.holder());
  static_assert(
      std::is_const_v<std::remove_reference_t<decltype(dir.inspect())>>,
      "inspect() must hand out a const engine");
}

TEST(DirectoryService_, ParallelAcquiresDrain) {
  const auto g = graph::make_grid(3, 3);
  DirectoryService service(g, /*object_count=*/3, /*shard_count=*/3,
                           {.policy = proto::PolicyKind::kIvy});
  service.acquire(0, 1);
  service.acquire(1, 5);
  service.acquire(2, 7);
  EXPECT_TRUE(service.drain());
  EXPECT_EQ(service.holder(0), std::optional<NodeId>{1});
  EXPECT_EQ(service.holder(1), std::optional<NodeId>{5});
  EXPECT_EQ(service.holder(2), std::optional<NodeId>{7});
}

}  // namespace
