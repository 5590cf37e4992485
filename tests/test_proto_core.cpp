// Unit tests for the transport-agnostic ArvyCore state machine: each of
// Algorithm 1's procedures in isolation.
#include <gtest/gtest.h>

#include "proto/core.hpp"
#include "proto/policies.hpp"

namespace {

using namespace arvy::proto;

struct CoreFixture : ::testing::Test {
  std::unique_ptr<NewParentPolicy> arrow = make_policy(PolicyKind::kArrow);
  std::unique_ptr<NewParentPolicy> ivy = make_policy(PolicyKind::kIvy);
  std::unique_ptr<NewParentPolicy> bridge = make_policy(PolicyKind::kBridge);

  // Persistent state of the cores under test, by node id.
  NodeCell cells[8];

  ArvyCore make_node(NodeId id, NodeId parent, bool token,
                     NewParentPolicy* policy, bool is_bridge = false) {
    ArvyCore core(id, cells[id].slots(), policy, nullptr, nullptr);
    core.initialize(parent, token, is_bridge);
    return core;
  }

  static FindMessage find_by(NodeId producer, std::vector<NodeId> visited,
                             RequestId request = 1, bool bridge_flag = false) {
    FindMessage m;
    m.producer = producer;
    m.visited = std::move(visited);
    m.sender = m.visited.back();
    m.request = request;
    m.sender_edge_was_bridge = bridge_flag;
    return m;
  }
};

TEST_F(CoreFixture, RequestSendsFindToParentAndSelfLoops) {
  ArvyCore node = make_node(2, 5, false, arrow.get());
  FindMessage find = find_by(4, {4, 6, 1});  // stale content is overwritten
  const Effects effects = node.request_token(7, find);
  ASSERT_EQ(effects.send, Effects::Send::kFind);
  EXPECT_EQ(effects.to, 5u);
  EXPECT_EQ(find.producer, 2u);
  EXPECT_EQ(find.sender, 2u);
  EXPECT_EQ(find.visited, (std::vector<NodeId>{2}));
  EXPECT_EQ(find.request, 7u);
  EXPECT_TRUE(node.has_self_loop());
  EXPECT_EQ(node.outstanding(), std::optional<RequestId>{7});
  EXPECT_FALSE(effects.satisfied.has_value());
}

TEST_F(CoreFixture, RequestCarriesAndClearsBridgeFlag) {
  ArvyCore node = make_node(2, 5, false, bridge.get(), /*is_bridge=*/true);
  FindMessage find;
  (void)node.request_token(1, find);
  EXPECT_TRUE(find.sender_edge_was_bridge);
  EXPECT_FALSE(node.parent_edge_is_bridge());
}

TEST_F(CoreFixture, FindIsForwardedToOldParentUnderArrow) {
  // Node 3 with parent 4 receives "find by 1" from 2: Arrow re-points 3 at
  // the sender 2 and forwards towards the old parent 4.
  ArvyCore node = make_node(3, 4, false, arrow.get());
  FindMessage forwarded = find_by(1, {1, 2});
  const Effects effects = node.on_find(forwarded);
  ASSERT_EQ(effects.send, Effects::Send::kFind);
  EXPECT_EQ(effects.to, 4u);
  EXPECT_EQ(forwarded.sender, 3u);
  EXPECT_EQ(forwarded.visited, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(forwarded.producer, 1u);
  EXPECT_EQ(node.parent(), 2u);  // Arrow: the sender
  EXPECT_FALSE(node.next().has_value());
}

TEST_F(CoreFixture, FindRepointsToProducerUnderIvy) {
  ArvyCore node = make_node(3, 4, false, ivy.get());
  FindMessage find = find_by(1, {1, 2});
  (void)node.on_find(find);
  EXPECT_EQ(node.parent(), 1u);  // Ivy: the producer
}

TEST_F(CoreFixture, ForwardedFindCarriesOldBridgeFlag) {
  // Node's own parent edge was the bridge; the forwarded hop must say so,
  // while the node's new edge (Arrow-chosen) is not a bridge.
  ArvyCore node = make_node(3, 4, false, bridge.get(), /*is_bridge=*/true);
  FindMessage forwarded = find_by(1, {1, 2});
  (void)node.on_find(forwarded);
  EXPECT_TRUE(forwarded.sender_edge_was_bridge);
  EXPECT_FALSE(node.parent_edge_is_bridge());
  EXPECT_EQ(node.parent(), 2u);
}

TEST_F(CoreFixture, BridgeCrossingShortcutsToProducer) {
  ArvyCore node = make_node(3, 4, false, bridge.get());
  FindMessage find = find_by(1, {1, 2}, 1, /*bridge_flag=*/true);
  const Effects effects = node.on_find(find);
  EXPECT_EQ(node.parent(), 1u);  // crossed the bridge: producer
  EXPECT_TRUE(node.parent_edge_is_bridge());
  // Still forwards towards the old parent.
  ASSERT_EQ(effects.send, Effects::Send::kFind);
  EXPECT_EQ(effects.to, 4u);
}

TEST_F(CoreFixture, FindStopsAtSelfLoopWithoutToken) {
  // Node 3 requested earlier (self-loop, no token): the find parks as n(3).
  ArvyCore node = make_node(3, 5, false, arrow.get());
  FindMessage own;
  (void)node.request_token(9, own);
  ASSERT_TRUE(node.has_self_loop());
  FindMessage find = find_by(1, {1, 2});
  const Effects effects = node.on_find(find);
  EXPECT_EQ(effects.send, Effects::Send::kNone);
  EXPECT_EQ(node.next(), std::optional<NodeId>{1});
  EXPECT_EQ(node.parent(), 2u);  // still re-points per policy
}

TEST_F(CoreFixture, FindAtTokenHolderSendsTokenImmediately) {
  ArvyCore root = make_node(4, 4, true, arrow.get());
  FindMessage find = find_by(1, {1, 2});
  const Effects effects = root.on_find(find);
  EXPECT_EQ(effects.send, Effects::Send::kToken);
  EXPECT_EQ(effects.to, 1u);
  EXPECT_FALSE(root.holds_token());
  EXPECT_FALSE(root.next().has_value());  // cleared after sending
  EXPECT_EQ(root.parent(), 2u);
}

TEST_F(CoreFixture, TokenSatisfiesOutstandingRequest) {
  ArvyCore node = make_node(2, 6, false, arrow.get());
  FindMessage own;
  (void)node.request_token(42, own);
  const Effects effects = node.on_token(TokenMessage{3});
  EXPECT_EQ(effects.satisfied, std::optional<RequestId>{42});
  EXPECT_EQ(effects.send, Effects::Send::kNone);  // no next: token stays
  EXPECT_TRUE(node.holds_token());
  EXPECT_FALSE(node.outstanding().has_value());
  EXPECT_EQ(node.token_serial(), 3u);
}

TEST_F(CoreFixture, TokenIsForwardedToNextAfterUse) {
  ArvyCore node = make_node(2, 6, false, arrow.get());
  FindMessage own;
  (void)node.request_token(1, own);
  // A find by node 9 terminates here first.
  FindMessage find = find_by(9, {9, 5}, 2);
  (void)node.on_find(find);
  ASSERT_EQ(node.next(), std::optional<NodeId>{9});
  const Effects effects = node.on_token(TokenMessage{3});
  EXPECT_EQ(effects.satisfied, std::optional<RequestId>{1});
  ASSERT_EQ(effects.send, Effects::Send::kToken);
  EXPECT_EQ(effects.to, 9u);
  EXPECT_EQ(effects.token_serial, 4u);  // serial increments per transfer
  EXPECT_FALSE(node.holds_token());
  EXPECT_FALSE(node.next().has_value());
}

TEST_F(CoreFixture, OnMessageDispatchesOnAlternative) {
  ArvyCore node = make_node(2, 6, false, arrow.get());
  FindMessage own;
  (void)node.request_token(1, own);
  Message token{TokenMessage{0}};
  const Effects effects = node.on_message(token);
  EXPECT_TRUE(effects.satisfied.has_value());
}

TEST_F(CoreFixture, ForwardedFindKeepsTheCallersBuffer) {
  // Lines 8-9 in place: the find is re-addressed in the storage it arrived
  // in, gaining exactly one visited entry and no new buffer.
  ArvyCore node = make_node(3, 4, false, ivy.get());
  FindMessage find = find_by(1, {1, 2}, 5);
  find.visited.reserve(8);
  const NodeId* buffer = find.visited.data();
  const Effects effects = node.on_find(find);
  ASSERT_EQ(effects.send, Effects::Send::kFind);
  EXPECT_EQ(find.visited.data(), buffer);
  EXPECT_EQ(find.visited, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(find.sender, 3u);
  EXPECT_EQ(find.producer, 1u);
  EXPECT_EQ(find.request, 5u);
}

TEST_F(CoreFixture, FindStoppingAtSelfLoopComesBackUnchanged) {
  ArvyCore node = make_node(3, 5, false, arrow.get());
  FindMessage own;
  (void)node.request_token(9, own);
  FindMessage find = find_by(1, {1, 2}, 4, /*bridge_flag=*/true);
  const FindMessage before = find;
  const Effects effects = node.on_find(find);
  EXPECT_EQ(effects.send, Effects::Send::kNone);
  EXPECT_EQ(find.producer, before.producer);
  EXPECT_EQ(find.sender, before.sender);
  EXPECT_EQ(find.visited, before.visited);
  EXPECT_EQ(find.sender_edge_was_bridge, before.sender_edge_was_bridge);
  EXPECT_EQ(find.request, before.request);
}

using CoreDeath = CoreFixture;

TEST_F(CoreDeath, RequestWhileHoldingTokenAborts) {
  ArvyCore root = make_node(0, 0, true, arrow.get());
  FindMessage find;
  EXPECT_DEATH((void)root.request_token(1, find), "holding the token");
}

TEST_F(CoreDeath, DuplicateOutstandingRequestAborts) {
  ArvyCore node = make_node(1, 0, false, arrow.get());
  FindMessage find;
  (void)node.request_token(1, find);
  EXPECT_DEATH((void)node.request_token(2, find), "duplicate outstanding");
}

TEST_F(CoreDeath, TokenWithoutOutstandingRequestAborts) {
  ArvyCore node = make_node(1, 0, false, arrow.get());
  EXPECT_DEATH((void)node.on_token(TokenMessage{1}), "no outstanding");
}

TEST_F(CoreDeath, RevisitingFindAborts) {
  ArvyCore node = make_node(3, 4, false, arrow.get());
  FindMessage find = find_by(1, {1, 3, 2});
  EXPECT_DEATH((void)node.on_find(find), "revisited");
}

TEST_F(CoreDeath, MalformedVisitedOrderAborts) {
  ArvyCore node = make_node(3, 4, false, arrow.get());
  FindMessage bad = find_by(1, {1, 2});
  bad.sender = 1;  // violates visited.back() == sender
  EXPECT_DEATH((void)node.on_find(bad), "visited");
}

TEST_F(CoreDeath, InitializeTwiceAborts) {
  ArvyCore node = make_node(0, 1, false, arrow.get());
  EXPECT_DEATH(node.initialize(1, false, false), "initialized");
}

TEST_F(CoreDeath, RootMustHoldToken) {
  ArvyCore core(0, cells[0].slots(), arrow.get(), nullptr, nullptr);
  EXPECT_DEATH(core.initialize(0, false, false), "parent == id_");
}

}  // namespace
