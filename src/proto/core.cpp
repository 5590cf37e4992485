#include "proto/core.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/hot.hpp"

namespace arvy::proto {

ArvyCore::ArvyCore(NodeId id, NodeSlots slots, NewParentPolicy* policy,
                   const graph::DistanceOracle* distances, support::Rng* rng)
    : id_(id),
      parent_(slots.parent),
      bridges_(slots.bridges),
      policy_(policy),
      distances_(distances),
      rng_(rng) {
  ARVY_EXPECTS(slots.parent != nullptr && slots.bridges != nullptr);
  ARVY_EXPECTS(policy != nullptr);
}

void ArvyCore::initialize(NodeId parent, bool holds_token,
                          bool parent_edge_is_bridge) {
  ARVY_EXPECTS(!initialized_);
  // The root points to itself and holds the token; everyone else points
  // strictly towards the root (tree shape is validated by the engine).
  ARVY_EXPECTS((parent == id_) == holds_token);
  set_parent(parent, parent_edge_is_bridge);
  holds_token_ = holds_token;
  next_.reset();
  outstanding_.reset();
  initialized_ = true;
}

ARVY_HOT void ArvyCore::reset_burst(bool holds_token) noexcept {
  ARVY_ASSERT_MSG(!holds_token || has_self_loop(),
                  "the token must be seated on the row's self-loop");
  holds_token_ = holds_token;
  next_.reset();
  outstanding_.reset();
  token_serial_ = 0;
}

Effects ArvyCore::request_token(RequestId request, FindMessage& find) {
  ARVY_EXPECTS(initialized_);
  ARVY_EXPECTS_MSG(!holds_token_, "requesting while holding the token");
  ARVY_EXPECTS_MSG(!outstanding_.has_value(),
                   "duplicate outstanding request (model violation)");
  // p(v) == v without the token means a request is already in flight, which
  // the precondition above excludes.
  ARVY_ASSERT(!has_self_loop());

  find.producer = id_;
  find.sender = id_;
  find.visited.clear();
  find.visited.push_back(id_);
  find.request = request;
  // Algorithm 2 plumbing: the message records whether the edge it traverses
  // (v, old p(v)) was the bridge; the requester's fresh self-loop is not.
  find.sender_edge_was_bridge = parent_edge_is_bridge();
  Effects effects;
  effects.send = Effects::Send::kFind;
  effects.to = parent();

  set_parent(id_, false);  // line 3
  outstanding_ = request;
  return effects;
}

Effects ArvyCore::on_message(Message& message) {
  if (auto* find = std::get_if<FindMessage>(&message)) return on_find(*find);
  return on_token(std::get<TokenMessage>(message));
}

Effects ArvyCore::on_find(FindMessage& find) {
  ARVY_EXPECTS(initialized_);
  ARVY_EXPECTS(!find.visited.empty());
  ARVY_EXPECTS(find.visited.front() == find.producer);
  ARVY_EXPECTS(find.visited.back() == find.sender);
  // Theorem 4: a find visits each node at most once; receiving one's own
  // find back would violate Lemma 2's source-component invariant.
  ARVY_ASSERT_MSG(std::find(find.visited.begin(), find.visited.end(), id_) ==
                      find.visited.end(),
                  "find message revisited a node");

  const NodeId old_parent = parent();  // line 6: f <- p(w)
  const bool old_bridge = parent_edge_is_bridge();

  PolicyContext ctx;
  ctx.receiver = id_;
  ctx.sender = find.sender;
  ctx.producer = find.producer;
  ctx.visited = find.visited;
  ctx.sender_edge_was_bridge = find.sender_edge_was_bridge;
  ctx.receiver_has_self_loop = old_parent == id_;
  ctx.distances = distances_;
  ctx.rng = rng_;
  const PolicyDecision decision = policy_->choose(ctx);  // line 7
  ARVY_ASSERT_MSG(std::find(find.visited.begin(), find.visited.end(),
                            decision.new_parent) != find.visited.end(),
                  "policy returned a node outside the visited set");
  set_parent(decision.new_parent, decision.new_edge_is_bridge);

  if (old_parent != id_) {  // lines 8-9: forward towards the old parent
    find.sender = id_;
    find.visited.push_back(id_);
    find.sender_edge_was_bridge = old_bridge;
    Effects effects;
    effects.send = Effects::Send::kFind;
    effects.to = old_parent;
    return effects;
  }
  // Lines 10-14: the find stops here. Lemma 3's state machine: {L, N} is
  // unreachable, so the next pointer must be free when a find terminates at
  // a self-loop node.
  ARVY_ASSERT_MSG(!next_.has_value(), "next pointer already occupied");
  next_ = find.producer;  // line 11
  if (holds_token_ && auto_send_token_) {
    return send_token_if_waiting();  // line 13
  }
  return {};
}

Effects ArvyCore::on_token(const TokenMessage& token) {
  ARVY_EXPECTS(initialized_);
  ARVY_ASSERT_MSG(!holds_token_, "duplicate token");
  ARVY_ASSERT_MSG(outstanding_.has_value(),
                  "token arrived at a node with no outstanding request");
  holds_token_ = true;
  token_serial_ = token.serial;

  const std::optional<RequestId> satisfied = outstanding_;  // line 21
  outstanding_.reset();
  Effects effects = send_token_if_waiting();  // line 22
  effects.satisfied = satisfied;
  return effects;
}

Effects ArvyCore::flush_token() {
  ARVY_EXPECTS_MSG(holds_token_, "flush_token on a node without the token");
  return send_token_if_waiting();
}

Effects ArvyCore::send_token_if_waiting() {
  ARVY_ASSERT(holds_token_);
  Effects effects;
  if (!next_.has_value()) return effects;  // line 25: keep the token
  effects.send = Effects::Send::kToken;
  effects.to = *next_;
  effects.token_serial = token_serial_ + 1;  // line 26
  next_.reset();                             // line 27
  holds_token_ = false;
  return effects;
}

}  // namespace arvy::proto
