// Protocol messages of Algorithm 1.
//
// Arvy uses exactly two message types: "find by v" and "token". The find
// message carries its visited history so that arbitrary NewParent policies
// can be expressed ("return v OR any node that had received and forwarded
// v's current find message", Algorithm 1 line 18). Concrete policies declare
// how much of that history a real deployment would need (see
// NewParentPolicy::message_words) - Arrow, Ivy and the ring bridge all need
// O(1) fields; only exotic policies need the full path.
#pragma once

#include <cstdint>
#include <type_traits>
#include <variant>
#include <vector>

#include "graph/graph.hpp"

namespace arvy::proto {

using graph::NodeId;
using RequestId = std::uint64_t;

// The documented exception to the message-POD discipline (lint `msgpod`):
// the visited history is unbounded (one entry per hop, worst case the whole
// graph), so the in-simulator type carries a vector. The flat wire encoding
// (proto/wire.hpp) is the POD face of this message - a WireHeader plus a
// trailing NodeId array - and is what roadmap item 2's transports move.
// ARVY-LINT-ALLOW(msgpod): visited is unbounded; wire.hpp carries it flat
struct FindMessage {
  // The node whose request this is ("find by v").
  NodeId producer = graph::kInvalidNode;
  // The node that sent this hop (the producer for the first hop).
  NodeId sender = graph::kInvalidNode;
  // Nodes that have received and forwarded this find, in order, starting
  // with the producer. Invariant: visited.back() == sender.
  std::vector<NodeId> visited;
  // Whether the parent edge this hop traversed was the ring bridge
  // (Algorithm 2 plumbing; meaningless under other policies).
  bool sender_edge_was_bridge = false;
  // Engine-assigned id of the request, for satisfaction accounting.
  RequestId request = 0;
};

struct TokenMessage {
  // Monotone counter of token transfers, for tracing and sanity checks.
  std::uint64_t serial = 0;
};

// Message-POD discipline (lint `msgpod`): bus/transport message types stay
// trivially copyable so the flat wire encoding can memcpy them. FindMessage
// is the single annotated exception above; its POD face is wire::WireHeader.
static_assert(std::is_trivially_copyable_v<TokenMessage>);
static_assert(std::is_nothrow_move_constructible_v<FindMessage> &&
                  std::is_nothrow_move_assignable_v<FindMessage>,
              "FindMessage moves must stay cheap: the bus arena moves "
              "payloads, never copies them");

using Message = std::variant<FindMessage, TokenMessage>;

[[nodiscard]] inline bool is_find(const Message& m) noexcept {
  return std::holds_alternative<FindMessage>(m);
}

}  // namespace arvy::proto
