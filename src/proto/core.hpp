// The Arvy protocol state machine (Algorithm 1), transport-agnostic.
//
// ArvyCore runs one node's side of Algorithm 1 and turns each of the paper's
// four event kinds (request token, receive message, receive token, send
// token) into at most one outgoing message. It performs no I/O and owns no
// message storage: a find is written into, or re-addressed in, a
// FindMessage the transport passes in, so no event builds a container and
// no hop copies a history (a find's history grows by one entry per hop,
// which allocates only when the caller's buffer is full). The discrete-event
// engine (proto/engine.hpp) and the threaded runtime (runtime/) both drive
// the same core, so correctness results carry across transports.
//
// A node's state is split by lifetime. The persistent part - the parent
// pointer p(v) and the ring-bridge flag - is what a parked object keeps
// between bursts, and it lives in storage the transport owns (NodeSlots):
// SimEngine points every core into its two columns, ActorSystem into each
// actor's own NodeCell. The per-burst part - the next pointer n(v), the
// outstanding request, token possession and serial - lives in the core and
// is empty at a resumable park except for the token at the root.
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>

#include "proto/messages.hpp"
#include "proto/policy.hpp"

namespace arvy::proto {

// The externally visible result of one protocol event: Algorithm 1 sends at
// most one message per event. A find's content is the FindMessage the event
// was handed (request_token writes it, on_find re-addresses it in place); a
// token carries only its serial.
struct Effects {
  enum class Send : std::uint8_t { kNone, kFind, kToken };
  Send send = Send::kNone;
  NodeId to = graph::kInvalidNode;
  std::uint64_t token_serial = 0;  // kToken only
  // Set when the token arrived here and satisfied this node's request.
  std::optional<RequestId> satisfied;
};

static_assert(std::is_trivially_copyable_v<Effects>,
              "an event's result is a flat record, never a container");

// Where one node's persistent state lives: its parent word and the 64-bit
// word holding its bridge flag at bit v % 64. The transport owns both words
// and they must outlive the core.
struct NodeSlots {
  NodeId* parent = nullptr;
  std::uint64_t* bridges = nullptr;
};

// Persistent state of a core that is not part of an engine's columns (an
// ActorSystem actor, a unit test).
struct NodeCell {
  NodeId parent = graph::kInvalidNode;
  std::uint64_t bridges = 0;

  [[nodiscard]] NodeSlots slots() noexcept { return {&parent, &bridges}; }
};

class ArvyCore {
 public:
  // `policy` and (optionally) `distances`/`rng` must outlive the core; all
  // nodes of one directory instance share them. The core reads and writes
  // p(v) and the bridge flag through `slots` only.
  ArvyCore(NodeId id, NodeSlots slots, NewParentPolicy* policy,
           const graph::DistanceOracle* distances, support::Rng* rng);

  // Installs the initial configuration: parent pointers forming a rooted
  // tree, the token at the root (parent == id), bridge flag per Algorithm 2.
  void initialize(NodeId parent, bool holds_token, bool parent_edge_is_bridge);

  // Starts a new burst on whatever persistent state the slots now hold (the
  // sharded DirectoryService adopts another object's row under the core):
  // clears the next pointer and the outstanding request, and seats the token
  // with serial 0 iff `holds_token`. O(1); the caller validated the tree, and
  // a seated token must sit on the row's self-loop.
  void reset_burst(bool holds_token) noexcept;

  // Lines 1-4: RequestToken. Writes the new find into `find`, reusing its
  // buffer (one visited entry), and returns the send to the old parent.
  // Precondition: the node neither holds the token nor has an outstanding
  // request (the model's one-outstanding rule; the engine queues duplicates
  // instead, see SimEngine).
  [[nodiscard]] Effects request_token(RequestId request, FindMessage& find);

  // Lines 5-16: a forwarded find is re-addressed in place - this node
  // becomes its sender and gains one visited entry - and sent to the old
  // parent; a find that stops here is left unchanged.
  [[nodiscard]] Effects on_find(FindMessage& find);
  // Lines 20-23.
  [[nodiscard]] Effects on_token(const TokenMessage& token);
  // Dispatches on the message alternative (a find is handled in place).
  [[nodiscard]] Effects on_message(Message& message);

  // The paper's event model (§5) treats "send token" as its own event that
  // may occur any time after the enabling receive; Algorithm 1's pseudocode
  // calls SendToken inline. The core does the latter by default; scripted
  // replays (the Figure 1 trace) disable auto-send and trigger the event
  // explicitly via flush_token. Only the find-at-holder path is deferrable;
  // a received token still forwards inline.
  void set_auto_send_token(bool enabled) noexcept {
    auto_send_token_ = enabled;
  }
  // The standalone SendToken event. Precondition: this node holds the token.
  [[nodiscard]] Effects flush_token();

  // Observers (used by the invariant checker and the space audit).
  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] NodeId parent() const noexcept { return *parent_; }
  [[nodiscard]] bool has_self_loop() const noexcept { return *parent_ == id_; }
  [[nodiscard]] std::optional<NodeId> next() const noexcept { return next_; }
  [[nodiscard]] bool holds_token() const noexcept { return holds_token_; }
  [[nodiscard]] bool parent_edge_is_bridge() const noexcept {
    return (*bridges_ & bridge_bit()) != 0;
  }
  [[nodiscard]] std::optional<RequestId> outstanding() const noexcept {
    return outstanding_;
  }
  [[nodiscard]] std::uint64_t token_serial() const noexcept {
    return token_serial_;
  }
  [[nodiscard]] const NewParentPolicy& policy() const noexcept {
    return *policy_;
  }

 private:
  // Lines 24-29: SendToken.
  [[nodiscard]] Effects send_token_if_waiting();

  [[nodiscard]] std::uint64_t bridge_bit() const noexcept {
    return std::uint64_t{1} << (id_ % 64);
  }
  void set_parent(NodeId parent, bool edge_is_bridge) noexcept {
    *parent_ = parent;
    *bridges_ = edge_is_bridge ? *bridges_ | bridge_bit()
                               : *bridges_ & ~bridge_bit();
  }

  NodeId id_;
  NodeId* parent_;
  std::uint64_t* bridges_;
  NewParentPolicy* policy_;
  const graph::DistanceOracle* distances_;
  support::Rng* rng_;

  std::optional<NodeId> next_;
  std::optional<RequestId> outstanding_;
  std::uint64_t token_serial_ = 0;
  bool holds_token_ = false;
  bool initialized_ = false;
  bool auto_send_token_ = true;
};

}  // namespace arvy::proto
