// Flat POD wire encoding for protocol messages: the ring envelope.
//
// A message crosses an actor's ring mailbox as one contiguous frame - a
// trivially copyable EnvelopeHeader (the fault layer's dedup word plus the
// WireHeader frame prefix) followed by `visited_count` raw NodeIds - so the
// runtime copies bytes instead of chasing a variant that owns a heap vector.
// This is the only wire codec: the encoders write straight into a
// preallocated slot, and the decoder returns a view whose visited span
// aliases the slot; all of them are ARVY_HOT, so arvy_lint rejects any
// allocation, lock, throw or log in them. The msgpod lint rule plus the
// static_asserts below keep every struct in this header POD, which is what
// makes the memcpy legal.
//
// Scope: in-memory layout for same-architecture endpoints. Fields are
// fixed-width and the encoders write the header by memcpy, so the only
// portability caveat is endianness, deliberately out of scope until a
// cross-machine transport exists.
//
// Round-trip contract (pinned by tests/test_wire.cpp): decode_envelope of
// an encoded find, token or request reproduces every field, including the
// bridge flag and the full visited history.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

#include "proto/messages.hpp"
#include "support/assert.hpp"
#include "support/hot.hpp"

namespace arvy::proto::wire {

// Discriminates the frame payload; a byte so the header stays dense.
// kRequest is runtime-only: an external submitter injecting "node, request
// the token" into an actor's ring, with no protocol payload of its own.
enum class Kind : std::uint8_t { kFind = 0, kToken = 1, kRequest = 2 };

// Flag bits (WireHeader::flags).
inline constexpr std::uint8_t kFlagSenderEdgeWasBridge = 0x1;

// The fixed-size frame prefix. A find frame is followed by visited_count
// NodeIds (the visited history in hop order); a token frame by nothing.
struct WireHeader {
  std::uint8_t kind = 0;           // wire::Kind
  std::uint8_t flags = 0;          // kFlag* bits; finds only
  std::uint16_t visited_count = 0;  // trailing NodeIds; finds only
  NodeId producer = graph::kInvalidNode;  // finds only
  NodeId sender = graph::kInvalidNode;    // finds only
  RequestId request = 0;                  // finds only
  std::uint64_t token_serial = 0;         // tokens only
};

static_assert(std::is_trivially_copyable_v<WireHeader>);
static_assert(std::is_trivially_copyable_v<NodeId>);
static_assert(sizeof(WireHeader) == 32,
              "keep the frame prefix dense: two cache lines of visited "
              "NodeIds fit a 160-byte frame");

// Slot frame prefix. dedup is the fault injector's duplicate-collapse id
// (0 = not a tracked duplicate), carried out-of-band of the protocol frame.
struct EnvelopeHeader {
  std::uint64_t dedup = 0;
  WireHeader frame;
};

static_assert(std::is_trivially_copyable_v<EnvelopeHeader>);
static_assert(sizeof(EnvelopeHeader) == 40,
              "dedup word plus the 32-byte wire frame prefix");

// Decoded, non-owning read of one envelope. `visited` aliases the slot the
// envelope was decoded from: valid only until the ring recycles that slot
// (i.e. within the consumer's current batch).
struct EnvelopeView {
  Kind kind = Kind::kRequest;
  std::uint64_t dedup = 0;
  RequestId request = 0;       // kRequest, kFind
  NodeId producer = graph::kInvalidNode;  // kFind
  NodeId sender = graph::kInvalidNode;    // kFind
  bool sender_edge_was_bridge = false;    // kFind
  std::uint64_t token_serial = 0;         // kToken
  std::span<const NodeId> visited;        // kFind
};

static_assert(std::is_trivially_copyable_v<EnvelopeView>);

// Bytes one envelope occupies for a find with `visited_count` entries
// (tokens and requests carry no trailer, so this is also the upper bound
// used to size ring slots: envelope_bytes(max visited) = node count).
[[nodiscard]] constexpr std::size_t envelope_bytes(
    std::size_t visited_count) noexcept {
  return sizeof(EnvelopeHeader) + visited_count * sizeof(NodeId);
}

// Writes the envelope for `find` into `out` (a ring slot of at least
// envelope_bytes(find.visited.size()) bytes). Returns bytes written.
// Precondition: the visited history fits the 16-bit count (65535 hops -
// orders of magnitude above any graph this repo runs; the paper bounds
// visited by one entry per node).
ARVY_HOT inline std::size_t encode_find_envelope(const FindMessage& find,
                                                 std::uint64_t dedup,
                                                 std::byte* out) {
  ARVY_EXPECTS_MSG(find.visited.size() <= 0xffff,
                   "visited history exceeds the wire count field");
  EnvelopeHeader header;
  header.dedup = dedup;
  header.frame.kind = static_cast<std::uint8_t>(Kind::kFind);
  if (find.sender_edge_was_bridge) {
    header.frame.flags |= kFlagSenderEdgeWasBridge;
  }
  header.frame.visited_count = static_cast<std::uint16_t>(find.visited.size());
  header.frame.producer = find.producer;
  header.frame.sender = find.sender;
  header.frame.request = find.request;
  std::memcpy(out, &header, sizeof(EnvelopeHeader));
  if (!find.visited.empty()) {
    std::memcpy(out + sizeof(EnvelopeHeader), find.visited.data(),
                find.visited.size() * sizeof(NodeId));
  }
  return envelope_bytes(find.visited.size());
}

// Writes a token envelope into `out`. Returns bytes written (always
// sizeof(EnvelopeHeader)).
ARVY_HOT inline std::size_t encode_token_envelope(std::uint64_t serial,
                                                  std::uint64_t dedup,
                                                  std::byte* out) {
  EnvelopeHeader header;
  header.dedup = dedup;
  header.frame.kind = static_cast<std::uint8_t>(Kind::kToken);
  header.frame.token_serial = serial;
  std::memcpy(out, &header, sizeof(EnvelopeHeader));
  return sizeof(EnvelopeHeader);
}

// Writes a kRequest envelope ("this actor requests the token for `request`")
// into `out`. Returns bytes written (always sizeof(EnvelopeHeader)).
ARVY_HOT inline std::size_t encode_request_envelope(RequestId request,
                                                    std::byte* out) {
  EnvelopeHeader header;
  header.frame.kind = static_cast<std::uint8_t>(Kind::kRequest);
  header.frame.request = request;
  std::memcpy(out, &header, sizeof(EnvelopeHeader));
  return sizeof(EnvelopeHeader);
}

// Reads the envelope in `slot` without copying the trailer: the returned
// view's visited span points into `slot` (slots are 8-byte aligned and the
// 40-byte header keeps the trailer NodeId-aligned).
ARVY_HOT [[nodiscard]] inline EnvelopeView decode_envelope(
    const std::byte* slot) {
  EnvelopeHeader header;
  std::memcpy(&header, slot, sizeof(EnvelopeHeader));
  EnvelopeView view;
  view.dedup = header.dedup;
  if (header.frame.kind == static_cast<std::uint8_t>(Kind::kToken)) {
    view.kind = Kind::kToken;
    view.token_serial = header.frame.token_serial;
    return view;
  }
  if (header.frame.kind == static_cast<std::uint8_t>(Kind::kRequest)) {
    view.kind = Kind::kRequest;
    view.request = header.frame.request;
    return view;
  }
  ARVY_EXPECTS(header.frame.kind == static_cast<std::uint8_t>(Kind::kFind));
  view.kind = Kind::kFind;
  view.request = header.frame.request;
  view.producer = header.frame.producer;
  view.sender = header.frame.sender;
  view.sender_edge_was_bridge =
      (header.frame.flags & kFlagSenderEdgeWasBridge) != 0;
  view.visited = std::span<const NodeId>(
      reinterpret_cast<const NodeId*>(slot + sizeof(EnvelopeHeader)),
      static_cast<std::size_t>(header.frame.visited_count));
  return view;
}

}  // namespace arvy::proto::wire
