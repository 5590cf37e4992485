// Pins the ring envelope, the one wire codec (proto/wire.hpp): decoding an
// encoded find, token or request reproduces every field, the frame prefix
// stays dense and trivially copyable, and a find's history of any legal
// length survives the slot.
#include <gtest/gtest.h>

#include <cstddef>
#include <algorithm>
#include <numeric>
#include <type_traits>
#include <vector>

#include "proto/wire.hpp"

namespace arvy::proto {
namespace {

using wire::WireHeader;

// The whole point of the encoding: the prefix must stay memcpy-able POD
// with a pinned size, or every transport assumption downstream breaks.
static_assert(std::is_trivially_copyable_v<WireHeader>);
static_assert(std::is_trivially_default_constructible_v<WireHeader> ||
                  std::is_default_constructible_v<WireHeader>);
static_assert(sizeof(WireHeader) == 32);

FindMessage sample_find() {
  FindMessage find;
  find.producer = 7;
  find.sender = 3;
  find.visited = {7, 12, 5, 3};
  find.sender_edge_was_bridge = true;
  find.request = 0xfeed'f00d'dead'beefULL;
  return find;
}

// Encodes `find` into an aligned slot sized exactly by envelope_bytes, as
// the runtime sizes its slabs, and checks the view field by field.
void expect_round_trip(const FindMessage& find, std::uint64_t dedup) {
  std::vector<std::uint64_t> words(
      (wire::envelope_bytes(find.visited.size()) + 7) / 8);
  auto* slot = reinterpret_cast<std::byte*>(words.data());
  EXPECT_EQ(wire::encode_find_envelope(find, dedup, slot),
            wire::envelope_bytes(find.visited.size()));

  const wire::EnvelopeView view = wire::decode_envelope(slot);
  EXPECT_EQ(view.kind, wire::Kind::kFind);
  EXPECT_EQ(view.dedup, dedup);
  EXPECT_EQ(view.producer, find.producer);
  EXPECT_EQ(view.sender, find.sender);
  EXPECT_EQ(view.request, find.request);
  EXPECT_EQ(view.sender_edge_was_bridge, find.sender_edge_was_bridge);
  // The view aliases the slot: same values, zero copies.
  EXPECT_TRUE(std::equal(view.visited.begin(), view.visited.end(),
                         find.visited.begin(), find.visited.end()));
}

// --- ring envelopes ---------------------------------------------------------

static_assert(std::is_trivially_copyable_v<wire::EnvelopeHeader>);
static_assert(sizeof(wire::EnvelopeHeader) == 40);
static_assert(std::is_trivially_copyable_v<wire::EnvelopeView>);

TEST(WireEnvelope, FindRoundTripsThroughASlot) {
  expect_round_trip(sample_find(), /*dedup=*/0x1234);
}

TEST(WireEnvelope, OneEntryHistoryRoundTrips) {
  // A fresh request's find: the producer alone, one trailer word.
  FindMessage find;
  find.producer = 1;
  find.sender = 1;
  find.visited = {1};
  find.request = 42;
  expect_round_trip(find, /*dedup=*/0);
}

TEST(WireEnvelope, LongHistorySurvives) {
  // One entry per node on a big graph - the realistic worst case the
  // 16-bit count field must dwarf.
  FindMessage find;
  find.producer = 0;
  find.visited.resize(4096);
  std::iota(find.visited.begin(), find.visited.end(), NodeId{0});
  find.sender = find.visited.back();
  find.request = 1;
  expect_round_trip(find, /*dedup=*/7);
}

TEST(WireEnvelope, TokenRoundTripsThroughASlot) {
  alignas(8) std::byte slot[wire::envelope_bytes(0)] = {};
  EXPECT_EQ(wire::encode_token_envelope(77, /*dedup=*/0, slot),
            sizeof(wire::EnvelopeHeader));
  const wire::EnvelopeView view = wire::decode_envelope(slot);
  EXPECT_EQ(view.kind, wire::Kind::kToken);
  EXPECT_EQ(view.dedup, 0u);
  EXPECT_EQ(view.token_serial, 77u);
  EXPECT_TRUE(view.visited.empty());
}

TEST(WireEnvelope, RequestKindCarriesOnlyTheId) {
  alignas(8) std::byte slot[wire::envelope_bytes(0)] = {};
  EXPECT_EQ(wire::encode_request_envelope(0xabcdef01u, slot),
            sizeof(wire::EnvelopeHeader));
  const wire::EnvelopeView view = wire::decode_envelope(slot);
  EXPECT_EQ(view.kind, wire::Kind::kRequest);
  EXPECT_EQ(view.request, 0xabcdef01u);
  EXPECT_EQ(view.dedup, 0u);
  EXPECT_TRUE(view.visited.empty());
}

}  // namespace
}  // namespace arvy::proto
