// Message delivery disciplines and delay models.
//
// The paper's only assumption about the network (§3) is that every message
// is eventually delivered; delays are otherwise arbitrary. The fuzzing
// experiments (E7) therefore exercise several adversarial disciplines, while
// the performance experiments use the distance-proportional model, which is
// the natural reading of "routing follows shortest paths".
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <type_traits>

#include "graph/graph.hpp"
#include "sim/time.hpp"
#include "support/rng.hpp"

namespace arvy::sim {

// How the bus picks the next in-flight message to deliver.
enum class Discipline {
  kTimed,     // by deliver_at = send time + DelayModel(...), ties by send order
  kFifo,      // global send order (a "nice" network)
  kLifo,      // newest first (maximal overtaking)
  kRandom,    // uniformly random pending message (the classic async adversary)
  kScripted,  // replay a recorded delivery schedule exactly
};

[[nodiscard]] std::string_view discipline_name(Discipline d) noexcept;

// A recorded delivery schedule: message ids in delivery order. Message ids
// are assigned deterministically by send order, so a schedule recorded from
// one run replays against any other run of the same deterministic program.
using Schedule = std::vector<std::uint64_t>;

// The fate of one logical send: what a MessageBus send filter, and the
// fault injector behind it on either transport, decides.
struct SendVerdict {
  bool lost = false;             // permanently lost: never enqueued
  Time extra_delay = 0.0;        // added to the delivery delay (kTimed only)
  std::uint32_t duplicates = 0;  // extra copies sharing a dedup group
};

// Message-POD discipline (lint `msgpod`): the verdict crosses the send
// seam by value on every filtered send.
static_assert(std::is_trivially_copyable_v<SendVerdict>);

// Latency assigned to a message under Discipline::kTimed.
class DelayModel {
 public:
  virtual ~DelayModel() = default;
  [[nodiscard]] virtual Time delay(graph::NodeId from, graph::NodeId to,
                                   double distance, support::Rng& rng) = 0;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual std::unique_ptr<DelayModel> clone() const = 0;
};

// delay = distance * seconds_per_unit: messages travel at constant speed
// along their shortest path.
[[nodiscard]] std::unique_ptr<DelayModel> make_distance_delay(
    double seconds_per_unit = 1.0);

// Constant latency regardless of distance.
[[nodiscard]] std::unique_ptr<DelayModel> make_constant_delay(Time latency);

// Uniform latency in [lo, hi): bounded but arbitrary reordering.
[[nodiscard]] std::unique_ptr<DelayModel> make_uniform_delay(Time lo, Time hi);

// Exponential latency with the given mean: unbounded reordering (heavy tail).
[[nodiscard]] std::unique_ptr<DelayModel> make_exponential_delay(Time mean);

}  // namespace arvy::sim
