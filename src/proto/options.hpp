// The one composable options surface for every directory facade.
//
// Directory (sim), LiveDirectory (threaded), DirectoryService (sharded
// multi-object) and runtime::ActorSystem all accept the same `arvy::Options`
// aggregate; each reads the fields meaningful for its transport and ignores
// the rest. There are no per-facade option types.
//
// Field guide (all designated-init friendly; order matters for designated
// initializers, so the protocol fields come first and the threaded
// transport knobs after them):
//   .policy      NewParent policy (Arrow, Ivy, ring bridge, ...).
//   .discipline  sim-only: delivery order (timed / fifo / lifo / random).
//   .seed        master seed for delivery, policy tie-breaks and faults.
//   .delay       sim-only: DelayModel for Discipline::kTimed (cloned;
//                default distance-proportional). Shared_ptr so options stay
//                copyable: `.delay = arvy::sim::make_uniform_delay(1, 5)`.
//   .faults      declarative fault schedule (faults/fault_plan.hpp); the
//                default empty plan is a strict no-op.
//   .retry       retransmission policy re-driving dropped messages.
//   .initial     initial tree; when unset the directory builds a
//                shortest-path tree from the metrically central node, and
//                for PolicyKind::kBridge on canonical rings the Algorithm 2
//                split is used.
//   .record_schedule  sim-only: record the delivery order for goldens and
//                kScripted replay (read via inspect().bus().schedule()).
//   .max_jitter  threaded-only: random sender-side sleep in [0, max_jitter]
//                per message; 0 disables.
//   .reorder_mailboxes  threaded-only: consume each drained ring batch in
//                random order (full asynchrony).
//   .workers     threaded-only: worker threads the node actors are
//                partitioned across; defaults to the usable CPUs - 1 (at
//                least 1), which leaves the caller a CPU, and is clamped to
//                the node count (0 is rejected). 1 = sequential and
//                deterministic for a fixed submission order. Waits poll
//                briefly before they park only when the pool (min(workers,
//                node count)) and the caller fit the usable CPUs, faults
//                on or off. DirectoryService ignores this: its worker
//                count IS its shard count, and its waits never poll.
//   .batch_size  threaded-only: max ring slots drained per visit.
//   .ring_capacity  threaded-only: ring slots per mailbox (rounded up to a
//                power of two).
//   .fault_time_unit  threaded-only: wall-time length of one sim-time unit
//                for the fault schedule.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>

#include "faults/fault_plan.hpp"
#include "proto/init.hpp"
#include "proto/policies.hpp"
#include "sim/delivery.hpp"
#include "support/cpus.hpp"

namespace arvy {

struct Options {
  // --- protocol (every facade) ---------------------------------------------
  proto::PolicyKind policy = proto::PolicyKind::kIvy;
  sim::Discipline discipline = sim::Discipline::kTimed;
  std::uint64_t seed = 1;
  // Shared so Options stays copyable; cloned into each engine.
  std::shared_ptr<sim::DelayModel> delay;
  faults::FaultPlan faults;
  faults::RetryPolicy retry;
  std::optional<proto::InitialConfig> initial;
  bool record_schedule = false;
  // --- threaded transport (LiveDirectory / DirectoryService kLive) ---------
  std::chrono::microseconds max_jitter{0};
  bool reorder_mailboxes = false;
  std::size_t workers = std::max<std::size_t>(1, support::usable_cpus() - 1);
  std::size_t batch_size = 16;
  std::size_t ring_capacity = 256;
  std::chrono::microseconds fault_time_unit{200};
};

}  // namespace arvy
