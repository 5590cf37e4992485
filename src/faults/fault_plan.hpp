// Declarative fault schedules for the directory protocols.
//
// The paper's only network assumption (§3) is that every message is
// eventually delivered. A FaultPlan declares exactly how a run is allowed to
// violate that assumption - per-transmission drop probabilities, duplication,
// reorder spikes, link latency storms, node ingress pauses and token-holder
// stalls - and a RetryPolicy declares how the transport wins liveness back
// (capped exponential-backoff retransmission, the standard ARQ recovery).
// Both are plain aggregates so arvy::Options can designated-initialize
// them: `{.faults = {.drop_find = 0.1}, .retry = {.rto = 4.0}}`.
//
// The layer sits below proto on purpose: it knows message *kinds*, not
// protocol messages, so both the discrete-event bus and the threaded mailbox
// path consume the same plans.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sim/time.hpp"

namespace arvy::faults {

using graph::NodeId;

// What the injector needs to know about a message; the transport classifies.
enum class MessageKind { kFind, kToken };

// During [at, at + duration) every message's latency is multiplied by
// `factor` (modelled as extra distance-proportional delay; only observable
// under the timed discipline / the threaded runtime).
struct LatencyStorm {
  sim::Time at = 0.0;
  sim::Time duration = 0.0;
  double factor = 4.0;

  friend bool operator==(const LatencyStorm&, const LatencyStorm&) = default;
};

// During [at, at + duration) node `node` accepts no deliveries: messages
// sent to it are deferred until the window closes (an ingress pause - the
// crash-recovery shape where a node is unresponsive but loses no state).
struct PauseWindow {
  NodeId node = graph::kInvalidNode;
  sim::Time at = 0.0;
  sim::Time duration = 0.0;

  friend bool operator==(const PauseWindow&, const PauseWindow&) = default;
};

// During [at, at + duration) token messages stall: whoever holds the token
// sits on it until the window closes (the paper's SendToken event being
// arbitrarily delayed, pushed to the extreme).
struct HolderStall {
  sim::Time at = 0.0;
  sim::Time duration = 0.0;

  friend bool operator==(const HolderStall&, const HolderStall&) = default;
};

// The declarative fault schedule. Default-constructed == "no faults", and a
// no-fault plan is a *strict no-op*: transports must not even consult the
// injector, so schedules stay bit-identical (see test_golden_schedule).
struct FaultPlan {
  // Per-transmission drop probability by message kind.
  double drop_find = 0.0;
  double drop_token = 0.0;
  // Probability that a message is duplicated in flight (one extra copy;
  // receivers dedupe, so the duplicate costs traffic but not correctness).
  double duplicate = 0.0;
  // Probability of a reorder spike: the message is held back by an extra
  // uniform delay in [0, reorder_spike), letting younger traffic overtake.
  double reorder = 0.0;
  sim::Time reorder_spike = 8.0;
  std::vector<LatencyStorm> storms;
  std::vector<PauseWindow> pauses;
  std::vector<HolderStall> stalls;
  // Seed of the injector's own RNG stream (never the transport's, so an
  // active injector does not perturb delivery-order draws).
  std::uint64_t seed = 1;
  // Shard scoping for the sharded DirectoryService: when non-empty, only the
  // listed shards see this plan (for_shard returns the empty no-op plan for
  // everyone else). Empty = every shard. Single-object transports ignore it.
  std::vector<std::uint32_t> shards;

  [[nodiscard]] bool empty() const noexcept;

  // The plan shard `shard` actually runs: the empty plan when the shard is
  // scoped out, otherwise this plan with `shards` cleared and the seed
  // decorrelated per shard (each shard engine owns an independent fault RNG
  // stream, mirroring MultiDirectory's per-object seed spreading).
  [[nodiscard]] FaultPlan for_shard(std::uint32_t shard) const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

// Retransmission policy: deadline-free capped exponential backoff. A dropped
// transmission is re-issued after `rto`, then rto*backoff, ... capped at
// `max_backoff`, giving up (permanent loss) after `max_attempts` total
// transmissions. Re-issues are idempotent: transports key them to the
// original send (finds carry their RequestId), and receivers suppress
// duplicates, so a retry can never double-apply a protocol event.
struct RetryPolicy {
  bool enabled = true;
  sim::Time rto = 4.0;       // initial retransmission timeout
  double backoff = 2.0;      // multiplier per attempt
  sim::Time max_backoff = 64.0;
  std::uint32_t max_attempts = 12;  // total transmissions incl. the first

  friend bool operator==(const RetryPolicy&, const RetryPolicy&) = default;
};

// Parses the CLI grammar: a comma-separated `key=value` list.
//   drop=P        drop_find = drop_token = P
//   dropfind=P / droptoken=P
//   dup=P         duplicate = P
//   reorder=P[:SPIKE]
//   storm=AT:DUR[:FACTOR]
//   pause=NODE:AT:DUR
//   stall=AT:DUR
//   seed=S
//   shards=A[:B:...]   scope the plan to the listed service shards
// Throws std::invalid_argument on malformed specs, naming the field: a
// number must be finite, a probability in [0, 1], a time, duration, spike or
// factor non-negative, and a node, seed or shard a decimal integer that fits
// its type. Node ids are not checked against a graph here; callers that know
// one (arvy_cli) do.
[[nodiscard]] FaultPlan parse_fault_plan(const std::string& spec);

// Parses the CLI grammar for --retry: `off`, or a comma-separated list of
//   backoff=Mx (e.g. 2x), rto=T, cap=T, attempts=N
[[nodiscard]] RetryPolicy parse_retry_policy(const std::string& spec);

}  // namespace arvy::faults
