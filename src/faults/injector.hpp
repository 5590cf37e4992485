// The fault injector: turns a FaultPlan + RetryPolicy into per-send verdicts.
//
// Transports consult the injector once per logical send and obey the
// verdict, a sim::SendVerdict (the bus send filter's own type): deliver
// (possibly with extra delay), enqueue duplicate copies, or treat the
// message as permanently lost. The retransmission chain is
// resolved at send time: "the first k transmissions were dropped, the
// (k+1)-th survives after the backoff sum" is statistically identical to
// timing out and re-sending each attempt, and it keeps the discrete-event
// schedule deterministic. A drop with retries left therefore shows up as a
// *delayed* delivery plus drop/retry counts; only an exhausted or disabled
// retry produces a permanent loss, which is exactly the case where Theorem 5
// is allowed to fail (see verify/fault_tolerant.hpp).
//
// The injector draws from its own RNG stream, never the transport's, so an
// active plan does not perturb delivery-order draws, and an empty plan must
// not be consulted at all (strict no-op; transports gate on active()).
#pragma once

#include <cstdint>
#include <type_traits>

#include "faults/fault_plan.hpp"
#include "sim/delivery.hpp"
#include "support/rng.hpp"

namespace arvy::faults {

// Eight counters, nothing that grows with the run: a stats() or
// fault_stats() copy costs the same after a million sends as after one.
struct FaultStats {
  std::uint64_t drops = 0;             // transmission attempts dropped
  std::uint64_t retries = 0;           // dropped attempts re-issued
  std::uint64_t duplicates = 0;        // extra copies put on the wire
  std::uint64_t permanent_losses = 0;  // sends no retry re-drives
  // Permanent losses split by kind: a lost find orphans its producer's
  // request (and any chain routed behind it), a lost token is catastrophic.
  // The relaxed verifier keys its excuses off these.
  std::uint64_t lost_finds = 0;
  std::uint64_t lost_tokens = 0;
  // Sends deferred by a storm, pause, stall or reorder spike.
  std::uint64_t delays = 0;
  // Extra distance traversed by retransmissions and duplicate copies; the
  // engine's CostAccount charges each logical send once, this is the
  // robustness overhead on top.
  double overhead_distance = 0.0;

  void merge(const FaultStats& other);
};

static_assert(std::is_trivially_copyable_v<FaultStats>);

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan, RetryPolicy retry = {});

  // False for an empty plan; transports must skip the injector entirely
  // then (the strict-no-op contract).
  [[nodiscard]] bool active() const noexcept { return !plan_.empty(); }

  // Decides the fate of one logical send to `to`. `now` is transport time
  // (sim time or scaled wall time), `distance` the shortest-path distance
  // the message traverses.
  [[nodiscard]] sim::SendVerdict on_send(MessageKind kind, NodeId to,
                                         sim::Time now, double distance);

  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }

 private:
  FaultPlan plan_;
  RetryPolicy retry_;
  support::Rng rng_;
  FaultStats stats_;
};

}  // namespace arvy::faults
