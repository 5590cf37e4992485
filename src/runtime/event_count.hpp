// EventCount: the one park/progress wait of the threaded layers.
//
// Theorems 4-5 only need every message to be handled *eventually*; this is
// how the runtime and the service implement "eventually" without a lock on
// the publish path. A producer publishes its state change (a ring frame, a
// progress counter) and then calls notify(); a consumer calls
// wait_until(ready, deadline), which returns as soon as ready() holds.
//
//   producer                          consumer (under mutex_)
//   --------                          --------
//   publish the state ready() reads   waiters_ += 1
//   fence(seq_cst)                    fence(seq_cst)
//   waiters_ != 0 ? notify_slow()     ready() ? return : sleep
//
// The two seq_cst fences are a Dekker pair: either the consumer's ready()
// observes the publish, or the producer's load observes the registration
// and takes the cold path (lock, bump the epoch, notify_all), which cannot
// slip between the consumer's ready() check and its sleep because the
// consumer holds mutex_ across both. A notify with no registered waiter is
// therefore one fence and one relaxed load - no lock, no syscall.
//
// ready() runs under the EventCount's mutex in wait_until, and with no lock
// at all in spin_until (below), so it must read only atomics and must not
// take a lock. The state it reads must be atomics the producer stores
// before notify(); a waiter that needs the producer's other writes
// (observer logs, cost counters) must read its ready() counters with
// acquire loads against release stores, because a notify with no waiter
// never touches the mutex. The deadline is a liveness backstop, not part of
// the protocol: a wait that times out returns whether ready() held at the
// last look.
//
// A park costs a futex round trip on each side, which is most of a hop when
// the awaited state is microseconds away. So the threaded layers may poll
// first: spin_until(ready, kSpinBeforePark) polls ready() with the CPU's
// relax hint for one bounded budget, and only if ready() still fails do
// they wait_until. They poll only when spin_fits: a spinner sharing a CPU
// with the thread it waits for delays that thread instead of saving a wake.
// The EventCount itself never spins.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>

#include "support/cpu_relax.hpp"
#include "support/hot.hpp"
#include "support/lock_rank.hpp"

namespace arvy::runtime {

// Deadline of a worker's or shard's idle park. A backstop only: a lost
// notify would cost at most this much latency, never liveness.
inline constexpr std::chrono::milliseconds kParkBackstop{2};

// Budget of the bounded poll in front of a park (spin_until): many ring
// hops between two running threads, and short against the 2 ms backstop.
// A worker spends it once per busy spell, never on a backstop wake; docs/
// ARCHITECTURE.md section 6 has the measurements that chose it.
inline constexpr std::chrono::microseconds kSpinBeforePark{50};

class EventCount {
 public:
  using Clock = std::chrono::steady_clock;

  EventCount() = default;
  EventCount(const EventCount&) = delete;
  EventCount& operator=(const EventCount&) = delete;

  // Producer side: call after publishing whatever ready() reads.
  ARVY_HOT void notify();

  // Consumer side: returns true once ready() holds, false if the deadline
  // passes first. Any number of threads may wait at once.
  template <typename Ready>
  [[nodiscard]] bool wait_until(const Ready& ready,
                                Clock::time_point deadline) {
    return wait(
        [](const void* context) -> bool {
          return (*static_cast<const Ready*>(context))();
        },
        &ready, deadline);
  }

 private:
  using ReadyFn = bool (*)(const void*);

  bool wait(ReadyFn ready, const void* context, Clock::time_point deadline);
  ARVY_COLD void notify_slow();

  // Registered waiters. Changed only under mutex_; notify() reads it
  // without the lock, behind its fence.
  std::atomic<std::uint32_t> waiters_{0};  // ARVY-ATOMIC(eventcount)
  std::uint64_t epoch_ = 0;                // guarded by mutex_
  support::RankedMutex mutex_{support::lock_rank::kEventCount, "event-count"};
  std::condition_variable_any cv_;
};

// now() + budget, saturated at time_point::max(): a budget past the clock's
// range - milliseconds::max(), the natural "wait forever" - must not
// overflow into a deadline in the past. A budget <= 0 yields now().
template <typename Rep, typename Period>
[[nodiscard]] EventCount::Clock::time_point deadline_after(
    std::chrono::duration<Rep, Period> budget) {
  using Clock = EventCount::Clock;
  const Clock::time_point now = Clock::now();
  if (budget <= budget.zero()) return now;
  // Compared in the budget's own unit: converting milliseconds::max() to
  // the clock's nanoseconds would itself overflow.
  if (budget >= std::chrono::duration_cast<decltype(budget)>(
                    Clock::time_point::max() - now)) {
    return Clock::time_point::max();
  }
  return now + std::chrono::duration_cast<Clock::duration>(budget);
}

// Polls ready() with the CPU's relax hint until it holds or `budget` has
// passed; returns whether it held. It takes no lock and registers no
// waiter, so no notify is needed to end it; a caller that gets false falls
// back to EventCount::wait_until to block.
template <typename Ready>
[[nodiscard]] bool spin_until(const Ready& ready,
                              std::chrono::nanoseconds budget) {
  const EventCount::Clock::time_point deadline = deadline_after(budget);
  while (!ready()) {
    if (EventCount::Clock::now() >= deadline) return false;
    support::cpu_relax();
  }
  return true;
}

// Whether `threads` busy threads and one caller fit in the CPUs this
// process may run on (support::usable_cpus). A system computes it once at
// construction and spins only when it holds.
[[nodiscard]] bool spin_fits(std::size_t threads);

// The idle step of a worker loop (ActorSystem's workers, DirectoryService's
// shards): when `poll` - the loop's busy spell just ended and spin_fits
// held at construction - polls ready() for kSpinBeforePark, and if it still
// fails parks on `park` until ready() holds, the kParkBackstop deadline or
// `wake_by` (an ActorSystem worker's earliest held frame), whichever comes
// first. Either way the loop rescans its queues next; a wake that finds
// nothing passes poll = false, so the backstop's wakes never spin.
template <typename Ready>
void poll_then_park(
    EventCount& park, const Ready& ready, bool poll,
    EventCount::Clock::time_point wake_by = EventCount::Clock::time_point::max()) {
  if (poll && spin_until(ready, kSpinBeforePark)) return;
  (void)park.wait_until(ready,
                        std::min(deadline_after(kParkBackstop), wake_by));
}

}  // namespace arvy::runtime
