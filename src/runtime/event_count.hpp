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
// ready() runs under the EventCount's mutex and must not take a lock. The
// state it reads must be atomics the producer stores before notify(); a
// waiter that needs the producer's other writes (observer logs, cost
// counters) must read its ready() counters with acquire loads against
// release stores, because a notify with no waiter never touches the mutex.
// The deadline is a liveness backstop, not part of the protocol: a wait
// that times out returns whether ready() held at the last look.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>

#include "support/hot.hpp"
#include "support/lock_rank.hpp"

namespace arvy::runtime {

// Deadline of a worker's or shard's idle park. A backstop only: a lost
// notify would cost at most this much latency, never liveness.
inline constexpr std::chrono::milliseconds kParkBackstop{2};

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

}  // namespace arvy::runtime
