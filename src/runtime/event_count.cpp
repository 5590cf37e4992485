#include "runtime/event_count.hpp"

#include <mutex>

#include "support/cpus.hpp"

// TSan does not model standalone fences (GCC diagnoses them under
// -fsanitize=thread). The two fences below only pair the waiter count with
// the ready() state; the waiter's sleep and wake synchronize through mutex_,
// and every state a caller reads after the wait is published with
// release/acquire atomics, which TSan does track.
#if defined(__GNUC__) && !defined(__clang__) && defined(__SANITIZE_THREAD__)
#pragma GCC diagnostic ignored "-Wtsan"
#endif

namespace arvy::runtime {

ARVY_HOT void EventCount::notify() {
  // Producer half of the Dekker pair: orders the caller's publish before
  // the waiter-count read.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (waiters_.load(std::memory_order_relaxed) != 0) notify_slow();
}

ARVY_COLD void EventCount::notify_slow() {
  {
    std::lock_guard<support::RankedMutex> lock(mutex_);
    ++epoch_;
  }
  cv_.notify_all();
}

bool EventCount::wait(ReadyFn ready, const void* context,
                      Clock::time_point deadline) {
  std::unique_lock<support::RankedMutex> lock(mutex_);
  waiters_.fetch_add(1, std::memory_order_relaxed);
  // Consumer half of the Dekker pair: orders the registration before
  // ready()'s loads.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  bool ok = ready(context);
  for (bool notified = true; !ok && notified;) {
    const std::uint64_t seen = epoch_;
    notified =
        cv_.wait_until(lock, deadline, [this, seen] { return epoch_ != seen; });
    ok = ready(context);
  }
  waiters_.fetch_sub(1, std::memory_order_relaxed);
  return ok;
}

bool spin_fits(std::size_t threads) {
  return threads + 1 <= support::usable_cpus();
}

}  // namespace arvy::runtime
