// Lock-order (rank) checking: deadlock freedom as an executable invariant.
//
// Every RankedMutex carries a numeric rank. A thread may only acquire a
// mutex whose rank is STRICTLY greater than the rank of every mutex it
// already holds, which rules out wait-for cycles by construction: any cycle
// would need some edge from a higher rank back to a lower one, and that
// acquisition trips the assertion at the call site -- deterministically, on
// the first wrong nesting, not only on the schedule where threads actually
// deadlock. Like the contract macros (assert.hpp) the check is enabled in
// every build type; the bookkeeping is one thread_local fixed array push/pop
// per lock, far below the cost of the lock itself.
//
// RankedMutex satisfies the standard Lockable requirements, so it works with
// std::lock_guard / std::unique_lock; pair it with
// std::condition_variable_any for waiting (the CV's internal unlock/relock
// goes through lock()/unlock() and is rank-checked like any other use).
#pragma once

#include <cstdint>
#include <mutex>

namespace arvy::support {

namespace lock_rank {
// The repo-wide lock hierarchy. Gaps are deliberate: new subsystems slot in
// without renumbering. No code path nests two of these today - each lock is
// released before the next is taken (the fault injector's verdict before
// the send's ring push and its park notify, the service's fault-stats copy
// before the progress notify) - so the ranks pin the only order a future
// nesting may use; the reverse of it is the deadlock-shaped one the check
// forbids.
inline constexpr std::uint32_t kStats = 100;    // DirectoryService fault stats
inline constexpr std::uint32_t kFaults = 120;   // ActorSystem fault injector
inline constexpr std::uint32_t kEventCount = 160;  // runtime::EventCount waits
}  // namespace lock_rank

namespace detail {
// Records `rank` as held by this thread; aborts (contract failure) if some
// already-held lock has an equal or greater rank.
void note_acquire(std::uint32_t rank, const char* name);
// Removes the innermost held entry with rank `rank` (unlock order need not
// be LIFO); aborts if this thread does not hold such a lock.
void note_release(std::uint32_t rank);
// Number of ranked locks this thread currently holds (test hook).
[[nodiscard]] std::size_t held_count() noexcept;
}  // namespace detail

class RankedMutex {
 public:
  explicit RankedMutex(std::uint32_t rank, const char* name = "mutex")
      : rank_(rank), name_(name) {}

  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock() {
    // Check before blocking: a would-be deadlock should abort, not hang.
    detail::note_acquire(rank_, name_);
    mutex_.lock();
  }

  bool try_lock() {
    if (!mutex_.try_lock()) return false;
    // try_lock cannot deadlock, but an out-of-rank nesting is still a
    // hierarchy violation somewhere else's blocking path could copy.
    detail::note_acquire(rank_, name_);
    return true;
  }

  void unlock() {
    mutex_.unlock();
    detail::note_release(rank_);
  }

  [[nodiscard]] std::uint32_t rank() const noexcept { return rank_; }
  [[nodiscard]] const char* name() const noexcept { return name_; }

 private:
  std::mutex mutex_;
  std::uint32_t rank_;
  const char* name_;
};

}  // namespace arvy::support
