#include "support/lock_rank.hpp"

#include <array>
#include <cstddef>

#include "support/assert.hpp"

namespace arvy::support::detail {

namespace {

// Per-thread stack of held ranks. Fixed capacity: the tree nests no ranked
// locks today (see lock_rank.hpp); 16 leaves room for future subsystems and
// overflowing it is itself a design smell worth aborting on.
struct HeldLocks {
  std::array<std::uint32_t, 16> ranks{};
  std::size_t count = 0;
};

thread_local HeldLocks t_held;

}  // namespace

void note_acquire(std::uint32_t rank, const char* name) {
  ARVY_ASSERT_MSG(t_held.count < t_held.ranks.size(),
                  "lock nesting deeper than the rank tracker's capacity");
  if (t_held.count > 0) {
    // Held ranks are strictly increasing by induction, so comparing against
    // the innermost one compares against the maximum.
    ARVY_ASSERT_MSG(t_held.ranks[t_held.count - 1] < rank, name);
  }
  t_held.ranks[t_held.count++] = rank;
}

void note_release(std::uint32_t rank) {
  // Unlock order need not be LIFO (std::scoped_lock, manual unique_lock
  // juggling); drop the innermost matching entry.
  for (std::size_t i = t_held.count; i-- > 0;) {
    if (t_held.ranks[i] == rank) {
      for (std::size_t j = i + 1; j < t_held.count; ++j) {
        t_held.ranks[j - 1] = t_held.ranks[j];
      }
      --t_held.count;
      return;
    }
  }
  ARVY_ASSERT_MSG(false, "unlock of a rank this thread does not hold");
}

std::size_t held_count() noexcept { return t_held.count; }

}  // namespace arvy::support::detail
