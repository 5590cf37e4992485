// Deliberate `atomic` violations, one per failure mode the rule promises
// to catch. Linter input only - never compiled.
#include <atomic>
#include <cstdint>

namespace alpha {

// 1. No role annotation at all.
std::atomic<std::uint64_t> naked{0};

// 2. Role the [atomic] config never declared.
std::atomic<int> mystery{0};  // ARVY-ATOMIC(quantum)

// 3. Annotated counter misused: acquire load and implicit-seq_cst RMW are
// both outside the role's relaxed-only contract.
std::atomic<std::uint64_t> events{0};  // ARVY-ATOMIC(counter)

// 4. A fence order the config's fence list does not bless.
std::uint64_t drain() {
  std::atomic_thread_fence(std::memory_order_acquire);
  events.fetch_add(1);
  return events.load(std::memory_order_acquire);
}

// 5. A word reached through an accessor: the call's order is checked like
// a direct use (an acq_rel RMW is outside the counter contract).
std::atomic<std::uint64_t>& tally(std::size_t i);  // ARVY-ATOMIC(counter)
void bump(std::size_t i) { tally(i).fetch_add(1, std::memory_order_acq_rel); }

}  // namespace alpha
