// The runtime's message path allocates nothing: a LiveDirectory on a ring,
// past its warm-up, serves volleys of acquires without one call to global
// operator new on any thread. This binary replaces operator new with a
// counter, so it holds only this test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numeric>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "runtime/live_directory.hpp"
#include "support/rng.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      ((size == 0 ? 1 : size) + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded);
}

// Out of line, so the compiler never pairs an inlined free() with the
// operator new that produced the pointer (-Wmismatched-new-delete). Every
// variant below is replaced, so a sanitizer runtime's own operator delete
// never receives a pointer from this malloc.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace {

using arvy::graph::NodeId;

TEST(ZeroAlloc, LiveRingMessagePathAllocatesNothing) {
  constexpr std::size_t kNodes = 64;
  constexpr std::size_t kWidth = 16;
  const arvy::graph::Graph ring = arvy::graph::make_ring(kNodes);
  arvy::Options options;
  options.policy = arvy::proto::PolicyKind::kIvy;
  options.workers = 3;
  arvy::LiveDirectory dir(ring, options);

  arvy::support::Rng rng(19);
  std::vector<NodeId> nodes(kNodes);
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  // One volley: kWidth distinct requesters (the model allows one
  // outstanding request per node), then a drain.
  const auto volley = [&] {
    for (std::size_t i = 0; i < kWidth; ++i) {
      std::swap(nodes[i], nodes[i + rng.next_below(kNodes - i)]);
      (void)dir.acquire(nodes[i]);
    }
    return dir.drain(std::chrono::milliseconds(10'000));
  };

  for (int v = 0; v < 64; ++v) ASSERT_TRUE(volley());
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  bool drained = true;
  for (int v = 0; v < 256; ++v) drained = volley() && drained;
  g_counting.store(false, std::memory_order_relaxed);
  const std::uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed);

  EXPECT_TRUE(drained);
  EXPECT_EQ(dir.satisfied_count(), dir.submitted_count());
  EXPECT_EQ(allocations, 0u) << "over " << 256 * kWidth << " acquires";
  dir.shutdown();
}

}  // namespace
