// Concurrency stress tests, designed to run under ThreadSanitizer.
//
// The unit tests elsewhere check the runtime's functional behaviour; these
// tests exist to hand TSan (and the lock-rank checker) as many genuinely
// racy schedules as possible: many producers against one consumer on the
// RingMailbox, notify/wait storms on the EventCount, request storms
// against a full ActorSystem (tiny rings, so senders hold frames) and a kLive
// DirectoryService, and repeated construct/storm/shutdown churn to shake
// the join/close ordering. They assert functional outcomes too, but their
// real assertion is "zero sanitizer reports" -- the TSan CI job runs
// exactly this binary.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <numeric>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "proto/policies.hpp"
#include "proto/wire.hpp"
#include "runtime/actor_system.hpp"
#include "runtime/event_count.hpp"
#include "runtime/ring_mailbox.hpp"
#include "service/directory_service.hpp"
#include "support/cpu_relax.hpp"
#include "support/lock_rank.hpp"
#include "support/rng.hpp"

namespace {

using namespace arvy;
using graph::NodeId;

// Generous ceiling for waits: a passing run finishes in milliseconds; the
// timeout only matters when a liveness regression would otherwise hang ctest.
constexpr std::chrono::milliseconds kWaitCeiling{120000};

// --- RingMailbox storms -----------------------------------------------------
//
// The ring carries opaque bytes; these storms use a single uint64 payload per
// slot so every frame is checkable. What TSan is being handed: the
// release/acquire pairing on per-slot sequence words under real contention,
// wrap-around slot reuse, and close racing both producers and a mid-batch
// consumer.

std::uint64_t read_slot_u64(const std::byte* slot) {
  std::uint64_t value = 0;
  std::memcpy(&value, slot, sizeof(value));
  return value;
}

TEST(RingMailboxStress, WrapAroundUnderMultiProducerContention) {
  // Capacity 8 with 4 producers x 5000 frames: thousands of full laps, so
  // every slot is recycled under contention and per-producer FIFO must
  // survive the wrap (tickets are claimed in program order and drained in
  // ticket order).
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 5000;
  runtime::RingMailbox ring(/*capacity=*/8, /*slot_bytes=*/sizeof(std::uint64_t));
  ASSERT_EQ(ring.capacity(), 8u);

  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t value = p * kPerProducer + i;
        ASSERT_TRUE(ring.push([value](std::byte* slot) {
          std::memcpy(slot, &value, sizeof(value));
        }));
      }
    });
  }

  std::uint64_t consumed = 0;
  std::uint64_t sum = 0;
  std::vector<std::uint64_t> last_seen(kProducers, 0);  // +1 encoded
  while (consumed < kProducers * kPerProducer) {
    const std::size_t batch = ring.acquire_batch(4);
    if (batch == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::size_t k = 0; k < batch; ++k) {
      const std::uint64_t value = read_slot_u64(ring.batch_slot(k));
      const std::uint64_t p = value / kPerProducer;
      const std::uint64_t i = value % kPerProducer;
      ASSERT_LT(p, kProducers);
      // Per-producer FIFO: each producer's frames arrive in push order.
      ASSERT_EQ(last_seen[p], i) << "producer " << p << " reordered";
      last_seen[p] = i + 1;
      sum += value;
      ++consumed;
    }
    ring.release_batch(batch);
  }
  for (auto& t : producers) t.join();
  ring.close();

  constexpr std::uint64_t kTotal = kProducers * kPerProducer;
  EXPECT_EQ(consumed, kTotal);
  EXPECT_EQ(sum, kTotal * (kTotal - 1) / 2);
  EXPECT_EQ(ring.approx_size(), 0u);
}

TEST(RingMailboxStress, FullRingReportsKFullAndBackpressures) {
  runtime::RingMailbox ring(/*capacity=*/4, /*slot_bytes=*/sizeof(std::uint64_t));
  auto fill = [](std::uint64_t value) {
    return [value](std::byte* slot) {
      std::memcpy(slot, &value, sizeof(value));
    };
  };
  // Deterministic part: exactly capacity slots fit, then kFull - and kFull
  // must not strand a ticket (slots drain and refill cleanly afterwards).
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ring.try_push(fill(i)), runtime::PushResult::kOk);
  }
  EXPECT_EQ(ring.try_push(fill(99)), runtime::PushResult::kFull);
  EXPECT_EQ(ring.try_push(fill(99)), runtime::PushResult::kFull);
  std::size_t batch = ring.acquire_batch(64);
  ASSERT_EQ(batch, 4u);
  for (std::size_t k = 0; k < batch; ++k) {
    EXPECT_EQ(read_slot_u64(ring.batch_slot(k)), k);
  }
  ring.release_batch(batch);
  EXPECT_EQ(ring.try_push(fill(4)), runtime::PushResult::kOk);

  // Concurrent part: a blocking producer against a deliberately slow
  // consumer; the bounded buffer must backpressure, never lose or corrupt.
  constexpr std::uint64_t kFrames = 3000;
  std::thread producer([&ring, &fill] {
    for (std::uint64_t i = 5; i < kFrames; ++i) {
      ASSERT_TRUE(ring.push(fill(i)));
    }
  });
  std::uint64_t expected = 4;
  while (expected < kFrames) {
    const std::size_t n = ring.acquire_batch(3);
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_EQ(read_slot_u64(ring.batch_slot(k)), expected);
      ++expected;
    }
    ring.release_batch(n);
    if (expected % 512 < 3) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  producer.join();
  ring.close();
  EXPECT_FALSE(ring.push(fill(0)));
}

TEST(RingMailboxStress, CloseRacesMidBatchDrain) {
  // close() fires from the main thread while producers are pushing and the
  // consumer is mid-drain. Contract: every try_push that reported kOk before
  // the producers observed kClosed is drained (producers are joined before
  // the final sweep, so all successful publishes are visible), and nothing
  // is consumed twice.
  for (int round = 0; round < 20; ++round) {
    runtime::RingMailbox ring(/*capacity=*/16,
                              /*slot_bytes=*/sizeof(std::uint64_t));
    std::atomic<std::uint64_t> pushed{0};
    std::atomic<bool> producers_done{false};
    std::vector<std::thread> producers;
    for (int p = 0; p < 3; ++p) {
      producers.emplace_back([&ring, &pushed] {
        for (std::uint64_t i = 0;; ++i) {
          const runtime::PushResult r = ring.try_push([i](std::byte* slot) {
            std::memcpy(slot, &i, sizeof(i));
          });
          if (r == runtime::PushResult::kClosed) return;
          if (r == runtime::PushResult::kOk) {
            pushed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    std::atomic<std::uint64_t> consumed{0};
    std::thread consumer([&ring, &consumed, &producers_done] {
      for (;;) {
        const std::size_t n = ring.acquire_batch(5);
        if (n > 0) {
          for (std::size_t k = 0; k < n; ++k) {
            (void)read_slot_u64(ring.batch_slot(k));
          }
          ring.release_batch(n);
          consumed.fetch_add(n, std::memory_order_relaxed);
          continue;
        }
        if (producers_done.load(std::memory_order_acquire) &&
            !ring.has_ready()) {
          return;
        }
        std::this_thread::yield();
      }
    });
    std::this_thread::sleep_for(std::chrono::microseconds(200 * (round % 4)));
    ring.close();
    for (auto& t : producers) t.join();
    producers_done.store(true, std::memory_order_release);
    consumer.join();
    EXPECT_EQ(consumed.load(), pushed.load());
  }
}

TEST(RingMailboxStress, TryPushAfterCloseReturnsFalseAndDrains) {
  runtime::RingMailbox ring(/*capacity=*/8, /*slot_bytes=*/sizeof(std::uint64_t));
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_EQ(ring.try_push([i](std::byte* slot) {
      std::memcpy(slot, &i, sizeof(i));
    }),
              runtime::PushResult::kOk);
  }
  ring.close();
  EXPECT_TRUE(ring.closed());
  // Producers observe the close on both entry points, with no UB and no
  // frame written.
  EXPECT_EQ(ring.try_push([](std::byte*) { FAIL() << "fill ran on closed"; }),
            runtime::PushResult::kClosed);
  EXPECT_FALSE(ring.push([](std::byte*) { FAIL() << "fill ran on closed"; }));
  // Close drains, then stops: the three published frames are still readable.
  const std::size_t batch = ring.acquire_batch(64);
  ASSERT_EQ(batch, 3u);
  for (std::size_t k = 0; k < batch; ++k) {
    EXPECT_EQ(read_slot_u64(ring.batch_slot(k)), k);
  }
  ring.release_batch(batch);
  EXPECT_FALSE(ring.has_ready());
  EXPECT_EQ(ring.acquire_batch(64), 0u);
}

// --- RingMailbox cells on both sides of the size rules ------------------------
//
// A cell is the 8-byte sequence word plus the frame: a power of two up to
// 64 bytes, whole lines beyond. The sizes below sit on both sides of both
// rules: 8 and 16 (power-of-two cells of 16 and 32 bytes), 56 (exactly one
// line), 57 (one byte over: two lines) and a 64-node ring's envelope (296
// bytes: five lines). Producers fill each frame end to end with a pattern
// derived from its value and the consumer checks every byte, so a cell
// that overlaps its neighbour's word or frame corrupts a frame or stalls
// the ring.

struct CellCase {
  std::size_t frame;  // the slot_bytes asked for
  std::size_t cell;   // the cell the rules give that frame
};

void PrintTo(const CellCase& c, std::ostream* os) {
  *os << c.frame << "-byte frames in " << c.cell << "-byte cells";
}

class RingMailboxCells : public testing::TestWithParam<CellCase> {};

std::byte pattern_byte(std::uint64_t value, std::size_t k) {
  return static_cast<std::byte>(value * 7 + k * 13);
}

// The frame's value word, then the pattern over the rest of slot_bytes().
void fill_frame(std::byte* frame, std::size_t bytes, std::uint64_t value) {
  std::memcpy(frame, &value, sizeof(value));
  for (std::size_t k = sizeof(value); k < bytes; ++k) {
    frame[k] = pattern_byte(value, k);
  }
}

// Whether every byte after the value word still carries its pattern.
bool frame_intact(const std::byte* frame, std::size_t bytes) {
  const std::uint64_t value = read_slot_u64(frame);
  for (std::size_t k = sizeof(value); k < bytes; ++k) {
    if (frame[k] != pattern_byte(value, k)) return false;
  }
  return true;
}

TEST_P(RingMailboxCells, WrapAroundUnderMultiProducerContention) {
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 2000;
  runtime::RingMailbox ring(/*capacity=*/8, GetParam().frame);
  const std::size_t bytes = ring.slot_bytes();
  ASSERT_GE(bytes, GetParam().frame);

  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, bytes, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t value = p * kPerProducer + i;
        ASSERT_TRUE(ring.push([bytes, value](std::byte* frame) {
          fill_frame(frame, bytes, value);
        }));
      }
    });
  }

  std::uint64_t consumed = 0;
  std::vector<std::uint64_t> next(kProducers, 0);
  while (consumed < kProducers * kPerProducer) {
    const std::size_t batch = ring.acquire_batch(4);
    if (batch == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::size_t k = 0; k < batch; ++k) {
      const std::byte* frame = ring.batch_slot(k);
      ASSERT_TRUE(frame_intact(frame, bytes)) << "frame " << consumed;
      const std::uint64_t value = read_slot_u64(frame);
      const std::uint64_t p = value / kPerProducer;
      ASSERT_LT(p, kProducers);
      ASSERT_EQ(next[p], value % kPerProducer) << "producer " << p;
      ++next[p];
      ++consumed;
    }
    ring.release_batch(batch);
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(ring.approx_size(), 0u);
}

TEST_P(RingMailboxCells, FullRingReportsKFullAndBackpressures) {
  runtime::RingMailbox ring(/*capacity=*/4, GetParam().frame);
  const std::size_t bytes = ring.slot_bytes();
  auto fill = [bytes](std::uint64_t value) {
    return [bytes, value](std::byte* frame) { fill_frame(frame, bytes, value); };
  };
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_EQ(ring.try_push(fill(i)), runtime::PushResult::kOk);
  }
  EXPECT_EQ(ring.try_push(fill(99)), runtime::PushResult::kFull);
  ASSERT_EQ(ring.acquire_batch(64), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_TRUE(frame_intact(ring.batch_slot(k), bytes));
    EXPECT_EQ(read_slot_u64(ring.batch_slot(k)), k);
  }
  ring.release_batch(4);

  constexpr std::uint64_t kFrames = 1500;
  std::thread producer([&ring, &fill] {
    for (std::uint64_t i = 4; i < kFrames; ++i) ASSERT_TRUE(ring.push(fill(i)));
  });
  std::uint64_t expected = 4;
  while (expected < kFrames) {
    const std::size_t n = ring.acquire_batch(3);
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_TRUE(frame_intact(ring.batch_slot(k), bytes));
      ASSERT_EQ(read_slot_u64(ring.batch_slot(k)), expected);
      ++expected;
    }
    ring.release_batch(n);
    if (expected % 256 < 3) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  producer.join();
}

TEST_P(RingMailboxCells, CloseRacesMidBatchDrain) {
  for (int round = 0; round < 10; ++round) {
    runtime::RingMailbox ring(/*capacity=*/16, GetParam().frame);
    const std::size_t bytes = ring.slot_bytes();
    std::atomic<std::uint64_t> pushed{0};
    std::atomic<bool> producers_done{false};
    std::vector<std::thread> producers;
    for (std::uint64_t p = 0; p < 3; ++p) {
      producers.emplace_back([&ring, &pushed, bytes, p] {
        for (std::uint64_t i = 0;; ++i) {
          const runtime::PushResult r =
              ring.try_push([bytes, value = (p << 32) | i](std::byte* frame) {
                fill_frame(frame, bytes, value);
              });
          if (r == runtime::PushResult::kClosed) return;
          if (r == runtime::PushResult::kOk) {
            pushed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    std::uint64_t consumed = 0;
    std::uint64_t corrupt = 0;
    std::thread consumer([&] {
      for (;;) {
        const std::size_t n = ring.acquire_batch(5);
        if (n > 0) {
          for (std::size_t k = 0; k < n; ++k) {
            if (!frame_intact(ring.batch_slot(k), bytes)) ++corrupt;
          }
          ring.release_batch(n);
          consumed += n;
          continue;
        }
        if (producers_done.load(std::memory_order_acquire) &&
            !ring.has_ready()) {
          return;
        }
        std::this_thread::yield();
      }
    });
    std::this_thread::sleep_for(std::chrono::microseconds(200 * (round % 4)));
    ring.close();
    for (auto& t : producers) t.join();
    producers_done.store(true, std::memory_order_release);
    consumer.join();
    EXPECT_EQ(consumed, pushed.load());
    EXPECT_EQ(corrupt, 0u) << "round " << round;
  }
}

TEST_P(RingMailboxCells, CellsKeepToTheirLines) {
  // Cell addresses come from batch_slot and the documented frame offset.
  // Three frames first, so the two full laps that follow wrap mid-batch.
  constexpr std::size_t kCapacity = 8;
  constexpr std::size_t kLine = 64;
  const CellCase c = GetParam();
  runtime::RingMailbox ring(kCapacity, c.frame);
  ASSERT_EQ(ring.slot_bytes(), c.cell - runtime::RingMailbox::kFrameOffset);
  const std::size_t bytes = ring.slot_bytes();
  std::uint64_t value = 0;
  std::set<std::uintptr_t> cells;
  for (const std::size_t lap : {std::size_t{3}, kCapacity, kCapacity}) {
    for (std::size_t i = 0; i < lap; ++i, ++value) {
      ASSERT_EQ(ring.try_push([bytes, value](std::byte* frame) {
        fill_frame(frame, bytes, value);
      }),
                runtime::PushResult::kOk);
    }
    ASSERT_EQ(ring.acquire_batch(kCapacity), lap);
    for (std::size_t k = 0; k < lap; ++k) {
      const std::byte* frame = ring.batch_slot(k);
      EXPECT_TRUE(frame_intact(frame, bytes));
      EXPECT_EQ(read_slot_u64(frame), value - lap + k);
      const auto cell = reinterpret_cast<std::uintptr_t>(frame) -
                        runtime::RingMailbox::kFrameOffset;
      if (c.cell <= kLine) {
        EXPECT_EQ(cell / kLine, (cell + c.cell - 1) / kLine)
            << "cell at " << cell << " crosses a line";
      } else {
        EXPECT_EQ(cell % kLine, 0u) << "cell at " << cell << " is off a line";
      }
      cells.insert(cell);
    }
    ring.release_batch(lap);
  }
  // Every cell of the ring, each a whole stride from the next.
  ASSERT_EQ(cells.size(), kCapacity);
  EXPECT_EQ(*cells.rbegin() - *cells.begin(), (kCapacity - 1) * c.cell);
  for (const std::uintptr_t cell : cells) {
    EXPECT_EQ((cell - *cells.begin()) % c.cell, 0u);
  }
}

std::string cell_case_name(const testing::TestParamInfo<CellCase>& info) {
  return "frame" + std::to_string(info.param.frame);
}

INSTANTIATE_TEST_SUITE_P(
    FrameSizes, RingMailboxCells,
    testing::Values(CellCase{8, 16}, CellCase{16, 32}, CellCase{56, 64},
                    CellCase{57, 128},
                    CellCase{proto::wire::envelope_bytes(64), 320}),
    cell_case_name);

TEST(LockRank, NoRankedLocksHeldOutsideCriticalSections) {
  // Every ranked critical section must fully release its mutex before
  // returning; a leak here would poison rank checks for the whole thread.
  // An EventCount wait that sleeps to its deadline under the mutex:
  runtime::EventCount ec;
  EXPECT_FALSE(
      ec.wait_until([] { return false; },
                    runtime::deadline_after(std::chrono::milliseconds(1))));
  EXPECT_EQ(support::detail::held_count(), 0u);
  // The fault injector's mutex, taken by fault_stats():
  const auto g = graph::make_ring(4);
  auto policy = proto::make_policy(proto::PolicyKind::kIvy);
  runtime::ActorSystem system(g, proto::ring_bridge_config(4), *policy,
                              {.faults = {.duplicate = 0.5}, .workers = 1});
  system.request(2);
  ASSERT_TRUE(system.wait_for_satisfied_for(1, kWaitCeiling));
  EXPECT_EQ(system.fault_stats().permanent_losses, 0u);
  EXPECT_EQ(support::detail::held_count(), 0u);
}

// --- EventCount -------------------------------------------------------------

constexpr std::chrono::seconds kNoLostNotify{10};

// One storm wait. A wait that reaches its deadline counts as timed out even
// if ready() held at the last look: a lost notify shows up as exactly that.
template <typename Ready>
bool waited_in_time(runtime::EventCount& ec, const Ready& ready) {
  const auto deadline = runtime::deadline_after(kNoLostNotify);
  return ec.wait_until(ready, deadline) &&
         runtime::EventCount::Clock::now() < deadline;
}

TEST(EventCount, ReturnsReadinessAtTheDeadline) {
  runtime::EventCount ec;
  EXPECT_TRUE(ec.wait_until([] { return true; },
                            runtime::deadline_after(kWaitCeiling)));
  const auto start = runtime::EventCount::Clock::now();
  EXPECT_FALSE(
      ec.wait_until([] { return false; },
                    runtime::deadline_after(std::chrono::milliseconds(5))));
  EXPECT_GE(runtime::EventCount::Clock::now() - start,
            std::chrono::milliseconds(5));
  ec.notify();  // no waiter registered: a fence and a load, nothing else
  EXPECT_EQ(support::detail::held_count(), 0u);
}

TEST(EventCount, DeadlineAfterSaturatesInsteadOfOverflowing) {
  using Clock = runtime::EventCount::Clock;
  using std::chrono::milliseconds;
  EXPECT_EQ(runtime::deadline_after(milliseconds::max()),
            Clock::time_point::max());
  EXPECT_EQ(runtime::deadline_after(std::chrono::hours::max()),
            Clock::time_point::max());
  EXPECT_EQ(runtime::deadline_after(Clock::duration::max()),
            Clock::time_point::max());
  const auto before = Clock::now();
  const auto deadline = runtime::deadline_after(milliseconds(5));
  EXPECT_GE(deadline - before, milliseconds(5));
  EXPECT_LT(deadline - before, milliseconds(5) + kNoLostNotify);
  // A budget <= 0 is already due.
  const auto past = runtime::deadline_after(milliseconds(-5));
  const auto far_past = runtime::deadline_after(milliseconds::min());
  EXPECT_LE(past, Clock::now());
  EXPECT_LE(far_past, Clock::now());
}

TEST(EventCount, SpinUntilReportsWhetherReadyHeld) {
  using Clock = runtime::EventCount::Clock;
  EXPECT_TRUE(
      runtime::spin_until([] { return true; }, std::chrono::seconds(0)));
  const auto start = Clock::now();
  EXPECT_FALSE(runtime::spin_until([] { return false; },
                                   std::chrono::milliseconds(2)));
  EXPECT_GE(Clock::now() - start, std::chrono::milliseconds(2));
  // Readiness published by another thread mid-spin ends the spin.
  std::atomic<bool> ready{false};
  std::thread setter([&ready] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ready.store(true, std::memory_order_release);
  });
  EXPECT_TRUE(runtime::spin_until(
      [&ready] { return ready.load(std::memory_order_acquire); },
      kNoLostNotify));
  setter.join();
}

TEST(EventCountStress, RelayStormNeverLosesANotify) {
  // Threads pass a baton around a ring through ONE shared EventCount: each
  // waits for its turn, publishes the next turn, then notifies. Every
  // notify races the other threads' registrations, re-checks and sleeps,
  // and exactly one waiter can make progress, so a notify lost between a
  // waiter's re-check and its sleep stalls the relay until that waiter's
  // 10 s deadline - and the test counts it. No backstop hides it.
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kTurnsEach = 2000;
  runtime::EventCount ec;
  std::atomic<std::uint64_t> turn{0};
  std::atomic<int> timeouts{0};
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t k = 0; k < kTurnsEach; ++k) {
        const std::uint64_t mine = k * kThreads + t;
        if (!waited_in_time(ec, [&turn, mine] {
              return turn.load(std::memory_order_acquire) == mine;
            })) {
          timeouts.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        turn.store(mine + 1, std::memory_order_release);
        ec.notify();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(timeouts.load(), 0);
  EXPECT_EQ(turn.load(), kThreads * kTurnsEach);
}

TEST(EventCountStress, PingPongRacesEveryStepOfAWait) {
  // The waiter pings a spinning peer and waits for the reply. Both sides
  // spin a random few hundred nanoseconds first (the waiter before calling
  // wait_until, the peer before publishing), so across the rounds the
  // peer's publish and notify land at every point of the waiter's
  // registration, re-check of ready() and sleep. Each of those races must
  // end with the waiter seeing the reply, never with a sleep to the
  // deadline.
  constexpr std::uint64_t kRounds = 10000;
  std::atomic<std::uint64_t> sink{0};
  const auto spin = [&sink](std::uint64_t n) {
    for (; n > 0; --n) (void)sink.load(std::memory_order_relaxed);
  };
  runtime::EventCount ec;
  std::atomic<std::uint64_t> ping{0};
  std::atomic<std::uint64_t> pong{0};
  std::atomic<bool> stop{false};
  std::thread peer([&] {
    support::Rng rng(17);
    for (std::uint64_t i = 1; i <= kRounds; ++i) {
      for (int spins = 0; ping.load(std::memory_order_acquire) < i; ++spins) {
        if (stop.load(std::memory_order_relaxed)) return;
        if (spins > 64) std::this_thread::yield();
      }
      spin(rng.next_below(512));
      pong.store(i, std::memory_order_release);
      ec.notify();
    }
  });
  int timeouts = 0;
  support::Rng rng(29);
  for (std::uint64_t i = 1; i <= kRounds && timeouts == 0; ++i) {
    ping.store(i, std::memory_order_release);
    spin(rng.next_below(512));
    if (!waited_in_time(ec, [&pong, i] {
          return pong.load(std::memory_order_acquire) >= i;
        })) {
      ++timeouts;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  peer.join();
  EXPECT_EQ(timeouts, 0);
}

TEST(EventCountStress, ProducerStormWakesEveryWaiter) {
  // Producers publish counter increments and notify; waiters chase
  // staggered targets, so registrations, fast-path notifies and slow-path
  // wakes all interleave. A waiter whose target was published must never
  // sleep to its deadline.
  constexpr int kProducers = 3;
  constexpr int kWaiters = 3;
  constexpr std::uint64_t kPerProducer = 3000;
  constexpr std::uint64_t kTotal = kProducers * kPerProducer;
  runtime::EventCount ec;
  std::atomic<std::uint64_t> published{0};
  std::atomic<int> timeouts{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWaiters; ++w) {
    threads.emplace_back([&, w] {
      for (std::uint64_t target = 1 + static_cast<std::uint64_t>(w);
           target <= kTotal; target += 7) {
        if (!waited_in_time(ec, [&published, target] {
              return published.load(std::memory_order_acquire) >= target;
            })) {
          timeouts.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        published.fetch_add(1, std::memory_order_release);
        ec.notify();
        if ((i + static_cast<std::uint64_t>(p)) % 64 == 0) {
          std::this_thread::yield();  // let waiters park between bursts
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(timeouts.load(), 0);
  EXPECT_EQ(published.load(), kTotal);
}

TEST(ActorSystemStress, RequestStormAllSatisfied) {
  // Distinct-node bursts back-to-back over a reordered, jittered runtime:
  // the model's only rule is one outstanding request per node, so each round
  // fires a batch across many nodes at once and waits for the cumulative
  // count before the next volley.
  constexpr NodeId kNodes = 10;
  const auto g = graph::make_ring(kNodes);
  auto policy = proto::make_policy(proto::PolicyKind::kIvy);
  Options options;
  options.seed = 101;
  options.reorder_mailboxes = true;
  options.max_jitter = std::chrono::microseconds(20);
  runtime::ActorSystem system(g, proto::ring_bridge_config(kNodes), *policy,
                              options);

  std::uint64_t expected = 0;
  support::Rng rng(7);
  for (int round = 0; round < 12; ++round) {
    std::set<NodeId> requesters;
    while (requesters.size() < 5) {
      requesters.insert(static_cast<NodeId>(rng.next_below(kNodes)));
    }
    for (NodeId v : requesters) system.request(v);
    expected += requesters.size();
    ASSERT_TRUE(system.wait_for_satisfied_for(expected, kWaitCeiling))
        << "liveness regression: stuck at " << system.satisfied_count()
        << " of " << expected;
  }
  system.shutdown();

  EXPECT_EQ(system.satisfied_count(), expected);
  std::size_t holders = 0;
  for (NodeId v = 0; v < kNodes; ++v) {
    holders += system.node(v).holds_token() ? 1u : 0u;
  }
  EXPECT_EQ(holders, 1u);
}

TEST(ActorSystemStress, ConstructStormShutdownChurn) {
  // Shutdown/join ordering under churn: build a system, satisfy a burst,
  // tear it down, repeat. Half the rounds shut down explicitly, half leave
  // it to the destructor, so both paths see traffic.
  const auto g = graph::make_grid(3, 3);
  auto policy = proto::make_policy(proto::PolicyKind::kArrow);
  for (int round = 0; round < 8; ++round) {
    Options options;
    options.seed = static_cast<std::uint64_t>(round) + 1;
    options.reorder_mailboxes = (round % 2 == 0);
    runtime::ActorSystem system(g, proto::from_tree(graph::bfs_tree(g, 4)),
                                *policy, options);
    for (NodeId v : {0u, 2u, 6u, 8u}) system.request(v);
    ASSERT_TRUE(system.wait_for_satisfied_for(4, kWaitCeiling));
    if (round % 2 == 0) {
      system.shutdown();
      EXPECT_TRUE(system.is_shut_down());
      EXPECT_EQ(system.satisfied_count(), 4u);
    }
    // Odd rounds: destructor runs shutdown with mailboxes quiescent.
  }
}

// One churn storm on a 12-node Ivy ring with the smallest rings: each
// submitter thread owns a node range, fires it every round, waits for the
// round's cumulative satisfied count and then calls idle(round, submitter,
// rng), whose gap decides whether the next storm meets the workers polling
// or parked. A wait that fails, or returns only at its ceiling, ends that
// submitter and fails the test.
struct ChurnStorm {
  std::uint64_t seed = 0;
  int rounds = 0;
  int submitters = 0;
  std::chrono::milliseconds wait_ceiling{0};
  std::function<void(int round, int submitter, support::Rng& rng)> idle;
};

void run_churn_storm(const ChurnStorm& storm) {
  constexpr NodeId kNodes = 12;
  ASSERT_EQ(kNodes % static_cast<NodeId>(storm.submitters), 0u);
  const NodeId per_submitter = kNodes / static_cast<NodeId>(storm.submitters);
  const auto g = graph::make_ring(kNodes);
  auto policy = proto::make_policy(proto::PolicyKind::kIvy);
  Options options;
  options.seed = storm.seed;
  options.workers = 2;       // nodes share workers: cross-worker wakes
  options.ring_capacity = 2; // minimum: senders hold frames for full rings
  options.batch_size = 4;
  runtime::ActorSystem system(g, proto::ring_bridge_config(kNodes), *policy,
                              options);
  // One outstanding request per node is the model's rule, hence the
  // distinct node ranges.
  std::vector<std::thread> submitters;
  for (int s = 0; s < storm.submitters; ++s) {
    submitters.emplace_back([&system, &storm, per_submitter, s] {
      const auto base = static_cast<NodeId>(s) * per_submitter;
      support::Rng rng(storm.seed + static_cast<std::uint64_t>(s));
      for (int round = 0; round < storm.rounds; ++round) {
        for (NodeId v = base; v < base + per_submitter; ++v) {
          system.request(v);
        }
        const std::uint64_t target =
            static_cast<std::uint64_t>(round + 1) * kNodes;
        const auto start = runtime::EventCount::Clock::now();
        if (!system.wait_for_satisfied_for(target, storm.wait_ceiling) ||
            runtime::EventCount::Clock::now() - start >= storm.wait_ceiling) {
          ADD_FAILURE() << "liveness regression: stuck at "
                        << system.satisfied_count() << " of " << target;
          return;
        }
        storm.idle(round, s, rng);
      }
    });
  }
  for (auto& t : submitters) t.join();
  system.shutdown();

  const auto expected = static_cast<std::uint64_t>(storm.rounds) * kNodes;
  EXPECT_EQ(system.satisfied_count(), expected);
  EXPECT_EQ(system.submitted_count(), expected);
  std::size_t holders = 0;
  for (NodeId v = 0; v < kNodes; ++v) {
    holders += system.node(v).holds_token() ? 1u : 0u;
  }
  EXPECT_EQ(holders, 1u);
}

TEST(ActorSystemStress, ParkWakeChurnWithTinyRings) {
  // Targets the orderings the atomic contracts keep weak on purpose: the
  // EventCount's relaxed waiter count behind its two seq_cst Dekker fences
  // (worker park vs producer notify) and the release/acquire per-worker
  // satisfied counters. Tiny rings make senders hold frames and push them
  // on a later sweep, and deliberate idle gaps between volleys force real
  // park/wake cycles instead of a saturated pipeline - exactly the
  // schedules where a missing fence or a too-weak store would lose a
  // wakeup (deadlock) or a frame (count mismatch). Run under TSan, this is
  // the regression net for the contract table in docs/ARCHITECTURE.md
  // section 6.
  //
  // Several times the spin before a park, so the gaps always reach it.
  constexpr std::chrono::milliseconds kIdleGap{2};
  static_assert(kIdleGap >= 10 * runtime::kSpinBeforePark);
  run_churn_storm({.seed = 907,
                   .rounds = 40,
                   .submitters = 3,
                   .wait_ceiling = kWaitCeiling,
                   .idle = [kIdleGap](int round, int s, support::Rng&) {
                     if (round % 4 == s) std::this_thread::sleep_for(kIdleGap);
                   }});
}

// An idle gap drawn from 0.5x to 2x the spin budget, busy-waited, since a
// sleep this short overshoots by the timer slack. The next frame then lands
// while the waiter still polls, just as the poll gives up and registers on
// its EventCount, or after it sleeps - every side of the spin-to-park
// hand-over.
void straddle_spin_before_park(support::Rng& rng) {
  const auto budget_ns = static_cast<std::uint64_t>(
      std::chrono::nanoseconds(runtime::kSpinBeforePark).count());
  const auto until = runtime::deadline_after(std::chrono::nanoseconds(
      budget_ns / 2 + rng.next_below(budget_ns * 3 / 2 + 1)));
  while (runtime::EventCount::Clock::now() < until) support::cpu_relax();
}

TEST(ActorSystemStress, ChurnGapsStraddleTheSpinBeforePark) {
  // The same storm with idle gaps that straddle the spin budget, on the
  // workers' side and on the waiting submitter's. A frame lost on the
  // hand-over stalls the round; a progress notify lost there sleeps a
  // waiter to its 10 s ceiling, which counts as a failure.
  run_churn_storm({.seed = 911,
                   .rounds = 1000,
                   .submitters = 2,
                   .wait_ceiling = kNoLostNotify,
                   .idle = [](int, int, support::Rng& rng) {
                     straddle_spin_before_park(rng);
                   }});
}

TEST(ActorSystemStress, ConcurrentWaitersAllWake) {
  // Several threads block in wait_for_satisfied_for while requests trickle
  // in; every waiter must wake (no lost notification on the progress
  // EventCount).
  constexpr NodeId kNodes = 8;
  const auto g = graph::make_ring(kNodes);
  auto policy = proto::make_policy(proto::PolicyKind::kBridge);
  Options options;
  options.seed = 31;
  runtime::ActorSystem system(g, proto::ring_bridge_config(kNodes), *policy,
                              options);

  constexpr std::uint64_t kTarget = 6;
  // Several times the spin before a park, so the waiters do park.
  constexpr std::chrono::milliseconds kTrickleGap{1};
  static_assert(kTrickleGap >= 10 * runtime::kSpinBeforePark);
  std::atomic<int> woke{0};
  std::vector<std::thread> waiters;
  for (int w = 0; w < 4; ++w) {
    waiters.emplace_back([&system, &woke] {
      if (system.wait_for_satisfied_for(kTarget, kWaitCeiling)) {
        woke.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (NodeId v : {1u, 2u, 3u, 5u, 6u, 7u}) {
    system.request(v);
    std::this_thread::sleep_for(kTrickleGap);
  }
  for (auto& t : waiters) t.join();
  EXPECT_EQ(woke.load(), 4);
  system.shutdown();
  EXPECT_GE(system.satisfied_count(), kTarget);
}

// --- kLive DirectoryService --------------------------------------------------

TEST(ServiceLiveStress, ObserverWritesAreVisibleRightAfterDrain) {
  // The satisfied observer appends to plain vectors (one per shard, so each
  // has one writer: that shard's worker) and the client reads them right
  // after drain() - no shutdown, no join, no lock. On odd rounds the client
  // first polls processed_count() until the volley is done, so drain()
  // returns without ever sleeping and no notifier takes the EventCount's
  // mutex: the acquire sum of the per-shard processed counters is then the
  // only edge ordering the appends before the reads, and TSan reports the
  // race if it is missing. Even rounds drain while the shards still work.
  const auto g = graph::make_grid(3, 3);
  constexpr std::size_t kObjects = 48;
  DirectoryService service(g, kObjects, 3,
                           {.policy = proto::PolicyKind::kIvy, .seed = 9},
                           ServiceMode::kLive);
  std::vector<std::vector<service::ObjectId>> seen(service.shard_count());
  service.on_satisfied(
      [&](service::ObjectId object, const proto::RequestRecord&) {
        seen[service.route(object)].push_back(object);
      });

  std::vector<std::vector<service::ObjectId>> expected(service.shard_count());
  support::Rng rng(41);
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 40; ++i) {
      const auto object =
          static_cast<service::ObjectId>(rng.next_below(kObjects));
      service.acquire(object,
                      static_cast<NodeId>(rng.next_below(g.node_count())));
      expected[service.route(object)].push_back(object);
    }
    if (round % 2 == 1) {
      while (service.processed_count() < service.submitted_count()) {
        std::this_thread::yield();
      }
    }
    ASSERT_TRUE(service.drain(kWaitCeiling)) << "round " << round;
    // One client thread: each shard satisfies its requests in admission
    // order, so every vector equals its shard's admission log.
    for (std::size_t s = 0; s < seen.size(); ++s) {
      ASSERT_EQ(seen[s], expected[s]) << "shard " << s << ", round " << round;
    }
  }
  service.shutdown();
}

TEST(ServiceLiveStress, IdleGapsStraddleTheShardPoll) {
  // Volleys split by idle gaps that straddle the spin budget: a shard that
  // just drained a volley polls its ring, so the next volley's first frame
  // lands while it polls (the poll hits), just as it gives up and registers
  // on its park EventCount, or after it sleeps (park and wake). A frame
  // lost on that hand-over stalls the volley's drain; a progress notify
  // lost there sleeps the drain to its 10 s ceiling. Both fail the round.
  const auto g = graph::make_grid(3, 3);
  constexpr std::size_t kObjects = 64;
  DirectoryService service(g, kObjects, 2,
                           {.policy = proto::PolicyKind::kIvy, .seed = 13},
                           ServiceMode::kLive);
  support::Rng rng(917);
  for (int round = 0; round < 1000; ++round) {
    const std::size_t volley = 1 + rng.next_below(8);
    for (std::size_t i = 0; i < volley; ++i) {
      service.acquire(
          static_cast<service::ObjectId>(rng.next_below(kObjects)),
          static_cast<NodeId>(rng.next_below(g.node_count())));
    }
    const auto deadline = runtime::deadline_after(kNoLostNotify);
    ASSERT_TRUE(service.drain(kNoLostNotify)) << "round " << round;
    ASSERT_LT(runtime::EventCount::Clock::now(), deadline)
        << "round " << round;
    straddle_spin_before_park(rng);
  }
  EXPECT_EQ(service.satisfied_count(), service.submitted_count());
  service.shutdown();
  const auto report = service.check_sampled();
  EXPECT_TRUE(static_cast<bool>(report)) << report.first_failure;
}

TEST(ServiceLiveStress, AcquireAndWaitReturnsAfterItsOwnRequest) {
  // acquire_and_wait's target is the shard ring's claimed-ticket count,
  // read after the push. Each client requests only its own objects (object
  // = client mod 4), so once a wait returns, the satisfied observer must
  // have counted every request the client made for that object: a target
  // read before the push lets the wait return with its own request still
  // queued.
  const auto g = graph::make_grid(3, 3);
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kObjects = 6 * kClients;
  constexpr std::size_t kPerClient = 300;
  DirectoryService service(g, kObjects, 2, {.policy = proto::PolicyKind::kIvy},
                           ServiceMode::kLive);
  std::vector<std::atomic<std::uint64_t>> satisfied(kObjects);
  service.on_satisfied(
      [&satisfied](service::ObjectId object, const proto::RequestRecord&) {
        satisfied[object].fetch_add(1, std::memory_order_relaxed);
      });
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      support::Rng rng(300 + c);
      std::vector<std::uint64_t> mine(kObjects, 0);
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const auto object = static_cast<service::ObjectId>(
            c + kClients * rng.next_below(kObjects / kClients));
        service.acquire_and_wait(
            object, static_cast<NodeId>(rng.next_below(g.node_count())));
        ++mine[object];
        ASSERT_EQ(satisfied[object].load(std::memory_order_relaxed),
                  mine[object])
            << "client " << c << ", object " << object << ", request " << i;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_TRUE(service.drain(kWaitCeiling));
  EXPECT_EQ(service.satisfied_count(), kClients * kPerClient);
  service.shutdown();
}

TEST(ServiceLiveStress, AcquireAndWaitThreadsAndADrainerAllReturn) {
  // Several clients block in acquire_and_wait while one more drains in a
  // loop: every wait on the progress EventCount must return, whichever
  // shard's notify it needed.
  const auto g = graph::make_grid(3, 3);
  constexpr std::size_t kObjects = 32;
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 150;
  DirectoryService service(g, kObjects, 2, {.policy = proto::PolicyKind::kIvy},
                           ServiceMode::kLive);
  std::atomic<std::size_t> clients_done{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      support::Rng rng(200 + c);
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const auto object =
            static_cast<service::ObjectId>(rng.next_below(kObjects));
        const std::uint64_t before = service.processed_count();
        service.acquire_and_wait(
            object, static_cast<NodeId>(rng.next_below(g.node_count())));
        EXPECT_GT(service.processed_count(), before);
      }
      clients_done.fetch_add(1, std::memory_order_release);
    });
  }
  threads.emplace_back([&] {
    do {
      EXPECT_TRUE(service.drain(kWaitCeiling));
    } while (clients_done.load(std::memory_order_acquire) < kClients);
  });
  for (auto& t : threads) t.join();
  EXPECT_TRUE(service.drain(kWaitCeiling));
  EXPECT_EQ(service.submitted_count(), kClients * kPerClient);
  EXPECT_EQ(service.satisfied_count(), kClients * kPerClient);
  service.shutdown();
  const auto report = service.check_sampled();
  EXPECT_TRUE(static_cast<bool>(report)) << report.first_failure;
}

}  // namespace
