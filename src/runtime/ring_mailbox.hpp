// A bounded MPSC ring buffer of fixed-stride cells: the zero-alloc mailbox
// of the threaded runtime (roadmap item 2).
//
// A mutex-guarded mailbox paid a mutex + condition variable + std::deque
// node per message; this ring pays one CAS, and a hop moves the frame's
// cache lines with its sequence word riding in the first of them. Messages
// cross it as
// flat wire-encoded frames (proto/wire.hpp), written in place by the
// producer and read in place by the consumer, so the actor-to-actor path
// performs no allocation at all - the slab is sized once at construction.
//
// Design (Vyukov bounded-queue tickets, specialized to one consumer):
//  - every cell is a sequence word followed by its frame; cell i is
//    writable for ticket t when seq == t, readable when seq == t + 1, and
//    recycled by the consumer to seq = t + capacity for the next lap;
//  - producers claim a ticket with a CAS on tail_ (the CAS, not a blind
//    fetch_add, is what lets try_push report kFull without stranding a
//    ticket the consumer would wait on forever);
//  - the single consumer drains in BATCHES: acquire_batch scans forward from
//    head over published cells, the caller processes them in place, and
//    release_batch recycles the whole run - one head advance amortized over
//    the batch instead of a CV handshake per message.
//
// Cell layout. The word heads its cell, so the line a consumer loads to
// test the word already holds the frame's first bytes: a hop moves one
// line where a separate word array and frame slab moved two. The frame
// size alone fixes the cell size, 8 bytes of word plus the frame:
//  - at most 64 bytes: rounded up to a power of two, so a cell never
//    straddles a line (the service's 16-byte ObjectRequest: 32-byte cells);
//  - more: rounded up to whole lines, so every cell starts on one (a
//    64-node ring's 296-byte envelope: 320-byte cells, whose first line
//    holds the word, the 40-byte envelope header and four visited entries).
// The slab is 64-byte aligned. docs/ARCHITECTURE.md section 6 has the
// measurements behind both rules.
//
// Memory-order contract (the cell lifecycle, checked under TSan by
// tests/test_concurrency_stress.cpp):
//
//    producer                                consumer
//    --------                                --------
//    s = seq[t].load(acquire)   // writable?
//    CAS tail_: t -> t+1 (relaxed)
//    ...write frame bytes...
//    seq[t].store(t+1, release) ----------→  seq[h].load(acquire) == h+1
//                                            ...read frame bytes...
//                               ←----------  seq[h].store(h+cap, release)
//    (next-lap producer's acquire load of seq pairs with that store, so the
//    consumer's reads finish before the frame is overwritten)
//
// The release/acquire pair on the cell's sequence word is the only
// synchronization the frame needs; head_ and tail_ use relaxed ordering
// because neither is ever used to justify reading frame bytes.
//
// Close protocol (the shutdown contract of the mutex-guarded mailbox it
// replaced):
//  - close() is sticky; after it, try_push/push return kClosed/false and the
//    frame is NOT enqueued;
//  - the consumer keeps draining published cells after close (close drains,
//    then stops) - a producer that won its CAS before observing close
//    completes its write and the frame is either drained or is part of the
//    documented accepted loss of a non-quiescent shutdown;
//  - push (blocking, for external submitters) spins with yield on a full
//    ring - bounded-buffer backpressure - and fails only on close.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <thread>

#include "support/assert.hpp"
#include "support/hot.hpp"

namespace arvy::runtime {

enum class PushResult : std::uint8_t { kOk = 0, kFull = 1, kClosed = 2 };

class RingMailbox {
 public:
  // Where a cell's frame starts: right after its sequence word.
  static constexpr std::size_t kFrameOffset = sizeof(std::uint64_t);

  // `capacity` is rounded up to a power of two; `slot_bytes` is the frame
  // budget per message (callers size it so the largest legal wire envelope
  // fits - see wire::envelope_bytes) and alone fixes the cell size. The
  // slab is the only allocation this class ever performs.
  RingMailbox(std::size_t capacity, std::size_t slot_bytes)
      : cell_bytes_(cell_bytes_for(slot_bytes)) {
    ARVY_EXPECTS(capacity >= 2);
    ARVY_EXPECTS(slot_bytes > 0);
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    capacity_ = cap;
    mask_ = cap - 1;
    slab_ = std::make_unique<Line[]>((cap * cell_bytes_ + kLineBytes - 1) /
                                     kLineBytes);
    for (std::size_t i = 0; i < cap; ++i) {
      ::new (cell(i)) std::atomic<std::uint64_t>(i);
    }
  }

  RingMailbox(const RingMailbox&) = delete;
  RingMailbox& operator=(const RingMailbox&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  // The frame budget of a cell: at least the slot_bytes asked for, plus
  // whatever the cell rounding left over.
  [[nodiscard]] std::size_t slot_bytes() const noexcept {
    return cell_bytes_ - kFrameOffset;
  }

  // Non-blocking multi-producer enqueue. Claims a cell, invokes
  // fill(frame_pointer) to write at most slot_bytes() bytes, publishes.
  // kFull when the ring has no free cell (the caller applies its own
  // backpressure or overflow policy), kClosed after close().
  template <typename Fill>
  ARVY_HOT PushResult try_push(Fill&& fill) {
    if (closed_.load(std::memory_order_acquire)) return PushResult::kClosed;
    std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      std::atomic<std::uint64_t>& seq = seq_word(pos);  // ARVY-ATOMIC(vyukov-slot)
      const std::uint64_t s = seq.load(std::memory_order_acquire);
      const auto diff =
          static_cast<std::int64_t>(s) - static_cast<std::int64_t>(pos);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          fill(cell(pos) + kFrameOffset);
          seq.store(pos + 1, std::memory_order_release);
          return PushResult::kOk;
        }
        // CAS failure reloaded pos; retry against the new tail.
      } else if (diff < 0) {
        return PushResult::kFull;  // a full lap behind: no free cell
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  // Blocking enqueue for external submitters: spins (with yield) on a full
  // ring until space frees up - bounded-buffer backpressure - and returns
  // false only when the ring is closed. Losing a user's request silently is
  // a bug, so callers assert on the return value.
  template <typename Fill>
  ARVY_HOT [[nodiscard]] bool push(Fill&& fill) {
    for (std::uint32_t spins = 0;; ++spins) {
      const PushResult r = try_push(fill);
      if (r == PushResult::kOk) return true;
      if (r == PushResult::kClosed) return false;
      if (spins >= kSpinsBeforeYield) std::this_thread::yield();
    }
  }

  // Tickets claimed so far (a relaxed read of tail_). A producer that reads
  // it after its own push returned gets more than its frame's ticket: its
  // CAS came first in tail_'s modification order. The consumer drains in
  // ticket order, so once it has consumed that many frames, the
  // producer's is among them.
  [[nodiscard]] std::uint64_t claimed() const noexcept {
    return tail_.load(std::memory_order_relaxed);
  }

  // --- single-consumer batch interface --------------------------------------

  // True when at least one published frame is ready (callable from any
  // thread as a hint; exact only for the consumer).
  [[nodiscard]] ARVY_HOT bool has_ready() const {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    return seq_word(head).load(std::memory_order_acquire) == head + 1;
  }

  // Scans forward from head over published cells and returns the run length
  // (<= max). The cells stay claimed - read them with batch_slot - until
  // release_batch recycles the whole run. Consumer-only.
  [[nodiscard]] ARVY_HOT std::size_t acquire_batch(std::size_t max) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::size_t n = 0;
    while (n < max && seq_word(head + n).load(std::memory_order_acquire) ==
                          head + n + 1) {
      ++n;
    }
    return n;
  }

  // Frame bytes of the k-th cell of the batch acquired above. Consumer-only.
  [[nodiscard]] ARVY_HOT const std::byte* batch_slot(std::size_t k) const {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    return cell(head + k) + kFrameOffset;
  }

  // Recycles the first `n` cells of the acquired batch for the producers'
  // next lap and advances head. Consumer-only.
  ARVY_HOT void release_batch(std::size_t n) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    for (std::size_t k = 0; k < n; ++k) {
      seq_word(head + k).store(head + k + capacity_,
                               std::memory_order_release);
    }
    head_.store(head + n, std::memory_order_release);
  }

  // Sticky. Producers observe kClosed/false; the consumer drains whatever
  // was published, then sees an empty ring. Wakeups are the owner's job
  // (the runtime parks workers, not rings). Release pairs with try_push's
  // acquire load; nothing about close participates in a Dekker-style
  // store/load protocol, so seq_cst (the previous order) bought nothing.
  void close() { closed_.store(true, std::memory_order_release); }

  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

  // Claimed-but-not-yet-consumed frame count; approximate under concurrency
  // (test/diagnostic use only). The tail read is relaxed like every other
  // ticket access: neither counter justifies reading frame bytes, and an
  // approximate difference needs no ordering at all.
  [[nodiscard]] std::size_t approx_size() const {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<std::size_t>(tail - head) : 0;
  }

 private:
  static constexpr std::uint32_t kSpinsBeforeYield = 64;
  // The cache line the cell-size rules are about, and the slab's alignment.
  static constexpr std::size_t kLineBytes = 64;

  // The slab's unit: one line, so new[] hands back line-aligned storage.
  struct alignas(kLineBytes) Line {
    std::byte bytes[kLineBytes];
  };

  // The word plus the frame, rounded per the layout rules in the header.
  static constexpr std::size_t cell_bytes_for(std::size_t frame_bytes) {
    const std::size_t raw = kFrameOffset + frame_bytes;
    return raw <= kLineBytes ? std::bit_ceil(raw)
                             : (raw + kLineBytes - 1) & ~(kLineBytes - 1);
  }

  // First byte of the cell of `ticket`.
  [[nodiscard]] std::byte* cell(std::uint64_t ticket) const noexcept {
    return reinterpret_cast<std::byte*>(slab_.get()) +
           (ticket & mask_) * cell_bytes_;
  }

  // The sequence word heading the cell of `ticket` (the release/acquire
  // publish protocol above), constructed in place by the constructor.
  // ARVY-ATOMIC(vyukov-slot)
  [[nodiscard]] std::atomic<std::uint64_t>& seq_word(
      std::uint64_t ticket) const noexcept {
    return *std::launder(
        reinterpret_cast<std::atomic<std::uint64_t>*>(cell(ticket)));
  }

  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  std::size_t cell_bytes_;
  std::unique_ptr<Line[]> slab_;

  // Producers and consumer on separate cache lines; head_ is atomic only so
  // approx_size/has_ready may peek from other threads. tail_ is a pure
  // ticket counter (relaxed CAS); head_ is single-writer (the consumer).
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // ARVY-ATOMIC(ticket)
  alignas(64) std::atomic<std::uint64_t> head_{0};  // ARVY-ATOMIC(single-writer)
  alignas(64) std::atomic<bool> closed_{false};     // ARVY-ATOMIC(flag)
};

}  // namespace arvy::runtime
