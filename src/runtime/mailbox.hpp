// An unbounded, non-blocking multi-producer mailbox: the runtime's overflow
// valve.
//
// ActorSystem's hot channel is the bounded RingMailbox. When a worker finds
// a peer's ring full it must not spin - it may be that ring's only drainer -
// so the frame spills, boxed, into the peer's Mailbox and the owner worker
// drains it with try_pop before its next batch. Nothing blocks on a
// Mailbox: the owner learns about spills through a flag and its EventCount,
// never by waiting here.
//
// Thread-safety contract (checked by tests/test_concurrency_stress.cpp
// under ThreadSanitizer):
//  - try_push / try_pop / close may be called from any thread;
//  - try_push discards the item and returns false once the box is closed
//    (in-flight traffic at a non-quiescent shutdown is the documented
//    accepted loss); items pushed before close stay poppable;
//  - FIFO per producer; the internal mutex is rank-checked
//    (support/lock_rank.hpp) and never held on return.
#pragma once

#include <deque>
#include <mutex>
#include <optional>

#include "support/lock_rank.hpp"

namespace arvy::runtime {

template <typename T>
class Mailbox {
 public:
  // Enqueues an item unless the box is closed; returns whether it did.
  [[nodiscard]] bool try_push(T item) {
    std::lock_guard<support::RankedMutex> lock(mutex_);
    if (closed_) return false;
    items_.push_back(std::move(item));
    return true;
  }

  // The oldest item, or nullopt when the box is currently empty.
  [[nodiscard]] std::optional<T> try_pop() {
    std::lock_guard<support::RankedMutex> lock(mutex_);
    std::optional<T> item;
    if (!items_.empty()) {
      item.emplace(std::move(items_.front()));
      items_.pop_front();
    }
    return item;
  }

  void close() {
    std::lock_guard<support::RankedMutex> lock(mutex_);
    closed_ = true;
  }

 private:
  support::RankedMutex mutex_{support::lock_rank::kMailbox, "mailbox"};
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace arvy::runtime
