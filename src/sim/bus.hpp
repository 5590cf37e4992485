// A generic asynchronous message bus for protocol simulation.
//
// The bus models the paper's network (§3): point-to-point messages between
// arbitrary node pairs (routing is solved), arbitrary finite delays, no
// loss, no duplication. It is templated on the message type so protocol
// layers and substrate tests can each use their own payloads.
//
// Delivery order is controlled by a Discipline (see sim/delivery.hpp).
// Whatever the discipline, every sent message is delivered exactly once
// before the bus reports idle - the "reliable network" assumption.
//
// Fault injection hooks through one seam: an optional SendFilter consulted
// once per send (see set_send_filter). The filter can declare the message
// permanently lost, add delivery delay (retransmission backoff, latency
// storms), or request duplicate copies; duplicated copies share a dedup
// group and only the first delivered copy reaches the handler (at-least-once
// wire, exactly-once handler - the standard transport dedup). With no filter
// installed the send path is bit-identical to the filter-free bus, which is
// what keeps golden schedules stable (test_golden_schedule).
//
// Internals: in-flight messages live in a slot arena recycled through a
// free list, so steady-state traffic performs no per-message heap
// allocation (the payload's own buffers are moved, never copied). Send
// order is tracked by a window of slot indices keyed by message id with a
// Fenwick tree counting the live entries, which makes every discipline's
// pick O(log live) or better: kFifo/kLifo/kRandom select the k-th live
// message in send order by Fenwick descent (the seed implementation paid
// O(live) per kRandom pick via std::advance on a std::map), and kTimed
// keeps its lazy min-heap. Delivery semantics are bit-identical to the
// map-based implementation: kRandom draws the same index-in-send-order for
// a given seed, so recorded schedules replay unchanged (guarded by
// test_replay and test_golden_schedule).
#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "sim/delivery.hpp"
#include "sim/time.hpp"
#include "support/assert.hpp"
#include "support/hot.hpp"
#include "support/rng.hpp"

namespace arvy::sim {

using graph::NodeId;
using MessageId = std::uint64_t;

template <typename Msg>
class MessageBus {
 public:
  struct InFlight {
    MessageId id = 0;
    NodeId from = graph::kInvalidNode;
    NodeId to = graph::kInvalidNode;
    Msg payload{};
    Time deliver_at = 0.0;
    double distance = 0.0;
    // Non-zero when this message was duplicated in flight: the id of the
    // primary copy. Only the first delivered copy of a group is handled.
    MessageId dup_group = 0;
  };

  // A trivially copyable payload must keep the whole in-flight record
  // trivially copyable - the contract roadmap item 2's flat wire frames
  // (proto/wire.hpp) build on. Checked at instantiation, so a substrate
  // with a POD message type cannot silently lose the property.
  static_assert(std::is_trivially_copyable_v<InFlight> ||
                !std::is_trivially_copyable_v<Msg>);

  // Called when a message is delivered. The entry is the bus's own copy,
  // already retired from the arena, so the handler may move its payload
  // straight back into send() (a forwarded message keeps its buffers); a
  // handler taking `const InFlight&` binds as well.
  using Handler = std::function<void(InFlight&)>;

  // Consulted once per send() when installed; see the header comment.
  using SendFilter = std::function<SendVerdict(
      NodeId from, NodeId to, const Msg& payload, Time now, double distance)>;

  struct Options {
    Discipline discipline = Discipline::kTimed;
    std::uint64_t seed = 1;
    // Only used with Discipline::kTimed; defaults to the distance model.
    std::unique_ptr<DelayModel> delay;
    // Required for Discipline::kScripted: the delivery order to replay.
    Schedule script;
    // When true, every delivered message id is appended to schedule() -
    // record under any discipline, replay under kScripted.
    bool record_schedule = false;
  };

  explicit MessageBus(Options options)
      : discipline_(options.discipline),
        rng_(options.seed),
        delay_(options.delay ? std::move(options.delay)
                             : make_distance_delay()),
        script_(std::move(options.script)),
        record_schedule_(options.record_schedule) {
    ARVY_EXPECTS(discipline_ != Discipline::kScripted || !script_.empty());
  }

  void set_handler(Handler handler) { handler_ = std::move(handler); }

  // Installs the fault-injection seam. Pass nullptr to remove. The filter
  // runs on the caller's thread inside send(); it must not re-enter the bus.
  void set_send_filter(SendFilter filter) { filter_ = std::move(filter); }

  // Enqueues a message; `distance` is the shortest-path distance the message
  // will traverse (cost accounting is the caller's concern; the bus uses it
  // only for the timed delay model). Returns the message id, or 0 when an
  // installed SendFilter declared the message permanently lost.
  MessageId send(NodeId from, NodeId to, Msg payload, double distance = 0.0) {
    if (!filter_) return enqueue(from, to, std::move(payload), distance, 0.0, 0);
    const SendVerdict verdict = filter_(from, to, payload, now_, distance);
    if (verdict.lost) {
      ++lost_;
      return 0;
    }
    if (verdict.duplicates == 0) {
      return enqueue(from, to, std::move(payload), distance,
                     verdict.extra_delay, 0);
    }
    // The primary copy's id names the dedup group (it is enqueued first, so
    // the group id equals the returned message id).
    const MessageId group = next_id_;
    const MessageId id =
        enqueue(from, to, payload, distance, verdict.extra_delay, group);
    for (std::uint32_t i = 0; i < verdict.duplicates; ++i) {
      // Copies trail the primary by one flight time each so that under
      // kTimed they are genuine reorder hazards, not instant ghosts.
      enqueue(from, to, payload, distance,
              verdict.extra_delay +
                  static_cast<double>(i + 1) * std::max(distance, 1.0),
              group);
    }
    groups_.emplace(group, Group{verdict.duplicates + 1, false});
    return id;
  }

  // Delivers one message per the discipline. Returns false when idle.
  bool step() {
    if (live_count_ == 0) return false;
    deliver_locked(pick_next());
    return true;
  }

  // Delivers a specific in-flight message (used by scripted replays such as
  // the Figure 1 trace).
  void deliver(MessageId id) {
    ARVY_EXPECTS_MSG(lookup(id) != kNoSlot, "unknown or delivered message");
    deliver_locked(id);
  }

  // FAULT INJECTION: silently discards an in-flight message. This violates
  // the model's reliability assumption (§3: "messages ... are never lost")
  // on purpose - the negative tests use it to show the assumption is
  // load-bearing (a lost find or token breaks liveness).
  void drop(MessageId id) {
    const std::uint32_t slot = lookup(id);
    ARVY_EXPECTS_MSG(slot != kNoSlot, "unknown or delivered message");
    const MessageId group = slots_[slot].entry.dup_group;
    release(id, slot);
    if (group != 0) retire_group_copy(group, /*delivered=*/false);
    ++dropped_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  // Messages a SendFilter declared permanently lost (never enqueued).
  [[nodiscard]] std::uint64_t lost() const noexcept { return lost_; }
  // Deliveries suppressed because an earlier copy of the same dedup group
  // already reached the handler.
  [[nodiscard]] std::uint64_t suppressed() const noexcept {
    return suppressed_;
  }

  // True when `entry` (still pending) is a duplicate copy whose group has
  // already been handled: it is on the wire but semantically absent. The
  // configuration capture skips such ghosts.
  [[nodiscard]] bool logically_delivered(const InFlight& entry) const {
    if (entry.dup_group == 0) return false;
    const auto it = groups_.find(entry.dup_group);
    return it != groups_.end() && it->second.delivered;
  }

  // The recorded delivery order (empty unless Options::record_schedule).
  [[nodiscard]] const Schedule& schedule() const noexcept { return recorded_; }

  // Runs until no message is in flight. `max_steps` guards against protocol
  // bugs that would generate messages forever.
  void run_until_idle(std::size_t max_steps = 10'000'000) {
    std::size_t steps = 0;
    while (step()) {
      ARVY_ASSERT_MSG(++steps <= max_steps, "message bus failed to quiesce");
    }
  }

  [[nodiscard]] std::size_t in_flight_count() const noexcept {
    return live_count_;
  }
  [[nodiscard]] bool idle() const noexcept { return live_count_ == 0; }
  [[nodiscard]] Time now() const noexcept { return now_; }
  [[nodiscard]] std::uint64_t deliveries() const noexcept { return deliveries_; }

  // --- Enumeration seam (tools/arvy_explore) -------------------------------
  // Under the paper's network model (§3: arbitrary finite delays) every
  // in-flight message may legally be the next one delivered, so the set of
  // deliverable messages is exactly the live set. Returns their ids in send
  // order - stable across replays, no rng draws, no mutation - so a
  // systematic explorer can enumerate the choices and apply one via
  // deliver(id) (or drop(id) for a fault choice point). The priority
  // disciplines above are untouched: enumerating cannot perturb a recorded
  // or golden schedule (pinned by test_sim_bus).
  [[nodiscard]] std::vector<MessageId> deliverable_ids() const {
    std::vector<MessageId> out;
    out.reserve(live_count_);
    for (const std::uint32_t slot : window_) {
      if (slot != kNoSlot) out.push_back(slots_[slot].entry.id);
    }
    return out;
  }

  // Snapshot of in-flight messages in send order (stable ids). Used by the
  // invariant checker to reconstruct red edges. The pointers are invalidated
  // by the next send (the arena may grow); copy what you need.
  [[nodiscard]] std::vector<const InFlight*> pending() const {
    std::vector<const InFlight*> out;
    out.reserve(live_count_);
    for (const std::uint32_t slot : window_) {
      if (slot != kNoSlot) out.push_back(&slots_[slot].entry);
    }
    return out;
  }

  // The earliest pending delivery - smallest deliver_at, ties by send order
  // - or nullptr when idle, without materializing a pending() snapshot.
  // Tie-break contract (pinned by test_sim_bus so the enumeration seam can
  // never silently change priority-mode schedules): message ids are assigned
  // in send order, and the timed heap orders equal deliver_at by ascending
  // id, so colliding timestamps deliver oldest-send first. Under kTimed and
  // kFifo the peeked message is exactly what the next step() delivers; under
  // kLifo/kRandom peek() still reports the *oldest* live message (the
  // earliest deliver_at), which step()'s pick may ignore.
  // Amortized O(1); the pointer is invalidated by the next send/delivery.
  [[nodiscard]] ARVY_HOT const InFlight* peek() {
    if (live_count_ == 0) return nullptr;
    if (discipline_ == Discipline::kTimed) {
      return &slots_[heap_top_slot()].entry;
    }
    // Outside kTimed, deliver_at is the clock at send time, which never
    // decreases: the earliest pending delivery is the oldest live message.
    return &slots_[window_[select_live(0)]].entry;
  }

  // Time of the earliest pending delivery, +infinity when idle. Lets
  // drivers interleave timed arrivals without scanning the pending set.
  [[nodiscard]] Time next_deliver_at() {
    const InFlight* head = peek();
    return head != nullptr ? head->deliver_at
                           : std::numeric_limits<Time>::infinity();
  }

  // Advances the logical clock without delivering (used by drivers to space
  // out request arrivals under the timed discipline).
  void advance_time(Time to) {
    ARVY_EXPECTS(to >= now_);
    now_ = to;
  }

 private:
  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

  struct Slot {
    InFlight entry{};
    std::uint32_t next_free = kNoSlot;
  };

  ARVY_HOT MessageId pick_next() {
    ARVY_ASSERT(live_count_ > 0);
    switch (discipline_) {
      case Discipline::kFifo:
        return slots_[window_[select_live(0)]].entry.id;
      case Discipline::kLifo:
        return slots_[window_[select_live(live_count_ - 1)]].entry.id;
      case Discipline::kRandom: {
        // Same draw as the seed implementation: a uniform index into the
        // live set ordered by send order (schedules replay bit-for-bit).
        const auto index = rng_.next_below(live_count_);
        return slots_[window_[select_live(index)]].entry.id;
      }
      case Discipline::kTimed:
        return slots_[heap_top_slot()].entry.id;
      case Discipline::kScripted: {
        ARVY_ASSERT_MSG(script_position_ < script_.size(),
                        "replay schedule exhausted with messages pending");
        const MessageId id = script_[script_position_++];
        ARVY_ASSERT_MSG(lookup(id) != kNoSlot,
                        "replay schedule does not match this run's sends");
        return id;
      }
    }
    ARVY_UNREACHABLE("bad discipline");
  }

  void deliver_locked(MessageId id) {
    const std::uint32_t slot = lookup(id);
    ARVY_ASSERT(slot != kNoSlot);
    InFlight entry = std::move(slots_[slot].entry);
    release(id, slot);
    now_ = std::max(now_, entry.deliver_at);
    ++deliveries_;
    if (record_schedule_) recorded_.push_back(id);
    if (entry.dup_group != 0 && retire_group_copy(entry.dup_group, true)) {
      ++suppressed_;  // an earlier copy already reached the handler
      return;
    }
    ARVY_ASSERT_MSG(handler_ != nullptr, "no handler installed");
    handler_(entry);
  }

  // Internal send path shared by the plain and filtered cases.
  MessageId enqueue(NodeId from, NodeId to, Msg payload, double distance,
                    Time extra_delay, MessageId group) {
    const MessageId id = next_id_++;
    const std::uint32_t slot = acquire_slot();
    InFlight& entry = slots_[slot].entry;
    entry.id = id;
    entry.from = from;
    entry.to = to;
    entry.payload = std::move(payload);
    entry.distance = distance;
    entry.dup_group = group;
    entry.deliver_at =
        now_ + (discipline_ == Discipline::kTimed
                    ? delay_->delay(from, to, distance, rng_) + extra_delay
                    : 0.0);
    ++live_count_;
    push_order(slot);
    if (discipline_ == Discipline::kTimed) {
      timed_heap_.push({entry.deliver_at, id});
    }
    return id;
  }

  // Retires one copy of a dedup group; returns whether the group had
  // already been handled before this copy (i.e. this copy is a ghost).
  bool retire_group_copy(MessageId group, bool delivered) {
    const auto it = groups_.find(group);
    ARVY_ASSERT(it != groups_.end());
    const bool was_delivered = it->second.delivered;
    if (delivered) it->second.delivered = true;
    if (--it->second.remaining == 0) groups_.erase(it);
    return was_delivered;
  }

  // --- Slot arena ----------------------------------------------------------

  std::uint32_t acquire_slot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = slots_[slot].next_free;
      return slot;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  // Slot index for a live message id, kNoSlot when unknown or delivered.
  [[nodiscard]] ARVY_HOT std::uint32_t lookup(MessageId id) const {
    if (id < window_base_id_) return kNoSlot;
    const auto w = static_cast<std::size_t>(id - window_base_id_);
    if (w >= window_.size()) return kNoSlot;
    return window_[w];
  }

  // Retires a message: frees its slot and clears its send-order position.
  ARVY_HOT void release(MessageId id, std::uint32_t slot) {
    const auto w = static_cast<std::size_t>(id - window_base_id_);
    window_[w] = kNoSlot;
    fenwick_add(w, false);
    slots_[slot].next_free = free_head_;
    free_head_ = slot;
    --live_count_;
    if (live_count_ == 0) {
      // Every Fenwick increment has been matched by a decrement, so the
      // tree is all-zero: restart the window at the next id for free.
      window_.clear();
      window_base_id_ = next_id_;
      return;
    }
    maybe_trim();
  }

  // --- Send-order window + Fenwick index -----------------------------------
  //
  // window_[id - window_base_id_] is the slot of message `id` (kNoSlot once
  // retired); fenwick_ counts live entries so the k-th live message in send
  // order is found by binary descent. The window only ever grows at the
  // back; dead prefixes are trimmed once they cover half the window, and
  // the whole window resets whenever the bus drains, so its footprint
  // tracks the live population (a pathological forever-undelivered oldest
  // message would pin it, but the reliability assumption - and
  // run_until_idle - drain every message).

  void push_order(std::uint32_t slot) {
    window_.push_back(slot);
    if (window_.size() > fenwick_cap_) {
      rebuild_fenwick();  // doubles capacity; counts the new entry
    } else {
      fenwick_add(window_.size() - 1, true);
    }
  }

  ARVY_HOT void fenwick_add(std::size_t pos, bool add) {
    for (std::size_t i = pos + 1; i <= fenwick_cap_; i += i & (~i + 1)) {
      fenwick_[i] += add ? 1u : ~0u;  // unsigned -1
    }
  }

  // Position in window_ of the (k+1)-th live entry; precondition k < live.
  [[nodiscard]] ARVY_HOT std::size_t select_live(std::size_t k) const {
    std::size_t idx = 0;
    std::size_t remaining = k + 1;
    for (std::size_t step = fenwick_cap_; step > 0; step >>= 1) {
      const std::size_t next = idx + step;
      if (next <= fenwick_cap_ && fenwick_[next] < remaining) {
        idx = next;
        remaining -= fenwick_[next];
      }
    }
    ARVY_ASSERT(idx < window_.size());
    return idx;
  }

  // Amortized: runs once per capacity doubling (push side) or per trimmed
  // half-window (release side), never per message. ARVY_COLD keeps the
  // assign()'s allocation out of the hot sections the object audit walks.
  ARVY_COLD void rebuild_fenwick() {
    std::size_t cap = 64;
    while (cap < window_.size()) cap *= 2;
    fenwick_cap_ = cap;
    fenwick_.assign(cap + 1, 0);
    for (std::size_t w = 0; w < window_.size(); ++w) {
      if (window_[w] != kNoSlot) fenwick_[w + 1] += 1;
    }
    for (std::size_t i = 1; i <= cap; ++i) {
      const std::size_t parent = i + (i & (~i + 1));
      if (parent <= cap) fenwick_[parent] += fenwick_[i];
    }
  }

  void maybe_trim() {
    if (window_.size() < 64) return;
    const std::size_t first = select_live(0);
    if (first * 2 < window_.size()) return;
    window_.erase(window_.begin(),
                  window_.begin() + static_cast<std::ptrdiff_t>(first));
    window_base_id_ += first;
    rebuild_fenwick();
  }

  // --- Timed discipline ----------------------------------------------------

  // Heap top that is still in flight (entries for messages delivered via
  // deliver(id) are discarded lazily).
  ARVY_HOT std::uint32_t heap_top_slot() {
    while (true) {
      ARVY_ASSERT(!timed_heap_.empty());
      const std::uint32_t slot = lookup(timed_heap_.top().second);
      if (slot == kNoSlot) {
        timed_heap_.pop();
        continue;
      }
      return slot;
    }
  }

  Discipline discipline_;
  support::Rng rng_;
  std::unique_ptr<DelayModel> delay_;
  Handler handler_;
  SendFilter filter_;

  struct Group {
    std::uint32_t remaining = 0;  // copies still on the wire
    bool delivered = false;       // some copy already reached the handler
  };
  std::unordered_map<MessageId, Group> groups_;

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_count_ = 0;
  std::vector<std::uint32_t> window_;
  std::vector<std::uint32_t> fenwick_;  // 1-indexed, fenwick_cap_ + 1 wide
  std::size_t fenwick_cap_ = 0;
  MessageId window_base_id_ = 1;

  using HeapEntry = std::pair<Time, MessageId>;
  struct HeapCompare {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const noexcept {
      // Earliest deliver_at first; ties broken by send order for determinism.
      return a.first > b.first || (a.first == b.first && a.second > b.second);
    }
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapCompare>
      timed_heap_;
  Schedule script_;
  std::size_t script_position_ = 0;
  bool record_schedule_ = false;
  Schedule recorded_;
  MessageId next_id_ = 1;
  Time now_ = 0.0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t suppressed_ = 0;
};

}  // namespace arvy::sim
