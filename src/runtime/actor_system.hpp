// A threaded actor runtime for the Arvy protocol family.
//
// A pool of worker threads, each owning a partition of the node actors. Every
// actor has a bounded MPSC RingMailbox of wire-encoded envelopes
// (proto/wire.hpp), and a worker drains its actors in batches: one wakeup
// consumes every ready slot, so the futex/CV handoff of the old
// one-thread-per-node design is amortized across a whole batch instead of
// paid per message. This is the "real asynchrony" counterpart of the
// discrete-event engine: interleavings come from the OS scheduler (optionally
// roughened with random sender-side jitter and in-batch shuffling), with the
// exact same protocol core.
//
// Hot path (all ARVY_HOT, checked by arvy_lint: no alloc/lock/throw/log):
//   enqueue: encode the envelope into a claimed ring slot (one CAS) + the
//   owner worker's EventCount::notify (a fence and a load); drain:
//   acquire_batch -> decode_envelope views -> core event -> deliver_effects
//   -> release_batch. A message costs no allocation: each actor builds and
//   re-addresses every find it sends in one scratch FindMessage reserved to
//   n entries (Theorem 4 bounds a history by n), and the core's one send is
//   encoded from there. The cold path boxes a copy of the envelope bytes: a
//   send that cannot enter its ring yet - the peer's ring is full, or a
//   fault verdict defers it - is held by the sending worker, which pushes
//   it on a later sweep once it is due (a worker must never block on a ring
//   it may drain itself).
//
// Threading contract (checked under ThreadSanitizer by the tier-1 suite):
//  - each core is touched only by the worker that owns its actor; the pool
//    has min(workers, node_count) threads (workers defaults to the usable
//    CPUs - 1, so a default pool leaves the caller a CPU), and with
//    workers == 1 the runtime is sequential and deterministic for a fixed
//    submission order;
//  - the policy object is cloned per node; cores also get per-node RNGs;
//  - the distance oracle is prewarmed before threads start and then only read;
//  - cost accounting is per-actor single-writer atomics (the owner worker of
//    the SENDING actor writes; readers sum). The writes are sequenced before
//    the ring publish of the message they charge for, so any observer that
//    saw the message's consequences sees the charge;
//  - every wait is a runtime::EventCount (runtime/event_count.hpp): each
//    worker parks on its own with a 2 ms backstop, or until its earliest
//    held frame is due, and producers notify it after each ring publish;
//    a worker whose due frame waits on a full ring yields instead of
//    parking; wait_for_satisfied_for waits on the system's
//    progress EventCount. The satisfied count is one single-writer counter
//    per worker, stored with release and summed with acquire loads, so a
//    waiter that sees its target also sees every write sequenced before the
//    satisfactions it counted - the cost charges included;
//  - a wait may poll first (runtime::spin_until for kSpinBeforePark), and
//    does so only when the pool's threads and one caller fit in the CPUs
//    the process may run on, decided once at construction. A worker polls
//    once when a productive sweep is followed by an empty one, never after
//    a wake that found nothing (a backstop wake parks again at once);
//    wait_for_satisfied_for polls before every park. The polled predicates read the same atomics the park re-checks,
//    so the poll adds no ordering of its own;
//  - request/wait_for_satisfied_for/satisfied_count may be called from any
//    thread; shutdown() must not race with request() (push-after-close
//    aborts) and node() is legal only after shutdown() has returned;
//  - all mutexes are rank-checked (support/lock_rank.hpp); none nest.
//
// Fault injection (Options::faults): the same faults::FaultInjector the
// simulator uses, serialized behind its own mutex, decides each send's fate.
// Deferred deliveries (retransmission backoff, pauses, storms, duplicate
// staggering) are held by the sending worker until their deadline; sim-time
// units scale to wall time via Options::fault_time_unit. Duplicate copies
// carry a dedup id and are discarded by the receiving actor if the group was
// already handled (at-least-once wire, exactly-once protocol core). Frames
// still held at shutdown are discarded.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_set>
#include <vector>

#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "graph/distance_oracle.hpp"
#include "graph/graph.hpp"
#include "proto/core.hpp"
#include "proto/init.hpp"
#include "proto/options.hpp"
#include "proto/policies.hpp"
#include "proto/wire.hpp"
#include "runtime/event_count.hpp"
#include "runtime/ring_mailbox.hpp"
#include "support/hot.hpp"
#include "support/lock_rank.hpp"

namespace arvy::runtime {

using graph::NodeId;

class ActorSystem {
 public:
  // Reads the transport fields of the unified arvy::Options (seed,
  // max_jitter, reorder_mailboxes, workers, batch_size, ring_capacity,
  // faults, retry, fault_time_unit). Protocol resolution (policy, initial
  // tree) is the facade's job: the policy and tree arrive resolved.
  ActorSystem(const graph::Graph& g, const proto::InitialConfig& init,
              const proto::NewParentPolicy& policy, Options options = {});
  ~ActorSystem();

  ActorSystem(const ActorSystem&) = delete;
  ActorSystem& operator=(const ActorSystem&) = delete;

  // Injects a token request at node v (processed on v's owner worker). The
  // caller must respect the model's rule: do not request at a node whose
  // previous request is still outstanding. Returns the request id. Applies
  // bounded-buffer backpressure (blocks while v's ring is full).
  proto::RequestId request(NodeId v);

  // Blocks until at least `count` requests (cumulative) are satisfied or
  // `timeout` elapses; returns whether the target was reached. Timed so a
  // liveness regression fails its caller instead of hanging it.
  [[nodiscard]] bool wait_for_satisfied_for(std::uint64_t count,
                                            std::chrono::milliseconds timeout);

  // Sum of the per-worker satisfied counters (acquire loads: a caller that
  // sees a count also sees what the counted satisfactions published).
  [[nodiscard]] std::uint64_t satisfied_count() const noexcept;
  [[nodiscard]] std::uint64_t submitted_count() const noexcept {
    return next_request_.load(std::memory_order_relaxed) - 1;
  }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return actors_.size();
  }
  [[nodiscard]] std::size_t worker_count() const noexcept {
    return workers_.size();
  }

  // Total distance-weighted traffic so far (find + token).
  [[nodiscard]] double total_cost() const;
  [[nodiscard]] double find_cost() const;
  [[nodiscard]] std::uint64_t find_messages() const;
  [[nodiscard]] std::uint64_t token_messages() const;

  // Snapshot of the injector's counters (zero-initialized when no faults
  // were declared). Callable from any thread.
  [[nodiscard]] faults::FaultStats fault_stats() const;

  // Stops all worker threads. Callers should wait_for_satisfied_for first so
  // the network is quiescent; frames already in a ring are still drained,
  // frames still held by a worker are dropped.
  void shutdown();

  // Post-shutdown inspection (threads joined, single-threaded again).
  [[nodiscard]] const proto::ArvyCore& node(NodeId v) const;
  [[nodiscard]] bool is_shut_down() const noexcept {
    return shut_down_.load(std::memory_order_acquire);
  }

 private:
  using Clock = EventCount::Clock;

  // Boxed copy of one ring envelope (the bytes a slot would hold) that its
  // sender's worker holds until it can enter the destination's ring.
  struct Held {
    NodeId to = graph::kInvalidNode;
    std::vector<std::byte> frame;
  };

  // One drain-side thread; producers notify `park` after publishing to
  // any ring of its partition.
  struct Worker {
    std::vector<NodeId> actors;  // owned partition, round-robin by id
    std::thread thread;
    EventCount park;
    // Requests this worker's actors satisfied (see satisfied_count).
    std::atomic<std::uint64_t> satisfied{0};  // ARVY-ATOMIC(single-writer)
    std::vector<std::uint32_t> shuffle;  // reorder_mailboxes batch scratch
    // Frames this worker's actors sent that are not in a ring yet, by due
    // time (FIFO among equal ones): a full peer ring holds a frame due at
    // once, a fault verdict one due at its deadline. Only this worker
    // touches it.
    std::multimap<Clock::time_point, Held> held;
  };

  struct NodeActor {
    NodeId id = graph::kInvalidNode;
    Worker* owner = nullptr;
    std::unique_ptr<proto::NewParentPolicy> policy;
    std::unique_ptr<support::Rng> rng;
    // The core's persistent state (p(v) and the bridge flag): the actor's
    // own words, so no two actors' cores share storage.
    proto::NodeCell cell;
    std::unique_ptr<proto::ArvyCore> core;
    // Bounded ring of flat wire envelopes.
    std::optional<RingMailbox> ring;
    support::Rng jitter_rng{0};
    // Every find this actor receives is decoded into, and every find it
    // sends is built or re-addressed in, this scratch. visited is reserved
    // to the node count up front, so neither ever reallocates.
    proto::FindMessage scratch_find;
    // Dedup groups whose first copy arrived and whose second has not;
    // touched only by the owner worker.
    std::unordered_set<std::uint64_t> handled_dups;
    // Cost accounting for messages SENT by this actor. Single writer (the
    // owner worker), so load+store with relaxed ordering is exact; readers
    // sum across actors. Padded apart by the surrounding unique_ptr graph.
    std::atomic<double> find_cost{0.0};           // ARVY-ATOMIC(single-writer)
    std::atomic<double> token_cost{0.0};          // ARVY-ATOMIC(single-writer)
    std::atomic<std::uint64_t> find_messages{0};  // ARVY-ATOMIC(single-writer)
    std::atomic<std::uint64_t> token_messages{0};  // ARVY-ATOMIC(single-writer)
  };

  void run_worker(Worker& worker);
  // Drains up to batch_size ready ring slots of one actor. Returns whether
  // anything was processed.
  bool drain_actor(Worker& worker, NodeActor& actor);
  // Decodes and dispatches one ring envelope on the owner worker.
  void process_frame(NodeActor& actor, const std::byte* slot);
  // Counts a satisfaction and sends the event's at most one message; a find
  // is read from the actor's scratch.
  void deliver_effects(NodeActor& from, const proto::Effects& effects);
  // Hot enqueue of `from`'s send into the destination's ring; holds it on
  // the sending worker when full, drops it (accepted loss) when closed.
  void enqueue_protocol(const NodeActor& from, const proto::Effects& send,
                        std::uint64_t dedup);
  // Boxes `from`'s send on its owner worker until `due`. ARVY_COLD keeps it
  // (and the std:: machinery it drags in) out of the callers' .text.hot
  // sections, so the binary audit sees the hot/cold boundary exactly where
  // the design puts it (see support/hot.hpp).
  ARVY_COLD void hold(const NodeActor& from, const proto::Effects& send,
                      std::uint64_t dedup, Clock::time_point due);
  // Pushes every due frame `worker` holds whose ring has room and drops
  // those whose ring is closed. Returns whether a due frame still waits on
  // a full ring.
  ARVY_COLD bool flush_held(Worker& worker);
  [[nodiscard]] bool worker_has_work(const Worker& worker) const;
  // First-arrival check for a duplicated send's dedup group (cold: the
  // hash-table insert may rehash, i.e. allocate).
  ARVY_COLD [[nodiscard]] bool first_arrival(NodeActor& actor,
                                             std::uint64_t dedup);
  // Routes `from`'s send through the fault injector (which must be active):
  // drops it, holds it until its deadline, and/or holds a duplicate copy.
  ARVY_COLD void send_with_faults(const NodeActor& from,
                                  const proto::Effects& send, double distance);
  // Current fault-schedule time: wall time since construction, in sim-time
  // units (fault_time_unit).
  [[nodiscard]] double fault_now() const;
  // Counts one satisfaction on `worker` (the caller) and notifies progress_.
  ARVY_HOT void note_satisfied(Worker& worker);

  graph::DistanceOracle oracle_;
  Options options_;
  std::vector<std::unique_ptr<NodeActor>> actors_;
  std::vector<std::unique_ptr<Worker>> workers_;

  std::atomic<std::uint64_t> next_request_{1};  // ARVY-ATOMIC(counter)
  EventCount progress_;  // notified on every satisfaction

  // Fault machinery; all null/idle when options.faults is empty.
  std::unique_ptr<faults::FaultInjector> injector_;  // guarded by faults_mutex_
  mutable support::RankedMutex faults_mutex_{support::lock_rank::kFaults,
                                             "actor-faults"};
  std::atomic<std::uint64_t> next_dedup_{1};  // ARVY-ATOMIC(counter)
  std::chrono::steady_clock::time_point start_;

  // Set (before rings close) to tell workers to exit once their partition
  // has no remaining work; workers drain everything already published first.
  std::atomic<bool> stopping_{false};  // ARVY-ATOMIC(flag)
  // False until shutdown() has joined every worker; the join provides the
  // happens-before edge that makes post-shutdown core inspection safe.
  std::atomic<bool> shut_down_{false};  // ARVY-ATOMIC(flag)
  // Whether waits poll before they park (spin_fits over the workers and
  // one caller); set before the threads start.
  bool spin_ = false;
};

}  // namespace arvy::runtime
