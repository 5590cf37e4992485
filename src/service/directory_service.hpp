// DirectoryService: the sharded multi-object directory facade.
//
// The paper's §1 observes that "multiple independent instances of the
// distributed directory protocol in parallel can be used to coordinate
// access to multiple data items". The old MultiDirectory realized that as a
// flat vector of full Directory instances - one engine (and one distance
// oracle) per object, which tops out at thousands of objects. This service
// realizes it at ROADMAP item 1 scale (1M+ objects) with a control-plane /
// data-plane split:
//
//   caller ──acquire(object, node)──▶ RoutingTable (lock-free lookup)
//                                        │ shard id
//                                        ▼
//                              per-shard RingMailbox of POD ObjectRequest
//                                        │ batched drain
//                                        ▼
//                    shard worker: ONE reusable SimEngine + parked per-object
//                    trees (parent pointers + bridge bits + a seal: n bytes
//                    + 8 per object up to 256 nodes, 4·n + 8 above)
//
//  - Objects are hashed to shards at registration (RoutingTable: versioned
//    epoch-published snapshots, single control-plane writer, lock-free
//    readers). An object's shard never changes, so parked state never
//    migrates.
//  - Each shard owns ONE discrete-event engine; the expensive per-engine
//    state (distance oracle, bus, policy clone) is shard infrastructure.
//    Per-object protocol state lives in a compact row of the shard's slab,
//    one byte per parent on graphs of up to 256 nodes and a NodeId above:
//    the engine parks into it and adopts from it in place (SimEngine::
//    park_row/adopt_row; neither allocates). Park re-checks only the nodes
//    the burst touched and seals the row with a hash of its bytes; adopt
//    validates the whole tree only when the row's seal is missing (first
//    touch, re-seed) or no longer matches. A row is written from the
//    canonical tree on first touch, so resident memory scales with objects
//    actually used, not registered, and every adoption takes the same
//    path. Each shard finds a row through a flat open-addressing index.
//    The steady-state switch is ARVY_HOT; first touch (which alone grows
//    the index) and re-seed are its only cold parts.
//  - ServiceMode::kSim processes requests inline on the caller's thread:
//    deterministic, seedable, inspectable any time the service is quiescent.
//    ServiceMode::kLive pins one worker thread per shard, reusing the
//    runtime machinery (Vyukov MPSC ring admission, runtime::EventCount
//    parking), so independent shards satisfy requests in parallel.
//  - Faults: Options::faults is scoped per shard (FaultPlan::for_shard - the
//    `shards` selector plus per-shard seed decorrelation); each shard engine
//    owns an independent injector. A token permanently lost to injection
//    re-seeds that object from its canonical initial tree at the next park
//    (crash-recovery semantics; counted in recovery_count()).
//  - Verification: check_sampled() replays verify::check_all (Lemma 2) over
//    a sample of touched objects on every shard.
//
// Threading contract (kLive; kSim is single-threaded by construction):
//  - acquire/submit_batch/drain/counters are callable from any thread;
//    add_objects is the single control-plane writer (one thread at a time);
//  - observers must be installed before the first acquire;
//  - every wait is a runtime::EventCount: each shard worker parks on its own
//    (2 ms backstop) and is notified after each ring push; acquire_and_wait
//    and drain wait on the service's progress EventCount. A shard worker
//    polls its ring for runtime::kSpinBeforePark before it parks when a
//    busy spell just ended (runtime::poll_then_park, ActorSystem's rule),
//    and only if the shard threads and one caller fit the usable CPUs
//    (runtime::spin_fits, computed at construction). Callers park at
//    once. The processed count is one single-writer counter per shard,
//    stored with release after the request's observers ran and summed
//    with acquire loads, so a caller that returns from drain() may read
//    what its observers wrote;
//  - holder/check_sampled/shard inspection are legal in kSim whenever the
//    service is quiescent, and in kLive only after shutdown() (the joins
//    provide the happens-before edge, exactly like ActorSystem::node);
//  - fault_stats in kLive is exact after a successful drain() or after
//    shutdown(); add_shards is kSim-only (grow before construction in kLive);
//  - mutexes are rank-checked; none nest.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "proto/directory.hpp"
#include "proto/engine.hpp"
#include "proto/options.hpp"
#include "runtime/event_count.hpp"
#include "service/request.hpp"
#include "service/routing.hpp"
#include "support/hot.hpp"
#include "support/lock_rank.hpp"

namespace arvy {

enum class ServiceMode { kSim, kLive };

// Result of a sampled Lemma-2 sweep across shards.
struct ServiceCheckReport {
  std::size_t objects_checked = 0;
  std::size_t failures = 0;
  std::string first_failure;  // empty when failures == 0

  explicit operator bool() const noexcept { return failures == 0; }
};

class DirectoryService {
 public:
  using ObjectId = service::ObjectId;
  using MessageObserver =
      std::function<void(ObjectId, const MessageEvent&)>;
  using SatisfiedObserver =
      std::function<void(ObjectId, const proto::RequestRecord&)>;

  // `g` must outlive the service. Objects get dense ids [0, object_count);
  // grow later with add_objects. In kLive mode one worker thread is pinned
  // per shard (Options::workers is ignored: the shard count IS the worker
  // count).
  DirectoryService(const graph::Graph& g, std::size_t object_count,
                   std::size_t shard_count, Options options = {},
                   ServiceMode mode = ServiceMode::kSim);
  ~DirectoryService();

  DirectoryService(const DirectoryService&) = delete;
  DirectoryService& operator=(const DirectoryService&) = delete;

  // --- facade (AnyDirectory's contract, with an object axis) ----------------
  [[nodiscard]] std::size_t node_count() const noexcept;
  [[nodiscard]] std::size_t object_count() const;
  [[nodiscard]] std::size_t shard_count() const noexcept;
  [[nodiscard]] ServiceMode mode() const noexcept { return mode_; }

  // Asynchronous acquire: routed, ring-enqueued (kLive) or processed inline
  // (kSim). Returns the admission ticket (1-based, monotone). Requests for
  // one object are satisfied in admission order.
  std::uint64_t acquire(ObjectId object, graph::NodeId node);
  // Batched admission: every pair is routed and enqueued without per-request
  // allocation; returns the last ticket. Every node is checked before any
  // request is admitted.
  std::uint64_t submit_batch(std::span<const service::ObjectRequest> batch);
  // Synchronous acquire: returns once the request's shard has processed it.
  void acquire_and_wait(ObjectId object, graph::NodeId node);

  // Waits until every admitted request has been PROCESSED (satisfied, or
  // excused by a recorded permanent fault loss), or the wall budget elapses
  // (kSim quiesces inline, so the budget never binds there;
  // milliseconds::max() never elapses). Returns whether every admitted
  // request is satisfied.
  [[nodiscard]] bool drain(
      std::chrono::milliseconds budget = std::chrono::milliseconds(10'000));

  [[nodiscard]] std::uint64_t submitted_count() const noexcept;
  [[nodiscard]] std::uint64_t satisfied_count() const;
  [[nodiscard]] std::uint64_t processed_count() const;

  // Aggregate cost account across all shards (wait-free sum of per-shard
  // single-writer atomics, exact when quiescent).
  [[nodiscard]] proto::CostAccount cost_snapshot() const;
  [[nodiscard]] faults::FaultStats fault_stats() const;
  [[nodiscard]] faults::FaultStats shard_fault_stats(std::size_t shard) const;
  // Objects re-seeded from their canonical tree after a catastrophic loss.
  [[nodiscard]] std::uint64_t recovery_count() const;

  // --- observers (install before the first acquire) -------------------------
  void on_message(MessageObserver observer);
  void on_satisfied(SatisfiedObserver observer);

  // --- control plane (single writer) ----------------------------------------
  // Registers `count` more objects (ids continue densely). Callable while
  // kLive workers run: the routing table is grown by snapshot publication.
  void add_objects(std::size_t count);
  // Adds shards; existing object placements are untouched. kSim only.
  void add_shards(std::size_t count);
  [[nodiscard]] std::uint64_t routing_epoch() const;
  [[nodiscard]] ARVY_HOT std::uint32_t route(ObjectId object) const {
    return routing_.lookup(object);
  }

  // --- inspection (kSim: quiescent any time; kLive: after shutdown()) -------
  [[nodiscard]] std::optional<graph::NodeId> holder(ObjectId object) const;
  // Lemma-2 sweep over up to `per_shard` touched objects of every shard.
  [[nodiscard]] ServiceCheckReport check_sampled(std::size_t per_shard = 4,
                                                 std::uint64_t seed = 1);

  // Materialized (touched) objects / approximate bytes of parked state.
  [[nodiscard]] std::size_t resident_objects() const;
  [[nodiscard]] std::size_t resident_bytes() const;

  // Stops and joins the shard workers (kLive; a kSim no-op besides the
  // flag). Idempotent. No acquire may race or follow it.
  void shutdown();
  [[nodiscard]] bool is_shut_down() const noexcept {
    return shut_down_.load(std::memory_order_acquire);
  }

 private:
  struct Shard;

  // Spread cap for the canonical initial trees (memory is roots x nodes).
  static constexpr std::size_t kMaxCanonicalRoots = 32;

  void build_canonical();
  void install_message_hook(Shard& shard);
  [[nodiscard]] const proto::InitialConfig& canonical_config(
      ObjectId object) const;
  [[nodiscard]] std::uint64_t object_seed(ObjectId object) const noexcept;
  // `poll`: the shard's thread (kLive) polls before it parks.
  std::unique_ptr<Shard> make_shard(std::uint32_t index, bool poll);

  // Hot admission path: POD copy into the shard's ring + park notify.
  ARVY_HOT void enqueue(Shard& shard, const service::ObjectRequest& request);

  // Shard-worker side (the control thread plays worker in kSim).
  void run_shard(Shard& shard, bool poll);
  bool drain_ring(Shard& shard);
  void process_request(Shard& shard, ObjectId object, graph::NodeId node);
  // The object switch: steady state parks into and adopts from the shard's
  // rows in place; first touch and re-seed are its only cold parts.
  ARVY_HOT void switch_object(Shard& shard, ObjectId object);
  ARVY_HOT void park_loaded(Shard& shard);
  ARVY_COLD std::uint32_t first_touch(Shard& shard, ObjectId object);
  ARVY_COLD void reseed(Shard& shard);
  void flush_costs(Shard& shard);
  // Counts one processed request on `shard` and notifies progress_.
  ARVY_HOT void note_progress(Shard& shard);
  ARVY_COLD void copy_fault_stats(Shard& shard);

  const graph::Graph* graph_;
  Options options_;
  ServiceMode mode_;
  std::unique_ptr<proto::NewParentPolicy> policy_;
  // Canonical initial trees, one per spread root (a single entry for
  // PolicyKind::kBridge, whose Algorithm 2 split fixes the root). Built once
  // in the constructor, immutable afterwards (workers read concurrently).
  std::vector<proto::InitialConfig> canonical_;
  bool track_bridges_ = false;

  service::RoutingTable routing_;
  std::vector<std::unique_ptr<Shard>> shards_;

  MessageObserver message_observer_;
  SatisfiedObserver satisfied_observer_;

  // Each on its own cache line: the client bumps submitted_ on every
  // acquire, while every shard reads the observers on each satisfaction
  // and progress_'s waiter count on each processed request.
  alignas(64) std::atomic<std::uint64_t> submitted_{0};  // ARVY-ATOMIC(counter)
  // Notified on every processed request in kLive.
  alignas(64) runtime::EventCount progress_;
  // Guards each shard's fault_snapshot (kLive readers vs the shard worker).
  mutable support::RankedMutex stats_mutex_{support::lock_rank::kStats,
                                            "service-stats"};

  std::atomic<bool> stopping_{false};   // ARVY-ATOMIC(flag)
  std::atomic<bool> shut_down_{false};  // ARVY-ATOMIC(flag)
};

}  // namespace arvy
