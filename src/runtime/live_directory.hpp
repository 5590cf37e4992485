// LiveDirectory: the AnyDirectory facade over the threaded actor runtime.
//
// Same contract as the simulator-backed arvy::Directory - submit requests,
// drain, snapshot costs and fault stats - but execution is real OS
// asynchrony: a worker pool batch-draining per-node MPSC ring mailboxes of
// wire-encoded envelopes (Options::workers and batch_size pick the pool and
// batch sizes), wall-clock fault windows. Code written against AnyDirectory
// runs on either transport; the fault-matrix tests run the identical
// scenario list on both.
//
//   arvy::LiveDirectory dir(g, {.policy = arvy::proto::PolicyKind::kIvy,
//                               .faults = {.drop_find = 0.1},
//                               .retry = {.rto = 4.0}});
//   dir.acquire(3);
//   dir.acquire(6);
//   bool all = dir.drain(std::chrono::seconds(5));
//   dir.shutdown();
//
// The sim-only Options fields (discipline, delay, record_schedule) are
// ignored here: the OS scheduler is the delivery discipline.
//
// Threading contract: acquire, drain and the counters may be called from
// any thread; drain and acquire_and_wait wait on the runtime's progress
// EventCount (polling it briefly first when the pool leaves the caller a
// CPU), whose acquire-loaded satisfied counters make cost_snapshot() exact
// once drain() has returned true. A budget of milliseconds::max() waits
// without a deadline. shutdown() must not race acquire(), and node() is
// legal only after shutdown().
#pragma once

#include <chrono>
#include <memory>

#include "proto/directory.hpp"
#include "runtime/actor_system.hpp"

namespace arvy {

class LiveDirectory final : public AnyDirectory {
 public:
  // The unified Options carries both the protocol fields and the threaded
  // transport knobs (max_jitter, workers, batch_size, ...); see
  // proto/options.hpp for the field guide.
  explicit LiveDirectory(const graph::Graph& g, Options options = {});
  // Shuts the actor system down if the caller has not already.
  ~LiveDirectory() override;

  // --- AnyDirectory ---------------------------------------------------------
  [[nodiscard]] std::size_t node_count() const override;
  proto::RequestId acquire(graph::NodeId v) override;
  // Blocks until every request submitted so far is satisfied (the runtime
  // counts satisfactions cumulatively, so "mine is done" is observed as
  // "all submitted are done"; with one outstanding request per node that is
  // the same thing). Asserts on timeout - a liveness bug, not a slow run.
  void acquire_and_wait(graph::NodeId v) override;
  [[nodiscard]] bool drain(std::chrono::milliseconds budget =
                               std::chrono::milliseconds(10'000)) override;
  [[nodiscard]] std::uint64_t submitted_count() const override;
  [[nodiscard]] std::uint64_t satisfied_count() const override;
  [[nodiscard]] proto::CostAccount cost_snapshot() const override;
  [[nodiscard]] faults::FaultStats fault_stats() const override;

  // --- Runtime-specific -----------------------------------------------------
  // Stops all worker threads (drain first for a quiescent stop). Idempotent.
  void shutdown();
  [[nodiscard]] bool is_shut_down() const noexcept;
  // Post-shutdown inspection of a node's protocol core (tree sanity checks).
  [[nodiscard]] const proto::ArvyCore& node(graph::NodeId v) const;

 private:
  std::unique_ptr<runtime::ActorSystem> system_;
};

}  // namespace arvy
