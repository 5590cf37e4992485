// The public facade: a distributed directory over a network graph.
//
// This is the API a downstream user programs against. A Directory tracks one
// shared object (token); the sharded multi-object facade is
// arvy::DirectoryService (service/directory_service.hpp) - the paper's
// "multiple independent instances of the distributed directory protocol in
// parallel can be used to coordinate access to multiple data items" (§1) at
// production object counts.
//
// Transports. The same facade contract (AnyDirectory) is served by two
// engines: `Directory` runs the discrete-event simulator (deterministic,
// seedable, verifiable after every event) and `LiveDirectory`
// (runtime/live_directory.hpp) runs the threaded actor runtime (real OS
// asynchrony). Code written against AnyDirectory - submit requests, drain,
// snapshot costs - runs unchanged on both; the fault-matrix suite does
// exactly that.
//
// Quickstart:
//   auto g = arvy::graph::make_ring(8);
//   arvy::Directory dir(g, {.policy = arvy::proto::PolicyKind::kBridge});
//   dir.acquire_and_wait(3);   // node 3 obtains the object
//   dir.acquire_and_wait(6);   // then node 6
//   double paid = dir.costs().total_distance();
//
// With faults and retries (see docs/FAULTS.md):
//   arvy::Directory dir(g, {
//       .policy = arvy::proto::PolicyKind::kIvy,
//       .seed = 7,
//       .faults = {.drop_find = 0.1, .drop_token = 0.1},
//       .retry = {.rto = 4.0, .backoff = 2.0},
//   });
//
// Every facade takes the same unified arvy::Options aggregate; the field
// guide lives in proto/options.hpp.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "proto/engine.hpp"
#include "proto/options.hpp"
#include "proto/policies.hpp"

namespace arvy {

// One observed message delivery, transport-agnostic.
struct MessageEvent {
  graph::NodeId from = graph::kInvalidNode;
  graph::NodeId to = graph::kInvalidNode;
  bool is_find = false;          // find vs token
  proto::RequestId request = 0;  // the find's request; 0 for token
  sim::Time at = 0.0;            // transport time of delivery
  double distance = 0.0;         // shortest-path distance charged
};

// The event a simulator delivery reports to a message observer.
[[nodiscard]] MessageEvent message_event(
    const sim::MessageBus<proto::Message>::InFlight& entry) noexcept;

// The transport-agnostic directory contract: everything here is meaningful
// for both the discrete-event simulator and the threaded runtime. Code that
// only needs this interface (benchmarks, fault matrices, examples) runs on
// either engine.
class AnyDirectory {
 public:
  virtual ~AnyDirectory() = default;

  [[nodiscard]] virtual std::size_t node_count() const = 0;

  // Asynchronous acquire: the request enters the network. Precondition (§3):
  // no outstanding request at v.
  virtual proto::RequestId acquire(graph::NodeId v) = 0;

  // Synchronous acquire: returns once v holds the object (simulated time for
  // Directory, wall time for LiveDirectory).
  virtual void acquire_and_wait(graph::NodeId v) = 0;

  // Drives the directory until every submitted request is satisfied or the
  // budget elapses (the budget is wall time for LiveDirectory and a safety
  // bound for Directory, whose drain is logical). Returns whether all
  // submitted requests are satisfied.
  [[nodiscard]] virtual bool drain(
      std::chrono::milliseconds budget = std::chrono::milliseconds(10'000)) = 0;

  [[nodiscard]] virtual std::uint64_t submitted_count() const = 0;
  [[nodiscard]] virtual std::uint64_t satisfied_count() const = 0;

  // Value snapshot of the distance-weighted cost account (find + token).
  [[nodiscard]] virtual proto::CostAccount cost_snapshot() const = 0;

  // Aggregated fault-injection counters; all-zero when no faults were
  // declared.
  [[nodiscard]] virtual faults::FaultStats fault_stats() const = 0;
};

// The simulator-backed directory: deterministic, seedable, and inspectable
// after every event.
class Directory final : public AnyDirectory {
 public:
  using MessageObserver = std::function<void(const MessageEvent&)>;
  using SatisfiedObserver = std::function<void(const proto::RequestRecord&)>;
  using EventObserver = std::function<void(const Directory&)>;

  explicit Directory(const graph::Graph& g, Options options = {});

  // --- AnyDirectory ---------------------------------------------------------
  [[nodiscard]] std::size_t node_count() const override;
  proto::RequestId acquire(graph::NodeId v) override;
  void acquire_and_wait(graph::NodeId v) override;
  [[nodiscard]] bool drain(std::chrono::milliseconds budget =
                               std::chrono::milliseconds(10'000)) override;
  [[nodiscard]] std::uint64_t submitted_count() const override;
  [[nodiscard]] std::uint64_t satisfied_count() const override;
  [[nodiscard]] proto::CostAccount cost_snapshot() const override;
  [[nodiscard]] faults::FaultStats fault_stats() const override;

  // --- Simulation drivers ---------------------------------------------------
  // Drains the network.
  void run();
  // Delivers one pending message; false when the network is quiet.
  bool step();
  // Sequential semantics (§6): each request issued after the previous one is
  // satisfied. Concurrent semantics: timed arrivals with messages in flight.
  void run_sequential(std::span<const graph::NodeId> sequence);
  void run_concurrent(std::span<const proto::TimedRequest> requests);

  // --- Observers ------------------------------------------------------------
  [[nodiscard]] std::optional<graph::NodeId> holder() const;
  [[nodiscard]] const proto::CostAccount& costs() const noexcept;
  [[nodiscard]] const std::vector<proto::RequestRecord>& requests()
      const noexcept;
  [[nodiscard]] std::size_t unsatisfied_count() const;
  [[nodiscard]] const graph::DistanceOracle& oracle() const noexcept;
  [[nodiscard]] bool idle() const noexcept;

  // Narrow observer hooks (one slot each; setting replaces the previous).
  // on_message fires per handled delivery, on_satisfied per satisfied
  // request, on_event after every protocol event (the invariant checker's
  // seam - see verify::capture(const Directory&)).
  void on_message(MessageObserver observer);
  void on_satisfied(SatisfiedObserver observer);
  void on_event(EventObserver observer);

  // Read-only inspection seam for the verifier and analysis layers
  // (verify::capture, analysis::measure_latency). Deliberately const: all
  // mutation goes through the facade. The raw mutable engine() escape hatch
  // that predated it is gone (PR 10) - its deprecation window closed; all
  // mutation goes through the typed drivers and observer hooks above.
  [[nodiscard]] const proto::SimEngine& inspect() const noexcept {
    return *engine_;
  }

 private:
  std::unique_ptr<proto::SimEngine> engine_;
  EventObserver event_observer_;
};

// Builds the default initial configuration described in proto/options.hpp.
[[nodiscard]] proto::InitialConfig default_initial_config(
    const graph::Graph& g, proto::PolicyKind policy);

// Shared by every facade: policy + initial config resolution.
[[nodiscard]] std::unique_ptr<proto::NewParentPolicy> resolve_policy(
    const Options& options);
[[nodiscard]] proto::InitialConfig resolve_initial_config(
    const graph::Graph& g, const Options& options);

}  // namespace arvy
