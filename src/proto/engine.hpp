// Discrete-event execution engine for the Arvy protocol family.
//
// Owns one ArvyCore per node, a MessageBus carrying proto::Message, and the
// cost accountant. Charges every message with its shortest-path distance
// (the paper's cost measure: "total distance traversed by the messages").
//
// Node state is kept split by lifetime (see proto/core.hpp). The persistent
// part is two engine-owned columns in a NodeId row's layout - n parent
// words and bridge_words(n) words of packed bridge flags - and each core's
// NodeSlots point into them. The per-burst part lives in the cores and in
// the per-node request queues. Every entry point that lets an event touch a
// node (submit, submit_queued, flush_token, each delivery) records it in a
// preallocated dirty list, as do construction and adoption for the root
// they seat; only dirty nodes can differ from the last validated tree or
// carry per-burst state, which is what keeps the object switch O(touched).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "graph/distance_oracle.hpp"
#include "graph/graph.hpp"
#include "proto/core.hpp"
#include "proto/init.hpp"
#include "proto/messages.hpp"
#include "proto/policy.hpp"
#include "proto/trace.hpp"
#include "sim/bus.hpp"
#include "support/hot.hpp"

namespace arvy::proto {

// Distance-weighted message cost, split by message kind. The paper's
// Theorem 6 accounting covers the find traffic; E14 also reports totals
// including token movement.
struct CostAccount {
  double find_distance = 0.0;
  double token_distance = 0.0;
  std::uint64_t find_messages = 0;
  std::uint64_t token_messages = 0;
  std::size_t max_visited_length = 0;  // longest find path seen (space audit)

  [[nodiscard]] double total_distance() const noexcept {
    return find_distance + token_distance;
  }
};

struct RequestRecord {
  RequestId id = 0;
  NodeId node = graph::kInvalidNode;
  sim::Time submitted = 0.0;
  std::optional<sim::Time> satisfied_at;
  // Position in the global satisfaction order (1-based; 0 = unsatisfied).
  std::uint64_t satisfaction_index = 0;
};

// A timed request arrival for run_concurrent (§3's concurrent semantics).
struct TimedRequest {
  NodeId node = graph::kInvalidNode;
  sim::Time at = 0.0;
};

struct EngineOptions {
  sim::Discipline discipline = sim::Discipline::kTimed;
  std::unique_ptr<sim::DelayModel> delay;  // default: distance-proportional
  std::uint64_t seed = 1;
  // Declarative fault schedule; the default (empty) plan is a strict no-op:
  // no injector is constructed and the bus send path is untouched.
  faults::FaultPlan faults;
  // How dropped transmissions are re-driven; only consulted when `faults`
  // declares drops.
  faults::RetryPolicy retry;
  // When false, a find terminating at the token holder parks in n(w) and the
  // token leaves only on an explicit flush_token(w) - the paper's separate
  // "send token" event, used by scripted replays.
  bool auto_send_token = true;
  // Record a structured TraceEvent per protocol event (costs a little memory
  // on long runs; off by default).
  bool record_trace = false;
  // Deterministic replay: record the delivery schedule, or replay one under
  // sim::Discipline::kScripted (see sim/bus.hpp).
  bool record_schedule = false;
  sim::Schedule script;
};

// Bridge flags in the packed form of the park/adopt seam's rows: bit v % 64
// of word v / 64 flags v's parent edge as Algorithm 2's bridge.
[[nodiscard]] constexpr std::size_t bridge_words(std::size_t n) noexcept {
  return (n + 63) / 64;
}
// Packs one flag per node into bridge_words(flags.size()) words.
void pack_bridges(const std::vector<bool>& flags,
                  std::span<std::uint64_t> words);

class SimEngine {
 public:
  using Options = EngineOptions;

  // The policy is cloned; the graph must outlive the engine.
  SimEngine(const graph::Graph& g, const InitialConfig& init,
            const NewParentPolicy& policy, Options options = {});
  // Pinned: the bus handler and every core's slots point into the engine.
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  // Injects a request at node v and processes the RequestToken event
  // immediately (it is a local event). If v already holds the token the
  // request is trivially satisfied at zero cost. Returns the request id.
  // Precondition: v has no outstanding request (the model's rule, §3).
  RequestId submit(NodeId v);

  // Like submit, but implements §3's remark for nodes with an outstanding
  // request: "letting the further requests wait until the token arrives, at
  // which point all outstanding requests can be satisfied in one fell
  // swoop". Queued requests are satisfied together with the in-flight one.
  RequestId submit_queued(NodeId v);

  // Delivers one pending message; false when the network is quiet.
  bool step();
  void run_until_idle();

  // Fires the standalone SendToken event at v (deferred-token mode).
  void flush_token(NodeId v);

  // Sequential semantics (§6): each request is issued only after the
  // previous one is satisfied.
  void run_sequential(std::span<const NodeId> sequence);

  // Concurrent semantics under the timed discipline: requests fire at their
  // given times while earlier messages are still in flight.
  using TimedRequest = proto::TimedRequest;
  void run_concurrent(std::span<const TimedRequest> requests);

  // --- Object state swap (the DirectoryService shard seam) -----------------
  // A shard engine is REUSED across the many objects it owns: the expensive
  // per-engine state (distance oracle, bus, policy clone) is shard
  // infrastructure, while the per-object protocol state (parent pointers,
  // bridge flags, token position) is parked into the caller's row between
  // bursts and adopted back before the next one.
  //
  // A row is n parent words - a parked tree's root holds the token and is the
  // row's only self-loop - plus bridge_words(n) words of packed bridge flags.
  // The parent word is a RowWord: a NodeId, the type of the engine's own
  // parent column, or one byte on graphs of at most kRowNodes<std::uint8_t>
  // (256) nodes, which the service uses there. Adopt widens the row into the
  // columns and park narrows them back; both copy the row whole, with no
  // per-node branch, and touch per-node state only at dirty nodes. An empty
  // bridge span means: record no bridges (park), no bridges (adopt). Neither
  // direction allocates. Preconditions: the bus is idle, and n is at most
  // kRowNodes<Word>.
  //
  // park_row writes the current tree into the row and returns the row's
  // seal (row_seal: nonzero). It returns 0 when the parked state is NOT
  // resumable - the token was permanently lost to fault injection or a
  // request is still outstanding at some node - in which case the row is
  // unspecified and the caller re-seats the object from its canonical
  // initial tree (the documented crash-recovery semantics). The tree is
  // checked incrementally (walks_reach_root from the dirty list, which holds
  // every re-pointed node and the last validated root): equal to
  // is_rooted_tree on the whole row, in O(touched). The row is written and
  // sealed only once that check has passed, so the seal vouches for a
  // validated tree, and every parent it narrows is below n.
  template <RowWord Word>
  [[nodiscard]] std::uint64_t park_row(std::span<Word> parents,
                                       std::span<std::uint64_t> bridges) const;

  // Widens the row into the columns, resets the per-burst state of the
  // nodes the last burst dirtied, seats the token at the row's self-loop,
  // clears the request ledger and cost account, and reseeds the policy RNG
  // stream with `seed` (same mixing as construction, so object 0 of a
  // service run replays a standalone engine bit-for-bit). Bus time
  // deliberately carries over: the clock is shard infrastructure.
  //
  // `seal` is what park_row returned for this row, or 0 for a row park never
  // sealed (first touch, re-seed, the InitialConfig adapters). The row is
  // hashed again: when it still matches a nonzero seal, its bytes are the
  // ones park sealed, and adopt trusts park's incremental check for them
  // and skips the whole-row one. Otherwise (seal 0, or the row changed
  // after park) adopt aborts unless the whole row is a rooted tree
  // (is_rooted_tree over the widened columns, O(n)), before any event runs.
  // Either way it aborts on a row with no self-loop. So the seal detects a
  // row edited after park; it does not re-check what park validated.
  template <RowWord Word>
  void adopt_row(std::span<const Word> parents,
                 std::span<const std::uint64_t> bridges, std::uint64_t seal,
                 std::uint64_t seed);

  // The same seam over a whole InitialConfig (vectors reused, no shrink):
  // thin adapters that convert the bridge flags and call the NodeId row
  // form, unsealed (park_state reports only resumability; adopt_state
  // validates).
  [[nodiscard]] bool park_state(InitialConfig& out) const;
  void adopt_state(const InitialConfig& next, std::uint64_t seed);

  // --- Observers -----------------------------------------------------------
  [[nodiscard]] const CostAccount& costs() const noexcept { return costs_; }
  [[nodiscard]] const std::vector<RequestRecord>& requests() const noexcept {
    return requests_;
  }
  [[nodiscard]] std::size_t unsatisfied_count() const noexcept;
  [[nodiscard]] const ArvyCore& node(NodeId v) const;
  [[nodiscard]] std::size_t node_count() const noexcept { return cores_.size(); }
  // Node currently holding the token, or nullopt while it is in flight
  // (only a dirty node can hold it).
  [[nodiscard]] std::optional<NodeId> token_holder() const;
  // The dirty list: every node an event touched since the last adoption (or
  // construction), each once, plus the root seated then. Every node outside
  // it has the parent and bridge flag the columns were validated with and
  // no per-burst state.
  [[nodiscard]] std::span<const NodeId> dirty_nodes() const noexcept {
    return {dirty_.data(), dirty_count_};
  }
  [[nodiscard]] const sim::MessageBus<Message>& bus() const noexcept {
    return bus_;
  }
  [[nodiscard]] sim::MessageBus<Message>& bus() noexcept { return bus_; }
  [[nodiscard]] const graph::DistanceOracle& oracle() const noexcept {
    return oracle_;
  }
  [[nodiscard]] const NewParentPolicy& policy() const noexcept {
    return *policy_;
  }

  // Structured event trace (empty unless Options::record_trace).
  [[nodiscard]] const TraceRecorder& trace() const noexcept { return trace_; }

  // The fault injector, or nullptr when Options::faults was empty. Its
  // stats are the input to verify's relaxed (fault-modulo) audits.
  [[nodiscard]] const faults::FaultInjector* injector() const noexcept {
    return injector_.get();
  }

  // Called after every protocol event (request submission or message
  // delivery); the invariant checker hooks in here.
  void set_post_event_hook(std::function<void(const SimEngine&)> hook) {
    post_event_hook_ = std::move(hook);
  }

  // Called once per handled message delivery, before the protocol core
  // processes it (suppressed duplicate copies do not fire).
  void set_message_hook(
      std::function<void(const sim::MessageBus<Message>::InFlight&)> hook) {
    message_hook_ = std::move(hook);
  }

  // Called once per satisfied request (including queued ones released by
  // the same token visit), right after the record is stamped.
  void set_satisfied_hook(std::function<void(const RequestRecord&)> hook) {
    satisfied_hook_ = std::move(hook);
  }

  // Bug-seeding seam for the model checker (tools/arvy_explore --seed-bug):
  // when installed, every handled delivery's payload is edited in place by
  // the mutator before the core processes it (a forwarded find inherits the
  // edit), so the explorer can inject a protocol-level corruption (e.g. a
  // fabricated visited entry) and prove the invariant checker catches it.
  // Never installed by production drivers; with no mutator the delivery
  // path is untouched.
  void set_delivery_mutator(std::function<void(Message&)> mutator) {
    delivery_mutator_ = std::move(mutator);
  }

 private:
  // Applies one event's effects at `from`: stamps the satisfied request (and
  // the requests queued behind it), then charges and sends the event's at
  // most one message. A find leaves in `payload`, the storage the core wrote
  // it into.
  void dispatch(NodeId from, const Effects& effects, Message& payload);
  void on_delivery(sim::MessageBus<Message>::InFlight& entry);
  void mark_satisfied(RequestRecord& record);

  // Records that an event touched v; the list holds each node once.
  ARVY_HOT void mark_dirty(NodeId v) noexcept {
    if (dirty_flag_[v] != 0) return;
    dirty_flag_[v] = 1;
    dirty_[dirty_count_++] = v;
  }

  const graph::Graph* graph_;
  graph::DistanceOracle oracle_;
  std::unique_ptr<NewParentPolicy> policy_;
  support::Rng policy_rng_;
  sim::MessageBus<Message> bus_;
  // The persistent columns (row layout); cores_[v] views entry v of each.
  std::vector<NodeId> parent_column_;
  std::vector<std::uint64_t> bridge_column_;
  std::vector<ArvyCore> cores_;
  CostAccount costs_;
  std::vector<RequestRecord> requests_;
  std::vector<std::vector<RequestId>> queued_;  // per-node waiting requests
  // Nodes touched since the last adoption (or construction), in the first
  // dirty_count_ entries; dirty_flag_[v] != 0 iff v is among them. Sized n
  // at construction, so marking never allocates.
  std::vector<NodeId> dirty_;
  std::vector<std::uint8_t> dirty_flag_;
  std::size_t dirty_count_ = 0;
  // Seam scratch, sized at construction so park and adopt never allocate:
  // n validator words for adopt's whole-row check, n walk marks and their
  // epoch for park's incremental one, bridge_words(n) adapter words.
  mutable std::vector<NodeId> tree_scratch_;
  mutable std::vector<std::uint64_t> walk_marks_;
  mutable std::uint64_t walk_epoch_ = 0;
  mutable std::vector<std::uint64_t> bridge_scratch_;
  std::uint64_t satisfied_count_ = 0;
  bool record_trace_ = false;
  TraceRecorder trace_;
  std::unique_ptr<faults::FaultInjector> injector_;
  std::function<void(const SimEngine&)> post_event_hook_;
  std::function<void(const sim::MessageBus<Message>::InFlight&)> message_hook_;
  std::function<void(const RequestRecord&)> satisfied_hook_;
  std::function<void(Message&)> delivery_mutator_;
};

}  // namespace arvy::proto
