#include "proto/engine.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/hot.hpp"

namespace arvy::proto {

namespace {

sim::MessageBus<Message>::Options bus_options(SimEngine::Options& options) {
  sim::MessageBus<Message>::Options out;
  out.discipline = options.discipline;
  out.seed = options.seed;
  out.delay = std::move(options.delay);
  out.script = std::move(options.script);
  out.record_schedule = options.record_schedule;
  return out;
}

bool bridge_bit(std::span<const std::uint64_t> words, NodeId v) {
  return ((words[v / 64] >> (v % 64)) & 1U) != 0;
}

}  // namespace

SimEngine::SimEngine(const graph::Graph& g, const InitialConfig& init,
                     const NewParentPolicy& policy, Options options)
    : graph_(&g),
      oracle_(g),
      policy_(policy.clone()),
      policy_rng_(options.seed ^ 0x9e3779b97f4a7c15ULL),
      bus_(bus_options(options)) {
  const bool auto_send_token = options.auto_send_token;
  record_trace_ = options.record_trace;
  ARVY_EXPECTS(init.node_count() == g.node_count());
  ARVY_EXPECTS_MSG(init.is_valid_tree(),
                   "initial parent pointers must form a rooted tree");
  ARVY_EXPECTS(g.is_connected());
  const std::size_t n = g.node_count();
  parent_column_.assign(n, graph::kInvalidNode);
  bridge_column_.assign(bridge_words(n), 0);
  cores_.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    cores_.emplace_back(
        v, NodeSlots{&parent_column_[v], &bridge_column_[v / 64]},
        policy_.get(), &oracle_, &policy_rng_);
    cores_.back().initialize(init.parent[v], v == init.root,
                             init.parent_edge_is_bridge[v]);
    cores_.back().set_auto_send_token(auto_send_token);
  }
  queued_.resize(n);
  dirty_.resize(n);
  dirty_flag_.assign(n, 0);
  tree_scratch_.resize(n);
  walk_marks_.assign(n, 0);
  bridge_scratch_.resize(bridge_words(n));
  mark_dirty(init.root);
  bus_.set_handler([this](sim::MessageBus<Message>::InFlight& entry) {
    on_delivery(entry);
  });
  if (!options.faults.empty()) {
    // The injector owns its own RNG stream, so fault draws never perturb
    // the bus's delivery-order draws; an empty plan installs nothing at all
    // (the strict-no-op contract guarded by test_golden_schedule).
    injector_ = std::make_unique<faults::FaultInjector>(options.faults,
                                                        options.retry);
    bus_.set_send_filter([this](NodeId, NodeId to, const Message& payload,
                                sim::Time now, double distance) {
      faults::MessageKind kind = faults::MessageKind::kToken;
      if (std::holds_alternative<FindMessage>(payload)) {
        kind = faults::MessageKind::kFind;
      }
      return injector_->on_send(kind, to, now, distance);
    });
  }
}

RequestId SimEngine::submit(NodeId v) {
  ARVY_EXPECTS(v < cores_.size());
  mark_dirty(v);
  const RequestId id = static_cast<RequestId>(requests_.size()) + 1;
  requests_.push_back({id, v, bus_.now(), std::nullopt, 0});
  if (record_trace_) {
    TraceEvent event;
    event.kind = TraceEventKind::kRequest;
    event.at = bus_.now();
    event.node = v;
    event.producer = v;
    event.request = id;
    trace_.record(event);
  }
  ArvyCore& core = cores_[v];
  if (core.holds_token()) {
    // The holder's request is satisfied on the spot at zero cost; the model
    // only forbids *duplicate outstanding* requests.
    mark_satisfied(requests_.back());
  } else {
    Message find{FindMessage{}};
    dispatch(v, core.request_token(id, std::get<FindMessage>(find)), find);
  }
  if (post_event_hook_) post_event_hook_(*this);
  return id;
}

RequestId SimEngine::submit_queued(NodeId v) {
  ARVY_EXPECTS(v < cores_.size());
  if (!cores_[v].outstanding().has_value()) {
    return submit(v);
  }
  // The node already has a find chasing the token; park this request
  // locally. It costs nothing extra: when the token arrives it satisfies
  // the whole queue "in one fell swoop" (§3).
  const RequestId id = static_cast<RequestId>(requests_.size()) + 1;
  requests_.push_back({id, v, bus_.now(), std::nullopt, 0});
  if (record_trace_) {
    TraceEvent event;
    event.kind = TraceEventKind::kRequest;
    event.at = bus_.now();
    event.node = v;
    event.producer = v;
    event.request = id;
    trace_.record(event);
  }
  mark_dirty(v);
  queued_[v].push_back(id);
  if (post_event_hook_) post_event_hook_(*this);
  return id;
}

// Hot-path discipline (lint `hotpath`): the per-event engine paths below
// are ARVY_HOT - no allocation, locking, throwing, or logging. dispatch()
// and on_delivery() stay un-annotated on purpose: they send (the arena and
// a find's history may grow) and record traces.
ARVY_HOT bool SimEngine::step() { return bus_.step(); }

void SimEngine::flush_token(NodeId v) {
  ARVY_EXPECTS(v < cores_.size());
  mark_dirty(v);
  Message unused;  // SendToken sends no find
  dispatch(v, cores_[v].flush_token(), unused);
  if (post_event_hook_) post_event_hook_(*this);
}

void SimEngine::run_until_idle() { bus_.run_until_idle(); }

void SimEngine::run_sequential(std::span<const NodeId> sequence) {
  for (NodeId v : sequence) {
    // Under fault injection a permanently lost find can leave a node's
    // request outstanding forever; queueing behind it (§3's remark) keeps
    // the one-outstanding-per-node rule intact, and the quiescence assert
    // only excuses requests a recorded permanent loss can explain.
    const RequestId id = injector_ ? submit_queued(v) : submit(v);
    run_until_idle();
    ARVY_ASSERT_MSG(requests_[id - 1].satisfied_at.has_value() ||
                        (injector_ && injector_->stats().permanent_losses > 0),
                    "sequential request left unsatisfied at quiescence");
  }
}

void SimEngine::run_concurrent(std::span<const TimedRequest> requests) {
  ARVY_EXPECTS(std::is_sorted(
      requests.begin(), requests.end(),
      [](const TimedRequest& a, const TimedRequest& b) { return a.at < b.at; }));
  ARVY_EXPECTS_MSG(bus_.now() == 0.0 || requests.empty() ||
                       requests.front().at >= bus_.now(),
                   "request times must not precede the current clock");
  for (const TimedRequest& request : requests) {
    // Deliver everything due before this arrival: under kTimed the bus pops
    // in deliver_at order, so stepping while the earliest pending delivery
    // is at or before the arrival is time-faithful. next_deliver_at() is
    // +infinity when idle, which also terminates the loop.
    while (bus_.next_deliver_at() <= request.at) bus_.step();
    if (bus_.now() < request.at) bus_.advance_time(request.at);
    // Fault delays stretch satisfaction times, so a timed workload can
    // re-request at a node whose previous request is still in flight;
    // queueing preserves the model's rule instead of violating it.
    if (injector_) {
      submit_queued(request.node);
    } else {
      submit(request.node);
    }
  }
  run_until_idle();
}

template <RowWord Word>
ARVY_HOT std::uint64_t SimEngine::park_row(
    std::span<Word> parents, std::span<std::uint64_t> bridges) const {
  ARVY_EXPECTS_MSG(bus_.idle(), "park requires a quiescent bus");
  const std::size_t n = cores_.size();
  ARVY_EXPECTS(parents.size() == n && n <= kRowNodes<Word>);
  ARVY_EXPECTS(bridges.empty() || bridges.size() == bridge_words(n));
  // Every other core is as the last adoption left it: no request, no token.
  NodeId holder = graph::kInvalidNode;
  for (const NodeId v : dirty_nodes()) {
    // A node still waiting on a permanently lost find has p(v) == v without
    // the token - not a tree; the object must be re-seeded.
    if (cores_[v].outstanding().has_value()) return 0;
    if (cores_[v].holds_token()) holder = v;
  }
  // The dirty list holds every node whose parent changed since the columns
  // were last validated, and that tree's root (marked when it was seated).
  if (!walks_reach_root(parent_column_, holder, dirty_nodes(), walk_marks_,
                        walk_epoch_)) {
    return 0;
  }
  // The columns are a rooted tree now, so every parent is below n and fits
  // the row's word.
  std::transform(parent_column_.begin(), parent_column_.end(), parents.begin(),
                 [](NodeId p) { return static_cast<Word>(p); });
  if (!bridges.empty()) {
    std::copy(bridge_column_.begin(), bridge_column_.end(), bridges.begin());
  }
  return row_seal<Word>(parents, bridges);
}

template <RowWord Word>
ARVY_HOT void SimEngine::adopt_row(std::span<const Word> parents,
                                   std::span<const std::uint64_t> bridges,
                                   std::uint64_t seal, std::uint64_t seed) {
  ARVY_EXPECTS_MSG(bus_.idle(), "adopt requires a quiescent bus");
  const std::size_t n = cores_.size();
  ARVY_EXPECTS(parents.size() == n && n <= kRowNodes<Word>);
  ARVY_EXPECTS(bridges.empty() || bridges.size() == bridge_words(n));
  // A row whose bytes still hash to park's seal is the tree park validated.
  const bool sealed = seal != 0 && row_seal<Word>(parents, bridges) == seal;
  std::copy(parents.begin(), parents.end(), parent_column_.begin());
  // The seal vouches for park's tree, not for a row handed in with a seal
  // it never had: the root is checked on both paths.
  const NodeId root = row_root<Word>(parents);
  ARVY_EXPECTS_MSG(
      root < n &&
          (sealed || is_rooted_tree(parent_column_, root, tree_scratch_)),
      "adopted parent pointers must form a rooted tree");
  // Only the nodes the last burst touched carry per-burst state.
  for (const NodeId v : dirty_nodes()) {
    cores_[v].reset_burst(false);
    queued_[v].clear();
    dirty_flag_[v] = 0;
  }
  dirty_count_ = 0;
  if (bridges.empty()) {
    std::fill(bridge_column_.begin(), bridge_column_.end(), std::uint64_t{0});
  } else {
    std::copy(bridges.begin(), bridges.end(), bridge_column_.begin());
  }
  cores_[root].reset_burst(true);
  mark_dirty(root);
  requests_.clear();
  costs_ = {};
  satisfied_count_ = 0;
  // Same mixing as the constructor: adopting with the seed a standalone
  // engine was constructed with replays its policy draws exactly.
  policy_rng_ = support::Rng(seed ^ 0x9e3779b97f4a7c15ULL);
}

template std::uint64_t SimEngine::park_row<std::uint8_t>(
    std::span<std::uint8_t>, std::span<std::uint64_t>) const;
template std::uint64_t SimEngine::park_row<NodeId>(
    std::span<NodeId>, std::span<std::uint64_t>) const;
template void SimEngine::adopt_row<std::uint8_t>(
    std::span<const std::uint8_t>, std::span<const std::uint64_t>,
    std::uint64_t, std::uint64_t);
template void SimEngine::adopt_row<NodeId>(std::span<const NodeId>,
                                           std::span<const std::uint64_t>,
                                           std::uint64_t, std::uint64_t);

bool SimEngine::park_state(InitialConfig& out) const {
  const std::size_t n = cores_.size();
  out.parent.resize(n);
  out.parent_edge_is_bridge.resize(n);
  const bool resumable = park_row<NodeId>(out.parent, bridge_scratch_) != 0;
  out.root = graph::kInvalidNode;
  for (NodeId v = 0; v < n; ++v) {
    out.parent_edge_is_bridge[v] = bridge_bit(bridge_scratch_, v);
    if (out.parent[v] == v) out.root = v;
  }
  return resumable;
}

void SimEngine::adopt_state(const InitialConfig& next, std::uint64_t seed) {
  const std::size_t n = cores_.size();
  ARVY_EXPECTS(next.node_count() == n);
  // The row form finds the root as the self-loop; the config names it, and
  // the two must agree for the config to be a valid tree.
  ARVY_EXPECTS_MSG(next.parent_edge_is_bridge.size() == n && next.root < n &&
                       next.parent[next.root] == next.root,
                   "adopted parent pointers must form a rooted tree");
  pack_bridges(next.parent_edge_is_bridge, bridge_scratch_);
  adopt_row<NodeId>(next.parent, bridge_scratch_, 0, seed);
}

void pack_bridges(const std::vector<bool>& flags,
                  std::span<std::uint64_t> words) {
  ARVY_EXPECTS(words.size() == bridge_words(flags.size()));
  std::fill(words.begin(), words.end(), std::uint64_t{0});
  for (std::size_t v = 0; v < flags.size(); ++v) {
    if (flags[v]) words[v / 64] |= std::uint64_t{1} << (v % 64);
  }
}

std::size_t SimEngine::unsatisfied_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(requests_.begin(), requests_.end(), [](const auto& r) {
        return !r.satisfied_at.has_value();
      }));
}

ARVY_HOT const ArvyCore& SimEngine::node(NodeId v) const {
  ARVY_EXPECTS(v < cores_.size());
  return cores_[v];
}

ARVY_HOT std::optional<NodeId> SimEngine::token_holder() const {
  for (const NodeId v : dirty_nodes()) {
    if (cores_[v].holds_token()) return v;
  }
  return std::nullopt;
}

ARVY_HOT void SimEngine::mark_satisfied(RequestRecord& record) {
  record.satisfied_at = bus_.now();
  record.satisfaction_index = ++satisfied_count_;
  if (satisfied_hook_) satisfied_hook_(record);
}

void SimEngine::dispatch(NodeId from, const Effects& effects,
                         Message& payload) {
  if (effects.satisfied.has_value()) {
    auto& record = requests_.at(*effects.satisfied - 1);
    ARVY_ASSERT_MSG(!record.satisfied_at.has_value(),
                    "request satisfied twice");
    ARVY_ASSERT(record.node == from);
    mark_satisfied(record);
    // One fell swoop (§3): every request queued at this node is satisfied
    // by the same token visit.
    for (RequestId queued : queued_[from]) {
      auto& waiting = requests_.at(queued - 1);
      ARVY_ASSERT(!waiting.satisfied_at.has_value());
      mark_satisfied(waiting);
    }
    queued_[from].clear();
  }
  if (effects.send == Effects::Send::kNone) return;
  const double distance = oracle_.distance(from, effects.to);
  const FindMessage* find = effects.send == Effects::Send::kFind
                                ? &std::get<FindMessage>(payload)
                                : nullptr;
  if (find != nullptr) {
    costs_.find_distance += distance;
    ++costs_.find_messages;
    costs_.max_visited_length =
        std::max(costs_.max_visited_length, find->visited.size());
  } else {
    costs_.token_distance += distance;
    ++costs_.token_messages;
  }
  if (record_trace_) {
    TraceEvent event;
    event.kind = find != nullptr ? TraceEventKind::kFindSent
                                 : TraceEventKind::kTokenSent;
    event.at = bus_.now();
    event.node = from;
    event.from = from;
    event.to = effects.to;
    event.distance = distance;
    if (find != nullptr) {
      event.producer = find->producer;
      event.request = find->request;
    }
    trace_.record(event);
  }
  if (find != nullptr) {
    bus_.send(from, effects.to, std::move(payload), distance);
  } else {
    bus_.send(from, effects.to, Message{TokenMessage{effects.token_serial}},
              distance);
  }
}

void SimEngine::on_delivery(sim::MessageBus<Message>::InFlight& entry) {
  if (message_hook_) message_hook_(entry);
  ArvyCore& core = cores_.at(entry.to);
  mark_dirty(entry.to);
  if (delivery_mutator_) delivery_mutator_(entry.payload);
  const Effects effects = core.on_message(entry.payload);
  if (record_trace_) {
    TraceEvent event;
    event.at = bus_.now();
    event.node = entry.to;
    event.from = entry.from;
    event.to = entry.to;
    if (const auto* find = std::get_if<FindMessage>(&entry.payload)) {
      event.kind = TraceEventKind::kFindReceived;
      event.producer = find->producer;
      event.request = find->request;
      event.new_parent = core.parent();
    } else {
      event.kind = TraceEventKind::kTokenReceived;
      if (effects.satisfied.has_value()) event.request = *effects.satisfied;
    }
    trace_.record(event);
  }
  // A forwarded find leaves in the delivered payload's own storage.
  dispatch(entry.to, effects, entry.payload);
  if (post_event_hook_) post_event_hook_(*this);
}

}  // namespace arvy::proto
