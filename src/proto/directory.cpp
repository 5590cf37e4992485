#include "proto/directory.hpp"

#include <variant>

#include "graph/spanning_tree.hpp"
#include "graph/tree_metrics.hpp"
#include "proto/messages.hpp"
#include "support/assert.hpp"

namespace arvy {

namespace {

bool is_canonical_ring(const graph::Graph& g) {
  const std::size_t n = g.node_count();
  if (n < 4 || g.edge_count() != n) return false;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (!g.has_edge(v, static_cast<graph::NodeId>((v + 1) % n))) return false;
  }
  return true;
}

}  // namespace

MessageEvent message_event(
    const sim::MessageBus<proto::Message>::InFlight& entry) noexcept {
  MessageEvent event;
  event.from = entry.from;
  event.to = entry.to;
  event.at = entry.deliver_at;
  event.distance = entry.distance;
  if (const auto* find = std::get_if<proto::FindMessage>(&entry.payload)) {
    event.is_find = true;
    event.request = find->request;
  }
  return event;
}

proto::InitialConfig default_initial_config(const graph::Graph& g,
                                            proto::PolicyKind policy) {
  if (policy == proto::PolicyKind::kBridge && is_canonical_ring(g)) {
    if (g.node_count() % 2 == 0) {
      bool unit = true;
      for (const auto& e : g.edges()) {
        if (e.weight != 1.0) {
          unit = false;
          break;
        }
      }
      if (unit) return proto::ring_bridge_config(g.node_count());
    }
    return proto::weighted_ring_bridge_config(g);
  }
  const graph::MetricSummary metric = metric_summary(g);
  return proto::from_tree(shortest_path_tree(g, metric.center));
}

std::unique_ptr<proto::NewParentPolicy> resolve_policy(const Options& options) {
  return proto::make_policy(options.policy, /*k=*/2);
}

proto::InitialConfig resolve_initial_config(const graph::Graph& g,
                                            const Options& options) {
  return options.initial.has_value()
             ? *options.initial
             : default_initial_config(g, options.policy);
}

Directory::Directory(const graph::Graph& g, Options options) {
  const auto policy = resolve_policy(options);
  const proto::InitialConfig init = resolve_initial_config(g, options);
  proto::SimEngine::Options engine_options;
  engine_options.discipline = options.discipline;
  engine_options.seed = options.seed;
  if (options.delay) engine_options.delay = options.delay->clone();
  engine_options.faults = options.faults;
  engine_options.retry = options.retry;
  engine_options.record_schedule = options.record_schedule;
  engine_ = std::make_unique<proto::SimEngine>(g, init, *policy,
                                               std::move(engine_options));
}

std::size_t Directory::node_count() const { return engine_->node_count(); }

proto::RequestId Directory::acquire(graph::NodeId v) {
  return engine_->submit(v);
}

void Directory::acquire_and_wait(graph::NodeId v) {
  const proto::RequestId id = acquire(v);
  run();
  ARVY_ASSERT_MSG(engine_->requests()[id - 1].satisfied_at.has_value(),
                  "acquire_and_wait left the request unsatisfied");
}

bool Directory::drain(std::chrono::milliseconds /*budget*/) {
  // The simulator's drain is logical: run_until_idle terminates once the
  // network is quiet, so the wall-clock budget never binds.
  run();
  return unsatisfied_count() == 0;
}

std::uint64_t Directory::submitted_count() const {
  return static_cast<std::uint64_t>(engine_->requests().size());
}

std::uint64_t Directory::satisfied_count() const {
  return submitted_count() - unsatisfied_count();
}

proto::CostAccount Directory::cost_snapshot() const { return engine_->costs(); }

faults::FaultStats Directory::fault_stats() const {
  if (const faults::FaultInjector* injector = engine_->injector()) {
    return injector->stats();
  }
  return {};
}

void Directory::run() { engine_->run_until_idle(); }

bool Directory::step() { return engine_->step(); }

void Directory::run_sequential(std::span<const graph::NodeId> sequence) {
  engine_->run_sequential(sequence);
}

void Directory::run_concurrent(std::span<const proto::TimedRequest> requests) {
  engine_->run_concurrent(requests);
}

std::optional<graph::NodeId> Directory::holder() const {
  return engine_->token_holder();
}

const proto::CostAccount& Directory::costs() const noexcept {
  return engine_->costs();
}

const std::vector<proto::RequestRecord>& Directory::requests() const noexcept {
  return engine_->requests();
}

std::size_t Directory::unsatisfied_count() const {
  return engine_->unsatisfied_count();
}

const graph::DistanceOracle& Directory::oracle() const noexcept {
  return engine_->oracle();
}

bool Directory::idle() const noexcept { return engine_->bus().idle(); }

void Directory::on_message(MessageObserver observer) {
  if (!observer) {
    engine_->set_message_hook(nullptr);
    return;
  }
  engine_->set_message_hook(
      [observer = std::move(observer)](
          const sim::MessageBus<proto::Message>::InFlight& entry) {
        observer(message_event(entry));
      });
}

void Directory::on_satisfied(SatisfiedObserver observer) {
  engine_->set_satisfied_hook(std::move(observer));
}

void Directory::on_event(EventObserver observer) {
  event_observer_ = std::move(observer);
  if (!event_observer_) {
    engine_->set_post_event_hook(nullptr);
    return;
  }
  engine_->set_post_event_hook(
      [this](const proto::SimEngine&) { event_observer_(*this); });
}

}  // namespace arvy
