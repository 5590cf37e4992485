#include "runtime/live_directory.hpp"

#include "support/assert.hpp"

namespace arvy {

LiveDirectory::LiveDirectory(const graph::Graph& g, Options options) {
  const auto policy = resolve_policy(options);
  const proto::InitialConfig init = resolve_initial_config(g, options);
  system_ = std::make_unique<runtime::ActorSystem>(g, init, *policy,
                                                   std::move(options));
}

LiveDirectory::~LiveDirectory() { shutdown(); }

std::size_t LiveDirectory::node_count() const {
  return system_->node_count();
}

proto::RequestId LiveDirectory::acquire(graph::NodeId v) {
  return system_->request(v);
}

void LiveDirectory::acquire_and_wait(graph::NodeId v) {
  acquire(v);
  const bool satisfied = system_->wait_for_satisfied_for(
      system_->submitted_count(), std::chrono::milliseconds(10'000));
  ARVY_ASSERT_MSG(satisfied, "acquire_and_wait timed out (liveness bug)");
}

bool LiveDirectory::drain(std::chrono::milliseconds budget) {
  return system_->wait_for_satisfied_for(system_->submitted_count(), budget);
}

std::uint64_t LiveDirectory::submitted_count() const {
  return system_->submitted_count();
}

std::uint64_t LiveDirectory::satisfied_count() const {
  return system_->satisfied_count();
}

proto::CostAccount LiveDirectory::cost_snapshot() const {
  proto::CostAccount account;
  account.find_distance = system_->find_cost();
  account.token_distance = system_->total_cost() - account.find_distance;
  account.find_messages = system_->find_messages();
  account.token_messages = system_->token_messages();
  return account;
}

faults::FaultStats LiveDirectory::fault_stats() const {
  return system_->fault_stats();
}

void LiveDirectory::shutdown() { system_->shutdown(); }

bool LiveDirectory::is_shut_down() const noexcept {
  return system_->is_shut_down();
}

const proto::ArvyCore& LiveDirectory::node(graph::NodeId v) const {
  return system_->node(v);
}

}  // namespace arvy
