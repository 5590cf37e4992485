#include "runtime/actor_system.hpp"

#include <algorithm>
#include <cstring>

#include "support/assert.hpp"

namespace arvy::runtime {

namespace {

// The envelope for one event's send; a find is read from `find`, the
// sender's scratch.
ARVY_HOT std::size_t encode_send(const proto::Effects& send,
                                 const proto::FindMessage& find,
                                 std::uint64_t dedup, std::byte* out) {
  return send.send == proto::Effects::Send::kFind
             ? proto::wire::encode_find_envelope(find, dedup, out)
             : proto::wire::encode_token_envelope(send.token_serial, dedup,
                                                  out);
}

}  // namespace

ActorSystem::ActorSystem(const graph::Graph& g,
                         const proto::InitialConfig& init,
                         const proto::NewParentPolicy& policy, Options options)
    : oracle_(g), options_(options) {
  ARVY_EXPECTS(init.node_count() == g.node_count());
  ARVY_EXPECTS(init.is_valid_tree());
  ARVY_EXPECTS(g.node_count() >= 1);
  ARVY_EXPECTS(options_.workers >= 1);
  ARVY_EXPECTS(options_.batch_size >= 1);
  ARVY_EXPECTS(options_.ring_capacity >= 2);
  oracle_.prewarm_all();  // all threads read the oracle concurrently

  // Never more workers than actors: extra ones would own empty partitions.
  const std::size_t worker_count = std::min(options_.workers, g.node_count());
  workers_.reserve(worker_count);
  for (std::size_t w = 0; w < worker_count; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->shuffle.resize(options_.batch_size);
    workers_.push_back(std::move(worker));
  }

  // Every slot must fit the largest legal envelope: a find whose visited
  // history has one entry per node (the paper's bound).
  const std::size_t slot_bytes = proto::wire::envelope_bytes(g.node_count());
  support::Rng seeder(options_.seed);
  actors_.reserve(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    auto actor = std::make_unique<NodeActor>();
    actor->id = v;
    actor->owner = workers_[v % worker_count].get();
    actor->owner->actors.push_back(v);
    actor->policy = policy.clone();
    actor->rng = std::make_unique<support::Rng>(seeder.split());
    actor->core = std::make_unique<proto::ArvyCore>(
        v, actor->cell.slots(), actor->policy.get(), &oracle_,
        actor->rng.get());
    actor->core->initialize(init.parent[v], v == init.root,
                            init.parent_edge_is_bridge[v]);
    actor->ring.emplace(options_.ring_capacity, slot_bytes);
    actor->jitter_rng = seeder.split();
    // Theorem 4 bounds a find's history by n: the scratch never grows.
    actor->scratch_find.visited.reserve(g.node_count());
    actors_.push_back(std::move(actor));
  }
  start_ = std::chrono::steady_clock::now();
  if (!options_.faults.empty()) {
    injector_ = std::make_unique<faults::FaultInjector>(options_.faults,
                                                        options_.retry);
  }
  spin_ = spin_fits(worker_count);
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, w = worker.get()] { run_worker(*w); });
  }
}

ActorSystem::~ActorSystem() {
  if (!is_shut_down()) shutdown();
}

proto::RequestId ActorSystem::request(NodeId v) {
  ARVY_EXPECTS(v < actors_.size());
  ARVY_EXPECTS_MSG(!is_shut_down(), "request after shutdown");
  // Relaxed id allocation: the increment only needs to be atomic, not
  // ordered - the request id travels to the worker inside the ring frame,
  // and the slot's release/acquire publish orders everything the worker
  // reads. (Was acq_rel, which ordered nothing anyone relied on.)
  const proto::RequestId id =
      next_request_.fetch_add(1, std::memory_order_relaxed);
  NodeActor& actor = *actors_[v];
  // Blocking push: a full ring is bounded-buffer backpressure on the
  // submitter, not message loss. False only when the ring is closed, which
  // here means request() raced shutdown - a caller contract violation, same
  // as the old mailbox's push-after-close abort.
  const bool pushed = actor.ring->push([id](std::byte* slot) {
    (void)proto::wire::encode_request_envelope(id, slot);
  });
  ARVY_ASSERT_MSG(pushed, "request raced shutdown");
  actor.owner->park.notify();
  return id;
}

bool ActorSystem::wait_for_satisfied_for(std::uint64_t count,
                                         std::chrono::milliseconds timeout) {
  const auto ready = [this, count] { return satisfied_count() >= count; };
  if (spin_ && spin_until(ready, kSpinBeforePark)) return true;
  return progress_.wait_until(ready, deadline_after(timeout));
}

std::uint64_t ActorSystem::satisfied_count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) {
    total += worker->satisfied.load(std::memory_order_acquire);
  }
  return total;
}

// The accounting atomics are single-writer (the sending actor's owner
// worker), so each relaxed load reads an exact committed value; the sum is
// a consistent total only once the system is quiescent. Readers who need
// the final numbers already have a happens-before edge that covers every
// charge: every message is charged before its ring publish, the chain of
// slot handoffs it starts ends in a satisfaction, and satisfied_count's
// acquire loads pair with note_satisfied's release stores - or the thread
// joins behind shut_down_. The cost words themselves carry no pairing, so
// their loads stay relaxed.
double ActorSystem::total_cost() const {
  double total = 0.0;
  for (const auto& actor : actors_) {
    total += actor->find_cost.load(std::memory_order_relaxed) +
             actor->token_cost.load(std::memory_order_relaxed);
  }
  return total;
}

double ActorSystem::find_cost() const {
  double total = 0.0;
  for (const auto& actor : actors_) {
    total += actor->find_cost.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t ActorSystem::find_messages() const {
  std::uint64_t total = 0;
  for (const auto& actor : actors_) {
    total += actor->find_messages.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t ActorSystem::token_messages() const {
  std::uint64_t total = 0;
  for (const auto& actor : actors_) {
    total += actor->token_messages.load(std::memory_order_relaxed);
  }
  return total;
}

faults::FaultStats ActorSystem::fault_stats() const {
  std::lock_guard<support::RankedMutex> lock(faults_mutex_);
  if (!injector_) return {};
  return injector_->stats();
}

void ActorSystem::shutdown() {
  if (is_shut_down()) return;
  // Tell workers to exit once their partition runs dry, then close the
  // channels. A worker drains everything already published before leaving
  // and drops the frames it still holds; those, and frames sent to an
  // already-closed ring during a non-quiescent teardown, are the documented
  // accepted loss - by the time callers shut down they have either waited
  // for quiescence or accepted it. The flag is part of every worker's park
  // condition, so the notify below either wakes a parked worker or is seen
  // by its next park attempt.
  stopping_.store(true, std::memory_order_release);
  for (auto& actor : actors_) actor->ring->close();
  for (auto& worker : workers_) worker->park.notify();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  // Publish only after every join: node() may rely on the joins'
  // happens-before edges the moment this flag reads true.
  shut_down_.store(true, std::memory_order_release);
}

const proto::ArvyCore& ActorSystem::node(NodeId v) const {
  ARVY_EXPECTS_MSG(is_shut_down(),
                   "cores may only be inspected after shutdown (data race)");
  ARVY_EXPECTS(v < actors_.size());
  return *actors_[v]->core;
}

ARVY_HOT void ActorSystem::note_satisfied(Worker& worker) {
  // Single writer (this worker), so load + store is exact; the release
  // pairs with satisfied_count's acquire loads.
  worker.satisfied.store(worker.satisfied.load(std::memory_order_relaxed) + 1,
                         std::memory_order_release);
  progress_.notify();
}

// --- worker loop -----------------------------------------------------------

void ActorSystem::run_worker(Worker& worker) {
  const auto ready = [this, &worker] {
    return stopping_.load(std::memory_order_acquire) ||
           worker_has_work(worker);
  };
  // Whether the sweep before the current one processed anything.
  bool was_busy = false;
  for (;;) {
    const bool waiting = !worker.held.empty() && flush_held(worker);
    bool did_work = false;
    for (const NodeId v : worker.actors) {
      did_work |= drain_actor(worker, *actors_[v]);
    }
    const bool spin = spin_ && was_busy;
    was_busy = did_work;
    if (did_work) continue;
    // The rescan after stopping_'s acquire load sees every frame published
    // before the stop, so nothing admitted before shutdown() is left behind.
    if (stopping_.load(std::memory_order_acquire) && !worker_has_work(worker)) {
      return;
    }
    if (waiting) {
      // A due frame waits on a full ring: retry after a yield, since no
      // notify announces that the ring has room again.
      std::this_thread::yield();
      continue;
    }
    // Spin only when a busy spell just ended: the next frame is then
    // likely microseconds away. A wake that finds nothing to do (the
    // backstop's) parks again at once.
    poll_then_park(worker.park, ready, spin,
                   worker.held.empty() ? Clock::time_point::max()
                                       : worker.held.begin()->first);
  }
}

bool ActorSystem::worker_has_work(const Worker& worker) const {
  for (const NodeId v : worker.actors) {
    if (actors_[v]->ring->has_ready()) return true;
  }
  return false;
}

ARVY_HOT bool ActorSystem::drain_actor(Worker& worker, NodeActor& actor) {
  const std::size_t batch = actor.ring->acquire_batch(options_.batch_size);
  if (batch == 0) return false;
  if (options_.reorder_mailboxes) {
    // Fisher-Yates over the batch with the actor's own RNG: the threaded
    // analogue of the simulator's kRandom discipline, now scoped to a batch
    // (per-channel FIFO remains an accident, not a guarantee).
    std::vector<std::uint32_t>& order = worker.shuffle;
    for (std::size_t k = 0; k < batch; ++k) {
      order[k] = static_cast<std::uint32_t>(k);
    }
    for (std::size_t k = batch; k > 1; --k) {
      const std::size_t j =
          static_cast<std::size_t>(actor.jitter_rng.next_below(k));
      const std::uint32_t tmp = order[k - 1];
      order[k - 1] = order[j];
      order[j] = tmp;
    }
    for (std::size_t k = 0; k < batch; ++k) {
      process_frame(actor, actor.ring->batch_slot(order[k]));
    }
  } else {
    for (std::size_t k = 0; k < batch; ++k) {
      process_frame(actor, actor.ring->batch_slot(k));
    }
  }
  actor.ring->release_batch(batch);
  return true;
}

ARVY_HOT void ActorSystem::process_frame(NodeActor& actor,
                                         const std::byte* slot) {
  const proto::wire::EnvelopeView view = proto::wire::decode_envelope(slot);
  if (view.dedup != 0 && !first_arrival(actor, view.dedup)) {
    // A copy of a duplicated send whose group was already handled: the
    // wire is at-least-once, the protocol core sees exactly-once.
    return;
  }
  proto::FindMessage& find = actor.scratch_find;
  proto::Effects effects;
  switch (view.kind) {
    case proto::wire::Kind::kRequest:
      if (actor.core->holds_token()) {
        // Trivially satisfied at the holder, as in the simulator.
        note_satisfied(*actor.owner);
        return;
      }
      effects = actor.core->request_token(view.request, find);
      break;
    case proto::wire::Kind::kToken:
      effects = actor.core->on_token(proto::TokenMessage{view.token_serial});
      break;
    case proto::wire::Kind::kFind:
      // Rehydrate into the preallocated scratch: assign() into reserved
      // storage copies the span without touching the heap, and the core's
      // one appended entry still fits. The vector's grow-and-throw branches
      // are still statically present in the object code (the compiler
      // cannot prove the capacity invariant), so the binary audit carries
      // declared allow edges for exactly these call sites - see [audit]
      // allow in docs/layers.toml.
      ARVY_ASSERT(view.visited.size() < find.visited.capacity());
      find.producer = view.producer;
      find.sender = view.sender;
      find.request = view.request;
      find.sender_edge_was_bridge = view.sender_edge_was_bridge;
      find.visited.assign(view.visited.begin(), view.visited.end());
      effects = actor.core->on_find(find);
      break;
  }
  deliver_effects(actor, effects);
}

ARVY_HOT void ActorSystem::deliver_effects(NodeActor& from,
                                           const proto::Effects& effects) {
  if (effects.satisfied.has_value()) note_satisfied(*from.owner);
  if (effects.send == proto::Effects::Send::kNone) return;
  if (options_.max_jitter.count() > 0) {
    const auto jitter = std::chrono::microseconds(from.jitter_rng.next_below(
        static_cast<std::uint64_t>(options_.max_jitter.count()) + 1));
    std::this_thread::sleep_for(jitter);
  }
  const double distance = oracle_.distance(from.id, effects.to);
  // Single-writer accounting (see total_cost): load+store is exact here.
  if (effects.send == proto::Effects::Send::kFind) {
    from.find_cost.store(
        from.find_cost.load(std::memory_order_relaxed) + distance,
        std::memory_order_relaxed);
    from.find_messages.store(
        from.find_messages.load(std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
  } else {
    from.token_cost.store(
        from.token_cost.load(std::memory_order_relaxed) + distance,
        std::memory_order_relaxed);
    from.token_messages.store(
        from.token_messages.load(std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
  }
  if (injector_) {
    send_with_faults(from, effects, distance);
  } else {
    enqueue_protocol(from, effects, /*dedup=*/0);
  }
}

ARVY_HOT void ActorSystem::enqueue_protocol(const NodeActor& from,
                                            const proto::Effects& send,
                                            std::uint64_t dedup) {
  NodeActor& peer = *actors_[send.to];
  ARVY_ASSERT(send.send != proto::Effects::Send::kFind ||
              proto::wire::envelope_bytes(from.scratch_find.visited.size()) <=
                  peer.ring->slot_bytes());
  const PushResult result = peer.ring->try_push([&](std::byte* slot) {
    (void)encode_send(send, from.scratch_find, dedup, slot);
  });
  if (result == PushResult::kFull) {
    // Never spin on a peer's full ring: this thread may be its drainer.
    hold(from, send, dedup, Clock::now());
    return;
  }
  if (result == PushResult::kOk) peer.owner->park.notify();
  // kClosed: delivery raced a non-quiescent shutdown - the message is part
  // of the teardown's accepted loss, not a contract violation.
}

void ActorSystem::hold(const NodeActor& from, const proto::Effects& send,
                       std::uint64_t dedup, Clock::time_point due) {
  std::vector<std::byte> frame(proto::wire::envelope_bytes(
      send.send == proto::Effects::Send::kFind
          ? from.scratch_find.visited.size()
          : 0));
  (void)encode_send(send, from.scratch_find, dedup, frame.data());
  // The caller runs on from's owner worker, the only one touching its list.
  from.owner->held.emplace(due, Held{send.to, std::move(frame)});
}

bool ActorSystem::flush_held(Worker& worker) {
  const Clock::time_point now = Clock::now();
  bool waiting = false;
  auto it = worker.held.begin();
  while (it != worker.held.end() && it->first <= now) {
    NodeActor& peer = *actors_[it->second.to];
    const std::vector<std::byte>& frame = it->second.frame;
    const PushResult result = peer.ring->try_push([&](std::byte* slot) {
      std::memcpy(slot, frame.data(), frame.size());
    });
    if (result == PushResult::kFull) {
      waiting = true;
      ++it;
      continue;
    }
    if (result == PushResult::kOk) peer.owner->park.notify();
    it = worker.held.erase(it);  // pushed, or dropped at a closed ring
  }
  return waiting;
}

bool ActorSystem::first_arrival(NodeActor& actor, std::uint64_t dedup) {
  // A group has exactly two copies (see send_with_faults): the first to
  // arrive records it and is delivered, the second retires it and is
  // suppressed, so the set holds only groups with a copy still in flight.
  if (actor.handled_dups.insert(dedup).second) return true;
  actor.handled_dups.erase(dedup);
  return false;
}

// --- fault path (cold) ------------------------------------------------------

double ActorSystem::fault_now() const {
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  return std::chrono::duration<double>(elapsed) /
         std::chrono::duration<double>(options_.fault_time_unit);
}

void ActorSystem::send_with_faults(const NodeActor& from,
                                   const proto::Effects& send,
                                   double distance) {
  const bool is_find = send.send == proto::Effects::Send::kFind;
  const faults::MessageKind kind =
      is_find ? faults::MessageKind::kFind : faults::MessageKind::kToken;
  sim::SendVerdict verdict;
  {
    std::lock_guard<support::RankedMutex> lock(faults_mutex_);
    verdict = injector_->on_send(kind, send.to, fault_now(), distance);
  }
  if (verdict.lost) return;  // permanently lost: retries exhausted/disabled
  // One extra copy at most, so a dedup group has exactly two copies, which
  // first_arrival relies on.
  ARVY_ASSERT(verdict.duplicates <= 1);
  const std::uint64_t dedup =
      verdict.duplicates > 0
          ? next_dedup_.fetch_add(1, std::memory_order_relaxed)
          : 0;
  const auto unit = options_.fault_time_unit;
  // The copy is staggered by the link's transit time so it arrives as a
  // genuine reorder hazard, not a back-to-back ring neighbour.
  if (verdict.duplicates > 0) {
    hold(from, send, dedup, deadline_after(unit * std::max(distance, 1.0)));
  }
  if (verdict.extra_delay > 0.0) {
    hold(from, send, dedup, deadline_after(unit * verdict.extra_delay));
    return;
  }
  enqueue_protocol(from, send, dedup);
}

}  // namespace arvy::runtime
