#include "service/directory_service.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

#include "graph/spanning_tree.hpp"
#include "proto/messages.hpp"
#include "runtime/ring_mailbox.hpp"
#include "support/assert.hpp"
#include "verify/configuration.hpp"
#include "verify/invariants.hpp"

namespace arvy {

namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

// The residency index of one shard: object id -> local id, in one flat
// open-addressing table (linear probing, multiplicative hash, power-of-two
// capacity kept at most half full, one 16-byte slot per entry). A lookup is
// a multiply, a shift and usually one slot load; only insert, which first
// touch alone calls, may grow the table.
class ResidencyIndex {
 public:
  using ObjectId = service::ObjectId;
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

  ResidencyIndex() { rehash(kMinCapacity); }

  // The local id of `object`, or kAbsent.
  [[nodiscard]] ARVY_HOT std::uint32_t find(ObjectId object) const noexcept {
    for (std::size_t i = home(object);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.local_plus_one == 0) return kAbsent;
      if (slot.object == object) return slot.local_plus_one - 1;
    }
  }

  // Precondition: `object` is absent and `local` < kAbsent.
  void insert(ObjectId object, std::uint32_t local) {
    ARVY_EXPECTS(local < kAbsent && find(object) == kAbsent);
    if (2 * (size_ + 1) > mask_ + 1) rehash(2 * (mask_ + 1));
    place(object, local + 1);
    ++size_;
  }

 private:
  // A zero local_plus_one marks an empty slot, so a fresh table is empty.
  struct Slot {
    ObjectId object = 0;
    std::uint32_t local_plus_one = 0;
  };
  static_assert(sizeof(Slot) == 16);
  static constexpr std::size_t kMinCapacity = 16;

  [[nodiscard]] std::size_t home(ObjectId object) const noexcept {
    return static_cast<std::size_t>((object * kGolden) >> shift_);
  }

  void place(ObjectId object, std::uint32_t local_plus_one) noexcept {
    std::size_t i = home(object);
    while (slots_[i].local_plus_one != 0) i = (i + 1) & mask_;
    slots_[i] = {object, local_plus_one};
  }

  void rehash(std::size_t capacity) {
    const std::unique_ptr<Slot[]> old = std::move(slots_);
    const std::size_t old_capacity = old ? mask_ + 1 : 0;
    slots_ = std::make_unique<Slot[]>(capacity);
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    for (std::size_t i = 0; i < old_capacity; ++i) {
      if (old[i].local_plus_one != 0) {
        place(old[i].object, old[i].local_plus_one);
      }
    }
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace

// One shard: a reusable engine plus the parked rows of every object it owns.
//
// Parked state is stored in chunked slabs (kChunk objects per chunk) rather
// than one vector per object: at 1M objects a per-object std::vector would
// pay 1M allocations and 24 bytes of header each; the slab pays one
// allocation per 256 objects and stores exactly n parent words (plus a
// bridge bitmask when the policy needs it) and one seal word per object.
// A parent word is one byte on graphs of up to 256 nodes and a NodeId above
// (proto::RowWord), chosen once from the node count; visit_row is the one
// place that picks it. The engine parks into and adopts from these rows in
// place (SimEngine::park_row/adopt_row); the seal is what park_row returned
// for the row, and 0 until park has sealed it. A row is written from the
// canonical tree on first touch, so chunks materialize lazily and a service
// with 1M registered but 10k touched objects holds ~10k rows.
struct DirectoryService::Shard {
  static constexpr std::size_t kChunk = 256;  // objects per row chunk
  static_assert(kChunk % sizeof(graph::NodeId) == 0);

  std::uint32_t index = 0;
  std::size_t nodes = 0;
  bool bridges_tracked = false;
  bool byte_rows = false;  // nodes <= kRowNodes<std::uint8_t>

  std::unique_ptr<proto::SimEngine> engine;

  // Residency: dense local ids assigned at first touch (cold path).
  ResidencyIndex local_of;
  std::vector<ObjectId> owners;  // local id -> object id (check_sampled's pool)

  struct Chunk {
    // kChunk rows of `nodes` parent words of the shard's width, in NodeId
    // storage; byte rows read and write it as unsigned char, which may
    // alias any object.
    std::unique_ptr<graph::NodeId[]> parents;
    std::unique_ptr<std::uint64_t[]> bridges;   // null unless bridges_tracked
    std::unique_ptr<std::uint64_t[]> seals;     // kChunk row seals
  };
  std::vector<Chunk> rows;

  // The object currently seated in the engine (nullopt right after start).
  std::optional<ObjectId> current;
  std::uint32_t current_local = 0;

  // Costs of every PARKED burst; engine->costs() holds the loaded object's.
  proto::CostAccount committed;

  // Cross-thread telemetry, written only by the shard's worker (the caller
  // in kSim) and starting a cache line, so no word a client writes shares
  // its lines. Costs are flushed after each request, processed is the
  // progress count the waits sum (see note_progress). The counters are
  // monotone peeks.
  alignas(64) std::atomic<double> find_cost{0.0};  // ARVY-ATOMIC(single-writer)
  std::atomic<double> token_cost{0.0};            // ARVY-ATOMIC(single-writer)
  std::atomic<std::uint64_t> find_messages{0};    // ARVY-ATOMIC(single-writer)
  std::atomic<std::uint64_t> token_messages{0};   // ARVY-ATOMIC(single-writer)
  std::atomic<std::uint64_t> max_visited{0};      // ARVY-ATOMIC(single-writer)
  std::atomic<std::uint64_t> recoveries{0};       // ARVY-ATOMIC(counter)
  std::atomic<std::uint64_t> resident{0};         // ARVY-ATOMIC(counter)
  std::atomic<std::uint64_t> processed{0};        // ARVY-ATOMIC(single-writer)
  std::atomic<std::uint64_t> satisfied{0};        // ARVY-ATOMIC(single-writer)

  // kLive: copied from the injector under the service stats mutex after
  // each processed request, so fault_stats() never races the worker (see
  // copy_fault_stats). kSim reads the injector instead.
  faults::FaultStats fault_snapshot;

  // kLive: admission ring + pinned worker, parked on `park` when idle. The
  // client notifies `park` after each push, so it sits on its own line.
  std::optional<runtime::RingMailbox> ring;
  std::thread thread;
  alignas(64) runtime::EventCount park;

  [[nodiscard]] std::size_t word_bytes() const noexcept {
    return byte_rows ? 1 : sizeof(graph::NodeId);
  }
  [[nodiscard]] std::size_t bridge_words() const noexcept {
    return bridges_tracked ? proto::bridge_words(nodes) : 0;
  }
  [[nodiscard]] std::size_t row_bytes() const noexcept {
    return nodes * word_bytes() + (bridge_words() + 1) * sizeof(std::uint64_t);
  }

  // The parent words of local id `local`'s row (its chunk must exist), in
  // the shard's width Word.
  template <proto::RowWord Word>
  [[nodiscard]] std::span<Word> row_parents(std::uint32_t local) const {
    const std::size_t chunk = local / kChunk;
    ARVY_ASSERT(chunk < rows.size() && rows[chunk].parents &&
                sizeof(Word) == word_bytes());
    return {reinterpret_cast<Word*>(rows[chunk].parents.get()) +
                (local % kChunk) * nodes,
            nodes};
  }
  // Calls fn(row_parents<Word>(local)) with the shard's width Word.
  template <typename Fn>
  decltype(auto) visit_row(std::uint32_t local, Fn&& fn) const {
    if (byte_rows) return fn(row_parents<std::uint8_t>(local));
    return fn(row_parents<graph::NodeId>(local));
  }
  [[nodiscard]] std::span<std::uint64_t> row_bridges(
      std::uint32_t local) const {
    if (!bridges_tracked) return {};
    return {rows[local / kChunk].bridges.get() +
                (local % kChunk) * bridge_words(),
            bridge_words()};
  }
  [[nodiscard]] std::uint64_t& row_seal(std::uint32_t local) const {
    return rows[local / kChunk].seals[local % kChunk];
  }

  // Writes `tree` into the row of `local`, unsealed, materializing its
  // chunk (first touch and re-seed only).
  void store_row(std::uint32_t local, const proto::InitialConfig& tree) {
    const std::size_t chunk = local / kChunk;
    if (chunk >= rows.size()) rows.resize(chunk + 1);
    Chunk& c = rows[chunk];
    if (!c.parents) {
      c.parents = std::make_unique<graph::NodeId[]>(kChunk * nodes *
                                                    word_bytes() /
                                                    sizeof(graph::NodeId));
      if (bridges_tracked) {
        c.bridges = std::make_unique<std::uint64_t[]>(kChunk * bridge_words());
      }
      c.seals = std::make_unique<std::uint64_t[]>(kChunk);
    }
    visit_row(local, [&tree]<typename Word>(std::span<Word> parents) {
      std::transform(tree.parent.begin(), tree.parent.end(), parents.begin(),
                     [](graph::NodeId p) { return static_cast<Word>(p); });
    });
    if (bridges_tracked) {
      proto::pack_bridges(tree.parent_edge_is_bridge, row_bridges(local));
    }
    row_seal(local) = 0;  // unsealed: the next adopt validates the row
  }
};

// --- construction ------------------------------------------------------------

DirectoryService::DirectoryService(const graph::Graph& g,
                                   std::size_t object_count,
                                   std::size_t shard_count, Options options,
                                   ServiceMode mode)
    : graph_(&g),
      options_(std::move(options)),
      mode_(mode),
      routing_(static_cast<std::uint32_t>(shard_count), options_.seed) {
  ARVY_EXPECTS(shard_count >= 1);
  ARVY_EXPECTS(g.node_count() >= 2);
  // A zero batch would make every shard worker spin on a ring it never
  // drains.
  ARVY_EXPECTS(options_.batch_size >= 1);
  policy_ = resolve_policy(options_);
  track_bridges_ = options_.policy == proto::PolicyKind::kBridge;
  build_canonical();
  routing_.add_objects(object_count);
  // kLive shards poll before they park only when every shard thread and one
  // caller fit in the usable CPUs; computed once, handed to each thread.
  const bool poll =
      mode_ == ServiceMode::kLive && runtime::spin_fits(shard_count);
  shards_.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    shards_.push_back(make_shard(static_cast<std::uint32_t>(s), poll));
  }
}

DirectoryService::~DirectoryService() {
  if (!is_shut_down()) shutdown();
}

void DirectoryService::build_canonical() {
  // Slot 0 is exactly what a standalone Directory would resolve (respecting
  // Options::initial), so object 0 of a service run replays a Directory run
  // bit-for-bit. Further slots spread roots across the graph the way
  // MultiDirectory spread its per-object trees, capped so canonical memory
  // stays at roots x nodes, independent of the object count.
  canonical_.push_back(resolve_initial_config(*graph_, options_));
  if (options_.initial.has_value() ||
      options_.policy == proto::PolicyKind::kBridge) {
    return;  // one authoritative tree (Algorithm 2's split fixes the root)
  }
  const std::size_t n = graph_->node_count();
  const std::size_t roots = std::min(n, kMaxCanonicalRoots);
  for (std::size_t j = 1; j < roots; ++j) {
    const auto root = static_cast<graph::NodeId>((j * n) / roots);
    canonical_.push_back(proto::from_tree(shortest_path_tree(*graph_, root)));
  }
}

std::unique_ptr<DirectoryService::Shard> DirectoryService::make_shard(
    std::uint32_t index, bool poll) {
  auto shard = std::make_unique<Shard>();
  shard->index = index;
  shard->nodes = graph_->node_count();
  shard->bridges_tracked = track_bridges_;
  shard->byte_rows = shard->nodes <= proto::kRowNodes<std::uint8_t>;

  proto::SimEngine::Options engine_options;
  engine_options.discipline = options_.discipline;
  if (options_.delay) engine_options.delay = options_.delay->clone();
  engine_options.seed = options_.seed;
  engine_options.faults = options_.faults.for_shard(index);
  engine_options.retry = options_.retry;
  engine_options.record_schedule = options_.record_schedule;
  shard->engine = std::make_unique<proto::SimEngine>(
      *graph_, canonical_[0], *policy_, std::move(engine_options));

  Shard* raw = shard.get();
  // Always installed: the hook is also the satisfied counter. The observer
  // branch is dead until on_satisfied is called (pre-acquire, see header).
  shard->engine->set_satisfied_hook(
      [this, raw](const proto::RequestRecord& record) {
        raw->satisfied.store(raw->satisfied.load(std::memory_order_relaxed) + 1,
                             std::memory_order_relaxed);
        if (satisfied_observer_) {
          satisfied_observer_(raw->current.value_or(0), record);
        }
      });
  if (message_observer_) install_message_hook(*raw);  // add_shards after hookup

  if (mode_ == ServiceMode::kLive) {
    shard->ring.emplace(options_.ring_capacity, sizeof(service::ObjectRequest));
    shard->thread = std::thread([this, raw, poll] { run_shard(*raw, poll); });
  }
  return shard;
}

// --- facade ------------------------------------------------------------------

std::size_t DirectoryService::node_count() const noexcept {
  return graph_->node_count();
}

std::size_t DirectoryService::object_count() const {
  return routing_.object_count();
}

std::size_t DirectoryService::shard_count() const noexcept {
  return shards_.size();
}

std::uint64_t DirectoryService::acquire(ObjectId object, graph::NodeId node) {
  ARVY_EXPECTS_MSG(!is_shut_down(), "acquire after shutdown");
  ARVY_EXPECTS(node < graph_->node_count());
  Shard& shard = *shards_[routing_.lookup(object)];
  const std::uint64_t ticket =
      submitted_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (mode_ == ServiceMode::kSim) {
    process_request(shard, object, node);
  } else {
    enqueue(shard, service::ObjectRequest{object, node, 0});
  }
  return ticket;
}

std::uint64_t DirectoryService::submit_batch(
    std::span<const service::ObjectRequest> batch) {
  ARVY_EXPECTS_MSG(!is_shut_down(), "submit_batch after shutdown");
  // Validate the whole batch before admitting any of it: in kLive a bad node
  // would otherwise abort later, on a shard worker, after submitted_ had
  // counted it.
  for (const service::ObjectRequest& request : batch) {
    ARVY_EXPECTS_MSG(request.node < graph_->node_count(),
                     "submit_batch: request node out of range");
  }
  const std::uint64_t base =
      submitted_.fetch_add(batch.size(), std::memory_order_relaxed);
  for (const service::ObjectRequest& request : batch) {
    Shard& shard = *shards_[routing_.lookup(request.object)];
    if (mode_ == ServiceMode::kSim) {
      process_request(shard, request.object, request.node);
    } else {
      enqueue(shard, request);
    }
  }
  return base + batch.size();
}

void DirectoryService::acquire_and_wait(ObjectId object, graph::NodeId node) {
  Shard& shard = *shards_[routing_.lookup(object)];
  acquire(object, node);
  if (mode_ == ServiceMode::kSim) return;  // processed inline
  // The ring is FIFO and our frame is fully pushed, so its ring position is
  // below the ring's claimed-ticket count read AFTER the push completes;
  // once the shard has processed that many frames, ours is among them.
  // Untimed: processing never blocks, so the wait ends once the shard
  // reaches it.
  const std::uint64_t target = shard.ring->claimed();
  (void)progress_.wait_until(
      [&shard, target] {
        return shard.processed.load(std::memory_order_acquire) >= target;
      },
      runtime::EventCount::Clock::time_point::max());
}

bool DirectoryService::drain(std::chrono::milliseconds budget) {
  // Relaxed: the counter only names a target; the ordering the caller needs
  // comes from processed_count's acquire loads.
  const std::uint64_t target = submitted_.load(std::memory_order_relaxed);
  if (mode_ == ServiceMode::kSim) return satisfied_count() >= target;
  const bool processed_all = progress_.wait_until(
      [this, target] { return processed_count() >= target; },
      runtime::deadline_after(budget));
  return processed_all && satisfied_count() >= target;
}

std::uint64_t DirectoryService::submitted_count() const noexcept {
  return submitted_.load(std::memory_order_relaxed);
}

std::uint64_t DirectoryService::satisfied_count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->satisfied.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t DirectoryService::processed_count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->processed.load(std::memory_order_acquire);
  }
  return total;
}

proto::CostAccount DirectoryService::cost_snapshot() const {
  proto::CostAccount account;
  for (const auto& shard : shards_) {
    account.find_distance += shard->find_cost.load(std::memory_order_relaxed);
    account.token_distance += shard->token_cost.load(std::memory_order_relaxed);
    account.find_messages +=
        shard->find_messages.load(std::memory_order_relaxed);
    account.token_messages +=
        shard->token_messages.load(std::memory_order_relaxed);
    account.max_visited_length = std::max(
        account.max_visited_length,
        static_cast<std::size_t>(
            shard->max_visited.load(std::memory_order_relaxed)));
  }
  return account;
}

faults::FaultStats DirectoryService::shard_fault_stats(
    std::size_t shard_index) const {
  ARVY_EXPECTS(shard_index < shards_.size());
  const Shard& shard = *shards_[shard_index];
  if (mode_ == ServiceMode::kSim || is_shut_down()) {
    if (const faults::FaultInjector* injector = shard.engine->injector()) {
      return injector->stats();
    }
    return {};
  }
  std::lock_guard<support::RankedMutex> lock(stats_mutex_);
  return shard.fault_snapshot;
}

faults::FaultStats DirectoryService::fault_stats() const {
  faults::FaultStats total;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    total.merge(shard_fault_stats(s));
  }
  return total;
}

std::uint64_t DirectoryService::recovery_count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->recoveries.load(std::memory_order_relaxed);
  }
  return total;
}

// --- observers ---------------------------------------------------------------

void DirectoryService::on_message(MessageObserver observer) {
  message_observer_ = std::move(observer);
  for (auto& shard : shards_) install_message_hook(*shard);
}

void DirectoryService::on_satisfied(SatisfiedObserver observer) {
  // The per-shard satisfied hook (installed at construction) consults this
  // slot on every satisfaction; nothing to re-install.
  satisfied_observer_ = std::move(observer);
}

void DirectoryService::install_message_hook(Shard& shard) {
  if (!message_observer_) {
    shard.engine->set_message_hook(nullptr);
    return;
  }
  Shard* raw = &shard;
  shard.engine->set_message_hook(
      [this, raw](const sim::MessageBus<proto::Message>::InFlight& entry) {
        message_observer_(raw->current.value_or(0), message_event(entry));
      });
}

// --- control plane -----------------------------------------------------------

void DirectoryService::add_objects(std::size_t count) {
  ARVY_EXPECTS_MSG(!is_shut_down(), "add_objects after shutdown");
  routing_.add_objects(count);
}

void DirectoryService::add_shards(std::size_t count) {
  ARVY_EXPECTS_MSG(mode_ == ServiceMode::kSim,
                   "add_shards is kSim-only; size the live pool up front");
  ARVY_EXPECTS(count >= 1);
  for (std::size_t i = 0; i < count; ++i) {
    shards_.push_back(
        make_shard(static_cast<std::uint32_t>(shards_.size()), false));
  }
  // Publish only after the shards exist: a concurrent lookup of a new
  // object must never route to an unconstructed shard.
  routing_.add_shards(static_cast<std::uint32_t>(count));
}

std::uint64_t DirectoryService::routing_epoch() const {
  return routing_.epoch();
}

// --- inspection --------------------------------------------------------------

const proto::InitialConfig& DirectoryService::canonical_config(
    ObjectId object) const {
  return canonical_[object % canonical_.size()];
}

std::uint64_t DirectoryService::object_seed(ObjectId object) const noexcept {
  // MultiDirectory's per-object stream: object 0 replays a standalone
  // Directory with the same seed.
  return options_.seed + object * kGolden;
}

std::optional<graph::NodeId> DirectoryService::holder(ObjectId object) const {
  ARVY_EXPECTS_MSG(mode_ == ServiceMode::kSim || is_shut_down(),
                   "holders may only be inspected when quiescent (kSim) or "
                   "after shutdown (kLive)");
  const Shard& shard = *shards_[routing_.lookup(object)];
  if (shard.current == object) return shard.engine->token_holder();
  const std::uint32_t local = shard.local_of.find(object);
  if (local == ResidencyIndex::kAbsent) return canonical_config(object).root;
  const graph::NodeId root = shard.visit_row(
      local, []<typename Word>(std::span<Word> parents) {
        return proto::row_root<Word>(parents);
      });
  if (root < shard.nodes) return root;
  return std::nullopt;  // unreachable: parked rows always keep a root
}

ServiceCheckReport DirectoryService::check_sampled(std::size_t per_shard,
                                                   std::uint64_t seed) {
  ARVY_EXPECTS_MSG(mode_ == ServiceMode::kSim || is_shut_down(),
                   "check_sampled needs a quiescent service");
  ServiceCheckReport report;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    if (shard.owners.empty() && !shard.current.has_value()) continue;
    support::Rng rng(seed ^ ((shard.index + 1ULL) * kGolden));
    const std::size_t count = std::min(per_shard, shard.owners.size());
    for (std::size_t k = 0; k < count; ++k) {
      const ObjectId object = shard.owners[rng.next_below(shard.owners.size())];
      switch_object(shard, object);
      const verify::Configuration cfg = verify::capture(*shard.engine);
      const verify::CheckResult result = verify::check_all(cfg);
      ++report.objects_checked;
      if (!result.ok) {
        ++report.failures;
        if (report.first_failure.empty()) {
          report.first_failure =
              "object " + std::to_string(object) + ": " + result.detail;
        }
      }
    }
  }
  return report;
}

std::size_t DirectoryService::resident_objects() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += static_cast<std::size_t>(
        shard->resident.load(std::memory_order_relaxed));
  }
  return total;
}

std::size_t DirectoryService::resident_bytes() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += static_cast<std::size_t>(
                 shard->resident.load(std::memory_order_relaxed)) *
             shard->row_bytes();
  }
  return total;
}

// --- shutdown ----------------------------------------------------------------

void DirectoryService::shutdown() {
  if (is_shut_down()) return;
  if (mode_ == ServiceMode::kLive) {
    // Same order as ActorSystem::shutdown: raise the flag, close admission,
    // notify every park (stopping_ is part of its condition), then join.
    // Workers drain every published frame before leaving, so a quiescent
    // shutdown loses nothing.
    stopping_.store(true, std::memory_order_release);
    for (auto& shard : shards_) {
      if (shard->ring) shard->ring->close();
    }
    for (auto& shard : shards_) shard->park.notify();
    for (auto& shard : shards_) {
      if (shard->thread.joinable()) shard->thread.join();
    }
  }
  // Publish only after every join: holder()/check_sampled rely on the joins'
  // happens-before edges the moment this flag reads true.
  shut_down_.store(true, std::memory_order_release);
}

// --- admission hot path ------------------------------------------------------

ARVY_HOT void DirectoryService::enqueue(Shard& shard,
                                        const service::ObjectRequest& request) {
  // Blocking push: a full ring is bounded-buffer backpressure on the
  // submitter. False only when the ring is closed, i.e. acquire raced
  // shutdown - a caller contract violation.
  const bool pushed = shard.ring->push([&request](std::byte* slot) {
    std::memcpy(slot, &request, sizeof(request));
  });
  ARVY_ASSERT_MSG(pushed, "acquire raced shutdown");
  shard.park.notify();
}

// --- shard worker ------------------------------------------------------------

void DirectoryService::run_shard(Shard& shard, bool poll) {
  const auto ready = [this, &shard] {
    return stopping_.load(std::memory_order_acquire) ||
           shard.ring->has_ready();
  };
  // Whether the drain before the current one processed anything.
  bool was_busy = false;
  for (;;) {
    const bool busy = drain_ring(shard);
    const bool spin = poll && was_busy;
    was_busy = busy;
    if (busy) continue;
    // As in ActorSystem::run_worker: the rescan after stopping_'s acquire
    // load sees every frame admitted before shutdown().
    if (stopping_.load(std::memory_order_acquire) && !shard.ring->has_ready()) {
      return;
    }
    // The rule of ActorSystem::run_worker: poll once when a busy spell just
    // ended, park at once after a wake that found nothing.
    runtime::poll_then_park(shard.park, ready, spin);
  }
}

bool DirectoryService::drain_ring(Shard& shard) {
  const std::size_t batch = shard.ring->acquire_batch(options_.batch_size);
  if (batch == 0) return false;
  for (std::size_t k = 0; k < batch; ++k) {
    service::ObjectRequest request;
    std::memcpy(&request, shard.ring->batch_slot(k), sizeof(request));
    process_request(shard, request.object, request.node);
  }
  shard.ring->release_batch(batch);
  return true;
}

void DirectoryService::process_request(Shard& shard, ObjectId object,
                                       graph::NodeId node) {
  switch_object(shard, object);
  // submit_queued, not submit: a second request at a node whose first is
  // still outstanding (possible under faults, or bursty per-object traffic)
  // parks behind it and is satisfied by the same token visit (§3's remark).
  shard.engine->submit_queued(node);
  shard.engine->run_until_idle();
  flush_costs(shard);
  note_progress(shard);
}

ARVY_HOT void DirectoryService::switch_object(Shard& shard, ObjectId object) {
  if (shard.current == object) return;
  park_loaded(shard);
  std::uint32_t local = shard.local_of.find(object);
  if (local == ResidencyIndex::kAbsent) local = first_touch(shard, object);
  shard.visit_row(local, [&]<typename Word>(std::span<Word> parents) {
    shard.engine->adopt_row<Word>(parents, shard.row_bridges(local),
                                  shard.row_seal(local), object_seed(object));
  });
  shard.current = object;
  shard.current_local = local;
}

ARVY_COLD std::uint32_t DirectoryService::first_touch(Shard& shard,
                                                      ObjectId object) {
  const auto local = static_cast<std::uint32_t>(shard.owners.size());
  shard.local_of.insert(object, local);
  shard.owners.push_back(object);
  shard.resident.fetch_add(1, std::memory_order_relaxed);
  shard.store_row(local, canonical_config(object));
  return local;
}

ARVY_HOT void DirectoryService::park_loaded(Shard& shard) {
  if (!shard.current.has_value()) return;
  const proto::CostAccount& costs = shard.engine->costs();
  shard.committed.find_distance += costs.find_distance;
  shard.committed.token_distance += costs.token_distance;
  shard.committed.find_messages += costs.find_messages;
  shard.committed.token_messages += costs.token_messages;
  shard.committed.max_visited_length =
      std::max(shard.committed.max_visited_length, costs.max_visited_length);
  const std::uint32_t local = shard.current_local;
  const std::uint64_t seal =
      shard.visit_row(local, [&shard, local]<typename Word>(
                                 std::span<Word> parents) {
        return shard.engine->park_row<Word>(parents, shard.row_bridges(local));
      });
  if (seal != 0) {
    shard.row_seal(local) = seal;
  } else {
    reseed(shard);
  }
  shard.current.reset();
}

ARVY_COLD void DirectoryService::reseed(Shard& shard) {
  // The token was permanently lost to fault injection (or a find is in
  // limbo): the documented crash-recovery semantics re-seat the object on
  // its canonical initial tree.
  shard.store_row(shard.current_local, canonical_config(*shard.current));
  shard.recoveries.fetch_add(1, std::memory_order_relaxed);
}

void DirectoryService::flush_costs(Shard& shard) {
  // Single-writer commit (this shard's worker): committed covers parked
  // bursts, the engine account covers the loaded object since adoption.
  const proto::CostAccount& costs = shard.engine->costs();
  shard.find_cost.store(shard.committed.find_distance + costs.find_distance,
                        std::memory_order_relaxed);
  shard.token_cost.store(shard.committed.token_distance + costs.token_distance,
                         std::memory_order_relaxed);
  shard.find_messages.store(
      shard.committed.find_messages + costs.find_messages,
      std::memory_order_relaxed);
  shard.token_messages.store(
      shard.committed.token_messages + costs.token_messages,
      std::memory_order_relaxed);
  const auto visited = static_cast<std::uint64_t>(std::max(
      shard.committed.max_visited_length, costs.max_visited_length));
  if (visited > shard.max_visited.load(std::memory_order_relaxed)) {
    shard.max_visited.store(visited, std::memory_order_relaxed);
  }
}

ARVY_HOT void DirectoryService::note_progress(Shard& shard) {
  // kLive's fault snapshot goes first, so a caller that sees this request
  // processed also sees its fault counts. kSim's readers run on this thread
  // and read the injector itself (shard_fault_stats).
  if (mode_ == ServiceMode::kLive && shard.engine->injector() != nullptr) {
    copy_fault_stats(shard);
  }
  // Single writer, so load + store is exact. The release orders everything
  // this request did - the satisfied observer's writes included - before
  // any waiter whose acquire load sees the new count.
  shard.processed.store(shard.processed.load(std::memory_order_relaxed) + 1,
                        std::memory_order_release);
  // kSim's waits return inline, so no thread can be parked on progress_.
  if (mode_ == ServiceMode::kLive) progress_.notify();
}

ARVY_COLD void DirectoryService::copy_fault_stats(Shard& shard) {
  std::lock_guard<support::RankedMutex> lock(stats_mutex_);
  shard.fault_snapshot = shard.engine->injector()->stats();
}

}  // namespace arvy
