// Standalone layer probes: each calls one layer's public functions on inputs
// taken from the workload and records spans around the calls.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <unordered_map>

#include "bench.hpp"
#include "graph/distance_oracle.hpp"
#include "graph/generators.hpp"
#include "graph/spanning_tree.hpp"
#include "proto/directory.hpp"
#include "proto/engine.hpp"
#include "runtime/ring_mailbox.hpp"
#include "service/directory_service.hpp"
#include "service/routing.hpp"
#include "sim/bus.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

// DirectoryService's per-object policy stream: seed + object * golden.
constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
// DirectoryService's cap on spread roots for the canonical trees.
constexpr std::size_t kCanonicalRoots = 32;

volatile std::uint64_t g_sink = 0;

// Keeps a probe's result observable so its loop is not optimized away.
void keep(std::uint64_t value) { g_sink = g_sink ^ value; }

arvy::Options ivy_options() {
  arvy::Options options;
  options.policy = arvy::proto::PolicyKind::kIvy;
  options.seed = kSystemSeed;
  return options;
}

// Tracing off for an untimed pass, restored on scope exit.
class Untraced {
 public:
  Untraced() : was_(tracer::enabled()) { tracer::set_enabled(false); }
  ~Untraced() { tracer::set_enabled(was_); }
  Untraced(const Untraced&) = delete;
  Untraced& operator=(const Untraced&) = delete;

 private:
  bool was_;
};

}  // namespace

double probe_service_core(const std::vector<ObjectRequest>& stream) {
  const arvy::graph::Graph grid = arvy::graph::make_grid(kGridSide, kGridSide);
  const std::size_t shards = worker_threads();
  arvy::service::RoutingTable table(static_cast<std::uint32_t>(shards),
                                    kSystemSeed);
  table.add_objects(kSvcObjects);
  const arvy::Options options = ivy_options();
  // The service's canonical trees: the default tree, then spread roots.
  std::vector<arvy::proto::InitialConfig> canonical{
      arvy::resolve_initial_config(grid, options)};
  const std::size_t n = grid.node_count();
  const std::size_t roots = std::min(n, kCanonicalRoots);
  for (std::size_t j = 1; j < roots; ++j) {
    const auto root = static_cast<NodeId>((j * n) / roots);
    canonical.push_back(
        arvy::proto::from_tree(arvy::graph::shortest_path_tree(grid, root)));
  }
  const auto policy = arvy::resolve_policy(options);

  struct Shard {
    std::unique_ptr<arvy::proto::SimEngine> engine;
    std::optional<ObjectId> current;
  };
  std::vector<Shard> engines(shards);
  for (Shard& shard : engines) {
    arvy::proto::SimEngine::Options engine_options;
    engine_options.seed = kSystemSeed;
    shard.engine = std::make_unique<arvy::proto::SimEngine>(
        grid, canonical[0], *policy, std::move(engine_options));
  }
  std::unordered_map<ObjectId, arvy::proto::InitialConfig> parked;
  arvy::proto::InitialConfig scratch;

  double switch_per_acquire = 0.0;
  // Pass 0 materializes every object untimed; pass 1 is the measured one.
  for (int pass = 0; pass < 2; ++pass) {
    std::optional<Untraced> untraced;
    if (pass == 0) untraced.emplace();
    std::size_t switches = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const ObjectRequest& r = stream[i];
      const auto request = static_cast<std::int64_t>(i);
      Shard& shard = engines[table.lookup(r.object)];
      if (shard.current != r.object) {
        ++switches;
        if (shard.current.has_value()) {
          bool resumable = false;
          {
            Scope span("proto.park", request);
            resumable = shard.engine->park_state(scratch);
          }
          parked[*shard.current] = resumable ? scratch
                                             : canonical[*shard.current %
                                                         canonical.size()];
        }
        const auto it = parked.find(r.object);
        const arvy::proto::InitialConfig& next =
            it != parked.end() ? it->second
                               : canonical[r.object % canonical.size()];
        {
          Scope span("proto.adopt", request);
          shard.engine->adopt_state(next, kSystemSeed + r.object * kGolden);
        }
        shard.current = r.object;
      }
      {
        Scope span("proto.submit", request);
        (void)shard.engine->submit_queued(r.node);
      }
      Scope span("proto.run", request);
      const std::uint64_t before = shard.engine->bus().deliveries();
      shard.engine->run_until_idle();
      span.set_items(shard.engine->bus().deliveries() - before);
    }
    switch_per_acquire =
        static_cast<double>(switches) / static_cast<double>(stream.size());
  }
  return switch_per_acquire;
}

void probe_route(const std::vector<ObjectRequest>& stream) {
  arvy::service::RoutingTable table(
      static_cast<std::uint32_t>(worker_threads()), kSystemSeed);
  table.add_objects(kSvcObjects);
  constexpr std::size_t kBatch = 4096;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < 4; ++rep) {
    for (std::size_t start = 0; start + kBatch <= stream.size(); start += kBatch) {
      Scope span("service.route", -1, kBatch);
      for (std::size_t k = 0; k < kBatch; ++k) {
        sink += table.lookup(stream[start + k].object);
      }
    }
  }
  keep(sink);
}

void probe_bus(std::uint64_t seed, double path_length) {
  // Find messages whose history grows hop by hop up to the workload's mean
  // path length, as a find's does; payloads are built outside the spans.
  const auto hops = static_cast<std::size_t>(std::max(1.0, std::round(path_length)));
  constexpr std::size_t kBatch = 256;
  constexpr std::size_t kMessages = 65536;
  arvy::sim::MessageBus<arvy::proto::Message>::Options bus_options;
  bus_options.seed = seed;
  arvy::sim::MessageBus<arvy::proto::Message> bus(std::move(bus_options));
  bus.set_handler([](const auto&) {});
  std::vector<NodeId> path(hops);
  for (std::size_t h = 0; h < hops; ++h) path[h] = static_cast<NodeId>(h);
  std::vector<arvy::proto::Message> batch(kBatch);
  for (std::size_t sent = 0; sent < kMessages; sent += kBatch) {
    for (std::size_t k = 0; k < kBatch; ++k) {
      const std::size_t hop = (sent + k) % hops;
      arvy::proto::FindMessage find;
      find.producer = path[0];
      find.sender = path[hop];
      find.visited.assign(path.begin(),
                          path.begin() + static_cast<std::ptrdiff_t>(hop + 1));
      find.request = sent + k + 1;
      batch[k] = std::move(find);
    }
    Scope span("sim.bus", -1, kBatch);
    for (std::size_t k = 0; k < kBatch; ++k) {
      const auto from = static_cast<NodeId>(k % hops);
      bus.send(from, from + 1, std::move(batch[k]), 1.0);
      bus.step();
    }
  }
}

void probe_oracle(const arvy::graph::Graph& g, std::uint64_t seed, bool tiny) {
  for (int rep = 0; rep < (tiny ? 2 : 7); ++rep) {
    Scope span("graph.oracle_build");
    const arvy::graph::DistanceOracle oracle(g);
    oracle.prewarm_all();
  }
  const arvy::graph::DistanceOracle oracle(g);
  oracle.prewarm_all();
  constexpr std::size_t kBatch = 4096;
  arvy::support::Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> pairs(kBatch);
  for (auto& [a, b] : pairs) {
    a = static_cast<NodeId>(rng.next_below(g.node_count()));
    b = static_cast<NodeId>(rng.next_below(g.node_count()));
  }
  double sink = 0.0;
  for (int rep = 0; rep < (tiny ? 4 : 64); ++rep) {
    Scope span("graph.oracle", -1, kBatch);
    for (const auto& [a, b] : pairs) sink += oracle.distance(a, b);
  }
  keep(static_cast<std::uint64_t>(sink));
}

void probe_ring_mailbox(bool tiny) {
  // The service's admission ring: default capacity and drain batch size,
  // one ObjectRequest frame per slot.
  const arvy::Options defaults;
  arvy::runtime::RingMailbox ring(defaults.ring_capacity, sizeof(ObjectRequest));
  const std::size_t fill = ring.capacity() / 2;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < (tiny ? 64 : 4096); ++rep) {
    {
      Scope span("runtime.ring_push", -1, fill);
      for (std::size_t k = 0; k < fill; ++k) {
        const ObjectRequest frame{k, static_cast<NodeId>(k), 0};
        (void)ring.try_push([&frame](std::byte* slot) {
          std::memcpy(slot, &frame, sizeof(frame));
        });
      }
    }
    Scope span("runtime.ring_drain", -1, fill);
    std::size_t drained = 0;
    while (drained < fill) {
      const std::size_t batch = ring.acquire_batch(defaults.batch_size);
      for (std::size_t k = 0; k < batch; ++k) {
        ObjectRequest frame;
        std::memcpy(&frame, ring.batch_slot(k), sizeof(frame));
        sink += frame.object;
      }
      ring.release_batch(batch);
      drained += batch;
    }
  }
  keep(sink);
}

void probe_handoff(const std::vector<ObjectRequest>& stream, bool tiny) {
  const arvy::graph::Graph grid = arvy::graph::make_grid(kGridSide, kGridSide);
  const std::size_t count = std::min(stream.size(), tiny ? std::size_t{256} : 2048);
  arvy::DirectoryService live(grid, kSvcObjects, 1, ivy_options(),
                              arvy::ServiceMode::kLive);
  arvy::DirectoryService sim(grid, kSvcObjects, 1, ivy_options(),
                             arvy::ServiceMode::kSim);
  {
    const Untraced untraced;
    for (std::size_t i = 0; i < count; ++i) {
      live.acquire_and_wait(stream[i].object, stream[i].node);
      sim.acquire_and_wait(stream[i].object, stream[i].node);
    }
  }
  // Alternating keeps a host slowdown from landing on one side only.
  for (std::size_t i = 0; i < count; ++i) {
    const auto request = static_cast<std::int64_t>(i);
    {
      Scope span("runtime.handoff.live", request);
      live.acquire_and_wait(stream[i].object, stream[i].node);
    }
    Scope span("runtime.handoff.sim", request);
    sim.acquire_and_wait(stream[i].object, stream[i].node);
  }
  live.shutdown();
}

Costs probe_volley_core(std::uint64_t seed, bool tiny) {
  const VolleySizes sizes = volley_sizes(tiny);
  const arvy::graph::Graph ring = arvy::graph::make_ring(sizes.nodes);
  const std::vector<NodeId> pool =
      volley_stream(seed, sizes.nodes, sizes.pool, sizes.width);
  arvy::Directory dir(ring, ivy_options());
  const auto volley = [&](std::size_t v) {
    const std::size_t first = (v % sizes.pool) * sizes.width;
    for (std::size_t k = 0; k < sizes.width; ++k) {
      Scope span("proto.submit", static_cast<std::int64_t>(v));
      (void)dir.acquire(pool[first + k]);
    }
    Scope span("proto.run", static_cast<std::int64_t>(v));
    const std::uint64_t before = dir.inspect().bus().deliveries();
    dir.run();
    span.set_items(dir.inspect().bus().deliveries() - before);
  };
  {
    const Untraced untraced;
    for (std::size_t v = 0; v < sizes.warm; ++v) volley(v);
  }
  const arvy::proto::CostAccount warm = dir.costs();
  for (std::size_t v = 0; v < sizes.pool; ++v) {
    volley(sizes.warm + v);
  }
  const arvy::proto::CostAccount& end = dir.costs();
  Costs out;
  out.find_msgs = end.find_messages - warm.find_messages;
  out.token_msgs = end.token_messages - warm.token_messages;
  out.distance = end.total_distance() - warm.total_distance();
  out.max_visited = end.max_visited_length;
  return out;
}

}  // namespace perfbench
