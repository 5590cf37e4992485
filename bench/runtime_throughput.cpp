// Experiment E13b: micro-benchmarks (google-benchmark) of the substrate and
// the end-to-end engines - event throughput of the discrete-event bus, the
// protocol engine, and the threaded actor runtime.
#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>

#include "graph/generators.hpp"
#include "graph/spanning_tree.hpp"
#include "proto/directory.hpp"
#include "proto/engine.hpp"
#include "proto/policies.hpp"
#include "runtime/actor_system.hpp"
#include "runtime/live_directory.hpp"
#include "sim/bus.hpp"
#include "workload/workload.hpp"

namespace {

using namespace arvy;
using graph::NodeId;

void BM_BusSendDeliver(benchmark::State& state) {
  struct Toy {
    int x;
  };
  sim::MessageBus<Toy>::Options options;
  options.discipline = sim::Discipline::kFifo;
  sim::MessageBus<Toy> bus(std::move(options));
  bus.set_handler([](const sim::MessageBus<Toy>::InFlight&) {});
  for (auto _ : state) {
    bus.send(0, 1, {1});
    bus.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BusSendDeliver);

void BM_BusSendDeliverRandom(benchmark::State& state) {
  // Steady-state deliver+send with range(0) messages in flight under the
  // random-adversary discipline: the cost of picking the k-th pending
  // message in send order dominates (this is the headline bus benchmark).
  struct Toy {
    int x;
  };
  const auto depth = static_cast<std::size_t>(state.range(0));
  sim::MessageBus<Toy>::Options options;
  options.discipline = sim::Discipline::kRandom;
  options.seed = 11;
  sim::MessageBus<Toy> bus(std::move(options));
  bus.set_handler([](const sim::MessageBus<Toy>::InFlight&) {});
  for (std::size_t i = 0; i < depth; ++i) {
    bus.send(0, 1, {static_cast<int>(i)});
  }
  for (auto _ : state) {
    bus.step();
    bus.send(0, 1, {0});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BusSendDeliverRandom)->Arg(100)->Arg(1000)->Arg(10000);

void BM_BusDropRefill(benchmark::State& state) {
  // drop() + send() churn at depth range(0): exercises pending-set removal
  // on ids that were never picked by the discipline.
  struct Toy {
    int x;
  };
  const auto depth = static_cast<std::size_t>(state.range(0));
  sim::MessageBus<Toy>::Options options;
  options.discipline = sim::Discipline::kFifo;
  sim::MessageBus<Toy> bus(std::move(options));
  bus.set_handler([](const sim::MessageBus<Toy>::InFlight&) {});
  std::vector<sim::MessageId> ids;
  ids.reserve(depth);
  for (std::size_t i = 0; i < depth; ++i) {
    ids.push_back(bus.send(0, 1, {static_cast<int>(i)}));
  }
  std::size_t cursor = 0;
  for (auto _ : state) {
    bus.drop(ids[cursor]);
    ids[cursor] = bus.send(0, 1, {0});
    cursor = (cursor + 1) % depth;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BusDropRefill)->Arg(1000);

void BM_DijkstraRing(benchmark::State& state) {
  const auto g = graph::make_ring(static_cast<std::size_t>(state.range(0)));
  NodeId src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dijkstra(g, src));
    src = static_cast<NodeId>((src + 1) % g.node_count());
  }
}
BENCHMARK(BM_DijkstraRing)->Arg(64)->Arg(512);

void BM_SequentialRequests(benchmark::State& state) {
  // Whole-protocol throughput: requests per second through the simulator,
  // per policy (argument index into all_policy_kinds, bridge on a ring).
  const auto kind =
      proto::all_policy_kinds()[static_cast<std::size_t>(state.range(0))];
  const std::size_t n = 64;
  const auto g = graph::make_ring(n);
  const auto init = kind == proto::PolicyKind::kBridge
                        ? proto::ring_bridge_config(n)
                        : proto::from_tree(graph::bfs_tree(g, 0));
  auto policy = proto::make_policy(kind, 2);
  proto::SimEngine engine(g, init, *policy, {});
  support::Rng rng(1);
  for (auto _ : state) {
    const auto v = static_cast<NodeId>(rng.next_below(n));
    if (!engine.node(v).holds_token()) {
      engine.submit(v);
      engine.run_until_idle();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(std::string(proto::policy_kind_name(kind)));
}
BENCHMARK(BM_SequentialRequests)->DenseRange(0, 2);  // arrow, ivy, bridge

void BM_ConcurrentBurst(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto g = graph::make_complete(n);
  auto policy = proto::make_policy(proto::PolicyKind::kIvy);
  for (auto _ : state) {
    state.PauseTiming();
    proto::SimEngine::Options options;
    options.discipline = sim::Discipline::kRandom;
    options.seed = 7;
    proto::SimEngine engine(g, proto::chain_config(n), *policy,
                            std::move(options));
    state.ResumeTiming();
    for (NodeId v = 0; v + 1 < n; ++v) engine.submit(v);
    engine.run_until_idle();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(n - 1));
}
BENCHMARK(BM_ConcurrentBurst)->Arg(16)->Arg(64);

void BM_ConcurrentTimedArrivals(benchmark::State& state) {
  // run_concurrent with range(0) timed arrivals on a ring of 2x that size:
  // each arrival must locate the earliest pending delivery while traffic
  // from earlier requests is still in flight.
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 2 * m;
  const auto g = graph::make_ring(n);
  auto policy = proto::make_policy(proto::PolicyKind::kIvy);
  support::Rng workload_rng(17);
  const auto requests =
      workload::poisson_arrivals(n, m, /*rate=*/4.0, workload_rng);
  for (auto _ : state) {
    state.PauseTiming();
    proto::SimEngine::Options options;
    options.discipline = sim::Discipline::kTimed;
    options.seed = 5;
    proto::SimEngine engine(g, proto::ring_bridge_config(n), *policy,
                            std::move(options));
    state.ResumeTiming();
    engine.run_concurrent(requests);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m));
}
BENCHMARK(BM_ConcurrentTimedArrivals)->Arg(128)->Arg(512);

void BM_SimSatisfiedThroughput(benchmark::State& state) {
  // The sim side of the sim-vs-live trend (BENCH_8.json): same scenario as
  // fault_throughput's BM_SatisfiedThroughput at d=0 - 200 uniform
  // sequential requests on a 64-node Ivy ring through the facade.
  constexpr std::size_t kNodes = 64;
  constexpr std::size_t kRequests = 200;
  const auto g = graph::make_ring(kNodes);
  support::Rng workload_rng(29);
  const auto sequence =
      workload::uniform_sequence(kNodes, kRequests, workload_rng);
  std::uint64_t satisfied = 0;
  for (auto _ : state) {
    Directory dir(g, {.policy = proto::PolicyKind::kIvy, .seed = 7});
    dir.run_sequential(sequence);
    satisfied += dir.satisfied_count();
    benchmark::DoNotOptimize(satisfied);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(satisfied));
}
BENCHMARK(BM_SimSatisfiedThroughput)->Unit(benchmark::kMillisecond);

void BM_LiveSatisfiedThroughput(benchmark::State& state) {
  // The live side: satisfied/s through the threaded ring runtime on the
  // same 64-node Ivy ring, swept over worker-pool size x drain batch size.
  // Each iteration fires one volley of requests at 16 distinct nodes (the
  // model's one-outstanding-per-node rule) and drains it; the directory -
  // and its worker threads - live across iterations, so this measures
  // steady-state message throughput, not thread construction.
  constexpr std::size_t kNodes = 64;
  const auto workers = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  const auto g = graph::make_ring(kNodes);
  LiveDirectory dir(g, {.policy = proto::PolicyKind::kIvy,
                        .seed = 7,
                        .workers = workers,
                        .batch_size = batch});
  for (auto _ : state) {
    for (NodeId v = 0; v < kNodes; v += 4) dir.acquire(v);
    if (!dir.drain(std::chrono::milliseconds(60'000))) {
      state.SkipWithError("liveness: volley did not drain");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(dir.satisfied_count()));
  // BENCH_5 recorded num_cpus with no thread info; the sweep's whole point
  // is the thread axis, so report it explicitly per run.
  state.counters["worker_threads"] = static_cast<double>(workers);
  state.counters["batch_size"] = static_cast<double>(batch);
  state.counters["hw_threads"] =
      static_cast<double>(std::thread::hardware_concurrency());
}
BENCHMARK(BM_LiveSatisfiedThroughput)
    ->ArgsProduct({{1, 2, 4}, {1, 16, 64}})
    ->ArgNames({"workers", "batch"})
    // Wall clock, not CPU time: the work happens on the worker threads, and
    // the sim-vs-live ratio must not flatter the side that burns more cores.
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ActorRuntimeRound(benchmark::State& state) {
  // End-to-end threaded handoff latency: one request per iteration on an
  // 8-node ring (thread wakeups dominate; this is the realistic transport).
  const auto g = graph::make_ring(8);
  auto policy = proto::make_policy(proto::PolicyKind::kIvy);
  runtime::ActorSystem system(g, proto::ring_bridge_config(8), *policy);
  support::Rng rng(3);
  std::uint64_t satisfied = 0;
  for (auto _ : state) {
    const auto v = static_cast<NodeId>(rng.next_below(8));
    system.request(v);
    if (!system.wait_for_satisfied_for(++satisfied,
                                       std::chrono::milliseconds(60'000))) {
      state.SkipWithError("liveness: request was not satisfied");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ActorRuntimeRound)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
