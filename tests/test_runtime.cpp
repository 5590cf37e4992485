// Experiment E13 at test scale: the threaded actor runtime - the same
// protocol core under real OS-scheduler asynchrony.
#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "graph/generators.hpp"
#include "proto/policies.hpp"
#include "runtime/actor_system.hpp"
#include "runtime/event_count.hpp"
#include "runtime/live_directory.hpp"
#include "service/directory_service.hpp"
#include "support/cpus.hpp"
#include "support/rng.hpp"

namespace {

using namespace arvy;
using graph::NodeId;

// Timed waits so a liveness regression fails the test instead of hanging
// ctest; the ceiling is generous because sanitizer builds run slowly.
constexpr std::chrono::milliseconds kWait{120000};

TEST(ActorSystem, SingleRequestMovesToken) {
  const auto g = graph::make_ring(6);
  auto policy = proto::make_policy(proto::PolicyKind::kIvy);
  runtime::ActorSystem system(g, proto::from_tree(graph::bfs_tree(g, 0)),
                              *policy);
  system.request(3);
  ASSERT_TRUE(system.wait_for_satisfied_for(1, kWait));
  system.shutdown();
  EXPECT_TRUE(system.node(3).holds_token());
  EXPECT_GT(system.total_cost(), 0.0);
}

TEST(ActorSystem, SequentialRoundsAllSatisfied) {
  const auto g = graph::make_grid(3, 3);
  auto policy = proto::make_policy(proto::PolicyKind::kArrow);
  Options options;
  options.seed = 3;
  runtime::ActorSystem system(g, proto::from_tree(graph::bfs_tree(g, 4)),
                              *policy, options);
  std::uint64_t satisfied_target = 0;
  support::Rng rng(5);
  for (int round = 0; round < 10; ++round) {
    const auto v = static_cast<NodeId>(rng.next_below(9));
    system.request(v);
    ASSERT_TRUE(system.wait_for_satisfied_for(++satisfied_target, kWait));
  }
  system.shutdown();
  EXPECT_EQ(system.satisfied_count(), 10u);
  EXPECT_EQ(system.submitted_count(), 10u);
}

TEST(ActorSystem, ConcurrentBurstWithJitterStaysCorrect) {
  // Distinct nodes fire concurrently; sender-side jitter roughens the
  // interleaving. Every request must be satisfied and afterwards the parent
  // pointers must form a valid rooted tree with exactly one token.
  const auto g = graph::make_ring(8);
  auto policy = proto::make_policy(proto::PolicyKind::kIvy);
  Options options;
  options.seed = 11;
  options.max_jitter = std::chrono::microseconds(150);
  runtime::ActorSystem system(g, proto::ring_bridge_config(8), *policy,
                              options);
  for (NodeId v : {0u, 1u, 2u, 5u, 6u, 7u}) system.request(v);
  ASSERT_TRUE(system.wait_for_satisfied_for(6, kWait));
  system.shutdown();

  std::size_t holders = 0;
  for (NodeId v = 0; v < 8; ++v) {
    if (system.node(v).holds_token()) ++holders;
    EXPECT_FALSE(system.node(v).outstanding().has_value());
  }
  EXPECT_EQ(holders, 1u);
  // Parent pointers form a tree rooted at the holder.
  for (NodeId v = 0; v < 8; ++v) {
    NodeId u = v;
    int hops = 0;
    while (system.node(u).parent() != u) {
      u = system.node(u).parent();
      ASSERT_LT(++hops, 9) << "parent cycle";
    }
    EXPECT_TRUE(system.node(u).holds_token());
  }
}

TEST(ActorSystem, BridgePolicyStressRounds) {
  const auto g = graph::make_ring(10);
  auto policy = proto::make_policy(proto::PolicyKind::kBridge);
  Options options;
  options.seed = 17;
  options.max_jitter = std::chrono::microseconds(50);
  runtime::ActorSystem system(g, proto::ring_bridge_config(10), *policy,
                              options);
  std::uint64_t expected = 0;
  support::Rng rng(23);
  for (int round = 0; round < 6; ++round) {
    std::set<NodeId> requesters;
    while (requesters.size() < 4) {
      requesters.insert(static_cast<NodeId>(rng.next_below(10)));
    }
    for (NodeId v : requesters) system.request(v);
    expected += requesters.size();
    ASSERT_TRUE(system.wait_for_satisfied_for(expected, kWait));
  }
  system.shutdown();
  EXPECT_EQ(system.satisfied_count(), expected);
  // At most one bridge flag survives.
  std::size_t bridges = 0;
  for (NodeId v = 0; v < 10; ++v) {
    bridges += system.node(v).parent_edge_is_bridge() ? 1u : 0u;
  }
  EXPECT_LE(bridges, 1u);
}

TEST(ActorSystem, FindCostIsDistanceWeighted) {
  // Chain of 5, request from the far end: find traffic costs exactly 4
  // regardless of thread scheduling (the path is deterministic).
  const auto g = graph::make_path(5);
  auto policy = proto::make_policy(proto::PolicyKind::kArrow);
  runtime::ActorSystem system(g, proto::chain_config(5), *policy);
  system.request(0);
  ASSERT_TRUE(system.wait_for_satisfied_for(1, kWait));
  system.shutdown();
  EXPECT_DOUBLE_EQ(system.find_cost(), 4.0);
  EXPECT_DOUBLE_EQ(system.total_cost(), 8.0);  // + token distance 4
}

TEST(ActorSystem, ReorderedMailboxesStayCorrect) {
  // Random mailbox consumption order = full asynchrony: no channel FIFO at
  // all. Everything must still be satisfied (Theorem 5's only assumption is
  // eventual delivery).
  const auto g = graph::make_ring(8);
  auto policy = proto::make_policy(proto::PolicyKind::kIvy);
  Options options;
  options.seed = 23;
  options.reorder_mailboxes = true;
  runtime::ActorSystem system(g, proto::ring_bridge_config(8), *policy,
                              options);
  std::uint64_t expected = 0;
  support::Rng rng(29);
  for (int round = 0; round < 5; ++round) {
    std::set<NodeId> requesters;
    while (requesters.size() < 3) {
      requesters.insert(static_cast<NodeId>(rng.next_below(8)));
    }
    for (NodeId v : requesters) system.request(v);
    expected += requesters.size();
    ASSERT_TRUE(system.wait_for_satisfied_for(expected, kWait));
  }
  system.shutdown();
  EXPECT_EQ(system.satisfied_count(), expected);
  std::size_t holders = 0;
  for (NodeId v = 0; v < 8; ++v) {
    holders += system.node(v).holds_token() ? 1u : 0u;
  }
  EXPECT_EQ(holders, 1u);
}

TEST(ActorSystem, WorkerPoolConfigsStayCorrect) {
  // The ring runtime's knobs must not change outcomes, only schedules:
  // sweep worker-pool sizes against batch sizes, including batch 1 (no
  // amortization) and a single worker, which holds frames for rings only
  // it drains. A 10-node star rooted at its hub with 2-slot rings, where
  // all 9 leaves request in every volley, fills the rings so senders hold
  // frames in every configuration.
  constexpr NodeId kNodes = 10;
  const auto g = graph::make_star(kNodes);
  auto policy = proto::make_policy(proto::PolicyKind::kIvy);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{64}}) {
      Options options;
      options.seed = 41 + workers;
      options.workers = workers;
      options.batch_size = batch;
      options.ring_capacity = 2;  // tiny on purpose: exercise kFull holds
      runtime::ActorSystem system(g, proto::from_tree(graph::bfs_tree(g, 0)),
                                  *policy, options);
      EXPECT_EQ(system.worker_count(), workers);
      std::uint64_t expected = 0;
      for (int round = 0; round < 4; ++round) {
        for (NodeId v = 1; v < kNodes; ++v) system.request(v);
        expected += kNodes - 1;
        ASSERT_TRUE(system.wait_for_satisfied_for(expected, kWait))
            << "workers=" << workers << " batch=" << batch;
      }
      system.shutdown();
      EXPECT_EQ(system.satisfied_count(), expected);
      std::size_t holders = 0;
      for (NodeId v = 0; v < kNodes; ++v) {
        holders += system.node(v).holds_token() ? 1u : 0u;
      }
      EXPECT_EQ(holders, 1u) << "workers=" << workers << " batch=" << batch;
    }
  }
}

TEST(ActorSystem, WorkerCountDefaultsToUsableCpusLessOneClampedToNodes) {
  const auto g = graph::make_ring(6);
  auto policy = proto::make_policy(proto::PolicyKind::kIvy);
  const std::size_t cpus = support::usable_cpus();
  const std::size_t expected = std::max<std::size_t>(1, cpus - 1);
  EXPECT_EQ(Options{}.workers, expected);
  // The default leaves the caller a CPU, so a default pool polls before it
  // parks whenever 2 or more CPUs are usable.
  if (cpus >= 2) {
    EXPECT_TRUE(runtime::spin_fits(Options{}.workers));
  }
  runtime::ActorSystem defaulted(g, proto::ring_bridge_config(6), *policy);
  EXPECT_EQ(defaulted.worker_count(), std::min<std::size_t>(expected, 6));
  runtime::ActorSystem oversized(g, proto::ring_bridge_config(6), *policy,
                                 {.workers = 64});
  EXPECT_EQ(oversized.worker_count(), 6u);
}

TEST(LiveDirectory, SingleWorkerModeIsDeterministic) {
  // Reorder-semantics guard: with one worker, no jitter and a sequential
  // submission pattern, the threaded runtime has exactly one schedule. Two
  // identical runs must agree on every observable - final tree, costs,
  // message counts - so an accidental change to drain order or batch
  // semantics shows up as a diff here, not as a flaky stress test.
  const auto run_once = [] {
    const auto g = graph::make_ring(12);
    Options options;
    options.policy = proto::PolicyKind::kIvy;
    options.seed = 7;
    options.workers = 1;
    LiveDirectory dir(g, options);
    support::Rng rng(13);
    for (int i = 0; i < 30; ++i) {
      dir.acquire_and_wait(static_cast<NodeId>(rng.next_below(12)));
    }
    dir.shutdown();
    std::vector<NodeId> parents;
    for (NodeId v = 0; v < 12; ++v) parents.push_back(dir.node(v).parent());
    return std::make_tuple(parents, dir.cost_snapshot(),
                           dir.satisfied_count());
  };
  const auto [parents_a, costs_a, satisfied_a] = run_once();
  const auto [parents_b, costs_b, satisfied_b] = run_once();
  EXPECT_EQ(parents_a, parents_b);
  EXPECT_EQ(satisfied_a, satisfied_b);
  EXPECT_DOUBLE_EQ(costs_a.find_distance, costs_b.find_distance);
  EXPECT_DOUBLE_EQ(costs_a.token_distance, costs_b.token_distance);
  EXPECT_EQ(costs_a.find_messages, costs_b.find_messages);
  EXPECT_EQ(costs_a.token_messages, costs_b.token_messages);
}

TEST(LiveDirectory, DrainWithAnUnboundedBudgetWaitsForTheWork) {
  // milliseconds::max() is the natural "wait forever". now() + budget
  // overflowed into a deadline in the past (UBSan: signed overflow in the
  // conversion to nanoseconds), so drain returned false at once with none
  // of the 8 requests satisfied. Sender-side jitter keeps the volley busy
  // far longer than the spin before the park, so the wait does reach its
  // deadline computation.
  const auto g = graph::make_ring(16);
  LiveDirectory dir(g, {.policy = proto::PolicyKind::kIvy,
                        .seed = 5,
                        .max_jitter = std::chrono::microseconds(1000),
                        .workers = 2});
  for (NodeId v = 1; v < 16; v += 2) dir.acquire(v);
  EXPECT_TRUE(dir.drain(std::chrono::milliseconds::max()));
  EXPECT_EQ(dir.satisfied_count(), 8u);
}

#if defined(__SANITIZE_THREAD__)
#define ARVY_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ARVY_TEST_TSAN 1
#endif
#endif
#ifdef ARVY_TEST_TSAN
constexpr bool kThreadSanitizer = true;
#else
constexpr bool kThreadSanitizer = false;
#endif

// CPU time of every thread of this process so far.
std::chrono::nanoseconds process_cpu_time() {
  timespec now{};
  EXPECT_EQ(clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now), 0);
  return std::chrono::seconds(now.tv_sec) +
         std::chrono::nanoseconds(now.tv_nsec);
}

// The idle check of a pool of kIdleThreads polling threads (ActorSystem's
// workers, DirectoryService's shards), run right after the caller's burst
// left them busy. Each polls for kSpinBeforePark when a busy spell ends and
// then parks; its 2 ms backstop wakes find nothing to do and must park
// again at once. On 4 vCPUs, alone or beside a `ctest -j4` run of the same
// build, the wakes alone cost 2-9 ms of CPU per 300 ms of idleness in a
// plain build and 5-13 ms under asan-ubsan. A poll re-armed by every wake
// adds about 3 threads x 500 wakes/s x 50 us = 22 ms: that mutant reads
// 25-34 ms plain and 27-39 ms under asan-ubsan. A kLive service's 3 idle
// shards read 3-4 ms plain, and 24-26 ms with that mutant. Under tsan the
// wakes alone cost 13-39 ms, swinging with the host's load (a pool that
// never polls reads the same), which leaves no room below a re-armed poll;
// there the bound only rules out a pool that never parks (about 900 ms).
constexpr std::size_t kIdleThreads = 3;

void expect_idle_pool_stops_spinning() {
  constexpr auto kIdle = std::chrono::milliseconds(300);
  constexpr auto kIdleCpuBound =
      std::chrono::milliseconds(kThreadSanitizer ? 120 : 18);
  // Let the pool park before the window opens. The kernel adds a running
  // thread's time to the process clock only at a tick or a context switch,
  // so a thread still spinning at the first read would charge its share of
  // the burst to the idle window when it parks.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::chrono::nanoseconds before = process_cpu_time();
  std::this_thread::sleep_for(kIdle);
  const std::chrono::nanoseconds idle_cpu = process_cpu_time() - before;
  EXPECT_LT(idle_cpu, kIdleCpuBound)
      << std::chrono::duration<double, std::milli>(idle_cpu).count()
      << " ms of CPU over " << kIdle.count() << " ms idle";
}

TEST(LiveDirectory, IdlePoolStopsSpinning) {
  if (!runtime::spin_fits(kIdleThreads)) {
    GTEST_SKIP() << kIdleThreads << " workers and a caller do not fit the "
                 << "usable CPUs, so the pool never polls";
  }
  const auto g = graph::make_ring(64);
  LiveDirectory dir(g, {.policy = proto::PolicyKind::kIvy,
                        .seed = 3,
                        .workers = kIdleThreads});
  for (NodeId volley = 0; volley < 64; ++volley) {
    for (NodeId k = 0; k < 16; ++k) dir.acquire((volley + 4 * k) % 64);
    ASSERT_TRUE(dir.drain(kWait));
  }
  expect_idle_pool_stops_spinning();
}

TEST(ServiceLive, IdleShardsStopSpinning) {
  if (!runtime::spin_fits(kIdleThreads)) {
    GTEST_SKIP() << kIdleThreads << " shards and a caller do not fit the "
                 << "usable CPUs, so the shards never poll";
  }
  const auto g = graph::make_grid(8, 8);
  DirectoryService service(g, 1024, kIdleThreads,
                           {.policy = proto::PolicyKind::kIvy, .seed = 3},
                           ServiceMode::kLive);
  support::Rng rng(5);
  for (int volley = 0; volley < 64; ++volley) {
    for (int k = 0; k < 16; ++k) {
      service.acquire(rng.next_below(1024),
                      static_cast<NodeId>(rng.next_below(64)));
    }
    ASSERT_TRUE(service.drain(kWait));
  }
  expect_idle_pool_stops_spinning();
}

TEST(ActorSystemDeath, InspectingLiveCoresAborts) {
  const auto g = graph::make_path(3);
  auto policy = proto::make_policy(proto::PolicyKind::kArrow);
  runtime::ActorSystem system(g, proto::chain_config(3), *policy);
  EXPECT_DEATH((void)system.node(0), "shutdown");
  system.shutdown();
}

TEST(ActorSystemDeath, ZeroWorkersIsRejected) {
  const auto g = graph::make_path(3);
  auto policy = proto::make_policy(proto::PolicyKind::kArrow);
  EXPECT_DEATH(
      {
        runtime::ActorSystem system(g, proto::chain_config(3), *policy,
                                    {.workers = 0});
      },
      "workers >= 1");
}

}  // namespace
