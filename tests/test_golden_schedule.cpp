// Golden delivery schedules captured from the pre-arena MessageBus (the
// std::map-based pending set). The arena rewrite must be bit-identical for
// every discipline and seed: kRandom draws the same rng stream and picks the
// same index-in-send-order, so any divergence here is a semantic regression,
// not a tuning difference. If these ever need to change, that is a breaking
// change to replay compatibility and must be called out loudly.
#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.hpp"
#include "proto/directory.hpp"
#include "proto/engine.hpp"
#include "proto/policies.hpp"
#include "sim/bus.hpp"

namespace {

using namespace arvy;

struct Toy {
  int tag = 0;
};

std::vector<int> bus_random_order(std::uint64_t seed, int count) {
  sim::MessageBus<Toy>::Options o;
  o.discipline = sim::Discipline::kRandom;
  o.seed = seed;
  sim::MessageBus<Toy> bus(std::move(o));
  std::vector<int> seen;
  bus.set_handler([&](const sim::MessageBus<Toy>::InFlight& m) {
    seen.push_back(m.payload.tag);
  });
  for (int i = 0; i < count; ++i) bus.send(0, 1, {i});
  bus.run_until_idle();
  return seen;
}

// Interleaves sends and deliveries so the pending set grows and shrinks:
// exercises index-in-send-order picks on a sparse arena window.
std::vector<int> bus_random_mixed(std::uint64_t seed) {
  sim::MessageBus<Toy>::Options o;
  o.discipline = sim::Discipline::kRandom;
  o.seed = seed;
  sim::MessageBus<Toy> bus(std::move(o));
  std::vector<int> seen;
  bus.set_handler([&](const sim::MessageBus<Toy>::InFlight& m) {
    seen.push_back(m.payload.tag);
  });
  int tag = 0;
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 4; ++i) bus.send(0, 1, {tag++});
    bus.step();
    bus.step();
  }
  bus.run_until_idle();
  return seen;
}

sim::Schedule engine_schedule(sim::Discipline d, std::uint64_t seed,
                              faults::FaultPlan faults = {},
                              faults::RetryPolicy retry = {}) {
  const auto g = graph::make_ring(10);
  auto policy = proto::make_policy(proto::PolicyKind::kIvy);
  proto::SimEngine::Options options;
  options.discipline = d;
  options.seed = seed;
  options.record_schedule = true;
  options.faults = std::move(faults);
  options.retry = retry;
  proto::SimEngine engine(g, proto::ring_bridge_config(10), *policy,
                          std::move(options));
  engine.submit(0);
  engine.submit(5);
  engine.step();
  engine.submit(8);
  engine.step();
  engine.step();
  engine.submit(2);
  engine.run_until_idle();
  return engine.bus().schedule();
}

TEST(GoldenSchedule, RandomDrainSeed99) {
  const std::vector<int> golden = {11, 18, 12, 27, 25, 5,  8,  1,  28, 19, 23,
                                   4,  3,  6,  15, 17, 9,  30, 7,  24, 16, 13,
                                   29, 21, 22, 0,  10, 14, 26, 2,  20, 31};
  EXPECT_EQ(bus_random_order(99, 32), golden);
}

TEST(GoldenSchedule, RandomDrainSeed5) {
  const std::vector<int> golden = {4, 10, 11, 13, 7, 12, 6, 14,
                                   2, 3,  15, 1,  5, 9,  8, 0};
  EXPECT_EQ(bus_random_order(5, 16), golden);
}

TEST(GoldenSchedule, RandomMixedTrafficSeed7) {
  const std::vector<int> golden = {2,  0,  7,  6,  11, 10, 1,  3,  12, 5, 17,
                                   20, 27, 25, 19, 22, 14, 18, 9,  8,  15, 28,
                                   26, 16, 29, 4,  13, 24, 21, 30, 23, 31};
  EXPECT_EQ(bus_random_mixed(7), golden);
}

TEST(GoldenSchedule, EngineRandomSeed42) {
  const sim::Schedule golden = {1, 3, 5, 7, 6, 8, 9, 4, 10, 11, 2, 12, 13, 14, 15};
  EXPECT_EQ(engine_schedule(sim::Discipline::kRandom, 42), golden);
}

TEST(GoldenSchedule, EngineFifoSeed7) {
  const sim::Schedule golden = {1, 2,  3,  4,  5,  6,  7, 8,
                                9, 10, 11, 12, 13, 14, 15};
  EXPECT_EQ(engine_schedule(sim::Discipline::kFifo, 7), golden);
}

TEST(GoldenSchedule, EngineLifoSeed7) {
  const sim::Schedule golden = {2, 4,  5,  7,  8, 9,  6, 10,
                                3, 11, 12, 1,  13, 14, 15};
  EXPECT_EQ(engine_schedule(sim::Discipline::kLifo, 7), golden);
}

TEST(GoldenSchedule, EngineTimedSeed7) {
  const sim::Schedule golden = {1, 2,  3,  4,  5,  6,  8, 7,
                                9, 10, 11, 12, 13, 14, 15};
  EXPECT_EQ(engine_schedule(sim::Discipline::kTimed, 7), golden);
}

TEST(GoldenSchedule, ZeroFaultPlanIsAStrictNoOp) {
  // The fault seam's no-op contract: passing an explicitly-constructed empty
  // FaultPlan (plus a retry policy, which is inert without a plan) must not
  // install a send filter, must not consume a single extra rng draw, and
  // must reproduce every golden schedule bit for bit. A "no faults" run that
  // differs from the pre-fault-subsystem run would invalidate every recorded
  // schedule and replay in the repo.
  const faults::FaultPlan no_faults;
  ASSERT_TRUE(no_faults.empty());
  const faults::RetryPolicy retry = {.rto = 2.0, .backoff = 3.0};
  EXPECT_EQ(engine_schedule(sim::Discipline::kRandom, 42, no_faults, retry),
            (sim::Schedule{1, 3, 5, 7, 6, 8, 9, 4, 10, 11, 2, 12, 13, 14, 15}));
  EXPECT_EQ(engine_schedule(sim::Discipline::kLifo, 7, no_faults, retry),
            (sim::Schedule{2, 4, 5, 7, 8, 9, 6, 10, 3, 11, 12, 1, 13, 14, 15}));
  EXPECT_EQ(engine_schedule(sim::Discipline::kTimed, 7, no_faults, retry),
            (sim::Schedule{1, 2, 3, 4, 5, 6, 8, 7, 9, 10, 11, 12, 13, 14, 15}));

  // And the engine really did not build an injector: zero fault bookkeeping.
  const auto g = graph::make_ring(10);
  auto policy = proto::make_policy(proto::PolicyKind::kIvy);
  proto::SimEngine::Options options;
  options.seed = 42;
  options.faults = no_faults;
  options.retry = retry;
  proto::SimEngine engine(g, proto::ring_bridge_config(10), *policy,
                          std::move(options));
  EXPECT_EQ(engine.injector(), nullptr);
  engine.submit(0);
  engine.submit(5);
  engine.run_until_idle();
  EXPECT_EQ(engine.bus().lost(), 0u);
  EXPECT_EQ(engine.unsatisfied_count(), 0u);
}

// A facade-level run: schedule recorded through arvy::Options, plus the
// satisfaction order, so the golden pins the whole observable outcome.
struct FacadeRun {
  sim::Schedule schedule;
  std::vector<graph::NodeId> satisfied;  // nodes in satisfaction order

  friend bool operator==(const FacadeRun&, const FacadeRun&) = default;
};

FacadeRun facade_concurrent_run(sim::Discipline d, std::uint64_t seed,
                                faults::FaultPlan faults = {}) {
  const auto g = graph::make_ring(10);
  Directory dir(g, {.policy = proto::PolicyKind::kIvy,
                    .discipline = d,
                    .seed = seed,
                    .faults = std::move(faults),
                    .record_schedule = true});
  FacadeRun run;
  dir.on_satisfied([&run](const proto::RequestRecord& r) {
    run.satisfied.push_back(r.node);
  });
  const std::vector<proto::TimedRequest> requests = {
      {.node = 0, .at = 0.0},
      {.node = 5, .at = 0.5},
      {.node = 8, .at = 1.0},
      {.node = 2, .at = 1.5},
  };
  dir.run_concurrent(requests);
  EXPECT_EQ(dir.unsatisfied_count(), 0u);
  run.schedule = dir.inspect().bus().schedule();
  return run;
}

TEST(GoldenSchedule, FacadeConcurrentRunWithInertFaultPlanMatchesFaultFree) {
  // A NON-empty fault plan whose windows can never fire (a pause far past
  // the run's horizon) installs the injector yet must not change one bit of
  // the observable run: same delivery schedule, same satisfaction order, on
  // a timed and a randomized discipline. This pins the stronger contract:
  // not just "empty plan == no-op" (above) but "installed-but-idle injector
  // == no-op" through the public facade, run_concurrent included.
  faults::FaultPlan inert;
  inert.pauses.push_back({.node = 3, .at = 1.0e9, .duration = 5.0});
  ASSERT_FALSE(inert.empty());
  for (sim::Discipline d : {sim::Discipline::kTimed, sim::Discipline::kRandom}) {
    EXPECT_EQ(facade_concurrent_run(d, 42, inert), facade_concurrent_run(d, 42))
        << "discipline " << static_cast<int>(d);
  }
}

TEST(GoldenSchedule, FacadeConcurrentRunTimedSeed42) {
  // Golden literal for the facade run itself, so drift is caught even if
  // both sides of the comparison above drift together.
  const FacadeRun run = facade_concurrent_run(sim::Discipline::kTimed, 42);
  EXPECT_EQ(run.satisfied, (std::vector<graph::NodeId>{0, 8, 2, 5}));
  EXPECT_EQ(run.schedule,
            (sim::Schedule{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
}

TEST(GoldenSchedule, GoldenScheduleReplays) {
  // The recorded kRandom schedule, replayed through kScripted, must walk the
  // same configurations: replay compatibility is what the goldens protect.
  const sim::Schedule recorded = engine_schedule(sim::Discipline::kRandom, 42);
  const auto g = graph::make_ring(10);
  auto policy = proto::make_policy(proto::PolicyKind::kIvy);
  proto::SimEngine::Options options;
  options.discipline = sim::Discipline::kScripted;
  options.script = recorded;
  options.record_schedule = true;
  proto::SimEngine engine(g, proto::ring_bridge_config(10), *policy,
                          std::move(options));
  engine.submit(0);
  engine.submit(5);
  engine.step();
  engine.submit(8);
  engine.step();
  engine.step();
  engine.submit(2);
  engine.run_until_idle();
  EXPECT_EQ(engine.bus().schedule(), recorded);
  EXPECT_EQ(engine.unsatisfied_count(), 0u);
}

}  // namespace
