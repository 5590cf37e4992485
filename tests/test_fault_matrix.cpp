// The fault matrix: every delivery discipline crossed with every fault
// scenario, on BOTH transports, through the same AnyDirectory facade.
//
// Acceptance criteria exercised here:
//  - seeded drop/dup/pause/storm plans terminate with every request
//    satisfied via retransmission, and the relaxed (fault-modulo) Lemma 2 /
//    Theorem 5 checks stay green - with zero permanent losses they are the
//    STRICT checks, so "relaxed" buys nothing on a healthy run;
//  - the 64-node ring with 10% find+token drop re-drives every request;
//  - the threaded LiveDirectory survives the same scenario list (and, under
//    ThreadSanitizer, deferred retries racing shutdown).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "proto/directory.hpp"
#include "runtime/live_directory.hpp"
#include "verify/configuration.hpp"
#include "verify/fault_tolerant.hpp"
#include "verify/invariants.hpp"
#include "workload/workload.hpp"

namespace {

using namespace arvy;
using graph::NodeId;

struct Scenario {
  std::string name;
  faults::FaultPlan faults;
};

// gtest's fallback printer dumps a parameter's raw bytes, and a Scenario's
// first bytes are its std::string's heap pointer: the discovered ctest name
// would change from run to run. Print the scenario's name instead.
void PrintTo(const Scenario& scenario, std::ostream* os) {
  *os << scenario.name;
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  out.push_back({"drop10", {.drop_find = 0.1, .drop_token = 0.1, .seed = 5}});
  out.push_back({"dup5", {.duplicate = 0.05, .seed = 6}});
  out.push_back(
      {"pause_holder",
       {.pauses = {{.node = 0, .at = 2.0, .duration = 30.0}}, .seed = 7}});
  out.push_back(
      {"latency_storm",
       {.storms = {{.at = 0.0, .duration = 50.0, .factor = 6.0}}, .seed = 8}});
  return out;
}

struct MatrixParam {
  sim::Discipline discipline;
  Scenario scenario;
};

// `<discipline>_<scenario>`: the test-name suffix, and (through PrintTo) the
// printed parameter, so no heap pointer reaches the ctest name.
std::string matrix_name(const MatrixParam& param) {
  return std::string(sim::discipline_name(param.discipline)) + "_" +
         param.scenario.name;
}

void PrintTo(const MatrixParam& param, std::ostream* os) {
  *os << matrix_name(param);
}

std::string param_name(const testing::TestParamInfo<MatrixParam>& info) {
  return matrix_name(info.param);
}

class FaultMatrix : public testing::TestWithParam<MatrixParam> {};

TEST_P(FaultMatrix, SimDirectoryDrainsSatisfiedAndVerified) {
  const auto& param = GetParam();
  const auto g = graph::make_ring(16);
  Directory dir(g, {.policy = proto::PolicyKind::kIvy,
                    .discipline = param.discipline,
                    .seed = 21,
                    .faults = param.scenario.faults});
  // Per-event relaxed invariant checking: with retries on and no permanent
  // losses this is exactly the strict Lemma 2 check.
  std::size_t events = 0;
  dir.on_event([&](const Directory& d) {
    ++events;
    const auto check = verify::check_all_relaxed(d);
    ASSERT_TRUE(check.ok) << check.detail;
  });
  support::Rng rng(31);
  const auto sequence = workload::uniform_sequence(g.node_count(), 40, rng);
  dir.run_sequential(sequence);
  EXPECT_TRUE(dir.drain());
  EXPECT_EQ(dir.unsatisfied_count(), 0u);
  EXPECT_GT(events, 0u);
  const auto stats = dir.fault_stats();
  EXPECT_EQ(stats.permanent_losses, 0u) << "retries were exhausted";
  EXPECT_EQ(stats.drops, stats.retries);
  const auto liveness = verify::audit_liveness_relaxed(dir);
  EXPECT_TRUE(liveness.ok) << liveness.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Disciplines, FaultMatrix,
    testing::ValuesIn([] {
      std::vector<MatrixParam> params;
      for (sim::Discipline d :
           {sim::Discipline::kTimed, sim::Discipline::kFifo,
            sim::Discipline::kLifo, sim::Discipline::kRandom}) {
        for (const Scenario& s : scenarios()) params.push_back({d, s});
      }
      return params;
    }()),
    param_name);

TEST(FaultMatrixAcceptance, Ring64TenPercentDropAllSatisfiedViaRetry) {
  // The PR's headline criterion: 64-node ring, 10% of find AND token
  // transmissions dropped, every request eventually satisfied because the
  // retry layer re-drives them; relaxed Lemma 2 checks green throughout.
  const auto g = graph::make_ring(64);
  Directory dir(g, {.policy = proto::PolicyKind::kIvy,
                    .seed = 97,
                    .faults = {.drop_find = 0.1, .drop_token = 0.1, .seed = 13},
                    .retry = {.rto = 4.0, .backoff = 2.0}});
  dir.on_event([&](const Directory& d) {
    const auto check = verify::check_all_relaxed(d);
    ASSERT_TRUE(check.ok) << check.detail;
  });
  support::Rng rng(41);
  const auto sequence = workload::uniform_sequence(g.node_count(), 120, rng);
  dir.run_sequential(sequence);
  EXPECT_TRUE(dir.drain());
  EXPECT_EQ(dir.satisfied_count(), dir.submitted_count());
  const auto stats = dir.fault_stats();
  EXPECT_GT(stats.drops, 0u) << "the plan never fired - test is vacuous";
  EXPECT_EQ(stats.drops, stats.retries);
  EXPECT_EQ(stats.permanent_losses, 0u);
  const auto liveness = verify::audit_liveness_relaxed(dir);
  EXPECT_TRUE(liveness.ok) << liveness.detail;
}

TEST(FaultMatrixAcceptance, ConcurrentTimedWorkloadSurvivesDrops) {
  const auto g = graph::make_grid(5, 5);
  Directory dir(g, {.policy = proto::PolicyKind::kIvy,
                    .seed = 11,
                    .faults = {.drop_find = 0.1, .seed = 17}});
  support::Rng rng(23);
  const auto arrivals = workload::poisson_arrivals(g.node_count(), 20, 1.5, rng);
  dir.run_concurrent(arrivals);
  EXPECT_TRUE(dir.drain());
  EXPECT_EQ(dir.unsatisfied_count(), 0u);
  const auto liveness = verify::audit_liveness_relaxed(dir);
  EXPECT_TRUE(liveness.ok) << liveness.detail;
}

TEST(FaultMatrixAcceptance, PermanentLossesAreExcusedNotIgnored) {
  // With retries off, drops become permanent losses: the strict audit must
  // fail, the relaxed audit must excuse exactly this situation, and the
  // relaxed invariants must still hold on the surviving structure.
  const auto g = graph::make_ring(16);
  Directory dir(g, {.policy = proto::PolicyKind::kIvy,
                    .seed = 3,
                    .faults = {.drop_find = 0.4, .seed = 29},
                    .retry = {.enabled = false}});
  support::Rng rng(7);
  const auto sequence = workload::uniform_sequence(g.node_count(), 30, rng);
  dir.run_sequential(sequence);
  const auto stats = dir.fault_stats();
  ASSERT_GT(stats.permanent_losses, 0u) << "no loss fired - raise drop rate";
  EXPECT_GT(dir.unsatisfied_count(), 0u);
  EXPECT_FALSE(verify::audit_liveness(dir).ok);
  const auto relaxed = verify::audit_liveness_relaxed(dir);
  EXPECT_TRUE(relaxed.ok) << relaxed.detail;
  const auto invariants = verify::check_all_relaxed(dir);
  EXPECT_TRUE(invariants.ok) << invariants.detail;
}

// --- The same scenarios on the threaded transport ---------------------------

class LiveFaultMatrix : public testing::TestWithParam<Scenario> {};

TEST_P(LiveFaultMatrix, LiveDirectoryDrainsAllSatisfied) {
  const Scenario& scenario = GetParam();
  const auto g = graph::make_ring(8);
  // Compress wall time: one sim-time unit = 50us, so pause/storm windows
  // and retransmission backoffs finish in milliseconds.
  LiveDirectory dir(g, {.policy = proto::PolicyKind::kIvy,
                        .seed = 19,
                        .faults = scenario.faults,
                        .fault_time_unit = std::chrono::microseconds(50)});
  for (int round = 0; round < 5; ++round) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      dir.acquire_and_wait(v);
    }
  }
  EXPECT_TRUE(dir.drain(std::chrono::milliseconds(10'000)));
  EXPECT_EQ(dir.satisfied_count(), dir.submitted_count());
  const auto stats = dir.fault_stats();
  EXPECT_EQ(stats.permanent_losses, 0u);
  EXPECT_EQ(stats.drops, stats.retries);
  dir.shutdown();
  // Post-shutdown: exactly one node holds the token.
  std::size_t holders = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (dir.node(v).holds_token()) ++holders;
  }
  EXPECT_EQ(holders, 1u);
}

std::string scenario_name(const testing::TestParamInfo<Scenario>& param_info) {
  return param_info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Scenarios, LiveFaultMatrix,
                         testing::ValuesIn(scenarios()), scenario_name);

TEST(LiveFaultStress, RetriesRacingShutdown) {
  // Deferred retransmissions still held by their senders' workers while
  // shutdown tears the system down: a worker must exit with frames still
  // held, dropping them, and a due one pushed into a closed ring is
  // dropped too. Run under TSan this doubles as a race check on the whole
  // injector/held-frame/ring seam.
  const auto g = graph::make_ring(8);
  for (int round = 0; round < 10; ++round) {
    LiveDirectory dir(g,
                      {.policy = proto::PolicyKind::kIvy,
                       .seed = 100 + static_cast<std::uint64_t>(round),
                       .faults = {.drop_find = 0.3,
                                  .drop_token = 0.3,
                                  .duplicate = 0.2,
                                  .seed = 55},
                       // Long backoffs guarantee retries are still pending
                       // at shutdown time.
                       .retry = {.rto = 2000.0, .backoff = 2.0},
                       .fault_time_unit = std::chrono::microseconds(200)});
    for (NodeId v = 0; v < g.node_count(); ++v) dir.acquire(v);
    // Shut down immediately: in-flight deferrals race the teardown.
    dir.shutdown();
    EXPECT_TRUE(dir.is_shut_down());
  }
}

TEST(LiveFaultStress, DuplicatedTokensNeverForkTheTokenLive) {
  const auto g = graph::make_complete(6);
  LiveDirectory dir(g, {.policy = proto::PolicyKind::kIvy,
                        .seed = 77,
                        .faults = {.duplicate = 0.5, .seed = 88},
                        .fault_time_unit = std::chrono::microseconds(50)});
  for (int round = 0; round < 10; ++round) {
    for (NodeId v = 0; v < g.node_count(); ++v) dir.acquire_and_wait(v);
  }
  dir.shutdown();
  std::size_t holders = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (dir.node(v).holds_token()) ++holders;
  }
  // Receiver-side dedup: at-least-once wire, exactly-once core, one token.
  EXPECT_EQ(holders, 1u);
}

// --- Transport-agnostic facade ----------------------------------------------

TEST(AnyDirectory, SameCodeDrivesBothTransports) {
  const auto g = graph::make_ring(8);
  const Options options = {.policy = proto::PolicyKind::kIvy,
                           .seed = 5,
                           .faults = {.drop_find = 0.05, .seed = 2},
                           .fault_time_unit = std::chrono::microseconds(50)};
  auto drive = [&](AnyDirectory& dir) {
    for (NodeId v = 0; v < g.node_count(); ++v) dir.acquire_and_wait(v);
    EXPECT_TRUE(dir.drain());
    EXPECT_EQ(dir.satisfied_count(), dir.submitted_count());
    EXPECT_EQ(dir.node_count(), g.node_count());
    EXPECT_GT(dir.cost_snapshot().total_distance(), 0.0);
    EXPECT_EQ(dir.fault_stats().permanent_losses, 0u);
  };
  Directory sim_dir(g, options);
  drive(sim_dir);
  LiveDirectory live_dir(g, options);
  drive(live_dir);
  live_dir.shutdown();
}

}  // namespace
