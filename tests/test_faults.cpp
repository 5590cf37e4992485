// Unit tests for the fault layer: plan parsing, the strict-no-op contract,
// injector verdicts and their accounting, and the bus-level send filter
// (drop chains become delays, duplicates become dedup groups, permanent
// losses vanish without consuming message ids).
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "sim/bus.hpp"

namespace {

using namespace arvy;
using faults::FaultPlan;
using faults::MessageKind;
using faults::RetryPolicy;

TEST(FaultPlan, DefaultIsEmpty) {
  EXPECT_TRUE(FaultPlan{}.empty());
  EXPECT_TRUE(faults::parse_fault_plan("").empty());
  EXPECT_TRUE(faults::parse_fault_plan("none").empty());
}

TEST(FaultPlan, SeedAloneKeepsThePlanEmpty) {
  // A seed without any declared fault must not activate the injector.
  EXPECT_TRUE(faults::parse_fault_plan("seed=9").empty());
}

TEST(FaultPlan, ParsesTheWorkedExample) {
  const FaultPlan plan = faults::parse_fault_plan("drop=0.1,dup=0.05");
  EXPECT_DOUBLE_EQ(plan.drop_find, 0.1);
  EXPECT_DOUBLE_EQ(plan.drop_token, 0.1);
  EXPECT_DOUBLE_EQ(plan.duplicate, 0.05);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, ParsesEveryKey) {
  const FaultPlan plan = faults::parse_fault_plan(
      "dropfind=0.2,droptoken=0.1,dup=0.05,reorder=0.3:16,"
      "storm=10:5:8,pause=3:20:4,stall=30:2,seed=7");
  EXPECT_DOUBLE_EQ(plan.drop_find, 0.2);
  EXPECT_DOUBLE_EQ(plan.drop_token, 0.1);
  EXPECT_DOUBLE_EQ(plan.duplicate, 0.05);
  EXPECT_DOUBLE_EQ(plan.reorder, 0.3);
  EXPECT_DOUBLE_EQ(plan.reorder_spike, 16.0);
  ASSERT_EQ(plan.storms.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.storms[0].at, 10.0);
  EXPECT_DOUBLE_EQ(plan.storms[0].duration, 5.0);
  EXPECT_DOUBLE_EQ(plan.storms[0].factor, 8.0);
  ASSERT_EQ(plan.pauses.size(), 1u);
  EXPECT_EQ(plan.pauses[0].node, 3u);
  ASSERT_EQ(plan.stalls.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.stalls[0].at, 30.0);
  EXPECT_EQ(plan.seed, 7u);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW((void)faults::parse_fault_plan("drop"), std::invalid_argument);
  EXPECT_THROW((void)faults::parse_fault_plan("drop=2"), std::invalid_argument);
  EXPECT_THROW((void)faults::parse_fault_plan("drop=x"), std::invalid_argument);
  EXPECT_THROW((void)faults::parse_fault_plan("bogus=1"),
               std::invalid_argument);
  EXPECT_THROW((void)faults::parse_fault_plan("storm=5"),
               std::invalid_argument);
  EXPECT_THROW((void)faults::parse_fault_plan("pause=1:2"),
               std::invalid_argument);
}

// A malformed spec and the field its error message must name.
struct Rejection {
  std::string spec;
  std::string field;
};

// Every malformed field is an invalid_argument naming it: not a bare
// stoul/stod/at exception, and not a silently accepted value.
template <typename Parse>
void expect_rejections(Parse parse, std::span<const Rejection> cases) {
  for (const Rejection& c : cases) {
    std::string what;
    try {
      (void)parse(c.spec);
    } catch (const std::invalid_argument& error) {
      what = error.what();
    }
    EXPECT_NE(what.find("fault spec '" + c.spec + "': " + c.field),
              std::string::npos)
        << c.spec << " -> '" << what << "'";
  }
}

TEST(FaultPlan, RejectsEveryMalformedFieldByName) {
  const Rejection cases[] = {
      {"reorder=", "reorder"},
      {"reorder=0.1:-2", "reorder SPIKE"},
      {"seed=abc", "seed"},
      {"seed=-1", "seed"},
      {"seed=18446744073709551616", "seed"},
      {"shards=x", "shards"},
      {"shards=0:4294967296", "shards"},
      {"drop=x", "drop"},
      {"drop=0.5x", "drop"},
      {"drop= 0.5", "drop"},
      {"dup=nan", "dup"},
      {"dropfind=inf", "dropfind"},
      {"droptoken=-0.1", "droptoken"},
      {"pause=3:nan:1", "pause AT"},
      {"pause=-1:1:1", "pause NODE"},
      {"pause=4294967296:1:1", "pause NODE"},
      {"pause=3:1:-1", "pause DUR"},
      {"storm=1:-5", "storm DUR"},
      {"storm=-1:5", "storm AT"},
      {"storm=1:5:inf", "storm FACTOR"},
      {"storm=1:5:2:9", "storm"},
      {"stall=1e999:1", "stall AT"},
  };
  expect_rejections(faults::parse_fault_plan, cases);
}

TEST(FaultPlan, AcceptsTheEdgesOfEveryRange) {
  const FaultPlan plan = faults::parse_fault_plan(
      "drop=1,dup=0,storm=0:0:0,pause=4294967295:0:0,"
      "seed=18446744073709551615,shards=0:4294967295");
  EXPECT_DOUBLE_EQ(plan.drop_find, 1.0);
  EXPECT_DOUBLE_EQ(plan.storms.at(0).factor, 0.0);
  EXPECT_EQ(plan.pauses.at(0).node, 4294967295u);
  EXPECT_EQ(plan.seed, 18446744073709551615u);
  EXPECT_EQ(plan.shards, (std::vector<std::uint32_t>{0, 4294967295u}));
}

TEST(RetryPolicyParse, WorkedExampleAndOff) {
  const RetryPolicy retry = faults::parse_retry_policy("backoff=2x");
  EXPECT_TRUE(retry.enabled);
  EXPECT_DOUBLE_EQ(retry.backoff, 2.0);
  const RetryPolicy off = faults::parse_retry_policy("off");
  EXPECT_FALSE(off.enabled);
  const RetryPolicy full =
      faults::parse_retry_policy("backoff=3x,rto=2,cap=32,attempts=5");
  EXPECT_DOUBLE_EQ(full.backoff, 3.0);
  EXPECT_DOUBLE_EQ(full.rto, 2.0);
  EXPECT_DOUBLE_EQ(full.max_backoff, 32.0);
  EXPECT_EQ(full.max_attempts, 5u);
}

TEST(RetryPolicyParse, RejectsEveryMalformedFieldByName) {
  const Rejection cases[] = {
      {"rto=-1", "rto"},
      {"cap=nan", "cap"},
      {"backoff=infx", "backoff"},
      {"attempts=x", "attempts"},
      {"attempts=4294967296", "attempts"},
  };
  expect_rejections(faults::parse_retry_policy, cases);
}

TEST(RetryPolicyParse, RejectsMalformedSpecs) {
  EXPECT_THROW((void)faults::parse_retry_policy("backoff=0.5x"),
               std::invalid_argument);
  EXPECT_THROW((void)faults::parse_retry_policy("attempts=0"),
               std::invalid_argument);
  EXPECT_THROW((void)faults::parse_retry_policy("nope=1"),
               std::invalid_argument);
}

TEST(FaultInjector, DeterministicAcrossRuns) {
  FaultPlan plan;
  plan.drop_find = 0.3;
  plan.duplicate = 0.2;
  plan.seed = 11;
  faults::FaultInjector a(plan), b(plan);
  for (int i = 0; i < 200; ++i) {
    const auto va = a.on_send(MessageKind::kFind, 1, i * 1.0, 1.0);
    const auto vb = b.on_send(MessageKind::kFind, 1, i * 1.0, 1.0);
    EXPECT_EQ(va.lost, vb.lost);
    EXPECT_DOUBLE_EQ(va.extra_delay, vb.extra_delay);
    EXPECT_EQ(va.duplicates, vb.duplicates);
  }
  EXPECT_EQ(a.stats().drops, b.stats().drops);
  EXPECT_EQ(a.stats().duplicates, b.stats().duplicates);
}

TEST(FaultInjector, DropChainAccountingBalances) {
  FaultPlan plan;
  plan.drop_find = 0.5;
  plan.seed = 3;
  faults::FaultInjector injector(plan, {.rto = 4.0, .backoff = 2.0});
  for (int i = 0; i < 500; ++i) {
    (void)injector.on_send(MessageKind::kFind, 1, 0.0, 1.0);
  }
  const auto& stats = injector.stats();
  EXPECT_GT(stats.drops, 0u);
  // Every drop was either re-driven or declared permanently lost.
  EXPECT_EQ(stats.drops, stats.retries + stats.permanent_losses);
  EXPECT_EQ(stats.permanent_losses, stats.lost_finds + stats.lost_tokens);
}

TEST(FaultInjector, RetryOffMakesEveryDropPermanent) {
  FaultPlan plan;
  plan.drop_token = 1.0;  // certain drop
  faults::FaultInjector injector(plan, {.enabled = false});
  const auto verdict = injector.on_send(MessageKind::kToken, 1, 0.0, 1.0);
  EXPECT_TRUE(verdict.lost);
  EXPECT_EQ(injector.stats().permanent_losses, 1u);
  EXPECT_EQ(injector.stats().lost_tokens, 1u);
  EXPECT_EQ(injector.stats().retries, 0u);
}

TEST(FaultInjector, BackoffIsCappedExponential) {
  FaultPlan plan;
  plan.drop_find = 1.0;  // every transmission dropped: exhaust the chain
  faults::FaultInjector injector(
      plan, {.rto = 1.0, .backoff = 2.0, .max_backoff = 4.0,
             .max_attempts = 6});
  const auto verdict = injector.on_send(MessageKind::kFind, 1, 0.0, 1.0);
  // 5 retries accumulate 1 + 2 + 4 + 4 + 4 before the 6th attempt gives up.
  EXPECT_TRUE(verdict.lost);
  EXPECT_EQ(injector.stats().retries, 5u);
  EXPECT_EQ(injector.stats().permanent_losses, 1u);
}

TEST(FaultInjector, DropProbabilityZeroMeansNoDrops) {
  FaultPlan plan;
  plan.duplicate = 1.0;  // active plan, but no drops configured
  faults::FaultInjector injector(plan);
  const auto verdict = injector.on_send(MessageKind::kFind, 1, 0.0, 2.0);
  EXPECT_FALSE(verdict.lost);
  EXPECT_EQ(verdict.duplicates, 1u);
  EXPECT_DOUBLE_EQ(injector.stats().overhead_distance, 2.0);
}

TEST(FaultInjector, StormStretchesDelivery) {
  FaultPlan plan;
  plan.storms.push_back({.at = 10.0, .duration = 5.0, .factor = 4.0});
  faults::FaultInjector injector(plan);
  const auto in_storm = injector.on_send(MessageKind::kFind, 1, 12.0, 2.0);
  EXPECT_DOUBLE_EQ(in_storm.extra_delay, 3.0 * 2.0);  // (factor-1)*distance
  const auto outside = injector.on_send(MessageKind::kFind, 1, 20.0, 2.0);
  EXPECT_DOUBLE_EQ(outside.extra_delay, 0.0);
  EXPECT_EQ(injector.stats().delays, 1u);
}

TEST(FaultInjector, PauseDefersIngressUntilWindowEnd) {
  FaultPlan plan;
  plan.pauses.push_back({.node = 1, .at = 10.0, .duration = 6.0});
  faults::FaultInjector injector(plan);
  const auto to_paused = injector.on_send(MessageKind::kFind, 1, 12.0, 1.0);
  EXPECT_DOUBLE_EQ(to_paused.extra_delay, 4.0);  // until t=16
  const auto to_other = injector.on_send(MessageKind::kFind, 2, 12.0, 1.0);
  EXPECT_DOUBLE_EQ(to_other.extra_delay, 0.0);
}

TEST(FaultInjector, StallAffectsTokensOnly) {
  FaultPlan plan;
  plan.stalls.push_back({.at = 5.0, .duration = 10.0});
  faults::FaultInjector injector(plan);
  const auto token = injector.on_send(MessageKind::kToken, 1, 7.0, 1.0);
  EXPECT_DOUBLE_EQ(token.extra_delay, 8.0);  // until t=15
  const auto find = injector.on_send(MessageKind::kFind, 1, 7.0, 1.0);
  EXPECT_DOUBLE_EQ(find.extra_delay, 0.0);
}

// --- The bus-level send filter seam ----------------------------------------

struct Toy {
  int tag = 0;
};

using ToyBus = sim::MessageBus<Toy>;

TEST(BusSendFilter, LostSendsVanishWithoutConsumingIds) {
  ToyBus bus({});
  int delivered = 0;
  bus.set_handler([&](const ToyBus::InFlight&) { ++delivered; });
  bool lose_next = true;
  bus.set_send_filter([&](sim::NodeId, sim::NodeId, const Toy&, sim::Time,
                          double) {
    sim::SendVerdict verdict;
    verdict.lost = lose_next;
    lose_next = false;
    return verdict;
  });
  EXPECT_EQ(bus.send(0, 1, {1}), 0u);  // lost: id 0, nothing enqueued
  const auto id = bus.send(0, 1, {2});
  EXPECT_EQ(id, 1u);  // ids stay dense: the lost send consumed none
  bus.run_until_idle();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(bus.lost(), 1u);
}

TEST(BusSendFilter, DuplicatesDeliverHandlerExactlyOnce) {
  ToyBus bus({});
  int handled = 0;
  bus.set_handler([&](const ToyBus::InFlight& m) {
    ++handled;
    EXPECT_EQ(m.payload.tag, 7);
  });
  bus.set_send_filter(
      [](sim::NodeId, sim::NodeId, const Toy&, sim::Time, double) {
        sim::SendVerdict verdict;
        verdict.duplicates = 2;  // three copies on the wire
        return verdict;
      });
  bus.send(0, 1, {7});
  EXPECT_EQ(bus.in_flight_count(), 3u);
  bus.run_until_idle();
  EXPECT_EQ(handled, 1);  // at-least-once wire, exactly-once handler
  EXPECT_EQ(bus.suppressed(), 2u);
}

TEST(BusSendFilter, ExtraDelayDefersTimedDelivery) {
  ToyBus::Options options;
  options.discipline = sim::Discipline::kTimed;
  ToyBus bus(std::move(options));
  std::vector<int> order;
  bus.set_handler(
      [&](const ToyBus::InFlight& m) { order.push_back(m.payload.tag); });
  bus.set_send_filter(
      [](sim::NodeId, sim::NodeId, const Toy& payload, sim::Time, double) {
        sim::SendVerdict verdict;
        if (payload.tag == 1) verdict.extra_delay = 100.0;
        return verdict;
      });
  bus.send(0, 1, {1}, 1.0);  // delayed far past the second send
  bus.send(0, 1, {2}, 1.0);
  bus.run_until_idle();
  const std::vector<int> expected = {2, 1};
  EXPECT_EQ(order, expected);
}

TEST(BusSendFilter, NoFilterMeansNoBookkeeping) {
  ToyBus bus({});
  bus.set_handler([](const ToyBus::InFlight&) {});
  bus.send(0, 1, {1});
  bus.run_until_idle();
  EXPECT_EQ(bus.lost(), 0u);
  EXPECT_EQ(bus.suppressed(), 0u);
}

}  // namespace
