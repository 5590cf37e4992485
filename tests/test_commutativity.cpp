// Lemma 1: concurrent events at different nodes commute - applying them in
// either order yields the same configuration. We exercise the concrete event
// pairs from the lemma's proof on real cores and compare full node states.
//
// The second half derives its test pairs from explore::independent() - the
// SAME predicate the arvy_explore DPOR reduction prunes with - and validates
// them on full engines: every pair the predicate calls independent must
// commute (equal configurations either way, neither order disabling the
// other), and the predicate must be symmetric. One shared predicate,
// exercised from both sides: the model checker trusts it to prune, this
// suite proves the commutation facts it encodes.
#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>

#include "explore/explorer.hpp"
#include "explore/independence.hpp"
#include "proto/core.hpp"
#include "proto/engine.hpp"
#include "proto/policies.hpp"
#include "verify/configuration.hpp"

namespace {

using namespace arvy::proto;

struct NodeSnapshot {
  NodeId parent;
  std::optional<NodeId> next;
  bool token;
  bool bridge;
  std::optional<RequestId> outstanding;

  friend bool operator==(const NodeSnapshot&, const NodeSnapshot&) = default;
};

NodeSnapshot snap(const ArvyCore& core) {
  return {core.parent(), core.next(), core.holds_token(),
          core.parent_edge_is_bridge(), core.outstanding()};
}

FindMessage find_by(NodeId producer, std::vector<NodeId> visited,
                    RequestId request = 1) {
  FindMessage m;
  m.producer = producer;
  m.visited = std::move(visited);
  m.sender = m.visited.back();
  m.request = request;
  return m;
}

// Builds the pair of cores fresh for each ordering.
struct TwoNodes {
  std::unique_ptr<NewParentPolicy> policy = make_policy(PolicyKind::kArrow);
  NodeCell u_cell, v_cell;
  ArvyCore u{2, u_cell.slots(), policy.get(), nullptr, nullptr};
  ArvyCore v{5, v_cell.slots(), policy.get(), nullptr, nullptr};
};

TEST(Lemma1, RequestAndRequestCommute) {
  auto run = [](bool u_first) {
    TwoNodes nodes;
    nodes.u.initialize(7, false, false);
    nodes.v.initialize(8, false, false);
    Effects eu, ev;
    FindMessage fu, fv;
    if (u_first) {
      eu = nodes.u.request_token(1, fu);
      ev = nodes.v.request_token(2, fv);
    } else {
      ev = nodes.v.request_token(2, fv);
      eu = nodes.u.request_token(1, fu);
    }
    EXPECT_EQ(eu.send, Effects::Send::kFind);
    EXPECT_EQ(ev.send, Effects::Send::kFind);
    return std::pair{snap(nodes.u), snap(nodes.v)};
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(Lemma1, ReceiveFindAndRequestCommute) {
  auto run = [](bool find_first) {
    TwoNodes nodes;
    nodes.u.initialize(7, false, false);   // will receive a find
    nodes.v.initialize(2, false, false);   // will request (parent is u)
    FindMessage incoming = find_by(9, {9, 3}, 4);
    FindMessage own;
    Effects eu, ev;
    if (find_first) {
      eu = nodes.u.on_find(incoming);
      ev = nodes.v.request_token(5, own);
    } else {
      ev = nodes.v.request_token(5, own);
      eu = nodes.u.on_find(incoming);
    }
    EXPECT_EQ(eu.send, Effects::Send::kFind);  // forwarded to old parent 7
    return std::pair{snap(nodes.u), snap(nodes.v)};
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(Lemma1, ReceiveTokenAndReceiveFindCommute) {
  auto run = [](bool token_first) {
    TwoNodes nodes;
    nodes.u.initialize(7, false, false);
    nodes.v.initialize(2, false, false);
    FindMessage own;
    (void)nodes.u.request_token(1, own);  // u awaits the token
    FindMessage incoming = find_by(9, {9, 3}, 4);
    Effects eu, ev;
    if (token_first) {
      eu = nodes.u.on_token(TokenMessage{6});
      ev = nodes.v.on_find(incoming);
    } else {
      ev = nodes.v.on_find(incoming);
      eu = nodes.u.on_token(TokenMessage{6});
    }
    EXPECT_EQ(eu.satisfied, std::optional<RequestId>{1});
    return std::pair{snap(nodes.u), snap(nodes.v)};
  };
  EXPECT_EQ(run(true), run(false));
}

// --- The shared independence predicate, validated on full engines ----------

namespace shared_predicate {

using arvy::explore::Action;
using arvy::explore::ActionDesc;
using arvy::explore::ActionKind;
using arvy::explore::Scenario;
using arvy::explore::Trace;

std::unique_ptr<SimEngine> build(const Scenario& s, const Trace& prefix) {
  const auto policy = make_policy(s.policy, 2);
  auto engine = std::make_unique<SimEngine>(s.graph, s.init, *policy);
  for (const arvy::graph::NodeId v : s.requests) engine->submit(v);
  for (const Action& a : prefix) {
    EXPECT_TRUE(arvy::explore::apply_action(*engine, a));
  }
  return engine;
}

arvy::verify::Configuration snapshot(const SimEngine& engine) {
  arvy::verify::Configuration cfg = arvy::verify::capture(engine);
  cfg.canonicalize();
  return cfg;
}

// Walks every reachable action prefix (depth-bounded, deduplicated on the
// reached configuration) and hands each state's enabled-action set to the
// visitor. drops_allowed adds drop choice points like the explorer's
// fault-budget mode.
template <typename Visitor>
void for_each_state(const Scenario& s, std::uint32_t drops_allowed,
                    Visitor&& visit) {
  std::unordered_set<arvy::verify::Configuration,
                     arvy::verify::ConfigurationHash>
      seen;
  const std::size_t max_depth = 10;
  auto dfs = [&](auto&& self, const Trace& prefix,
                 std::uint32_t drops_left) -> void {
    const auto engine = build(s, prefix);
    if (!seen.insert(snapshot(*engine)).second) return;
    const std::vector<ActionDesc> enabled =
        arvy::explore::enabled_actions(*engine, drops_left);
    visit(s, prefix, enabled, drops_left);
    if (prefix.size() >= max_depth) return;
    for (const ActionDesc& a : enabled) {
      Trace next = prefix;
      next.push_back(a.action);
      self(self,
           next, a.action.kind == ActionKind::kDrop ? drops_left - 1
                                                    : drops_left);
    }
  };
  dfs(dfs, {}, drops_allowed);
}

TEST(SharedPredicate, IsSymmetric) {
  const Scenario s =
      arvy::explore::make_scenario("path4", PolicyKind::kArrow, {0, 3});
  for_each_state(s, 1,
                 [](const Scenario&, const Trace&,
                    const std::vector<ActionDesc>& enabled, std::uint32_t) {
                   for (const ActionDesc& a : enabled) {
                     for (const ActionDesc& b : enabled) {
                       EXPECT_EQ(arvy::explore::independent(a, b),
                                 arvy::explore::independent(b, a));
                     }
                   }
                 });
}

// Every pair the predicate calls independent, at every reachable state of
// the scenario, commutes on the real engine: same configuration either way,
// and neither order disables the other action. This is exactly the promise
// the DPOR sleep sets cash in when they prune.
void expect_independent_pairs_commute(const Scenario& s,
                                      std::uint32_t drops_allowed,
                                      std::size_t& pairs_checked) {
  for_each_state(
      s, drops_allowed,
      [&pairs_checked](const Scenario& scenario, const Trace& prefix,
                       const std::vector<ActionDesc>& enabled,
                       std::uint32_t) {
        for (std::size_t i = 0; i < enabled.size(); ++i) {
          for (std::size_t j = i + 1; j < enabled.size(); ++j) {
            const ActionDesc& a = enabled[i];
            const ActionDesc& b = enabled[j];
            if (!arvy::explore::independent(a, b)) continue;
            ++pairs_checked;
            const auto ab = build(scenario, prefix);
            ASSERT_TRUE(arvy::explore::apply_action(*ab, a.action));
            ASSERT_TRUE(arvy::explore::apply_action(*ab, b.action))
                << "a disabled b despite independence";
            const auto ba = build(scenario, prefix);
            ASSERT_TRUE(arvy::explore::apply_action(*ba, b.action));
            ASSERT_TRUE(arvy::explore::apply_action(*ba, a.action))
                << "b disabled a despite independence";
            EXPECT_EQ(snapshot(*ab), snapshot(*ba))
                << "independent pair does not commute after prefix of "
                << prefix.size() << " actions";
          }
        }
      });
}

TEST(SharedPredicate, IndependentPairsCommuteOnRealEngines) {
  std::size_t pairs = 0;
  expect_independent_pairs_commute(
      arvy::explore::make_scenario("path4", PolicyKind::kArrow, {0, 3}), 0,
      pairs);
  expect_independent_pairs_commute(
      arvy::explore::make_scenario("ring6", PolicyKind::kIvy), 0, pairs);
  EXPECT_GT(pairs, 0u) << "the sweep found no independent pairs to check";
}

TEST(SharedPredicate, IndependentPairsCommuteUnderFaultChoicePoints) {
  std::size_t pairs = 0;
  expect_independent_pairs_commute(
      arvy::explore::make_scenario("path4", PolicyKind::kArrow, {0, 3}), 1,
      pairs);
  EXPECT_GT(pairs, 0u);
}

// The dependence side: the predicate is not vacuously conservative. Two
// deliveries bound for the same node genuinely race - somewhere in the
// state space, swapping them changes the configuration - so DPOR must keep
// exploring both orders.
TEST(SharedPredicate, SomeDependentPairTrulyDoesNotCommute) {
  const Scenario s =
      arvy::explore::make_scenario("path4", PolicyKind::kArrow, {0, 3});
  bool witness = false;
  for_each_state(
      s, 0,
      [&witness](const Scenario& scenario, const Trace& prefix,
                 const std::vector<ActionDesc>& enabled, std::uint32_t) {
        if (witness) return;
        for (std::size_t i = 0; i < enabled.size() && !witness; ++i) {
          for (std::size_t j = i + 1; j < enabled.size() && !witness; ++j) {
            const ActionDesc& a = enabled[i];
            const ActionDesc& b = enabled[j];
            if (arvy::explore::independent(a, b)) continue;
            if (a.action.kind != ActionKind::kDeliver ||
                b.action.kind != ActionKind::kDeliver) {
              continue;
            }
            const auto ab = build(scenario, prefix);
            if (!arvy::explore::apply_action(*ab, a.action)) continue;
            if (!arvy::explore::apply_action(*ab, b.action)) continue;
            const auto ba = build(scenario, prefix);
            if (!arvy::explore::apply_action(*ba, b.action)) continue;
            if (!arvy::explore::apply_action(*ba, a.action)) continue;
            if (snapshot(*ab) != snapshot(*ba)) witness = true;
          }
        }
      });
  EXPECT_TRUE(witness)
      << "no dependent delivery pair changed the outcome when swapped";
}

}  // namespace shared_predicate

TEST(Lemma1, EffectsAreAlsoOrderIndependent) {
  // Beyond final states, the emitted messages themselves must match.
  auto run = [](bool u_first) {
    TwoNodes nodes;
    nodes.u.initialize(7, false, false);
    nodes.v.initialize(8, false, false);
    Effects eu, ev;
    FindMessage fu, fv;
    if (u_first) {
      eu = nodes.u.request_token(1, fu);
      ev = nodes.v.request_token(2, fv);
    } else {
      ev = nodes.v.request_token(2, fv);
      eu = nodes.u.request_token(1, fu);
    }
    return std::tuple{eu.to, fu.producer, fu.visited,
                      ev.to, fv.producer, fv.visited};
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
