#include "explore/explorer.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <variant>

#include "graph/generators.hpp"
#include "proto/directory.hpp"
#include "proto/messages.hpp"
#include "support/assert.hpp"
#include "verify/fault_tolerant.hpp"
#include "verify/liveness.hpp"

namespace arvy::explore {

namespace {

using graph::NodeId;

constexpr std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  std::uint64_t z = (h ^ v) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// The model checker's notion of "same state". The configuration alone is not
// enough: the legal continuations also depend on how much fault budget
// remains, which relaxed-check regime the accumulated losses put us in, and
// (in seeded-bug mode) how many find deliveries remain until the mutator
// fires - all path functions the configuration cannot see.
struct StateKey {
  verify::Configuration cfg;  // canonicalized
  std::uint32_t drops_left = 0;
  std::uint32_t lost_finds = 0;
  std::uint32_t lost_tokens = 0;
  std::uint64_t bug_countdown = 0;  // finds until corruption; 0 = off/fired

  friend bool operator==(const StateKey&, const StateKey&) = default;
};

struct StateKeyHash {
  std::size_t operator()(const StateKey& k) const noexcept {
    std::uint64_t h = k.cfg.hash();
    h = mix(h, k.drops_left);
    h = mix(h, k.lost_finds);
    h = mix(h, k.lost_tokens);
    h = mix(h, k.bug_countdown);
    return static_cast<std::size_t>(h);
  }
};

// Sleep sets are tiny (bounded by the frontier width), so a flat vector
// beats any node-based set.
using SleepSet = std::vector<ActionDesc>;

bool contains(const SleepSet& set, const ActionDesc& a) {
  return std::find(set.begin(), set.end(), a) != set.end();
}

bool subset(const SleepSet& small, const SleepSet& big) {
  return std::all_of(small.begin(), small.end(),
                     [&](const ActionDesc& a) { return contains(big, a); });
}

SleepSet intersect(const SleepSet& a, const SleepSet& b) {
  SleepSet out;
  for (const ActionDesc& x : a) {
    if (contains(b, x)) out.push_back(x);
  }
  return out;
}

// Stateless re-execution harness: the engine has no undo, so "being at"
// state s means "a fresh engine with s's action prefix replayed". ensure()
// extends in place when the target path extends the applied one and rebuilds
// otherwise.
class Execution {
 public:
  Execution(const Scenario& scenario, const ExploreOptions& options)
      : scenario_(&scenario), options_(&options) {
    rebuild();
  }

  std::uint64_t executions = 0;
  std::uint64_t replay_steps = 0;

  void ensure(const Trace& path) {
    const bool extends =
        applied_.size() <= path.size() &&
        std::equal(applied_.begin(), applied_.end(), path.begin());
    std::size_t from = applied_.size();
    if (!extends) {
      rebuild();
      from = 0;
    }
    for (std::size_t i = from; i < path.size(); ++i) {
      apply(path[i]);
      ++replay_steps;
    }
  }

  void apply(const Action& a) {
    const bool ok = try_apply(a);
    ARVY_ASSERT_MSG(ok, "explorer action names no pending message");
  }

  [[nodiscard]] bool try_apply(const Action& a) {
    const sim::MessageId id = resolve(*engine_, a);
    if (id == 0) return false;
    if (a.kind == ActionKind::kDeliver) {
      engine_->bus().deliver(id);
    } else {
      ARVY_ASSERT(drops_left() > 0);
      if (a.token) {
        ++lost_tokens_;
      } else {
        ++lost_finds_;
      }
      engine_->bus().drop(id);
    }
    applied_.push_back(a);
    return true;
  }

  [[nodiscard]] std::vector<ActionDesc> enabled() const {
    return enabled_actions(*engine_, drops_left());
  }

  [[nodiscard]] std::uint32_t drops_left() const {
    return options_->fault_budget - lost_finds_ - lost_tokens_;
  }

  [[nodiscard]] StateKey key() const {
    StateKey k;
    k.cfg = verify::capture(*engine_);
    k.cfg.canonicalize();
    k.drops_left = drops_left();
    k.lost_finds = lost_finds_;
    k.lost_tokens = lost_tokens_;
    if (options_->corrupt_at_find_delivery > find_deliveries_) {
      k.bug_countdown = options_->corrupt_at_find_delivery - find_deliveries_;
    }
    return k;
  }

  // Per-state safety: strict Lemma 2 checks on loss-free paths, the
  // fault-modulo relaxation (against the synthesized loss account) once a
  // drop choice point was taken.
  [[nodiscard]] verify::CheckResult check(
      const verify::Configuration& cfg) const {
    if (lost_finds_ + lost_tokens_ == 0) {
      return verify::check_all(cfg, options_->invariants);
    }
    return verify::check_all_relaxed(cfg, synth_stats(), options_->invariants);
  }

  // Quiescent liveness: Theorem 5 strict, or excused by the recorded losses.
  [[nodiscard]] verify::CheckResult audit() const {
    if (lost_finds_ + lost_tokens_ == 0) {
      return verify::audit_liveness(*engine_);
    }
    return verify::audit_liveness_relaxed(*engine_, synth_stats());
  }

  [[nodiscard]] bool quiescent() const { return engine_->bus().idle(); }
  [[nodiscard]] const proto::SimEngine& sim_engine() const { return *engine_; }

 private:
  // The explorer's drops bypass the fault injector, so the relaxed audits
  // get an equivalent hand-built account: every drop is a permanent loss
  // (the explorer never retries - a retry is just a later delivery, which
  // the enumeration already covers as a separate branch).
  [[nodiscard]] faults::FaultStats synth_stats() const {
    faults::FaultStats s;
    s.drops = lost_finds_ + lost_tokens_;
    s.permanent_losses = s.drops;
    s.lost_finds = lost_finds_;
    s.lost_tokens = lost_tokens_;
    return s;
  }

  void rebuild() {
    const auto policy = proto::make_policy(scenario_->policy, /*k=*/2);
    proto::EngineOptions opts;
    // Discipline is irrelevant: the explorer never calls step(), every
    // delivery is an explicit deliver(id). kFifo keeps the bus's own
    // bookkeeping trivially deterministic.
    opts.discipline = sim::Discipline::kFifo;
    engine_ = std::make_unique<proto::SimEngine>(scenario_->graph,
                                                 scenario_->init, *policy,
                                                 std::move(opts));
    applied_.clear();
    find_deliveries_ = 0;
    lost_finds_ = 0;
    lost_tokens_ = 0;
    if (options_->corrupt_at_find_delivery > 0) {
      engine_->set_message_hook(
          [this](const sim::MessageBus<proto::Message>::InFlight& entry) {
            delivery_target_ = entry.to;
          });
      engine_->set_delivery_mutator([this](proto::Message& m) {
        auto* find = std::get_if<proto::FindMessage>(&m);
        if (find == nullptr) return;
        ++find_deliveries_;
        if (find_deliveries_ == options_->corrupt_at_find_delivery) {
          corrupt(*find);
        }
      });
    }
    for (const NodeId v : scenario_->requests) engine_->submit(v);
    ++executions;
  }

  // Fabricate a visited entry. The corruption keeps the receiving core's
  // preconditions intact - visited.front() stays the producer and
  // visited.back() the sender (which forces a multi-hop find: a fresh
  // one-entry visited has no slot between them), and the receiver is never
  // fabricated (that would count as a revisit) - so the *protocol* accepts
  // the message; catching the damage is squarely the checker's job, which
  // is the point of the exercise. A skipped trigger still consumes the
  // countdown: whether the bug fires is a function of the delivery prefix,
  // which keeps state caching sound in seeded-bug mode.
  void corrupt(proto::FindMessage& find) {
    const NodeId bogus = options_->corrupt_with;
    if (find.visited.size() < 2) return;
    if (bogus == delivery_target_) return;
    if (std::find(find.visited.begin(), find.visited.end(), bogus) !=
        find.visited.end()) {
      return;
    }
    find.visited.insert(find.visited.end() - 1, bogus);
  }

  const Scenario* scenario_;
  const ExploreOptions* options_;
  std::unique_ptr<proto::SimEngine> engine_;
  Trace applied_;
  std::uint64_t find_deliveries_ = 0;
  std::uint32_t lost_finds_ = 0;
  std::uint32_t lost_tokens_ = 0;
  NodeId delivery_target_ = graph::kInvalidNode;
};

// Exact shortest counterexample: plain BFS over the same action graph, no
// sleep sets (reduction could skip an equally short failure elsewhere, and
// minimization wants the true minimum), state cache for termination.
std::optional<Violation> shortest_violation(Execution& exec,
                                            const ExploreOptions& options,
                                            std::size_t max_len) {
  std::unordered_set<StateKey, StateKeyHash> seen;
  std::deque<Trace> queue;

  exec.ensure({});
  {
    StateKey k0 = exec.key();
    if (const verify::CheckResult r = exec.check(k0.cfg); !r) {
      return Violation{{}, r.detail, k0.cfg.to_dot(), false};
    }
    if (exec.quiescent()) {
      if (const verify::CheckResult live = exec.audit(); !live) {
        return Violation{{}, live.detail, k0.cfg.to_dot(), true};
      }
    }
    seen.insert(std::move(k0));
  }
  queue.push_back({});

  while (!queue.empty()) {
    if (seen.size() > options.max_states) return std::nullopt;  // give up
    const Trace t = std::move(queue.front());
    queue.pop_front();
    if (t.size() >= max_len) continue;
    exec.ensure(t);
    const std::vector<ActionDesc> enabled = exec.enabled();
    for (const ActionDesc& a : enabled) {
      exec.ensure(t);
      exec.apply(a.action);
      Trace child = t;
      child.push_back(a.action);
      StateKey k = exec.key();
      if (const verify::CheckResult r = exec.check(k.cfg); !r) {
        return Violation{std::move(child), r.detail, k.cfg.to_dot(), false};
      }
      if (exec.quiescent()) {
        if (const verify::CheckResult live = exec.audit(); !live) {
          return Violation{std::move(child), live.detail, k.cfg.to_dot(),
                           true};
        }
      }
      if (seen.insert(std::move(k)).second && child.size() < max_len) {
        queue.push_back(std::move(child));
      }
    }
  }
  return std::nullopt;
}

// One DFS level: the actions to explore from a state (post sleep-filter),
// the sleep set the state was entered with, and the explored-so-far list
// feeding the children's sleep sets.
struct Frame {
  std::vector<ActionDesc> actions;
  SleepSet sleep;
  std::vector<ActionDesc> done;
  std::size_t next = 0;
};

}  // namespace

std::string Scenario::name() const {
  std::string out = topology;
  out += '/';
  out += proto::policy_kind_name(policy);
  return out;
}

Scenario make_scenario(std::string_view topology, proto::PolicyKind policy,
                       std::vector<NodeId> requests) {
  if (policy == proto::PolicyKind::kRandom) {
    throw std::invalid_argument(
        "arvy_explore: PolicyKind::kRandom draws from the engine RNG, whose "
        "draw order depends on the interleaving; exploration requires "
        "deterministic policies");
  }
  Scenario s;
  s.topology = std::string(topology);
  s.policy = policy;
  if (topology == "triangle") {
    s.graph = graph::make_ring(3);
  } else if (topology == "path4") {
    s.graph = graph::make_path(4);
  } else if (topology == "star5") {
    s.graph = graph::make_star(5);
  } else if (topology == "ring4") {
    s.graph = graph::make_ring(4);
  } else if (topology == "ring6") {
    s.graph = graph::make_ring(6);
  } else {
    throw std::invalid_argument("arvy_explore: unknown topology '" +
                                std::string(topology) +
                                "' (triangle|path4|star5|ring4|ring6)");
  }
  s.init = default_initial_config(s.graph, policy);
  const std::size_t n = s.graph.node_count();
  if (requests.empty()) {
    std::vector<NodeId> non_root;
    for (NodeId v = 0; v < n; ++v) {
      if (v != s.init.root) non_root.push_back(v);
    }
    const std::size_t want = std::min<std::size_t>(3, non_root.size());
    for (std::size_t i = 0; i < want; ++i) {
      requests.push_back(non_root[i * non_root.size() / want]);
    }
  } else {
    for (const NodeId v : requests) {
      if (v >= n) {
        throw std::invalid_argument("arvy_explore: request node out of range");
      }
    }
    std::vector<NodeId> sorted = requests;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      throw std::invalid_argument(
          "arvy_explore: duplicate request node (the model allows one "
          "outstanding request per node)");
    }
  }
  s.requests = std::move(requests);
  return s;
}

std::vector<ActionDesc> enabled_actions(const proto::SimEngine& engine,
                                        std::uint32_t fault_budget_left) {
  const std::vector<const sim::MessageBus<proto::Message>::InFlight*> pending =
      engine.bus().pending();
  std::vector<ActionDesc> out;
  out.reserve(pending.size() * (fault_budget_left > 0 ? 2 : 1));
  const auto describe = [](const sim::MessageBus<proto::Message>::InFlight*
                               entry,
                           ActionKind kind) {
    ActionDesc d;
    d.action.kind = kind;
    if (const auto* find =
            std::get_if<proto::FindMessage>(&entry->payload)) {
      d.action.token = false;
      d.action.producer = find->producer;
    } else {
      d.action.token = true;
    }
    d.target = entry->to;
    return d;
  };
  for (const auto* entry : pending) {
    out.push_back(describe(entry, ActionKind::kDeliver));
  }
  if (fault_budget_left > 0) {
    for (const auto* entry : pending) {
      out.push_back(describe(entry, ActionKind::kDrop));
    }
  }
  return out;
}

sim::MessageId resolve(const proto::SimEngine& engine, const Action& action) {
  for (const auto* entry : engine.bus().pending()) {
    if (action.token) {
      if (std::holds_alternative<proto::TokenMessage>(entry->payload)) {
        return entry->id;
      }
    } else if (const auto* find =
                   std::get_if<proto::FindMessage>(&entry->payload);
               find != nullptr && find->producer == action.producer) {
      return entry->id;
    }
  }
  return 0;
}

bool apply_action(proto::SimEngine& engine, const Action& action) {
  const sim::MessageId id = resolve(engine, action);
  if (id == 0) return false;
  if (action.kind == ActionKind::kDeliver) {
    engine.bus().deliver(id);
  } else {
    engine.bus().drop(id);
  }
  return true;
}

ExploreResult explore(const Scenario& scenario, const ExploreOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&t0]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  ExploreResult result;
  ExploreStats& st = result.stats;
  Execution exec(scenario, options);

  // Per cached state: the sleep set it was explored with. A revisit whose
  // sleep set is a superset is fully covered (prune); a revisit with new
  // wake-ups must re-expand with the intersection, or the combination of
  // sleep sets and state caching would drop reachable states (the classic
  // unsoundness Godefroid warns about).
  std::unordered_map<StateKey, SleepSet, StateKeyHash> cache;
  std::vector<Frame> frames;
  Trace path;
  std::optional<Violation> raw;

  // In seeded-bug mode the delivery mutator reads a global find-delivery
  // counter, so two find deliveries no longer commute even at different
  // targets (their order decides which message gets corrupted); the
  // reduction must treat them as dependent or it would prune the very
  // schedules that trigger the bug.
  const bool bug_mode = options.corrupt_at_find_delivery > 0;
  const auto indep = [bug_mode](const ActionDesc& x, const ActionDesc& y) {
    if (bug_mode && x.action.kind == ActionKind::kDeliver &&
        y.action.kind == ActionKind::kDeliver && !x.action.token &&
        !y.action.token) {
      return false;
    }
    return independent(x, y);
  };

  // Engine sits at the state reached by `path`; decide what to do with it.
  const auto enter = [&](SleepSet sleep) -> bool {
    StateKey key = exec.key();
    const auto it = cache.find(key);
    if (it == cache.end()) {
      ++st.states;
      st.state_fingerprint ^= StateKeyHash{}(key);
      if (const verify::CheckResult r = exec.check(key.cfg); !r) {
        raw = Violation{path, r.detail, key.cfg.to_dot(), false};
        return false;
      }
      if (exec.quiescent()) {
        ++st.quiescent;
        if (const verify::CheckResult live = exec.audit(); !live) {
          raw = Violation{path, live.detail, key.cfg.to_dot(), true};
          return false;
        }
        if (options.collect_quiescent) {
          result.quiescent_configs.push_back(key.cfg);
        }
        // Terminal: no successors, so any sleep set covers it forever.
        cache.emplace(std::move(key), SleepSet{});
        return false;
      }
    } else {
      if (!options.sleep_sets || subset(it->second, sleep)) {
        ++st.cache_hits;
        return false;
      }
      if (exec.quiescent()) {
        ++st.cache_hits;
        return false;
      }
      sleep = intersect(sleep, it->second);
      ++st.re_expansions;
    }
    if (path.size() >= options.max_depth) {
      st.complete = false;
      cache.insert_or_assign(std::move(key), std::move(sleep));
      return false;
    }
    std::vector<ActionDesc> enabled = exec.enabled();
    st.max_frontier = std::max(st.max_frontier, enabled.size());
    std::vector<ActionDesc> to_explore;
    to_explore.reserve(enabled.size());
    for (ActionDesc& a : enabled) {
      if (options.sleep_sets && contains(sleep, a)) {
        ++st.sleep_prunes;
        continue;
      }
      to_explore.push_back(a);
    }
    cache.insert_or_assign(std::move(key), sleep);
    if (to_explore.empty()) return false;
    frames.push_back(Frame{std::move(to_explore), std::move(sleep), {}, 0});
    st.max_depth_seen = std::max(st.max_depth_seen, path.size());
    return true;
  };

  exec.ensure({});
  enter(SleepSet{});

  while (!raw.has_value() && !frames.empty()) {
    if (st.states > options.max_states ||
        elapsed() > options.time_budget_seconds) {
      st.complete = false;
      break;
    }
    Frame& f = frames.back();
    if (f.next >= f.actions.size()) {
      frames.pop_back();
      if (!path.empty()) path.pop_back();
      continue;
    }
    const ActionDesc a = f.actions[f.next++];
    SleepSet child;
    if (options.sleep_sets) {
      for (const ActionDesc& b : f.sleep) {
        if (indep(a, b)) child.push_back(b);
      }
      for (const ActionDesc& b : f.done) {
        if (indep(a, b)) child.push_back(b);
      }
    }
    f.done.push_back(a);
    exec.ensure(path);
    exec.apply(a.action);
    ++st.transitions;
    path.push_back(a.action);
    if (!enter(std::move(child))) {
      path.pop_back();
    }
  }

  if (raw.has_value()) {
    st.complete = false;
    std::optional<Violation> minimized =
        shortest_violation(exec, options, raw->trace.size());
    result.violation = minimized.has_value() ? std::move(*minimized)
                                             : std::move(*raw);
  }

  st.executions = exec.executions;
  st.replay_steps = exec.replay_steps;
  st.seconds = elapsed();
  return result;
}

ReplayOutcome replay(const Scenario& scenario, const Trace& trace,
                     const ExploreOptions& options) {
  Execution exec(scenario, options);
  ReplayOutcome out;

  const auto inspect = [&](std::size_t applied) -> bool {
    verify::Configuration cfg = verify::capture(exec.sim_engine());
    cfg.canonicalize();
    out.final_config = cfg;
    if (verify::CheckResult r = exec.check(cfg); !r) {
      out.check = std::move(r);
      out.failing_step = applied;
      return true;
    }
    if (exec.quiescent()) {
      if (verify::CheckResult live = exec.audit(); !live) {
        out.check = std::move(live);
        out.failing_step = applied;
        out.liveness = true;
        return true;
      }
    }
    return false;
  };

  if (inspect(0)) return out;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (!exec.try_apply(trace[i])) {
      throw std::invalid_argument(
          "arvy_explore: trace action " + std::to_string(i + 1) + " (" +
          format_action(trace[i]) + ") names no pending message");
    }
    if (inspect(i + 1)) return out;
  }
  return out;
}

std::string format_action(const Action& action) {
  std::string out =
      action.kind == ActionKind::kDeliver ? "deliver:" : "drop:";
  if (action.token) {
    out += "token";
  } else {
    out += "find:";
    out += std::to_string(action.producer);
  }
  return out;
}

Action parse_action(std::string_view text) {
  Action a;
  const auto take = [&text](std::string_view prefix) {
    if (text.substr(0, prefix.size()) != prefix) return false;
    text.remove_prefix(prefix.size());
    return true;
  };
  if (take("deliver:")) {
    a.kind = ActionKind::kDeliver;
  } else if (take("drop:")) {
    a.kind = ActionKind::kDrop;
  } else {
    throw std::invalid_argument("arvy_explore: bad action '" +
                                std::string(text) + "'");
  }
  if (text == "token") {
    a.token = true;
    return a;
  }
  if (!take("find:") || text.empty()) {
    throw std::invalid_argument("arvy_explore: bad action payload '" +
                                std::string(text) + "'");
  }
  std::size_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument("arvy_explore: bad find producer '" +
                                  std::string(text) + "'");
    }
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  a.producer = static_cast<NodeId>(value);
  return a;
}

proto::PolicyKind parse_policy_kind(std::string_view name) {
  if (const auto kind = proto::find_policy_kind(name)) return *kind;
  throw std::invalid_argument("arvy_explore: unknown policy '" +
                              std::string(name) + "'");
}

void write_trace(std::ostream& os, const Scenario& scenario,
                 const ExploreOptions& options, const Trace& trace,
                 std::string_view detail) {
  os << "# arvy_explore counterexample trace (see docs/TESTING.md)\n";
  os << "topology " << scenario.topology << '\n';
  os << "policy " << proto::policy_kind_name(scenario.policy) << '\n';
  os << "requests";
  for (const NodeId v : scenario.requests) os << ' ' << v;
  os << '\n';
  if (options.fault_budget > 0) {
    os << "fault-budget " << options.fault_budget << '\n';
  }
  if (options.corrupt_at_find_delivery > 0) {
    os << "seed-bug " << options.corrupt_at_find_delivery << ' '
       << options.corrupt_with << '\n';
  }
  os << "trace";
  for (const Action& a : trace) os << ' ' << format_action(a);
  os << '\n';
  if (!detail.empty()) {
    os << "detail " << detail << '\n';
  }
}

TraceFile read_trace(std::istream& is) {
  std::string topology;
  std::optional<proto::PolicyKind> policy;
  std::vector<NodeId> requests;
  TraceFile out;
  bool saw_trace = false;

  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "topology") {
      ls >> topology;
    } else if (key == "policy") {
      std::string name;
      ls >> name;
      policy = parse_policy_kind(name);
    } else if (key == "requests") {
      NodeId v = 0;
      while (ls >> v) requests.push_back(v);
    } else if (key == "fault-budget") {
      if (!(ls >> out.options.fault_budget)) {
        throw std::invalid_argument("arvy_explore: bad fault-budget line");
      }
    } else if (key == "seed-bug") {
      if (!(ls >> out.options.corrupt_at_find_delivery >>
            out.options.corrupt_with)) {
        throw std::invalid_argument("arvy_explore: bad seed-bug line");
      }
    } else if (key == "trace") {
      saw_trace = true;
      std::string token;
      while (ls >> token) out.trace.push_back(parse_action(token));
    } else if (key == "detail") {
      std::string rest;
      std::getline(ls, rest);
      if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
      out.detail = std::move(rest);
    } else {
      throw std::invalid_argument("arvy_explore: unknown trace-file key '" +
                                  key + "'");
    }
  }
  if (topology.empty() || !policy.has_value() || !saw_trace) {
    throw std::invalid_argument(
        "arvy_explore: trace file needs topology, policy and trace lines");
  }
  out.scenario = make_scenario(topology, *policy, std::move(requests));
  return out;
}

std::string stats_json(const Scenario& scenario, const ExploreOptions& options,
                       const ExploreResult& result) {
  const ExploreStats& st = result.stats;
  std::ostringstream os;
  os << "{\"scenario\":\"" << scenario.name() << "\""
     << ",\"topology\":\"" << scenario.topology << "\""
     << ",\"policy\":\"" << proto::policy_kind_name(scenario.policy) << "\""
     << ",\"requests\":[";
  for (std::size_t i = 0; i < scenario.requests.size(); ++i) {
    if (i > 0) os << ',';
    os << scenario.requests[i];
  }
  os << "],\"fault_budget\":" << options.fault_budget
     << ",\"sleep_sets\":" << (options.sleep_sets ? "true" : "false")
     << ",\"states\":" << st.states
     << ",\"transitions\":" << st.transitions
     << ",\"cache_hits\":" << st.cache_hits
     << ",\"sleep_prunes\":" << st.sleep_prunes
     << ",\"re_expansions\":" << st.re_expansions
     << ",\"executions\":" << st.executions
     << ",\"replay_steps\":" << st.replay_steps
     << ",\"quiescent\":" << st.quiescent
     << ",\"max_frontier\":" << st.max_frontier
     << ",\"max_depth\":" << st.max_depth_seen
     << ",\"fingerprint\":\"" << std::hex << st.state_fingerprint << std::dec
     << "\",\"complete\":" << (st.complete ? "true" : "false")
     << ",\"violation\":" << (result.violation.has_value() ? "true" : "false")
     << ",\"seconds\":" << st.seconds << '}';
  return os.str();
}

}  // namespace arvy::explore
