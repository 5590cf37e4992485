// arvy_cli - run directory protocols from the command line.
//
// Subcommands:
//   gen  --graph <spec> [--out <file>]        emit an edge-list file
//   info --graph <spec|file>                  topology metrics
//   run  --graph <spec|file> --policy <name> --requests <N>
//        [--workload uniform|zipf|local|roundrobin] [--seed <S>]
//        [--concurrent <rate>] [--verify] [--trace] [--csv]
//        [--faults <spec>] [--retry <spec>|off] [--transport sim|live]
//   serve --graph <spec|file> --objects <N> --requests <N>
//        [--shards <N>] [--policy <name>] [--mode sim|live] [--seed <S>]
//        [--alpha <zipf-skew>] [--faults <spec>] [--retry <spec>|off]
//        [--verify-sample <per-shard>] [--csv]
//        the sharded multi-object DirectoryService: N objects hashed over
//        the shard workers, driven by a Zipf object/node workload
//
// Graph specs: ring:N, wring:N (weighted), path:N, star:N, complete:N,
// grid:RxC, torus:RxC, hypercube:D, tree:N, gnp:N:P, geo:N:R - or a path to
// an edge-list file written by `gen`.
//
// Fault specs (see docs/FAULTS.md): comma-separated key=value pairs -
// drop=P dropfind=P droptoken=P dup=P reorder=P[:SPIKE] storm=AT:DUR[:FACTOR]
// pause=NODE:AT:DUR stall=AT:DUR seed=S. Retry specs: backoff=Mx rto=T cap=T
// attempts=N, or `off` to let drops become permanent losses. With --faults,
// --verify switches to the relaxed (fault-modulo) checks automatically.
// With --transport live, --verify checks the final node states once.
//
// Examples:
//   arvy_cli run --graph ring:64 --policy bridge --requests 200
//   arvy_cli run --graph gnp:40:0.15 --policy ivy --concurrent 2.0 --verify
//   arvy_cli run --graph ring:64 --policy ivy --requests 100
//       --faults drop=0.1,dup=0.05 --retry backoff=2x --verify
//   arvy_cli run --graph ring:16 --policy ivy --requests 50 --transport live
//       --faults drop=0.05
//   arvy_cli gen --graph grid:6x6 --out mesh.graph && arvy_cli info --graph mesh.graph
//   arvy_cli serve --graph grid:4x4 --objects 100000 --shards 4 --requests 20000
//       --mode live --faults drop=0.1,shards=0 --verify-sample 4
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "analysis/competitive.hpp"
#include "analysis/latency.hpp"
#include "analysis/opt.hpp"
#include "faults/fault_plan.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/tree_metrics.hpp"
#include "proto/directory.hpp"
#include "runtime/live_directory.hpp"
#include "service/directory_service.hpp"
#include "service/request.hpp"
#include "support/table.hpp"
#include "verify/configuration.hpp"
#include "verify/fault_tolerant.hpp"
#include "verify/invariants.hpp"
#include "verify/liveness.hpp"
#include "workload/workload.hpp"

namespace {

using namespace arvy;
using graph::NodeId;

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "arvy_cli: %s\nsee the header of tools/arvy_cli.cpp for usage\n",
               message.c_str());
  std::exit(2);
}

// The one numeric parser for flags and graph-spec fields: the whole of
// `text` must be a decimal number of type T, and a finite one for a
// floating T. Anything else is a usage error naming `what`, the flag or
// spec it came from.
template <typename T>
T parse_number(const std::string& what, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  bool ok = !text.empty() && error == std::errc() && stop == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) usage_error(what + ": '" + text + "' is not a valid number");
  return value;
}

// A parsed value outside its documented range is a usage error too.
void check_range(bool in_range, const std::string& what,
                 const std::string& rule) {
  if (!in_range) usage_error(what + ": " + rule);
}

struct Flags {
  std::map<std::string, std::string> values;

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const {
    auto it = values.find(key);
    if (it == values.end()) return std::nullopt;
    return it->second;
  }
  [[nodiscard]] std::string require(const std::string& key) const {
    auto value = get(key);
    if (!value.has_value()) usage_error("missing --" + key);
    return *value;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return values.count(key) > 0;
  }
  // A numeric flag through parse_number: required, or `fallback` if absent.
  template <typename T>
  [[nodiscard]] T number(const std::string& key) const {
    return parse_number<T>("--" + key, require(key));
  }
  template <typename T>
  [[nodiscard]] T number(const std::string& key, T fallback) const {
    return has(key) ? number<T>(key) : fallback;
  }
};

Flags parse_flags(int argc, char** argv, int start) {
  Flags flags;
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) usage_error("unexpected argument " + arg);
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags.values[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      flags.values[arg] = argv[++i];
    } else {
      flags.values[arg] = "1";  // boolean flag
    }
  }
  return flags;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string part;
  while (std::getline(ss, part, sep)) out.push_back(part);
  return out;
}

graph::Graph build_graph(const std::string& spec, std::uint64_t seed) {
  // A file path (anything containing '/' or '.') loads an edge list.
  if (spec.find('/') != std::string::npos ||
      spec.find(".graph") != std::string::npos) {
    std::ifstream in(spec);
    if (!in) usage_error("cannot open graph file " + spec);
    return graph::read_edge_list(in);
  }
  const auto parts = split(spec, ':');
  const std::string& kind = parts.empty() ? spec : parts[0];
  const std::string what = "graph spec " + spec;
  support::Rng rng(seed);
  // Field `index` of the spec, parsed; each generator's documented range is
  // checked here, before the generator's own precondition could abort.
  const auto field = [&](std::size_t index) -> const std::string& {
    if (index >= parts.size()) usage_error(what + " needs more parameters");
    return parts[index];
  };
  const auto count = [&](std::size_t index, std::size_t min) {
    const auto n = parse_number<std::size_t>(what, field(index));
    check_range(n >= min, what, "N must be at least " + std::to_string(min));
    return n;
  };
  if (kind == "ring") return graph::make_ring(count(1, 3));
  if (kind == "wring") {
    return graph::make_weighted_ring(count(1, 3), rng, 0.5, 3.0);
  }
  if (kind == "path") return graph::make_path(count(1, 2));
  if (kind == "star") return graph::make_star(count(1, 2));
  if (kind == "complete") return graph::make_complete(count(1, 2));
  if (kind == "hypercube") {
    const auto dimension = parse_number<std::size_t>(what, field(1));
    check_range(dimension >= 1 && dimension <= 20, what,
                "D must be in [1, 20]");
    return graph::make_hypercube(dimension);
  }
  if (kind == "tree") return graph::make_random_tree(count(1, 1), rng);
  if (kind == "grid" || kind == "torus") {
    const auto dims = split(field(1), 'x');
    if (dims.size() != 2) usage_error(what + ": grid/torus spec needs RxC");
    const std::size_t rows = parse_number<std::size_t>(what, dims[0]);
    const std::size_t cols = parse_number<std::size_t>(what, dims[1]);
    if (kind == "torus") {
      check_range(rows >= 3 && cols >= 3, what, "R and C must be at least 3");
      return graph::make_torus(rows, cols);
    }
    check_range(rows >= 1 && cols >= 1 && rows * cols >= 2, what,
                "R and C must be at least 1, with at least 2 nodes");
    return graph::make_grid(rows, cols);
  }
  if (kind == "gnp") {
    const std::size_t n = count(1, 2);
    const double p = parse_number<double>(what, field(2));
    check_range(p >= 0.0 && p <= 1.0, what, "P must be in [0, 1]");
    return graph::make_connected_gnp(n, p, rng);
  }
  if (kind == "geo") {
    const std::size_t n = count(1, 2);
    const double radius = parse_number<double>(what, field(2));
    check_range(radius > 0.0, what, "R must be positive");
    return graph::make_random_geometric(n, radius, rng);
  }
  usage_error("unknown graph spec " + spec);
}

proto::PolicyKind parse_policy(const std::string& name) {
  if (const auto kind = proto::find_policy_kind(name)) return *kind;
  usage_error("unknown policy " + name +
              " (try: arrow ivy bridge random midpoint closest kback spectrum)");
}

std::vector<NodeId> build_workload(const std::string& kind,
                                   const graph::Graph& g, std::size_t count,
                                   support::Rng& rng) {
  if (kind == "uniform") {
    return workload::uniform_sequence(g.node_count(), count, rng);
  }
  if (kind == "zipf") {
    return workload::zipf_sequence(g.node_count(), count, 1.2, rng);
  }
  if (kind == "local") {
    return workload::local_walk_sequence(g, count, 2, rng);
  }
  if (kind == "roundrobin") {
    return workload::round_robin_sequence(g.node_count(), count);
  }
  usage_error("unknown workload " + kind +
              " (try: uniform zipf local roundrobin)");
}

int cmd_gen(const Flags& flags) {
  const auto seed = flags.number<std::uint64_t>("seed", 1);
  const graph::Graph g = build_graph(flags.require("graph"), seed);
  if (auto out = flags.get("out"); out.has_value()) {
    std::ofstream file(*out);
    if (!file) usage_error("cannot write " + *out);
    graph::write_edge_list(g, file);
    std::printf("wrote %zu nodes, %zu edges to %s\n", g.node_count(),
                g.edge_count(), out->c_str());
  } else {
    graph::write_edge_list(g, std::cout);
  }
  return 0;
}

int cmd_info(const Flags& flags) {
  const auto seed = flags.number<std::uint64_t>("seed", 1);
  const graph::Graph g = build_graph(flags.require("graph"), seed);
  const auto metric = metric_summary(g);
  std::printf("nodes:        %zu\n", g.node_count());
  std::printf("edges:        %zu\n", g.edge_count());
  std::printf("total weight: %.3f\n", g.total_weight());
  std::printf("diameter:     %.3f\n", metric.diameter);
  std::printf("radius:       %.3f (center: node %u)\n", metric.radius,
              metric.center);
  return 0;
}

void add_fault_rows(support::Table& table, const faults::FaultStats& stats) {
  table.add_row({"fault_drops", support::Table::cell(stats.drops)});
  table.add_row({"fault_retries", support::Table::cell(stats.retries)});
  table.add_row({"fault_duplicates", support::Table::cell(stats.duplicates)});
  table.add_row({"fault_delays", support::Table::cell(stats.delays)});
  table.add_row(
      {"fault_permanent_losses", support::Table::cell(stats.permanent_losses)});
  table.add_row({"fault_overhead_distance",
                 support::Table::cell(stats.overhead_distance, 1)});
}

// Lemma 2 on the final node states of a drained, shut-down live run: no
// message is in flight then, so the states alone are the configuration.
// Relaxed (fault-modulo) when the run had a fault plan.
verify::CheckResult check_final_states(const LiveDirectory& directory,
                                       const Options& options,
                                       const faults::FaultStats& stats) {
  verify::Configuration cfg;
  cfg.parent.resize(directory.node_count());
  cfg.next.resize(directory.node_count());
  for (NodeId v = 0; v < directory.node_count(); ++v) {
    const proto::ArvyCore& core = directory.node(v);
    cfg.parent[v] = core.parent();
    cfg.next[v] = core.next();
    if (core.holds_token()) cfg.token_at = v;
  }
  return options.faults.empty() ? verify::check_all(cfg)
                                : verify::check_all_relaxed(cfg, stats);
}

// The threaded transport: requests submitted in sequence, drained by wall
// clock, and with --verify the final states checked once. The simulator
// path stays the place for per-event checking and OPT comparisons; this
// one demonstrates the same plan surviving real threads.
int cmd_run_live(const Flags& flags, const graph::Graph& g,
                 const Options& options,
                 const std::vector<NodeId>& sequence) {
  LiveDirectory directory(g, options);
  for (NodeId v : sequence) directory.acquire_and_wait(v);
  const bool drained = directory.drain(std::chrono::milliseconds(10'000));
  const proto::CostAccount costs = directory.cost_snapshot();
  const faults::FaultStats stats = directory.fault_stats();
  directory.shutdown();
  std::optional<verify::CheckResult> check;
  if (flags.has("verify")) check = check_final_states(directory, options, stats);

  support::Table table({"metric", "value"});
  table.add_row({"transport", "live"});
  table.add_row(
      {"policy", std::string(proto::policy_kind_name(options.policy))});
  table.add_row({"nodes", support::Table::cell(g.node_count())});
  table.add_row({"requests", support::Table::cell(directory.submitted_count())});
  table.add_row({"satisfied", support::Table::cell(directory.satisfied_count())});
  table.add_row({"find_distance", support::Table::cell(costs.find_distance, 1)});
  table.add_row({"token_distance",
                 support::Table::cell(costs.token_distance, 1)});
  table.add_row({"find_messages", support::Table::cell(costs.find_messages)});
  table.add_row({"token_messages", support::Table::cell(costs.token_messages)});
  table.add_row({"all_satisfied", drained ? "yes" : "NO"});
  if (!options.faults.empty()) add_fault_rows(table, stats);
  if (check) {
    table.add_row({"invariant_violations",
                   support::Table::cell(std::size_t{check->ok ? 0u : 1u})});
  }
  if (flags.has("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  if (check && !check->ok) {
    std::printf("first violation: %s\n", check->detail.c_str());
    return 1;
  }
  return drained ? 0 : 1;
}

// --faults / --retry into `options`. A malformed spec, or a pause window on a
// node the graph does not have, is a usage error (exit 2), never an uncaught
// exception.
void parse_fault_flags(const Flags& flags, std::size_t nodes,
                       Options& options) {
  try {
    if (auto spec = flags.get("faults"); spec.has_value()) {
      options.faults = faults::parse_fault_plan(*spec);
      for (const faults::PauseWindow& pause : options.faults.pauses) {
        if (pause.node >= nodes) {
          usage_error("fault spec '" + *spec + "': pause NODE " +
                      std::to_string(pause.node) + " is not below n = " +
                      std::to_string(nodes));
        }
      }
    }
    if (auto spec = flags.get("retry"); spec.has_value()) {
      options.retry = faults::parse_retry_policy(*spec);
    }
  } catch (const std::invalid_argument& error) {
    usage_error(error.what());
  }
}

int cmd_run(const Flags& flags) {
  const auto seed = flags.number<std::uint64_t>("seed", 1);
  const graph::Graph g = build_graph(flags.require("graph"), seed);
  check_range(g.node_count() >= 2, "--graph", "run needs at least 2 nodes");
  const proto::PolicyKind policy_kind = parse_policy(flags.require("policy"));
  const auto count = flags.number<std::size_t>("requests");
  const std::string transport = flags.get("transport").value_or("sim");
  if (transport != "sim" && transport != "live") {
    usage_error("--transport must be sim or live");
  }
  std::optional<double> rate;
  if (flags.has("concurrent")) {
    rate = flags.number<double>("concurrent");
    check_range(*rate > 0.0, "--concurrent",
                "the arrival rate must be positive");
  }
  support::Rng rng(seed + 100);

  Options options;
  options.policy = policy_kind;
  options.seed = seed;
  parse_fault_flags(flags, g.node_count(), options);
  const bool faulty = !options.faults.empty();
  const proto::InitialConfig init = default_initial_config(g, policy_kind);
  options.initial = init;

  if (transport == "live") {
    if (rate.has_value()) {
      usage_error("--transport live drives a sequential workload only");
    }
    const std::string workload_kind = flags.get("workload").value_or("uniform");
    const auto sequence = build_workload(workload_kind, g, count, rng);
    return cmd_run_live(flags, g, options, sequence);
  }

  Directory directory(g, options);

  // Optional invariant checking after every event: strict Lemma 2 on clean
  // runs, relaxed (fault-modulo, see verify/fault_tolerant.hpp) when the
  // plan may legitimately erase messages.
  std::size_t events = 0;
  std::size_t violations = 0;
  std::string first_violation;
  if (flags.has("verify")) {
    directory.on_event([&](const Directory& dir) {
      ++events;
      const auto check =
          faulty ? verify::check_all_relaxed(dir)
                 : verify::check_all(verify::capture(dir));
      if (!check.ok) {
        ++violations;
        if (first_violation.empty()) first_violation = check.detail;
      }
    });
  }

  double opt = 0.0;
  if (rate.has_value()) {
    const std::size_t arrivals = std::min(count, g.node_count());
    const auto requests =
        workload::poisson_arrivals(g.node_count(), arrivals, *rate, rng);
    directory.run_concurrent(requests);
    std::vector<NodeId> requesters;
    for (const auto& r : requests) requesters.push_back(r.node);
    opt = analysis::opt_burst_lower_bound(directory.oracle(), init.root,
                                          requesters);
  } else {
    const std::string workload_kind =
        flags.get("workload").value_or("uniform");
    const auto sequence = build_workload(workload_kind, g, count, rng);
    directory.run_sequential(sequence);
    opt = analysis::opt_sequential(directory.oracle(), init.root, sequence);
  }

  const auto& costs = directory.costs();
  const auto liveness = faulty ? verify::audit_liveness_relaxed(directory)
                               : verify::audit_liveness(directory);
  const auto latency = analysis::measure_latency(directory.inspect());

  support::Table table({"metric", "value"});
  table.add_row({"policy", std::string(proto::policy_kind_name(policy_kind))});
  table.add_row({"nodes", support::Table::cell(g.node_count())});
  table.add_row({"requests",
                 support::Table::cell(directory.requests().size())});
  table.add_row({"find_distance", support::Table::cell(costs.find_distance, 1)});
  table.add_row({"token_distance",
                 support::Table::cell(costs.token_distance, 1)});
  table.add_row({"find_messages", support::Table::cell(costs.find_messages)});
  table.add_row({"token_messages", support::Table::cell(costs.token_messages)});
  table.add_row({rate.has_value() ? "opt_lower_bound" : "opt",
                 support::Table::cell(opt, 1)});
  if (opt > 0.0) {
    table.add_row({"ratio_find_only",
                   support::Table::cell(costs.find_distance / opt, 3)});
  }
  table.add_row({"latency_p50", support::Table::cell(latency.latency.p50, 2)});
  table.add_row({"latency_p99", support::Table::cell(latency.latency.p99, 2)});
  table.add_row({faulty ? "liveness_relaxed" : "liveness",
                 liveness.ok ? "ok" : liveness.detail});
  if (faulty) add_fault_rows(table, directory.fault_stats());
  if (flags.has("verify")) {
    table.add_row({"events_checked", support::Table::cell(events)});
    table.add_row({"invariant_violations", support::Table::cell(violations)});
  }
  if (flags.has("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  if (!first_violation.empty()) {
    std::printf("first violation: %s\n", first_violation.c_str());
    return 1;
  }
  return liveness.ok ? 0 : 1;
}

// The sharded multi-object service: N objects hashed over shard workers,
// driven by a Zipf object/node workload, with a sampled Lemma-2 sweep at
// the end. The CLI face of ROADMAP item 1.
int cmd_serve(const Flags& flags) {
  const auto seed = flags.number<std::uint64_t>("seed", 1);
  const graph::Graph g = build_graph(flags.require("graph"), seed);
  check_range(g.node_count() >= 2, "--graph", "serve needs at least 2 nodes");
  const auto objects = flags.number<std::size_t>("objects");
  const auto requests = flags.number<std::size_t>("requests");
  const auto shards = flags.number<std::size_t>("shards", 2);
  const auto alpha = flags.number<double>("alpha", 0.9);
  check_range(alpha >= 0.0, "--alpha", "the Zipf skew must not be negative");
  const auto per_shard = flags.number<std::size_t>("verify-sample", 4);
  const std::string mode_name = flags.get("mode").value_or("sim");
  if (mode_name != "sim" && mode_name != "live") {
    usage_error("--mode must be sim or live");
  }
  const ServiceMode mode =
      mode_name == "live" ? ServiceMode::kLive : ServiceMode::kSim;
  if (objects == 0 || shards == 0) {
    usage_error("--objects and --shards must be positive");
  }

  Options options;
  options.policy = flags.has("policy")
                       ? parse_policy(flags.require("policy"))
                       : proto::PolicyKind::kIvy;
  options.seed = seed;
  parse_fault_flags(flags, g.node_count(), options);

  DirectoryService service(g, objects, shards, options, mode);

  // Zipf-popular objects, Zipf-popular requester nodes - the bench/
  // multi_object workload shape, sized by --requests.
  support::Rng rng(seed + 100);
  support::ZipfSampler object_sampler(objects, alpha);
  workload::ZipfNodeSampler node_sampler(g.node_count(), 1.1, rng);
  std::vector<service::ObjectRequest> volley;
  volley.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    volley.push_back(service::ObjectRequest{
        static_cast<service::ObjectId>(object_sampler.sample(rng)),
        node_sampler.sample(rng), 0});
  }
  service.submit_batch(volley);
  const bool drained = service.drain(std::chrono::milliseconds(120'000));
  if (mode == ServiceMode::kLive) service.shutdown();

  const auto report = service.check_sampled(per_shard, seed);
  const auto costs = service.cost_snapshot();
  const double satisfied =
      static_cast<double>(service.satisfied_count());

  support::Table table({"metric", "value"});
  table.add_row({"mode", mode_name});
  table.add_row(
      {"policy", std::string(proto::policy_kind_name(options.policy))});
  table.add_row({"nodes", support::Table::cell(g.node_count())});
  table.add_row({"objects", support::Table::cell(service.object_count())});
  table.add_row({"shards", support::Table::cell(service.shard_count())});
  table.add_row({"requests", support::Table::cell(service.submitted_count())});
  table.add_row({"satisfied", support::Table::cell(service.satisfied_count())});
  table.add_row(
      {"resident_objects", support::Table::cell(service.resident_objects())});
  table.add_row(
      {"resident_bytes", support::Table::cell(service.resident_bytes())});
  table.add_row({"routing_epoch", support::Table::cell(service.routing_epoch())});
  table.add_row({"find_distance", support::Table::cell(costs.find_distance, 1)});
  table.add_row(
      {"token_distance", support::Table::cell(costs.token_distance, 1)});
  table.add_row({"find_messages", support::Table::cell(costs.find_messages)});
  table.add_row({"token_messages", support::Table::cell(costs.token_messages)});
  if (satisfied > 0.0) {
    table.add_row({"distance_per_satisfied",
                   support::Table::cell(costs.total_distance() / satisfied, 2)});
  }
  table.add_row({"recoveries", support::Table::cell(service.recovery_count())});
  if (!options.faults.empty()) add_fault_rows(table, service.fault_stats());
  table.add_row({"verify_sampled",
                 report ? "ok (" + std::to_string(report.objects_checked) +
                              " objects)"
                        : report.first_failure});
  table.add_row({"all_satisfied", drained ? "yes" : "NO"});
  if (flags.has("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return (drained && report) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage_error("missing subcommand (gen | info | run | serve)");
  const std::string command = argv[1];
  const Flags flags = parse_flags(argc, argv, 2);
  if (command == "gen") return cmd_gen(flags);
  if (command == "info") return cmd_info(flags);
  if (command == "run") return cmd_run(flags);
  if (command == "serve") return cmd_serve(flags);
  usage_error("unknown subcommand " + command);
}
