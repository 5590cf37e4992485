// perfbench: the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale full|tiny] [--trace-out <file>]
//
// Untraced runs print the end-to-end metrics; traced runs print the
// per-layer metrics. The last line of stdout is one JSON object; the exit
// code is 1 when a correctness check failed. run.py builds and drives it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale full|tiny] "
               "[--trace-out <file>]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (key == "--scale") {
        if (value != "full" && value != "tiny") usage("--scale takes full or tiny");
        args.tiny = value == "tiny";
      } else if (key == "--trace-out") {
        args.trace_out = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::exception&) {
      usage("bad value for " + key);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

// --- JSON output ---------------------------------------------------------------

std::string quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string array(const std::vector<double>& values) {
  std::string out = "[";
  for (const double value : values) {
    if (out.size() > 1) out += ',';
    out += number(value);
  }
  out += ']';
  return out;
}

// An ordered JSON object built field by field.
class Object {
 public:
  Object& raw(std::string_view key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += quote(key);
    body_ += ':';
    body_ += json;
    return *this;
  }
  Object& num(std::string_view key, double value) { return raw(key, number(value)); }
  Object& str(std::string_view key, std::string_view value) {
    return raw(key, quote(value));
  }
  [[nodiscard]] std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// --- measurement ---------------------------------------------------------------

struct Phase {
  std::vector<Round> rounds;
  Costs counted;
  std::size_t counted_acquires = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  // High-water RSS after the first round: fixed work, so a run's length
  // (which grows the Directory's request log) does not move it.
  double rss_mb = 0.0;
};

// Appends one round to `phase`; false once a round of it has failed.
bool add_round(Workload& workload, Phase& phase) {
  phase.rounds.push_back(workload.round());
  Round& round = phase.rounds.back();
  round.samples = round.latency_us.size();
  round.p50_us = quantile(round.latency_us, 0.50);
  round.p99_us = quantile(round.latency_us, 0.99);
  std::vector<double>().swap(round.latency_us);
  phase.attempted += round.acquires;
  phase.failed += round.failed;
  if (phase.rounds.size() == 1) {
    phase.counted = workload.costs();
    phase.counted_acquires = phase.attempted;
    phase.rss_mb = peak_rss_mb();
  }
  return phase.failed == 0;
}

// Appends rounds to `phase` until `seconds` have passed, at least one. A
// failed round ends the run early.
void measure(Workload& workload, double seconds, Phase& phase) {
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  for (bool first = true; first || now_ns() - start < budget; first = false) {
    if (!add_round(workload, phase)) break;
  }
}

std::vector<double> per_round(const Phase& phase, double (*f)(const Round&)) {
  std::vector<double> out;
  out.reserve(phase.rounds.size());
  for (const Round& round : phase.rounds) out.push_back(f(round));
  return out;
}

// The median of f over every round of the phase: the typical round, so a
// change that slows a share of the rounds moves the figure. A host slowdown
// of a second or two hits a few rounds of a run, not the figure.
double round_median(const Phase& phase, double (*f)(const Round&)) {
  return median(per_round(phase, f));
}

double round_rate(const Round& r) { return static_cast<double>(r.acquires) / r.wall_s; }
double round_cpu_us(const Round& r) {
  return r.cpu_s * 1e6 / static_cast<double>(r.acquires);
}
double round_p50(const Round& r) { return r.p50_us; }
double round_p99(const Round& r) { return r.p99_us; }

// Fixed integer work: explains a slow-host run, never scales a metric.
volatile std::uint64_t g_calibration_sink = 0;

double calibration_seconds() {
  std::uint64_t x = 88172645463325252ULL;
  const std::int64_t start = now_ns();
  for (int i = 0; i < 100'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_calibration_sink = x;
  return static_cast<double>(now_ns() - start) / 1e9;
}

// --- per-layer metrics from spans --------------------------------------------------

// A contiguous range of the span archive: the spans one source recorded.
struct Segment {
  std::size_t begin = 0;
  std::size_t end = 0;
};

Segment collect_segment() {
  Segment seg;
  seg.begin = tracer::archive().size();
  tracer::collect();
  seg.end = tracer::archive().size();
  return seg;
}

std::vector<const Span*> spans(const Segment& seg, std::string_view name) {
  std::vector<const Span*> out;
  const auto& all = tracer::archive();
  for (std::size_t i = seg.begin; i < seg.end; ++i) {
    if (name == all[i].name) out.push_back(&all[i]);
  }
  return out;
}

std::vector<double> durations(const std::vector<const Span*>& list) {
  std::vector<double> out;
  for (const Span* s : list) out.push_back(s->duration_ns());
  return out;
}

std::vector<double> per_item(const std::vector<const Span*>& list) {
  std::vector<double> out;
  for (const Span* s : list) {
    out.push_back(s->duration_ns() / static_cast<double>(std::max<std::uint64_t>(1, s->items)));
  }
  return out;
}

// Span duration minus the part its child spans cover.
std::vector<double> self_times() {
  const auto& all = tracer::archive();
  std::vector<double> self(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) self[i] += all[i].duration_ns();
  for (const Span& s : all) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.duration_ns();
  }
  return self;
}

struct CoreTiming {
  double request_ns = 0.0;  // submit + run, per request
  double step_ns = 0.0;     // run self time per delivered message
};

CoreTiming core_timing(const Segment& seg, const std::vector<double>& self) {
  const auto submits = spans(seg, "proto.submit");
  const auto runs = spans(seg, "proto.run");
  double submit_ns = 0.0;
  for (const Span* s : submits) submit_ns += s->duration_ns();
  double run_ns = 0.0;
  double deliveries = 0.0;
  const Span* base = tracer::archive().data();
  for (const Span* s : runs) {
    run_ns += self[static_cast<std::size_t>(s - base)];
    deliveries += static_cast<double>(s->items);
  }
  CoreTiming t;
  if (!submits.empty()) {
    t.request_ns = (submit_ns + run_ns) / static_cast<double>(submits.size());
  }
  if (deliveries > 0) t.step_ns = run_ns / deliveries;
  return t;
}

// Admission to the first observer event of the same request.
std::vector<double> queue_waits_us(const Segment& seg) {
  std::map<std::int64_t, std::int64_t> admitted;
  for (const Span* s : spans(seg, "service.admit")) admitted[s->request] = s->start_ns;
  std::map<std::int64_t, std::int64_t> first;
  for (const char* hook : {"service.on_message", "service.on_satisfied"}) {
    for (const Span* s : spans(seg, hook)) {
      auto [it, inserted] = first.try_emplace(s->request, s->start_ns);
      if (!inserted) it->second = std::min(it->second, s->start_ns);
    }
  }
  std::vector<double> out;
  for (const auto& [request, at] : admitted) {
    const auto it = first.find(request);
    if (it != first.end()) out.push_back(static_cast<double>(it->second - at) / 1e3);
  }
  return out;
}

// --- the run ---------------------------------------------------------------------

class Metrics {
 public:
  void add(std::string_view name, double value, std::string_view unit) {
    object_.raw(name, Object().num("value", value).str("unit", unit).json());
  }
  [[nodiscard]] std::string json() const { return object_.json(); }

 private:
  Object object_;
};

struct Outcome {
  Metrics metrics;
  Object samples;
  Object extra;
  std::vector<Check> checks;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

std::vector<Check> verify_timed(Workload& workload, const Costs& counted,
                                double& check_ms) {
  const std::int64_t start = now_ns();
  std::vector<Check> checks;
  {
    Scope span("verify.check");
    checks = workload.verify(counted);
  }
  check_ms = static_cast<double>(now_ns() - start) / 1e6;
  return checks;
}

void add_latency_samples(Object& samples, const Workload& workload,
                         const Phase& phase) {
  samples.str("latency_unit", workload.latency_unit())
      .num("rounds", static_cast<double>(phase.rounds.size()))
      .num("latency_samples_per_round",
           static_cast<double>(phase.rounds.front().samples))
      .num("counted_acquires", static_cast<double>(phase.counted_acquires));
}

Outcome run_end_to_end(const Args& args, Workload& workload) {
  Outcome out;
  // The set-ups are spread over the run, each followed by its share of the
  // rounds, so their median does not hang on one stretch of host speed.
  std::vector<double> setup_s;
  Phase phase;
  const std::size_t setups = workload.setups();
  for (std::size_t k = 0; k < setups && phase.failed == 0; ++k) {
    const std::int64_t start = now_ns();
    workload.build(false);
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    measure(workload, args.seconds / static_cast<double>(setups), phase);
  }
  double check_ms = 0.0;
  out.checks = verify_timed(workload, phase.counted, check_ms);
  out.attempted = phase.attempted;
  out.failed = phase.failed;
  const double acquires = static_cast<double>(phase.counted_acquires);
  out.metrics.add("setup_s", median(setup_s), "s");
  out.metrics.add("acquires_per_s", round_median(phase, round_rate), "1/s");
  out.metrics.add("latency_p50_us", round_median(phase, round_p50), "us");
  out.metrics.add("latency_p99_us", round_median(phase, round_p99), "us");
  out.metrics.add("cpu_us_per_acquire", round_median(phase, round_cpu_us), "us");
  out.metrics.add("find_msgs_per_acquire",
                  static_cast<double>(phase.counted.find_msgs) / acquires, "count");
  out.metrics.add("distance_per_acquire", phase.counted.distance / acquires, "hops");
  out.metrics.add("peak_rss_mb", phase.rss_mb, "MB");
  add_latency_samples(out.samples, workload, phase);
  out.samples.num("setups", static_cast<double>(setup_s.size()))
      .num("verify_ms", check_ms);
  // Per-round throughput and per-setup time, to explain a run that reads
  // slow: a host slowdown shows as a stretch of slow rounds.
  out.extra.raw("round_acquires_per_s", array(per_round(phase, round_rate)))
      .raw("round_latency_p50_us", array(per_round(phase, round_p50)))
      .raw("setup_s", array(setup_s));
  return out;
}

Outcome run_traced(const Args& args, Workload& workload) {
  Outcome out;
  const std::string_view name = args.workload;
  const std::uint64_t seed = args.seed;
  const bool tiny = args.tiny;

  // One build with the observer hooks in place (they return at once while
  // tracing is off). Untraced and traced rounds alternate on it, so a host
  // slowdown hits both kinds alike and the overhead is read from adjacent
  // pairs. The costs are counted over the first round, an untraced one.
  workload.build(true);
  Phase plain;
  Phase traced;
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(args.seconds * 1e9);
  for (bool first = true; first || now_ns() - start < budget; first = false) {
    if (!add_round(workload, plain)) break;
    tracer::set_enabled(true);
    const bool ok = add_round(workload, traced);
    tracer::set_enabled(false);
    if (!ok) break;
  }
  std::vector<double> overhead;
  for (std::size_t i = 0; i < traced.rounds.size(); ++i) {
    overhead.push_back(1.0 - round_rate(traced.rounds[i]) / round_rate(plain.rounds[i]));
  }
  tracer::set_enabled(true);
  double check_ms = 0.0;
  out.checks = verify_timed(workload, plain.counted, check_ms);
  tracer::set_enabled(false);
  const Segment main_seg = collect_segment();
  out.attempted = plain.attempted + traced.attempted;
  out.failed = plain.failed + traced.failed;
  const auto residency = workload.residency();
  const double counted = static_cast<double>(plain.counted_acquires);
  Costs proto_costs = plain.counted;
  double path_length = static_cast<double>(plain.counted.find_msgs) / counted;
  const arvy::graph::Graph& graph = workload.graph();

  // Probes, each in its own segment of the archive.
  tracer::set_enabled(true);
  const std::vector<ObjectRequest> stream = svc_stream(seed, svc_pool(tiny));
  const double switch_per_acquire = probe_service_core(stream);
  const Segment replay_seg = collect_segment();
  Segment volley_seg;
  if (name == "live-ring") {
    proto_costs = probe_volley_core(seed, tiny);
    path_length = static_cast<double>(proto_costs.find_msgs) /
                  static_cast<double>(volley_sizes(tiny).pool * volley_sizes(tiny).width);
    volley_seg = collect_segment();
  }
  probe_route(stream);
  probe_bus(seed, path_length);
  probe_oracle(graph, seed, tiny);
  probe_ring_mailbox(tiny);
  probe_handoff(stream, tiny);
  tracer::set_enabled(false);
  const Segment probe_seg = collect_segment();

  // Layers this workload does not run are measured on the workload that
  // does, with the same seed and fewer rounds.
  const auto donor = [&](std::string_view donor_name, std::size_t rounds,
                         bool trace_rounds) {
    auto d = make_workload(donor_name, seed, tiny);
    d->build(trace_rounds);
    tracer::set_enabled(trace_rounds);
    std::vector<Round> out_rounds;
    for (std::size_t k = 0; k < rounds; ++k) out_rounds.push_back(d->round());
    tracer::set_enabled(false);
    return std::make_pair(std::move(d), std::move(out_rounds));
  };
  double sim_ns_per_acquire = 0.0;
  std::optional<std::pair<double, double>> resident = residency;
  if (name == "svc-sim-zipf") {
    sim_ns_per_acquire = 1e9 / round_median(plain, round_rate);
  } else {
    auto [d, rounds] = donor("svc-sim-zipf", 4, false);
    std::vector<double> ns;
    for (const Round& r : rounds) ns.push_back(1e9 / round_rate(r));
    sim_ns_per_acquire = median(ns);
    if (!resident) resident = d->residency();
  }
  Segment live_svc_seg = main_seg;
  if (name != "svc-live-zipf") {
    { auto donated = donor("svc-live-zipf", 2, true); }  // joins its shards
    live_svc_seg = collect_segment();
  }
  Segment live_ring_seg = main_seg;
  if (name != "live-ring") {
    { auto donated = donor("live-ring", 1, true); }
    live_ring_seg = collect_segment();
  }
  // ring-bridge-seq is too sensitive to the host's speed for an end-to-end
  // workload (README.md), so every traced run measures its long-path core
  // here and checks its final configuration.
  Segment ring_seg = main_seg;
  if (name != "ring-bridge-seq") {
    auto [d, rounds] = donor("ring-bridge-seq", 2, true);
    for (Check& check : d->verify(d->costs())) {
      check.name = "ring-bridge-seq: " + check.name;
      out.checks.push_back(std::move(check));
    }
    ring_seg = collect_segment();
  }

  const std::vector<double> self = self_times();
  const CoreTiming svc_core = core_timing(replay_seg, self);
  const CoreTiming ring_core = core_timing(ring_seg, self);
  const CoreTiming core = name == "ring-bridge-seq" ? ring_core
                          : name == "live-ring"     ? core_timing(volley_seg, self)
                                                    : svc_core;
  const double route_ns = median(per_item(spans(probe_seg, "service.route")));
  const double park_ns = mean(durations(spans(replay_seg, "proto.park")));
  const double adopt_ns = mean(durations(spans(replay_seg, "proto.adopt")));
  const std::vector<double> waits = queue_waits_us(live_svc_seg);
  const double residual_ns =
      sim_ns_per_acquire - (route_ns + switch_per_acquire * (park_ns + adopt_ns) +
                            svc_core.request_ns);
  // Every traced round records all its spans (past the kept ones, into a
  // recycled buffer), so the traced rate carries the whole recording cost.
  const double trace_overhead = median(overhead);

  Metrics& m = out.metrics;
  m.add("service.route_ns", route_ns, "ns");
  m.add("service.switch_per_acquire", switch_per_acquire, "count");
  m.add("service.admit_ns", mean(durations(spans(live_svc_seg, "service.admit"))), "ns");
  m.add("service.queue_wait_us_p50", quantile(waits, 0.50), "us");
  m.add("service.queue_wait_us_p99", quantile(waits, 0.99), "us");
  m.add("service.resident_objects", resident ? resident->first : 0.0, "count");
  m.add("service.resident_mb", resident ? resident->second : 0.0, "MB");
  m.add("service.residual_ns", residual_ns, "ns");
  m.add("proto.park_ns", park_ns, "ns");
  m.add("proto.adopt_ns", adopt_ns, "ns");
  m.add("proto.request_ns", core.request_ns, "ns");
  m.add("proto.step_ns", core.step_ns, "ns");
  m.add("proto.ring_request_ns", ring_core.request_ns, "ns");
  m.add("proto.ring_step_ns", ring_core.step_ns, "ns");
  m.add("proto.find_msgs", static_cast<double>(proto_costs.find_msgs), "count");
  m.add("proto.token_msgs", static_cast<double>(proto_costs.token_msgs), "count");
  m.add("proto.max_visited", static_cast<double>(proto_costs.max_visited), "count");
  m.add("sim.bus_ns", median(per_item(spans(probe_seg, "sim.bus"))), "ns");
  m.add("graph.oracle_ns", median(per_item(spans(probe_seg, "graph.oracle"))), "ns");
  m.add("graph.oracle_build_ms",
        median(durations(spans(probe_seg, "graph.oracle_build"))) / 1e6, "ms");
  m.add("runtime.ring_push_ns", median(per_item(spans(probe_seg, "runtime.ring_push"))), "ns");
  m.add("runtime.ring_drain_ns", median(per_item(spans(probe_seg, "runtime.ring_drain"))), "ns");
  m.add("runtime.handoff_us",
        (median(durations(spans(probe_seg, "runtime.handoff.live"))) -
         median(durations(spans(probe_seg, "runtime.handoff.sim")))) / 1e3,
        "us");
  m.add("runtime.drain_wait_us",
        mean(durations(spans(live_ring_seg, "runtime.drain"))) / 1e3, "us");
  m.add("verify.check_ms", check_ms, "ms");
  m.add("trace_overhead_frac", trace_overhead, "ratio");

  add_latency_samples(out.samples, workload, plain);
  out.samples.num("queue_wait_samples", static_cast<double>(waits.size()))
      .num("spans", static_cast<double>(tracer::archive().size()));
  out.extra.raw("trace_overhead",
                Object()
                    .num("round_pairs", static_cast<double>(traced.rounds.size()))
                    .num("untraced_acquires_per_s", round_median(plain, round_rate))
                    .num("traced_acquires_per_s", round_median(traced, round_rate))
                    .num("spans_discarded", static_cast<double>(tracer::discarded()))
                    .json());
  out.extra.raw("reconciliation",
                Object()
                    .num("sim_ns_per_acquire", sim_ns_per_acquire)
                    .num("route_ns", route_ns)
                    .num("switch_per_acquire", switch_per_acquire)
                    .num("park_plus_adopt_ns", park_ns + adopt_ns)
                    .num("request_ns", svc_core.request_ns)
                    .num("residual_ns", residual_ns)
                    .num("residual_share", residual_ns / sim_ns_per_acquire)
                    .num("target_share", 0.15)
                    .json());
  // Span summary: count, mean duration and mean self time per name.
  std::map<std::string, std::vector<double>> total, own;
  const auto& all = tracer::archive();
  for (std::size_t i = 0; i < all.size(); ++i) {
    total[all[i].name].push_back(all[i].duration_ns());
    own[all[i].name].push_back(self[i]);
  }
  Object summary;
  for (const auto& [span_name, list] : total) {
    summary.raw(span_name, Object()
                               .num("count", static_cast<double>(list.size()))
                               .num("mean_ns", mean(list))
                               .num("self_mean_ns", mean(own[span_name]))
                               .json());
  }
  out.extra.raw("spans", summary.json());
  if (!args.trace_out.empty() &&
      !tracer::write_chrome_json(args.trace_out, 200'000)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
  }
  return out;
}

}  // namespace

int run(int argc, char** argv) {
  const Args args = parse(argc, argv);
  auto workload = make_workload(args.workload, args.seed, args.tiny);
  if (!workload) usage("unknown workload " + args.workload);

  const double calibration = calibration_seconds();
  Outcome out = args.trace ? run_traced(args, *workload) : run_end_to_end(args, *workload);
  workload.reset();

  bool correct = out.failed == 0;
  std::string checks = "[";
  for (const Check& check : out.checks) {
    correct = correct && check.ok;
    if (checks.size() > 1) checks += ',';
    checks += Object()
                  .str("name", check.name)
                  .raw("ok", check.ok ? "true" : "false")
                  .str("detail", check.detail)
                  .json();
  }
  checks += "]";
  Object result;
  result.str("workload", args.workload)
      .num("seed", static_cast<double>(args.seed))
      .num("trace", args.trace ? 1 : 0)
      .raw("correct", correct ? "true" : "false")
      .num("attempted", static_cast<double>(out.attempted))
      .num("failed", static_cast<double>(out.failed))
      .raw("metrics", out.metrics.json())
      .raw("samples", out.samples.json())
      .raw("checks", checks)
      .raw("context", Object()
                          .str("build_type", PERFBENCH_BUILD_TYPE)
                          .num("nproc", static_cast<double>(nproc()))
                          .num("worker_threads", static_cast<double>(worker_threads()))
                          .num("calibration_s", calibration)
                          .json())
      .raw("extra", out.extra.json());
  std::printf("%s\n", result.json().c_str());
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
