// Shared pieces of the repository benchmark: clocks, order statistics, the
// in-memory span tracer, the request generators and the workload interface.
//
// Layers are timed from outside, by calling their public functions; see
// README.md in this directory for the workloads and the metric table.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "service/request.hpp"

namespace perfbench {

using arvy::graph::NodeId;
using arvy::service::ObjectId;
using arvy::service::ObjectRequest;

// --- clocks and process counters --------------------------------------------
[[nodiscard]] std::int64_t now_ns();     // steady clock
[[nodiscard]] double cpu_seconds();      // CPU time of the whole process
[[nodiscard]] double peak_rss_mb();      // high-water resident set size
void spin_pause();

// --- order statistics (all take their input by value and sort it) -----------
[[nodiscard]] double median(std::vector<double> values);
// Nearest-rank quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double mean(const std::vector<double>& values);

// --- tracing -----------------------------------------------------------------
// Spans live in per-thread buffers (so shard and worker threads can record
// from inside the observer hooks without a lock) and are collected only when
// every recording thread is quiescent. Names are string literals.
struct Span {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t request = -1;  // index of the request the span serves, or -1
  std::int64_t parent = -1;   // index of the enclosing span, or -1
  std::uint64_t items = 1;    // operations the span covers (batched probes)
  std::uint32_t thread = 0;

  [[nodiscard]] double duration_ns() const {
    return static_cast<double>(end_ns - start_ns);
  }
};

namespace tracer {
void set_enabled(bool enabled);
[[nodiscard]] bool enabled();
// Moves every recorded span into the archive; call only while no other
// thread records. Parent indices are rewritten to archive positions.
void collect();
[[nodiscard]] const std::vector<Span>& archive();
// Spans recorded, then discarded because their thread's buffer was full.
[[nodiscard]] std::uint64_t discarded();
// Writes the archive as Chrome trace-event JSON (at most `limit` spans).
bool write_chrome_json(const std::string& path, std::size_t limit);
}  // namespace tracer

// RAII span; records nothing while tracing is disabled.
class Scope {
 public:
  explicit Scope(const char* name, std::int64_t request = -1,
                 std::uint64_t items = 1);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void set_items(std::uint64_t items);

 private:
  std::vector<Span>* spans_ = nullptr;
  std::size_t index_ = 0;
};

// --- inputs --------------------------------------------------------------------
// The service workloads: 2^20 objects on an 8x8 grid.
inline constexpr std::size_t kSvcObjects = std::size_t{1} << 20;
inline constexpr std::size_t kGridSide = 8;
// System configuration, not input: the routing hash and policy streams.
inline constexpr std::uint64_t kSystemSeed = 7;

// Requests in the service workloads' pool (one round).
[[nodiscard]] inline std::size_t svc_pool(bool tiny) { return tiny ? 4096 : 65536; }

// Zipf alpha=0.9 over objects and alpha=1.1 over requester nodes. The
// popularity ranking of nodes is fixed by the workload; the seed drives the
// draws only, so runs with different seeds share their structure.
[[nodiscard]] std::vector<ObjectRequest> svc_stream(std::uint64_t seed,
                                                    std::size_t length);
// Uniform requester nodes without consecutive repeats.
[[nodiscard]] std::vector<NodeId> uniform_stream(std::uint64_t seed,
                                                 std::size_t nodes,
                                                 std::size_t length);
// `count` volleys of `width` distinct uniform nodes, flattened.
[[nodiscard]] std::vector<NodeId> volley_stream(std::uint64_t seed,
                                                std::size_t nodes,
                                                std::size_t count,
                                                std::size_t width);

// CPUs this process may run on.
[[nodiscard]] std::size_t nproc();
// Busy threads a workload may add beside the client: nproc - 1, at most 3.
[[nodiscard]] std::size_t worker_threads();

// live-ring's shape, shared with its sim replay probe.
struct VolleySizes {
  std::size_t nodes = 64;
  std::size_t width = 16;     // distinct requesters per volley
  std::size_t pool = 0;       // volleys generated from the seed, one round
  std::size_t warm = 0;       // untimed warm-up volleys
};
[[nodiscard]] VolleySizes volley_sizes(bool tiny);

// --- workloads -----------------------------------------------------------------
struct Round {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t acquires = 0;
  std::size_t failed = 0;
  std::vector<double> latency_us;  // one sample per latency unit
  // Filled by the measuring loop, which then releases latency_us so the
  // samples of a long run do not show in peak_rss_mb.
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::size_t samples = 0;
};

struct Costs {
  std::uint64_t find_msgs = 0;
  std::uint64_t token_msgs = 0;
  double distance = 0.0;
  std::size_t max_visited = 0;

  friend bool operator==(const Costs&, const Costs&) = default;
};

[[nodiscard]] Costs operator-(const Costs& a, const Costs& b);

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Constructs the system and runs the untimed warm-up, replacing any
  // previous instance. `hooks` installs the tracing observers (they must be
  // in place before the first acquire).
  virtual void build(bool hooks) = 0;
  // One round: one pass over the workload's request pool, so every round
  // serves the same requests. Records spans when tracing is enabled.
  virtual Round round() = 0;
  // Protocol costs since the end of the warm-up.
  [[nodiscard]] virtual Costs costs() const = 0;
  [[nodiscard]] virtual std::size_t setups() const = 0;
  // End-of-run correctness checks; `counted` are the costs of the first
  // round after a build (the paper's costs are counted over it, so they
  // repeat exactly for a seed).
  [[nodiscard]] virtual std::vector<Check> verify(const Costs& counted) = 0;
  [[nodiscard]] virtual const arvy::graph::Graph& graph() const = 0;
  [[nodiscard]] virtual std::string_view latency_unit() const = 0;
  // (resident objects, resident MiB) of a service workload.
  [[nodiscard]] virtual std::optional<std::pair<double, double>> residency()
      const {
    return std::nullopt;
  }
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::uint64_t seed,
                                                      bool tiny);

// --- layer probes (probes.cpp) ---------------------------------------------------
// Each probe records spans; the per-layer metrics are read from them.
// The service's per-shard core work replayed on standalone 8x8 SimEngines:
// park/adopt on every object switch, then submit_queued + run_until_idle.
// Returns the share of requests that switch objects.
double probe_service_core(const std::vector<ObjectRequest>& stream);
void probe_route(const std::vector<ObjectRequest>& stream);
void probe_bus(std::uint64_t seed, double path_length);
void probe_oracle(const arvy::graph::Graph& g, std::uint64_t seed, bool tiny);
void probe_ring_mailbox(bool tiny);
void probe_handoff(const std::vector<ObjectRequest>& stream, bool tiny);
// live-ring's volleys replayed on a sim Directory; returns the costs of the
// counted volleys (the exact proto counts of that workload).
Costs probe_volley_core(std::uint64_t seed, bool tiny);

}  // namespace perfbench
