// The four workloads. Each is driven by a closed loop on the calling thread;
// README.md gives the reason each one exists.
#include <chrono>
#include <string>

#include "bench.hpp"
#include "graph/generators.hpp"
#include "proto/directory.hpp"
#include "runtime/live_directory.hpp"
#include "service/directory_service.hpp"
#include "verify/configuration.hpp"
#include "verify/invariants.hpp"

namespace perfbench {

namespace {

using arvy::DirectoryService;
using arvy::ServiceMode;

constexpr auto kDrainBudget = std::chrono::milliseconds(30'000);
// Acquires a svc-live-zipf client keeps outstanding. 16 keeps the three
// shards busy (the same throughput as 64 on a 4-vCPU VM) while the latency
// quantiles stay steady: at 32 or 64 a round's p50 swings by 25-45% from one
// round to the next as work piles up behind the hot objects.
constexpr std::size_t kOutstanding = 16;

Costs to_costs(const arvy::proto::CostAccount& account) {
  return Costs{account.find_messages, account.token_messages,
               account.total_distance(), account.max_visited_length};
}

std::string describe(const Costs& c) {
  return "find=" + std::to_string(c.find_msgs) +
         " token=" + std::to_string(c.token_msgs) +
         " distance=" + std::to_string(c.distance) +
         " max_visited=" + std::to_string(c.max_visited);
}

double us_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e3;
}

// Wall and CPU time of one round.
class RoundTimer {
 public:
  RoundTimer() : wall0_(now_ns()), cpu0_(cpu_seconds()) {}
  void finish(Round& round) const {
    round.wall_s = static_cast<double>(now_ns() - wall0_) / 1e9;
    round.cpu_s = cpu_seconds() - cpu0_;
  }

 private:
  std::int64_t wall0_;
  double cpu0_;
};

// --- svc-sim-zipf / svc-live-zipf --------------------------------------------

class SvcWorkload final : public Workload {
 public:
  SvcWorkload(ServiceMode mode, std::uint64_t seed, bool tiny)
      : mode_(mode),
        seed_(seed),
        grid_(arvy::graph::make_grid(kGridSide, kGridSide)),
        pool_(svc_stream(seed, svc_pool(tiny))),
        setups_(tiny ? 1 : 7),
        logs_(worker_threads()) {
    for (ShardLog& log : logs_) log.resize(pool_.size());
  }

  void build(bool hooks) override {
    service_.reset();  // joins a previous kLive instance first
    service_ = std::make_unique<DirectoryService>(
        grid_, kSvcObjects, logs_.size(), service_options(), mode_);
    install_hooks(hooks);
    cursor_ = 0;
    issued_ = 0;
    drive(pool_.size());  // materializes every object the rounds touch
    warm_ = to_costs(service_->cost_snapshot());
  }

  Round round() override { return drive(pool_.size()); }

  Costs costs() const override {
    return to_costs(service_->cost_snapshot()) - warm_;
  }
  std::size_t setups() const override { return setups_; }
  const arvy::graph::Graph& graph() const override { return grid_; }
  std::string_view latency_unit() const override {
    return mode_ == ServiceMode::kSim ? "acquire call"
                                      : "acquire, admission to satisfaction";
  }

  std::vector<Check> verify(const Costs& counted) override {
    std::vector<Check> checks;
    const std::uint64_t submitted = service_->submitted_count();
    const std::uint64_t satisfied = service_->satisfied_count();
    checks.push_back({"every acquire satisfied", submitted == satisfied,
                      std::to_string(satisfied) + "/" + std::to_string(submitted)});
    if (mode_ == ServiceMode::kLive) {
      bool ordered = true;
      for (const ShardLog& log : logs_) ordered = ordered && !log.mismatch;
      checks.push_back({"satisfactions follow per-shard admission order",
                        ordered, ""});
      service_->shutdown();
    }
    const arvy::ServiceCheckReport report = service_->check_sampled(8, seed_);
    checks.push_back({"check_sampled reports zero failures",
                      report.failures == 0 && report.objects_checked > 0,
                      std::to_string(report.objects_checked) + " objects; " +
                          report.first_failure});
    checks.push_back({"recovery_count() == 0", service_->recovery_count() == 0,
                      std::to_string(service_->recovery_count())});
    if (mode_ == ServiceMode::kLive) {
      const Costs sim = sim_counted_costs();
      checks.push_back({"kLive find/token messages and distance equal kSim's",
                        sim == counted,
                        "live " + describe(counted) + " | sim " + describe(sim)});
    }
    return checks;
  }

  std::optional<std::pair<double, double>> residency() const override {
    return std::make_pair(
        static_cast<double>(service_->resident_objects()),
        static_cast<double>(service_->resident_bytes()) / (1024.0 * 1024.0));
  }

 private:
  // Per-shard admission log of a kLive drive. The client writes entry k
  // before the ring push of request k; the shard reads it after the pop,
  // so the ring's release/acquire pair orders every access.
  struct ShardLog {
    std::vector<ObjectId> object;
    std::vector<std::int64_t> request;
    std::vector<std::int64_t> admit_ns;
    std::vector<double> latency_us;
    std::size_t admitted = 0;  // client thread only
    std::size_t done = 0;      // shard thread only until the drain returns
    bool mismatch = false;     // shard thread only until the drain returns

    void resize(std::size_t n) {
      object.resize(n);
      request.resize(n);
      admit_ns.resize(n);
      latency_us.resize(n);
    }
  };

  static arvy::Options service_options() {
    arvy::Options options;
    options.policy = arvy::proto::PolicyKind::kIvy;
    options.seed = kSystemSeed;
    return options;
  }

  const ObjectRequest& next() { return pool_[cursor_++ % pool_.size()]; }

  void install_hooks(bool hooks) {
    if (mode_ == ServiceMode::kSim) {
      if (!hooks) return;
      // Inline processing: the hooks run inside the client's acquire call.
      service_->on_message([this](ObjectId, const arvy::MessageEvent&) {
        Scope span("service.on_message", static_cast<std::int64_t>(issued_));
      });
      service_->on_satisfied(
          [this](ObjectId, const arvy::proto::RequestRecord&) {
            Scope span("service.on_satisfied", static_cast<std::int64_t>(issued_));
          });
      return;
    }
    // kLive: the satisfied observer stamps latency, so it is always on.
    service_->on_satisfied(
        [this](ObjectId object, const arvy::proto::RequestRecord&) {
          ShardLog& log = logs_[service_->route(object)];
          const std::size_t k = log.done++;
          if (k >= log.object.size() || log.object[k] != object) {
            log.mismatch = true;
            return;
          }
          Scope span("service.on_satisfied", log.request[k]);
          log.latency_us[k] = us_since(log.admit_ns[k]);
        });
    if (!hooks) return;
    service_->on_message([this](ObjectId object, const arvy::MessageEvent&) {
      if (!tracer::enabled()) return;
      const ShardLog& log = logs_[service_->route(object)];
      if (log.done < log.request.size()) {
        Scope span("service.on_message", log.request[log.done]);
      }
    });
  }

  Round drive(std::size_t count) {
    return mode_ == ServiceMode::kSim ? drive_sim(count) : drive_live(count);
  }

  Round drive_sim(std::size_t count) {
    const std::uint64_t base = service_->satisfied_count();
    Round round;
    round.acquires = count;
    round.latency_us.reserve(count);
    const RoundTimer timer;
    for (std::size_t i = 0; i < count; ++i) {
      const ObjectRequest& r = next();
      const std::int64_t start = now_ns();
      {
        Scope span("service.acquire", static_cast<std::int64_t>(issued_));
        service_->acquire(r.object, r.node);
      }
      round.latency_us.push_back(us_since(start));
      ++issued_;
    }
    timer.finish(round);
    round.failed = count - (service_->satisfied_count() - base);
    return round;
  }

  Round drive_live(std::size_t count) {
    // The previous drive drained, so the shard threads are quiescent.
    for (ShardLog& log : logs_) {
      log.admitted = 0;
      log.done = 0;
    }
    const std::uint64_t base = service_->satisfied_count();
    Round round;
    round.acquires = count;
    const RoundTimer timer;
    for (std::size_t i = 0; i < count; ++i) {
      const ObjectRequest& r = next();
      ShardLog& log = logs_[service_->route(r.object)];
      const std::size_t k = log.admitted++;
      log.object[k] = r.object;
      log.request[k] = static_cast<std::int64_t>(issued_);
      while (i - (service_->satisfied_count() - base) >= kOutstanding) {
        spin_pause();
      }
      log.admit_ns[k] = now_ns();
      {
        Scope span("service.admit", static_cast<std::int64_t>(issued_));
        service_->acquire(r.object, r.node);
      }
      ++issued_;
    }
    bool drained = false;
    {
      Scope span("service.drain");
      drained = service_->drain(kDrainBudget);
    }
    timer.finish(round);
    round.failed = count - (service_->satisfied_count() - base);
    if (!drained) return round;  // the shard threads may still write the logs
    round.latency_us.reserve(count);
    for (const ShardLog& log : logs_) {
      round.latency_us.insert(round.latency_us.end(), log.latency_us.begin(),
                              log.latency_us.begin() +
                                  static_cast<std::ptrdiff_t>(log.done));
    }
    return round;
  }

  // The counted requests (warm-up pass, then one round) on a fresh kSim
  // service: kLive must have paid exactly the same.
  Costs sim_counted_costs() const {
    DirectoryService sim(grid_, kSvcObjects, logs_.size(), service_options(),
                         ServiceMode::kSim);
    for (const ObjectRequest& r : pool_) sim.acquire(r.object, r.node);
    const Costs warm = to_costs(sim.cost_snapshot());
    for (const ObjectRequest& r : pool_) sim.acquire(r.object, r.node);
    return to_costs(sim.cost_snapshot()) - warm;
  }

  ServiceMode mode_;
  std::uint64_t seed_;
  arvy::graph::Graph grid_;
  std::vector<ObjectRequest> pool_;
  std::size_t setups_;
  std::vector<ShardLog> logs_;
  std::unique_ptr<DirectoryService> service_;
  std::size_t cursor_ = 0;
  std::uint64_t issued_ = 0;
  Costs warm_;
};

// --- ring-bridge-seq ----------------------------------------------------------

class RingSeqWorkload final : public Workload {
 public:
  RingSeqWorkload(std::uint64_t seed, bool tiny)
      : ring_(arvy::graph::make_ring(1024)),
        pool_(uniform_stream(seed, 1024, tiny ? 256 : 4096)),
        warm_count_(tiny ? 64 : 512),
        setups_(tiny ? 2 : 15) {}

  void build(bool hooks) override {
    dir_.reset();
    arvy::Options options;
    options.policy = arvy::proto::PolicyKind::kBridge;
    options.seed = kSystemSeed;
    dir_ = std::make_unique<arvy::Directory>(ring_, options);
    if (hooks) {
      dir_->on_message([this](const arvy::MessageEvent&) {
        Scope span("proto.on_message", static_cast<std::int64_t>(issued_));
      });
      dir_->on_satisfied([this](const arvy::proto::RequestRecord&) {
        Scope span("proto.on_satisfied", static_cast<std::int64_t>(issued_));
      });
    }
    cursor_ = 0;
    issued_ = 0;
    // Warm-up: fills the distance oracle's rows along the paths.
    for (std::size_t i = 0; i < warm_count_; ++i) acquire(next());
    warm_ = to_costs(dir_->costs());
  }

  Round round() override {
    Round round;
    round.acquires = pool_.size();
    round.latency_us.reserve(pool_.size());
    const RoundTimer timer;
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      const NodeId v = next();
      const std::int64_t start = now_ns();
      const bool ok = acquire(v);
      round.latency_us.push_back(us_since(start));
      if (!ok) ++round.failed;
    }
    timer.finish(round);
    return round;
  }

  Costs costs() const override { return to_costs(dir_->costs()) - warm_; }
  std::size_t setups() const override { return setups_; }
  const arvy::graph::Graph& graph() const override { return ring_; }
  std::string_view latency_unit() const override { return "acquire call"; }

  std::vector<Check> verify(const Costs&) override {
    const std::size_t unsatisfied = dir_->unsatisfied_count();
    const arvy::verify::CheckResult result =
        arvy::verify::check_all(arvy::verify::capture(*dir_));
    return {{"every acquire satisfied", unsatisfied == 0,
             std::to_string(unsatisfied) + " unsatisfied"},
            {"verify::check_all on the final configuration", result.ok,
             result.detail}};
  }

 private:
  NodeId next() { return pool_[cursor_++ % pool_.size()]; }

  // acquire + run is acquire_and_wait without its abort on failure.
  bool acquire(NodeId v) {
    const auto request = static_cast<std::int64_t>(issued_++);
    arvy::proto::RequestId id = 0;
    {
      Scope span("proto.submit", request);
      id = dir_->acquire(v);
    }
    {
      Scope span("proto.run", request);
      const std::uint64_t before = dir_->inspect().bus().deliveries();
      dir_->run();
      span.set_items(dir_->inspect().bus().deliveries() - before);
    }
    return dir_->requests()[id - 1].satisfied_at.has_value();
  }

  arvy::graph::Graph ring_;
  std::vector<NodeId> pool_;
  std::size_t warm_count_;
  std::size_t setups_;
  std::unique_ptr<arvy::Directory> dir_;
  std::size_t cursor_ = 0;
  std::uint64_t issued_ = 0;
  Costs warm_;
};

// --- live-ring -------------------------------------------------------------------

class LiveRingWorkload final : public Workload {
 public:
  LiveRingWorkload(std::uint64_t seed, bool tiny)
      : sizes_(volley_sizes(tiny)),
        ring_(arvy::graph::make_ring(sizes_.nodes)),
        pool_(volley_stream(seed, sizes_.nodes, sizes_.pool, sizes_.width)),
        setups_(tiny ? 2 : 7) {}

  void build(bool) override {
    dir_.reset();
    arvy::Options options;
    options.policy = arvy::proto::PolicyKind::kIvy;
    options.seed = kSystemSeed;
    options.workers = worker_threads();
    dir_ = std::make_unique<arvy::LiveDirectory>(ring_, options);
    cursor_ = 0;
    for (std::size_t v = 0; v < sizes_.warm; ++v) volley();
    warm_ = to_costs(dir_->cost_snapshot());
  }

  Round round() override {
    const std::uint64_t base = dir_->satisfied_count();
    Round round;
    round.acquires = sizes_.pool * sizes_.width;
    round.latency_us.reserve(sizes_.pool);
    const RoundTimer timer;
    for (std::size_t v = 0; v < sizes_.pool; ++v) {
      const std::int64_t start = now_ns();
      volley();
      round.latency_us.push_back(us_since(start));
    }
    timer.finish(round);
    round.failed = round.acquires - (dir_->satisfied_count() - base);
    return round;
  }

  Costs costs() const override { return to_costs(dir_->cost_snapshot()) - warm_; }
  std::size_t setups() const override { return setups_; }
  const arvy::graph::Graph& graph() const override { return ring_; }
  std::string_view latency_unit() const override {
    return "volley of 16 acquires, submission to drain";
  }

  std::vector<Check> verify(const Costs&) override {
    const std::uint64_t submitted = dir_->submitted_count();
    const std::uint64_t satisfied = dir_->satisfied_count();
    dir_->shutdown();
    // Quiescent after shutdown: no message in flight, so the configuration
    // is the node states alone.
    arvy::verify::Configuration cfg;
    cfg.parent.resize(sizes_.nodes);
    cfg.next.resize(sizes_.nodes);
    for (NodeId v = 0; v < sizes_.nodes; ++v) {
      const arvy::proto::ArvyCore& core = dir_->node(v);
      cfg.parent[v] = core.parent();
      cfg.next[v] = core.next();
      if (core.holds_token()) cfg.token_at = v;
    }
    const arvy::verify::CheckResult result = arvy::verify::check_all(cfg);
    return {{"every acquire satisfied", submitted == satisfied,
             std::to_string(satisfied) + "/" + std::to_string(submitted)},
            {"verify::check_all on the final node states", result.ok,
             result.detail}};
  }

 private:
  bool volley() {
    const std::size_t first = (cursor_++ % sizes_.pool) * sizes_.width;
    for (std::size_t k = 0; k < sizes_.width; ++k) {
      Scope span("runtime.acquire");
      dir_->acquire(pool_[first + k]);
    }
    Scope span("runtime.drain");
    return dir_->drain(kDrainBudget);
  }

  VolleySizes sizes_;
  arvy::graph::Graph ring_;
  std::vector<NodeId> pool_;
  std::size_t setups_;
  std::unique_ptr<arvy::LiveDirectory> dir_;
  std::size_t cursor_ = 0;
  Costs warm_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed, bool tiny) {
  if (name == "svc-sim-zipf") {
    return std::make_unique<SvcWorkload>(ServiceMode::kSim, seed, tiny);
  }
  if (name == "svc-live-zipf") {
    return std::make_unique<SvcWorkload>(ServiceMode::kLive, seed, tiny);
  }
  if (name == "ring-bridge-seq") {
    return std::make_unique<RingSeqWorkload>(seed, tiny);
  }
  if (name == "live-ring") return std::make_unique<LiveRingWorkload>(seed, tiny);
  return nullptr;
}

}  // namespace perfbench
