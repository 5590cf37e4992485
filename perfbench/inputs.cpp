// Request generators. The program under test receives only their output.
#include <sched.h>

#include <algorithm>
#include <numeric>
#include <thread>

#include "bench.hpp"
#include "support/rng.hpp"
#include "workload/workload.hpp"

namespace perfbench {

namespace {
// Fixes which requester nodes are hot (the popularity ranking), independent
// of the run's seed.
constexpr std::uint64_t kRankingSeed = 29;
}  // namespace

std::vector<ObjectRequest> svc_stream(std::uint64_t seed, std::size_t length) {
  arvy::support::Rng ranking(kRankingSeed);
  // Hot object ranks map to ids directly: the routing table's placement hash
  // already spreads dense ids over shards.
  const arvy::support::ZipfSampler objects(kSvcObjects, 0.9);
  const arvy::workload::ZipfNodeSampler nodes(kGridSide * kGridSide, 1.1,
                                              ranking);
  arvy::support::Rng rng(seed);
  std::vector<ObjectRequest> out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    const auto object = static_cast<ObjectId>(objects.sample(rng));
    out.push_back(ObjectRequest{object, nodes.sample(rng), 0});
  }
  return out;
}

std::vector<NodeId> uniform_stream(std::uint64_t seed, std::size_t nodes,
                                   std::size_t length) {
  arvy::support::Rng rng(seed);
  return arvy::workload::uniform_sequence(nodes, length, rng, true);
}

std::vector<NodeId> volley_stream(std::uint64_t seed, std::size_t nodes,
                                  std::size_t count, std::size_t width) {
  arvy::support::Rng rng(seed);
  std::vector<NodeId> all(nodes);
  std::iota(all.begin(), all.end(), NodeId{0});
  std::vector<NodeId> out;
  out.reserve(count * width);
  for (std::size_t v = 0; v < count; ++v) {
    // Partial Fisher-Yates: the first `width` slots are a uniform sample of
    // distinct nodes (the model allows one outstanding request per node).
    for (std::size_t i = 0; i < width; ++i) {
      std::swap(all[i], all[i + rng.next_below(nodes - i)]);
      out.push_back(all[i]);
    }
  }
  return out;
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t worker_threads() { return std::clamp<std::size_t>(nproc() - 1, 1, 3); }

VolleySizes volley_sizes(bool tiny) {
  VolleySizes s;
  s.pool = tiny ? 64 : 1024;
  s.warm = tiny ? 16 : 256;
  return s;
}

}  // namespace perfbench
