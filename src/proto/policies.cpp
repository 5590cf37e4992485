#include "proto/policies.hpp"

#include <array>
#include <limits>

#include "support/assert.hpp"

namespace arvy::proto {

namespace {

// Arvy with NewParent = sender: only edge directions change on the current
// path, never the edge set - the original Arrow protocol.
class ArrowPolicy final : public NewParentPolicy {
 public:
  PolicyDecision choose(const PolicyContext& ctx) override {
    return {ctx.sender, false};
  }
  std::string_view name() const noexcept override { return "arrow"; }
  std::unique_ptr<NewParentPolicy> clone() const override {
    return std::make_unique<ArrowPolicy>(*this);
  }
};

// Arvy with NewParent = producer: every visited node re-points at the
// requester - the original Ivy protocol (path reversal / short-cutting).
class IvyPolicy final : public NewParentPolicy {
 public:
  PolicyDecision choose(const PolicyContext& ctx) override {
    return {ctx.producer, false};
  }
  std::string_view name() const noexcept override { return "ivy"; }
  std::unique_ptr<NewParentPolicy> clone() const override {
    return std::make_unique<IvyPolicy>(*this);
  }
};

// Algorithm 2: if the find crossed the bridge, short-cut to the producer and
// declare the new parent edge the bridge; otherwise behave like Arrow. Keeps
// the two semicircles of a ring stitched by a single long-range pointer.
class BridgePolicy final : public NewParentPolicy {
 public:
  PolicyDecision choose(const PolicyContext& ctx) override {
    if (ctx.sender_edge_was_bridge) {
      return {ctx.producer, true};
    }
    return {ctx.sender, false};
  }
  std::string_view name() const noexcept override { return "bridge"; }
  std::size_t node_state_words() const noexcept override {
    return 1;  // the per-node "my parent edge is the bridge" flag
  }
  std::unique_ptr<NewParentPolicy> clone() const override {
    return std::make_unique<BridgePolicy>(*this);
  }
};

// Uniformly random member of the visited set.
class RandomPolicy final : public NewParentPolicy {
 public:
  PolicyDecision choose(const PolicyContext& ctx) override {
    ARVY_EXPECTS(ctx.rng != nullptr);
    ARVY_EXPECTS(!ctx.visited.empty());
    return {ctx.rng->pick(ctx.visited), false};
  }
  std::string_view name() const noexcept override { return "random"; }
  MessageNeeds message_needs() const noexcept override {
    return MessageNeeds::kFullPath;
  }
  std::unique_ptr<NewParentPolicy> clone() const override {
    return std::make_unique<RandomPolicy>(*this);
  }
};

// Middle of the visited path: repeated passes halve chain lengths, a
// deterministic compromise between Arrow (no short-cutting) and Ivy (full
// short-cutting).
class MidpointPolicy final : public NewParentPolicy {
 public:
  PolicyDecision choose(const PolicyContext& ctx) override {
    ARVY_EXPECTS(!ctx.visited.empty());
    return {ctx.visited[ctx.visited.size() / 2], false};
  }
  std::string_view name() const noexcept override { return "midpoint"; }
  MessageNeeds message_needs() const noexcept override {
    return MessageNeeds::kFullPath;
  }
  std::unique_ptr<NewParentPolicy> clone() const override {
    return std::make_unique<MidpointPolicy>(*this);
  }
};

// Visited node metrically closest to the receiver: greedy locality.
class ClosestPolicy final : public NewParentPolicy {
 public:
  PolicyDecision choose(const PolicyContext& ctx) override {
    ARVY_EXPECTS_MSG(ctx.distances != nullptr,
                     "closest policy needs a distance oracle");
    ARVY_EXPECTS(!ctx.visited.empty());
    NodeId best = ctx.visited.front();
    double best_dist = std::numeric_limits<double>::infinity();
    for (NodeId candidate : ctx.visited) {
      const double d = ctx.distances->distance(ctx.receiver, candidate);
      if (d < best_dist) {
        best_dist = d;
        best = candidate;
      }
    }
    return {best, false};
  }
  std::string_view name() const noexcept override { return "closest"; }
  MessageNeeds message_needs() const noexcept override {
    return MessageNeeds::kFullPath;
  }
  std::unique_ptr<NewParentPolicy> clone() const override {
    return std::make_unique<ClosestPolicy>(*this);
  }
};

// k hops back along the visited path (k = 1 is Arrow; large k approaches
// Ivy). Needs only the last k entries of the path in a real deployment.
class KBackPolicy final : public NewParentPolicy {
 public:
  explicit KBackPolicy(std::size_t k) : k_(k) { ARVY_EXPECTS(k >= 1); }
  PolicyDecision choose(const PolicyContext& ctx) override {
    ARVY_EXPECTS(!ctx.visited.empty());
    const std::size_t last = ctx.visited.size() - 1;
    const std::size_t back = k_ - 1 > last ? 0 : last - (k_ - 1);
    return {ctx.visited[back], false};
  }
  std::string_view name() const noexcept override { return "kback"; }
  MessageNeeds message_needs() const noexcept override {
    return MessageNeeds::kFullPath;  // bounded by k, conservatively reported
  }
  std::unique_ptr<NewParentPolicy> clone() const override {
    return std::make_unique<KBackPolicy>(*this);
  }

 private:
  std::size_t k_;
};

// The Arrow<->Ivy dial: index round(lambda * (|visited| - 1)) into the path.
class SpectrumPolicy final : public NewParentPolicy {
 public:
  explicit SpectrumPolicy(double lambda) : lambda_(lambda) {
    ARVY_EXPECTS(lambda >= 0.0 && lambda <= 1.0);
  }
  PolicyDecision choose(const PolicyContext& ctx) override {
    ARVY_EXPECTS(!ctx.visited.empty());
    const double position =
        lambda_ * static_cast<double>(ctx.visited.size() - 1);
    const auto index = static_cast<std::size_t>(position + 0.5);
    return {ctx.visited[index], false};
  }
  std::string_view name() const noexcept override { return "spectrum"; }
  MessageNeeds message_needs() const noexcept override {
    return MessageNeeds::kFullPath;
  }
  std::unique_ptr<NewParentPolicy> clone() const override {
    return std::make_unique<SpectrumPolicy>(*this);
  }

 private:
  double lambda_;
};

constexpr std::array<PolicyKind, 8> kAllKinds = {
    PolicyKind::kArrow,  PolicyKind::kIvy,      PolicyKind::kBridge,
    PolicyKind::kRandom, PolicyKind::kMidpoint, PolicyKind::kClosest,
    PolicyKind::kKBack,  PolicyKind::kSpectrum,
};

}  // namespace

std::string_view policy_kind_name(PolicyKind kind) noexcept {
  switch (kind) {
    case PolicyKind::kArrow:
      return "arrow";
    case PolicyKind::kIvy:
      return "ivy";
    case PolicyKind::kBridge:
      return "bridge";
    case PolicyKind::kRandom:
      return "random";
    case PolicyKind::kMidpoint:
      return "midpoint";
    case PolicyKind::kClosest:
      return "closest";
    case PolicyKind::kKBack:
      return "kback";
    case PolicyKind::kSpectrum:
      return "spectrum";
  }
  return "unknown";
}

std::optional<PolicyKind> find_policy_kind(std::string_view name) noexcept {
  for (const PolicyKind kind : kAllKinds) {
    if (policy_kind_name(kind) == name) return kind;
  }
  return std::nullopt;
}

std::unique_ptr<NewParentPolicy> make_policy(PolicyKind kind, std::size_t k) {
  switch (kind) {
    case PolicyKind::kArrow:
      return std::make_unique<ArrowPolicy>();
    case PolicyKind::kIvy:
      return std::make_unique<IvyPolicy>();
    case PolicyKind::kBridge:
      return std::make_unique<BridgePolicy>();
    case PolicyKind::kRandom:
      return std::make_unique<RandomPolicy>();
    case PolicyKind::kMidpoint:
      return std::make_unique<MidpointPolicy>();
    case PolicyKind::kClosest:
      return std::make_unique<ClosestPolicy>();
    case PolicyKind::kKBack:
      return std::make_unique<KBackPolicy>(k);
    case PolicyKind::kSpectrum:
      return std::make_unique<SpectrumPolicy>(0.5);
  }
  ARVY_UNREACHABLE("bad policy kind");
}

std::unique_ptr<NewParentPolicy> make_spectrum_policy(double lambda) {
  return std::make_unique<SpectrumPolicy>(lambda);
}

std::span<const PolicyKind> all_policy_kinds() noexcept { return kAllKinds; }

}  // namespace arvy::proto
