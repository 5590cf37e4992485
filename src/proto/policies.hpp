// The bundled NewParent policies.
#pragma once

#include <memory>
#include <optional>
#include <string_view>

#include "proto/policy.hpp"

namespace arvy::proto {

enum class PolicyKind {
  kArrow,     // new parent = sender u: Arvy degenerates to Arrow [5]
  kIvy,       // new parent = producer v: Arvy degenerates to Ivy [11]
  kBridge,    // Algorithm 2: Arrow off the bridge, Ivy across it
  kRandom,    // uniform over the visited set (randomized middle ground)
  kMidpoint,  // middle of the visited path (halves chain length per pass)
  kClosest,   // metric-aware: visited node nearest to the receiver
  kKBack,     // k hops back along the visited path (k = 1 is Arrow)
  kSpectrum,  // fractional position on the visited path: the Arrow<->Ivy dial
};

[[nodiscard]] std::string_view policy_kind_name(PolicyKind kind) noexcept;

// The kind whose policy_kind_name is `name`, or nullopt for an unknown name.
[[nodiscard]] std::optional<PolicyKind> find_policy_kind(
    std::string_view name) noexcept;

// Factory. `k` is only used by kKBack; randomized policies draw from the
// engine-supplied rng in the PolicyContext. kSpectrum defaults to the
// midpoint dial (lambda = 0.5); use make_spectrum_policy for other dials.
[[nodiscard]] std::unique_ptr<NewParentPolicy> make_policy(PolicyKind kind,
                                                           std::size_t k = 1);

// The Arvy family as a one-parameter spectrum: the new parent is the visited
// node at fractional position `lambda` along the path, so lambda = 0 is Ivy
// (the producer), lambda = 1 is Arrow (the sender), and values in between
// interpolate how aggressively the tree short-cuts. This makes the paper's
// "family of protocols" observation (§1) directly sweepable (experiment
// E15).
[[nodiscard]] std::unique_ptr<NewParentPolicy> make_spectrum_policy(
    double lambda);

// All kinds, for parameterized tests and ablation benches.
[[nodiscard]] std::span<const PolicyKind> all_policy_kinds() noexcept;

}  // namespace arvy::proto
