#include "faults/injector.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace arvy::faults {

void FaultStats::merge(const FaultStats& other) {
  drops += other.drops;
  retries += other.retries;
  duplicates += other.duplicates;
  permanent_losses += other.permanent_losses;
  lost_finds += other.lost_finds;
  lost_tokens += other.lost_tokens;
  delays += other.delays;
  overhead_distance += other.overhead_distance;
}

FaultInjector::FaultInjector(FaultPlan plan, RetryPolicy retry)
    : plan_(std::move(plan)),
      retry_(retry),
      rng_(plan_.seed ^ 0xfa017c7d9e1f23abULL) {
  ARVY_EXPECTS(retry_.max_attempts >= 1);
}

sim::SendVerdict FaultInjector::on_send(MessageKind kind, NodeId to,
                                        sim::Time now, double distance) {
  ARVY_EXPECTS_MSG(active(), "empty FaultPlan must bypass the injector");
  sim::SendVerdict verdict;

  // Scheduled delays: storms, ingress pauses, holder stalls. These model
  // slow links / unresponsive nodes, not loss, so they add latency only.
  sim::Time scheduled = 0.0;
  for (const LatencyStorm& storm : plan_.storms) {
    if (now >= storm.at && now < storm.at + storm.duration) {
      scheduled += std::max(0.0, storm.factor - 1.0) * std::max(distance, 1.0);
    }
  }
  for (const PauseWindow& pause : plan_.pauses) {
    if (to == pause.node && now >= pause.at && now < pause.at + pause.duration) {
      scheduled += (pause.at + pause.duration) - now;
    }
  }
  if (kind == MessageKind::kToken) {
    for (const HolderStall& stall : plan_.stalls) {
      if (now >= stall.at && now < stall.at + stall.duration) {
        scheduled += (stall.at + stall.duration) - now;
      }
    }
  }
  if (plan_.reorder > 0.0 && rng_.next_bool(plan_.reorder)) {
    scheduled += rng_.next_double(0.0, plan_.reorder_spike);
  }
  if (scheduled > 0.0) {
    verdict.extra_delay += scheduled;
    ++stats_.delays;
  }

  // Drop + retransmission chain, resolved at send time: attempt i is lost
  // with the per-transmission probability; each loss re-issues after the
  // capped exponential backoff until one survives or attempts run out.
  const double drop_p =
      kind == MessageKind::kFind ? plan_.drop_find : plan_.drop_token;
  if (drop_p > 0.0) {
    sim::Time backoff = retry_.rto;
    std::uint32_t attempt = 1;
    while (rng_.next_bool(drop_p)) {
      ++stats_.drops;
      if (!retry_.enabled || attempt >= retry_.max_attempts) {
        ++stats_.permanent_losses;
        if (kind == MessageKind::kFind) ++stats_.lost_finds;
        if (kind == MessageKind::kToken) ++stats_.lost_tokens;
        verdict.lost = true;
        return verdict;
      }
      ++stats_.retries;
      stats_.overhead_distance += distance;
      verdict.extra_delay += backoff;
      ++attempt;
      backoff = std::min(backoff * retry_.backoff, retry_.max_backoff);
    }
  }

  // Duplication: one extra copy; the receiver-side dedup makes it harmless
  // to the protocol, so the only lasting effect is overhead traffic.
  if (plan_.duplicate > 0.0 && rng_.next_bool(plan_.duplicate)) {
    verdict.duplicates = 1;
    ++stats_.duplicates;
    stats_.overhead_distance += distance;
  }

  return verdict;
}

}  // namespace arvy::faults
