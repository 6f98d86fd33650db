#include "serve/session.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "obs/metrics.hpp"

namespace ca5g::serve {

UeSession::UeSession(std::size_t history, std::size_t cc_slots, double tput_scale_mbps)
    : history_(history), cc_slots_(cc_slots), tput_scale_mbps_(tput_scale_mbps) {
  CA5G_CHECK_MSG(history_ >= 1, "UeSession needs at least one history slot");
  CA5G_CHECK_MSG(cc_slots_ >= 1, "UeSession needs at least one CC slot");
  CA5G_CHECK_MSG(tput_scale_mbps_ > 0.0, "UeSession throughput scale must be positive");
  ring_.resize(history_ * traces::step_dim(cc_slots_));
}

void UeSession::push(const sim::TraceSample& sample) {
  const std::size_t dim = traces::step_dim(cc_slots_);
  traces::featurize_step(sample, cc_slots_, tput_scale_mbps_,
                         std::span<float>(ring_).subspan(next_slot_ * dim, dim));
  next_slot_ = (next_slot_ + 1) % history_;
  ++steps_seen_;
}

void UeSession::snapshot(traces::Window& out) const {
  CA5G_CHECK_MSG(warm(), "snapshot of a cold session");
  out.cc_slots = cc_slots_;
  out.steps.resize(ring_.size());
  out.target.clear();
  out.cc_target.clear();
  // next_slot_ is the oldest row once the ring is full.
  const auto oldest =
      ring_.begin() + static_cast<std::ptrdiff_t>(next_slot_ * traces::step_dim(cc_slots_));
  std::copy(ring_.begin(), oldest, std::copy(oldest, ring_.end(), out.steps.begin()));
}

SessionTable::SessionTable(std::size_t shards, std::size_t history,
                           std::size_t cc_slots, double tput_scale_mbps)
    : history_(history), cc_slots_(cc_slots), tput_scale_mbps_(tput_scale_mbps),
      shards_(shards == 0 ? 1 : shards) {}

SessionTable::PushResult SessionTable::push(UeId ue, const sim::TraceSample& sample) {
  CA5G_METRIC_GAUGE(sessions_gauge, "serve.sessions_count");
  Shard& shard = shard_for(ue);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.sessions.find(ue);
  if (it == shard.sessions.end()) {
    it = shard.sessions.emplace(ue, UeSession(history_, cc_slots_, tput_scale_mbps_))
             .first;
    sessions_gauge.add(1.0);
  }
  it->second.push(sample);
  return {it->second.steps_seen(), it->second.warm()};
}

bool SessionTable::snapshot(UeId ue, traces::Window& out) const {
  Shard& shard = shard_for(ue);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.sessions.find(ue);
  if (it == shard.sessions.end() || !it->second.warm()) return false;
  it->second.snapshot(out);
  return true;
}

std::size_t SessionTable::session_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.sessions.size();
  }
  return total;
}

}  // namespace ca5g::serve
