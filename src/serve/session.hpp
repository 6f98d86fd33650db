// Per-UE streaming session state: a fixed-capacity ring of featurized
// trace steps, stored as one contiguous buffer of Window history rows.
// Each incoming sim::TraceSample is normalized exactly once at ingest
// (traces::featurize_step — the same code path the batch Dataset
// windowing uses), so producing a prediction window is at most two
// copies of pre-normalized floats instead of a per-request build_window
// rebuild over raw samples. Sessions are grouped into a sharded table so
// ingest threads and batching workers contend on a shard mutex, not a
// global one.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "sim/trace.hpp"
#include "traces/dataset.hpp"

namespace ca5g::serve {

/// Opaque UE identity (an IMSI stand-in).
using UeId = std::uint64_t;

/// One UE's streaming feature window.
class UeSession {
 public:
  /// `history` ring slots of `cc_slots`-carrier features, normalized
  /// against `tput_scale_mbps` (the serving model's training scale).
  UeSession(std::size_t history, std::size_t cc_slots, double tput_scale_mbps);

  /// Ingest one 10 ms sample: featurize into the next ring row in
  /// place. Throws CheckError when the sample has more than `cc_slots`
  /// CCs. No allocation: the ring is sized at construction.
  void push(const sim::TraceSample& sample);

  /// True once `history` samples have been ingested.
  [[nodiscard]] bool warm() const noexcept { return steps_seen_ >= history_; }
  [[nodiscard]] std::uint64_t steps_seen() const noexcept { return steps_seen_; }

  /// Materialize the current window (oldest → newest ring order) into
  /// `out` with at most two copies, reusing `out.steps`' capacity.
  /// Requires warm().
  /// The produced history matches traces::build_window over the same
  /// samples feature-for-feature; target fields are left empty (the
  /// horizon is what the server predicts).
  void snapshot(traces::Window& out) const;

 private:
  std::size_t history_;
  std::size_t cc_slots_;
  double tput_scale_mbps_;
  std::uint64_t steps_seen_ = 0;
  std::size_t next_slot_ = 0;  ///< ring row of the next write
  std::vector<float> ring_;    ///< `history_` rows of traces::step_dim(cc_slots_)
};

/// Sharded UeId → UeSession map. push() and snapshot() lock only the
/// owning shard; distinct UEs on different shards never contend.
class SessionTable {
 public:
  SessionTable(std::size_t shards, std::size_t history, std::size_t cc_slots,
               double tput_scale_mbps);

  /// Ingest a sample for `ue`, creating the session on first contact.
  /// Returns the session's post-push state: (steps_seen, warm).
  struct PushResult {
    std::uint64_t seq = 0;
    bool warm = false;
  };
  PushResult push(UeId ue, const sim::TraceSample& sample);

  /// Snapshot `ue`'s current window into `out`. False when the session
  /// does not exist or is not yet warm. Sessions are never dropped, so a
  /// UE that was warm once stays snapshot-able.
  [[nodiscard]] bool snapshot(UeId ue, traces::Window& out) const;

  [[nodiscard]] std::size_t session_count() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<UeId, UeSession> sessions;
  };

  [[nodiscard]] Shard& shard_for(UeId ue) const noexcept {
    return shards_[static_cast<std::size_t>(ue) % shards_.size()];
  }

  std::size_t history_;
  std::size_t cc_slots_;
  double tput_scale_mbps_;
  mutable std::vector<Shard> shards_;
};

}  // namespace ca5g::serve
