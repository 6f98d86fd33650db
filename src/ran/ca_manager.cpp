#include "ran/ca_manager.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "obs/metrics.hpp"

namespace ca5g::ran {

std::string rrc_event_name(RrcEventType type) {
  switch (type) {
    case RrcEventType::kPCellChange: return "pcell_change";
    case RrcEventType::kSCellAdd: return "scell_add";
    case RrcEventType::kSCellRemove: return "scell_remove";
    case RrcEventType::kRatChange: return "rat_change";
  }
  return "unknown";
}

CaPolicy default_policy(OperatorId op) {
  CaPolicy policy;
  // OpZ extends coverage by anchoring on FDD low-band (paper Fig. 28).
  policy.prefer_lowband_pcell = (op == OperatorId::kOpZ);
  return policy;
}

CaManager::CaManager(const Deployment& dep, phy::Rat rat,
                     const ue::UeCapability& capability, CaPolicy policy)
    : dep_(&dep), rat_(rat), capability_(capability), policy_(policy) {
  eligible_ = dep.carriers_of_rat(rat);
  CA5G_CHECK_MSG(!eligible_.empty(), "deployment has no carriers for the requested RAT");
}

int CaManager::max_ccs_for(CarrierId candidate) const {
  if (rat_ == phy::Rat::kLte) return capability_.max_lte_ccs;
  if (phy::is_mmwave(dep_->carrier(candidate).band)) return capability_.max_nr_fr2_ccs;
  // FR1 SA CA requires modem support; without it the UE stays at 1 CC.
  return capability_.supports_sa_ca ? capability_.max_nr_fr1_ccs : 1;
}

double CaManager::pcell_preference_bonus(CarrierId id) const {
  const auto& carrier = dep_->carrier(id);
  const auto& info = phy::band_info(carrier.band);
  // Wider carriers make better anchors: bias PCell selection toward the
  // 100 MHz channel over a co-sited 20/40 MHz one (up to +5 dB).
  double bonus = std::min(5.0, carrier.bandwidth_mhz / 20.0);
  // OpZ-style coverage anchoring: a viable low-band FDD carrier wins
  // PCell against a somewhat stronger mid-band TDD one (paper Fig. 28).
  if (policy_.prefer_lowband_pcell && info.range == phy::BandRange::kLow &&
      info.duplex == phy::Duplex::kFdd)
    bonus += 6.0;
  return bonus;
}

std::optional<CarrierId> CaManager::best_pcell(const std::vector<double>& rsrp) const {
  // Pass 1: capacity layers (mid/high band) above the priority floor.
  std::optional<CarrierId> best;
  double best_score = -1e18;
  for (CarrierId id : eligible_) {
    const auto& info = phy::band_info(dep_->carrier(id).band);
    if (info.range == phy::BandRange::kLow) continue;
    if (rsrp[id] < policy_.capacity_layer_min_rsrp_dbm) continue;
    const double score = rsrp[id] + pcell_preference_bonus(id);
    if (score > best_score) {
      best_score = score;
      best = id;
    }
  }
  if (best) return best;
  // Pass 2: anyone above the coverage floor (low band typically wins).
  best_score = policy_.pcell_min_rsrp_dbm;
  for (CarrierId id : eligible_) {
    const double score = rsrp[id] + pcell_preference_bonus(id);
    if (score > best_score) {
      best_score = score;
      best = id;
    }
  }
  return best;
}

void CaManager::rebuild_scells(const std::vector<double>& rsrp, double now_s,
                               std::vector<RrcEvent>& events) {
  CA5G_CHECK(!active_.empty());
  const CarrierId pcell = active_.front();
  const int max_ccs = max_ccs_for(pcell);

  // --- SCell removal: RSRP below the release threshold for a full TTT.
  for (std::size_t i = 1; i < active_.size();) {
    const CarrierId id = active_[i];
    if (rsrp[id] < policy_.scell_remove_rsrp_dbm) {
      auto pending = std::find_if(pending_removes_.begin(), pending_removes_.end(),
                                  [&](const Pending& p) { return p.carrier == id; });
      if (pending == pending_removes_.end()) {
        pending_removes_.push_back({id, now_s});
        ++i;
      } else if (now_s - pending->since_s >= policy_.time_to_trigger_s) {
        pending_removes_.erase(pending);
        active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
        events.push_back({now_s, RrcEventType::kSCellRemove, id});
      } else {
        ++i;
      }
    } else {
      // Condition cleared: drop any pending removal.
      std::erase_if(pending_removes_, [&](const Pending& p) { return p.carrier == id; });
      ++i;
    }
  }

  // --- SCell addition: co-sited candidates above the add threshold.
  const std::size_t pcell_site = dep_->carrier(pcell).site;
  for (CarrierId id : eligible_) {
    if (std::find(active_.begin(), active_.end(), id) != active_.end()) continue;
    if (static_cast<int>(active_.size()) >= max_ccs) break;
    if (policy_.require_co_sited_scells && dep_->carrier(id).site != pcell_site) continue;
    // mmWave and FR1 are not mixed in one CA combination in our data.
    if (phy::is_mmwave(dep_->carrier(id).band) != phy::is_mmwave(dep_->carrier(pcell).band))
      continue;
    if (rsrp[id] >= policy_.scell_add_rsrp_dbm) {
      auto pending = std::find_if(pending_adds_.begin(), pending_adds_.end(),
                                  [&](const Pending& p) { return p.carrier == id; });
      if (pending == pending_adds_.end()) {
        pending_adds_.push_back({id, now_s});
      } else if (now_s - pending->since_s >= policy_.time_to_trigger_s) {
        pending_adds_.erase(pending);
        active_.push_back(id);
        events.push_back({now_s, RrcEventType::kSCellAdd, id});
      }
    } else {
      std::erase_if(pending_adds_, [&](const Pending& p) { return p.carrier == id; });
    }
  }
}

std::vector<RrcEvent> CaManager::update(const std::vector<double>& rsrp_dbm, double now_s) {
  CA5G_CHECK_EQ_MSG(rsrp_dbm.size(), dep_->carriers.size(),
                    "one RSRP measurement per deployment carrier");
  std::vector<RrcEvent> events;

  const auto candidate = best_pcell(rsrp_dbm);
  if (!candidate) {
    // Out of coverage: drop everything.
    if (!active_.empty()) {
      for (std::size_t i = 1; i < active_.size(); ++i)
        events.push_back({now_s, RrcEventType::kSCellRemove, active_[i]});
      events.push_back({now_s, RrcEventType::kRatChange, active_.front()});
      active_.clear();
    }
    pending_handover_.reset();
    pending_adds_.clear();
    pending_removes_.clear();
    return events;
  }

  if (active_.empty()) {
    // Initial attach.
    active_.push_back(*candidate);
    events.push_back({now_s, RrcEventType::kPCellChange, *candidate});
  } else {
    const CarrierId pcell = active_.front();
    const double current_score = rsrp_dbm[pcell] + pcell_preference_bonus(pcell);
    const double candidate_score = rsrp_dbm[*candidate] + pcell_preference_bonus(*candidate);
    const bool a3 = *candidate != pcell &&
                    candidate_score > current_score + policy_.handover_hysteresis_db;
    if (*candidate != pcell && candidate_score > current_score && !a3) {
      // A stronger cell exists but sits inside the hysteresis margin —
      // the ping-pong suppression the paper's Fig. 17 transition stats
      // hinge on. Counted so runs can report how often it bites.
      CA5G_METRIC_COUNTER(hysteresis_blocks, "ran.handover_hysteresis_block_total");
      hysteresis_blocks.inc();
    }
    if (a3) {
      if (!pending_handover_ || pending_handover_->carrier != *candidate) {
        pending_handover_ = Pending{*candidate, now_s};
      } else if (now_s - pending_handover_->since_s >= policy_.time_to_trigger_s) {
        // Handover: release all SCells, switch PCell.
        for (std::size_t i = 1; i < active_.size(); ++i)
          events.push_back({now_s, RrcEventType::kSCellRemove, active_[i]});
        active_.clear();
        active_.push_back(*candidate);
        events.push_back({now_s, RrcEventType::kPCellChange, *candidate});
        pending_handover_.reset();
        pending_adds_.clear();
        pending_removes_.clear();
      }
    } else {
      pending_handover_.reset();
    }
  }

  if (!active_.empty()) rebuild_scells(rsrp_dbm, now_s, events);
  // RRC invariant: the aggregated combination never exceeds what the UE's
  // modem signalled in its capability report (paper Table 5 / Fig. 29).
  if (!active_.empty())
    CA5G_DCHECK_LE_MSG(static_cast<int>(active_.size()), max_ccs_for(active_.front()),
                       "active CC count exceeds UE capability");

  CA5G_METRIC_COUNTER(scell_adds, "ran.scell_add_total");
  CA5G_METRIC_COUNTER(scell_removes, "ran.scell_remove_total");
  CA5G_METRIC_COUNTER(pcell_changes, "ran.pcell_change_total");
  CA5G_METRIC_COUNTER(rat_changes, "ran.rat_change_total");
  for (const auto& event : events) {
    switch (event.type) {
      case RrcEventType::kSCellAdd: scell_adds.inc(); break;
      case RrcEventType::kSCellRemove: scell_removes.inc(); break;
      case RrcEventType::kPCellChange: pcell_changes.inc(); break;
      case RrcEventType::kRatChange: rat_changes.inc(); break;
    }
  }
  return events;
}

}  // namespace ca5g::ran
