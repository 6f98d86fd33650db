#include "apps/vivo.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace ca5g::apps {

double VivoResult::quality_drop_pct(const VivoResult& ideal) const {
  if (ideal.avg_quality <= 0.0) return 0.0;
  return 100.0 * (ideal.avg_quality - avg_quality) / ideal.avg_quality;
}

double VivoResult::stall_increase_pct(const VivoResult& ideal) const {
  // Stall ratios are measured against each run's session time, so the
  // comparison stays meaningful when the ideal run never stalls.
  if (session_time_s <= 0.0 || ideal.session_time_s <= 0.0) return 0.0;
  const double ratio = stall_time_s / session_time_s;
  const double ideal_ratio = ideal.stall_time_s / ideal.session_time_s;
  return 100.0 * (ratio - ideal_ratio);
}

VivoResult run_vivo(const sim::Trace& trace, const ThroughputEstimator& estimator,
                    const VivoConfig& config) {
  CA5G_CHECK_MSG(!trace.samples.empty(), "ViVo on empty trace");
  CA5G_CHECK_MSG(config.quality_levels >= 1, "need at least one quality level");

  const auto steps_per_frame = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(config.frame_interval_s / trace.step_s)));

  // Linear quality ladder: level L (1-based) streams at L/levels of max.
  auto level_bitrate = [&](std::size_t level) {
    return config.max_bitrate_mbps * static_cast<double>(level) /
           static_cast<double>(config.quality_levels);
  };

  VivoResult result;
  double quality_sum = 0.0;
  double bitrate_sum = 0.0;

  for (std::size_t start = 0; start + steps_per_frame < trace.samples.size();
       start += steps_per_frame) {
    // 1. Estimate bandwidth for the upcoming delivery window.
    const double est_mbps =
        estimator.estimate_mbps(trace, start, config.predict_horizon);

    // 2. Pick the highest level that fits within the deadline at the
    //    estimated bandwidth (ViVo's density adaptation).
    std::size_t level = 1;
    for (std::size_t l = config.quality_levels; l >= 1; --l) {
      const double frame_mbit = level_bitrate(l) * config.frame_interval_s;
      if (frame_mbit <= config.safety * est_mbps * config.deadline_s) {
        level = l;
        break;
      }
      if (l == 1) level = 1;
    }

    // 3. Deliver the frame over the *actual* channel; clock the overrun.
    const double frame_mbit = level_bitrate(level) * config.frame_interval_s;
    double delivered = 0.0;
    double elapsed = 0.0;
    std::size_t idx = start;
    while (delivered < frame_mbit && idx < trace.samples.size()) {
      const double rate = std::max(trace.samples[idx].aggregate_tput_mbps, 1e-3);
      const double need_s = (frame_mbit - delivered) / rate;
      if (need_s <= trace.step_s) {
        elapsed += need_s;
        delivered = frame_mbit;
      } else {
        delivered += rate * trace.step_s;
        elapsed += trace.step_s;
        ++idx;
      }
    }
    if (delivered < frame_mbit) break;  // trace exhausted mid-frame

    ++result.frames;
    quality_sum += static_cast<double>(level);
    bitrate_sum += level_bitrate(level);
    if (elapsed > config.deadline_s) {
      result.stall_time_s += elapsed - config.deadline_s;
      ++result.stalled_frames;
    }
  }

  CA5G_CHECK_MSG(result.frames > 0, "trace too short for a single ViVo frame");
  result.session_time_s =
      static_cast<double>(result.frames) * config.frame_interval_s;
  result.avg_quality = quality_sum / static_cast<double>(result.frames);
  result.avg_quality_mbps = bitrate_sum / static_cast<double>(result.frames);
  return result;
}

}  // namespace ca5g::apps
