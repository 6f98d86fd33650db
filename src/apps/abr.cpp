#include "apps/abr.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace ca5g::apps {
namespace {

/// Forward-simulate one candidate plan and score its QoE (MPC's inner
/// objective): Σ bitrate − λ·rebuffer − μ·|level changes|.
double score_plan(const std::vector<std::size_t>& plan, const AbrConfig& config,
                  const std::vector<double>& forecast_mbps, double buffer_s,
                  double prev_bitrate) {
  double score = 0.0;
  double buffer = buffer_s;
  double last = prev_bitrate;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const double bitrate = config.bitrates_mbps[plan[i]];
    const double chunk_mbit = bitrate * config.chunk_duration_s;
    const double bw = std::max(
        forecast_mbps[std::min(i, forecast_mbps.size() - 1)], 1e-3);
    const double download_s = chunk_mbit / bw;
    double rebuffer = 0.0;
    if (download_s > buffer) {
      rebuffer = download_s - buffer;
      buffer = 0.0;
    } else {
      buffer -= download_s;
    }
    buffer = std::min(buffer + config.chunk_duration_s, config.buffer_capacity_s);
    score += bitrate - config.rebuffer_penalty * rebuffer -
             config.smoothness_penalty * std::abs(bitrate - last);
    last = bitrate;
  }
  return score;
}

/// Exhaustive MPC search over the lookahead (ladder^lookahead plans).
std::size_t mpc_decide(const AbrConfig& config, const std::vector<double>& forecast_mbps,
                       double buffer_s, double prev_bitrate) {
  const std::size_t levels = config.bitrates_mbps.size();
  const std::size_t depth = std::max<std::size_t>(1, config.lookahead_chunks);
  std::size_t combos = 1;
  for (std::size_t i = 0; i < depth; ++i) combos *= levels;

  double best_score = -1e18;
  std::size_t best_first = 0;
  std::vector<std::size_t> plan(depth, 0);
  for (std::size_t code = 0; code < combos; ++code) {
    std::size_t rem = code;
    for (std::size_t i = 0; i < depth; ++i) {
      plan[i] = rem % levels;
      rem /= levels;
    }
    const double s = score_plan(plan, config, forecast_mbps, buffer_s, prev_bitrate);
    if (s > best_score) {
      best_score = s;
      best_first = plan[0];
    }
  }
  return best_first;
}

}  // namespace

AbrResult run_mpc_abr(const sim::Trace& trace, const ThroughputEstimator& estimator,
                      const AbrConfig& config) {
  CA5G_CHECK_MSG(!trace.samples.empty(), "ABR on empty trace");
  CA5G_CHECK_MSG(!config.bitrates_mbps.empty(), "empty bitrate ladder");

  const double step = trace.step_s;
  const auto horizon_steps = static_cast<std::size_t>(std::llround(
      config.lookahead_chunks * config.chunk_duration_s / step));

  AbrResult result;
  double buffer_s = 0.0;
  double bitrate_sum = 0.0;
  double prev_bitrate = config.bitrates_mbps.front();
  bool playing = false;
  double now_s = 0.0;

  auto trace_index = [&](double t) {
    // Long sessions loop the trace, as the paper's emulation replays
    // collected traces over full video lengths.
    const auto idx = static_cast<std::size_t>(t / step);
    return idx % trace.samples.size();
  };

  for (std::size_t chunk = 0; chunk < config.total_chunks; ++chunk) {
    const std::size_t now_idx = trace_index(now_s);
    // MPC forecast: per-chunk bandwidth over the lookahead.
    const auto forecast_fine = estimator.predict_mbps(trace, now_idx, horizon_steps);
    std::vector<double> forecast_chunks;
    const auto per_chunk = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(config.chunk_duration_s / step)));
    for (std::size_t c = 0; c < config.lookahead_chunks; ++c) {
      double acc = 0.0;
      std::size_t n = 0;
      for (std::size_t i = c * per_chunk;
           i < (c + 1) * per_chunk && i < forecast_fine.size(); ++i) {
        acc += forecast_fine[i];
        ++n;
      }
      forecast_chunks.push_back(n > 0 ? acc / static_cast<double>(n)
                                      : forecast_fine.back());
    }

    const std::size_t level = mpc_decide(config, forecast_chunks, buffer_s, prev_bitrate);
    const double bitrate = config.bitrates_mbps[level];
    const double chunk_mbit = bitrate * config.chunk_duration_s;

    // Download against the actual channel.
    double delivered = 0.0;
    while (delivered < chunk_mbit) {
      const double rate =
          std::max(trace.samples[trace_index(now_s)].aggregate_tput_mbps, 1e-3);
      const double slice = std::min(step, (chunk_mbit - delivered) / rate);
      delivered += rate * slice;
      // Playback drains the buffer while downloading.
      if (playing) {
        if (buffer_s >= slice) {
          buffer_s -= slice;
        } else {
          result.stall_time_s += slice - buffer_s;
          buffer_s = 0.0;
        }
      }
      now_s += slice;
    }
    buffer_s = std::min(buffer_s + config.chunk_duration_s, config.buffer_capacity_s);
    if (!playing && buffer_s >= config.startup_buffer_s) playing = true;

    if (chunk > 0 && std::abs(bitrate - prev_bitrate) > 1e-9) ++result.quality_switches;
    bitrate_sum += bitrate;
    prev_bitrate = bitrate;
    ++result.chunks;
  }

  result.avg_bitrate_mbps = bitrate_sum / static_cast<double>(result.chunks);
  return result;
}

}  // namespace ca5g::apps
