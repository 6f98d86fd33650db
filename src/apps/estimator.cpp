#include "apps/estimator.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"

namespace ca5g::apps {
namespace {

/// Mean of samples [now-window, now); falls back to the first samples
/// when the trace has not warmed up yet.
double recent_mean(const sim::Trace& trace, std::size_t now, std::size_t window) {
  CA5G_CHECK_MSG(!trace.samples.empty(), "empty trace");
  const std::size_t end = std::min(now, trace.samples.size());
  const std::size_t begin = end > window ? end - window : 0;
  if (end == begin) return trace.samples.front().aggregate_tput_mbps;
  double acc = 0.0;
  for (std::size_t i = begin; i < end; ++i) acc += trace.samples[i].aggregate_tput_mbps;
  return acc / static_cast<double>(end - begin);
}

}  // namespace

double ThroughputEstimator::estimate_mbps(const sim::Trace& trace, std::size_t now,
                                          std::size_t horizon) const {
  const auto series = predict_mbps(trace, now, horizon);
  CA5G_CHECK_MSG(!series.empty(), "estimator returned empty series");
  double acc = 0.0;
  for (double v : series) acc += v;
  return acc / static_cast<double>(series.size());
}

std::vector<double> HistoryMeanEstimator::predict_mbps(const sim::Trace& trace,
                                                       std::size_t now,
                                                       std::size_t horizon) const {
  return std::vector<double>(std::max<std::size_t>(horizon, 1),
                             recent_mean(trace, now, window_));
}

std::vector<double> HarmonicMeanEstimator::predict_mbps(const sim::Trace& trace,
                                                        std::size_t now,
                                                        std::size_t horizon) const {
  const std::size_t end = std::min(now, trace.samples.size());
  const std::size_t begin = end > window_ ? end - window_ : 0;
  if (end == begin)
    return std::vector<double>(std::max<std::size_t>(horizon, 1),
                               trace.samples.front().aggregate_tput_mbps);
  double denom = 0.0;
  for (std::size_t i = begin; i < end; ++i)
    denom += 1.0 / std::max(trace.samples[i].aggregate_tput_mbps, 1e-3);
  const double hm = static_cast<double>(end - begin) / denom;
  return std::vector<double>(std::max<std::size_t>(horizon, 1), hm);
}

std::vector<double> IdealEstimator::predict_mbps(const sim::Trace& trace, std::size_t now,
                                                 std::size_t horizon) const {
  std::vector<double> out;
  out.reserve(std::max<std::size_t>(horizon, 1));
  for (std::size_t h = 0; h < std::max<std::size_t>(horizon, 1); ++h) {
    const std::size_t idx = std::min(now + h, trace.samples.size() - 1);
    out.push_back(trace.samples[idx].aggregate_tput_mbps);
  }
  return out;
}

ModelEstimator::ModelEstimator(std::shared_ptr<const predictors::Predictor> model,
                               traces::DatasetSpec spec, std::size_t cc_slots,
                               double tput_scale_mbps)
    : model_(std::move(model)), spec_(spec), cc_slots_(cc_slots),
      tput_scale_mbps_(tput_scale_mbps) {
  CA5G_CHECK_MSG(model_ != nullptr, "ModelEstimator without a model");
  CA5G_CHECK_MSG(tput_scale_mbps_ > 0.0, "bad throughput scale");
}

std::vector<double> ModelEstimator::predict_mbps(const sim::Trace& trace, std::size_t now,
                                                 std::size_t horizon) const {
  const std::size_t want = std::max<std::size_t>(horizon, 1);
  if (now < spec_.history) {
    // Cold start: no full history window yet — fall back to recent mean.
    return std::vector<double>(want, recent_mean(trace, now, spec_.history));
  }
  const auto window = traces::build_window(trace.samples, now - spec_.history, spec_,
                                           cc_slots_, tput_scale_mbps_,
                                           /*allow_short_target=*/true);
  CA5G_METRIC_HISTOGRAM(inference_ns, "predictor.inference_ns");
  CA5G_METRIC_COUNTER(samples, "predictor.samples_total");
  samples.inc();
  const auto normalized = [&] {
    CA5G_SCOPED_TIMER(inference_ns);
    return model_->predict(window);
  }();
  std::vector<double> out;
  out.reserve(want);
  for (std::size_t h = 0; h < want; ++h) {
    const double norm =
        normalized.empty() ? 0.0 : normalized[std::min(h, normalized.size() - 1)];
    out.push_back(std::max(0.0, norm * tput_scale_mbps_));
  }
  return out;
}

}  // namespace ca5g::apps
