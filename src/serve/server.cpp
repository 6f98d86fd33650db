#include "serve/server.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"

namespace ca5g::serve {

namespace {
constexpr std::size_t kSessionShards = 16;  ///< SessionTable shards, one mutex each
}  // namespace

PredictionServer::PredictionServer(const ServerConfig& config, ModelRegistry& registry,
                                   CompletionFn on_complete)
    : config_(config),
      registry_(registry),
      on_complete_(std::move(on_complete)),
      sessions_(kSessionShards, config.history, config.cc_slots,
                config.tput_scale_mbps),
      queue_(config.queue_capacity) {
  CA5G_CHECK_MSG(config_.workers >= 1, "server needs at least one worker");
  CA5G_CHECK_MSG(config_.max_batch >= 1, "server max_batch must be positive");
  CA5G_CHECK_MSG(on_complete_ != nullptr, "server needs a completion callback");
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

PredictionServer::~PredictionServer() { stop(); }

Admit PredictionServer::submit(UeId ue, const sim::TraceSample& sample) {
  CA5G_METRIC_COUNTER(requests, "serve.requests_total");
  CA5G_METRIC_COUNTER(warmup_rejected, "serve.warmup_rejected_total");
  CA5G_METRIC_COUNTER(shed, "serve.shed_total");
  CA5G_METRIC_GAUGE(queue_depth, "serve.queue_depth_count");

  if (stopped_.load(std::memory_order_acquire)) return Admit::kClosed;

  const auto state = sessions_.push(ue, sample);
  if (!state.warm) {
    warmup_rejected.inc();
    return Admit::kWarmingUp;
  }

  Request req{ue, state.seq, std::chrono::steady_clock::now()};
  if (!queue_.try_push(req)) {
    shed.inc();
    return queue_.closed() ? Admit::kClosed : Admit::kShed;
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  requests.inc();
  queue_depth.set(static_cast<double>(queue_.size()));
  return Admit::kQueued;
}

void PredictionServer::worker_loop() {
  CA5G_METRIC_COUNTER(completed, "serve.completed_total");
  CA5G_METRIC_COUNTER(batches, "serve.batches_total");
  CA5G_METRIC_HISTOGRAM(batch_size, "serve.batch_size_count");
  CA5G_METRIC_HISTOGRAM(assemble_ns, "serve.batch_assemble_ns");
  CA5G_METRIC_HISTOGRAM(predict_ns, "serve.predict_ns");
  CA5G_METRIC_HISTOGRAM(latency_ns, "serve.request_latency_ns");

  // Dispatch scratch, reused across batches: each Window's flat history
  // buffer keeps its capacity, so steady-state dispatch does not
  // allocate for window assembly.
  std::vector<Request> batch;
  batch.reserve(config_.max_batch);
  std::vector<traces::Window> windows(config_.max_batch);
  std::vector<const traces::Window*> window_ptrs;
  window_ptrs.reserve(config_.max_batch);
  for (const auto& w : windows) window_ptrs.push_back(&w);

  for (;;) {
    batch.clear();
    if (queue_.pop_batch(batch, config_.max_batch) == 0) break;  // closed and drained

    batches.inc();
    batch_size.observe(static_cast<double>(batch.size()));

    {
      CA5G_SCOPED_TIMER(assemble_ns);
      // Admission required a warm session and sessions are never
      // dropped, so every request's window exists.
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const bool warm = sessions_.snapshot(batch[i].ue, windows[i]);
        CA5G_CHECK_MSG(warm, "admitted UE " << batch[i].ue << " has no warm session");
      }
    }

    const auto entry = registry_.current();
    CA5G_CHECK_MSG(entry.model != nullptr,
                   "prediction dispatch with no model installed in the registry");

    std::vector<std::vector<double>> horizons;
    {
      CA5G_SCOPED_TIMER(predict_ns);
      horizons = entry.model->predict_many(
          std::span<const traces::Window* const>(window_ptrs.data(), batch.size()));
    }

    const auto now = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Prediction p;
      p.ue = batch[i].ue;
      p.seq = batch[i].seq;
      p.ok = true;
      p.model_version = entry.version;
      p.latency_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - batch[i].submitted)
              .count();
      p.horizon = std::move(horizons[i]);
      completed.inc();
      latency_ns.observe(static_cast<double>(p.latency_ns));
      on_complete_(p);
      completed_.fetch_add(1, std::memory_order_release);
    }
  }
}

bool PredictionServer::drain() const {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (completed_.load(std::memory_order_acquire) <
         admitted_.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

void PredictionServer::stop() {
  stopped_.store(true, std::memory_order_release);
  queue_.close();
  std::lock_guard<std::mutex> lock(stop_mu_);
  for (auto& w : workers_)
    if (w.joinable()) w.join();
}

}  // namespace ca5g::serve
