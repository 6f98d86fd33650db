// PredictionServer: the online counterpart of eval/pipeline. Clients
// stream per-10 ms sim::TraceSample updates keyed by UE id; the server
// maintains each UE's float feature window incrementally (serve/session),
// admits a prediction request per warm sample into a bounded MPMC queue
// (serve/bounded_queue), and a pool of worker threads drains the queue in
// micro-batches: a free worker takes whatever is queued, up to max_batch,
// and dispatches it at once, so batches grow only from backlog. A whole
// batch costs one batched
// Predictor::predict_many() call on the model pinned from the
// ModelRegistry, so deep models amortize their forward pass across UEs
// exactly as they do in training. For deep predictors that batched call
// runs the compiled graph-free inference plan (nn/infer): each worker
// thread reuses its own nn::infer::thread_arena() for scratch, so
// steady-state serving builds no autograd nodes and takes its scratch
// from a reused arena. It still allocates the delivered results: one
// heap vector per horizon plus the batch's outer vector. Progress is
// visible in the infer.* metrics next to the serve.* ones below.
//
// Overload behaviour is shed-not-queue: try_push admission control drops
// requests once the queue is full (counted in serve.shed_total) so
// latency stays bounded by queue_capacity / throughput instead of
// growing without bound.
//
// Exported metrics (all registered lazily on first use; names are the
// contract docs/SERVING.md and prism5g_lint check):
//   serve.requests_total         admitted requests
//   serve.warmup_rejected_total  samples before the UE window was full
//   serve.shed_total             admission-control drops (queue full)
//   serve.completed_total        predictions delivered
//   serve.batches_total          micro-batches dispatched
//   serve.model_swaps_total      ModelRegistry installs (hot-swaps)
//   serve.queue_depth_count      queue occupancy (gauge)
//   serve.sessions_count         live UE sessions (gauge)
//   serve.batch_size_count       dispatched batch sizes (histogram)
//   serve.batch_assemble_ns      window-snapshot phase per batch
//   serve.predict_ns             predict_many() per batch
//   serve.request_latency_ns     submit → completion per request
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/bounded_queue.hpp"
#include "serve/model_registry.hpp"
#include "serve/session.hpp"

namespace ca5g::serve {

/// Every metric name the serve subsystem registers; prism5g_lint
/// validates each against the layer.noun_unit naming convention.
inline constexpr std::array<std::string_view, 12> kServeMetricNames = {
    "serve.requests_total",      "serve.warmup_rejected_total",
    "serve.shed_total",          "serve.completed_total",
    "serve.batches_total",       "serve.model_swaps_total",
    "serve.queue_depth_count",   "serve.sessions_count",
    "serve.batch_size_count",    "serve.batch_assemble_ns",
    "serve.predict_ns",          "serve.request_latency_ns",
};

/// Outcome of submitting one sample.
enum class Admit : std::uint8_t {
  kQueued,     ///< request admitted; a Prediction will be delivered
  kWarmingUp,  ///< session window not yet full; sample ingested, no request
  kShed,       ///< queue full — request dropped by admission control
  kClosed,     ///< server is stopping
};

/// One delivered prediction.
struct Prediction {
  UeId ue = 0;
  std::uint64_t seq = 0;  ///< per-UE sample sequence number at submit
  bool ok = false;        ///< true on every delivered prediction
  std::uint64_t model_version = 0;
  std::int64_t latency_ns = 0;  ///< submit → completion wall time
  std::vector<double> horizon;  ///< H-step normalized throughput forecast
};

struct ServerConfig {
  std::size_t workers = 4;
  std::size_t max_batch = 32;
  std::size_t queue_capacity = 4096;
  std::size_t history = 10;   ///< window length (paper: T = 10 steps)
  std::size_t cc_slots = 4;
  double tput_scale_mbps = 1.0;  ///< the serving model's training scale
};

class PredictionServer {
 public:
  /// Completions are delivered from worker threads, possibly several
  /// concurrently — the callback must be thread-safe.
  using CompletionFn = std::function<void(const Prediction&)>;

  PredictionServer(const ServerConfig& config, ModelRegistry& registry,
                   CompletionFn on_complete);
  ~PredictionServer();

  PredictionServer(const PredictionServer&) = delete;
  PredictionServer& operator=(const PredictionServer&) = delete;

  /// Ingest one sample for `ue`; admits a prediction request once the
  /// UE's window is warm. Thread-safe.
  Admit submit(UeId ue, const sim::TraceSample& sample);

  /// Block until every admitted request has been dispatched & delivered.
  /// Returns false if that takes longer than 30 s, far above the time any
  /// full queue takes to clear, so a lost wake-up fails the caller
  /// instead of hanging it.
  bool drain() const;

  /// Close the queue, drain in-flight work, join the workers. Idempotent
  /// (also runs on destruction). After stop(), submit() returns kClosed.
  void stop();

  [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }

 private:
  struct Request {
    UeId ue = 0;
    std::uint64_t seq = 0;
    std::chrono::steady_clock::time_point submitted;
  };

  void worker_loop();

  ServerConfig config_;
  ModelRegistry& registry_;
  CompletionFn on_complete_;
  SessionTable sessions_;
  BoundedQueue<Request> queue_;
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<bool> stopped_{false};
  std::mutex stop_mu_;  ///< serializes concurrent stop() joins
  std::vector<std::thread> workers_;
};

}  // namespace ca5g::serve
