// Tests for the serving subsystem: bounded queue semantics, streaming
// session windows (must match batch build_window feature-for-feature),
// the model registry's hot-swap, and the PredictionServer's edge cases —
// warm-up rejection, queue-full shedding with exactly-once delivery of
// every admitted request, the serve.* metric contract, hot-swap
// mid-stream, and work-conserving dispatch: a lone request leaves at once
// and no wake-up is lost under concurrent submit and dispatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/bounded_queue.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "test_helpers.hpp"
#include "traces/dataset.hpp"

namespace {

using namespace ca5g;
using namespace std::chrono_literals;

// --- Test predictors ---------------------------------------------------------

/// Predicts a constant horizon; lets tests fingerprint which model served.
class ConstPredictor final : public predictors::Predictor {
 public:
  explicit ConstPredictor(double value, std::size_t horizon = 10)
      : value_(value), horizon_(horizon) {}
  [[nodiscard]] std::string name() const override { return "Const"; }
  void fit(const traces::Dataset&, std::span<const traces::Window* const>,
           std::span<const traces::Window* const>) override {}
  [[nodiscard]] std::vector<double> predict(const traces::Window&) const override {
    return std::vector<double>(horizon_, value_);
  }

 private:
  double value_;
  std::size_t horizon_;
};

/// Echoes the newest normalized aggregate throughput of the window: lets
/// tests assert end-to-end that the served window tracked the stream.
class EchoPredictor final : public predictors::Predictor {
 public:
  [[nodiscard]] std::string name() const override { return "Echo"; }
  void fit(const traces::Dataset&, std::span<const traces::Window* const>,
           std::span<const traces::Window* const>) override {}
  [[nodiscard]] std::vector<double> predict(const traces::Window& w) const override {
    return {w.agg(w.history() - 1)};
  }
};

/// Sleeps per batch so tests can wedge the queue and force shedding.
class SlowPredictor final : public predictors::Predictor {
 public:
  explicit SlowPredictor(std::chrono::milliseconds delay) : delay_(delay) {}
  [[nodiscard]] std::string name() const override { return "Slow"; }
  void fit(const traces::Dataset&, std::span<const traces::Window* const>,
           std::span<const traces::Window* const>) override {}
  [[nodiscard]] std::vector<double> predict(const traces::Window&) const override {
    std::this_thread::sleep_for(delay_);
    return {0.0};
  }
  [[nodiscard]] std::vector<std::vector<double>> predict_many(
      std::span<const traces::Window* const> windows) const override {
    std::this_thread::sleep_for(delay_);
    return std::vector<std::vector<double>>(windows.size(), std::vector<double>{0.0});
  }

 private:
  std::chrono::milliseconds delay_;
};

/// Thread-safe completion sink.
struct Collector {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<serve::Prediction> preds;

  serve::PredictionServer::CompletionFn fn() {
    return [this](const serve::Prediction& p) {
      {
        std::lock_guard<std::mutex> lock(mu);
        preds.push_back(p);
      }
      cv.notify_all();
    };
  }

  /// Blocks until `n` completions arrived (or 5 s passed); returns count.
  std::size_t wait_for(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, 5s, [&] { return preds.size() >= n; });
    return preds.size();
  }

  std::vector<serve::Prediction> snapshot() {
    std::lock_guard<std::mutex> lock(mu);
    return preds;
  }
};

serve::ServerConfig small_config() {
  serve::ServerConfig config;
  config.workers = 2;
  config.max_batch = 8;
  config.queue_capacity = 64;
  config.history = 10;
  config.cc_slots = 4;
  config.tput_scale_mbps = 1000.0;
  return config;
}

// --- BoundedQueue ------------------------------------------------------------

TEST(BoundedQueue, FifoAndCapacity) {
  serve::BoundedQueue<int> q(3);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_TRUE(q.try_push(3));
  EXPECT_FALSE(q.try_push(4));  // full: admission control sheds
  EXPECT_EQ(q.size(), 3u);

  std::vector<int> out;
  EXPECT_EQ(q.pop_batch(out, 8), 3u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(BoundedQueue, CloseDrainsThenSignalsShutdown) {
  serve::BoundedQueue<int> q(8);
  EXPECT_TRUE(q.try_push(7));
  q.close();
  EXPECT_FALSE(q.try_push(8));  // closed
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch(out, 4), 1u);
  EXPECT_EQ(q.pop_batch(out, 4), 0u);  // drained
}

TEST(BoundedQueue, PushWakesASleepingConsumer) {
  // A consumer sleeps in pop_batch on an empty queue; the push that makes
  // the queue non-empty must wake it. Without that wake the consumer only
  // returns at close(), so the wait below fails in 5 s instead of hanging.
  serve::BoundedQueue<int> q(8);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> got;
  bool returned = false;
  std::thread consumer([&] {
    std::vector<int> out;
    q.pop_batch(out, 4);
    {
      std::lock_guard<std::mutex> lock(mu);
      got = std::move(out);
      returned = true;
    }
    cv.notify_all();
  });
  std::this_thread::sleep_for(20ms);  // let the consumer block
  EXPECT_TRUE(q.try_push(7));

  bool woke = false;
  {
    std::unique_lock<std::mutex> lock(mu);
    woke = cv.wait_for(lock, 5s, [&] { return returned; });
  }
  q.close();  // frees the consumer if the push did not wake it
  consumer.join();
  ASSERT_TRUE(woke) << "the consumer slept while an item was queued";
  EXPECT_EQ(got, std::vector<int>{7});
}

TEST(BoundedQueue, PopThatLeavesItemsWakesAnotherConsumer) {
  // Two consumers sleep on an empty queue. A burst of two items wakes one
  // of them through try_push (only the empty-to-non-empty push wakes);
  // that consumer takes one item and must pass the wake on, or the second
  // item waits while a consumer sleeps. The burst usually lands before
  // the woken consumer runs, so a few rounds make a lost wake-up show.
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE(round);
    serve::BoundedQueue<int> q(8);
    std::mutex mu;
    std::condition_variable cv;
    int returned = 0;
    std::vector<std::thread> consumers;
    for (int i = 0; i < 2; ++i)
      consumers.emplace_back([&] {
        std::vector<int> out;
        if (q.pop_batch(out, 1) != 1) return;  // released by close()
        {
          std::lock_guard<std::mutex> lock(mu);
          ++returned;
        }
        cv.notify_all();
      });
    std::this_thread::sleep_for(20ms);  // let both consumers block
    EXPECT_TRUE(q.try_push(1));
    EXPECT_TRUE(q.try_push(2));

    bool both = false;
    {
      std::unique_lock<std::mutex> lock(mu);
      both = cv.wait_for(lock, 5s, [&] { return returned == 2; });
    }
    q.close();  // frees a consumer a lost wake-up left asleep
    for (auto& t : consumers) t.join();
    ASSERT_TRUE(both) << "a consumer slept while an item was queued";
  }
}

// --- UeSession / SessionTable ------------------------------------------------

TEST(UeSession, StreamingWindowMatchesBatchBuildWindow) {
  const auto trace = test::synthetic_trace(40);
  const double scale = 900.0;
  traces::DatasetSpec spec;  // history 10, horizon 10

  // The ring's oldest row sits at slot pushes % 10: 0, 1, 9, 0 after a
  // second wrap, 5 and 3. Every snapshot goes into the same Window, whose
  // buffer must be reused rather than reallocated.
  traces::Window streamed;
  const float* buffer = nullptr;
  for (const std::size_t pushes : {10u, 11u, 19u, 20u, 25u, 33u}) {
    SCOPED_TRACE(pushes);
    serve::UeSession session(spec.history, trace.cc_slots, scale);
    for (std::size_t i = 0; i < pushes; ++i) session.push(trace.samples[i]);
    ASSERT_TRUE(session.warm());

    session.snapshot(streamed);
    if (buffer == nullptr) buffer = streamed.steps.data();
    EXPECT_EQ(streamed.steps.data(), buffer);
    // After n pushes the window covers samples [n - 10, n).
    const auto batch = traces::build_window(trace.samples, pushes - spec.history, spec,
                                            trace.cc_slots, scale,
                                            /*allow_short_target=*/true);
    EXPECT_EQ(streamed.cc_slots, batch.cc_slots);
    EXPECT_EQ(streamed.steps, batch.steps);
    EXPECT_TRUE(streamed.target.empty());
    EXPECT_TRUE(streamed.cc_target.empty());
  }
}

TEST(SessionTable, WarmupAndCounts) {
  const auto trace = test::synthetic_trace(30);
  serve::SessionTable table(4, 10, trace.cc_slots, 900.0);
  for (std::size_t i = 0; i < 9; ++i) {
    const auto r = table.push(77, trace.samples[i]);
    EXPECT_FALSE(r.warm);
  }
  EXPECT_TRUE(table.push(77, trace.samples[9]).warm);
  EXPECT_EQ(table.session_count(), 1u);

  traces::Window w;
  EXPECT_TRUE(table.snapshot(77, w));
  EXPECT_FALSE(table.snapshot(78, w));  // unknown UE
  EXPECT_FALSE(table.snapshot(79, w));  // cold UE
  (void)table.push(79, trace.samples[0]);
  EXPECT_FALSE(table.snapshot(79, w));
  EXPECT_EQ(table.session_count(), 2u);
}

TEST(SessionTable, PushRejectsMoreCcsThanSlots) {
  const auto trace = test::synthetic_trace(3);
  serve::SessionTable table(2, 10, trace.cc_slots, 900.0);
  EXPECT_EQ(table.push(5, trace.samples[0]).seq, 1u);
  auto extra = trace.samples[1];
  extra.ccs.push_back(extra.ccs.front());  // cc_slots + 1 CCs
  EXPECT_THROW((void)table.push(5, extra), common::CheckError);
  // The rejected sample was not ingested.
  EXPECT_EQ(table.push(5, trace.samples[2]).seq, 2u);
}

// --- ModelRegistry -----------------------------------------------------------

TEST(ModelRegistry, InstallReplacesAndBumpsVersion) {
  serve::ModelRegistry registry;
  EXPECT_EQ(registry.current().model, nullptr);
  EXPECT_THROW(registry.install("a", nullptr), common::CheckError);

  const auto a = std::make_shared<ConstPredictor>(0.1);
  const auto v1 = registry.install("a", a);
  EXPECT_EQ(registry.current().model, a);
  EXPECT_EQ(registry.current().version, v1);
  EXPECT_EQ(registry.current().name, "a");

  // Every install replaces the one slot, under any name, and a pinned
  // entry keeps the model it pinned.
  const auto pinned = registry.current();
  const auto b = std::make_shared<ConstPredictor>(0.2);
  const auto v2 = registry.install("b", b);
  EXPECT_GT(v2, v1);
  EXPECT_EQ(registry.current().model, b);
  EXPECT_EQ(registry.current().name, "b");
  EXPECT_EQ(pinned.model, a);

  const auto v3 = registry.install("b", std::make_shared<ConstPredictor>(0.3));
  EXPECT_GT(v3, v2);
  EXPECT_EQ(registry.current().version, v3);
}

// --- PredictionServer edge cases --------------------------------------------

TEST(PredictionServer, WarmupRejectionUntilWindowFull) {
  const auto trace = test::synthetic_trace(30);
  serve::ModelRegistry registry;
  registry.install("const", std::make_shared<ConstPredictor>(0.5));
  Collector sink;
  serve::PredictionServer server(small_config(), registry, sink.fn());

  for (std::size_t i = 0; i < 9; ++i)
    EXPECT_EQ(server.submit(1, trace.samples[i]), serve::Admit::kWarmingUp);
  EXPECT_EQ(server.submit(1, trace.samples[9]), serve::Admit::kQueued);
  ASSERT_TRUE(server.drain());
  ASSERT_EQ(sink.wait_for(1), 1u);
  const auto preds = sink.snapshot();
  EXPECT_TRUE(preds[0].ok);
  EXPECT_EQ(preds[0].seq, 10u);
  EXPECT_EQ(preds[0].horizon, std::vector<double>(10, 0.5));
}

TEST(PredictionServer, ServedWindowTracksTheStream) {
  const auto trace = test::synthetic_trace(60);
  const double scale = 1200.0;
  serve::ModelRegistry registry;
  registry.install("echo", std::make_shared<EchoPredictor>());
  auto config = small_config();
  config.tput_scale_mbps = scale;
  Collector sink;
  serve::PredictionServer server(config, registry, sink.fn());

  // Windows are snapshotted at dispatch, so drain between submits to pin
  // each batch's view of the stream: the completion for sample i must
  // echo sample i's normalized throughput, rounded to the window's float,
  // as the newest window entry.
  std::size_t admitted = 0;
  for (std::size_t i = 0; i < 40; ++i) {
    if (server.submit(5, trace.samples[i]) != serve::Admit::kQueued) continue;
    ++admitted;
    ASSERT_TRUE(server.drain());
    ASSERT_EQ(sink.wait_for(admitted), admitted);
    const auto p = sink.snapshot().back();
    ASSERT_TRUE(p.ok);
    EXPECT_EQ(p.seq, i + 1);
    ASSERT_EQ(p.horizon.size(), 1u);
    EXPECT_EQ(p.horizon[0], static_cast<float>(trace.samples[i].aggregate_tput_mbps / scale));
  }
  EXPECT_EQ(admitted, 31u);  // samples 10..40 of a warm session
}

TEST(PredictionServer, QueueFullSheds) {
  const auto trace = test::synthetic_trace(400);
  serve::ModelRegistry registry;
  registry.install("slow", std::make_shared<SlowPredictor>(20ms));
  auto config = small_config();
  config.workers = 1;
  config.max_batch = 1;
  config.queue_capacity = 2;
  Collector sink;
  serve::PredictionServer server(config, registry, sink.fn());

  // Sample i carries seq i + 1; the queued seqs are the requests the
  // server owes a prediction.
  std::size_t shed = 0;
  std::vector<std::uint64_t> queued;
  for (std::size_t i = 0; i < 200; ++i) {
    const auto admit = server.submit(9, trace.samples[i]);
    if (admit == serve::Admit::kShed) ++shed;
    if (admit == serve::Admit::kQueued) queued.push_back(i + 1);
  }
  EXPECT_GT(shed, 0u) << "a wedged 2-slot queue must shed a 200-request burst";
  EXPECT_EQ(queued.size() + shed + 9u, 200u);  // 9 warm-up samples
  ASSERT_TRUE(server.drain());  // the admitted remainder still completes

  // Every queued request is delivered exactly once; shed ones never are.
  auto preds = sink.snapshot();
  ASSERT_EQ(preds.size(), queued.size());
  std::sort(preds.begin(), preds.end(),
            [](const auto& a, const auto& b) { return a.seq < b.seq; });
  for (std::size_t i = 0; i < preds.size(); ++i) {
    EXPECT_TRUE(preds[i].ok);
    EXPECT_EQ(preds[i].seq, queued[i]);
  }
}

TEST(PredictionServer, RegistersEveryListedMetric) {
  // Read baselines from a snapshot: looking a counter up by name would
  // register it and hide a name the server never uses.
  const auto counter = [](std::string_view name) -> std::uint64_t {
    const auto snapshot = obs::MetricsRegistry::global().snapshot();
    const auto* value = snapshot.counter(name);
    return value == nullptr ? 0 : *value;
  };
  const auto requests0 = counter("serve.requests_total");
  const auto warmup0 = counter("serve.warmup_rejected_total");
  const auto shed0 = counter("serve.shed_total");
  const auto completed0 = counter("serve.completed_total");

  const auto trace = test::synthetic_trace(30);
  serve::ModelRegistry registry;
  registry.install("const", std::make_shared<ConstPredictor>(0.5));
  Collector sink;
  std::size_t queued = 0, warmup = 0, shed = 0;
  {
    serve::PredictionServer server(small_config(), registry, sink.fn());
    for (std::size_t i = 0; i < trace.samples.size(); ++i) {
      for (serve::UeId ue = 1; ue <= 2; ++ue) {
        switch (server.submit(ue, trace.samples[i])) {
          case serve::Admit::kQueued: ++queued; break;
          case serve::Admit::kWarmingUp: ++warmup; break;
          case serve::Admit::kShed: ++shed; break;
          case serve::Admit::kClosed: ADD_FAILURE() << "server closed mid-run"; break;
        }
      }
    }
    ASSERT_TRUE(server.drain());
  }
  ASSERT_EQ(sink.snapshot().size(), queued);
  EXPECT_EQ(warmup, 18u);

  const auto names = obs::MetricsRegistry::global().names();
  for (const auto name : serve::kServeMetricNames)
    EXPECT_TRUE(std::find(names.begin(), names.end(), name) != names.end())
        << name << " is listed in kServeMetricNames but never registered";

  EXPECT_EQ(counter("serve.requests_total") - requests0, queued);
  EXPECT_EQ(counter("serve.warmup_rejected_total") - warmup0, warmup);
  EXPECT_EQ(counter("serve.shed_total") - shed0, shed);
  EXPECT_EQ(counter("serve.completed_total") - completed0, queued);
}

TEST(PredictionServer, HotSwapMidStream) {
  const auto trace = test::synthetic_trace(200);
  serve::ModelRegistry registry;
  const auto v_old = registry.install("prod", std::make_shared<ConstPredictor>(0.25));
  Collector sink;
  serve::PredictionServer server(small_config(), registry, sink.fn());

  std::size_t admitted = 0;
  for (std::size_t i = 0; i < 50; ++i)
    if (server.submit(3, trace.samples[i]) == serve::Admit::kQueued) ++admitted;
  ASSERT_TRUE(server.drain());

  // Swap under the same name while the server keeps streaming.
  const auto v_new = registry.install("prod", std::make_shared<ConstPredictor>(0.75));
  ASSERT_GT(v_new, v_old);
  for (std::size_t i = 50; i < 100; ++i)
    if (server.submit(3, trace.samples[i]) == serve::Admit::kQueued) ++admitted;
  ASSERT_TRUE(server.drain());
  ASSERT_EQ(sink.wait_for(admitted), admitted);

  const auto preds = sink.snapshot();
  bool saw_old = false, saw_new = false;
  for (const auto& p : preds) {
    ASSERT_TRUE(p.ok);
    if (p.model_version == v_old) {
      saw_old = true;
      EXPECT_EQ(p.horizon[0], 0.25);
    } else {
      EXPECT_EQ(p.model_version, v_new);
      saw_new = true;
      EXPECT_EQ(p.horizon[0], 0.75);
    }
  }
  EXPECT_TRUE(saw_old);
  EXPECT_TRUE(saw_new);
  // Completions delivered after the swap must come from the new model.
  EXPECT_EQ(preds.back().model_version, v_new);
}

TEST(PredictionServer, LoneRequestsDispatchWithoutABatchTimer) {
  const auto trace = test::synthetic_trace(30);
  serve::ModelRegistry registry;
  registry.install("const", std::make_shared<ConstPredictor>(0.5));
  auto config = small_config();
  config.workers = 1;
  config.max_batch = 64;  // far more than the traffic we offer
  Collector sink;
  serve::PredictionServer server(config, registry, sink.fn());

  // Warm three UEs, then offer exactly one request each and go silent:
  // no batch fills, so the worker must dispatch what is queued at once.
  // The pause lets the worker block on the empty queue first, so the
  // pushes have to wake it.
  std::this_thread::sleep_for(20ms);
  for (std::size_t i = 0; i < 9; ++i)
    for (serve::UeId ue = 1; ue <= 3; ++ue) server.submit(ue, trace.samples[i]);
  for (serve::UeId ue = 1; ue <= 3; ++ue)
    EXPECT_EQ(server.submit(ue, trace.samples[9]), serve::Admit::kQueued);

  EXPECT_EQ(sink.wait_for(3), 3u);
  for (const auto& p : sink.snapshot()) EXPECT_TRUE(p.ok);
}

TEST(PredictionServer, EveryAdmittedRequestCompletesUnderConcurrentSubmit) {
  // Four submitters on disjoint UEs race three workers that take at most
  // 4 requests a batch, so pushes, backlog pops and chained wakes
  // interleave. Every admitted (ue, seq) must be delivered exactly once.
  // The queue holds every request, so nothing sheds and a request a lost
  // wake-up strands fails the bounded wait instead of hanging the test.
  const auto trace = test::synthetic_trace(250);
  serve::ModelRegistry registry;
  registry.install("const", std::make_shared<ConstPredictor>(0.5));
  auto config = small_config();
  config.workers = 3;
  config.max_batch = 4;
  config.queue_capacity = 4096;
  Collector sink;
  serve::PredictionServer server(config, registry, sink.fn());

  std::this_thread::sleep_for(20ms);  // let the workers block on the empty queue
  constexpr serve::UeId kSubmitters = 4, kUesEach = 4;
  std::vector<std::vector<std::pair<serve::UeId, std::uint64_t>>> admitted(kSubmitters);
  std::vector<std::thread> submitters;
  for (serve::UeId t = 0; t < kSubmitters; ++t)
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < trace.samples.size(); ++i)
        for (serve::UeId k = 0; k < kUesEach; ++k) {
          const serve::UeId ue = t * kUesEach + k;
          if (server.submit(ue, trace.samples[i]) == serve::Admit::kQueued)
            admitted[t].emplace_back(ue, i + 1);  // sample i carries seq i + 1
        }
    });
  for (auto& t : submitters) t.join();

  std::vector<std::pair<serve::UeId, std::uint64_t>> expected;
  for (const auto& a : admitted) expected.insert(expected.end(), a.begin(), a.end());
  // Each UE's first history - 1 samples only warm its window.
  ASSERT_EQ(expected.size(),
            kSubmitters * kUesEach * (trace.samples.size() - (config.history - 1)));
  EXPECT_EQ(sink.wait_for(expected.size()), expected.size())
      << "an admitted request was never dispatched";
  server.stop();  // no further delivery can arrive after the join

  std::vector<std::pair<serve::UeId, std::uint64_t>> delivered;
  for (const auto& p : sink.snapshot()) {
    EXPECT_TRUE(p.ok);
    delivered.emplace_back(p.ue, p.seq);
  }
  std::sort(expected.begin(), expected.end());
  std::sort(delivered.begin(), delivered.end());
  EXPECT_EQ(delivered, expected);
}

TEST(PredictionServer, SubmitAfterStopIsClosed) {
  const auto trace = test::synthetic_trace(15);
  serve::ModelRegistry registry;
  registry.install("const", std::make_shared<ConstPredictor>(0.5));
  Collector sink;
  serve::PredictionServer server(small_config(), registry, sink.fn());
  server.stop();
  EXPECT_EQ(server.submit(1, trace.samples[0]), serve::Admit::kClosed);
}

}  // namespace
