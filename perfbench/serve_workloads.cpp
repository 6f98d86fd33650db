// serve_prism5g and serve_fleet: open-loop replay of simulated traces into
// serve::PredictionServer from one driver thread, with nproc - 1 server
// workers.
//
// Each UE replays one trace from a seeded offset, on its own period
// ues / rate with a seeded phase (make_schedule), so the offered rate is
// fixed by the schedule and never by how fast the server answers. Every
// request is timed from its due time, not from submit(), so a stall also
// charges the requests queued behind it; percentiles are exact over the
// raw per-request samples, and a refused or failed request counts as
// missing the latency limit.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/prism5g.hpp"
#include "eval/pipeline.hpp"
#include "predictors/naive.hpp"
#include "serve/server.hpp"
#include "traces/dataset.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace serve = ca5g::serve;
namespace predictors = ca5g::predictors;
namespace traces = ca5g::traces;
using serve::Admit;

constexpr std::size_t kHistory = 10;
constexpr std::size_t kHorizon = 10;
constexpr std::size_t kCcSlots = 4;
/// Per-UE ring of request slots; a UE never has this many requests in
/// flight at the rates the ladders reach (checked: a mismatch is "lost").
constexpr std::size_t kSlotRing = 64;
constexpr double kInf = std::numeric_limits<double>::infinity();

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

// --- timing wrapper: links each request to the batch that served it -------

struct BatchRecord {
  std::uint64_t id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t size = 0;
};

/// The batch most recently run on this worker thread. The server calls
/// the completion callback on the same thread right after predict_many,
/// so the callback reads the batch its request was served in.
thread_local BatchRecord tl_last_batch{};

/// Installed in the ModelRegistry for traced runs only: times every
/// predict_many call of the wrapped model.
class TimingPredictor final : public predictors::Predictor {
 public:
  explicit TimingPredictor(std::shared_ptr<const predictors::Predictor> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void fit(const traces::Dataset&, std::span<const traces::Window* const>,
           std::span<const traces::Window* const>) override {
    throw std::logic_error("TimingPredictor wraps an already fitted model");
  }
  [[nodiscard]] std::vector<double> predict(const traces::Window& w) const override {
    return inner_->predict(w);
  }
  [[nodiscard]] std::vector<std::vector<double>> predict_many(
      std::span<const traces::Window* const> windows) const override {
    const std::int64_t t0 = now_ns();
    auto out = inner_->predict_many(windows);
    const BatchRecord rec{next_id_.fetch_add(1, std::memory_order_relaxed) + 1, t0, now_ns(),
                          windows.size()};
    tl_last_batch = rec;
    std::lock_guard<std::mutex> lock(mu_);
    batches_.push_back(rec);
    return out;
  }

  [[nodiscard]] std::vector<BatchRecord> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(batches_, {});
  }

 private:
  std::shared_ptr<const predictors::Predictor> inner_;
  mutable std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  mutable std::vector<BatchRecord> batches_;  ///< guarded by mu_
};

// --- per-request records shared with the completion callback --------------

struct Record {
  std::uint64_t seq = 0;
  std::uint32_t ue = 0;
  Admit admit = Admit::kClosed;
  bool sent = false;
  bool ok = false;
  std::int32_t sample = -1;  ///< slot in RunState::sampled, or -1
  std::int64_t due_ns = 0;
  std::int64_t send_ns = 0;
  std::int64_t ret_ns = 0;   ///< submit() returned
  std::int64_t done_ns = 0;  ///< completion callback ran
  std::uint64_t batch = 0;   ///< traced runs: id of the serving batch
};

struct RunState {
  explicit RunState(std::size_t ues) : slot(ues * kSlotRing) {}

  std::vector<Record> rec;                      ///< one per scheduled send
  std::vector<std::atomic<std::uint32_t>> slot;  ///< (ue, seq % ring) → rec index
  std::vector<std::vector<double>> sampled;      ///< served horizons under check
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> lost{0};
  std::uint64_t version = 0;  ///< model version every prediction must echo
  bool tracing = false;
};

void on_complete(RunState& st, const serve::Prediction& p) {
  const std::int64_t done = now_ns();
  const std::uint32_t idx =
      st.slot[p.ue * kSlotRing + p.seq % kSlotRing].load(std::memory_order_relaxed);
  if (idx < st.rec.size() && st.rec[idx].ue == p.ue && st.rec[idx].seq == p.seq) {
    Record& r = st.rec[idx];
    r.ok = p.ok && p.horizon.size() == kHorizon && p.model_version == st.version;
    if (st.tracing) r.batch = tl_last_batch.id;
    if (r.sample >= 0 && p.ok) st.sampled[static_cast<std::size_t>(r.sample)] = p.horizon;
    r.done_ns = done;
  } else {
    st.lost.fetch_add(1, std::memory_order_relaxed);
  }
  st.completed.fetch_add(1, std::memory_order_release);
}

// --- set-up: simulate, featurize, fit, start the server, warm sessions ----

struct Setup {
  std::vector<ca5g::sim::Trace> traces;
  std::vector<std::uint32_t> trace_of;   ///< per UE
  std::vector<std::uint32_t> offset_of;  ///< per UE
  std::vector<std::uint64_t> sent;       ///< per UE samples submitted so far
  std::shared_ptr<const predictors::Predictor> model;
  double tput_scale = 1.0;
  double sim_steps = 0.0;
  double sim_s = 0.0;
  double featurize_s = 0.0;
  double windows = 0.0;
  double fit_s = 0.0;
  double pipeline_s = 0.0;
  double total_s = 0.0;
  serve::ModelRegistry registry;
  std::unique_ptr<serve::PredictionServer> server;  ///< after registry: stops first

  /// The k-th sample UE `ue` replays (k counts from 0, warm-up included).
  [[nodiscard]] const ca5g::sim::TraceSample& sample(std::size_t ue, std::uint64_t k) const {
    const auto& s = traces[trace_of[ue]].samples;
    return s[(offset_of[ue] + k) % s.size()];
  }
};

std::unique_ptr<Setup> set_up(const Args& a, ServeKind kind, const HostInfo& host,
                              RunState& st, std::size_t ues, std::size_t workers) {
  namespace eval = ca5g::eval;
  auto s = std::make_unique<Setup>();
  const std::int64_t t0 = now_ns();

  eval::GenerationConfig gen;
  gen.traces = a.count("traces_per_op");
  gen.short_trace_duration_s = gen.long_trace_duration_s = a.num("trace_s");
  gen.seed = a.seed;
  gen.threads = host.nproc;
  const auto scale =
      kind == ServeKind::kPrism5g ? eval::TimeScale::kShort : eval::TimeScale::kLong;
  // generate_traces simulates 10 ms scenarios at 10 ms steps and 1 s ones
  // at 100 ms steps before resampling.
  const double sim_step_s = kind == ServeKind::kPrism5g ? 0.01 : 0.1;
  for (const auto op : {ca5g::ran::OperatorId::kOpX, ca5g::ran::OperatorId::kOpY,
                        ca5g::ran::OperatorId::kOpZ}) {
    auto batch = eval::generate_traces({op, ca5g::sim::Mobility::kDriving}, scale, gen);
    for (auto& t : batch) s->traces.push_back(std::move(t));
  }
  s->sim_steps = static_cast<double>(s->traces.size()) * std::round(a.num("trace_s") / sim_step_s);
  const std::int64_t t1 = now_ns();

  traces::DatasetSpec spec;
  spec.history = kHistory;
  spec.horizon = kHorizon;
  spec.stride = a.count("fit_stride");
  const auto ds = traces::Dataset::from_traces(s->traces, spec, host.nproc);
  s->windows = static_cast<double>(ds.windows().size());
  s->tput_scale = ds.tput_scale_mbps();
  const std::int64_t t2 = now_ns();

  if (kind == ServeKind::kPrism5g) {
    predictors::TrainConfig tc;
    tc.epochs = a.count("fit_epochs");
    tc.patience = tc.epochs;
    tc.seed = a.seed;
    auto m = std::make_shared<ca5g::core::Prism5G>(tc);
    ca5g::common::Rng rng(a.seed);
    const auto split = ds.random_split(0.6, 0.2, rng);
    m->fit(ds, split.train, split.val);
    s->model = std::move(m);
  } else {
    auto m = std::make_shared<predictors::HarmonicMeanPredictor>();
    m->fit(ds, {}, {});
    s->model = std::move(m);
  }
  const std::int64_t t3 = now_ns();

  st.version = s->registry.install("model", s->model);
  serve::ServerConfig cfg;
  cfg.workers = workers;
  cfg.max_batch = a.count("max_batch");
  cfg.queue_capacity = a.count("queue_capacity");
  cfg.history = kHistory;
  cfg.cc_slots = kCcSlots;
  cfg.tput_scale_mbps = s->tput_scale;
  s->server = std::make_unique<serve::PredictionServer>(
      cfg, s->registry, [&st](const serve::Prediction& p) { on_complete(st, p); });

  // Samples before a UE's window is warm are set-up, not timed work.
  s->trace_of.resize(ues);
  s->offset_of.resize(ues);
  s->sent.assign(ues, 0);
  for (std::size_t u = 0; u < ues; ++u) {
    s->trace_of[u] = static_cast<std::uint32_t>(u % s->traces.size());
    const auto len = s->traces[s->trace_of[u]].samples.size();
    s->offset_of[u] =
        static_cast<std::uint32_t>(unit_uniform(a.seed, u, 0x0FF5E7) * static_cast<double>(len));
    for (std::size_t k = 0; k + 1 < kHistory; ++k)
      if (s->server->submit(u, s->sample(u, s->sent[u]++)) != Admit::kWarmingUp)
        throw std::runtime_error("warm-up sample was not absorbed by the session");
  }
  const std::int64_t t4 = now_ns();

  s->sim_s = seconds_between(t0, t1);
  s->featurize_s = seconds_between(t1, t2);
  s->fit_s = seconds_between(t2, t3);
  s->pipeline_s = seconds_between(t0, t3);
  s->total_s = seconds_between(t0, t4);
  return s;
}

// --- one open-loop phase ---------------------------------------------------

struct Phase {
  RungResult rung;
  double p50_ms = 0.0;
  double whole_p99_ms = 0.0;  ///< over the whole phase, not windowed
  double p999_ms = 0.0;
  double max_ms = 0.0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  ///< last completion
  std::uint64_t ok = 0, shed = 0, closed = 0, errors = 0, unsent = 0, lost = 0;
  std::vector<double> lag_ms;
  std::vector<double> submit_us;
  std::size_t check_mismatches = 0;
  std::size_t superseded = 0;  ///< sampled, but the window moved on first
  double steal = 0.0;          ///< machine CPU steal share during the phase
  std::size_t checked = 0;
};

/// One open-loop phase at `rate`. A ladder probe is `abortable`: it stops
/// sending once the sender runs abort_lag_ms behind the schedule, since the
/// rung has failed by then.
Phase run_phase(Setup& s, RunState& st, const Args& a, std::size_t ues, double rate,
                double duration_s, std::uint64_t phase_seed, std::size_t n_check,
                const Slo& slo, bool abortable = false) {
  const auto sched = make_schedule(ues, rate, duration_s, phase_seed);
  st.rec.assign(sched.size(), Record{});
  st.sampled.assign(n_check, {});
  st.completed.store(0);
  st.lost.store(0);
  const double keep = std::min(1.0, static_cast<double>(n_check) /
                                        static_cast<double>(std::max<std::size_t>(1, sched.size())));
  std::int32_t next_sample = 0;
  for (std::size_t i = 0; i < sched.size() && static_cast<std::size_t>(next_sample) < n_check; ++i)
    if (unit_uniform(phase_seed, i, 0xC4EC) < keep) st.rec[i].sample = next_sample++;

  const auto abort_ns = static_cast<std::int64_t>(a.num("abort_lag_ms") * 1e6);
  Phase ph;
  const CpuTicks ticks0 = cpu_ticks();
  ph.lag_ms.reserve(sched.size());
  ph.submit_us.reserve(sched.size());
  const std::int64_t base = now_ns() + 1'000'000;
  ph.start_ns = base;
  std::uint64_t queued = 0;
  bool aborted = false;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const std::int64_t due = base + sched[i].due_ns;
    std::int64_t t = now_ns();
    // Spin rather than sleep: the sending thread owns one of the nproc cores, and
    // a sleeping sender wakes late whenever the workers are busy.
    while (t < due) {
      std::this_thread::yield();
      t = now_ns();
    }
    if (abortable && t - due > abort_ns) {  // the sender can no longer keep the schedule
      aborted = true;
      break;
    }
    Record& r = st.rec[i];
    const std::uint32_t u = sched[i].ue;
    const std::uint64_t k = s.sent[u]++;
    r.ue = u;
    r.seq = k + 1;  // the session's steps_seen after this push
    r.due_ns = due;
    r.send_ns = t;
    st.slot[u * kSlotRing + r.seq % kSlotRing].store(static_cast<std::uint32_t>(i),
                                                     std::memory_order_relaxed);
    r.admit = s.server->submit(u, s.sample(u, k));
    r.ret_ns = now_ns();
    r.sent = true;
    if (r.admit == Admit::kQueued) ++queued;
    ph.lag_ms.push_back(static_cast<double>(t - due) * 1e-6);
    ph.submit_us.push_back(static_cast<double>(r.ret_ns - t) * 1e-3);
  }
  const std::uint64_t backlog = queued - st.completed.load(std::memory_order_acquire);
  s.server->drain();
  ph.steal = steal_share(ticks0, cpu_ticks());

  std::vector<double> lat;
  std::vector<std::int64_t> due_off;
  lat.reserve(sched.size());
  due_off.reserve(sched.size());
  std::int64_t last_done = base;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const Record& r = st.rec[i];
    double v = kInf;
    if (!r.sent) {
      ++ph.unsent;
    } else if (r.admit == Admit::kShed) {
      ++ph.shed;
    } else if (r.admit != Admit::kQueued) {
      ++ph.closed;  // kClosed, or kWarmingUp on a session that should be warm
    } else if (r.done_ns == 0) {
      ++ph.lost;
    } else if (!r.ok) {
      ++ph.errors;
    } else {
      ++ph.ok;
      v = static_cast<double>(r.done_ns - r.due_ns) * 1e-6;
      last_done = std::max(last_done, r.done_ns);
    }
    lat.push_back(v);
    due_off.push_back(sched[i].due_ns);
  }
  ph.lost += st.lost.load();
  ph.end_ns = last_done;

  ph.rung.rate_per_s = rate;
  ph.rung.attempted = sched.size();
  ph.rung.failed = ph.shed + ph.closed + ph.errors + ph.unsent + ph.lost;
  // Latency quantiles are medians over windows of the schedule: the shared
  // host stalls now and then, and one stall must not decide a run.
  const auto window_ns = static_cast<std::int64_t>(a.num("window_s") * 1e9);
  const auto wq = windowed_quantiles(due_off, lat, window_ns);
  ph.p50_ms = wq.p50;
  ph.rung.p99_ms = wq.p99;
  const double wall = seconds_between(base, last_done);
  ph.rung.achieved_per_s =
      static_cast<double>(ph.ok) / (aborted ? wall : std::max(duration_s, wall));
  ph.whole_p99_ms = exact_quantile(lat, 0.99);
  ph.p999_ms = exact_quantile(lat, 0.999);
  ph.max_ms = lat.empty() ? 0.0 : lat.back();
  const double allowed_backlog =
      std::max(rate * slo.p99_limit_ms * 1e-3,
               static_cast<double>(s.server->config().workers * s.server->config().max_batch));
  ph.rung.backlog_growing = aborted || static_cast<double>(backlog) > allowed_backlog;

  // Served horizons must equal predict_many on build_window over the very
  // samples this UE replayed. The server snapshots a UE's window when it
  // dispatches the batch, not at submit(), so a request whose UE sent its
  // next sample before the request completed may have been served from
  // the newer window; those are skipped, not checked.
  std::vector<std::size_t> next_of(sched.size(), sched.size());
  {
    std::vector<std::size_t> last(ues, sched.size());
    for (std::size_t i = 0; i < sched.size(); ++i) {
      if (last[sched[i].ue] < sched.size()) next_of[last[sched[i].ue]] = i;
      last[sched[i].ue] = i;
    }
  }
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const Record& r = st.rec[i];
    if (r.sample < 0 || !r.ok) continue;
    if (next_of[i] < sched.size() && st.rec[next_of[i]].sent &&
        st.rec[next_of[i]].send_ns <= r.done_ns) {
      ++ph.superseded;
      continue;
    }
    std::vector<ca5g::sim::TraceSample> hist;
    for (std::uint64_t q = r.seq - kHistory; q < r.seq; ++q) hist.push_back(s.sample(r.ue, q));
    traces::DatasetSpec spec;
    spec.history = kHistory;
    spec.horizon = kHorizon;
    const traces::Window w =
        traces::build_window(hist, 0, spec, kCcSlots, s.tput_scale, /*allow_short_target=*/true);
    const traces::Window* wp = &w;
    const auto ref = s.model->predict_many(std::span<const traces::Window* const>(&wp, 1));
    ++ph.checked;
    if (ref.size() != 1 || ref[0] != st.sampled[static_cast<std::size_t>(r.sample)])
      ++ph.check_mismatches;
  }
  return ph;
}

void settle() { std::this_thread::sleep_for(std::chrono::milliseconds(50)); }

/// Counts a phase into the run totals. Shed and unsent requests are the
/// server refusing load it cannot carry (admission control), not failed
/// operations; they count against the SLO and in failed_share.
void account(Result& res, const Phase& ph, std::uint64_t& refused) {
  res.attempted += ph.rung.attempted;
  res.failed += ph.closed + ph.errors + ph.lost;
  refused += ph.shed + ph.unsent;
  if (ph.check_mismatches > 0)
    res.fail_check(std::to_string(ph.check_mismatches) + " of " + std::to_string(ph.checked) +
                   " sampled predictions differ from predict_many(build_window(...))");
  if (ph.errors > 0)
    res.fail_check(std::to_string(ph.errors) +
                   " predictions with a wrong horizon length, model version or no result");
}

/// Request spans of a traced phase: one root per request, tiled by its
/// lag, submit, queue, predict and dispatch children.
SpanLog request_spans(const RunState& st, const std::vector<BatchRecord>& batches) {
  std::unordered_map<std::uint64_t, const BatchRecord*> by_id;
  for (const auto& b : batches) by_id[b.id] = &b;
  SpanLog log;
  log.reserve(st.rec.size() * 6);
  for (std::size_t i = 0; i < st.rec.size(); ++i) {
    const Record& r = st.rec[i];
    if (!r.ok) continue;
    const auto it = by_id.find(r.batch);
    if (it == by_id.end()) continue;
    const BatchRecord& b = *it->second;
    const std::uint64_t root = log.add("request", 0, i, r.due_ns, r.done_ns);
    log.add("gen.lag", root, i, r.due_ns, r.send_ns);
    log.add("serve.submit", root, i, r.send_ns, r.ret_ns);
    log.add("serve.queue", root, i, r.ret_ns, b.start_ns);
    log.add("infer.predict_many", root, i, b.start_ns, b.end_ns);
    log.add("serve.dispatch", root, i, b.end_ns, r.done_ns);
  }
  return log;
}

/// Ingest and snapshot cost of serve::SessionTable on its own, over the
/// workload's replayed samples, plus its heap bytes per UE.
void session_microbench(const Setup& s, std::size_t ues, const HostInfo& host, Result& res) {
  const std::size_t n = std::min<std::size_t>(ues, 8192);
  const std::size_t heap0 = heap_bytes_in_use();
  std::int64_t push_ns = 0, snap_ns = 0;
  {
    serve::SessionTable table(16, kHistory, kCcSlots, s.tput_scale);
    const std::int64_t t0 = now_ns();
    for (std::size_t k = 0; k < kHistory; ++k)
      for (std::size_t u = 0; u < n; ++u) (void)table.push(u, s.sample(u, k));
    const std::int64_t t1 = now_ns();
    const double bytes =
        static_cast<double>(heap_bytes_in_use()) - static_cast<double>(heap0);
    traces::Window w;
    const std::int64_t t2 = now_ns();
    for (std::size_t u = 0; u < n; ++u)
      if (!table.snapshot(u, w)) res.fail_check("warm session could not be snapshot");
    snap_ns = now_ns() - t2;
    push_ns = t1 - t0;
    const double per_ue = bytes / static_cast<double>(n);
    res.set("session.bytes_per_ue", per_ue);
    res.set("session.llc_ratio",
            per_ue * static_cast<double>(ues) / static_cast<double>(host.llc_bytes));
  }
  res.set("session.push_ns", static_cast<double>(push_ns) / static_cast<double>(n * kHistory));
  res.set("session.snapshot_ns", static_cast<double>(snap_ns) / static_cast<double>(n));
}

}  // namespace

Result run_serve(const Args& a, ServeKind kind) {
  const HostInfo host = host_info();
  const std::size_t ues = a.count("ues");
  const std::size_t workers = std::max<std::size_t>(1, host.nproc - 1);
  const Slo slo{a.num("p99_limit_ms"), a.num("max_failed_share")};
  Result res;

  RunState st(ues);  // outlives every server the set-ups start
  std::unique_ptr<Setup> s;
  std::vector<double> setup_s, pipeline_s, steps_per_s, fit_s, featurize_s, windows_per_s,
      step_us;
  for (std::size_t rep = 0; rep < a.count("setup_reps"); ++rep) {
    s.reset();
    s = set_up(a, kind, host, st, ues, workers);
    setup_s.push_back(s->total_s);
    pipeline_s.push_back(s->pipeline_s);
    steps_per_s.push_back(s->sim_steps / s->sim_s);
    fit_s.push_back(s->fit_s);
    featurize_s.push_back(s->featurize_s);
    windows_per_s.push_back(s->windows / s->featurize_s);
    // generate_traces runs one op's traces concurrently; per-step cost is
    // its wall time times that concurrency over the steps simulated.
    const double conc = static_cast<double>(std::min(host.nproc, a.count("traces_per_op")));
    step_us.push_back(s->sim_s * conc / s->sim_steps * 1e6);
  }

  std::uint64_t refused = 0;
  const double secs = a.seconds;
  const std::size_t n_check = a.count("check_samples");
  // Untimed: the workers' first batches size their scratch arenas and
  // window buffers; that lazy set-up must not land in the first phase.
  {
    Result discard;
    std::uint64_t ignored = 0;
    account(discard, run_phase(*s, st, a, ues, a.num("nominal_rate"), a.num("warmup_s"),
                               mix64(a.seed ^ 0x3A3), 0, slo),
            ignored);
    if (!discard.correct) res.fail_check("warm-up phase: " + discard.notes.front());
    settle();
  }
  // A phase during which the hypervisor took more than max_steal_share of
  // the machine's CPU time is invalid: it is run again, up to max_attempts
  // times while the run is within retry_wall_share x --seconds, and the
  // least stolen attempt counts. Traced runs take every phase once.
  const std::int64_t retry_deadline =
      now_ns() + static_cast<std::int64_t>(secs * a.num("retry_wall_share") * 1e9);
  const auto clean = [&](const auto& attempt) {
    Phase best = attempt();
    account(res, best, refused);
    for (std::size_t k = 1; !a.trace && k < a.count("max_attempts") &&
                            best.steal > a.num("max_steal_share") && now_ns() < retry_deadline;
         ++k) {
      settle();
      Phase again = attempt();
      account(res, again, refused);
      if (again.steal < best.steal) best = std::move(again);
    }
    return best;
  };
  Phase nom = clean([&] {
    return run_phase(*s, st, a, ues, a.num("nominal_rate"), secs * a.num("nominal_share"),
                     mix64(a.seed ^ 0x4E0D), n_check, slo);
  });
  if (nom.checked == 0) res.fail_check("no served prediction was sampled for checking");
  settle();

  std::ostringstream host_note;
  host_note << "host: nproc=" << host.nproc << " workers=" << workers << " l1d=" << host.l1d_bytes
            << " l2=" << host.l2_bytes << " llc=" << host.llc_bytes;
  res.notes.push_back(host_note.str());
  std::ostringstream nom_note;
  nom_note << "nominal: rate=" << a.num("nominal_rate") << "/s samples=" << nom.rung.attempted
           << " p50_ms=" << nom.p50_ms << " p99_ms=" << nom.rung.p99_ms
           << " whole_p99_ms=" << nom.whole_p99_ms << " p99.9_ms=" << nom.p999_ms << " max_ms=" << nom.max_ms << " checked=" << nom.checked
           << " superseded=" << nom.superseded << " steal=" << nom.steal;
  res.notes.push_back(nom_note.str());

  if (!a.trace) {
    const auto ladder = make_ladder(a.num("ladder_base"), a.num("ladder_ratio"),
                                    a.count("ladder_rungs"));
    // About log2(rungs) decisions, some of which probe twice.
    const double probes =
        1.5 * std::ceil(std::log2(static_cast<double>(ladder.size()) + 1.0));
    const double probe_s = secs * a.num("ladder_share") / probes;
    const auto probed = search_ladder(ladder, slo, [&](double rate) {
      Phase ph = clean([&] {
        return run_phase(*s, st, a, ues, rate, probe_s,
                         mix64(a.seed ^ static_cast<std::uint64_t>(rate)), 0, slo,
                         /*abortable=*/true);
      });
      settle();
      std::ostringstream note;
      note << "probe: rate=" << rate << "/s samples=" << ph.rung.attempted
           << " p50_ms=" << ph.p50_ms << " p99_ms=" << ph.rung.p99_ms << " max_ms=" << ph.max_ms << " failed=" << ph.rung.failed
           << " backlog_growing=" << ph.rung.backlog_growing
           << " achieved=" << ph.rung.achieved_per_s << " steal=" << ph.steal;
      res.notes.push_back(note.str());
      return ph.rung;
    });
    const int best = select_max_rate(probed, slo);
    if (best < 0) res.notes.push_back("no ladder rung met the SLO");

    Phase over = clean([&] {
      return run_phase(*s, st, a, ues, a.num("overload_rate"), secs * a.num("overload_share"),
                       mix64(a.seed ^ 0x0FE7), 0, slo);
    });
    std::ostringstream over_note;
    over_note << "overload: rate=" << a.num("overload_rate") << "/s samples=" << over.rung.attempted
              << " ok=" << over.ok << " shed=" << over.shed << " unsent=" << over.unsent
              << " steal=" << over.steal;
    res.notes.push_back(over_note.str());

    res.set("setup_s", median(setup_s));
    res.set("p50_ms", nom.p50_ms);
    res.set("p99_ms", nom.rung.p99_ms);
    res.set("max_rate_per_s",
            best < 0 ? 0.0 : probed[static_cast<std::size_t>(best)].achieved_per_s);
    res.set("overload_goodput_per_s", over.rung.achieved_per_s);
    res.set("fleet_steps_per_s", median(steps_per_s));
    res.set("pipeline_s", median(pipeline_s));
    res.set("rss_mb", peak_rss_mb());
    return res;
  }

  // Traced run: hot-swap the timing wrapper in, repeat the nominal phase,
  // then saturate the server at the overload rate.
  auto timing = std::make_shared<TimingPredictor>(s->model);
  st.version = s->registry.install("model", timing);
  st.tracing = true;
  Phase nom_t = run_phase(*s, st, a, ues, a.num("nominal_rate"), secs * a.num("nominal_share"),
                          mix64(a.seed ^ 0x4E0D), n_check, slo);
  account(res, nom_t, refused);
  const auto nom_batches = timing->take();
  SpanLog spans = request_spans(st, nom_batches);

  std::vector<double> queue_ms, dispatch_us;
  {
    std::unordered_map<std::uint64_t, const BatchRecord*> by_id;
    for (const auto& b : nom_batches) by_id[b.id] = &b;
    for (const Record& r : st.rec) {
      const auto it = by_id.find(r.batch);
      if (!r.ok || it == by_id.end()) continue;
      queue_ms.push_back(static_cast<double>(it->second->start_ns - r.ret_ns) * 1e-6);
      dispatch_us.push_back(static_cast<double>(r.done_ns - it->second->end_ns) * 1e-3);
    }
  }
  settle();
  Phase over = run_phase(*s, st, a, ues, a.num("overload_rate"), secs * a.num("overload_share"),
                         mix64(a.seed ^ 0x0FE7), 0, slo);
  account(res, over, refused);
  const auto over_batches = timing->take();

  double busy_ns = 0.0;
  for (const auto& b : over_batches) busy_ns += static_cast<double>(b.end_ns - b.start_ns);
  std::vector<double> batch_us;
  double batch_ns_total = 0.0, windows_total = 0.0, partial = 0.0;
  for (const auto* set : {&nom_batches, &over_batches})
    for (const auto& b : *set) {
      batch_us.push_back(static_cast<double>(b.end_ns - b.start_ns) * 1e-3);
      batch_ns_total += static_cast<double>(b.end_ns - b.start_ns);
      windows_total += static_cast<double>(b.size);
      if (b.size < s->server->config().max_batch) partial += 1.0;
    }
  const double n_batches = std::max<double>(1.0, static_cast<double>(batch_us.size()));

  res.set("infer.batch_us_p50", exact_quantile(batch_us, 0.5));
  res.set("infer.us_per_window", batch_ns_total * 1e-3 / std::max(1.0, windows_total));
  res.set("infer.busy_share",
          busy_ns / (static_cast<double>(workers) *
                     static_cast<double>(std::max<std::int64_t>(1, over.end_ns - over.start_ns))));
  res.set("infer.batch_size_mean", windows_total / n_batches);
  res.set("serve.submit_us_p50", exact_quantile(nom_t.submit_us, 0.5));
  res.set("serve.submit_us_p99", exact_quantile(nom_t.submit_us, 0.99));
  res.set("serve.queue_wait_ms_p50", exact_quantile(queue_ms, 0.5));
  res.set("serve.queue_wait_ms_p99", exact_quantile(queue_ms, 0.99));
  res.set("serve.deadline_batch_share", partial / n_batches);
  res.set("serve.dispatch_us_p99", exact_quantile(dispatch_us, 0.99));
  res.set("serve.shed_total", static_cast<double>(nom.shed + nom_t.shed + over.shed));
  res.set("serve.errors_total",
          static_cast<double>(nom.errors + nom_t.errors + over.errors + nom.closed +
                              nom_t.closed + over.closed));
  res.set("gen.lag_p99_ms", exact_quantile(nom_t.lag_ms, 0.99));
  res.set("gen.sent_total", static_cast<double>(nom.rung.attempted + nom_t.rung.attempted +
                                                over.rung.attempted));
  res.set("sim.step_us", median(step_us));
  res.set("sim.units_total", static_cast<double>(s->traces.size()));
  res.set("traces.featurize_s", median(featurize_s));
  res.set("traces.windows_per_s", median(windows_per_s));
  res.set("nn.fit_s", median(fit_s));
  res.set("failed_share", static_cast<double>(res.failed + refused) /
                              static_cast<double>(std::max<std::uint64_t>(1, res.attempted)));
  res.set("trace.overhead_share", (nom_t.p50_ms - nom.p50_ms) / nom.p50_ms);

  // Each layer's share of all self time the request spans record.
  const auto self = spans.self_time_ns();
  double self_ns = 0.0;
  for (const auto& [name, ns] : self) self_ns += ns;
  const auto share = [&](std::initializer_list<const char*> names) {
    double sum = 0.0;
    for (const char* n : names)
      if (auto it = self.find(n); it != self.end()) sum += it->second;
    return sum / std::max(1.0, self_ns);
  };
  res.set("self.gen_share", share({"gen.lag"}));
  res.set("self.serve_share", share({"serve.submit", "serve.queue", "serve.dispatch"}));
  res.set("self.infer_share", share({"infer.predict_many"}));
  res.set("self.other_share", share({"request"}));

  session_microbench(*s, ues, host, res);

  if (!a.span_dir.empty()) {
    // The first requests' spans; the metrics above use all of them.
    SpanLog head;
    for (const Span& sp : spans.spans()) {
      if (sp.request >= 5000) break;
      head.add(sp.name, sp.parent, sp.request, sp.start_ns, sp.end_ns);
    }
    head.write_jsonl(a.span_dir + "/" + a.workload + "-seed" + std::to_string(a.seed) +
                     ".jsonl");
  }
  return res;
}

}  // namespace perfbench
