// Observability layer: instrument semantics, bucket arithmetic, snapshot
// isolation, thread-safety, RAII timing, and export formats.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace_span.hpp"

namespace {

using namespace ca5g;

// --- Minimal JSON reader -----------------------------------------------------
// Enough of RFC 8259 to round-trip the exporter's output: objects, arrays,
// strings (with the escapes json_escape emits), and numbers.

struct JsonValue {
  enum class Kind { kObject, kArray, kString, kNumber } kind = Kind::kNumber;
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;
  std::string string;
  double number = 0.0;

  const JsonValue& at(const std::string& key) const {
    const auto it = object.find(key);
    if (it == object.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string text) : text_(std::move(text)) {}

  JsonValue parse() {
    const JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing JSON content");
    return v;
  }

 private:
  JsonValue value() {
    skip_ws();
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end of JSON");
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    return number();
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      const std::string key = string_literal();
      skip_ws();
      expect(':');
      v.object.emplace(key, value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    v.string = string_literal();
    return v;
  }

  JsonValue number() {
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    std::size_t end = pos_;
    while (end < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[end])) != 0 ||
            text_[end] == '-' || text_[end] == '+' || text_[end] == '.' ||
            text_[end] == 'e' || text_[end] == 'E'))
      ++end;
    if (end == pos_) throw std::runtime_error("bad JSON number");
    v.number = std::stod(text_.substr(pos_, end - pos_));
    pos_ = end;
    return v;
  }

  std::string string_literal() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) throw std::runtime_error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u':
          out += static_cast<char>(std::stoi(text_.substr(pos_, 4), nullptr, 16));
          pos_ += 4;
          break;
        default: throw std::runtime_error("bad escape");
      }
    }
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c)
      throw std::runtime_error(std::string("expected '") + c + "'");
    ++pos_;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0)
      ++pos_;
  }

  std::string text_;
  std::size_t pos_ = 0;
};

// --- Naming convention -------------------------------------------------------

TEST(MetricNames, ConventionAccepted) {
  EXPECT_TRUE(obs::is_valid_metric_name("sim.steps_total"));
  EXPECT_TRUE(obs::is_valid_metric_name("predictor.inference_ns"));
  EXPECT_TRUE(obs::is_valid_metric_name("nn.epoch_val_rmse"));
  EXPECT_TRUE(obs::is_valid_metric_name("ran.scheduler.rb_granted_total"));
  EXPECT_TRUE(obs::is_valid_metric_name("trace_io.rows_rejected_total"));
}

TEST(MetricNames, ConventionRejected) {
  EXPECT_FALSE(obs::is_valid_metric_name(""));
  EXPECT_FALSE(obs::is_valid_metric_name("steps_total"));        // no layer
  EXPECT_FALSE(obs::is_valid_metric_name("sim.steps"));          // no unit
  EXPECT_FALSE(obs::is_valid_metric_name("sim._total"));         // bare suffix
  EXPECT_FALSE(obs::is_valid_metric_name("Sim.steps_total"));    // uppercase
  EXPECT_FALSE(obs::is_valid_metric_name("sim..steps_total"));   // empty segment
  EXPECT_FALSE(obs::is_valid_metric_name("sim.steps_total."));   // trailing dot
  EXPECT_FALSE(obs::is_valid_metric_name("sim.1steps_total"));   // leading digit
  EXPECT_FALSE(obs::is_valid_metric_name("sim.steps_furlongs"));  // unknown unit
  EXPECT_FALSE(obs::metric_unit_suffixes().empty());
}

// --- Instrument semantics ----------------------------------------------------

TEST(Counter, Increment) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  obs::Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Histogram, CountSumMinMax) {
  obs::Histogram h;
  h.observe(10.0);
  h.observe(1000.0);
  h.observe(3.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 1013.0);
  const auto snap = obs::HistogramSnapshot::from("t.x_ns", h);
  EXPECT_DOUBLE_EQ(snap.min, 3.0);
  EXPECT_DOUBLE_EQ(snap.max, 1000.0);
  EXPECT_NEAR(snap.mean(), 1013.0 / 3.0, 1e-9);
}

TEST(Histogram, BucketBoundaries) {
  obs::Histogram h;  // default spec: [1, 1e11), 64 log-spaced buckets
  // Every bucket's upper bound strictly exceeds the previous one, and a
  // value lands in the first bucket whose inclusive upper bound covers it.
  for (std::size_t i = 1; i < obs::Histogram::kBucketCount; ++i)
    EXPECT_GT(h.bucket_upper_bound(i), h.bucket_upper_bound(i - 1));
  for (const double v : {0.5, 1.0, 7.0, 123.0, 9.9e4, 3.3e8, 9.99e10}) {
    const std::size_t idx = h.bucket_index(v);
    ASSERT_LT(idx, obs::Histogram::kBucketCount);
    EXPECT_LE(v, h.bucket_upper_bound(idx)) << "v=" << v;
    if (idx > 0) {
      EXPECT_GT(v, h.bucket_upper_bound(idx - 1)) << "v=" << v;
    }
  }
  // Values at/above `upper` fall in the overflow bucket, whose bound is +inf.
  EXPECT_EQ(h.bucket_index(1e11), obs::Histogram::kBucketCount);
  EXPECT_EQ(h.bucket_index(1e300), obs::Histogram::kBucketCount);
  EXPECT_TRUE(std::isinf(h.bucket_upper_bound(obs::Histogram::kBucketCount)));
  // Sub-lower and non-finite values land in bucket 0 rather than crashing.
  EXPECT_EQ(h.bucket_index(0.0), 0u);
  EXPECT_EQ(h.bucket_index(-5.0), 0u);
  EXPECT_EQ(h.bucket_index(std::nan("")), 0u);
}

TEST(Histogram, ObserveFillsMatchingBucket) {
  obs::Histogram h;
  const double v = 12345.0;
  h.observe(v);
  const std::size_t idx = h.bucket_index(v);
  EXPECT_EQ(h.bucket_count(idx), 1u);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= obs::Histogram::kBucketCount; ++i)
    total += h.bucket_count(i);
  EXPECT_EQ(total, 1u);
}

TEST(Histogram, QuantileBucketResolution) {
  obs::Histogram h;
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  const auto snap = obs::HistogramSnapshot::from("t.q_ns", h);
  // Bucket-resolution estimate: the true quantile never exceeds it, and
  // it stays within one log-step (ratio = (1e11)^(1/64) < 1.5) above.
  const double p50 = snap.quantile(0.5);
  EXPECT_GE(p50, 50.0);
  EXPECT_LE(p50, 50.0 * 1.5);
  EXPECT_GE(snap.quantile(0.99), snap.quantile(0.5));
  EXPECT_LE(snap.quantile(1.0), h.bucket_upper_bound(h.bucket_index(100.0)));
}

TEST(Histogram, SnapshotReadsTheLiveBucketBounds) {
  // One value in bucket i and one in the overflow bucket: the snapshot's
  // median is bucket i's upper bound, which must be the very double the
  // live histogram's bucket_index is tested against.
  for (std::size_t i = 0; i < obs::Histogram::kBucketCount; ++i) {
    obs::Histogram h;
    const double v =
        i == 0 ? 0.5 : std::sqrt(h.bucket_upper_bound(i - 1) * h.bucket_upper_bound(i));
    ASSERT_EQ(h.bucket_index(v), i);
    h.observe(v);
    h.observe(1e12);
    const auto snap = obs::HistogramSnapshot::from("t.bounds_ns", h);
    EXPECT_EQ(snap.quantile(0.5), h.bucket_upper_bound(i)) << "bucket " << i;
  }
}

// --- Registry and snapshots --------------------------------------------------

TEST(Registry, SameNameSameInstrument) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("layer.events_total");
  obs::Counter& b = reg.counter("layer.events_total");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(reg.names().size(), 1u);
}

TEST(Registry, RejectsBadNames) {
  obs::MetricsRegistry reg;
  EXPECT_THROW(reg.counter("NoLayer"), common::CheckError);
  EXPECT_THROW(reg.gauge("layer.unsuffixed"), common::CheckError);
}

TEST(Registry, SnapshotIsolatedFromLaterUpdates) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("layer.rows_total");
  obs::Histogram& h = reg.histogram("layer.lat_ns");
  c.inc(5);
  h.observe(10.0);
  const auto snap = reg.snapshot();
  c.inc(100);
  h.observe(20.0);
  ASSERT_NE(snap.counter("layer.rows_total"), nullptr);
  EXPECT_EQ(*snap.counter("layer.rows_total"), 5u);
  ASSERT_NE(snap.histogram("layer.lat_ns"), nullptr);
  EXPECT_EQ(snap.histogram("layer.lat_ns")->count, 1u);
  EXPECT_EQ(snap.counter("layer.absent_total"), nullptr);
  EXPECT_EQ(snap.histogram("layer.absent_ns"), nullptr);
}

TEST(Registry, ConcurrentUpdatesAreLossless) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 4;
  constexpr int kIters = 25000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&reg] {
      // Each thread resolves the instruments itself: registration races
      // are part of what's under test.
      obs::Counter& c = reg.counter("layer.ops_total");
      obs::Gauge& g = reg.gauge("layer.progress_ratio");
      obs::Histogram& h = reg.histogram("layer.lat_ns");
      for (int i = 0; i < kIters; ++i) {
        c.inc();
        g.add(1.0);
        h.observe(static_cast<double>(i + 1));
      }
    });
  for (auto& w : workers) w.join();
  const auto snap = reg.snapshot();
  EXPECT_EQ(*snap.counter("layer.ops_total"),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(snap.histogram("layer.lat_ns")->count,
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(snap.gauges.front().second, static_cast<double>(kThreads) * kIters);
  std::uint64_t bucket_total = 0;
  for (const auto b : snap.histogram("layer.lat_ns")->buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, static_cast<std::uint64_t>(kThreads) * kIters);
}

// --- RAII timing -------------------------------------------------------------

TEST(StopWatch, MeasuresElapsed) {
  obs::StopWatch w;
  volatile double sink = 0.0;
  for (int i = 0; i < 10000; ++i) sink = sink + 1.0;
  EXPECT_GT(w.elapsed_ns(), 0);
}

TEST(ScopedTimer, RecordsOnNormalExit) {
  obs::Histogram h;
  {
    obs::ScopedTimer timer(h);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum(), 0.0);
}

TEST(ScopedTimer, RecordsOnEarlyReturn) {
  obs::Histogram h;
  const auto f = [&h](bool early) {
    obs::ScopedTimer timer(h);
    if (early) return 1;
    return 2;
  };
  EXPECT_EQ(f(true), 1);
  EXPECT_EQ(f(false), 2);
  EXPECT_EQ(h.count(), 2u);
}

TEST(ScopedTimer, RecordsWhenScopeThrows) {
  obs::Histogram h;
  try {
    obs::ScopedTimer timer(h);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(h.count(), 1u);
}

TEST(ScopedTimer, MacroCompilesAndRecords) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Histogram& h = reg.histogram("test.macro_scope_ns");
  const auto before = h.count();
  {
    CA5G_SCOPED_TIMER(h);
    CA5G_SCOPED_TIMER(h);  // __LINE__ uniquing: two timers in one scope
  }
  EXPECT_EQ(h.count(), before + 2);
}

// --- Export formats ----------------------------------------------------------

TEST(Export, JsonRoundTrip) {
  obs::MetricsRegistry reg;
  reg.counter("sim.steps_total").inc(123);
  reg.gauge("nn.epoch_val_rmse").set(0.25);
  obs::Histogram& h = reg.histogram("predictor.inference_ns");
  h.observe(100.0);
  h.observe(200.0);
  h.observe(1e12);  // overflow bucket → "+inf" boundary in JSON

  const std::string text = obs::to_json(reg.snapshot());
  const JsonValue root = JsonReader(text).parse();

  EXPECT_DOUBLE_EQ(root.at("counters").at("sim.steps_total").number, 123.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("nn.epoch_val_rmse").number, 0.25);
  const JsonValue& hist = root.at("histograms").at("predictor.inference_ns");
  EXPECT_DOUBLE_EQ(hist.at("count").number, 3.0);
  EXPECT_DOUBLE_EQ(hist.at("min").number, 100.0);
  EXPECT_DOUBLE_EQ(hist.at("max").number, 1e12);
  EXPECT_GT(hist.at("p50").number, 0.0);
  // Sparse [le, count] pairs: totals must re-add to `count`, and the
  // overflow observation appears under the "+inf" boundary.
  double bucket_total = 0.0;
  bool saw_inf = false;
  for (const JsonValue& pair : hist.at("buckets").array) {
    ASSERT_EQ(pair.array.size(), 2u);
    bucket_total += pair.array[1].number;
    if (pair.array[0].kind == JsonValue::Kind::kString)
      saw_inf = pair.array[0].string == "+inf";
  }
  EXPECT_DOUBLE_EQ(bucket_total, 3.0);
  EXPECT_TRUE(saw_inf);
}

TEST(Export, JsonEscaping) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(obs::json_escape(std::string("\x01", 1)), "\\u0001");
  // json_number never emits tokens JSON can't parse.
  EXPECT_EQ(obs::json_number(std::nan("")), "0");
  JsonReader reader(obs::json_number(std::numeric_limits<double>::infinity()));
  EXPECT_GT(reader.parse().number, 1e307);
}

// --- Run reports -------------------------------------------------------------

TEST(RunReport, SummaryJsonParses) {
  obs::RunReport report("unit-test");
  report.meta("scenario", "OpZ/driving");
  report.meta("seed", 7.0);
  report.kpi("rmse_mbps", 12.5);
  report.event("start");
  report.event("train", "epoch=1");

  obs::MetricsRegistry reg;
  reg.counter("sim.steps_total").inc(10);
  const auto snap = reg.snapshot();

  const JsonValue root = JsonReader(report.summary_json(&snap)).parse();
  EXPECT_EQ(root.at("run").string, "unit-test");
  EXPECT_GE(root.at("wall_s").number, 0.0);
  EXPECT_EQ(root.at("meta").at("scenario").string, "OpZ/driving");
  EXPECT_DOUBLE_EQ(root.at("meta").at("seed").number, 7.0);
  EXPECT_DOUBLE_EQ(root.at("kpis").at("rmse_mbps").number, 12.5);
  EXPECT_DOUBLE_EQ(root.at("events_count").number, 2.0);
  EXPECT_DOUBLE_EQ(root.at("metrics").at("counters").at("sim.steps_total").number, 10.0);

  // Without a snapshot the "metrics" key is omitted but the rest stands.
  const JsonValue bare = JsonReader(report.summary_json()).parse();
  EXPECT_EQ(bare.object.count("metrics"), 0u);
  EXPECT_EQ(bare.at("run").string, "unit-test");
}

TEST(RunReport, EventsJsonl) {
  obs::RunReport report("evt");
  report.event("a");
  report.event("b", "detail \"quoted\"");
  const std::string jsonl = report.events_jsonl();
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    const auto end = jsonl.find('\n', start);
    lines.push_back(jsonl.substr(start, end - start));
    if (end == std::string::npos) break;
    start = end + 1;
  }
  ASSERT_EQ(lines.size(), 2u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const JsonValue e = JsonReader(lines[i]).parse();
    EXPECT_DOUBLE_EQ(e.at("seq").number, static_cast<double>(i));
    EXPECT_GE(e.at("t_s").number, 0.0);
  }
  EXPECT_EQ(JsonReader(lines[1]).parse().at("detail").string, "detail \"quoted\"");
  EXPECT_EQ(obs::RunReport::events_path_for("/tmp/r.json"), "/tmp/r.json.events.jsonl");
}

}  // namespace
