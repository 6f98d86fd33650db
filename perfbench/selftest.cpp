// Self-tests of the benchmark's own logic: exact percentiles, arrival
// schedule determinism, rate-ladder selection and span self time.
// Exit status 0 when every check holds. Run with `python3 perfbench/run.py
// --self-test`.
#include <cmath>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_core.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

void test_exact_quantile() {
  using perfbench::exact_quantile;
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  expect(exact_quantile(v, 0.99) == 99.0, "p99 of 1..100 is 99");
  expect(exact_quantile(v, 0.50) == 50.0, "p50 of 1..100 is 50");
  expect(exact_quantile(v, 1.0) == 100.0, "p100 of 1..100 is 100");
  std::vector<double> one{5.0};
  expect(exact_quantile(one, 0.99) == 5.0, "any quantile of one sample is that sample");
  std::vector<double> empty;
  expect(exact_quantile(empty, 0.5) == 0.0, "quantile of no samples is 0");
  // A failed request (infinite latency) past the rank shows in p99.
  std::vector<double> with_fail(99, 1.0);
  with_fail.push_back(std::numeric_limits<double>::infinity());
  expect(exact_quantile(with_fail, 0.99) == 1.0, "1 failure in 100 stays above p99");
  with_fail.push_back(std::numeric_limits<double>::infinity());
  expect(std::isinf(exact_quantile(with_fail, 0.99)), "2 failures in 101 reach p99");
  // Not a bucket edge: the value is a sample, exactly.
  std::vector<double> odd{0.1234567, 11.1397001, 3.0};
  expect(exact_quantile(odd, 0.99) == 11.1397001, "p99 returns the raw sample");
  expect(perfbench::median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of an even set");
}

void test_windowed() {
  using namespace perfbench;
  // Four 1 s windows of 100 samples; one window hit by a stall.
  std::vector<std::int64_t> t;
  std::vector<double> v;
  for (int w = 0; w < 4; ++w)
    for (int i = 0; i < 100; ++i) {
      t.push_back(w * 1'000'000'000LL + i * 10'000'000LL);
      v.push_back(w == 2 ? 50.0 : 1.0 + i * 0.01);
    }
  const auto q = windowed_quantiles(t, v, 1'000'000'000LL);
  expect(q.windows == 4, "samples fall in four windows");
  expect(std::fabs(q.p99 - 1.98) < 1e-12 && std::fabs(q.p50 - 1.49) < 1e-12,
         "a stalled window does not move the medians");
}

void test_schedule() {
  using perfbench::make_schedule;
  const auto a = make_schedule(100, 5000.0, 2.0, 42);
  const auto b = make_schedule(100, 5000.0, 2.0, 42);
  const auto c = make_schedule(100, 5000.0, 2.0, 43);
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i)
    same = a[i].due_ns == b[i].due_ns && a[i].ue == b[i].ue;
  expect(same, "same seed gives the same schedule");
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i)
    differs = a[i].due_ns != c[i].due_ns || a[i].ue != c[i].ue;
  expect(differs, "another seed gives another schedule");
  expect(a.size() >= 9900 && a.size() <= 10000, "offered count is rate x duration");
  bool sorted = true;
  for (std::size_t i = 1; i < a.size(); ++i) sorted = sorted && a[i - 1].due_ns <= a[i].due_ns;
  expect(sorted, "schedule is in due order");
  // Every UE sends on a fixed period of ues / rate = 20 ms.
  std::vector<std::int64_t> last(100, -1);
  bool periodic = true;
  for (const auto& x : a) {
    if (last[x.ue] >= 0) periodic = periodic && std::llabs(x.due_ns - last[x.ue] - 20'000'000) <= 1;
    last[x.ue] = x.due_ns;
  }
  expect(periodic, "each UE keeps its period");
}

void test_ladder() {
  using namespace perfbench;
  const Slo slo{10.0, 0.001};
  const auto ladder = make_ladder(1000.0, 1.25, 10);
  expect(ladder.size() == 10 && ladder[0] == 1000.0 && ladder[1] == 1250.0, "geometric ladder");
  // A synthetic server that meets the SLO up to 3000/s.
  int probes = 0;
  auto probe = [&](double rate) {
    ++probes;
    RungResult r;
    r.rate_per_s = rate;
    r.achieved_per_s = rate;
    r.attempted = 10000;
    r.p99_ms = rate <= 3000.0 ? 2.0 : 50.0;
    return r;
  };
  const auto probed = search_ladder(ladder, slo, probe);
  const int best = select_max_rate(probed, slo);
  expect(best >= 0 && probed[static_cast<std::size_t>(best)].rate_per_s == 2441.0,
         "highest passing rung below capacity is chosen");
  expect(probes <= 8, "binary search probes log2(rungs) rungs, failed ones twice");

  // A rung that fails once from a transient stall is retried and passes.
  int calls = 0;
  auto flaky = [&](double rate) {
    RungResult r = probe(rate);
    if (++calls == 1) r.p99_ms = 80.0;  // the very first probe hits a stall
    return r;
  };
  const auto retried = search_ladder(ladder, slo, flaky);
  const int best2 = select_max_rate(retried, slo);
  expect(best2 >= 0 && retried[static_cast<std::size_t>(best2)].rate_per_s == 2441.0,
         "a transient failure does not lower the result");

  RungResult shed;
  shed.rate_per_s = 9000;
  shed.attempted = 10000;
  shed.failed = 11;  // 0.11% > 0.1%
  shed.p99_ms = 1.0;
  RungResult growing = shed;
  growing.failed = 0;
  growing.backlog_growing = true;
  RungResult fine = shed;
  fine.failed = 10;
  fine.rate_per_s = 8000;
  expect(!rung_passes(shed, slo), "too many failures fail the rung");
  expect(!rung_passes(growing, slo), "a growing backlog fails the rung");
  expect(rung_passes(fine, slo), "0.1% failures pass");
  expect(select_max_rate({shed, growing, fine}, slo) == 2, "only the passing rung is chosen");
  expect(select_max_rate({shed, growing}, slo) == -1, "no passing rung gives -1");
}

void test_self_time() {
  perfbench::SpanLog log;
  const auto root = log.add("root", 0, 1, 0, 100);
  log.add("a", root, 1, 10, 30);
  const auto b = log.add("b", root, 1, 20, 50);  // overlaps a
  log.add("c", root, 1, 60, 70);
  log.add("d", root, 1, 90, 120);                // clipped to the parent
  log.add("leaf", b, 1, 25, 35);
  const auto self = log.self_time_ns();
  expect(self.at("root") == 100.0 - 40.0 - 10.0 - 10.0, "parent self time excludes union of children");
  expect(self.at("b") == 20.0, "child self time excludes its own child");
  expect(self.at("a") == 20.0 && self.at("leaf") == 10.0, "leaves keep their whole duration");
}

}  // namespace

int main() {
  test_exact_quantile();
  test_windowed();
  test_schedule();
  test_ladder();
  test_self_time();
  if (g_failures == 0) std::cout << "perfbench self-test: all checks passed\n";
  return g_failures == 0 ? 0 : 1;
}
