// Tests of the benchmark's own arithmetic: the tail-percentile reporting
// rule and span self time. Exits non-zero on the first failed check.
//
//   .bench_build/perfbench/perfbench_selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("[%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

ecms::obs::TraceEvent span(std::uint64_t id, std::uint64_t parent,
                           std::int64_t start, std::int64_t dur,
                           const char* name = "s") {
  ecms::obs::TraceEvent e;
  e.name = name;
  e.span_id = id;
  e.parent_id = parent;
  e.start_ns = start;
  e.dur_ns = dur;
  return e;
}

void test_percentiles() {
  using perfbench::percentile;
  using perfbench::samples_beyond;
  using perfbench::tail_percentile;
  check(percentile(ramp(100), 50) == 50, "nearest-rank median of 1..100");
  check(percentile(ramp(100), 99) == 99, "nearest-rank p99 of 1..100");
  check(percentile({3, 1, 2}, 50) == 2, "unsorted input");
  check(samples_beyond(1000, 99) == 10, "1000 samples leave 10 beyond p99");
  check(samples_beyond(999, 99) == 9, "999 samples leave 9 beyond p99");

  const auto t1000 = tail_percentile(ramp(1000), 99);
  check(t1000.resolved && t1000.name() == "p99" && t1000.beyond == 10 &&
            t1000.value == 990,
        "p99 reported at exactly 10 samples beyond");
  const auto t999 = tail_percentile(ramp(999), 99);
  check(t999.resolved && t999.name() == "p95" && t999.beyond >= 10,
        "999 samples fall back to p95 (" + t999.name() + ", " +
            std::to_string(t999.beyond) + " beyond)");
  const auto t200 = tail_percentile(ramp(200), 99);
  check(t200.name() == "p95" && t200.beyond == 10, "200 samples give p95");
  const auto t40 = tail_percentile(ramp(40), 99);
  check(t40.name() == "p75" && t40.beyond == 10, "40 samples give p75");
  const auto t8 = tail_percentile(ramp(8), 99);
  check(!t8.resolved && t8.name() == "p50" && t8.n == 8,
        "8 samples resolve no tail; the median stands in");
  const auto t10k = tail_percentile(ramp(10000), 99.9);
  check(t10k.name() == "p99.9" && t10k.beyond == 10, "10000 samples give p99.9");
  for (std::size_t n : {1u, 5u, 20u, 37u, 500u, 1001u, 4096u}) {
    const auto t = tail_percentile(ramp(n), 99);
    check(!t.resolved || t.beyond >= perfbench::kMinBeyond,
          "rule holds for n=" + std::to_string(n) + " (" + t.name() + ")");
  }
}

void test_self_time() {
  using perfbench::self_time_ns;
  // Parent [0,100) with children [10,30) and [20,50) (overlapping: union
  // 40) and a grandchild inside the first child.
  const std::vector<ecms::obs::TraceEvent> ev = {
      span(1, 0, 0, 100), span(2, 1, 10, 20), span(3, 1, 20, 30),
      span(4, 2, 12, 5), span(5, 0, 200, 10)};
  auto self = self_time_ns(ev);
  check(self[1] == 60, "parent self time subtracts the union of children");
  check(self[2] == 15, "child self time subtracts its own child");
  check(self[3] == 30 && self[4] == 5 && self[5] == 10, "leaves keep duration");

  // A child that outlives its parent is clipped to the parent's interval.
  auto clipped = self_time_ns({span(1, 0, 0, 50), span(2, 1, 40, 30)});
  check(clipped[1] == 40, "children clipped to the parent interval");

  const std::vector<ecms::obs::TraceEvent> named = {
      span(1, 0, 0, 100, "transient"), span(2, 1, 0, 30, "dc_operating_point"),
      span(3, 0, 0, 50, "other")};
  const double s = perfbench::self_seconds(
      named, self_time_ns(named), {"transient", "dc_operating_point"});
  check(std::abs(s - 100e-9) < 1e-15, "self_seconds sums the named spans");
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  std::printf("%s\n", failures == 0 ? "all checks passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}
