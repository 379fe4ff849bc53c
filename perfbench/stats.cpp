#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

std::size_t rank_of(std::size_t n, double pct) {
  // Nearest rank: the smallest rank r with r / n >= pct / 100.
  const double r = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

}  // namespace

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  const std::size_t r = rank_of(v.size(), pct);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(r - 1), v.end());
  return v[r - 1];
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

std::size_t samples_beyond(std::size_t n, double pct) {
  return n == 0 ? 0 : n - rank_of(n, pct);
}

std::string Tail::name() const {
  char buf[16];
  std::snprintf(buf, sizeof buf, "p%g", pct);
  return buf;
}

Tail tail_percentile(const std::vector<double>& v, double want_pct) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0};
  Tail t;
  t.n = v.size();
  for (const double p : kLadder) {
    if (p > want_pct) continue;
    if (samples_beyond(t.n, p) >= kMinBeyond) {
      t.pct = p;
      t.resolved = true;
      break;
    }
  }
  t.value = percentile(v, t.pct);
  t.beyond = samples_beyond(t.n, t.pct);
  return t;
}

std::unordered_map<std::uint64_t, std::int64_t> self_time_ns(
    const std::vector<ecms::obs::TraceEvent>& events) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                          std::int64_t>>>
      children;
  for (const auto& e : events) {
    if (e.parent_id != 0) {
      children[e.parent_id].emplace_back(e.start_ns, e.start_ns + e.dur_ns);
    }
  }
  std::unordered_map<std::uint64_t, std::int64_t> self;
  for (const auto& e : events) {
    const std::int64_t lo = e.start_ns, hi = e.start_ns + e.dur_ns;
    std::int64_t covered = 0;
    if (auto it = children.find(e.span_id); it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [a, b] : iv) {
        a = std::max(a, lo);
        b = std::min(b, hi);
        if (b <= a) continue;
        if (open && a <= cur_hi) {
          cur_hi = std::max(cur_hi, b);
          continue;
        }
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
      if (open) covered += cur_hi - cur_lo;
    }
    self[e.span_id] = (hi - lo) - covered;
  }
  return self;
}

double self_seconds(const std::vector<ecms::obs::TraceEvent>& events,
                    const std::unordered_map<std::uint64_t, std::int64_t>& self,
                    const std::vector<std::string>& names) {
  std::int64_t ns = 0;
  for (const auto& e : events) {
    if (std::find(names.begin(), names.end(), e.name) == names.end()) continue;
    if (auto it = self.find(e.span_id); it != self.end()) ns += it->second;
  }
  return 1e-9 * static_cast<double>(ns);
}

}  // namespace perfbench
