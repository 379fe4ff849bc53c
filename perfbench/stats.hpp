// Order statistics and trace arithmetic shared by the benchmark workloads
// and checked by tests/selftest.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// Nearest-rank percentile of `v` (need not be sorted); 0 for an empty set.
double percentile(std::vector<double> v, double pct);
double median(const std::vector<double>& v);

/// Samples that lie above the nearest-rank `pct` percentile of `n` samples.
std::size_t samples_beyond(std::size_t n, double pct);

/// A tail percentile chosen by the reporting rule: the highest percentile
/// at or below the one asked for that still has at least kMinBeyond samples
/// above it. With fewer than 2 * kMinBeyond samples no tail is resolved and
/// the median stands in (`resolved` false).
struct Tail {
  double value = 0.0;
  double pct = 50.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
  bool resolved = false;
  /// "p99", "p95", ... — the percentile actually reported.
  std::string name() const;
};
inline constexpr std::size_t kMinBeyond = 10;
Tail tail_percentile(const std::vector<double>& v, double want_pct);

/// Self time of every span: its duration minus the part of its interval
/// that its child spans (same parent_id) cover. Overlapping children are
/// merged, and children are clipped to the parent's interval.
std::unordered_map<std::uint64_t, std::int64_t> self_time_ns(
    const std::vector<ecms::obs::TraceEvent>& events);

/// Sum of self time over the spans whose name is in `names`.
double self_seconds(const std::vector<ecms::obs::TraceEvent>& events,
                    const std::unordered_map<std::uint64_t, std::int64_t>& self,
                    const std::vector<std::string>& names);

}  // namespace perfbench
