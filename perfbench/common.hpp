// Shared types of the perfbench program: run options, the metric sink every
// workload fills, and host measurements (clocks, CPU time, RSS, busy
// threads).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "serve/workload.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Per-run scratch directory (sockets, campaign stores); removed at exit.
  std::string scratch;
};

/// One reported figure. `samples` is the number of observations behind it
/// (1 for a total or a count); `note` says how it was formed when the name
/// alone does not.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
  std::string note;
};

/// Everything one workload pass reports.
struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness violations; any one makes the run exit non-zero.
  std::vector<std::string> violations;
  double peak_busy_threads = 0.0;

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 1, std::string note = {});
  void violate(std::string what);
};

/// steady_clock seconds since an arbitrary epoch.
double now_s();
/// CPU seconds of this process, all threads.
double process_cpu_s();
/// CPU seconds of this process plus its live and reaped children.
double tree_cpu_s();
/// Peak resident set of this process (and, when asked, of its largest
/// reaped child), in MB.
double peak_rss_mb(bool include_children);

/// Samples the CPU rate of the process tree every `period_s` and keeps the
/// highest rate seen: the peak number of busy threads, averaged over one
/// period. Runs its own thread from start() to stop().
class BusySampler {
 public:
  explicit BusySampler(double period_s = 0.5) : period_s_(period_s) {}
  ~BusySampler() { stop(); }
  BusySampler(const BusySampler&) = delete;
  BusySampler& operator=(const BusySampler&) = delete;

  void start();
  /// Stops sampling and returns the peak busy-thread count.
  double stop();

 private:
  double period_s_;
  std::atomic<bool> running_{false};
  std::atomic<double> peak_{0.0};
  std::thread thread_;
};

/// Share of all CPU time the hypervisor gave to other guests (steal) since
/// the previous call, from /proc/stat; printed with each run because it
/// moves every timing on a shared host.
double host_steal_frac();

/// Host facts printed in the output header.
struct HostInfo {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  std::string isa;
};
HostInfo host_info();

// Workload passes. measure_* is the untraced run that gives the end-to-end
// metrics; trace_* is the traced run that gives the per-layer metrics
// (`full` false runs the shortest pass that still yields every metric).
void measure_array16(const Options& o, Outcome& out);
void measure_bitmap(const Options& o, Outcome& out);
void measure_serve(const Options& o, Outcome& out);
void measure_campaign(const Options& o, Outcome& out);
void trace_array16(const Options& o, bool full, Outcome& out);
void trace_bitmap(const Options& o, bool full, Outcome& out);
void trace_serve(const Options& o, bool full, Outcome& out);
void trace_campaign(const Options& o, bool full, Outcome& out);

/// Fast-engine extraction and array building, timed on serve_stream's
/// request specs (the bitmap and edram layers of the fast-model workloads).
void probe_fast_model(const Options& o, Outcome& out);
/// Cells of the array16 array whose fast-model code differs from the 5 ps
/// reference: the fast model's accuracy, reported by the fast-model
/// workloads.
std::size_t fast_model_off_ref(Outcome& out);

/// The array16 array: 16x16, seed 7, gradient 0.3, default defect rates.
ecms::serve::ArraySpec array16_spec();
/// The committed 5 ps reference codes of that array, row-major; records a
/// violation (and returns impossible codes) when the file is unusable.
std::vector<int> array16_reference(Outcome& out);
/// Writes the 5 ps fixed-step reference code map of the array16 array.
int make_array16_reference(const std::string& path, std::size_t jobs);

}  // namespace perfbench
