// bitmap: fast-model extraction of a 128x128 array, as one-shot
// `ecms_tool bitmap --rows 128 --cols 128` runs pay it.
//
// One repetition is one extraction::extract call with the fast-model
// engine, 4x4 tiles, the CLI's retry budget and containment, and jobs = 1
// (the CLI default). It is CPU-bound in one thread: the `edram`, `msu`
// fast-model and `bitmap` tiling code do the work and `circuit` none, so it
// is the bypass workload for every circuit-layer change.
#include <optional>
#include <string>
#include <vector>

#include "bitmap/extraction.hpp"
#include "common.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/workload.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

namespace ext = ecms::extraction;

constexpr std::size_t kSide = 128;

ecms::serve::ArraySpec bitmap_spec(std::uint64_t seed) {
  ecms::serve::ArraySpec s;
  s.rows = s.cols = kSide;
  s.seed = seed;
  s.gradient = 0.3;
  return s;
}

/// The request `ecms_tool bitmap` builds: fast model, 4x4 tiles, robust
/// with the CLI's retry budget and containment.
ext::ExtractRequest bitmap_request(std::size_t jobs) {
  ext::ExtractRequest req;
  req.jobs = jobs;
  req.robust = true;
  req.retry.max_attempts = 2;
  req.contain = true;
  return req;
}

/// Every cell measured and the codes as in the first repetition.
void check_codes(const ext::ExtractReport& rep, std::vector<int>& first,
                 Outcome& out, const char* what) {
  out.attempted += rep.status.size();
  const std::size_t bad = rep.report.failures.size();
  out.failed += bad;
  if (bad > 0) {
    out.violate(std::string(what) + ": " + std::to_string(bad) +
                " cell(s) unmeasurable");
  }
  if (first.empty()) {
    first = rep.bitmap.codes();
  } else if (rep.bitmap.codes() != first) {
    out.violate(std::string(what) + ": codes differ between repetitions");
  }
}

}  // namespace

std::size_t fast_model_off_ref(Outcome& out) {
  const std::vector<int> ref = array16_reference(out);
  const ecms::edram::MacroCell mc = ecms::serve::build_array(array16_spec());
  const ext::ExtractReport rep = ext::extract(mc, bitmap_request(1));
  std::size_t off = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    off += rep.bitmap.codes()[i] != ref[i];
  }
  return off;
}

void measure_bitmap(const Options& o, Outcome& out) {
  constexpr int kSetups = 21;
  std::vector<double> setup;
  std::optional<ecms::edram::MacroCell> mc;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = now_s();
    mc.emplace(ecms::serve::build_array(bitmap_spec(o.seed)));
    const ext::ExtractRequest req = bitmap_request(1);
    setup.push_back(now_s() - t0);
    (void)req;
  }
  const std::size_t cells = mc->cell_count();

  std::vector<double> walls;
  std::vector<int> first;
  BusySampler busy;
  busy.start();
  const double t0 = now_s(), c0 = process_cpu_s();
  while (walls.size() < 3 || now_s() - t0 < o.seconds) {
    const ext::ExtractRequest req = bitmap_request(1);
    const double r0 = now_s();
    const ext::ExtractReport rep = ext::extract(*mc, req);
    walls.push_back(now_s() - r0);
    check_codes(rep, first, out, "bitmap");
  }
  const double cpu = process_cpu_s() - c0;
  out.peak_busy_threads = busy.stop();
  // Codes are identical at any worker count.
  check_codes(ext::extract(*mc, bitmap_request(2)), first, out,
              "bitmap at jobs 2");

  // Rates come from the median repetition, so one repetition slowed by a
  // neighbour on the host does not move them.
  const double per_call = median(walls);
  std::vector<double> ms;
  for (const double w : walls) ms.push_back(1e3 * w);
  // The tail is the median of the tails of kTailWindows consecutive runs of
  // calls, so one burst of host interruptions moves one window's tail only.
  constexpr std::size_t kTailWindows = 3;
  std::vector<double> tails;
  Tail tail;
  for (std::size_t k = 0; k < kTailWindows; ++k) {
    tail = tail_percentile(
        std::vector<double>(
            ms.begin() + static_cast<long>(k * ms.size() / kTailWindows),
            ms.begin() + static_cast<long>((k + 1) * ms.size() / kTailWindows)),
        99.0);
    tails.push_back(tail.value);
  }

  out.add("setup_s", median(setup), "s", setup.size(),
          "median build of the array and its request");
  out.add("cells_per_s", cells / per_call, "cells/s", walls.size(),
          "over the median extract call");
  out.add("cpu_ms_per_cell", 1e3 * cpu / (walls.size() * cells), "ms",
          walls.size(), "process CPU over the timed repetitions");
  out.add("cells_off_ref", static_cast<double>(fast_model_off_ref(out)),
          "count", 1, "fast-model codes of the array16 array vs the 5 ps "
          "reference");
  out.add("p50_ms", median(ms), "ms", ms.size(), "wall of one extract call");
  out.add("p99_ms", median(tails), "ms", ms.size(),
          "median over 3 windows of the window " + tail.name() + " (" +
              std::to_string(tail.beyond) + " samples beyond in each)");
  out.add("capacity_rps", 1.0 / per_call, "1/s", walls.size(),
          "extract calls per second, one at a time");
  out.add("units_per_s", (cells / 16.0) / per_call, "1/s", walls.size(),
          "4x4 tiles per second");
  out.add("peak_rss_mb", peak_rss_mb(false), "MB");
}

void trace_bitmap(const Options& o, bool full, Outcome& out) {
  namespace obs = ecms::obs;
  probe_fast_model(o, out);
  if (!full) return;

  // Tracing overhead: untraced and traced calls alternate.
  const ecms::edram::MacroCell mc =
      ecms::serve::build_array(bitmap_spec(o.seed));
  std::vector<double> plain, traced;
  std::vector<int> first;
  const double t_end = now_s() + o.seconds;
  while (traced.size() < 3 || now_s() < t_end) {
    for (const bool on : {false, true}) {
      if (on) {
        obs::set_metrics_enabled(true);
        obs::start_tracing();
      }
      const double r0 = now_s();
      const ext::ExtractReport rep = ext::extract(mc, bitmap_request(1));
      (on ? traced : plain).push_back(now_s() - r0);
      obs::stop_tracing();
      obs::set_metrics_enabled(false);
      check_codes(rep, first, out, on ? "bitmap traced" : "bitmap");
    }
  }
  out.add("trace_overhead_frac", median(traced) / median(plain) - 1.0,
          "frac", traced.size(), "traced over untraced extract wall, minus 1");
}

}  // namespace perfbench
