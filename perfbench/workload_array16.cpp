// array16: transistor-level extraction of the 16x16 array — the paper's
// validation flow at array scale, as one-shot `ecms_tool array` runs pay it.
//
// One repetition is one extraction::extract call with the circuit engine,
// 4x4 tiles, adaptive scheduling on, batching left at its automatic width
// and jobs = 2. Every repetition gets a cold ProgramCache, because a
// one-shot CLI run compiles its netlist programs every time.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bitmap/extraction.hpp"
#include "circuit/kernels.hpp"
#include "circuit/program.hpp"
#include "circuit/solver.hpp"
#include "common.hpp"
#include "edram/netlister.hpp"
#include "msu/extract.hpp"
#include "msu/structure.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/workload.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using ecms::CellStatus;
namespace ext = ecms::extraction;
namespace circuit = ecms::circuit;

constexpr std::size_t kJobs = 2;
/// parallel_for makes the calling thread drain chunks too.
constexpr std::size_t kBusyThreads = kJobs + 1;
constexpr std::size_t kTile = 4;

/// The request `ecms_tool array --rows 16 --cols 16 --seed 7 --gradient 0.3
/// --jobs 2` builds: robust with the CLI's retry budget and containment.
ext::ExtractRequest array16_request(circuit::ProgramCache* cache,
                                    std::size_t jobs) {
  ext::ExtractRequest req;
  req.engine = ext::Engine::kCircuit;
  req.tile_rows = kTile;
  req.tile_cols = kTile;
  req.jobs = jobs;
  req.robust = true;
  req.retry.max_attempts = 2;
  req.contain = true;
  req.options.adaptive.enabled = true;
  req.options.newton.solver.program_cache = cache;
  return req;
}

std::string reference_path() {
  return std::string(PERFBENCH_DIR) + "/reference/array16_5ps.txt";
}

/// Row-major reference codes; empty when the file is missing or malformed.
std::vector<int> load_reference(std::size_t rows, std::size_t cols) {
  std::ifstream in(reference_path());
  std::string line;
  std::vector<int> codes;
  bool header = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    if (!header) {
      std::string r, c;
      std::size_t nr = 0, nc = 0;
      if (!(ls >> r >> nr >> c >> nc) || nr != rows || nc != cols) return {};
      header = true;
      continue;
    }
    int v = 0;
    while (ls >> v) codes.push_back(v);
  }
  if (codes.size() != rows * cols) codes.clear();
  return codes;
}

/// Per-repetition correctness: every cell measured, codes as before, and the
/// distance to the converged reference. Returns the number of failed cells
/// (unmeasurable, or more than one code off the reference).
std::size_t check_report(const ext::ExtractReport& rep,
                         const std::vector<int>& ref,
                         std::vector<int>& first_codes, std::size_t& off_ref,
                         Outcome& out, const char* what) {
  const std::vector<int>& codes = rep.bitmap.codes();
  std::size_t failed = 0;
  off_ref = 0;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const bool measured = rep.status[i] == CellStatus::kOk ||
                          rep.status[i] == CellStatus::kRecovered;
    const int d = std::abs(codes[i] - ref[i]);
    if (d != 0) ++off_ref;
    if (!measured || d > 1) ++failed;
  }
  if (failed > 0) {
    out.violate(std::string(what) + ": " + std::to_string(failed) +
                " cell(s) unmeasurable or more than 1 code off the 5 ps "
                "reference");
  }
  if (first_codes.empty()) {
    first_codes = codes;
  } else if (codes != first_codes) {
    out.violate(std::string(what) + ": codes differ between repetitions");
  }
  return failed;
}

struct Setup {
  ecms::edram::MacroCell mc;
  double setup_s;
  std::size_t setup_samples;
};

/// Builds the array and its request several times; the median is setup_s.
Setup build_setup() {
  constexpr int kSetups = 101;
  std::vector<double> t;
  std::optional<ecms::edram::MacroCell> mc;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = now_s();
    mc.emplace(ecms::serve::build_array(array16_spec()));
    const ext::ExtractRequest req = array16_request(nullptr, kJobs);
    t.push_back(now_s() - t0);
    (void)req;
  }
  return {std::move(*mc), median(t), t.size()};
}

}  // namespace

ecms::serve::ArraySpec array16_spec() {
  ecms::serve::ArraySpec s;
  s.rows = 16;
  s.cols = 16;
  s.seed = 7;
  s.gradient = 0.3;
  return s;
}

std::vector<int> array16_reference(Outcome& out) {
  const ecms::serve::ArraySpec spec = array16_spec();
  std::vector<int> ref = load_reference(spec.rows, spec.cols);
  if (ref.empty()) {
    out.violate("missing or malformed reference " + reference_path());
    ref.assign(spec.rows * spec.cols, -100);
  }
  return ref;
}

void measure_array16(const Options& o, Outcome& out) {
  const Setup setup = build_setup();
  const ecms::edram::MacroCell& mc = setup.mc;
  const std::vector<int> ref = array16_reference(out);
  const std::size_t cells = mc.cell_count();

  std::vector<double> walls;
  std::vector<int> first;
  std::size_t off_ref = 0;
  BusySampler busy;
  busy.start();
  const double t0 = now_s(), c0 = process_cpu_s();
  while (walls.size() < 3 || now_s() - t0 < o.seconds) {
    circuit::ProgramCache cache;  // cold: a one-shot run compiles every time
    const ext::ExtractRequest req = array16_request(&cache, kJobs);
    const double r0 = now_s();
    const ext::ExtractReport rep = ext::extract(mc, req);
    walls.push_back(now_s() - r0);
    out.attempted += cells;
    out.failed += check_report(rep, ref, first, off_ref, out, "array16");
  }
  const double cpu = process_cpu_s() - c0;
  out.peak_busy_threads = busy.stop();

  // Rates come from the median repetition, so one repetition slowed by a
  // neighbour on the host does not move them.
  const double reps = static_cast<double>(walls.size());
  const double per_call = median(walls);
  std::vector<double> ms;
  for (const double w : walls) ms.push_back(1e3 * w);
  const Tail tail = tail_percentile(ms, 99.0);

  out.add("setup_s", setup.setup_s, "s", setup.setup_samples,
          "median build of the array and its request");
  out.add("cells_per_s", cells / per_call, "cells/s", walls.size(),
          "over the median extract call");
  out.add("cpu_ms_per_cell", 1e3 * cpu / (reps * cells), "ms",
          walls.size(), "process CPU over the timed repetitions");
  out.add("cells_off_ref", static_cast<double>(off_ref), "count", 1,
          "codes that differ from the 5 ps reference");
  out.add("p50_ms", median(ms), "ms", ms.size(), "wall of one extract call");
  out.add("p99_ms", tail.value, "ms", ms.size(),
          "reported percentile " + tail.name() + " (" +
              std::to_string(tail.beyond) + " samples beyond)");
  out.add("capacity_rps", 1.0 / per_call, "1/s", walls.size(),
          "extract calls per second, one at a time");
  out.add("units_per_s", (cells / (kTile * kTile)) / per_call, "1/s",
          walls.size(), "4x4 tiles (one structure each) per second");
  out.add("peak_rss_mb", peak_rss_mb(false), "MB");
}

namespace {

/// Times the public solver entry points on the cell+structure netlist of
/// one 4x4 tile — the system every cell transient of this workload solves.
struct KernelProbe {
  double assemble_us = 0, refactor_us = 0, solve_us = 0;
  double batch_refactor_us_per_lane = 0, batch_solve_us_per_lane = 0;
  std::size_t reps = 0;
};

KernelProbe probe_kernels(const ecms::edram::MacroCell& tile) {
  circuit::Circuit ckt;
  const ecms::edram::ArrayNet array = ecms::edram::build_array(ckt, tile);
  ecms::msu::build_structure(ckt, array.plate, tile.tech(), {});
  ckt.finalize();
  const std::size_t n = ckt.unknown_count();
  std::vector<double> x(n, 0.0);
  circuit::StampContext ctx;
  ctx.x = x;
  constexpr double kGmin = 1e-12;
  constexpr int kReps = 400;

  auto time_us = [&](auto&& fn) {
    std::vector<double> per;
    for (int block = 0; block < 5; ++block) {
      const double t0 = now_s();
      for (int r = 0; r < kReps / 5; ++r) fn();
      per.push_back(1e6 * (now_s() - t0) / (kReps / 5));
    }
    return median(per);
  };

  KernelProbe p;
  p.reps = kReps;
  circuit::SparseEngine eng(n);
  eng.begin_point();
  eng.assemble(ckt, ctx, kGmin);  // discovery pass
  eng.factor();                   // symbolic factorization
  std::vector<double> xs(n, 0.0);
  p.assemble_us = time_us([&] { eng.assemble(ckt, ctx, kGmin); });
  p.refactor_us = time_us([&] { eng.factor(); });
  p.solve_us = time_us([&] { eng.solve(xs); });

  const std::size_t w = circuit::kernels::preferred_width();
  const circuit::LuSymbolic& sy = *eng.lu_symbolic();
  const std::size_t nnz = eng.matrix().nnz();
  std::vector<double> a(nnz * w), l(sy.l_cols.size() * w),
      u(sy.u_cols.size() * w), work(n * w), pb(n * w), pb_src(n * w);
  const auto av = eng.matrix().values();
  const auto rv = eng.rhs();
  for (std::size_t lane = 0; lane < w; ++lane) {
    for (std::size_t k = 0; k < nnz; ++k) a[k * w + lane] = av[k];
    for (std::size_t i = 0; i < n; ++i) {
      pb_src[i * w + lane] = rv[sy.perm_row[i]];
    }
  }
  const circuit::kernels::Kernels& kk = circuit::kernels::active();
  const double lanes = static_cast<double>(w);
  p.batch_refactor_us_per_lane =
      time_us([&] { kk.refactor(sy, a.data(), l.data(), u.data(),
                                work.data(), w); }) /
      lanes;
  // The solve runs in place, so every repetition reloads the permuted
  // right-hand side; the reload is timed on its own and subtracted.
  const double reload_us =
      time_us([&] { kk.copy(pb.data(), pb_src.data(), n * w); });
  const double solve_us = time_us([&] {
    kk.copy(pb.data(), pb_src.data(), n * w);
    kk.solve(sy, l.data(), u.data(), pb.data(), w);
  });
  p.batch_solve_us_per_lane = std::max(0.0, solve_us - reload_us) / lanes;
  return p;
}

std::uint64_t counter(const ecms::obs::MetricsSnapshot& s,
                      const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

}  // namespace

void trace_array16(const Options& o, bool full, Outcome& out) {
  namespace obs = ecms::obs;
  const ecms::edram::MacroCell mc = ecms::serve::build_array(array16_spec());
  const std::vector<int> ref = array16_reference(out);
  const std::size_t cells = mc.cell_count();
  const double t_begin = now_s();

  // 1. Tile by tile, serially, through msu::extract_array with the plan
  //    extraction::extract builds: tile times, and counts that repeat
  //    exactly (no concurrent program-cache races).
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  std::vector<double> tile_s;
  double serial_busy_s = 0.0;
  {
    circuit::ProgramCache cache;
    const ext::ExtractRequest req = array16_request(&cache, 1);
    ecms::msu::ExtractPlan plan;
    plan.timing = req.timing;
    plan.options = req.options;
    plan.batch_width = req.batch_width;
    plan.retry = req.retry;
    plan.contain = req.contain;
    for (std::size_t tr = 0; tr < mc.rows(); tr += kTile) {
      for (std::size_t tc = 0; tc < mc.cols(); tc += kTile) {
        const ecms::edram::MacroCell tile = mc.tile(tr, tc, kTile, kTile);
        const double t0 = now_s();
        const ecms::msu::RobustExtraction rx =
            ecms::msu::extract_array(tile, req.params, plan);
        tile_s.push_back(now_s() - t0);
        out.attempted += rx.results.size();
        for (std::size_t i = 0; i < rx.results.size(); ++i) {
          const std::size_t r = tr + i / kTile, c = tc + i % kTile;
          if (std::abs(rx.results[i].code - ref[r * mc.cols() + c]) > 1 ||
              rx.status[i] == CellStatus::kUnmeasurable) {
            ++out.failed;
            out.violate("array16 tile pass: cell (" + std::to_string(r) +
                        "," + std::to_string(c) + ") failed");
          }
        }
      }
    }
    serial_busy_s = std::accumulate(tile_s.begin(), tile_s.end(), 0.0);
  }
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  obs::set_metrics_enabled(false);

  // 2. Whole-array repetitions, alternating untraced and traced, for the
  //    span split and the tracing overhead.
  std::vector<double> plain_s, traced_s;
  std::vector<int> first;
  std::size_t off_ref = 0;
  double circuit_self = 0, msu_self = 0, tile_busy = 0;
  ext::ExtractReport::Telemetry telemetry;
  const std::vector<std::string> circuit_spans = {
      "transient", "transient_resume", "batch_advance", "dc_operating_point"};
  const std::vector<std::string> msu_spans = {
      "extract_array", "extract_array_batch", "extract_cell",
      "adaptive_extract", "adaptive_probe", "recovery_rung"};
  const double reps_until = now_s() + (full ? o.seconds - (now_s() - t_begin)
                                            : 0.0);
  while (traced_s.empty() || now_s() < reps_until) {
    for (const bool traced : {false, true}) {
      if (!traced && !full) continue;  // overhead only on the full pass
      circuit::ProgramCache cache;
      const ext::ExtractRequest req = array16_request(&cache, kJobs);
      if (traced) {
        obs::set_metrics_enabled(true);
        obs::start_tracing();
      }
      const double r0 = now_s();
      const ext::ExtractReport rep = ext::extract(mc, req);
      const double wall = now_s() - r0;
      out.attempted += cells;
      out.failed += check_report(rep, ref, first, off_ref, out,
                                 traced ? "array16 traced" : "array16");
      if (!traced) {
        plain_s.push_back(wall);
        continue;
      }
      obs::stop_tracing();
      obs::set_metrics_enabled(false);
      traced_s.push_back(wall);
      telemetry = rep.telemetry;
      const auto events = obs::collected_trace_events();
      const auto self = self_time_ns(events);
      circuit_self += self_seconds(events, self, circuit_spans);
      msu_self += self_seconds(events, self, msu_spans);
      for (const auto& e : events) {
        if (e.name == "extract_tile") tile_busy += 1e-9 * e.dur_ns;
      }
    }
  }
  const double n_traced = static_cast<double>(traced_s.size());
  const double traced_wall =
      std::accumulate(traced_s.begin(), traced_s.end(), 0.0);
  const double thread_time = kBusyThreads * traced_wall;
  const double iterations = static_cast<double>(
      counter(snap, "circuit.newton.iterations"));

  const KernelProbe kp = probe_kernels(mc.tile(0, 0, kTile, kTile));
  const double fallback_frac =
      iterations > 0
          ? counter(snap, "circuit.batch.scalar_fallbacks") / iterations
          : 0.0;
  const double lu_us =
      counter(snap, "circuit.lu.numeric") *
          ((1 - fallback_frac) * kp.batch_refactor_us_per_lane +
           fallback_frac * kp.refactor_us) +
      iterations * ((1 - fallback_frac) * kp.batch_solve_us_per_lane +
                    fallback_frac * kp.solve_us);
  const auto hist = snap.histograms.find("msu.adaptive.probes_per_cell");

  out.add("circuit.transient.accepted_steps",
          static_cast<double>(telemetry.transient_steps), "count", 1,
          "per extract call (ExtractReport telemetry)");
  out.add("circuit.transient.prefix_steps",
          static_cast<double>(telemetry.prefix_steps), "count");
  out.add("circuit.newton.iterations_per_step",
          iterations / static_cast<double>(
                           counter(snap, "circuit.transient.accepted_steps")),
          "iter/step", 1, "tile pass");
  out.add("circuit.lu.numeric",
          static_cast<double>(counter(snap, "circuit.lu.numeric")), "count",
          1, "tile pass");
  out.add("circuit.lu.symbolic",
          static_cast<double>(counter(snap, "circuit.lu.symbolic")), "count",
          1, "tile pass");
  const double hits = static_cast<double>(counter(snap, "circuit.program.hits"));
  const double misses =
      static_cast<double>(counter(snap, "circuit.program.misses"));
  out.add("circuit.program.hit_frac", hits / std::max(1.0, hits + misses),
          "frac", 1, "tile pass");
  out.add("circuit.batch.lanes",
          static_cast<double>(counter(snap, "circuit.batch.lanes")), "count",
          1, "tile pass");
  out.add("circuit.batch.scalar_fallback_frac", fallback_frac, "frac", 1,
          "scalar factor+solve share of Newton iterations, tile pass");
  out.add("circuit.transient.self_s", circuit_self / n_traced, "s",
          traced_s.size(), "thread-seconds per extract call");
  out.add("circuit.assemble_us", kp.assemble_us, "us", kp.reps);
  out.add("circuit.lu_refactor_us", kp.refactor_us, "us", kp.reps);
  out.add("circuit.lu_solve_us", kp.solve_us, "us", kp.reps);
  out.add("circuit.batch.refactor_us_per_lane", kp.batch_refactor_us_per_lane,
          "us", kp.reps);
  out.add("circuit.batch.solve_us_per_lane", kp.batch_solve_us_per_lane, "us",
          kp.reps);
  out.add("circuit.lu.est_busy_frac", 1e-6 * lu_us / serial_busy_s, "frac", 1,
          "estimated: probe times x counts over tile-pass busy time");
  out.add("circuit.assemble.est_busy_frac",
          1e-6 * iterations * kp.assemble_us / serial_busy_s, "frac", 1,
          "estimated: probe time x Newton iterations over tile-pass busy time");
  out.add("msu.adaptive.probes_per_cell",
          hist == snap.histograms.end() ? 0.0 : hist->second.mean(), "count",
          1, "tile pass");
  out.add("msu.adaptive.fallbacks",
          static_cast<double>(counter(snap, "msu.adaptive.fallbacks")),
          "count", 1, "tile pass");
  out.add("msu.tile_s.p50", median(tile_s), "s", tile_s.size());
  out.add("msu.tile_s.max", *std::max_element(tile_s.begin(), tile_s.end()),
          "s", tile_s.size());
  out.add("util.pool.idle_frac", 1.0 - tile_busy / thread_time, "frac",
          traced_s.size(), "3 busy threads");
  out.add("array16.unattributed_frac",
          (tile_busy - circuit_self - msu_self) / thread_time, "frac",
          traced_s.size(),
          "tile time outside circuit and msu spans, over thread time");
  if (full) {
    out.add("trace_overhead_frac", median(traced_s) / median(plain_s) - 1.0,
            "frac", traced_s.size(),
            "traced over untraced extract wall, minus 1");
  }
}

int make_array16_reference(const std::string& path, std::size_t jobs) {
  const ecms::edram::MacroCell mc = ecms::serve::build_array(array16_spec());
  circuit::ProgramCache cache;
  ext::ExtractRequest req = array16_request(&cache, jobs);
  req.options.dt = 5e-12;
  const ext::ExtractReport rep = ext::extract(mc, req);
  for (const CellStatus s : rep.status) {
    if (s == CellStatus::kUnmeasurable) {
      std::fprintf(stderr, "reference: a cell is unmeasurable\n");
      return 1;
    }
  }
  std::ofstream out(path);
  out << "# array16 reference: 5 ps fixed-step code map (circuit engine).\n"
         "# Array: serve::build_array rows=16 cols=16 seed=7 gradient=0.3,\n"
         "# default defect rates; 4x4 tiles, adaptive scheduling on (codes\n"
         "# are identical to the exhaustive ramp by construction).\n"
         "# Regenerate from the repo root:\n"
         "#   python3 perfbench/run.py --make-reference\n";
  out << "rows " << mc.rows() << " cols " << mc.cols() << "\n";
  for (std::size_t r = 0; r < mc.rows(); ++r) {
    for (std::size_t c = 0; c < mc.cols(); ++c) {
      out << (c ? " " : "") << rep.bitmap.codes()[r * mc.cols() + c];
    }
    out << "\n";
  }
  return out ? 0 : 1;
}

}  // namespace perfbench
