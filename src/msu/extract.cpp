#include "msu/extract.hpp"

#include <algorithm>
#include <cmath>

#include "msu/batch_extract.hpp"

#include "circuit/mosfet.hpp"
#include "circuit/sources.hpp"
#include "edram/netlister.hpp"
#include "msu/fastmodel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace ecms::msu {

namespace {

// Transient parameters of the measurement flow up to `t_stop`: UIC start
// (the flow's own step 1 establishes the real initial state) and the step
// grown through the charge/share prefix.
circuit::TranParams flow_params(const Schedule& s,
                                const ExtractOptions& options, double t_stop) {
  circuit::TranParams tp;
  tp.t_stop = t_stop;
  tp.dt = options.dt;
  tp.grow_until = s.t_ramp_start;
  tp.grow_cap = options.prefix_step_cap;
  tp.newton = options.newton;
  tp.uic = true;
  return tp;
}

// Accepted steps recorded in `trace` up to and including time `t` (the
// t = 0 sample is not a step). Valid because the solver records exactly one
// sample per accepted step.
std::size_t steps_until(const circuit::Trace& trace, double t) {
  const auto& ts = trace.times();
  const auto n = static_cast<std::size_t>(
      std::upper_bound(ts.begin(), ts.end(), t + 1e-15) - ts.begin());
  return n > 0 ? n - 1 : 0;
}

// Runs the adaptive scheduler for one cell: charge/share prefix once with a
// checkpoint at the ramp start, then binary-search "has OUT flipped by the
// end of ramp level k" over checkpoint restarts that lazily extend the
// simulated staircase, stopping at the flip. Returns true with `res` fully
// decided, or false with `why` set — in which case the caller runs the
// exhaustive ramp and `res` is left untouched except for the accumulated
// adaptive probe count.
bool try_adaptive(circuit::Circuit& ckt, const edram::MacroCell& mc,
                  const StructureNet& msu_net, const StructureParams& params,
                  const MeasurementTiming& timing,
                  const ExtractOptions& options, ExtractionResult& res,
                  std::string& why) {
  obs::ScopedSpan span("adaptive_extract");
  const Schedule& s = res.schedule;
  const double vdd = mc.tech().vdd;

  // Steps 1-4 once, snapshotting the solver where the ramp would begin.
  circuit::TranParams tp = flow_params(s, options, s.t_ramp_start);
  tp.checkpoint_at = s.t_ramp_start;
  circuit::ProbeSet probes;
  probes.nodes = {"plate", "msu_vgs", "msu_sense", "msu_out"};
  probes.device_currents = {msu_net.irefp_source};

  circuit::TranResult pre;
  try {
    pre = circuit::transient(ckt, tp, probes);
  } catch (const SolverError&) {
    why = "prefix transient did not converge (recovery ladder takes over)";
    return false;
  }

  const double vdd_half = vdd / 2.0;
  if (pre.trace.final_value("msu_out") > vdd_half) {
    why = "OUT already high before the ramp (monotone threshold violated)";
    return false;
  }

  res.prefix_steps = pre.stats.accepted_steps;
  res.stats = pre.stats;
  res.v_plate_charged = pre.trace.value_at("plate", s.t_charge_end);
  res.vgs_shared = pre.trace.value_at("msu_vgs", s.t_ramp_start - 0.2e-9);

  // Model-guided first guess: the reference transistor sinks
  // mos_ids(vgs_shared) — the flip boundary sits where k * delta_i crosses
  // it. The guess only seeds the search; correctness never depends on it.
  const circuit::MosParams ref_params =
      mc.tech().nmos(params.ref_w, params.ref_l);
  const double i_sink =
      circuit::mos_ids(ref_params, std::max(res.vgs_shared, 0.0), vdd_half);
  const int guess = std::clamp(
      static_cast<int>(std::floor(i_sink / res.delta_i)), 0, s.ramp_steps);
  res.adaptive.guess = guess;

  const double step_duration = timing.step / static_cast<double>(s.ramp_steps);
  circuit::ProbeSet out_probe;
  out_probe.nodes = {"msu_out"};

  // The staircase is never reprogrammed: each restart resumes it from the
  // last snapshot, so the chained trajectory is bit-identical to the
  // uninterrupted exhaustive run (the checkpoint contract) and the flip
  // time feeds the exact same decode. The code is path-dependent — the
  // sense node integrates charge while ramping through sub-threshold
  // levels — which is why a held-level probe cannot stand in for the ramp.
  circuit::SolverCheckpoint at = std::move(pre.checkpoint);
  std::optional<double> t_flip;
  int level_done = 0;

  auto extend_to = [&](double target) {
    circuit::TranParams pp = tp;
    pp.t_stop = target;
    pp.checkpoint_at = target;
    circuit::TranResult tr = circuit::transient_resume(ckt, at, pp, out_probe);
    res.stats.accepted_steps += tr.stats.accepted_steps;
    res.stats.rejected_steps += tr.stats.rejected_steps;
    res.stats.newton_iterations += tr.stats.newton_iterations;
    if (!t_flip) {
      t_flip = circuit::first_crossing(tr.trace, "msu_out", vdd_half,
                                       circuit::Edge::kRising);
    }
    at = std::move(tr.checkpoint);
  };

  // probe(k): has OUT flipped by the end of ramp level k's dwell? Extends
  // the simulated staircase one level-restart at a time and stops the
  // moment the flip appears; levels at or below the deepest one already
  // simulated are answered from the recorded trajectory for free.
  auto probe = [&](int k) {
    obs::ScopedSpan probe_span("adaptive_probe");
    probe_span.arg("level", static_cast<double>(k));
    ++res.adaptive.probes;
    while (!t_flip && level_done < k) {
      ++level_done;
      extend_to(s.t_ramp_start +
                static_cast<double>(level_done) * step_duration);
    }
    return t_flip.has_value() &&
           *t_flip <= s.t_ramp_start +
                          static_cast<double>(k) * step_duration + 1e-15;
  };

  int bracket = -1;
  try {
    bracket = schedule_ramp_search(s.ramp_steps, guess,
                                   options.adaptive.max_probes, probe);
    if (bracket >= 0 && !t_flip) {
      // No flip during the staircase proper: run the tail so a late flip
      // (or full-scale code) decodes exactly as the exhaustive run would.
      extend_to(s.t_end);
    }
  } catch (const SolverError&) {
    why = "probe transient did not converge";
    return false;
  }
  if (bracket < 0) {
    why = "probe budget exhausted before the bracket closed";
    return false;
  }

  res.code = t_flip.has_value() ? s.code_of_flip_time(*t_flip)
                                : s.code_no_flip();
  res.t_out_rise = t_flip;
  res.status = CellStatus::kOk;
  res.adaptive.used = true;
  ECMS_METRIC_COUNT("msu.adaptive.cells", 1);
  ECMS_METRIC_COUNT("msu.adaptive.probes", res.adaptive.probes);
  ECMS_METRIC_OBSERVE("msu.adaptive.probes_per_cell",
                      static_cast<double>(res.adaptive.probes));
  if (options.record_trace) res.trace = std::move(pre.trace);
  return true;
}

}  // namespace

ExtractionResult extract_cell(const edram::MacroCell& mc, std::size_t row,
                              std::size_t col, const StructureParams& params,
                              const MeasurementTiming& timing,
                              const ExtractOptions& options) {
  ECMS_REQUIRE(row < mc.rows() && col < mc.cols(), "target cell out of range");
  obs::ScopedSpan span("extract_cell");
  span.arg("row", static_cast<double>(row));
  span.arg("col", static_cast<double>(col));

  circuit::Circuit ckt;
  const edram::ArrayNet array = edram::build_array(ckt, mc);
  const StructureNet msu =
      build_structure(ckt, array.plate, mc.tech(), params);

  double delta_i = options.delta_i;
  if (delta_i <= 0.0) {
    const FastModel design(mc, params);
    delta_i = design.delta_i();
  }
  ExtractionResult res;
  res.delta_i = delta_i;
  res.schedule = program_measurement(ckt, array, msu, mc, row, col, delta_i,
                                     params, timing);

  if (options.adaptive.enabled) {
    res.adaptive.attempted = true;
    std::string why;
    if (options.newton.hooks != nullptr) {
      why = "fault injection armed for this cell";
    } else if (try_adaptive(ckt, mc, msu, params, timing, options, res, why)) {
      ECMS_LOG(LogLevel::kDebug)
          << "extract (" << row << "," << col << "): code=" << res.code
          << " adaptive probes=" << res.adaptive.probes
          << " steps=" << res.stats.accepted_steps;
      ECMS_METRIC_COUNT("msu.cells.ok", 1);
      return res;
    }
    res.adaptive.used = false;
    res.adaptive.fell_back = true;
    res.adaptive.fallback_reason = why;
    ECMS_METRIC_COUNT("msu.adaptive.fallbacks", 1);
    ECMS_LOG(LogLevel::kDebug) << "extract (" << row << "," << col
                               << "): adaptive fallback: " << why;
    // The exhaustive path below re-runs the whole flow from scratch, so a
    // fallback result is bit-identical to a never-adaptive run.
    res.stats = {};
    res.prefix_steps = 0;
  }

  const circuit::TranParams tp =
      flow_params(res.schedule, options, res.schedule.t_end);

  circuit::ProbeSet probes;
  probes.nodes = {"plate", "msu_vgs", "msu_sense", "msu_out"};
  probes.device_currents = {msu.irefp_source};

  circuit::TranResult tr = circuit::transient_with_recovery(
      ckt, tp, probes, options.recovery, &res.recovery);
  res.status = res.recovery.recovered() ? CellStatus::kRecovered
                                        : CellStatus::kOk;
  res.stats = tr.stats;
  res.prefix_steps = steps_until(tr.trace, res.schedule.t_ramp_start);
  if (res.status == CellStatus::kRecovered) {
    ECMS_METRIC_COUNT("msu.cells.recovered", 1);
  } else {
    ECMS_METRIC_COUNT("msu.cells.ok", 1);
  }

  res.v_plate_charged =
      tr.trace.value_at("plate", res.schedule.t_charge_end);
  // V_GS settles by the end of step 4; sample just before the ramp starts.
  res.vgs_shared =
      tr.trace.value_at("msu_vgs", res.schedule.t_ramp_start - 0.2e-9);

  const double vdd_half = mc.tech().vdd / 2.0;
  const auto flip =
      circuit::first_crossing(tr.trace, "msu_out", vdd_half,
                              circuit::Edge::kRising,
                              res.schedule.t_ramp_start - 0.1e-9);
  res.t_out_rise = flip;
  res.code = flip.has_value() ? res.schedule.code_of_flip_time(*flip)
                              : res.schedule.code_no_flip();

  ECMS_LOG(LogLevel::kDebug)
      << "extract (" << row << "," << col << "): code=" << res.code
      << " vgs=" << res.vgs_shared << " steps=" << res.stats.accepted_steps;

  if (options.record_trace) res.trace = std::move(tr.trace);
  return res;
}

RobustExtraction extract_array(const edram::MacroCell& mc,
                               const StructureParams& params,
                               const ExtractPlan& plan) {
  obs::ScopedSpan span("extract_array");
  span.arg("rows", static_cast<double>(mc.rows()));
  span.arg("cols", static_cast<double>(mc.cols()));
  // Design the ramp once so every cell is converted against the same LSB
  // (as the shared silicon would).
  ExtractOptions opts = plan.options;
  if (opts.delta_i <= 0.0) {
    const FastModel design(mc, params);
    opts.delta_i = design.delta_i();
  }
  // Lockstep batching measures chunks of cells through one shared compiled
  // program; lanes that cannot keep lockstep fall back to the scalar path
  // below per cell, so results are identical either way.
  if (plan.batch_width != 1 && batch_engageable(plan)) {
    const std::size_t w = resolved_batch_width(plan.batch_width);
    if (w >= 2) return extract_array_batched(mc, params, plan, opts, w);
  }
  // With no containment, no retries and no hook there is nothing between
  // the caller and the per-cell solve: let the original exception escape.
  const bool plain = !plan.contain && plan.retry.max_attempts <= 1 &&
                     plan.cell_hook == nullptr;

  RobustExtraction out;
  out.results.reserve(mc.cell_count());
  out.status.reserve(mc.cell_count());
  out.report.cells_total = mc.cell_count();
  for (std::size_t r = 0; r < mc.rows(); ++r) {
    for (std::size_t c = 0; c < mc.cols(); ++c) {
      ExtractionResult res;
      if (plain) {
        res = extract_cell(mc, r, c, params, plan.timing, opts);
      } else {
        const util::RetryResult rr =
            util::run_with_retry(plan.retry, [&](int attempt) {
              if (plan.cell_hook) plan.cell_hook(r, c, attempt);
              res = extract_cell(mc, r, c, params, plan.timing, opts);
            });
        if (!rr.ok) {
          if (!plan.contain) {
            throw MeasureError("cell (" + std::to_string(r) + "," +
                               std::to_string(c) +
                               ") unmeasurable: " + rr.last_error);
          }
          ECMS_METRIC_COUNT("msu.cells.unmeasurable", 1);
          ECMS_LOG(LogLevel::kInfo) << "cell (" << r << "," << c
                                    << ") unmeasurable: " << rr.last_error;
          ExtractionResult placeholder;
          placeholder.delta_i = opts.delta_i;
          placeholder.code =
              std::clamp(plan.unmeasurable_code, 0, params.ramp_steps);
          placeholder.status = CellStatus::kUnmeasurable;
          out.results.push_back(std::move(placeholder));
          out.status.push_back(CellStatus::kUnmeasurable);
          out.report.failures.push_back({r, c, rr.last_error});
          continue;
        }
        // A later attempt succeeding counts as a recovery even when the
        // winning solve itself never climbed the ladder.
        if (rr.recovered() && res.status == CellStatus::kOk)
          res.status = CellStatus::kRecovered;
      }
      if (res.status == CellStatus::kRecovered) ++out.report.recovered;
      out.status.push_back(res.status);
      out.results.push_back(std::move(res));
    }
  }
  return out;
}

std::vector<ExtractionResult> extract_all_cells(
    const edram::MacroCell& mc, const StructureParams& params,
    const MeasurementTiming& timing, const ExtractOptions& options) {
  ExtractPlan plan;
  plan.timing = timing;
  plan.options = options;
  plan.contain = false;
  plan.retry.max_attempts = 1;
  return std::move(extract_array(mc, params, plan).results);
}

RobustExtraction extract_all_cells_robust(const edram::MacroCell& mc,
                                          const StructureParams& params,
                                          const MeasurementTiming& timing,
                                          const ExtractOptions& options) {
  obs::ScopedSpan span("extract_all_cells_robust");
  span.arg("rows", static_cast<double>(mc.rows()));
  span.arg("cols", static_cast<double>(mc.cols()));
  ExtractPlan plan;
  plan.timing = timing;
  plan.options = options;
  plan.contain = true;
  plan.retry.max_attempts = 1;
  return extract_array(mc, params, plan);
}

}  // namespace ecms::msu
