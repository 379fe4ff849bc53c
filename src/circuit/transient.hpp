// Transient analysis.
//
// Step sizes follow a StepSchedule — a base step, optionally grown
// geometrically inside a leading time window — with: breakpoint alignment
// (steps land exactly on every stimulus corner), step halving on Newton
// failure with geometric recovery, and a backward-Euler step immediately
// after each breakpoint to damp trapezoidal ringing at discontinuities.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/newton.hpp"
#include "circuit/waveform.hpp"

namespace ecms::circuit {

/// Complete solver state at one accepted time point: everything needed to
/// continue the integration bit-identically in a later transient_resume()
/// call — possibly after the circuit's source waves have been reprogrammed
/// (the intended use: simulate an expensive stimulus prefix once, then
/// branch many cheap continuations off the snapshot).
///
/// A checkpoint is tied to the Circuit it was captured from: the unknown
/// vector and the per-device history blob are validated against the
/// circuit's unknown/device counts on resume, but the caller is responsible
/// for not mutating the topology in between.
struct SolverCheckpoint {
  double time = -1.0;   ///< capture time (s); < 0 marks "not captured"
  double dt = 0.0;      ///< step size the next step would have used
  bool force_be = false;  ///< next step forced to backward Euler?
  std::vector<double> x;             ///< unknown vector at `time`
  std::vector<double> device_state;  ///< concatenated Device::save_state blobs
  std::size_t device_count = 0;
  /// The pivot order the run was factoring with at `time` (shared and
  /// immutable; null if none was computed yet). The one piece of solver
  /// state derived from values: a resumed run factors with it, so it
  /// refactors exactly as the uninterrupted run, with or without the
  /// program cache.
  std::shared_ptr<const LuSymbolic> pivot_order;

  bool valid() const { return time >= 0.0 && !x.empty(); }
};

/// The step-size rule shared by run_transient and the lockstep BatchEngine
/// (DESIGN.md §9). Inside the growth window [0, grow_until) the step
/// restarts at `dt` after every stimulus breakpoint and doubles on each
/// accepted step up to `grow_cap` base steps; from the window end on it
/// holds `dt`. It reads only `dt`, the breakpoints, the window and the cap,
/// never solution values, so circuits with equal stimulus timing step on
/// one time grid whatever their element values. A Newton failure halves
/// the step (leaving the grid); accepted steps double it back.
struct StepSchedule {
  double dt = 10e-12;       ///< base step
  double grow_until = 0.0;  ///< growth window end (s); 0 = never grow
  double grow_cap = 1.0;    ///< largest grown step, in base steps

  /// Largest step the schedule allows from time t.
  double max_step(double t) const;
  /// Size of the step from t, given the running step size `cur`: a grown
  /// step never crosses the window end.
  double step_from(double t, double cur) const;
  /// Running step size after an accepted step that ended at t on no
  /// breakpoint (after a breakpoint it restarts at `dt`).
  double grow(double t, double cur) const {
    return std::min(2.0 * cur, max_step(t));
  }
};

struct TranParams {
  double t_stop = 0.0;
  double dt = 10e-12;          ///< base step
  double dt_min = 1e-15;       ///< refuse to halve below this
  Integrator method = Integrator::kTrapezoidal;
  NewtonOptions newton;
  bool be_after_breakpoint = true;
  /// Use initial conditions (SPICE .tran UIC): skip the DC operating point
  /// and start from x = 0 (all nodes grounded). This is the physically right
  /// start for measurement flows whose first step discharges everything, and
  /// it avoids the DC ambiguity of floating dynamic nodes (which otherwise
  /// settle in a leakage/gmin divider).
  bool uic = false;
  /// Step growth window and cap (see StepSchedule); the defaults keep the
  /// fixed base step.
  double grow_until = 0.0;
  double grow_cap = 1.0;
  /// When >= 0, capture a SolverCheckpoint into TranResult::checkpoint at
  /// this time (clamped to t_stop). The step that would cross a mid-run
  /// capture time is shortened to land exactly on it, but the landing is
  /// not a breakpoint: it neither forces backward Euler nor restarts step
  /// growth. Capture times on the run's own grid (a stimulus corner, t_stop
  /// or any accepted time point) therefore leave the trajectory untouched.
  /// Negative (the default) disables capture.
  double checkpoint_at = -1.0;

  StepSchedule schedule() const { return {dt, grow_until, grow_cap}; }
};

/// What to record. Node and device probes are looked up by name at start.
struct ProbeSet {
  std::vector<std::string> nodes;            ///< node voltages
  std::vector<std::string> device_currents;  ///< Device::probe_current()
};

struct TranStats {
  std::size_t accepted_steps = 0;
  std::size_t rejected_steps = 0;
  std::size_t newton_iterations = 0;
};

struct TranResult {
  Trace trace;       ///< channels: nodes first, then "I(<device>)" entries
  TranStats stats;
  std::vector<double> final_x;  ///< final unknown vector
  /// Captured when params.checkpoint_at >= 0 (see SolverCheckpoint::valid()).
  SolverCheckpoint checkpoint;
};

/// Runs a transient from the DC operating point at t = 0. Throws
/// ecms::SolverError if a step cannot be made to converge above dt_min; the
/// exception carries SolverDiagnostics (failing time point, last step size,
/// accepted/rejected step and Newton iteration counts, worst node). For the
/// self-recovering entry point see circuit/recovery.hpp.
TranResult transient(Circuit& ckt, const TranParams& params,
                     const ProbeSet& probes);

/// Continues a transient from a checkpoint previously captured on the same
/// circuit. `params.t_stop` is absolute and must lie after `from.time`; the
/// probe set may differ from the capturing run's. The trace starts with a
/// sample at the checkpoint time, stats count only the resumed segment, and
/// `params.checkpoint_at` may be set to capture again. Source waves may have
/// been reprogrammed since capture — stepping follows the circuit's current
/// breakpoints — but the topology (unknown and device counts) must be
/// unchanged, which is validated. An uninterrupted run and a capture +
/// resume pair take bit-identical steps when the capture time lies on the
/// uninterrupted run's grid (a breakpoint or any accepted time point).
TranResult transient_resume(Circuit& ckt, const SolverCheckpoint& from,
                            const TranParams& params, const ProbeSet& probes);

}  // namespace ecms::circuit
