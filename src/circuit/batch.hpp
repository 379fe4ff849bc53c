// BatchEngine: lockstep Newton/transient driver for K cells sharing one
// NetlistProgram (DESIGN.md §14).
//
// Every cell of an array tile is the same netlist with different element
// values, so after the first cell publishes its compiled program (pattern,
// stamp tapes, pivot order) all K cells can be advanced through the same
// time grid together: per-lane node voltages and structure-of-arrays (SoA)
// matrix values, element (slot, lane) at [slot * K + lane], with the
// numeric refactorization, pivot-health check and triangular solves
// vectorized across lanes (circuit/kernels.hpp).
//
// Lane-native assembly: on the first point each lane's own SparseEngine
// runs discovery and the program-cache lookup (so circuit.program.*
// accounting is the scalar path's), and a lane that missed the cache
// bootstraps the program with one scalar solve. From then on the engines
// are idle: every lane is stamped straight into the SoA operands, device by
// device. MOSFETs and capacitors (nearly all stamps) walk all lanes per
// device through a SlotCursor over the program's premultiplied slots,
// sharing the scalar path's stamp bodies (Mosfet::stamp_eval_into & co.),
// so the add order per slot is the scalar one by construction; every other
// device goes through the verifying ReplayTape. A MOSFET's channel is
// evaluated for all step lanes in one kernels::ekv call over their gathered
// terminal voltages, bit-identical to mos_eval(), when every lane carries
// the same parameters bit for bit (decided at the join; cells of one array
// do), and one lane per call otherwise.
//
// Point-invariant work stays out of the per-point loop:
//  * Static matrix images. The SoA static image's matrix part depends only
//    on (dt, integrator, gmin), so the engine keeps the last
//    StaticImageCache::kCapacity images (static_image.hpp), each followed
//    by the lanes' companion conductances, which depend on the same key. A
//    point whose key was seen reuses its image and restamps the lanes'
//    static right-hand sides alone; a new key restamps the whole image, as
//    the scalar engine does. Each Newton iteration restores the image into
//    the kernel operand: in full (one kernels::copy) when the point's image
//    differs from the last one restored, else only the dynamic slots.
//  * SoA companion history. At the join every lane's capacitor and MOSFET
//    companions (c, v_prev, i_prev) move into arrays of one row per lane;
//    the static right-hand side and the per-step latch are computed from
//    them, device by device in stamp order, with the CapCompanion
//    expressions (stamp_state, latch, latch_open) the scalar path uses. A
//    lane's devices get their history back (restore_state) when it is
//    finished or retired, so its Circuit then holds exactly what a scalar
//    run to the same time would hold; until then the devices' own history
//    is stale.
//
// Precondition: lane circuits are immutable for the batch's lifetime (no
// device is added, removed, rewired or re-valued between construction and
// the last advance()). Each lane's coordinate streams are verified against
// the program once, when it joins; the lane loops rely on that.
//
// Pivot order: the batch rides the order carried by the cached program. A
// lane on any other order (a bootstrap lane that lost the publication race
// to another thread) retires to the scalar path, and so does a lane whose
// refactorization degrades under it (the scalar path would re-pivot).
//
// Identity: with no rejected steps, run_transient's StepSchedule is
// value-independent — time points are a pure function of (dt, growth
// window, cap, breakpoints) — so lanes genuinely share one (t, step,
// force_be) sequence, and advance() steps it through the same StepSchedule
// calls as the scalar transient. Per-lane Newton damping and convergence
// decisions are scalar replicas of newton_solve_impl over the SoA results.
// Anything that would make a lane's scalar trajectory diverge from the
// lockstep grid (a rejected step, pivot degradation, a non-finite update,
// a coordinate stream or pivot order that differs from the program)
// retires the lane: the caller re-measures it on the scalar path from
// scratch, which by construction reproduces what an all-scalar run would
// have produced. Lanes that complete here are bit-identical to the scalar
// sparse path.
//
// Counters: circuit.batch.{lanes,retired,divergences,scalar_fallbacks} plus
// per-lane equivalents of the scalar solver counters (newton/lu/assemble/
// transient) — the engine's own for discovery and the bootstrap solve, the
// lane-native restamps, static hits and refactors for the rest — flushed
// only for lanes that complete: a retired lane's partial work is dropped
// so its scalar re-measurement counts once.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "circuit/kernels.hpp"
#include "circuit/netlist.hpp"
#include "circuit/newton.hpp"
#include "circuit/static_image.hpp"
#include "circuit/transient.hpp"
#include "util/arena.hpp"

namespace ecms::circuit {

class BatchEngine {
 public:
  struct Options {
    /// Step rule; the base step is never halved.
    StepSchedule step = {.dt = 20e-12};
    Integrator method = Integrator::kTrapezoidal;
    NewtonOptions newton;                ///< solver.program_cache required
    bool be_after_breakpoint = true;
  };

  enum class LaneState {
    kActive,    ///< stepping in lockstep
    kFinished,  ///< trajectory decided by the caller; state frozen
    kRetired,   ///< left the batch; re-measure on the scalar path
  };

  struct LaneStats {
    std::size_t accepted_steps = 0;
    std::size_t newton_iterations = 0;
    std::size_t segments = 0;  ///< advance() calls this lane stepped in
  };

  /// Binds K lanes starting from the UIC initial condition (x = 0 at t = 0,
  /// device history initialized), the start every measurement flow uses.
  /// All lanes must have identical unknown/node counts; a mismatched lane
  /// is retired immediately. Requires a program cache in
  /// opts.newton.solver (the shared-compilation precondition) and no solve
  /// hooks (fault injection runs scalar).
  BatchEngine(std::span<Circuit* const> lanes, const Options& opts);
  ~BatchEngine();
  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  std::size_t width() const { return lanes_.size(); }
  LaneState state(std::size_t lane) const { return lanes_[lane].state; }
  /// Why a retired lane left the batch (empty for other states).
  const std::string& retire_reason(std::size_t lane) const {
    return lanes_[lane].reason;
  }
  const LaneStats& stats(std::size_t lane) const {
    return lanes_[lane].stats;
  }
  std::span<const double> x(std::size_t lane) const {
    return lanes_[lane].x;
  }
  /// Shared lockstep time (active lanes sit exactly here).
  double time() const { return t_; }
  std::size_t active_lanes() const;

  /// Marks a lane's trajectory decided: it stops stepping (and its pending
  /// solver counters are flushed), but keeps its accepted state, and its
  /// devices get their history back.
  void finish(std::size_t lane);

  /// Retires a lane from the batch: its pending counters are dropped, its
  /// devices get the history of its last accepted step back, and the
  /// caller must re-measure the cell on the scalar path. The engine
  /// calls this itself on any lockstep deviation; callers use it when a
  /// higher-level policy (e.g. an adaptive-scheduler fallback) would send
  /// the scalar path down a different flow. `divergence` marks numerical
  /// causes (counted as circuit.batch.divergences).
  void retire(std::size_t lane, std::string reason, bool divergence = false);

  /// Advances every active lane in lockstep to t_stop, replicating
  /// run_transient's stepping (breakpoint landing, post-breakpoint backward
  /// Euler, the StepSchedule; the running step size carries across calls
  /// as a checkpoint carries it across transient_resume).
  /// `on_sample(lane, t, x)` fires per active lane once at entry — the
  /// boundary sample a resumed scalar segment records — and once per
  /// accepted step. Lanes that cannot keep lockstep are
  /// retired, never stalled.
  void advance(double t_stop,
               const std::function<void(std::size_t, double,
                                        std::span<const double>)>& on_sample);

  /// The SoA static matrix images (hits and misses count per-point
  /// restamps after the join).
  const StaticImageCache& static_images() const { return images_; }

 private:
  /// How the lane-native assembly stamps one device across the lanes.
  struct DevPlan {
    DeviceKind kind = DeviceKind::kGeneric;
    bool nonlinear = false;
    std::uint32_t s_begin = 0, s_end = 0;  ///< static tape range
    std::uint32_t d_begin = 0, d_end = 0;  ///< dynamic tape range
    std::uint32_t k_begin = 0, k_end = 0;  ///< companion range
    /// MOSFET whose parameters are bit-identical on every lane: one
    /// kernels::ekv call evaluates all lanes, else one call per lane.
    bool shared_params = false;
  };

  /// One capacitor companion's terminals (the same on every lane).
  struct CompanionTerminals {
    NodeId a = kGround, b = kGround;
  };

  struct Lane {
    Circuit* ckt = nullptr;
    /// Discovery, cache lookup and a bootstrap solve on the first point;
    /// idle afterwards (its counters are flushed with the lane's).
    std::unique_ptr<SparseEngine> eng;
    std::vector<double> x, x_try, x_new;
    std::vector<double> b_static, b_work;  ///< this lane's RHS images
    StampContext ctx;                      ///< this point, x = x_try
    LaneState state = LaneState::kActive;
    std::string reason;
    LaneStats stats;
    /// Its companion history lives in the SoA arrays (joined, not yet
    /// written back).
    bool soa_history = false;
    // Point-solve scratch.
    bool unfinished = false;     ///< still iterating this point
    bool engine_solved = false;  ///< this iteration solved by the engine
    int point_iters = 0;
    // Pending per-lane obs counters, flushed on completion only.
    std::size_t points = 0;
    std::size_t iters = 0;
    std::size_t vector_refactors = 0;
    std::size_t restamps = 0;
    std::size_t static_hits = 0;
  };

  void flush_counters(Lane& lane);
  /// First point: per-lane discovery and cache lookup, the bootstrap solve
  /// of a lane that missed, then the join — pick the cached program, retire
  /// lanes on another order or coordinate stream, size the SoA operands.
  /// Returns false when no lane is left active.
  bool join();
  /// Selects this point's SoA static image (stamping it on a miss) and
  /// restamps the lanes' static RHS. `count` is false on the join point,
  /// whose restamp the lane engines' discovery already counted.
  void restamp_static(const StampContext& proto, bool count);
  /// The full static restamp of every lane's matrix column into a new
  /// image for `key`, the right-hand sides to scratch; then the companion
  /// conductances of the key.
  const double* stamp_static_matrix(const StampContext& proto,
                                    const StaticImageKey& key);
  /// The lanes' static right-hand sides: companions from the SoA history,
  /// every other device through the verifying tape.
  void stamp_static_rhs(const StampContext& proto);
  /// Latches the SoA history of every active lane after an accepted step
  /// (and calls the other devices' accept_step).
  void accept_step(const StampContext& proto);
  /// Hands a lane's SoA history back to its devices.
  void write_back(std::size_t lane);
  /// Restores the static image and stamps the dynamic (iterate-dependent)
  /// part of every lane in step_lanes_.
  void stamp_dynamic();
  /// newton_solve_impl's damped update + convergence test for one lane.
  void newton_update(std::size_t lane, int iter);
  /// One lockstep Newton point over all unfinished lanes; retires lanes
  /// that fail. Returns false when no lane is left active.
  bool solve_point(const StampContext& ctx_proto);

  Options opts_;
  std::size_t n_ = 0;   ///< unknowns per lane
  std::size_t nv_ = 0;  ///< voltage unknowns per lane
  std::vector<Lane> lanes_;
  util::Arena arena_;
  /// The cached program the batch rides (null until the join).
  std::shared_ptr<const NetlistProgram> prog_;
  std::vector<DevPlan> plans_;             ///< per device, stamp order
  std::vector<std::uint32_t> dyn_devs_;    ///< nonlinear device indices
  std::vector<std::uint32_t> generic_devs_;  ///< kGeneric device indices
  /// Companion history, [lane * comps_ + companion], companions in device
  /// stamp order: each lane's restamp and latch walk their own contiguous
  /// rows.
  std::vector<CompanionTerminals> comps_;
  std::vector<double> comp_c_, comp_v_, comp_i_;
  /// [device * width + lane]: the lane's Mosfet (null for other devices
  /// and lanes retired before the join), one load instead of a walk
  /// through the lane's circuit in the per-iteration loops.
  std::vector<const Mosfet*> mosfets_;
  // The program's tape slots premultiplied by the width.
  std::vector<std::uint32_t> static_slots_w_, dynamic_slots_w_;
  std::vector<std::size_t> step_lanes_;  ///< lanes solved this iteration
  std::vector<std::size_t> point_lanes_;  ///< active lanes at this point
  std::vector<std::uint8_t> degraded_;   ///< pivot_health flags per lane
  /// Static images, this point's among them: the SoA matrix (nnz * width)
  /// followed by the companion conductances ([lane * comps_ + companion]).
  StaticImageCache images_;
  const double* static_image_ = nullptr;
  /// The image a_soa_ was last fully restored from: while the points keep
  /// it, an iteration restores only the dynamic slots (dyn_slots_w_,
  /// premultiplied, each once).
  const double* restored_image_ = nullptr;
  std::vector<std::uint32_t> dyn_slots_w_;
  /// Sinks of the static restamp's discarded halves: one lane's matrix
  /// column (program slots) and right-hand side.
  std::vector<double> matrix_scratch_, rhs_scratch_;
  // SoA kernel operands, [slot * width + lane].
  util::ArenaBuf<double> a_soa_, l_soa_, u_soa_, work_soa_, pb_soa_;
  /// kernels::MosLanes' nine arrays of `width` doubles, back to back.
  static constexpr std::size_t kMosLanesArrays = 9;
  util::ArenaBuf<double> mos_soa_;
  double t_ = 0.0;
  double dt_ = 0.0;  ///< running step size
  bool force_be_ = true;
  bool first_advance_ = true;
};

}  // namespace ecms::circuit
