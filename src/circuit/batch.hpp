// BatchEngine: lockstep Newton/transient driver for K cells sharing one
// NetlistProgram (DESIGN.md §14).
//
// Every cell of an array tile is the same netlist with different element
// values, so after the first cell publishes its compiled program (pattern,
// stamp tapes, pivot order) all K cells can be advanced through the same
// time grid together as the columns of structure-of-arrays (SoA) state,
// with the numeric refactorization, pivot-health check, triangular solves
// and MOSFET evaluation vectorized across lanes (circuit/kernels.hpp).
//
// Lane-major state: everything the lockstep loop touches per lane lives in
// arrays of one row per quantity and one column per lane, [row * w + col]
// — the layout of the kernel operands — so each per-slot operation is one
// lanewise loop across the columns:
//  * the iterate, one row per node (row 0 is a zero row standing in for
//    ground, so a MOSFET's terminal voltages are rows of it, read by
//    kernels::ekv in place, and a companion's voltage is a row difference);
//  * the static and working right-hand sides, stamped straight into the
//    row-permuted layout the triangular solves consume (pb), so there is
//    no per-lane gather or scatter around the LU; the Newton update reads
//    the solution from pb through the column permutation;
//  * the companion history (c, v_prev, i_prev) and, in each cached static
//    image, the companions' conductances.
// The damped Newton update (kernels::newton_update) is masked to the
// columns stepping this iteration, and it and the convergence test decide
// exactly as newton_solve_impl does, NaN handling included.
//
// Assembly: on the first point each lane's own SparseEngine runs discovery
// and the program-cache lookup (so circuit.program.* accounting is the
// scalar path's), and a lane that missed the cache bootstraps the program
// with one scalar solve. From then on the engines are idle. Per device in
// stamp order, every lane is stamped straight into the SoA operands with
// the scalar path's operations and add order per slot: a MOSFET's channel
// is one kernels::ekv call over all columns (when every lane carries the
// same parameters bit for bit, decided at the join; one column per call
// otherwise) and one kernels::mos_stamp; capacitor and MOSFET companions
// restamp and latch from the SoA history with the CapCompanion
// expressions (kernels::companion_rhs, companion_latch); voltage and
// current sources write their values into the right-hand-side rows (one
// SourceWave::value per point when every lane has the same wave). Other
// nonlinear devices stamp one lane at a time through the verifying
// ReplayTape, on a per-lane gathered copy of the iterate and right-hand
// side. On a static-image miss every lane's matrix column is stamped
// through a SlotCursor with the scalar path's templated stamp bodies, and
// generic devices through the verifying ReplayTape.
//
// Point-invariant work stays out of the per-point loop: the SoA static
// matrix image depends only on (dt, integrator, gmin), so the engine keeps
// the last StaticImageCache::kCapacity images (static_image.hpp), each
// followed by the companion conductances of the same key; a point whose
// key was seen restamps the static right-hand side alone. Each Newton
// iteration restores the image into the kernel operand: in full when the
// point's image differs from the last one restored, else only the dynamic
// slots. A lane's devices get their companion history back (restore_state)
// when it is finished or retired, so its Circuit then holds exactly what a
// scalar run to the same time would hold; until then the devices' own
// history is stale.
//
// Compaction: at each advance() entry the active lanes are repacked into
// the leading columns of every SoA array, the cached static images
// included, and the kernels and lane loops run at that active width, not
// the construction width. A column -> lane map keeps the public API (state,
// x, stats, retire, finish) on the caller's lane indices. Within one
// advance() the width is fixed: columns of lanes that converge, finish or
// retire mid-advance ride along (their results are never read).
//
// Precondition: lane circuits are immutable for the batch's lifetime (no
// device is added, removed, rewired or re-valued between construction and
// the last advance()). Each lane's coordinate streams, companion and
// source terminals and full breakpoint list are verified against the
// reference lane's once, when it joins; the lane loops rely on that.
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
// calls as the scalar transient. Newton damping and convergence decisions
// are lanewise replicas of newton_solve_impl's.
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
#include "circuit/wave.hpp"
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
  /// How a generic device's part of the static right-hand side is stamped
  /// (a lane with any other device type does not join).
  enum class GenericRhs : std::uint8_t {
    kNone,     ///< adds nothing to it (Resistor; Diode and VcSwitch, whose
               ///< stamp_static() is Device's empty default)
    kVSource,  ///< its branch row += the source value
    kISource,  ///< the source value leaves p and enters n
  };

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
    /// MOSFET terminals (the same on every lane: its companions span all
    /// four, and the join checks every companion's terminals) and its
    /// channel-companion stamp.
    NodeId g = kGround, d = kGround, s = kGround, b = kGround;
    kernels::MosStampPlan stamp;
    GenericRhs rhs = GenericRhs::kNone;
    /// Typed source: its index into sources_ and source_waves_.
    std::uint32_t source = 0;
  };

  /// A voltage or current source's right-hand-side rows (unknown indices,
  /// -1 for ground), the same on every lane.
  struct SourceRows {
    int plus = -1;   ///< VSource: its branch row; ISource: p (value leaves)
    int minus = -1;  ///< ISource: n (value enters); VSource: unused
    /// Every lane's wave has the same points bit for bit: one value() per
    /// point serves all lanes.
    bool shared = false;
  };

  struct Lane {
    Circuit* ckt = nullptr;
    /// Discovery, cache lookup and a bootstrap solve on the first point;
    /// idle afterwards (its counters are flushed with the lane's).
    std::unique_ptr<SparseEngine> eng;
    /// The last accepted iterate, this lane's copy (what x() and the
    /// samples hand out; the lockstep iterate is a column of xs_).
    std::vector<double> x;
    /// Its column in the SoA arrays (kNoColumn once compacted out).
    std::size_t col = 0;
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
  static constexpr std::size_t kNoColumn = static_cast<std::size_t>(-1);

  void flush_counters(Lane& lane);
  /// Repacks the active lanes into the leading columns of every SoA array
  /// and sets the width to their count.
  void compact();
  /// The program's tape slots premultiplied by the current width, and
  /// every per-column operand sized for it.
  void size_columns();
  /// First point: per-lane discovery and cache lookup, the bootstrap solve
  /// of a lane that missed, then the join — pick the cached program, retire
  /// lanes on another order, coordinate stream, companion or source
  /// terminals, size the SoA operands. Returns false when no lane is left
  /// active.
  bool join(const StampContext& proto);
  /// Selects this point's SoA static image (stamping it on a miss) and
  /// restamps the lanes' static RHS. `count` is false on the join point,
  /// whose restamp the lane engines' discovery already counted.
  void restamp_static(const StampContext& proto, bool count);
  /// The full static restamp of every lane's matrix column into a new
  /// image for `key`, the right-hand sides to scratch; then the companion
  /// conductances of the key.
  const double* stamp_static_matrix(const StampContext& proto,
                                    const StaticImageKey& key);
  /// The lanes' static right-hand sides, in pb layout: companions from the
  /// SoA history, sources from their waves.
  void stamp_static_rhs(const StampContext& proto);
  /// Latches the SoA history of every column after an accepted step, then
  /// the generic devices that keep step history (save_state non-empty).
  void accept_step(const StampContext& proto);
  /// Hands a lane's SoA history back to its devices.
  void write_back(std::size_t lane);
  /// Restores the static image and the static RHS into the kernel operands
  /// and stamps the dynamic (iterate-dependent) part of every column.
  void stamp_dynamic(const StampContext& proto);
  /// newton_solve_impl's damped update and convergence test for every
  /// column in step_, reading the new iterate from pb_soa_ at rows
  /// xn_row[unknown] (the column permutation).
  void newton_update(int iter, const std::uint32_t* xn_row);
  /// One lockstep Newton point over all unfinished lanes; retires lanes
  /// that fail. Returns false when no lane is left active.
  bool solve_point(const StampContext& proto);

  Options opts_;
  std::size_t n_ = 0;   ///< unknowns per lane
  std::size_t nv_ = 0;  ///< voltage unknowns per lane
  std::size_t nnz_ = 0;  ///< matrix slots per lane (0 until the join)
  std::vector<Lane> lanes_;
  util::Arena arena_;
  /// Columns: w_ active-at-compaction lanes, cols_[column] = lane.
  std::size_t w_ = 0;
  std::vector<std::size_t> cols_;
  /// The lockstep iterate, [node * w_ + column]: row 0 is zero (ground),
  /// row u + 1 is unknown u.
  std::vector<double> xs_;
  /// The reference lane's full breakpoint list, compared once at the first
  /// advance(); each advance() steps through its part before t_stop.
  std::vector<double> bps_;
  /// The cached program the batch rides (null until the join).
  std::shared_ptr<const NetlistProgram> prog_;
  std::vector<DevPlan> plans_;             ///< per device, stamp order
  std::vector<std::uint32_t> dyn_devs_;    ///< nonlinear device indices
  /// Generic devices whose accept_step can latch something (their
  /// save_state blob is non-empty on some lane).
  std::vector<std::uint32_t> stateful_generic_devs_;
  /// SoA companion history, [companion * w_ + column], companions in
  /// device stamp order; comps_ holds their terminals' rows (xa, xb are
  /// the node ids) and whether c == 0 on every lane (open).
  std::vector<kernels::CompanionRows> comps_;
  std::vector<double> comp_c_, comp_v_, comp_i_;
  /// Typed sources: rows per source, waves [source * width() + lane].
  std::vector<SourceRows> sources_;
  std::vector<const SourceWave*> source_waves_;
  /// [device * width() + lane]: the lane's Mosfet (null for other devices
  /// and lanes retired before the join), one load instead of a walk
  /// through the lane's circuit.
  std::vector<const Mosfet*> mosfets_;
  // The program's tape slots premultiplied by the width.
  std::vector<std::uint32_t> static_slots_w_, dynamic_slots_w_;
  /// Per column: 1 when its lane is solved this iteration.
  std::vector<std::uint8_t> step_;
  std::vector<std::uint8_t> degraded_;  ///< pivot_health flags per column
  /// Newton-update outputs per column: max |dv|, max |x|, damping scale.
  std::vector<double> max_dv_, max_x_, scale_;
  /// Static images, this point's among them: the SoA matrix (nnz * w_)
  /// followed by the companion conductances ([companion * w_ + column]).
  StaticImageCache images_;
  const double* static_image_ = nullptr;
  /// The image a_soa_ was last fully restored from: while the points keep
  /// it, an iteration restores only the dynamic slots (dyn_slots_w_,
  /// premultiplied, each once).
  const double* restored_image_ = nullptr;
  std::vector<std::uint32_t> dyn_slots_w_;
  /// The sink of the static restamp's discarded right-hand side, and one
  /// lane's gathered iterate and right-hand side for the generic stamps.
  std::vector<double> rhs_scratch_, lane_x_, lane_b_;
  /// The static right-hand side of every column, row-permuted like pb.
  std::vector<double> b_static_;
  // SoA kernel operands, [slot * w_ + column].
  util::ArenaBuf<double> a_soa_, l_soa_, u_soa_, work_soa_, pb_soa_;
  /// kernels::MosLanes' five output arrays of w_ doubles, back to back.
  static constexpr std::size_t kMosOutputs = 5;
  util::ArenaBuf<double> mos_soa_;
  double t_ = 0.0;
  double dt_ = 0.0;  ///< running step size
  bool force_be_ = true;
  bool first_advance_ = true;
};

}  // namespace ecms::circuit
