// Batched SoA kernels for the lockstep cell simulator (DESIGN.md §14).
//
// The batch engine advances K cells that share one NetlistProgram; its hot
// loops — the MOSFET channel evaluation and companion stamp, the capacitor
// companions' right-hand side and step latch, the numeric refactorization
// over the frozen pivot order, its pivot-health check, the forward/backward
// triangular solves, the damped Newton update, and the static-image restore
// copy — operate on structure-of-arrays (lane-major) storage, element
// (row, lane) at `a[row * width + lane]`, so one instruction stream serves
// every lane. `width` is the batch's active width: it repacks its lanes
// into the leading columns when some leave (batch.hpp).
//
// Bit-identity contract: a vector kernel performs, per lane, exactly the
// floating-point operations of the scalar path (SparseLu, the devices'
// stamp bodies, newton_solve_impl) in exactly the same order. Values are
// computed with lanewise IEEE-754 arithmetic (+, -, *, /, exact negation
// and |x|) only. The decisions made in vector code decide exactly as the
// scalar code: pivot_health()'s row maximum is max(|v|, rmax) on MAXPD,
// which returns its second operand unless the first is greater (so when
// either is NaN), so a NaN entry is skipped exactly as std::max(rmax, |v|)
// skips it, and its comparisons are ordered/unordered to match
// std::isfinite and the scalar < and ==; newton_update()'s maxima are
// MAXPD(dv, max_dv), which is `if (dv > max_dv) max_dv = dv`, and
// MAXPD(|x|, max_x), which is std::max(max_x, |x|), and its damping test an
// ordered >. No FMA contraction on either side (the build forces
// -ffp-contract=off), so scalar and vector lanes agree to the last ulp on
// every host, and the scalar fallback is not a degraded mode but the same
// function computed 1 lane at a time. ekv() holds the same contract against
// mos_eval(): the model's exp/log1p are the in-house det_exp/det_log1p
// (circuit/detmath.hpp), built from the same correctly rounded operations
// and exact bit manipulations, which the AVX2 lanes repeat.
//
// Dispatch: resolved once at first use from the host CPU (AVX2 on x86-64,
// scalar otherwise), overridable for tests and benches via
// set_force_scalar() or the ECMS_FORCE_SCALAR_KERNELS environment variable
// (any non-empty value other than "0").
#pragma once

#include <cstddef>
#include <cstdint>

#include "circuit/mosfet.hpp"
#include "circuit/sparse.hpp"

namespace ecms::circuit::kernels {

/// Per-lane operands of the ekv kernel: terminal voltages in, the
/// channel current and its derivatives out, element [lane] of each array.
struct MosLanes {
  const double* vg;
  const double* vd;
  const double* vs;
  const double* vb;
  double* ids;
  double* d_vg;
  double* d_vd;
  double* d_vs;
  double* d_vb;
};

/// One MOSFET's channel-companion stamp (mos_stamp), the same for every
/// lane: Mosfet::stamp_eval_into's matrix adds in its order, then its
/// right-hand-side rows. Rows are unscaled (element (row, lane) at
/// [row * width + lane]).
struct MosStampPlan {
  std::uint32_t n_adds = 0;
  /// Add j adds derivative deriv[j] (0 d_vg, 1 d_vd, 2 d_vs, 3 d_vb of
  /// MosLanes), negated when negate[j], to matrix value row slot[j].
  std::uint32_t slot[8] = {};
  std::uint8_t deriv[8] = {};
  bool negate[8] = {};
  /// Right-hand-side rows of the drain and source (-1: ground).
  std::int64_t rhs_d = -1, rhs_s = -1;
};

/// One capacitor companion (CapCompanion), the same for every lane.
struct CompanionRows {
  std::uint32_t xa = 0, xb = 0;  ///< iterate rows of its terminals a, b
  std::int64_t ba = -1, bb = -1;  ///< right-hand-side rows (-1: ground)
  bool open = false;  ///< c == 0: stamps nothing, latches as latch_open
};

/// Operands of newton_update, unscaled rows of `width` lanes.
struct NewtonLanes {
  double* x;                        ///< the iterate, unknown u at row u
  const double* x_new;              ///< the linear solution
  const std::uint32_t* x_new_row;   ///< unknown u's row in x_new
  std::size_t nv = 0;               ///< voltage unknowns (rows 0..nv-1)
  std::size_t n = 0;                ///< unknowns
  const std::uint8_t* step;         ///< nonzero: lane takes the update
  double max_delta_v = 0.0;
  double* max_dv;  ///< out: max |x_new - x| over the voltage rows
  double* max_x;   ///< out: max |x| over the voltage rows, before the update
  double* scale;   ///< out: the damping factor
};

/// One kernel backend. All array arguments are SoA unless noted.
struct Kernels {
  const char* name;  ///< "scalar", "avx2"

  /// One MOSFET (parameters p, constants k == mos_consts(p)) evaluated for
  /// `width` lanes: lane i gets mos_eval_with(p, k, vg[i], vd[i], vs[i],
  /// vb[i]), bit for bit (a NaN result is NaN on both, its sign and payload
  /// unspecified: they follow the operand order the compiler picks for a
  /// commutative op when two NaNs meet). The scalar backend is that call
  /// per lane; the vector backend computes the EKV model several lanes per
  /// instruction (PMOS mirrored in the kernel) and hands Level-1 devices to
  /// the scalar backend.
  void (*ekv)(const MosParams& p, const MosConsts& k, const MosLanes& io,
              std::size_t width);

  /// Numeric refactorization of all `width` lanes over the frozen pivot
  /// order: per permuted row, scatter A, eliminate against finished rows in
  /// ascending column order, gather L and U — the exact op sequence of
  /// SparseLu::refactor(), for every row of every lane unconditionally.
  /// Degraded or singular lanes produce garbage in later rows (confined to
  /// that lane); callers must run pivot_health() and discard flagged lanes.
  /// The same holds for a lane whose operands are stale (the batch's
  /// columns that converged or left since its last repack): its results
  /// are its own and never read. `work` is the dense scatter scratch,
  /// sy.n * width wide.
  void (*refactor)(const LuSymbolic& sy, const double* a, double* l,
                   double* u, double* work, std::size_t width);

  /// Forward/backward triangular solves of all lanes in place on `pb`, the
  /// row-permuted RHS (sy.n * width). Mirrors SparseLu::solve_in_place()
  /// between its permutation steps: the batch stamps its right-hand side
  /// straight into permuted rows and reads the solution through the column
  /// permutation.
  void (*solve)(const LuSymbolic& sy, const double* l, const double* u,
                double* pb, std::size_t width);

  /// SparseLu::refactor()'s pivot-health early return for every lane of a
  /// refactored U: flags[lane] = 1 when some permuted row's pivot is
  /// non-finite, exactly zero, or below kRepivotThreshold times that row's
  /// max |U| (NaN entries skipped), else 0. A flagged lane's L/U rows past
  /// its first degraded row are garbage.
  void (*pivot_health)(const LuSymbolic& sy, const double* u,
                       std::size_t width, std::uint8_t* flags);

  /// dst[i] = src[i] for `count` doubles — the static-image -> working-
  /// values restore, all lanes at once.
  void (*copy)(double* dst, const double* src, std::size_t count);

  /// values[slot * width + lane] += g for every slot in `slots` — the gmin
  /// ground-diagonal term of the static image.
  void (*diag_add)(double* values, const std::uint32_t* slots,
                   std::size_t n_slots, double g, std::size_t width);

  // The batch engine's lane-major assembly and update (batch.hpp): per
  // lane, each is the scalar path's expression for one lane, in its order.

  /// Mosfet::stamp_eval_into for `width` lanes of an ekv() result `io`
  /// (its vg..vb are the terminal voltages it was evaluated at): the adds
  /// of `plan` into the matrix values `a`, then
  /// ieq = ids - d_vg*vg - d_vd*vd - d_vs*vs - d_vb*vb subtracted from the
  /// drain row and added to the source row of the right-hand side `b`.
  void (*mos_stamp)(const MosStampPlan& plan, const MosLanes& io, double* a,
                    double* b, std::size_t width);

  /// CapCompanion::stamp_state's right-hand side for `count` companions of
  /// a step that is not DC, in order: j = g * v (+ i when `trap`), then
  /// b[bb] -= j, b[ba] += j; open companions are skipped. g, v and i hold
  /// the companions' rows from the first one's on.
  void (*companion_rhs)(const CompanionRows* comps, std::size_t count,
                        const double* g, const double* v, const double* i,
                        bool trap, double* b, std::size_t width);

  /// CapCompanion::accept_step after a step that is not DC, per
  /// companion: v_new = x[xa] - x[xb]; an open companion latches
  /// (v_new, 0), any other latch(g, method, v_new, v, i).
  void (*companion_latch)(const CompanionRows* comps, std::size_t count,
                          const double* g, double* v, double* i, bool trap,
                          const double* x, std::size_t width);

  /// newton_solve_impl's damping and update: per lane, max_dv and max_x
  /// are its running maxima (a NaN |dv| or |x| never replaces one), scale
  /// = max_delta_v / max_dv when max_dv > max_delta_v, else 1, and the
  /// lanes marked in `step` take x += scale * (x_new - x); the others are
  /// only read. The convergence decision stays with the caller.
  void (*newton_update)(const NewtonLanes& io, std::size_t width);
};

/// The runtime-dispatched backend (never null).
const Kernels& active();
/// The portable scalar backend (always available).
const Kernels& scalar();

/// True when a vector backend is compiled in and the CPU supports it
/// (regardless of any forced-scalar override).
bool vector_available();

/// Test/bench hook: force the scalar backend on (true) or return to CPU
/// dispatch (false). Overrides ECMS_FORCE_SCALAR_KERNELS. Thread-safe.
void set_force_scalar(bool force);
bool force_scalar();

/// Human-readable ISA report for `ecms_tool version`, e.g.
/// "avx2 (active), scalar fallback available".
const char* isa_summary();

/// Default lane count for batch_width = auto on this host.
std::size_t preferred_width();

/// The refactor-time pivot-health threshold; mirrors the scalar engine's
/// (sparse.cpp) so batch retirement decisions match scalar re-pivots.
inline constexpr double kRepivotThreshold = 1e-10;

/// Internal: the AVX2 backend (kernels_avx2.cpp; null on non-x86-64 hosts).
/// Callers use active() — this exists only for the dispatch layer.
const Kernels* avx2_kernels();

}  // namespace ecms::circuit::kernels
