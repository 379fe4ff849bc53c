// Batched SoA kernels for the lockstep cell simulator (DESIGN.md §14).
//
// The batch engine advances K cells that share one NetlistProgram; its hot
// loops — the MOSFET channel evaluation, the numeric refactorization over
// the frozen pivot order, its pivot-health check, the forward/backward
// triangular solves, and the static-image restore copy — operate on
// structure-of-arrays value storage, element (slot, lane) at
// `a[slot * width + lane]`, so one instruction stream serves every lane.
//
// Bit-identity contract: a vector kernel performs, per lane, exactly the
// floating-point operations of the scalar SparseLu path in exactly the same
// order. Values are computed with lanewise IEEE-754 arithmetic (+, -, *, /)
// only. The one decision made in vector code, pivot_health(), decides
// exactly as SparseLu::refactor()'s scalar check: its row maximum is
// max(|v|, rmax) on MAXPD, which returns its second operand when either
// is NaN, so a NaN entry is skipped exactly as std::max(rmax, |v|) skips
// it, and its comparisons are ordered/unordered to match std::isfinite and
// the scalar < and ==. No FMA contraction on either side (the build forces
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
  /// `work` is the dense scatter scratch, sy.n * width wide.
  void (*refactor)(const LuSymbolic& sy, const double* a, double* l,
                   double* u, double* work, std::size_t width);

  /// Forward/backward triangular solves of all lanes in place on `pb`, the
  /// row-permuted RHS (sy.n * width). Mirrors SparseLu::solve_in_place()
  /// between its permutation steps; callers gather/scatter per lane.
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
