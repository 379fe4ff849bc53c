// Linear-solver workspaces for newton_solve.
//
// newton_solve reduces every (time) point to repeated solves of the stamped
// MNA system on one backend: sparse.hpp's CSR matrix + Markowitz LU with
// symbolic reuse, fed by a stamp-slot cache and a static/dynamic assembly
// split (SparseEngine below). matrix.hpp's dense Matrix + LuFactorization
// remain for small-signal analysis (ac.hpp) and as a test oracle.
//
// A NewtonWorkspace owns the engine plus the iteration buffers, and lives
// for one transient()/dc_operating_point() call: one workspace per solve
// means one per thread under parallel extraction. The topology-dependent
// halves of the engine's caches are shared across workspaces through a
// ProgramCache (program.hpp): the per-engine state shrinks to values and
// cursors, and per-solve scratch is carved from the workspace's bump arena
// instead of the heap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/program.hpp"
#include "circuit/sparse.hpp"
#include "circuit/static_image.hpp"
#include "util/arena.hpp"

namespace ecms::circuit {

struct SolverConfig {
  /// Shared topology-program registry; the default is the process-wide
  /// cache, so repeated and parallel solves of the same netlist shape reuse
  /// one symbolic factorization. Set to nullptr to force every engine to
  /// compile privately (A/B accounting, tests). A speed cache only: codes
  /// are bit-identical either way.
  ProgramCache* program_cache = &ProgramCache::global();
};

/// Sparse assembly + factorization engine for one circuit and one solve
/// mode. Holds three caches, all established on the first assembly:
///
///   * the frozen CSR pattern of the MNA matrix,
///   * stamp-slot tapes: the (row, col) sequence every device emits,
///     resolved to value-slot indices, so replayed assemblies are direct
///     array writes with no coordinate search, and
///   * a static image: linear devices (nonlinear() == false) and the
///     stamp_static() portion of nonlinear ones (companion caps, gmin
///     ties) cannot change between Newton iterations of one point, so
///     those stamps are frozen once per point and memcpy-restored each
///     iteration; only the iterate-dependent stamp() bodies re-run.
///     The matrix half of that image is also kept across points, up to
///     StaticImageCache::kCapacity of them keyed by (dt, integrator,
///     gmin) (static_image.hpp): on a key seen before, the per-point
///     restamp rebuilds the right-hand side alone, MOSFETs and capacitors
///     through their stamp bodies with a DiscardMatrix sink, every other
///     device through the verifying tape aimed at a scratch image.
///
/// Precondition: the element values of a circuit bound to an engine do
/// not change (a cached image would go stale). Assembling a different
/// Circuit object drops the images; rediscovery drops them too.
///
/// With a ProgramCache attached, the first assembly hashes the recorded
/// coordinate streams and either adopts a published NetlistProgram
/// (pattern + slots + LU symbolic, skipping the Markowitz analysis
/// entirely) or compiles privately and publishes after the first clean
/// full factorization. Reported as circuit.program.{hits,misses,builds}.
///
/// The pivot order is the one piece of engine state derived from values (a
/// full factorization pivots on the numbers it sees). A checkpoint carries
/// it (pivot_order()), and a resumed engine is seeded with it
/// (seed_pivot_order()), so a resumed run refactors exactly as the
/// uninterrupted one would, with or without the cache.
///
/// If a device ever emits a different stamp sequence (e.g. the netlist was
/// reconfigured between solves), the replay detects the divergence via the
/// recorded coordinates and rebuilds every cache from scratch — the same
/// guard that neutralizes a (verified-against anyway) hash collision. Not
/// thread-safe: workspaces are per-solve and therefore per-thread; the
/// shared program is only ever read.
class SparseEngine final : public StampSink {
 public:
  explicit SparseEngine(std::size_t unknowns, ProgramCache* cache = nullptr,
                        util::Arena* arena = nullptr)
      : n_(unknowns), cache_(cache) {
    b_static_.bind(arena);
    b_work_.bind(arena);
    image_scratch_.bind(arena);
    lu_.bind_arena(arena);
  }

  /// Marks the start of a new solve point (new time / step / gmin / source
  /// scale): the static image is rebuilt on the next assemble().
  void begin_point() { static_dirty_ = true; }

  /// Assembles A and b for the given iterate (discovery or tape replay).
  void assemble(const Circuit& ckt, const StampContext& ctx,
                double gmin_ground);

  /// Factors the assembled matrix: numeric refactorization on the frozen
  /// pattern, with a full Markowitz (re-)factorization on first use (when
  /// no program was adopted) and on pivot degradation. Throws
  /// ecms::SolverError when singular.
  void factor();

  /// Solves into x (overwritten with A^{-1} b; x.size() must equal the
  /// unknown count).
  void solve(std::span<double> x);

  /// Zeroes row r of the assembled matrix (fault-injection hook support);
  /// forces a full factorization so the singular system is detected
  /// deterministically. The result of that forced factorization is never
  /// published to the program cache.
  void zero_row(std::size_t r);

  std::span<const double> rhs() const { return b_work_.span(); }
  const SparseMatrix& matrix() const { return mat_; }
  double pivot_ratio() const { return lu_.pivot_ratio(); }
  /// The pivot order this engine actually factors with (adopted or locally
  /// computed; null before the first assemble/factor). The batch engine
  /// compares this against the cached program's order when a lane joins:
  /// a lane on any other order retires to the scalar path.
  const std::shared_ptr<const LuSymbolic>& lu_symbolic() const {
    return lu_.symbolic();
  }

  /// Seeds the pivot order the next discovery adopts in place of a fresh
  /// Markowitz analysis (and of an adopted program's order). Used once, and
  /// only when it fits the discovered pattern (same unknown and slot
  /// counts); otherwise the engine takes its normal path.
  void seed_pivot_order(std::shared_ptr<const LuSymbolic> order) {
    seed_ = std::move(order);
  }

  /// The pivot order a checkpoint taken now must carry: the one this engine
  /// factors with, or a seed it has not adopted yet (null when neither).
  const std::shared_ptr<const LuSymbolic>& pivot_order() const {
    return lu_.has_symbolic() ? lu_.symbolic() : seed_;
  }

  /// The shared program this engine adopted or published (null when the
  /// cache is disabled or nothing has been compiled yet).
  const std::shared_ptr<const NetlistProgram>& program() const {
    return program_;
  }

  /// The static matrix images (hits and misses count per-point restamps).
  const StaticImageCache& static_images() const { return images_; }

  // Cumulative counters, reported per solve as circuit.lu.{symbolic,
  // numeric} and circuit.assemble.{static_hits,restamps}.
  std::uint64_t symbolic_factorizations() const { return symbolic_; }
  std::uint64_t numeric_factorizations() const { return numeric_; }
  std::uint64_t static_hits() const { return static_hits_; }
  std::uint64_t static_restamps() const { return static_restamps_; }

  // StampSink: records a coordinate during discovery, or replays one
  // cached slot write.
  void add(std::size_t row, std::size_t col, double v) override;

 private:
  // Replayed assemblies bypass the virtual sink entirely (ReplayTape in
  // device.hpp); the phase machinery below only guards the record pass.
  enum class Phase { kIdle, kRecord };

  struct Tape {
    std::vector<std::uint64_t> coords;  // packed (row, col), in stamp order
    std::vector<std::uint32_t> slots;   // resolved value slots, same order
    std::vector<double> rec_vals;       // values seen during discovery
  };

  /// One device's static stamps: how to restamp its right-hand side on an
  /// image hit, and its range [begin, end) of the static tape.
  struct StaticDevice {
    DeviceKind kind = DeviceKind::kGeneric;
    bool nonlinear = false;
    std::uint32_t begin = 0, end = 0;
  };

  void discover(const Circuit& ckt, const StampContext& ctx,
                double gmin_ground);
  /// The per-point static restamp: the right-hand side alone on an image
  /// hit, everything into a new image on a miss. Sets diverged_ when a
  /// device's coordinates leave the tape.
  void restamp_static(const Circuit& ckt, const StampContext& ctx,
                      double gmin_ground);
  void resolve_slots(Tape& tape);
  /// Publishes the locally compiled program after the first clean full
  /// factorization (no-op on the adopted path or with the cache disabled).
  void maybe_publish();

  std::size_t n_ = 0;
  std::size_t nv_ = 0;  // voltage unknowns (gmin ground diagonal span)
  bool pattern_built_ = false;
  bool static_dirty_ = true;
  bool diverged_ = false;
  bool force_full_factor_ = false;
  Phase phase_ = Phase::kIdle;
  Tape static_tape_, dynamic_tape_;
  Tape* active_tape_ = nullptr;
  std::vector<std::uint32_t> diag_slots_;
  SparseMatrix mat_;
  StaticImageCache images_;               // static matrix images (nnz each)
  const double* static_image_ = nullptr;  // this point's image
  util::ArenaBuf<double> image_scratch_;  // sink of rhs-only tape replays
  std::vector<StaticDevice> static_devs_;  // per device, stamp order
  const Circuit* static_ckt_ = nullptr;    // the circuit the images are of
  util::ArenaBuf<double> b_static_;       // frozen static rhs
  util::ArenaBuf<double> b_work_;         // working rhs
  SparseLu lu_;
  ProgramCache* cache_ = nullptr;
  std::shared_ptr<const NetlistProgram> program_;
  std::shared_ptr<const LuSymbolic> seed_;
  std::uint64_t program_key_ = 0;
  bool publish_pending_ = false;
  std::uint64_t symbolic_ = 0, numeric_ = 0;
  std::uint64_t static_hits_ = 0, static_restamps_ = 0;
};

/// Per-solve scratch owned by the caller of newton_solve: the engine, the
/// factorization and the iteration buffers are allocated once per
/// transient/DC solve instead of once per Newton iteration, and the flat
/// double buffers are carved from a bump arena that prepare() recycles on
/// every rebind (util.arena.{bytes,resets}). Single-threaded by design —
/// parallel extraction gives each worker its own workspace.
class NewtonWorkspace {
 public:
  NewtonWorkspace() = default;

  /// Binds to a circuit; re-binding to a different unknown count or program
  /// cache resets the cached state and recycles the arena. newton_solve
  /// calls this itself — explicit calls are allowed but not required.
  void prepare(const Circuit& ckt, const SolverConfig& cfg);

  /// The bound engine (null before the first prepare()).
  SparseEngine* sparse() { return sparse_.get(); }
  util::Arena& arena() { return arena_; }

  /// Newton's solution buffer.
  util::ArenaBuf<double> x_new;

 private:
  util::Arena arena_;
  std::size_t bound_n_ = std::numeric_limits<std::size_t>::max();
  ProgramCache* bound_cache_ = nullptr;
  bool bound_ = false;
  std::unique_ptr<SparseEngine> sparse_;
};

}  // namespace ecms::circuit
