// The sparse engine against the dense oracle: the same circuits solved
// through newton_solve (SparseEngine) and through the reference dense
// assembly (assemble(..., Matrix&, ...) + LuFactorization, driven by a
// test-local Newton loop with newton_solve's damping and convergence rule)
// must produce matching operating points, transient traces and
// fault-injection verdicts — and extraction codes must equal the ones the
// dense backend produced, which is the acceptance criterion that matters
// for the paper's measurement flow.
#include "circuit/solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "circuit/dc.hpp"
#include "circuit/matrix.hpp"
#include "circuit/newton.hpp"
#include "circuit/recovery.hpp"
#include "circuit/transient.hpp"
#include "edram/macrocell.hpp"
#include "fault/fault.hpp"
#include "msu/extract.hpp"
#include "tech/tech.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace ecms::circuit {
namespace {

// An RC ladder driven through a MOSFET switch: linear devices feed the
// static image, the transistor exercises the dynamic tape every iteration.
Circuit make_switched_ladder(const tech::Technology& t, int stages) {
  Circuit c;
  const NodeId vdd = c.node("vdd");
  c.add_vsource("VDD", vdd, kGround, SourceWave::dc(t.vdd));
  c.add_vsource("VG", c.node("gate"), kGround,
                SourceWave::pwl({{0.0, 0.0}, {2e-9, t.vdd}}));
  c.add_mosfet("MSW", c.node("n0"), c.node("gate"), vdd, vdd,
               t.pmos_min(2e-6));
  for (int i = 0; i < stages; ++i) {
    const std::string a = "n" + std::to_string(i);
    const std::string b = "n" + std::to_string(i + 1);
    c.add_resistor("R" + std::to_string(i), c.node(a), c.node(b), 10_kOhm);
    c.add_capacitor("C" + std::to_string(i), c.node(b), kGround, 50_fF);
  }
  return c;
}

struct OracleResult {
  bool converged = false;
  bool singular = false;
};

// Damped Newton on the dense oracle. `zero_row0` zeroes matrix row 0 after
// every assembly, as the make_singular hook does on the engine.
OracleResult dense_newton(const Circuit& ckt, const StampContext& proto,
                          std::vector<double>& x, const NewtonOptions& opts,
                          bool zero_row0 = false) {
  const std::size_t n = ckt.unknown_count();
  const std::size_t nv = ckt.node_count() - 1;
  Matrix a;
  std::vector<double> b;
  LuFactorization lu;
  OracleResult res;
  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    StampContext ctx = proto;
    ctx.x = x;
    assemble(ckt, ctx, opts.gmin_ground, a, b);
    if (zero_row0) {
      for (std::size_t j = 0; j < n; ++j) a.at(0, j) = 0.0;
    }
    try {
      lu.refactor(a);
    } catch (const SolverError&) {
      res.singular = true;
      return res;
    }
    lu.solve_in_place(b);  // b is now the undamped update target
    double max_dv = 0.0, max_x = 0.0;
    for (std::size_t i = 0; i < nv; ++i) {
      max_dv = std::max(max_dv, std::abs(b[i] - x[i]));
      max_x = std::max(max_x, std::abs(x[i]));
    }
    const double scale =
        max_dv > opts.max_delta_v ? opts.max_delta_v / max_dv : 1.0;
    for (std::size_t i = 0; i < n; ++i) x[i] += scale * (b[i] - x[i]);
    if (scale == 1.0 &&
        max_dv < opts.tol_abs_v + opts.tol_rel * std::max(max_x, 1.0)) {
      res.converged = true;
      return res;
    }
  }
  return res;
}

// Transient on the dense oracle, stepping as run_transient does on a run
// without Newton failures: start from the DC point, take `dt` steps that
// land exactly on stimulus corners, backward Euler on the first step and
// after every corner, trapezoidal otherwise. One row of `nodes` voltages
// per sample, the t = 0 sample included.
std::vector<std::vector<double>> dense_transient(
    Circuit& ckt, double t_stop, double dt,
    const std::vector<std::string>& nodes) {
  constexpr double kEps = 1e-18;
  ckt.finalize();
  const NewtonOptions opts;
  std::vector<double> x(ckt.unknown_count(), 0.0);
  StampContext ctx;
  ctx.time = 0.0;
  ctx.dt = 0.0;
  EXPECT_TRUE(dense_newton(ckt, ctx, x, opts).converged) << "oracle DC";
  ctx.x = x;
  for (const auto& d : ckt.devices()) d->init_state(ctx);

  std::vector<NodeId> ids;
  for (const auto& n : nodes) ids.push_back(ckt.find_node(n));
  std::vector<std::vector<double>> rows;
  auto record = [&] {
    StampContext c;
    c.x = x;
    std::vector<double> row;
    for (NodeId id : ids) row.push_back(c.v(id));
    rows.push_back(std::move(row));
  };
  record();

  const std::vector<double> bps = ckt.breakpoints(t_stop);
  std::size_t next_bp = 0;
  while (next_bp < bps.size() && bps[next_bp] <= kEps) ++next_bp;
  bool force_be = true;
  double t = 0.0;
  while (t < t_stop - kEps) {
    double step = std::min(dt, t_stop - t);
    bool hits_bp = false;
    if (next_bp < bps.size() && t + step >= bps[next_bp] - kEps) {
      step = bps[next_bp] - t;
      hits_bp = true;
    }
    StampContext sc;
    sc.time = t + step;
    sc.dt = step;
    sc.method = force_be ? Integrator::kBackwardEuler : Integrator::kTrapezoidal;
    sc.gmin = opts.gmin_ground;
    if (!dense_newton(ckt, sc, x, opts).converged) {
      ADD_FAILURE() << "oracle step at t=" << t << " did not converge";
      return rows;
    }
    sc.x = x;
    for (const auto& d : ckt.devices()) d->accept_step(sc);
    t += step;
    record();
    force_be = hits_bp;
    if (hits_bp) ++next_bp;
  }
  return rows;
}

TEST(SolverBackendT, DcOperatingPointMatchesDense) {
  const auto t = tech::tech018();
  Circuit c = make_switched_ladder(t, 6);
  const auto r = dc_operating_point(c, {});

  std::vector<double> x(c.unknown_count(), 0.0);
  StampContext ctx;
  ctx.time = 0.0;
  ctx.dt = 0.0;
  ASSERT_TRUE(dense_newton(c, ctx, x, {}).converged);
  // Gate low at t = 0: the PMOS conducts, the ladder charges to VDD.
  EXPECT_NEAR(dc_voltage(c, r, "n6"), t.vdd, 1e-6);
  const std::size_t nv = c.node_count() - 1;
  for (std::size_t i = 0; i < nv; ++i) {
    EXPECT_NEAR(r.x[i], x[i], 1e-6) << "node " << i + 1;
  }
  ctx.x = x;
  EXPECT_NEAR(ctx.v(c.find_node("n6")), t.vdd, 1e-6);
}

TEST(SolverBackendT, TransientTraceMatchesDense) {
  const auto t = tech::tech018();
  constexpr double kStop = 20e-9, kDt = 50e-12;
  Circuit sc = make_switched_ladder(t, 6);
  TranParams tp;
  tp.t_stop = kStop;
  tp.dt = kDt;
  const auto sparse =
      transient(sc, tp, {.nodes = {"n1", "n6"}, .device_currents = {}});

  Circuit dc = make_switched_ladder(t, 6);
  const auto dense = dense_transient(dc, kStop, kDt, {"n1", "n6"});
  ASSERT_EQ(dense.size(), sparse.trace.sample_count());
  EXPECT_EQ(dense.size(), sparse.stats.accepted_steps + 1);
  const char* channels[] = {"n1", "n6"};
  for (std::size_t ch = 0; ch < 2; ++ch) {
    const auto& sv = sparse.trace.channel(channels[ch]);
    for (std::size_t i = 0; i < sv.size(); ++i) {
      ASSERT_NEAR(dense[i][ch], sv[i], 1e-6)
          << "channel " << channels[ch] << " sample " << i;
    }
  }
}

TEST(SolverBackendT, SparseSingularInjectionMatchesDense) {
  // The make_singular hook must drive the engine to the oracle's verdict:
  // a singular, non-converged solve (what the recovery ladder consumes).
  const auto t = tech::tech018();
  SolveHooks hooks;
  hooks.make_singular = [](const StampContext&, const NewtonOptions&) {
    return true;
  };
  Circuit c = make_switched_ladder(t, 4);
  c.finalize();
  NewtonOptions opts;
  StampContext ctx;
  ctx.time = 0.0;
  ctx.dt = 0.0;
  std::vector<double> xd(c.unknown_count(), 0.0);
  const OracleResult oracle =
      dense_newton(c, ctx, xd, opts, /*zero_row0=*/true);
  EXPECT_FALSE(oracle.converged);
  EXPECT_TRUE(oracle.singular);

  opts.hooks = &hooks;
  std::vector<double> x(c.unknown_count(), 0.0);
  NewtonWorkspace ws;
  const auto res = newton_solve(c, ctx, x, opts, ws);
  EXPECT_FALSE(res.converged);
  EXPECT_TRUE(res.singular);
}

TEST(SolverBackendT, SparseReusesSymbolicFactorization) {
  // Across the points of one workspace-owning transient, symbolic work must
  // happen once (plus possible re-pivots), not once per iteration. A fresh
  // local ProgramCache keeps the accounting exact: against the process-wide
  // cache, an earlier test in the same binary may have published this
  // topology already and the count would legitimately be zero.
  const auto t = tech::tech018();
  Circuit c = make_switched_ladder(t, 6);
  c.finalize();
  ProgramCache fresh;
  NewtonOptions opts;
  opts.solver.program_cache = &fresh;
  NewtonWorkspace ws;
  int iterations = 0, symbolic = 0, numeric = 0;
  std::vector<double> x(c.unknown_count(), 0.0);
  // Uniform transient points: a DC point in the mix would stamp a different
  // companion-model coordinate sequence and legitimately force one cache
  // rebuild (the solve loops keep separate workspaces for DC and transient).
  for (int point = 0; point < 5; ++point) {
    StampContext ctx;
    ctx.time = 1e-9 * (point + 1);
    ctx.dt = 1e-9;
    const auto res = newton_solve(c, ctx, x, opts, ws);
    ASSERT_TRUE(res.converged);
    iterations += res.iterations;
    symbolic += res.symbolic_factorizations;
    numeric += res.numeric_factorizations;
  }
  EXPECT_EQ(symbolic, 1);  // one Markowitz analysis for the whole run
  EXPECT_EQ(symbolic + numeric, iterations);
  EXPECT_GT(iterations, 5);
  // ... and that one analysis was published for other workspaces to adopt.
  EXPECT_EQ(fresh.size(), 1u);
}

TEST(SolverBackendT, ExtractionCodesIdenticalAcrossBackends) {
  // The paper-level guarantee: digital codes and flip times must not depend
  // on the linear-algebra backend. The reference is what the dense backend
  // (partial-pivoting LU, re-pivoted every iteration) measured on this
  // array: code 3 in every cell, OUT rising at these times. The engine must
  // reproduce it with the program cache on and off.
  const auto mc = edram::MacroCell::uniform({.rows = 2, .cols = 2},
                                            tech::tech018(), 30_fF);
  constexpr int kDenseCode = 3;
  constexpr double kDenseFlip[2][2] = {
      {4.1864994354908833e-08, 4.1864994354908852e-08},
      {4.1864994354908905e-08, 4.1864994354908806e-08}};
  ProgramCache fresh;
  for (ProgramCache* cache : {&fresh, static_cast<ProgramCache*>(nullptr)}) {
    for (std::size_t r = 0; r < 2; ++r) {
      for (std::size_t col = 0; col < 2; ++col) {
        msu::ExtractOptions opts;
        opts.record_trace = false;
        opts.newton.solver.program_cache = cache;
        const auto res = msu::extract_cell(mc, r, col, {}, {}, opts);
        SCOPED_TRACE(std::string("cache ") + (cache ? "on" : "off") +
                     ", cell " + std::to_string(r) + "," +
                     std::to_string(col));
        EXPECT_EQ(res.code, kDenseCode);
        ASSERT_TRUE(res.t_out_rise.has_value());
        EXPECT_NEAR(*res.t_out_rise, kDenseFlip[r][col], 1e-12);
      }
    }
  }
}

// --- Static matrix images (static_image.hpp) -------------------------------

// A transient point context for the engine-level image tests.
StampContext point_ctx(double time, double dt, Integrator method,
                       double gmin = NewtonOptions{}.gmin_ground) {
  StampContext ctx;
  ctx.time = time;
  ctx.dt = dt;
  ctx.method = method;
  ctx.gmin = gmin;
  return ctx;
}

// Sets every device's history from a non-trivial iterate, so companion
// right-hand sides are non-zero and differ from point to point.
void latch_history(Circuit& c, std::span<const double> x, double dt) {
  StampContext ctx = point_ctx(1e-9, dt, Integrator::kTrapezoidal);
  ctx.x = x;
  for (const auto& d : c.devices()) d->accept_step(ctx);
}

std::vector<std::uint64_t> bits(std::span<const double> v) {
  std::vector<std::uint64_t> out;
  for (const double d : v) out.push_back(std::bit_cast<std::uint64_t>(d));
  return out;
}

// Assembles `target` on an engine that has seen no image under its key:
// discovery at another key, then the full restamp (an image miss).
void assemble_cold(const Circuit& c, const StampContext& target,
                   std::span<const double> x, SparseEngine& eng) {
  StampContext other = point_ctx(0.5e-9, 0.5e-9, Integrator::kBackwardEuler,
                                 target.gmin * 3.0);
  other.x = x;
  eng.begin_point();
  eng.assemble(c, other, other.gmin);
  StampContext ctx = target;
  ctx.x = x;
  eng.begin_point();
  eng.assemble(c, ctx, ctx.gmin);
}

TEST(SolverBackendT, StaticImageHitAssemblesTheMissBits) {
  // A point whose (dt, integrator, gmin) the engine has seen reuses the
  // cached matrix image and restamps the right-hand side alone; an engine
  // that has not restamps everything. Both must assemble identical bits,
  // matrix and right-hand side, with the device history moved in between.
  const auto t = tech::tech018();
  Circuit c = make_switched_ladder(t, 6);
  c.finalize();
  const std::size_t n = c.unknown_count();
  std::vector<double> x(n), x2(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 0.1 + 0.05 * static_cast<double>(i);
    x2[i] = 0.3 - 0.02 * static_cast<double>(i);
  }
  latch_history(c, x, 1e-9);

  ProgramCache cache;
  SparseEngine warm(n, &cache);
  const StampContext a = point_ctx(2e-9, 1e-9, Integrator::kTrapezoidal);
  const StampContext b = point_ctx(3e-9, 2e-9, Integrator::kBackwardEuler);
  for (const StampContext& p : {a, b}) {
    StampContext ctx = p;
    ctx.x = x;
    warm.begin_point();
    warm.assemble(c, ctx, ctx.gmin);
  }
  EXPECT_EQ(warm.static_images().size(), 2u);
  EXPECT_EQ(warm.static_images().hits(), 0u);

  latch_history(c, x2, 1e-9);
  StampContext again = a;
  again.time = 5e-9;  // same key, another time and history
  again.x = x;
  warm.begin_point();
  warm.assemble(c, again, again.gmin);
  EXPECT_EQ(warm.static_images().hits(), 1u);

  SparseEngine cold(n, &cache);
  assemble_cold(c, again, x, cold);
  EXPECT_EQ(cold.static_images().hits(), 0u);
  EXPECT_EQ(bits(warm.matrix().values()), bits(cold.matrix().values()));
  EXPECT_EQ(bits(warm.rhs()), bits(cold.rhs()));
  // Both count one restamp per point, hit or miss.
  EXPECT_EQ(warm.static_restamps(), 3u);
  EXPECT_EQ(cold.static_restamps(), 2u);
}

TEST(SolverBackendT, StaticImageEvictionKeepsEveryAssemblyIdentical) {
  // More distinct keys than the cache holds, forward and then backward: the
  // backward pass hits the most recent kCapacity keys and misses the
  // evicted ones. Every assembly must equal a cold engine's.
  const auto t = tech::tech018();
  Circuit c = make_switched_ladder(t, 6);
  c.finalize();
  const std::size_t n = c.unknown_count();
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 0.2 + 0.03 * static_cast<double>(i);
  }
  constexpr std::size_t kKeys = StaticImageCache::kCapacity + 4;
  std::vector<std::size_t> order;
  for (std::size_t k = 0; k < kKeys; ++k) order.push_back(k);
  for (std::size_t k = kKeys; k-- > 0;) order.push_back(k);

  ProgramCache cache;
  SparseEngine warm(n, &cache);
  double time = 1e-9;
  for (const std::size_t k : order) {
    SCOPED_TRACE("key " + std::to_string(k));
    const double dt = 1e-10 * static_cast<double>(k + 1);
    time += dt;
    latch_history(c, x, dt);
    x[0] += 1e-3;  // a fresh iterate and history at every point
    StampContext ctx = point_ctx(time, dt, Integrator::kTrapezoidal);
    ctx.x = x;
    warm.begin_point();
    warm.assemble(c, ctx, ctx.gmin);
    SparseEngine cold(n, &cache);
    assemble_cold(c, ctx, x, cold);
    ASSERT_EQ(bits(warm.matrix().values()), bits(cold.matrix().values()));
    ASSERT_EQ(bits(warm.rhs()), bits(cold.rhs()));
  }
  EXPECT_EQ(warm.static_images().size(), StaticImageCache::kCapacity);
  EXPECT_EQ(warm.static_images().hits(), StaticImageCache::kCapacity);
  EXPECT_EQ(warm.static_images().misses(),
            order.size() - 1 - StaticImageCache::kCapacity);
}

TEST(SolverBackendT, GminSteppingRungIdenticalWithColdAndWarmImages) {
  // gmin is part of the image key. The recovery ladder's gmin-stepping
  // rung raises gmin_ground: (1) the ladder run that recovers there equals
  // a direct run of that rung, and (2) Newton points at the raised gmin on
  // a workspace warmed at the base gmin (same dt and integrator) equal the
  // same points on a cold workspace.
  const auto t = tech::tech018();
  fault::SolverFaultInjector inj;
  inj.add({.t_lo = 1e-9,
           .t_hi = 2e-9,
           .cleared_by = fault::ClearedBy::kHighGmin,
           .gmin_threshold = 1e-11});
  SolveHooks hooks = inj.hooks();
  TranParams tp;
  tp.t_stop = 4e-9;
  tp.dt = 100e-12;
  tp.dt_min = 1e-12;
  tp.newton.hooks = &hooks;
  const ProbeSet probes{.nodes = {"n1", "n6"}, .device_currents = {}};
  Circuit c1 = make_switched_ladder(t, 6);
  RecoveryReport rep;
  const TranResult ladder = transient_with_recovery(c1, tp, probes, {}, &rep);
  ASSERT_EQ(rep.succeeded_at, RecoveryRung::kGminStepping);
  Circuit c2 = make_switched_ladder(t, 6);
  const TranResult direct = transient(
      c2, apply_recovery_rung(tp, RecoveryRung::kGminStepping), probes);
  ASSERT_EQ(ladder.trace.sample_count(), direct.trace.sample_count());
  for (std::size_t ch = 0; ch < 2; ++ch) {
    EXPECT_EQ(bits(ladder.trace.channel(ch)), bits(direct.trace.channel(ch)));
  }
  EXPECT_EQ(bits(ladder.final_x), bits(direct.final_x));

  Circuit c = make_switched_ladder(t, 6);
  c.finalize();
  const std::size_t n = c.unknown_count();
  NewtonOptions base;
  base.solver.program_cache = nullptr;
  NewtonOptions raised = base;
  raised.gmin_ground = base.gmin_ground * 100.0;
  auto run = [&](NewtonWorkspace& ws, const NewtonOptions& opts) {
    std::vector<double> x(n, 0.0);
    std::vector<std::vector<std::uint64_t>> out;
    for (int p = 0; p < 6; ++p) {
      const double dt = p % 2 == 0 ? 100e-12 : 200e-12;
      StampContext ctx = point_ctx(1e-9 * (p + 1), dt,
                                   Integrator::kTrapezoidal, opts.gmin_ground);
      EXPECT_TRUE(newton_solve(c, ctx, x, opts, ws).converged);
      out.push_back(bits(x));
    }
    return out;
  };
  NewtonWorkspace warm, cold;
  run(warm, base);
  const std::uint64_t warm_hits = warm.sparse()->static_images().hits();
  EXPECT_GT(warm_hits, 0u);
  EXPECT_EQ(run(warm, raised), run(cold, raised));
  // The raised-gmin points missed the base-gmin images, then hit their own.
  EXPECT_EQ(warm.sparse()->static_images().hits() - warm_hits,
            cold.sparse()->static_images().hits());
}

}  // namespace
}  // namespace ecms::circuit
