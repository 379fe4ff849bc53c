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
#include <cmath>
#include <string>
#include <vector>

#include "circuit/dc.hpp"
#include "circuit/matrix.hpp"
#include "circuit/newton.hpp"
#include "circuit/transient.hpp"
#include "edram/macrocell.hpp"
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

}  // namespace
}  // namespace ecms::circuit
