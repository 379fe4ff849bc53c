// Checkpoint/resume validation: a transient split at a checkpoint must take
// bit-identical steps to the uninterrupted run, including through nonlinear
// MOSFET circuits, wave reprogramming between segments, the measurement
// flow's UIC start and a mid-run re-pivot. This is the contract the adaptive
// ramp scheduler in msu/ relies on. Every case runs with the program cache
// on and off: the pivot order travels in the checkpoint, so the cache is a
// speed cache only.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>

#include "circuit/netlist.hpp"
#include "circuit/program.hpp"
#include "circuit/transient.hpp"
#include "edram/macrocell.hpp"
#include "edram/netlister.hpp"
#include "msu/extract.hpp"
#include "msu/sequencer.hpp"
#include "tech/tech.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace ecms::circuit {
namespace {

// RC charging from 0 to 1V through 1k into 1nF (tau = 1us), with a wave
// corner at 2us so the checkpoint can sit exactly on a breakpoint.
Circuit rc_circuit() {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("V1", in, kGround,
                SourceWave::pwl({{0.0, 0.0}, {1e-9, 1.0}, {2e-6, 1.0},
                                 {2.001e-6, 0.5}}));
  c.add_resistor("R1", in, out, 1_kOhm);
  c.add_capacitor("C1", out, kGround, 1e-9);
  return c;
}

// Runs `body` with each program cache setting: a fresh cache shared by every
// run of the case (later runs adopt what the first one published), then no
// cache (every engine computes its own pivot order).
template <class Body>
void for_each_cache_setting(Body body) {
  for (const bool on : {true, false}) {
    SCOPED_TRACE(on ? "program cache on" : "program cache off");
    ProgramCache cache;
    body(on ? &cache : nullptr);
  }
}

// Compares two traces sample-for-sample, bit-exact, from time `t_from`.
void expect_identical_from(const Trace& full, const Trace& part,
                           const std::string& chan, double t_from) {
  const auto& ft = full.times();
  const auto& fv = full.channel(chan);
  const auto& pt = part.times();
  const auto& pv = part.channel(chan);
  std::size_t fi = 0;
  while (fi < ft.size() && ft[fi] < t_from - 1e-15) ++fi;
  ASSERT_EQ(ft.size() - fi, pt.size());
  for (std::size_t i = 0; i < pt.size(); ++i) {
    ASSERT_EQ(ft[fi + i], pt[i]) << "sample " << i;
    ASSERT_EQ(fv[fi + i], pv[i]) << "t=" << pt[i];
  }
}

TEST(CheckpointT, ResumeReproducesUninterruptedRunBitExact) {
  for_each_cache_setting([](ProgramCache* cache) {
    const double t_split = 2e-6;  // an existing wave corner
    TranParams tp;
    tp.newton.solver.program_cache = cache;
    tp.t_stop = 4e-6;
    tp.dt = 5e-9;
    const ProbeSet probes{.nodes = {"out"}, .device_currents = {}};

    Circuit full_ckt = rc_circuit();
    const TranResult full = transient(full_ckt, tp, probes);

    Circuit split_ckt = rc_circuit();
    TranParams prefix = tp;
    prefix.t_stop = t_split;
    prefix.checkpoint_at = t_split;
    const TranResult pre = transient(split_ckt, prefix, probes);
    ASSERT_TRUE(pre.checkpoint.valid());
    EXPECT_EQ(pre.checkpoint.time, t_split);

    const TranResult post =
        transient_resume(split_ckt, pre.checkpoint, tp, probes);
    expect_identical_from(full.trace, post.trace, "out", t_split);
    EXPECT_EQ(full.stats.accepted_steps,
              pre.stats.accepted_steps + post.stats.accepted_steps);
    ASSERT_EQ(full.final_x.size(), post.final_x.size());
    for (std::size_t i = 0; i < full.final_x.size(); ++i)
      EXPECT_EQ(full.final_x[i], post.final_x[i]) << "unknown " << i;
  });
}

TEST(CheckpointT, MidIntervalCheckpointLandsExactly) {
  for_each_cache_setting([](ProgramCache* cache) {
    Circuit c = rc_circuit();
    TranParams tp;
    tp.newton.solver.program_cache = cache;
    tp.t_stop = 4e-6;
    tp.dt = 5e-9;
    tp.checkpoint_at = 1.2345e-6;  // not a wave corner, not a step multiple
    const TranResult r =
        transient(c, tp, {.nodes = {"out"}, .device_currents = {}});
    ASSERT_TRUE(r.checkpoint.valid());
    EXPECT_NEAR(r.checkpoint.time, 1.2345e-6, 1e-15);
  });
}

TEST(CheckpointT, CheckpointAtStopEqualsFinalState) {
  for_each_cache_setting([](ProgramCache* cache) {
    Circuit c = rc_circuit();
    TranParams tp;
    tp.newton.solver.program_cache = cache;
    tp.t_stop = 3e-6;
    tp.dt = 5e-9;
    tp.checkpoint_at = tp.t_stop;
    const TranResult r =
        transient(c, tp, {.nodes = {"out"}, .device_currents = {}});
    ASSERT_TRUE(r.checkpoint.valid());
    ASSERT_EQ(r.checkpoint.x.size(), r.final_x.size());
    for (std::size_t i = 0; i < r.final_x.size(); ++i)
      EXPECT_EQ(r.checkpoint.x[i], r.final_x[i]);
  });
}

TEST(CheckpointT, ResumeBranchesDivergeOnlyByReprogrammedWave) {
  for_each_cache_setting([](ProgramCache* cache) {
    // The intended use: snapshot once, branch twice with different stimuli.
    Circuit c = rc_circuit();
    TranParams prefix;
    prefix.newton.solver.program_cache = cache;
    prefix.t_stop = 1e-6;
    prefix.dt = 5e-9;
    prefix.checkpoint_at = 1e-6;
    const ProbeSet probes{.nodes = {"out"}, .device_currents = {}};
    const TranResult pre = transient(c, prefix, probes);
    ASSERT_TRUE(pre.checkpoint.valid());

    TranParams cont = prefix;
    cont.checkpoint_at = -1.0;
    cont.t_stop = 2e-6;
    const TranResult hold = transient_resume(c, pre.checkpoint, cont, probes);

    auto& v1 = c.get<VSource>("V1");
    v1.set_wave(SourceWave::dc(0.0));
    const TranResult drop = transient_resume(c, pre.checkpoint, cont, probes);

    // First sample (the checkpoint state itself) is shared; later the branch
    // driven to 0V must fall while the held branch keeps charging.
    EXPECT_EQ(hold.trace.value_at("out", 1e-6), drop.trace.value_at("out", 1e-6));
    EXPECT_GT(hold.trace.final_value("out"), drop.trace.final_value("out") + 0.1);
  });
}

TEST(CheckpointT, ResumeValidatesCircuitShape) {
  for_each_cache_setting([](ProgramCache* cache) {
    Circuit c = rc_circuit();
    TranParams tp;
    tp.newton.solver.program_cache = cache;
    tp.t_stop = 1e-6;
    tp.dt = 5e-9;
    tp.checkpoint_at = 1e-6;
    const ProbeSet probes{.nodes = {"out"}, .device_currents = {}};
    const TranResult pre = transient(c, tp, probes);

    Circuit other;
    other.add_vsource("V1", other.node("a"), kGround, SourceWave::dc(1.0));
    other.add_resistor("R1", other.node("a"), other.node("b"), 1_kOhm);
    TranParams cont = tp;
    cont.checkpoint_at = -1.0;
    cont.t_stop = 2e-6;
    EXPECT_THROW(transient_resume(other, pre.checkpoint, cont, probes), Error);

    SolverCheckpoint invalid;
    EXPECT_THROW(transient_resume(c, invalid, cont, probes), Error);
  });
}

// The five-step measurement flow on a 2x2 macro-cell, programmed into `ckt`.
msu::Schedule build_flow(Circuit& ckt) {
  const edram::MacroCell mc = edram::MacroCell::uniform(
      {.rows = 2, .cols = 2}, tech::tech018(), 30e-15);
  const msu::StructureParams sp;
  const edram::ArrayNet array = edram::build_array(ckt, mc);
  const msu::StructureNet msu_net =
      build_structure(ckt, array.plate, mc.tech(), sp);
  return msu::program_measurement(ckt, array, msu_net, mc, 0, 0,
                                  /*delta_i=*/1e-6, sp, {});
}

TEST(CheckpointT, MeasurementFlowSplitsAtRampStartBitExact) {
  for_each_cache_setting([](ProgramCache* cache) {
    // The real workload, split at the end of step 4 (charge sharing done,
    // ramp not started), with the prefix step grown as the flow grows it.
    Circuit full_ckt;
    const msu::Schedule sched = build_flow(full_ckt);
    TranParams tp;
    tp.newton.solver.program_cache = cache;
    tp.t_stop = sched.t_end;
    tp.dt = 20e-12;
    tp.uic = true;
    tp.grow_until = sched.t_ramp_start;
    tp.grow_cap = msu::kPrefixStepCap;
    const ProbeSet probes{.nodes = {"plate", "msu_vgs", "msu_out"},
                          .device_currents = {}};
    const TranResult full = transient(full_ckt, tp, probes);

    Circuit split_ckt;
    build_flow(split_ckt);
    TranParams prefix = tp;
    prefix.t_stop = sched.t_ramp_start;
    prefix.checkpoint_at = sched.t_ramp_start;
    const TranResult pre = transient(split_ckt, prefix, probes);
    const TranResult post =
        transient_resume(split_ckt, pre.checkpoint, tp, probes);

    expect_identical_from(full.trace, post.trace, "msu_out",
                          sched.t_ramp_start);
    expect_identical_from(full.trace, post.trace, "plate", sched.t_ramp_start);
  });
}

TEST(CheckpointT, MidPrefixCaptureNeitherRestartsGrowthNorMovesTheGrid) {
  for_each_cache_setting([](ProgramCache* cache) {
    // The flow's grown charge/share prefix, captured mid-step-3 (isolate)
    // at a time that is no stimulus corner.
    Circuit full_ckt;
    const msu::Schedule sched = build_flow(full_ckt);
    TranParams tp;
    tp.newton.solver.program_cache = cache;
    tp.t_stop = sched.t_end;
    tp.dt = 20e-12;
    tp.uic = true;
    tp.grow_until = sched.t_ramp_start;
    tp.grow_cap = msu::kPrefixStepCap;
    const ProbeSet probes{.nodes = {"plate", "msu_vgs", "msu_out"},
                          .device_currents = {}};
    const TranResult full = transient(full_ckt, tp, probes);
    const auto& ft = full.trace.times();
    const double t_grid =
        *std::lower_bound(ft.begin(), ft.end(), 0.5 * (sched.t_charge_end +
                                                       sched.t_share));

    // On the run's own grid: the capturing run takes the uninterrupted
    // run's steps, and resuming from the capture reproduces it bit-exactly.
    Circuit cap_ckt;
    build_flow(cap_ckt);
    TranParams capture = tp;
    capture.checkpoint_at = t_grid;
    const TranResult pre = transient(cap_ckt, capture, probes);
    ASSERT_TRUE(pre.checkpoint.valid());
    EXPECT_EQ(pre.checkpoint.time, t_grid);
    EXPECT_GT(pre.checkpoint.dt, tp.dt);  // captured mid-growth
    expect_identical_from(full.trace, pre.trace, "plate", 0.0);
    const TranResult post =
        transient_resume(cap_ckt, pre.checkpoint, tp, probes);
    expect_identical_from(full.trace, post.trace, "msu_out", t_grid);
    expect_identical_from(full.trace, post.trace, "msu_vgs", t_grid);
    ASSERT_EQ(full.final_x.size(), post.final_x.size());
    for (std::size_t i = 0; i < full.final_x.size(); ++i)
      EXPECT_EQ(full.final_x[i], post.final_x[i]) << "unknown " << i;

    // Off the grid: the capture splits one step but does not restart growth
    // (a restart would cost about four extra steps at the 16x cap).
    Circuit off_ckt;
    build_flow(off_ckt);
    TranParams off = tp;
    off.checkpoint_at = t_grid + 0.3 * tp.dt;
    const TranResult split = transient(off_ckt, off, probes);
    ASSERT_TRUE(split.checkpoint.valid());
    EXPECT_NEAR(split.checkpoint.time, off.checkpoint_at, 1e-18);
    EXPECT_LE(split.stats.accepted_steps, full.stats.accepted_steps + 1);
    const TranResult rest =
        transient_resume(off_ckt, split.checkpoint, tp, probes);
    expect_identical_from(split.trace, rest.trace, "msu_out",
                          split.checkpoint.time);
  });
}

TEST(CheckpointT, RepivotBeforeCaptureResumesBitExact) {
  for_each_cache_setting([](ProgramCache* cache) {
    // A one-shot singular matrix in the charge/share prefix drops the pivot
    // order; the retried step re-pivots on the values it sees. A checkpoint
    // at the ramp start must carry that order, not the one a fresh analysis
    // (cache off) or the cached program (cache on) would give the resume.
    Circuit full_ckt;
    const msu::Schedule sched = build_flow(full_ckt);
    TranParams tp;
    tp.newton.solver.program_cache = cache;
    tp.t_stop = sched.t_end;
    tp.dt = 20e-12;
    tp.uic = true;
    tp.grow_until = sched.t_ramp_start;
    tp.grow_cap = msu::kPrefixStepCap;
    const ProbeSet probes{.nodes = {"plate", "msu_vgs", "msu_out"},
                          .device_currents = {}};
    // Each run gets its own hook, firing at the same time point.
    const double t_fire = sched.t_charge_end;
    auto singular_once = [t_fire](std::atomic<bool>& fired) {
      SolveHooks h;
      h.make_singular = [t_fire, &fired](const StampContext& ctx,
                                         const NewtonOptions&) {
        return ctx.time > t_fire && !fired.exchange(true);
      };
      return h;
    };

    std::atomic<bool> full_fired{false};
    const SolveHooks full_hooks = singular_once(full_fired);
    TranParams full_tp = tp;
    full_tp.newton.hooks = &full_hooks;
    const TranResult full = transient(full_ckt, full_tp, probes);
    EXPECT_TRUE(full_fired.load());
    EXPECT_GE(full.stats.rejected_steps, 1u);

    Circuit split_ckt;
    build_flow(split_ckt);
    std::atomic<bool> split_fired{false};
    const SolveHooks split_hooks = singular_once(split_fired);
    TranParams prefix = tp;
    prefix.newton.hooks = &split_hooks;
    prefix.t_stop = sched.t_ramp_start;
    prefix.checkpoint_at = sched.t_ramp_start;
    const TranResult pre = transient(split_ckt, prefix, probes);
    ASSERT_TRUE(split_fired.load());

    // The re-pivot really moved the order off the hook-free run's.
    Circuit plain_ckt;
    build_flow(plain_ckt);
    TranParams plain = tp;
    plain.t_stop = sched.t_ramp_start;
    plain.checkpoint_at = sched.t_ramp_start;
    const TranResult ref = transient(plain_ckt, plain, probes);
    ASSERT_NE(pre.checkpoint.pivot_order, nullptr);
    ASSERT_NE(ref.checkpoint.pivot_order, nullptr);
    EXPECT_TRUE(
        pre.checkpoint.pivot_order->perm_row !=
            ref.checkpoint.pivot_order->perm_row ||
        pre.checkpoint.pivot_order->perm_col !=
            ref.checkpoint.pivot_order->perm_col);

    const TranResult post =
        transient_resume(split_ckt, pre.checkpoint, tp, probes);
    expect_identical_from(full.trace, post.trace, "msu_out",
                          sched.t_ramp_start);
    expect_identical_from(full.trace, post.trace, "msu_vgs",
                          sched.t_ramp_start);
    ASSERT_EQ(full.final_x.size(), post.final_x.size());
    for (std::size_t i = 0; i < full.final_x.size(); ++i)
      EXPECT_EQ(full.final_x[i], post.final_x[i]) << "unknown " << i;
  });
}

}  // namespace
}  // namespace ecms::circuit
