// Circuit-level (transistor-level transient) extraction tests: the paper's
// own validation methodology, asserted. These are the slowest tests in the
// suite (~0.1-0.2 s each).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "circuit/program.hpp"
#include "msu/extract.hpp"
#include "msu/fastmodel.hpp"
#include "tech/tech.hpp"
#include "util/error.hpp"
#include "util/threadpool.hpp"
#include "util/units.hpp"

namespace ecms::msu {
namespace {

edram::MacroCell probe(double target_fF) {
  return edram::MacroCell::probe({}, tech::tech018(), 0, 0, target_fF * 1e-15,
                                 30_fF);
}

ExtractOptions fast_opts() { return {.dt = 20e-12, .record_trace = false}; }

TEST(ExtractionT, FlowEstablishesPaperConditions) {
  const auto mc = probe(30.0);
  const auto res = extract_cell(mc, 0, 0, {}, {}, {.dt = 20e-12});
  // Step 2 charges the plate to the full rail (boosted PRG gate).
  EXPECT_NEAR(res.v_plate_charged, 1.8, 0.02);
  // Step 4 leaves V_GS between the rails, proportional to Cm.
  EXPECT_GT(res.vgs_shared, 0.3);
  EXPECT_LT(res.vgs_shared, 1.0);
  // The code is in range for a nominal capacitor.
  EXPECT_GT(res.code, 1);
  EXPECT_LT(res.code, 19);
  ASSERT_TRUE(res.t_out_rise.has_value());
  EXPECT_GT(*res.t_out_rise, res.schedule.t_ramp_start);
}

TEST(ExtractionT, TraceChannelsRecorded) {
  const auto mc = probe(30.0);
  const double dt = 20e-12;
  const auto res = extract_cell(mc, 0, 0, {}, {}, {.dt = dt});
  EXPECT_EQ(res.trace.channel_count(), 5u);
  // The prefix step grows; the conversion window stays sampled at dt.
  const auto& ts = res.trace.times();
  const auto conversion = std::count_if(ts.begin(), ts.end(), [&](double t) {
    return t >= res.schedule.t_ramp_start - 1e-15 &&
           t <= res.schedule.t_end + 1e-15;
  });
  EXPECT_GE(static_cast<double>(conversion),
            (res.schedule.t_end - res.schedule.t_ramp_start) / dt);
  // OUT is digital: ends at a rail.
  const double out_final = res.trace.final_value("msu_out");
  EXPECT_TRUE(out_final < 0.1 || out_final > 1.7);
}

TEST(ExtractionT, Figure2Ordering) {
  // Fig. 2: the OUT switch happens at a later current step for 40 fF than
  // for 20 fF, and V_GS after sharing is higher for the larger capacitor.
  const auto r20 = extract_cell(probe(20.0), 0, 0, {}, {}, fast_opts());
  const auto r40 = extract_cell(probe(40.0), 0, 0, {}, {}, fast_opts());
  EXPECT_GT(r40.vgs_shared, r20.vgs_shared + 0.05);
  EXPECT_GT(r40.code, r20.code + 3);
  ASSERT_TRUE(r20.t_out_rise && r40.t_out_rise);
  EXPECT_GT(*r40.t_out_rise, *r20.t_out_rise);
}

TEST(ExtractionT, CodeMonotoneAcrossWindow) {
  int prev = -1;
  for (double fF : {5.0, 20.0, 35.0, 50.0, 65.0}) {
    const auto res = extract_cell(probe(fF), 0, 0, {}, {}, fast_opts());
    EXPECT_GE(res.code, prev) << fF;
    prev = res.code;
  }
}

TEST(ExtractionT, FullScaleAboveWindowTop) {
  const auto res = extract_cell(probe(65.0), 0, 0, {}, {}, fast_opts());
  EXPECT_EQ(res.code, 20);
  EXPECT_FALSE(res.t_out_rise.has_value());  // OUT never flips
}

TEST(ExtractionT, ShortReadsZeroAtCircuitLevel) {
  auto mc = probe(30.0);
  mc.set_defect(0, 0, tech::make_short());
  const auto res = extract_cell(mc, 0, 0, {}, {}, fast_opts());
  EXPECT_EQ(res.code, 0);
  // The shorted plate cannot hold the shared charge.
  EXPECT_LT(res.vgs_shared, 0.1);
}

TEST(ExtractionT, OpenReadsZeroAtCircuitLevel) {
  auto mc = probe(30.0);
  mc.set_defect(0, 0, tech::make_open());
  const auto res = extract_cell(mc, 0, 0, {}, {}, fast_opts());
  EXPECT_LE(res.code, 1);  // fringe residual only
}

TEST(ExtractionT, NonCornerTargetCell) {
  // Measuring an interior cell works the same way (different word/bit line).
  const auto mc =
      edram::MacroCell::probe({}, tech::tech018(), 2, 3, 40_fF, 30_fF);
  const auto res = extract_cell(mc, 2, 3, {}, {}, fast_opts());
  EXPECT_GT(res.code, 5);
  EXPECT_LT(res.code, 20);
}

TEST(ExtractionT, DeltaOverrideRespected) {
  const auto mc = probe(30.0);
  auto opts = fast_opts();
  opts.delta_i = 100e-6;  // much coarser ramp -> lower code
  const auto coarse = extract_cell(mc, 0, 0, {}, {}, opts);
  const auto normal = extract_cell(mc, 0, 0, {}, {}, fast_opts());
  EXPECT_NEAR(coarse.delta_i, 100e-6, 1e-12);
  EXPECT_LT(coarse.code, normal.code);
}

TEST(ExtractionT, PrefixTimeGridIsValueIndependent) {
  // The grown prefix schedule reads only dt, the stimulus corners, the
  // window and the cap: cells of different Cm step on one time grid.
  const auto lo = extract_cell(probe(15.0), 0, 0, {}, {}, {.dt = 20e-12});
  const auto hi = extract_cell(probe(50.0), 0, 0, {}, {}, {.dt = 20e-12});
  ASSERT_NE(lo.code, hi.code);
  auto prefix = [](const ExtractionResult& r) {
    const auto& ts = r.trace.times();
    return std::vector<double>(
        ts.begin(),
        std::upper_bound(ts.begin(), ts.end(),
                         r.schedule.t_ramp_start + 1e-15));
  };
  const auto grid = prefix(lo);
  EXPECT_EQ(grid, prefix(hi));
  EXPECT_EQ(lo.prefix_steps, hi.prefix_steps);
  EXPECT_EQ(lo.prefix_steps + 1, grid.size());
  // ...and that grid is much coarser than the fixed 20 ps one.
  EXPECT_LT(lo.prefix_steps * 4,
            static_cast<std::size_t>(lo.schedule.t_ramp_start / 20e-12));
}

TEST(ExtractionT, GrownPrefixMatchesFineReferenceAcrossAllCodes) {
  // The FIG3 sweep against a converged 5 ps fixed-step reference: the grown
  // 20 ps schedule disagrees on no more points than the fixed 20 ps step,
  // and never by more than one code.
  const auto mc = edram::MacroCell::uniform({}, tech::tech018(), 30_fF);
  const StructureParams params;
  const FastModel model(mc, params);
  auto code = [&](double fF, double dt, double cap) {
    auto cell = mc;
    cell.set_true_cap(0, 0, fF * 1e-15);
    ExtractOptions o{.dt = dt, .record_trace = false,
                     .delta_i = model.delta_i()};
    o.adaptive.enabled = true;
    // A private program cache keeps the pivot order independent of which
    // pool thread compiled first.
    circuit::ProgramCache cache;
    o.newton.solver.program_cache = &cache;
    o.prefix_step_cap = cap;
    return extract_cell(cell, 0, 0, params, {}, o).code;
  };
  // 1.5 fF spacing is finer than every code interval (~2.2 fF).
  constexpr std::size_t kPoints = 39;
  std::vector<int> ref(kPoints), grown(kPoints), fixed(kPoints);
  util::ThreadPool pool(3);
  pool.parallel_for(kPoints, 1, [&](std::size_t i) {
    const double fF = 4.0 + 1.5 * static_cast<double>(i);
    ref[i] = code(fF, 5e-12, 1.0);
    grown[i] = code(fF, 20e-12, kPrefixStepCap);
    fixed[i] = code(fF, 20e-12, 1.0);
  });
  std::vector<bool> seen(params.ramp_steps + 1, false);
  int off_grown = 0, off_fixed = 0, worst = 0;
  for (std::size_t i = 0; i < kPoints; ++i) {
    seen[static_cast<std::size_t>(ref[i])] = true;
    off_grown += grown[i] != ref[i];
    off_fixed += fixed[i] != ref[i];
    worst = std::max(worst, std::abs(grown[i] - ref[i]));
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true), params.ramp_steps + 1);
  EXPECT_LE(off_grown, off_fixed);
  EXPECT_LE(worst, 1);
}

TEST(ExtractionT, InvalidTargetThrows) {
  const auto mc = probe(30.0);
  EXPECT_THROW(extract_cell(mc, 7, 0, {}, {}, fast_opts()), Error);
}

}  // namespace
}  // namespace ecms::msu
