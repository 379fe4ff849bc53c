// FIG2 — reproduction of Figure 2: "Capacitor extraction simulation
// results: (a) Cm = 20 fF; (b) Cm = 40 fF".
//
// Runs the five-step flow at transistor level for both capacitances, prints
// the OUT switch time / current step (the figure's observable), renders the
// waveforms, and reports paper-vs-measured checks. The google-benchmark part
// times a full circuit-level extraction.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>

#include "msu/extract.hpp"
#include "report/experiment.hpp"
#include "tech/tech.hpp"
#include "util/ascii_plot.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {
using namespace ecms;

edram::MacroCell probe(double cm) {
  return edram::MacroCell::probe({}, tech::tech018(), 0, 0, cm, 30_fF);
}

void render_waveforms(const msu::ExtractionResult& res, double cm_fF) {
  PlotOptions opts;
  opts.width = 76;
  opts.height = 12;
  opts.x_label = "time (ns)";
  LinePlot plot(opts);
  const auto& tr = res.trace;
  // Resampled on a uniform grid: the solver's time points are not (the
  // charge/share prefix step grows between control edges).
  constexpr std::size_t kPoints = 320;
  const double t_end = tr.times().back();
  std::vector<double> t_ns, plate, vgs, out;
  for (std::size_t i = 0; i <= kPoints; ++i) {
    const double t = t_end * static_cast<double>(i) / kPoints;
    t_ns.push_back(to_unit::ns(t));
    plate.push_back(tr.value_at("plate", t));
    vgs.push_back(tr.value_at("msu_vgs", t));
    out.push_back(tr.value_at("msu_out", t));
  }
  plot.add_series("V(plate)", t_ns, plate);
  plot.add_series("V_GS (REF gate)", t_ns, vgs);
  plot.add_series("OUT", t_ns, out);
  std::printf("--- waveforms, Cm = %.0f fF ---\n%s\n", cm_fF,
              plot.render().c_str());
}

void run_fig2() {
  std::printf(
      "FIG2: five-step measurement flow at transistor level (10 ns/step)\n\n");
  Table table({"Cm (fF)", "V(plate) end of step 2 (V)", "V_GS after share (V)",
               "OUT flip time (ns)", "current step at flip", "code"});

  msu::ExtractionResult r20 = msu::extract_cell(probe(20_fF), 0, 0, {});
  msu::ExtractionResult r40 = msu::extract_cell(probe(40_fF), 0, 0, {});
  for (const auto* r : {&r20, &r40}) {
    table.add_row(
        {Table::num(r == &r20 ? 20.0 : 40.0, 0),
         Table::num(r->v_plate_charged, 3), Table::num(r->vgs_shared, 3),
         r->t_out_rise ? Table::num(to_unit::ns(*r->t_out_rise), 2) : "none",
         r->t_out_rise
             ? Table::num(static_cast<long long>(
                   r->schedule.ramp.ramp_step_at(*r->t_out_rise -
                                                 r->schedule.decision_latency)))
             : "-",
         Table::num(static_cast<long long>(r->code))});
  }
  std::cout << table << '\n';

  render_waveforms(r20, 20.0);
  render_waveforms(r40, 40.0);

  report::Experiment exp("FIG2", "Capacitor extraction simulation results");
  exp.check("plate charges fully during step 2",
            "V(plate) = " + Table::num(r20.v_plate_charged, 3) + " V of 1.8 V",
            r20.v_plate_charged > 1.75);
  exp.check("V_GS after sharing grows with Cm",
            Table::num(r20.vgs_shared, 3) + " V (20 fF) vs " +
                Table::num(r40.vgs_shared, 3) + " V (40 fF)",
            r40.vgs_shared > r20.vgs_shared);
  exp.check(
      "OUT switches at a later current step for 40 fF than for 20 fF",
      "step " + Table::num(static_cast<long long>(r20.code + 1)) + " vs step " +
          Table::num(static_cast<long long>(r40.code + 1)),
      r40.code > r20.code);
  exp.check("the switch happens within step 5 (the conversion window)",
            r20.t_out_rise
                ? Table::num(to_unit::ns(*r20.t_out_rise), 1) + " ns"
                : "none",
            r20.t_out_rise && *r20.t_out_rise > 40e-9 &&
                *r20.t_out_rise < 51e-9);
  exp.note(
      "substitution: level-1/EKV MNA transient simulator instead of the "
      "proprietary SPICE + ST 0.18um design kit");
  std::cout << exp << '\n';
}

void BM_CircuitExtraction4x4(benchmark::State& state) {
  const auto mc = probe(30_fF);
  for (auto _ : state) {
    auto res = msu::extract_cell(mc, 0, 0, {}, {},
                                 {.dt = 20e-12, .record_trace = false});
    benchmark::DoNotOptimize(res.code);
  }
}
BENCHMARK(BM_CircuitExtraction4x4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  run_fig2();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
