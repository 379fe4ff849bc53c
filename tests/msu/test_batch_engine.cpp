// Batched lockstep extraction (DESIGN.md §14): the golden contract that
// extract_array with batch_width > 1 produces results bit-identical to the
// scalar per-cell path — exhaustive and adaptive flows, forced-scalar
// kernels, a varied array tile at full and ragged widths, a pre-published
// program the batch must ride, fault-injected cells retiring to the scalar
// path, equal solver counters, and the engagement predicate that keeps
// hooked / cache-less plans off the batch entirely. One engine-level case
// drives circuit::BatchEngine over every device type against scalar
// transient() sample by sample, and one mixes lanes that share MOSFET
// parameters (one lane-kernel call for all) with a lane that does not.
// Two more drive the engine's point-invariant caches: SoA static matrix
// images across hits, misses and evictions, and the SoA companion history
// handed back to finished and retired lanes; and one compacts the lanes
// between advances while they finish at staggered levels.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/batch.hpp"
#include "circuit/kernels.hpp"
#include "circuit/program.hpp"
#include "circuit/static_image.hpp"
#include "fault/fault.hpp"
#include "msu/batch_extract.hpp"
#include "msu/extract.hpp"
#include "obs/metrics.hpp"
#include "serve/workload.hpp"
#include "tech/tech.hpp"

namespace ecms::msu {
namespace {

edram::MacroCell mc2x2(double cap = 30e-15) {
  return edram::MacroCell::uniform({.rows = 2, .cols = 2}, tech::tech018(),
                                   cap);
}

// Bit-identity is claimed against the scalar path on a single attempt (the
// batch kernels run the scalar path's sparse LU across lanes).
ExtractPlan single_attempt_plan() {
  ExtractPlan plan;
  plan.retry.max_attempts = 1;
  return plan;
}

// Per-cell results must agree field by field; doubles compare exactly (the
// batch path's claim is bit-identity, not closeness).
void expect_identical(const RobustExtraction& batched,
                      const RobustExtraction& scalar) {
  ASSERT_EQ(batched.results.size(), scalar.results.size());
  ASSERT_EQ(batched.status, scalar.status);
  for (std::size_t i = 0; i < scalar.results.size(); ++i) {
    const ExtractionResult& b = batched.results[i];
    const ExtractionResult& s = scalar.results[i];
    EXPECT_EQ(b.code, s.code) << "cell " << i;
    EXPECT_EQ(b.status, s.status) << "cell " << i;
    ASSERT_EQ(b.t_out_rise.has_value(), s.t_out_rise.has_value())
        << "cell " << i;
    if (s.t_out_rise) {
      EXPECT_EQ(*b.t_out_rise, *s.t_out_rise) << "cell " << i;
    }
    EXPECT_EQ(b.v_plate_charged, s.v_plate_charged) << "cell " << i;
    EXPECT_EQ(b.vgs_shared, s.vgs_shared) << "cell " << i;
    EXPECT_EQ(b.prefix_steps, s.prefix_steps) << "cell " << i;
    EXPECT_EQ(b.stats.accepted_steps, s.stats.accepted_steps) << "cell " << i;
    EXPECT_EQ(b.stats.newton_iterations, s.stats.newton_iterations)
        << "cell " << i;
    EXPECT_EQ(b.adaptive.used, s.adaptive.used) << "cell " << i;
    EXPECT_EQ(b.adaptive.probes, s.adaptive.probes) << "cell " << i;
  }
  EXPECT_EQ(batched.report.recovered, scalar.report.recovered);
  EXPECT_EQ(batched.report.failures.size(), scalar.report.failures.size());
}

// One 4x4 tile of the benchmark's 16x16 array (seed 7, gradient 0.3): a
// varied tile, not a uniform one.
edram::MacroCell array16_tile() {
  serve::ArraySpec spec;
  spec.rows = 16;
  spec.cols = 16;
  spec.seed = 7;
  spec.gradient = 0.3;
  return serve::build_array(spec).tile(4, 8, 4, 4);
}

// The solver counters a batched run must report exactly as the scalar run.
const char* const kSolverCounters[] = {
    "circuit.newton.solves",         "circuit.newton.iterations",
    "circuit.lu.numeric",            "circuit.lu.symbolic",
    "circuit.assemble.restamps",     "circuit.assemble.static_hits",
    "circuit.transient.solves",      "circuit.transient.resumes",
    "circuit.transient.accepted_steps"};

// Counter deltas of one extraction into `out`, metrics armed.
std::map<std::string, std::uint64_t> counted_run(const edram::MacroCell& mc,
                                                 const ExtractPlan& plan,
                                                 RobustExtraction& out) {
  obs::set_metrics_enabled(true);
  const auto before = obs::Registry::global().snapshot().counters;
  out = extract_array(mc, {}, plan);
  const auto after = obs::Registry::global().snapshot().counters;
  obs::set_metrics_enabled(false);
  auto value = [](const auto& counters, const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? std::uint64_t{0} : it->second;
  };
  std::vector<std::string> names(std::begin(kSolverCounters),
                                 std::end(kSolverCounters));
  names.push_back("circuit.batch.retired");
  names.push_back("circuit.batch.scalar_fallbacks");
  std::map<std::string, std::uint64_t> delta;
  for (const auto& n : names) delta[n] = value(after, n) - value(before, n);
  return delta;
}

class BatchEngineT : public ::testing::Test {
 protected:
  void TearDown() override {
    circuit::kernels::set_force_scalar(false);
    obs::set_metrics_enabled(false);
  }
};

TEST_F(BatchEngineT, EngagementPredicateGatesTheBatchPath) {
  ExtractPlan plan;
  EXPECT_TRUE(batch_engageable(plan));

  ExtractPlan uncached = plan;
  uncached.options.newton.solver.program_cache = nullptr;
  EXPECT_FALSE(batch_engageable(uncached));

  fault::SolverFaultInjector inj;
  const circuit::SolveHooks hooks = inj.hooks();
  ExtractPlan hooked = plan;
  hooked.options.newton.hooks = &hooks;
  EXPECT_FALSE(batch_engageable(hooked));

  EXPECT_EQ(resolved_batch_width(8), 8u);
  EXPECT_EQ(resolved_batch_width(0),
            circuit::kernels::preferred_width());
  EXPECT_GE(resolved_batch_width(0), 4u);
}

TEST_F(BatchEngineT, ExhaustiveArrayBitIdenticalToScalarPath) {
  const auto mc = mc2x2();
  const ExtractPlan scalar_plan = single_attempt_plan();
  const auto scalar = extract_array(mc, {}, scalar_plan);

  // Widths that tile the 4 cells evenly (4), with a remainder chunk (3),
  // and auto (0 resolves to the host's preferred lane count).
  for (int width : {4, 3, 0}) {
    ExtractPlan plan = scalar_plan;
    plan.batch_width = width;
    const auto batched = extract_array(mc, {}, plan);
    SCOPED_TRACE("batch_width=" + std::to_string(width));
    expect_identical(batched, scalar);
  }
}

TEST_F(BatchEngineT, AdaptiveArrayBitIdenticalIncludingProbeCounts) {
  // The staircase-replay must reproduce the scalar scheduler probe by
  // probe, so per-cell probe counts and accumulated step/iteration stats
  // match exactly, not just the codes.
  const auto mc = mc2x2();
  ExtractPlan scalar_plan = single_attempt_plan();
  scalar_plan.options.adaptive.enabled = true;
  const auto scalar = extract_array(mc, {}, scalar_plan);

  ExtractPlan plan = scalar_plan;
  plan.batch_width = 4;
  const auto batched = extract_array(mc, {}, plan);
  expect_identical(batched, scalar);
  for (const auto& r : batched.results) {
    EXPECT_TRUE(r.adaptive.attempted);
  }
}

TEST_F(BatchEngineT, ForcedScalarKernelsProduceIdenticalResults) {
  const auto mc = mc2x2();
  ExtractPlan plan = single_attempt_plan();
  plan.batch_width = 4;
  const auto dispatched = extract_array(mc, {}, plan);

  circuit::kernels::set_force_scalar(true);
  const auto forced = extract_array(mc, {}, plan);
  circuit::kernels::set_force_scalar(false);
  expect_identical(forced, dispatched);
}

TEST_F(BatchEngineT, HookFailedCellsRetireToScalarRetryPath) {
  // Attempt 0 of cell (1, 0) throws before it can join the batch; the
  // retry budget lets attempt 1 measure it on the scalar path, exactly as
  // the scalar engine would have.
  const auto mc = mc2x2();
  auto flaky_hook = [](std::size_t r, std::size_t c, int attempt) {
    if (r == 1 && c == 0 && attempt == 0) {
      throw std::runtime_error("injected attempt-0 fault");
    }
  };

  ExtractPlan scalar_plan = single_attempt_plan();
  scalar_plan.retry.max_attempts = 2;
  scalar_plan.cell_hook = flaky_hook;
  const auto scalar = extract_array(mc, {}, scalar_plan);

  ExtractPlan plan = scalar_plan;
  plan.batch_width = 4;
  const auto batched = extract_array(mc, {}, plan);
  expect_identical(batched, scalar);
  ASSERT_EQ(batched.status.size(), 4u);
  EXPECT_EQ(batched.status[2], CellStatus::kRecovered);  // cell (1, 0)
  EXPECT_EQ(batched.report.recovered, 1u);
}

TEST_F(BatchEngineT, UnmeasurableCellsAreContainedIdentically) {
  // Cell (0, 1) fails every attempt: the batch path must produce the same
  // clamped placeholder and failure report as the scalar engine.
  const auto mc = mc2x2();
  auto dead_hook = [](std::size_t r, std::size_t c, int) {
    if (r == 0 && c == 1) throw std::runtime_error("cell is dead");
  };

  ExtractPlan scalar_plan = single_attempt_plan();
  scalar_plan.retry.max_attempts = 2;
  scalar_plan.unmeasurable_code = 7;
  scalar_plan.cell_hook = dead_hook;
  const auto scalar = extract_array(mc, {}, scalar_plan);

  ExtractPlan plan = scalar_plan;
  plan.batch_width = 4;
  const auto batched = extract_array(mc, {}, plan);
  expect_identical(batched, scalar);
  ASSERT_EQ(batched.status.size(), 4u);
  EXPECT_EQ(batched.status[1], CellStatus::kUnmeasurable);
  EXPECT_EQ(batched.results[1].code, 7);
  ASSERT_EQ(batched.report.failures.size(), 1u);
  EXPECT_EQ(batched.report.failures[0].row, 0u);
  EXPECT_EQ(batched.report.failures[0].col, 1u);
}

TEST_F(BatchEngineT, DefaultPlanEngagesAndCodesMatchSparseScalar) {
  // The default plan engages the batch, and its sparse lanes pair up code
  // for code and status for status with the sparse scalar run.
  const auto mc = mc2x2();
  ExtractPlan scalar_plan;
  scalar_plan.retry.max_attempts = 1;
  ASSERT_TRUE(batch_engageable(scalar_plan));
  const auto scalar = extract_array(mc, {}, scalar_plan);

  ExtractPlan plan = scalar_plan;
  plan.batch_width = 4;
  const auto batched = extract_array(mc, {}, plan);
  ASSERT_EQ(batched.results.size(), scalar.results.size());
  EXPECT_EQ(batched.status, scalar.status);
  for (std::size_t i = 0; i < scalar.results.size(); ++i) {
    EXPECT_EQ(batched.results[i].code, scalar.results[i].code) << "cell " << i;
  }
}

TEST_F(BatchEngineT, NonSquareArrayChunksCoverEveryCell) {
  const auto mc = edram::MacroCell::uniform({.rows = 2, .cols = 3},
                                            tech::tech018(), 30e-15);
  const ExtractPlan scalar_plan = single_attempt_plan();
  const auto scalar = extract_array(mc, {}, scalar_plan);

  ExtractPlan plan = scalar_plan;
  plan.batch_width = 4;  // chunks of 4 + 2 over the 6 cells
  const auto batched = extract_array(mc, {}, plan);
  expect_identical(batched, scalar);
  EXPECT_EQ(batched.results.size(), 6u);
}

TEST_F(BatchEngineT, SolverCountersEqualScalarPath) {
  // The lane-native path counts its own restamps, static hits and
  // refactors; with the lane engines' discovery and bootstrap solve they
  // must add up to exactly the scalar run's counts. Each run gets a cold
  // cache so both compile the program once.
  const auto mc = array16_tile();
  circuit::ProgramCache scalar_cache, batch_cache;
  ExtractPlan scalar_plan = single_attempt_plan();
  scalar_plan.options.adaptive.enabled = true;
  scalar_plan.options.newton.solver.program_cache = &scalar_cache;
  ExtractPlan plan = scalar_plan;
  plan.batch_width = 16;
  plan.options.newton.solver.program_cache = &batch_cache;

  RobustExtraction scalar, batched;
  const auto want = counted_run(mc, scalar_plan, scalar);
  const auto got = counted_run(mc, plan, batched);
  expect_identical(batched, scalar);
  for (const char* name : kSolverCounters) {
    EXPECT_EQ(got.at(name), want.at(name)) << name;
  }
  EXPECT_GT(got.at("circuit.lu.numeric"), 0u);
  EXPECT_EQ(got.at("circuit.lu.symbolic"), 1u);
  // One bootstrap solve (the cache was cold), no retirements.
  EXPECT_EQ(got.at("circuit.batch.scalar_fallbacks"), 1u);
  EXPECT_EQ(got.at("circuit.batch.retired"), 0u);
}

TEST_F(BatchEngineT, VariedTileBitIdenticalAtFullRaggedAndScalarKernels) {
  // Adaptive scheduling on, as the array workload runs: one chunk of 16,
  // chunks of 5 (a tail that is not a multiple of the AVX2 width, and a
  // final chunk of 1), and the forced-scalar kernels.
  const auto mc = array16_tile();
  ExtractPlan scalar_plan = single_attempt_plan();
  scalar_plan.options.adaptive.enabled = true;
  const auto scalar = extract_array(mc, {}, scalar_plan);
  for (int width : {16, 5}) {
    ExtractPlan plan = scalar_plan;
    plan.batch_width = width;
    SCOPED_TRACE("batch_width=" + std::to_string(width));
    expect_identical(extract_array(mc, {}, plan), scalar);
  }
  ExtractPlan plan = scalar_plan;
  plan.batch_width = 16;
  circuit::kernels::set_force_scalar(true);
  const auto forced = extract_array(mc, {}, plan);
  circuit::kernels::set_force_scalar(false);
  SCOPED_TRACE("forced scalar kernels");
  expect_identical(forced, scalar);
}

TEST_F(BatchEngineT, RidesAPrePublishedProgramWithAnotherPivotOrder) {
  // A program compiled from other values (a 1 fF array) sits in the cache
  // before the run, and its pivot order differs from the one lane 0 would
  // compute. Every lane adopts and rides it, as every scalar cell does:
  // codes and solver counters match the scalar run on the same cache
  // state, nothing bootstraps, and at most lane 0 may leave the batch.
  const auto mc = mc2x2();
  auto compiled = [](const edram::MacroCell& m) {
    circuit::ProgramCache cache;
    ExtractPlan p = single_attempt_plan();
    p.options.newton.solver.program_cache = &cache;
    extract_array(m, {}, p);
    const auto entries = cache.entries();
    EXPECT_EQ(entries.size(), 1u);
    return entries.front().second;
  };
  const auto natural = compiled(mc);
  const auto other = compiled(mc2x2(1e-15));
  ASSERT_EQ(natural->key, other->key);
  ASSERT_TRUE(natural->symbolic->perm_row != other->symbolic->perm_row ||
              natural->symbolic->perm_col != other->symbolic->perm_col)
      << "the pre-published order must differ from lane 0's";

  circuit::ProgramCache scalar_cache, batch_cache;
  scalar_cache.insert(other->key, other);
  batch_cache.insert(other->key, other);
  ExtractPlan scalar_plan = single_attempt_plan();
  scalar_plan.options.newton.solver.program_cache = &scalar_cache;
  ExtractPlan plan = scalar_plan;
  plan.batch_width = 4;
  plan.options.newton.solver.program_cache = &batch_cache;

  RobustExtraction scalar, batched;
  const auto want = counted_run(mc, scalar_plan, scalar);
  const auto got = counted_run(mc, plan, batched);
  expect_identical(batched, scalar);
  EXPECT_EQ(got.at("circuit.batch.scalar_fallbacks"), 0u);
  EXPECT_LE(got.at("circuit.batch.retired"), 1u);
  for (const char* name : kSolverCounters) {
    EXPECT_EQ(got.at(name), want.at(name)) << name;
  }
}

// A small netlist with every device type: an EKV inverter driving an RC
// load, a level-1 pair, a diode clamp, a voltage-controlled switch and a
// current source. `k` varies element values per lane; `c_extra` may be 0,
// which drops that capacitor's stamps from the coordinate stream.
void build_every_device(circuit::Circuit& c, int k, double c_extra) {
  using namespace circuit;
  const double f = 1.0 + 0.07 * k;
  const NodeId vdd = c.node("vdd"), in = c.node("in"), out = c.node("out");
  const NodeId mid = c.node("mid"), mid2 = c.node("mid2");
  c.add_vsource("VDD", vdd, kGround, SourceWave::dc(1.8));
  c.add_vsource("VIN", in, kGround,
                SourceWave::pulse(0.0, 1.8, 0.2e-9, 1.0e-9, 0.1e-9));
  MosParams pe = tech::tech018().pmos(2e-6 * f, 0.18e-6);
  MosParams ne = tech::tech018().nmos(1e-6 * f, 0.18e-6);
  c.add_mosfet("MP", out, in, vdd, vdd, pe);
  c.add_mosfet("MN", out, in, kGround, kGround, ne);
  c.add_capacitor("CL", out, kGround, 10e-15 * f);
  c.add_resistor("R1", out, mid, 20e3 * f);
  c.add_capacitor("CX", mid, kGround, c_extra);
  MosParams n1 = ne, p1 = pe;
  n1.model = MosModel::kLevel1;
  p1.model = MosModel::kLevel1;
  c.add_mosfet("MN1", mid, in, kGround, kGround, n1);
  c.add_mosfet("MP1", mid2, out, vdd, vdd, p1);
  c.add_capacitor("C2", mid2, kGround, 5e-15);
  c.add_diode("D1", mid2, mid, {});
  c.add_switch("S1", mid2, kGround, in, kGround, {.r_on = 5e3 * f});
  c.add_isource("I1", kGround, mid2,
                SourceWave::pulse(0.0, 2e-6 * f, 0.5e-9, 1.5e-9, 0.1e-9));
}

TEST_F(BatchEngineT, EveryDeviceTypeMatchesScalarTransientSampleBySample) {
  constexpr std::size_t kLanes = 6, kZeroCapLane = 2;
  circuit::ProgramCache cache;
  circuit::TranParams tp;
  tp.t_stop = 2e-9;
  tp.dt = 20e-12;
  tp.uic = true;
  tp.grow_until = 0.8e-9;
  tp.grow_cap = 4.0;
  tp.newton.solver.program_cache = &cache;

  auto cap_of = [&](std::size_t k) {
    return k == kZeroCapLane ? 0.0 : 3e-15 * (1.0 + 0.1 * k);
  };
  std::vector<std::unique_ptr<circuit::Circuit>> ckts;
  std::vector<circuit::Circuit*> lanes;
  for (std::size_t k = 0; k < kLanes; ++k) {
    ckts.push_back(std::make_unique<circuit::Circuit>());
    build_every_device(*ckts.back(), static_cast<int>(k), cap_of(k));
    lanes.push_back(ckts.back().get());
  }
  circuit::BatchEngine::Options bo;
  bo.step = tp.schedule();
  bo.newton = tp.newton;
  circuit::BatchEngine eng(lanes, bo);
  std::vector<std::vector<std::pair<double, std::vector<double>>>> got(
      kLanes);
  eng.advance(tp.t_stop, [&](std::size_t lane, double t,
                             std::span<const double> x) {
    got[lane].emplace_back(t, std::vector<double>(x.begin(), x.end()));
  });

  const std::vector<std::string> nodes = {"vdd", "in", "out", "mid", "mid2"};
  auto scalar_run = [&](circuit::Circuit& c) {
    return circuit::transient(c, tp, {.nodes = nodes, .device_currents = {}});
  };
  for (std::size_t k = 0; k < kLanes; ++k) {
    SCOPED_TRACE("lane " + std::to_string(k));
    circuit::Circuit fresh;
    build_every_device(fresh, static_cast<int>(k), cap_of(k));
    const circuit::TranResult ref = scalar_run(fresh);
    if (k == kZeroCapLane) {
      // Its coordinate stream differs from the program the batch rides.
      EXPECT_EQ(eng.state(k), circuit::BatchEngine::LaneState::kRetired);
      // Re-measured on the scalar path from the lane's own circuit, it
      // reproduces a fresh scalar run exactly.
      const circuit::TranResult again = scalar_run(*ckts[k]);
      ASSERT_EQ(again.trace.sample_count(), ref.trace.sample_count());
      for (std::size_t c = 0; c < nodes.size(); ++c) {
        for (std::size_t i = 0; i < ref.trace.sample_count(); ++i) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(again.trace.channel(c)[i]),
                    std::bit_cast<std::uint64_t>(ref.trace.channel(c)[i]));
        }
      }
      continue;
    }
    ASSERT_EQ(eng.state(k), circuit::BatchEngine::LaneState::kActive)
        << eng.retire_reason(k);
    ASSERT_EQ(got[k].size(), ref.trace.sample_count());
    EXPECT_EQ(eng.stats(k).accepted_steps, ref.stats.accepted_steps);
    EXPECT_EQ(eng.stats(k).newton_iterations, ref.stats.newton_iterations);
    for (std::size_t i = 0; i < got[k].size(); ++i) {
      ASSERT_EQ(got[k][i].first, ref.trace.times()[i]) << "sample " << i;
      for (std::size_t c = 0; c < nodes.size(); ++c) {
        const auto id = static_cast<std::size_t>(fresh.find_node(nodes[c]));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k][i].second[id - 1]),
                  std::bit_cast<std::uint64_t>(ref.trace.channel(c)[i]))
            << "sample " << i << " node " << nodes[c];
      }
    }
    // The branch currents of the last sample, too.
    EXPECT_EQ(got[k].back().second, ref.final_x);
  }
}

// Two EKV inverters in a chain; the load capacitance varies by lane, and
// `vth_shift` moves the first NMOS's threshold.
void build_inverter_pair(circuit::Circuit& c, int k, double vth_shift) {
  using namespace circuit;
  const NodeId vdd = c.node("vdd"), in = c.node("in");
  const NodeId out1 = c.node("out1"), out2 = c.node("out2");
  c.add_vsource("VDD", vdd, kGround, SourceWave::dc(1.8));
  c.add_vsource("VIN", in, kGround,
                SourceWave::pulse(0.0, 1.8, 0.2e-9, 0.8e-9, 0.1e-9));
  const MosParams pe = tech::tech018().pmos(2e-6, 0.18e-6);
  MosParams ne = tech::tech018().nmos(1e-6, 0.18e-6);
  const MosParams ne2 = ne;
  ne.vth0 += vth_shift;
  c.add_mosfet("MP1", out1, in, vdd, vdd, pe);
  c.add_mosfet("MN1", out1, in, kGround, kGround, ne);
  c.add_mosfet("MP2", out2, out1, vdd, vdd, pe);
  c.add_mosfet("MN2", out2, out1, kGround, kGround, ne2);
  c.add_capacitor("C1", out1, kGround, 4e-15 * (1.0 + 0.1 * k));
  c.add_capacitor("C2", out2, kGround, 6e-15);
}

TEST_F(BatchEngineT, SharedAndPerLaneMosfetParametersMatchScalarTransient) {
  // Every lane but kOddLane carries the same MOSFET parameters, so three
  // of the four MOSFETs are evaluated for all lanes in one kernels::ekv
  // call; MN1's threshold differs on kOddLane, so MN1 is evaluated one
  // lane per call. Both paths must keep every lane in the batch, sample for
  // sample bit-identical to scalar transient(), on every kernel backend.
  constexpr std::size_t kLanes = 7, kOddLane = 3;
  const std::vector<std::string> nodes = {"in", "out1", "out2"};
  for (const bool force_scalar : {false, true}) {
    SCOPED_TRACE(force_scalar ? "forced-scalar kernels" : "dispatched");
    circuit::kernels::set_force_scalar(force_scalar);
    circuit::ProgramCache cache;
    circuit::TranParams tp;
    tp.t_stop = 1.5e-9;
    tp.dt = 20e-12;
    tp.uic = true;
    tp.newton.solver.program_cache = &cache;
    auto shift_of = [&](std::size_t k) { return k == kOddLane ? 0.02 : 0.0; };
    std::vector<std::unique_ptr<circuit::Circuit>> ckts;
    std::vector<circuit::Circuit*> lanes;
    for (std::size_t k = 0; k < kLanes; ++k) {
      ckts.push_back(std::make_unique<circuit::Circuit>());
      build_inverter_pair(*ckts.back(), static_cast<int>(k), shift_of(k));
      lanes.push_back(ckts.back().get());
    }
    circuit::BatchEngine::Options bo;
    bo.step = tp.schedule();
    bo.newton = tp.newton;
    circuit::BatchEngine eng(lanes, bo);
    std::vector<std::vector<std::pair<double, std::vector<double>>>> got(
        kLanes);
    eng.advance(tp.t_stop, [&](std::size_t lane, double t,
                               std::span<const double> x) {
      got[lane].emplace_back(t, std::vector<double>(x.begin(), x.end()));
    });
    for (std::size_t k = 0; k < kLanes; ++k) {
      SCOPED_TRACE("lane " + std::to_string(k));
      circuit::Circuit fresh;
      build_inverter_pair(fresh, static_cast<int>(k), shift_of(k));
      const circuit::TranResult ref = circuit::transient(
          fresh, tp, {.nodes = nodes, .device_currents = {}});
      ASSERT_EQ(eng.state(k), circuit::BatchEngine::LaneState::kActive)
          << eng.retire_reason(k);
      ASSERT_EQ(got[k].size(), ref.trace.sample_count());
      EXPECT_EQ(eng.stats(k).newton_iterations, ref.stats.newton_iterations);
      for (std::size_t i = 0; i < got[k].size(); ++i) {
        for (std::size_t c = 0; c < nodes.size(); ++c) {
          const auto id = static_cast<std::size_t>(fresh.find_node(nodes[c]));
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k][i].second[id - 1]),
                    std::bit_cast<std::uint64_t>(ref.trace.channel(c)[i]))
              << "sample " << i << " node " << nodes[c];
        }
      }
    }
    // The odd lane really moved: its output differs from lane 0's.
    EXPECT_NE(got[kOddLane].back().second, got[0].back().second);
  }
}

// An EKV inverter driven through PWL corners at irregular times: the step
// that lands on each corner has a length of its own, so the run meets more
// distinct (dt, integrator) keys than the static image cache holds.
void build_pwl_inverter(circuit::Circuit& c, int k) {
  using namespace circuit;
  const NodeId vdd = c.node("vdd"), in = c.node("in"), out = c.node("out");
  c.add_vsource("VDD", vdd, kGround, SourceWave::dc(1.8));
  c.add_vsource("VIN", in, kGround,
                SourceWave::pwl({{0.0, 0.0},
                                 {0.133e-9, 1.8},
                                 {0.297e-9, 1.8},
                                 {0.471e-9, 0.2},
                                 {0.659e-9, 0.2},
                                 {0.838e-9, 1.6},
                                 {1.073e-9, 1.6},
                                 {1.196e-9, 0.0},
                                 {1.372e-9, 0.9},
                                 {1.581e-9, 0.9}}));
  c.add_mosfet("MP", out, in, vdd, vdd, tech::tech018().pmos(2e-6, 0.18e-6));
  c.add_mosfet("MN", out, in, kGround, kGround,
               tech::tech018().nmos(1e-6, 0.18e-6));
  c.add_capacitor("CL", out, kGround, 5e-15 * (1.0 + 0.1 * k));
  c.add_resistor("RL", out, kGround, 200e3);
}

TEST_F(BatchEngineT, StaticImageHitsMissesAndEvictionsMatchScalarTransient) {
  // The lockstep run reuses cached SoA matrix images on repeated keys,
  // stamps new ones on the landing steps and evicts past the capacity;
  // every lane stays sample-for-sample bit-identical to scalar transient().
  constexpr std::size_t kLanes = 5;
  circuit::ProgramCache cache;
  circuit::TranParams tp;
  tp.t_stop = 1.8e-9;
  tp.dt = 20e-12;
  tp.uic = true;
  tp.newton.solver.program_cache = &cache;
  std::vector<std::unique_ptr<circuit::Circuit>> ckts;
  std::vector<circuit::Circuit*> lanes;
  for (std::size_t k = 0; k < kLanes; ++k) {
    ckts.push_back(std::make_unique<circuit::Circuit>());
    build_pwl_inverter(*ckts.back(), static_cast<int>(k));
    lanes.push_back(ckts.back().get());
  }
  circuit::BatchEngine::Options bo;
  bo.step = tp.schedule();
  bo.newton = tp.newton;
  circuit::BatchEngine eng(lanes, bo);
  std::vector<std::vector<std::vector<double>>> got(kLanes);
  eng.advance(tp.t_stop, [&](std::size_t lane, double,
                             std::span<const double> x) {
    got[lane].emplace_back(x.begin(), x.end());
  });
  const circuit::StaticImageCache& images = eng.static_images();
  EXPECT_GT(images.hits(), images.misses());
  EXPECT_GT(images.misses(), circuit::StaticImageCache::kCapacity);
  EXPECT_EQ(images.size(), circuit::StaticImageCache::kCapacity);

  const std::vector<std::string> nodes = {"in", "out"};
  for (std::size_t k = 0; k < kLanes; ++k) {
    SCOPED_TRACE("lane " + std::to_string(k));
    circuit::Circuit fresh;
    build_pwl_inverter(fresh, static_cast<int>(k));
    const circuit::TranResult ref = circuit::transient(
        fresh, tp, {.nodes = nodes, .device_currents = {}});
    ASSERT_EQ(eng.state(k), circuit::BatchEngine::LaneState::kActive)
        << eng.retire_reason(k);
    ASSERT_EQ(got[k].size(), ref.trace.sample_count());
    for (std::size_t i = 0; i < got[k].size(); ++i) {
      for (std::size_t c = 0; c < nodes.size(); ++c) {
        const auto id = static_cast<std::size_t>(fresh.find_node(nodes[c]));
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[k][i][id - 1]),
                  std::bit_cast<std::uint64_t>(ref.trace.channel(c)[i]))
            << "sample " << i << " node " << nodes[c];
      }
    }
    EXPECT_EQ(got[k].back(), ref.final_x);
  }
}

std::vector<std::uint64_t> state_bits(const circuit::Circuit& c) {
  std::vector<double> blob;
  for (const auto& d : c.devices()) d->save_state(blob);
  std::vector<std::uint64_t> out;
  for (const double v : blob) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

std::vector<std::uint64_t> state_bits(const circuit::SolverCheckpoint& ck) {
  std::vector<std::uint64_t> out;
  for (const double v : ck.device_state) {
    out.push_back(std::bit_cast<std::uint64_t>(v));
  }
  return out;
}

TEST_F(BatchEngineT, FinishedAndRetiredLanesHoldTheScalarCheckpointHistory) {
  // While a lane is in the batch its companion history lives in SoA
  // arrays; finish() and retire() hand it back to the lane's devices. The
  // lane's circuit then holds exactly the device_state of a scalar
  // checkpoint taken at the batch's time: a lane retired mid-run at t1, one
  // finished at t1, and one finished after a second segment at t2.
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kRetired = 1, kFinishedEarly = 0, kFinishedLate = 2;
  constexpr double kT1 = 0.7e-9, kT2 = 1.3e-9;
  circuit::ProgramCache cache;
  circuit::TranParams tp;
  tp.dt = 20e-12;
  tp.uic = true;
  tp.grow_until = 0.5e-9;
  tp.grow_cap = 4.0;
  tp.newton.solver.program_cache = &cache;
  std::vector<std::unique_ptr<circuit::Circuit>> ckts;
  std::vector<circuit::Circuit*> lanes;
  for (std::size_t k = 0; k < kLanes; ++k) {
    ckts.push_back(std::make_unique<circuit::Circuit>());
    build_inverter_pair(*ckts.back(), static_cast<int>(k), 0.0);
    lanes.push_back(ckts.back().get());
  }
  circuit::BatchEngine::Options bo;
  bo.step = tp.schedule();
  bo.newton = tp.newton;
  circuit::BatchEngine eng(lanes, bo);
  const auto ignore = [](std::size_t, double, std::span<const double>) {};

  // Scalar checkpoints at t1 and (resumed from t1) at t2.
  auto scalar_at = [&](std::size_t k, bool second_segment) {
    circuit::Circuit fresh;
    build_inverter_pair(fresh, static_cast<int>(k), 0.0);
    circuit::TranParams p = tp;
    p.t_stop = kT1;
    p.checkpoint_at = kT1;
    circuit::SolverCheckpoint ck =
        circuit::transient(fresh, p, {}).checkpoint;
    if (second_segment) {
      p.t_stop = kT2;
      p.checkpoint_at = kT2;
      ck = circuit::transient_resume(fresh, ck, p, {}).checkpoint;
    }
    return ck;
  };

  eng.advance(kT1, ignore);
  const double t1 = eng.time();
  ASSERT_EQ(eng.active_lanes(), kLanes);
  eng.retire(kRetired, "forced retirement");
  eng.finish(kFinishedEarly);
  eng.advance(kT2, ignore);
  const double t2 = eng.time();
  eng.finish(kFinishedLate);

  const std::pair<std::size_t, bool> cases[] = {
      {kRetired, false}, {kFinishedEarly, false}, {kFinishedLate, true}};
  for (const auto& [k, late] : cases) {
    SCOPED_TRACE("lane " + std::to_string(k));
    const circuit::SolverCheckpoint ck = scalar_at(k, late);
    ASSERT_TRUE(ck.valid());
    EXPECT_EQ(ck.time, late ? t2 : t1);
    EXPECT_EQ(state_bits(*ckts[k]), state_bits(ck));
    const auto x = eng.x(k);
    EXPECT_EQ(std::vector<double>(x.begin(), x.end()), ck.x);
  }
}

TEST_F(BatchEngineT, CompactedLanesMatchScalarTransientSampleBySample) {
  // Lanes finish at staggered advance() levels and one middle lane retires
  // mid-advance, so every later advance() repacks the active lanes into
  // fewer columns (9 -> 7 -> 5 -> 3, never a multiple of 4), the cached
  // static images with them. Each lane must stay sample for sample
  // bit-identical to the chain of scalar transient segments it stepped
  // through, with the same stats and, once finished or retired, the
  // companion history of the scalar checkpoint; the images stamped before
  // a repack must keep serving hits after it.
  constexpr std::size_t kLanes = 9, kRetired = 4;
  const double kStops[] = {0.7e-9, 1.25e-9, 1.7e-9, 2.1e-9};
  // The advance() after which each lane is finished (kRetired: none).
  const std::size_t finish_after[kLanes] = {0, 2, 1, 3, 9, 3, 2, 0, 3};
  constexpr double kRetireAfter = 1.0e-9;  // inside the second advance()
  const std::vector<std::string> nodes = {"vdd", "in", "out", "mid", "mid2"};
  using Samples = std::vector<std::pair<double, std::vector<double>>>;
  for (const bool force_scalar : {false, true}) {
    SCOPED_TRACE(force_scalar ? "forced-scalar kernels" : "dispatched");
    circuit::kernels::set_force_scalar(force_scalar);
    circuit::ProgramCache cache;
    circuit::TranParams tp;
    tp.dt = 20e-12;
    tp.uic = true;
    tp.grow_until = 0.5e-9;
    tp.grow_cap = 4.0;
    tp.newton.solver.program_cache = &cache;
    auto cap_of = [](std::size_t k) { return 3e-15 * (1.0 + 0.1 * k); };
    std::vector<std::unique_ptr<circuit::Circuit>> ckts;
    std::vector<circuit::Circuit*> lanes;
    for (std::size_t k = 0; k < kLanes; ++k) {
      ckts.push_back(std::make_unique<circuit::Circuit>());
      build_every_device(*ckts.back(), static_cast<int>(k), cap_of(k));
      lanes.push_back(ckts.back().get());
    }
    circuit::BatchEngine::Options bo;
    bo.step = tp.schedule();
    bo.newton = tp.newton;
    circuit::BatchEngine eng(lanes, bo);

    // got[lane][segment]: the lane's samples in that advance().
    std::vector<std::vector<Samples>> got(kLanes);
    double t_retired = -1.0;
    std::size_t segment = 0;
    const auto record = [&](std::size_t lane, double t,
                            std::span<const double> x) {
      got[lane].resize(segment + 1);
      got[lane][segment].emplace_back(t, std::vector<double>(x.begin(),
                                                             x.end()));
      if (lane == kRetired && segment == 1 && t_retired < 0.0 &&
          t > kRetireAfter) {
        eng.retire(lane, "retired mid-advance");
        t_retired = t;
      }
    };
    std::uint64_t hits_before_repack = 0;
    std::vector<double> finished_at(kLanes, -1.0);
    for (segment = 0; segment < std::size(kStops); ++segment) {
      if (segment == 1) hits_before_repack = eng.static_images().hits();
      eng.advance(kStops[segment], record);
      for (std::size_t k = 0; k < kLanes; ++k) {
        if (finish_after[k] != segment) continue;
        ASSERT_EQ(eng.state(k), circuit::BatchEngine::LaneState::kActive)
            << "lane " << k << ": " << eng.retire_reason(k);
        eng.finish(k);
        finished_at[k] = eng.time();
      }
    }
    ASSERT_GT(t_retired, 0.0);
    EXPECT_EQ(eng.state(kRetired), circuit::BatchEngine::LaneState::kRetired);
    // The repacked images kept serving the base step's key.
    EXPECT_GT(eng.static_images().hits(), hits_before_repack);
    EXPECT_LE(eng.static_images().size(),
              circuit::StaticImageCache::kCapacity);

    for (std::size_t k = 0; k < kLanes; ++k) {
      SCOPED_TRACE("lane " + std::to_string(k));
      circuit::Circuit fresh;
      build_every_device(fresh, static_cast<int>(k), cap_of(k));
      const std::size_t last = k == kRetired ? 1 : finish_after[k];
      ASSERT_EQ(got[k].size(), last + 1);
      circuit::SolverCheckpoint ck;
      std::size_t accepted = 0, iterations = 0;
      for (std::size_t seg = 0; seg <= last; ++seg) {
        SCOPED_TRACE("segment " + std::to_string(seg));
        circuit::TranParams p = tp;
        p.t_stop = kStops[seg];
        p.checkpoint_at = k == kRetired && seg == last ? t_retired
                                                       : kStops[seg];
        const circuit::TranResult ref =
            seg == 0 ? circuit::transient(fresh, p,
                                          {.nodes = nodes,
                                           .device_currents = {}})
                     : circuit::transient_resume(fresh, ck, p,
                                                 {.nodes = nodes,
                                                  .device_currents = {}});
        ck = ref.checkpoint;
        ASSERT_TRUE(ck.valid());
        const Samples& mine = got[k][seg];
        if (k == kRetired && seg == last) {
          // Its samples stop at the one it retired on.
          ASSERT_LT(mine.size(), ref.trace.sample_count());
          EXPECT_EQ(mine.back().first, t_retired);
        } else {
          ASSERT_EQ(mine.size(), ref.trace.sample_count());
          accepted += ref.stats.accepted_steps;
          iterations += ref.stats.newton_iterations;
        }
        for (std::size_t i = 0; i < mine.size(); ++i) {
          ASSERT_EQ(mine[i].first, ref.trace.times()[i]) << "sample " << i;
          for (std::size_t c = 0; c < nodes.size(); ++c) {
            const auto id =
                static_cast<std::size_t>(fresh.find_node(nodes[c]));
            ASSERT_EQ(std::bit_cast<std::uint64_t>(mine[i].second[id - 1]),
                      std::bit_cast<std::uint64_t>(ref.trace.channel(c)[i]))
                << "sample " << i << " node " << nodes[c];
          }
        }
      }
      // The lane's last state and the history its devices got back are
      // those of the scalar checkpoint where it left the batch.
      EXPECT_EQ(ck.time, k == kRetired ? t_retired : finished_at[k]);
      const auto x = eng.x(k);
      EXPECT_EQ(std::vector<double>(x.begin(), x.end()), ck.x);
      EXPECT_EQ(state_bits(*ckts[k]), state_bits(ck));
      if (k != kRetired) {
        EXPECT_EQ(eng.stats(k).accepted_steps, accepted);
        EXPECT_EQ(eng.stats(k).newton_iterations, iterations);
        EXPECT_EQ(eng.stats(k).segments, last + 1);
      }
    }
  }
}

}  // namespace
}  // namespace ecms::msu
