#include "circuit/batch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <typeinfo>
#include <utility>

#include "circuit/diode.hpp"
#include "circuit/mosfet.hpp"
#include "circuit/passive.hpp"
#include "circuit/sources.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace ecms::circuit {

namespace {
constexpr double kTimeEps = 1e-18;  // matches transient.cpp
}

BatchEngine::BatchEngine(std::span<Circuit* const> lanes, const Options& opts)
    : opts_(opts) {
  ECMS_REQUIRE(!lanes.empty(), "batch engine needs at least one lane");
  ECMS_REQUIRE(opts_.newton.hooks == nullptr,
               "batch engine does not support solve hooks (fault-injected "
               "cells run the scalar path)");
  ECMS_REQUIRE(opts_.newton.solver.program_cache != nullptr,
               "batch engine needs a program cache: without one, resumed "
               "scalar segments re-pivot per segment and the lockstep run "
               "could not be bit-identical to them");
  ECMS_REQUIRE(opts_.step.dt > 0.0, "batch engine needs a positive base step");

  // One reset up front so a reused arena starts a fresh generation before
  // any engine carves from it (and so util.arena.resets reflects the batch).
  arena_.reset();
  a_soa_.bind(&arena_);
  l_soa_.bind(&arena_);
  u_soa_.bind(&arena_);
  work_soa_.bind(&arena_);
  pb_soa_.bind(&arena_);
  mos_soa_.bind(&arena_);

  lanes[0]->finalize();
  n_ = lanes[0]->unknown_count();
  nv_ = lanes[0]->node_count() - 1;

  // UIC start: x = 0 at t = 0, device history initialized from it — the
  // same initial condition every measurement flow uses (uic-only is an
  // engagement precondition enforced by the caller).
  w_ = lanes.size();
  cols_.resize(w_);
  xs_.assign((n_ + 1) * w_, 0.0);
  size_columns();
  lanes_.resize(lanes.size());
  for (std::size_t li = 0; li < lanes.size(); ++li) {
    Lane& lane = lanes_[li];
    lane.ckt = lanes[li];
    lane.col = li;
    cols_[li] = li;
    lane.ckt->finalize();
    if (lane.ckt->unknown_count() != n_ ||
        lane.ckt->node_count() - 1 != nv_) {
      // A structurally different lane can never share the program; its
      // measurement runs scalar from scratch.
      retire(li, "lane topology differs from lane 0", /*divergence=*/false);
      continue;
    }
    lane.eng = std::make_unique<SparseEngine>(
        n_, opts_.newton.solver.program_cache, &arena_);
    lane.x.assign(n_, 0.0);
    StampContext ctx;
    ctx.x = lane.x;
    ctx.time = 0.0;
    ctx.dt = 0.0;
    for (const auto& d : lane.ckt->devices()) d->init_state(ctx);
  }
  force_be_ = opts_.be_after_breakpoint;  // first step from t = 0 uses BE
  dt_ = opts_.step.dt;
  ECMS_METRIC_COUNT("circuit.batch.lanes", lanes.size());
}

BatchEngine::~BatchEngine() = default;

std::size_t BatchEngine::active_lanes() const {
  std::size_t n = 0;
  for (const Lane& lane : lanes_) {
    if (lane.state == LaneState::kActive) ++n;
  }
  return n;
}

void BatchEngine::retire(std::size_t lane, std::string reason,
                         bool divergence) {
  Lane& L = lanes_[lane];
  if (L.state != LaneState::kActive) return;
  write_back(lane);
  L.state = LaneState::kRetired;
  L.reason = std::move(reason);
  // Pending counters are dropped, not flushed: the scalar re-measurement of
  // this cell counts its own work, so flushing here would double-count.
  ECMS_METRIC_COUNT("circuit.batch.retired", 1);
  if (divergence) ECMS_METRIC_COUNT("circuit.batch.divergences", 1);
}

void BatchEngine::finish(std::size_t lane) {
  Lane& L = lanes_[lane];
  if (L.state != LaneState::kActive) return;
  flush_counters(L);
  write_back(lane);
  L.state = LaneState::kFinished;
}

void BatchEngine::write_back(std::size_t lane) {
  Lane& L = lanes_[lane];
  if (!L.soa_history) return;
  L.soa_history = false;
  // A lane with SoA history is active, so it still has its column.
  const std::size_t w = w_;
  const std::size_t c = L.col;
  const auto& devs = L.ckt->devices();
  std::vector<double> blob;
  for (std::size_t d = 0; d < plans_.size(); ++d) {
    const DevPlan& p = plans_[d];
    if (p.kind == DeviceKind::kGeneric) continue;
    // save_state() order: (v_prev, i_prev) per companion, stamp order.
    blob.clear();
    for (std::size_t k = p.k_begin; k < p.k_end; ++k) {
      blob.push_back(comp_v_[k * w + c]);
      blob.push_back(comp_i_[k * w + c]);
    }
    devs[d]->restore_state(blob);
  }
}

void BatchEngine::flush_counters(Lane& lane) {
  if (!obs::metrics_enabled()) return;
  // A completing lane always has its engine (only construction-time
  // retirements lack one).
  const SparseEngine& eng = *lane.eng;
  ECMS_METRIC_COUNT("circuit.newton.solves", lane.points);
  ECMS_METRIC_COUNT("circuit.newton.iterations", lane.iters);
  ECMS_METRIC_COUNT("circuit.lu.symbolic", eng.symbolic_factorizations());
  ECMS_METRIC_COUNT("circuit.lu.numeric",
                    eng.numeric_factorizations() + lane.vector_refactors);
  ECMS_METRIC_COUNT("circuit.assemble.static_hits",
                    eng.static_hits() + lane.static_hits);
  ECMS_METRIC_COUNT("circuit.assemble.restamps",
                    eng.static_restamps() + lane.restamps);
  // Each advance() this lane stepped in is the batched equivalent of one
  // scalar transient segment (all segments past the first are resumes).
  ECMS_METRIC_COUNT("circuit.transient.solves", lane.stats.segments);
  ECMS_METRIC_COUNT("circuit.transient.accepted_steps",
                    lane.stats.accepted_steps);
  if (lane.stats.segments > 1) {
    ECMS_METRIC_COUNT("circuit.transient.resumes", lane.stats.segments - 1);
  }
}

void BatchEngine::compact() {
  std::vector<std::size_t> keep;  // old columns of the active lanes
  for (std::size_t c = 0; c < w_; ++c) {
    if (lanes_[cols_[c]].state == LaneState::kActive) keep.push_back(c);
  }
  if (keep.size() == w_) return;
  const std::size_t w = keep.size(), old = w_;
  // In place, forwards: an element only ever moves to a lower index, and
  // keep is increasing, so no source is overwritten before it is read.
  const auto repack = [&](double* a, std::size_t rows) {
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < w; ++j) a[r * w + j] = a[r * old + keep[j]];
    }
  };
  repack(xs_.data(), n_ + 1);
  xs_.resize((n_ + 1) * w);
  if (prog_ != nullptr) {
    const std::size_t nk = comps_.size();
    for (std::vector<double>* a : {&comp_c_, &comp_v_, &comp_i_}) {
      repack(a->data(), nk);
      a->resize(nk * w);
    }
    images_.repack((nnz_ + nk) * w,
                   [&](double* image) { repack(image, nnz_ + nk); });
    restored_image_ = nullptr;  // a_soa_ is not repacked
  }
  for (std::size_t c = 0; c < old; ++c) lanes_[cols_[c]].col = kNoColumn;
  std::vector<std::size_t> cols(w);
  for (std::size_t j = 0; j < w; ++j) {
    cols[j] = cols_[keep[j]];
    lanes_[cols[j]].col = j;
  }
  cols_ = std::move(cols);
  w_ = w;
  size_columns();
}

void BatchEngine::size_columns() {
  const std::size_t w = w_;
  step_.assign(w, 0);
  degraded_.assign(w, 0);
  max_dv_.assign(w, 0.0);
  max_x_.assign(w, 0.0);
  scale_.assign(w, 0.0);
  pb_soa_.assign(n_ * w, 0.0);
  if (prog_ == nullptr) return;
  const auto premultiply = [w](const std::vector<std::uint32_t>& slots,
                               std::vector<std::uint32_t>& out) {
    out.resize(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      out[i] = static_cast<std::uint32_t>(slots[i] * w);
    }
  };
  premultiply(prog_->static_slots, static_slots_w_);
  premultiply(prog_->dynamic_slots, dynamic_slots_w_);
  // The slots the dynamic stamps touch, once each.
  std::vector<std::uint32_t> dyn = prog_->dynamic_slots;
  std::sort(dyn.begin(), dyn.end());
  dyn.erase(std::unique(dyn.begin(), dyn.end()), dyn.end());
  premultiply(dyn, dyn_slots_w_);
  const LuSymbolic& sy = *prog_->symbolic;
  a_soa_.resize(nnz_ * w);
  l_soa_.resize(sy.l_cols.size() * w);
  u_soa_.resize(sy.u_cols.size() * w);
  work_soa_.resize(sy.n * w);
  mos_soa_.assign(kMosOutputs * w, 0.0);
  b_static_.resize(n_ * w);
}

void BatchEngine::advance(
    double t_stop,
    const std::function<void(std::size_t, double, std::span<const double>)>&
        on_sample) {
  obs::ScopedSpan span("batch_advance");
  ECMS_REQUIRE(t_stop > t_ + kTimeEps,
               "batch advance t_stop must lie after the current time");
  span.arg("t_stop_s", t_stop);
  span.arg("lanes", static_cast<double>(active_lanes()));

  compact();
  std::size_t ref = lanes_.size();
  for (std::size_t li = 0; li < lanes_.size(); ++li) {
    Lane& L = lanes_[li];
    if (L.state != LaneState::kActive) continue;
    if (ref == lanes_.size()) ref = li;
    ++L.stats.segments;
    // Boundary sample: the first trace row a scalar segment records.
    on_sample(li, t_, L.x);
  }
  if (ref == lanes_.size()) {  // nothing left to step
    t_ = t_stop;
    first_advance_ = false;
    return;
  }

  if (first_advance_) {
    // The lockstep schedule is a pure function of (dt, breakpoints): lanes
    // are the same netlist with the same stimulus timing, so their
    // breakpoint lists agree. A lane that disagrees (a reprogrammed wave,
    // an exotic defect model) cannot share the time grid and is retired.
    // Lane circuits are immutable, so the full lists are compared once and
    // every advance() steps through the part before its t_stop, which is
    // what Circuit::breakpoints(t_stop) returns.
    constexpr double kAll = std::numeric_limits<double>::infinity();
    bps_ = lanes_[ref].ckt->breakpoints(kAll);
    for (std::size_t li = ref + 1; li < lanes_.size(); ++li) {
      Lane& L = lanes_[li];
      if (L.state != LaneState::kActive) continue;
      if (L.ckt->breakpoints(kAll) != bps_) {
        retire(li, "breakpoint schedule differs from the batch",
               /*divergence=*/false);
      }
    }
  }
  const std::size_t n_bps = static_cast<std::size_t>(
      std::lower_bound(bps_.begin(), bps_.end(), t_stop) - bps_.begin());

  std::size_t next_bp = 0;
  bool start_on_bp = false;
  while (next_bp < n_bps && bps_[next_bp] <= t_ + kTimeEps) {
    if (bps_[next_bp] >= t_ - kTimeEps) start_on_bp = true;
    ++next_bp;
  }
  const StepSchedule& sched = opts_.step;
  if (!first_advance_ && start_on_bp) {
    // transient_resume applies breakpoint handling when it starts on a
    // corner (the uninterrupted run saw it when landing here).
    force_be_ = opts_.be_after_breakpoint;
    dt_ = sched.dt;
  }

  // Never halved: any lane needing a halving retires.
  double t = t_;
  while (t < t_stop - kTimeEps) {
    double step = std::min(sched.step_from(t, dt_), t_stop - t);
    bool hits_bp = false;
    if (next_bp < n_bps && t + step >= bps_[next_bp] - kTimeEps) {
      step = bps_[next_bp] - t;
      hits_bp = true;
      if (step <= kTimeEps) {  // already on the breakpoint
        ++next_bp;
        continue;
      }
    }

    StampContext proto;
    proto.time = t + step;
    proto.dt = step;
    proto.method =
        force_be_ ? Integrator::kBackwardEuler : opts_.method;
    proto.gmin = opts_.newton.gmin_ground;

    if (active_lanes() == 0) break;
    if (!solve_point(proto)) break;

    accept_step(proto);
    for (std::size_t li = 0; li < lanes_.size(); ++li) {
      Lane& L = lanes_[li];
      if (L.state != LaneState::kActive) continue;
      ++L.stats.accepted_steps;
      L.stats.newton_iterations += static_cast<std::size_t>(L.point_iters);
      ++L.points;
      L.iters += static_cast<std::size_t>(L.point_iters);
      on_sample(li, t + step, L.x);
    }
    t += step;

    if (hits_bp) {
      ++next_bp;
      force_be_ = opts_.be_after_breakpoint;
      dt_ = sched.dt;
    } else {
      force_be_ = false;
      dt_ = sched.grow(t, dt_);
    }
  }

  // Keep the loop's actual final time, not the requested target: a
  // breakpoint one ulp short of t_stop ends the segment *on* the breakpoint
  // (exactly as run_transient leaves its checkpoint there), and the next
  // segment must resume from that grid point or the lockstep grid drifts
  // off the uninterrupted run's by a whole step.
  t_ = t;
  first_advance_ = false;
}

namespace {

// A joining lane's coordinate streams with each device's end offset,
// checked against the program and lane by lane before any lane loop
// trusts them.
struct Recording {
  std::vector<std::uint64_t> s_coords, d_coords;
  std::vector<std::uint32_t> s_end, d_end;  // per device
};

class CoordSink final : public StampSink {
 public:
  std::vector<std::uint64_t>* out = nullptr;
  void add(std::size_t row, std::size_t col, double) override {
    out->push_back(pack_coord(row, col));
  }
};

Recording record(const Circuit& ckt, const StampContext& ctx,
                 std::span<double> b) {
  Recording rec;
  CoordSink sink;
  MnaView view(sink);
  sink.out = &rec.s_coords;
  for (const auto& d : ckt.devices()) {
    if (d->nonlinear()) {
      d->stamp_static(ctx, view, b);
    } else {
      d->stamp(ctx, view, b);
    }
    rec.s_end.push_back(static_cast<std::uint32_t>(rec.s_coords.size()));
  }
  sink.out = &rec.d_coords;
  for (const auto& d : ckt.devices()) {
    if (d->nonlinear()) d->stamp(ctx, view, b);
    rec.d_end.push_back(static_cast<std::uint32_t>(rec.d_coords.size()));
  }
  return rec;
}

// The verifying replay cursor over one device's range [begin, end) of a
// program tape, writing the lane column `column` of an SoA image.
ReplayTape lane_tape(const std::vector<std::uint64_t>& coords,
                     const std::vector<std::uint32_t>& slots_w,
                     std::uint32_t begin, std::uint32_t end, double* column) {
  ReplayTape rt;
  rt.coords = coords.data();
  rt.slots = slots_w.data();
  rt.cursor = begin;
  rt.size = end;
  rt.values = column;
  return rt;
}

// Calls fn(companion, a, b) for each capacitor companion of a MOSFET or a
// capacitor, in the order its static stamp and save_state() visit them.
template <class Fn>
void for_each_companion(const Device& d, DeviceKind kind, Fn&& fn) {
  if (kind == DeviceKind::kMosfet) {
    for (const auto& c : static_cast<const Mosfet&>(d).companions()) {
      fn(*c.cap, c.a, c.b);
    }
  } else if (kind == DeviceKind::kCapacitor) {
    const auto& cap = static_cast<const Capacitor&>(d);
    fn(cap.companion(), cap.a(), cap.b());
  }
}

bool same_device_types(const Circuit& a, const Circuit& b) {
  const auto& da = a.devices();
  const auto& db = b.devices();
  if (da.size() != db.size()) return false;
  for (std::size_t i = 0; i < da.size(); ++i) {
    if (typeid(*da[i]) != typeid(*db[i])) return false;
  }
  return true;
}

bool same_points(const SourceWave& a, const SourceWave& b) {
  const auto& pa = a.points();
  const auto& pb = b.points();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(pa[i].t) !=
            std::bit_cast<std::uint64_t>(pb[i].t) ||
        std::bit_cast<std::uint64_t>(pa[i].v) !=
            std::bit_cast<std::uint64_t>(pb[i].v)) {
      return false;
    }
  }
  return true;
}

// The wave and right-hand-side rows of a VSource or ISource (unknown
// indices, -1 for ground).
const SourceWave& source_wave(const Device& d) {
  if (typeid(d) == typeid(VSource)) {
    return static_cast<const VSource&>(d).wave();
  }
  return static_cast<const ISource&>(d).wave();
}
std::pair<int, int> source_rows(const Device& d) {
  const auto row = [](NodeId n) {
    return n == kGround ? -1 : static_cast<int>(unknown_of(n));
  };
  if (typeid(d) == typeid(VSource)) {
    return {static_cast<int>(static_cast<const VSource&>(d).branch_index()),
            -1};
  }
  const auto& is = static_cast<const ISource&>(d);
  return {row(is.p()), row(is.n())};
}

}  // namespace

void BatchEngine::newton_update(int iter, const std::uint32_t* xn_row) {
  // newton_solve_impl's damping and update for the stepping columns, one
  // lanewise kernel pass (its maxima skip NaN operands exactly as the
  // scalar loops do); then its decisions, per column.
  const NewtonOptions& no = opts_.newton;
  const std::size_t w = w_;
  kernels::active().newton_update(
      {.x = xs_.data() + w,
       .x_new = pb_soa_.data(),
       .x_new_row = xn_row,
       .nv = nv_,
       .n = n_,
       .step = step_.data(),
       .max_delta_v = no.max_delta_v,
       .max_dv = max_dv_.data(),
       .max_x = max_x_.data(),
       .scale = scale_.data()},
      w);
  for (std::size_t c = 0; c < w; ++c) {
    if (step_[c] == 0) continue;
    Lane& L = lanes_[cols_[c]];
    L.point_iters = iter + 1;
    const double final_delta = max_dv_[c] * scale_[c];
    if (!std::isfinite(final_delta)) {
      retire(cols_[c], "non-finite newton update", /*divergence=*/true);
      continue;
    }
    if (scale_[c] == 1.0 &&
        max_dv_[c] < no.tol_abs_v + no.tol_rel * std::max(max_x_[c], 1.0)) {
      L.unfinished = false;  // converged
    }
  }
}

bool BatchEngine::join(const StampContext& proto) {
  // Discovery through each lane's own engine, in lane order: a cache miss
  // compiles and publishes exactly as the first scalar cell would (one
  // scalar solve), before any later lane assembles, so the later lanes
  // adopt the program during their own discovery.
  for (std::size_t li = 0; li < lanes_.size(); ++li) {
    Lane& L = lanes_[li];
    if (L.state != LaneState::kActive) continue;
    StampContext ctx = proto;
    ctx.x = L.x;
    L.eng->begin_point();
    L.eng->assemble(*L.ckt, ctx, opts_.newton.gmin_ground);
    if (L.eng->lu_symbolic() != nullptr) continue;  // adopted a program
    try {
      L.eng->factor();
    } catch (const SolverError&) {
      // The scalar transient rejects and halves on a singular system; a
      // halved step leaves the lockstep grid.
      retire(li, "singular system", /*divergence=*/true);
      continue;
    }
    lane_x_.assign(n_, 0.0);
    L.eng->solve(std::span<double>(lane_x_));
    ECMS_METRIC_COUNT("circuit.batch.scalar_fallbacks", 1);
    // Its column takes the engine's solution through the lockstep update,
    // placed where the update reads a solution: pb, column-permuted by the
    // engine's own order.
    const LuSymbolic& esy = *L.eng->lu_symbolic();
    for (std::size_t u = 0; u < n_; ++u) {
      pb_soa_[esy.pinv_col[u] * w_ + L.col] = lane_x_[u];
    }
    std::fill(step_.begin(), step_.end(), 0);
    step_[L.col] = 1;
    newton_update(0, esy.pinv_col.data());
    L.engine_solved = true;
  }

  // Ride the cached program most lanes hold (the scalar path adopts it
  // too); a lane on another program or pivot order retires.
  std::size_t best = 0;
  for (const Lane& cand : lanes_) {
    if (cand.state != LaneState::kActive || cand.eng->program() == nullptr)
      continue;
    std::size_t votes = 0;
    for (const Lane& L : lanes_) {
      votes += L.state == LaneState::kActive &&
               L.eng->program() == cand.eng->program();
    }
    if (votes > best) {
      best = votes;
      prog_ = cand.eng->program();
    }
  }
  if (prog_ == nullptr || prog_->symbolic == nullptr) {
    for (std::size_t li = 0; li < lanes_.size(); ++li) {
      retire(li, "no cached program to ride", /*divergence=*/false);
    }
    prog_.reset();
    return false;
  }

  Recording ref;
  const Lane* ref_lane = nullptr;
  std::vector<double> b_scratch(n_);
  for (std::size_t li = 0; li < lanes_.size(); ++li) {
    Lane& L = lanes_[li];
    if (L.state != LaneState::kActive) continue;
    if (L.eng->program() != prog_ ||
        L.eng->lu_symbolic() != prog_->symbolic) {
      retire(li, "pivot order differs from the cached program's",
             /*divergence=*/false);
      continue;
    }
    StampContext ctx = proto;
    ctx.x = L.x;
    Recording rec = record(*L.ckt, ctx, b_scratch);
    bool ok = rec.s_coords == prog_->static_coords &&
              rec.d_coords == prog_->dynamic_coords;
    if (ok && ref_lane != nullptr) {
      ok = rec.s_end == ref.s_end && rec.d_end == ref.d_end &&
           same_device_types(*L.ckt, *ref_lane->ckt);
    }
    if (!ok) {
      retire(li, "coordinate streams differ from the program",
             /*divergence=*/false);
      continue;
    }
    if (ref_lane == nullptr) {
      ref_lane = &L;
      ref = std::move(rec);
    }
  }
  if (ref_lane == nullptr) {  // every lane retired
    prog_.reset();
    return false;
  }

  // Per-device plans from the verified reference lane.
  const std::size_t W = lanes_.size();
  const auto& ref_devs = ref_lane->ckt->devices();
  plans_.resize(ref_devs.size());
  mosfets_.assign(ref_devs.size() * W, nullptr);
  dyn_devs_.clear();
  stateful_generic_devs_.clear();
  comps_.clear();
  sources_.clear();
  source_waves_.clear();
  std::vector<double> blob;
  const std::uint32_t* prow = prog_->symbolic->pinv_row.data();
  const auto rhs_row = [prow](NodeId n) -> std::int64_t {
    return n == kGround ? std::int64_t{-1}
                        : static_cast<std::int64_t>(prow[unknown_of(n)]);
  };
  for (std::size_t d = 0; d < plans_.size(); ++d) {
    const Device& dev = *ref_devs[d];
    DevPlan& p = plans_[d];
    p.kind = device_kind(dev);
    p.nonlinear = dev.nonlinear();
    p.s_begin = d == 0 ? 0 : ref.s_end[d - 1];
    p.s_end = ref.s_end[d];
    p.d_begin = d == 0 ? 0 : ref.d_end[d - 1];
    p.d_end = ref.d_end[d];
    p.k_begin = static_cast<std::uint32_t>(comps_.size());
    for_each_companion(dev, p.kind,
                       [&](const CapCompanion& cap, NodeId a, NodeId b) {
                         comps_.push_back({static_cast<std::uint32_t>(a),
                                           static_cast<std::uint32_t>(b),
                                           rhs_row(a), rhs_row(b),
                                           cap.capacitance() == 0.0});
                       });
    p.k_end = static_cast<std::uint32_t>(comps_.size());
    if (p.nonlinear) dyn_devs_.push_back(static_cast<std::uint32_t>(d));
    if (p.kind == DeviceKind::kGeneric) {
      const std::type_info& type = typeid(dev);
      if (type == typeid(VSource) || type == typeid(ISource)) {
        p.rhs = type == typeid(VSource) ? GenericRhs::kVSource
                                        : GenericRhs::kISource;
        p.source = static_cast<std::uint32_t>(sources_.size());
        const auto [plus, minus] = source_rows(dev);
        sources_.push_back({plus, minus, true});
        source_waves_.resize(sources_.size() * W, nullptr);
      } else if (type == typeid(Resistor) || type == typeid(Diode) ||
                 type == typeid(VcSwitch)) {
        p.rhs = GenericRhs::kNone;
      } else {
        // Circuit's factories admit only the library's device types; one
        // added later without a path here keeps the whole batch scalar
        // (every lane has it: the device types were compared).
        for (std::size_t li = 0; li < lanes_.size(); ++li) {
          retire(li, "a device type has no batched right-hand-side stamp",
                 /*divergence=*/false);
        }
        prog_.reset();
        return false;
      }
      // accept_step latches step history, and a device with step history
      // must serialize it in save_state(): a checkpointed transient resumes
      // from exactly that blob, so history outside it would already make
      // resumed runs wrong. A device whose blob is empty on every lane thus
      // has nothing to latch, and its accept_step is skipped.
      bool stateful = false;
      for (const Lane& L : lanes_) {
        if (L.state != LaneState::kActive) continue;
        blob.clear();
        L.ckt->devices()[d]->save_state(blob);
        stateful = stateful || !blob.empty();
      }
      if (stateful) {
        stateful_generic_devs_.push_back(static_cast<std::uint32_t>(d));
      }
      continue;
    }
    if (p.kind != DeviceKind::kMosfet) continue;
    const auto& ref_mos = static_cast<const Mosfet&>(dev);
    p.g = ref_mos.gate();
    p.d = ref_mos.drain();
    p.s = ref_mos.source();
    p.b = ref_mos.bulk();
    // Mosfet::stamp_eval_into's matrix adds, in its order, on the program's
    // dynamic slots of this device.
    kernels::MosStampPlan& sp = p.stamp;
    sp = {};
    const NodeId cols[4] = {p.g, p.d, p.s, p.b};
    for (std::uint8_t j = 0; j < 4; ++j) {
      if (cols[j] == kGround) continue;
      for (const bool drain_row : {true, false}) {
        if ((drain_row ? p.d : p.s) == kGround) continue;
        ECMS_REQUIRE(p.d_begin + sp.n_adds < p.d_end,
                     "MOSFET stamp plan overruns its dynamic tape range");
        sp.slot[sp.n_adds] = prog_->dynamic_slots[p.d_begin + sp.n_adds];
        sp.deriv[sp.n_adds] = j;
        sp.negate[sp.n_adds] = !drain_row;
        ++sp.n_adds;
      }
    }
    ECMS_REQUIRE(p.d_begin + sp.n_adds == p.d_end,
                 "MOSFET stamp plan does not cover its dynamic tape range");
    sp.rhs_d = rhs_row(p.d);
    sp.rhs_s = rhs_row(p.s);
    // One kernels::ekv call serves all lanes only when they carry the
    // reference lane's parameters bit for bit (cells of one array do).
    p.shared_params = true;
    for (std::size_t li = 0; li < W; ++li) {
      const Lane& L = lanes_[li];
      if (L.state != LaneState::kActive) continue;
      const auto& m = static_cast<const Mosfet&>(*L.ckt->devices()[d]);
      mosfets_[d * W + li] = &m;
      p.shared_params =
          p.shared_params && identical(ref_mos.params(), m.params());
    }
  }

  // Companion history and source waves, per lane. The companion terminals
  // and zero capacitances must be the reference lane's: equal coordinate
  // streams do not fix a grounded capacitor's orientation, which decides
  // the sign of its history current (a MOSFET's five companions span its
  // four terminals, so this fixes those too). The sources' right-hand-side
  // rows must be the reference lane's too: an ISource stamps no matrix
  // entry, so the coordinate streams do not fix them at all.
  const std::size_t n_comp = comps_.size();
  const std::size_t w = w_;
  comp_c_.assign(n_comp * w, 0.0);
  comp_v_.assign(n_comp * w, 0.0);
  comp_i_.assign(n_comp * w, 0.0);
  for (std::size_t c = 0; c < w; ++c) {
    const std::size_t li = cols_[c];
    Lane& L = lanes_[li];
    if (L.state != LaneState::kActive) continue;
    const auto& devs = L.ckt->devices();
    bool same = true;
    std::size_t k = 0;
    for (std::size_t d = 0; d < plans_.size(); ++d) {
      for_each_companion(*devs[d], plans_[d].kind,
                         [&](const CapCompanion& cap, NodeId a, NodeId b) {
                           same = same &&
                                  static_cast<std::uint32_t>(a) ==
                                      comps_[k].xa &&
                                  static_cast<std::uint32_t>(b) ==
                                      comps_[k].xb &&
                                  (cap.capacitance() == 0.0) == comps_[k].open;
                           comp_c_[k * w + c] = cap.capacitance();
                           comp_v_[k * w + c] = cap.history_voltage();
                           comp_i_[k * w + c] = cap.history_current();
                           ++k;
                         });
    }
    if (!same) {
      retire(li, "capacitor companions differ from the batch's",
             /*divergence=*/false);
      continue;
    }
    L.soa_history = true;
  }
  for (std::size_t d = 0; d < plans_.size(); ++d) {
    const DevPlan& p = plans_[d];
    if (p.rhs != GenericRhs::kVSource && p.rhs != GenericRhs::kISource)
      continue;
    SourceRows& sr = sources_[p.source];
    const SourceWave& ref_wave = source_wave(*ref_devs[d]);
    for (std::size_t li = 0; li < W; ++li) {
      const Lane& L = lanes_[li];
      if (L.state != LaneState::kActive) continue;
      const Device& dev = *L.ckt->devices()[d];
      if (source_rows(dev) != std::pair{sr.plus, sr.minus}) {
        retire(li, "source terminals differ from the batch's",
               /*divergence=*/false);
        continue;
      }
      source_waves_[p.source * W + li] = &source_wave(dev);
      sr.shared = sr.shared && same_points(source_wave(dev), ref_wave);
    }
  }

  nnz_ = prog_->pattern->cols.size();
  // Each image: the matrix (nnz * w), then the companion conductances
  // (comps_ * w), which depend on the same key.
  images_.clear((nnz_ + n_comp) * w);
  restored_image_ = nullptr;
  rhs_scratch_.assign(n_, 0.0);
  lane_x_.assign(n_, 0.0);
  lane_b_.assign(n_, 0.0);
  size_columns();
  return true;
}

void BatchEngine::restamp_static(const StampContext& proto, bool count) {
  // Lanes only ever leave the batch, and compaction repacks the images
  // with the columns, so a cached image covers every lane still active.
  const StaticImageKey key =
      StaticImageKey::of(proto, opts_.newton.gmin_ground);
  static_image_ = images_.find(key);
  if (static_image_ == nullptr) {
    static_image_ = stamp_static_matrix(proto, key);
    restored_image_ = nullptr;  // the entry may reuse the restored storage
  }
  stamp_static_rhs(proto);
  if (!count) return;
  for (Lane& L : lanes_) {
    if (L.state == LaneState::kActive) ++L.restamps;
  }
}

const double* BatchEngine::stamp_static_matrix(const StampContext& proto,
                                               const StaticImageKey& key) {
  const std::size_t W = lanes_.size();
  const std::size_t w = w_;
  double* image = images_.insert(key);
  const std::size_t nk = comps_.size();
  double* g = image + nnz_ * w;
  for (std::size_t i = 0; i < nk * w; ++i) {
    const double c = comp_c_[i];
    g[i] = CapCompanion::open(c, proto) ? 0.0 : CapCompanion::geq(c, proto);
  }
  for (std::size_t d = 0; d < plans_.size(); ++d) {
    const DevPlan& p = plans_[d];
    const std::uint32_t* slots = static_slots_w_.data() + p.s_begin;
    for (std::size_t c = 0; c < w; ++c) {
      const std::size_t li = cols_[c];
      Lane& L = lanes_[li];
      if (L.state != LaneState::kActive) continue;
      StampContext ctx = proto;
      ctx.x = L.x;
      const auto& devs = L.ckt->devices();
      // The devices' own history is stale while the lane is in the batch;
      // it reaches only the right-hand side, which goes to scratch here.
      if (p.kind == DeviceKind::kMosfet) {
        SlotCursor cur{slots, image + c};
        mosfets_[d * W + li]->stamp_static_into(ctx, cur, rhs_scratch_);
      } else if (p.kind == DeviceKind::kCapacitor) {
        SlotCursor cur{slots, image + c};
        static_cast<const Capacitor&>(*devs[d])
            .stamp_into(ctx, cur, rhs_scratch_);
      } else {
        ReplayTape rt = lane_tape(prog_->static_coords, static_slots_w_,
                                  p.s_begin, p.s_end, image + c);
        MnaView view(rt);
        if (p.nonlinear) {
          devs[d]->stamp_static(ctx, view, rhs_scratch_);
        } else {
          devs[d]->stamp(ctx, view, rhs_scratch_);
        }
        if (rt.diverged || rt.cursor != rt.size) {
          retire(li, "stamp sequence diverged from the program",
                 /*divergence=*/true);
        }
      }
    }
  }
  kernels::active().diag_add(image, prog_->diag_slots.data(),
                             prog_->diag_slots.size(),
                             opts_.newton.gmin_ground, w);
  return image;
}

void BatchEngine::stamp_static_rhs(const StampContext& proto) {
  const std::size_t W = lanes_.size();
  const std::size_t w = w_;
  double* bs = b_static_.data();
  std::fill(b_static_.begin(), b_static_.end(), 0.0);
  const std::uint32_t* prow = prog_->symbolic->pinv_row.data();
  const auto row = [&](int u) -> double* {
    return u < 0 ? nullptr : bs + prow[u] * w;
  };
  // The companions of consecutive MOSFETs and capacitors (and generic
  // devices that add nothing here) are one kernel call: the kernel takes
  // them in stamp order. A lockstep step always has dt > 0, so only a zero
  // capacitance opens a companion.
  const double* g_image = static_image_ + nnz_ * w;
  const bool trap = proto.method == Integrator::kTrapezoidal;
  std::size_t run = 0;  // the first companion not stamped yet
  const auto stamp_companions = [&](std::size_t end) {
    if (end == run) return;
    kernels::active().companion_rhs(
        comps_.data() + run, end - run, g_image + run * w,
        comp_v_.data() + run * w, comp_i_.data() + run * w, trap, bs, w);
    run = end;
  };
  for (std::size_t d = 0; d < plans_.size(); ++d) {
    const DevPlan& p = plans_[d];
    if (p.kind != DeviceKind::kGeneric || p.rhs == GenericRhs::kNone) {
      continue;
    }
    stamp_companions(p.k_begin);
    // VSource: b[branch] += value; ISource: stamp_current(b, p, n, value).
    // The value is VSource/ISource::stamp's source_scale * wave(time).
    const SourceRows& sr = sources_[p.source];
    const SourceWave* const* waves = source_waves_.data() + p.source * W;
    double* plus = row(sr.plus);
    double* minus = row(sr.minus);
    const bool vsource = p.rhs == GenericRhs::kVSource;
    const auto add = [&](std::size_t c, double value) {
      if (vsource) {
        plus[c] += value;
        return;
      }
      if (plus != nullptr) plus[c] -= value;
      if (minus != nullptr) minus[c] += value;
    };
    bool evaluated = false;
    double value = 0.0;
    for (std::size_t c = 0; c < w; ++c) {
      const std::size_t li = cols_[c];
      if (lanes_[li].state != LaneState::kActive) continue;
      if (!sr.shared || !evaluated) {
        value = proto.source_scale * waves[li]->value(proto.time);
        evaluated = true;
      }
      add(c, value);
    }
  }
  stamp_companions(comps_.size());
}

void BatchEngine::accept_step(const StampContext& proto) {
  const std::size_t w = w_;
  const double* xs = xs_.data();
  for (std::size_t c = 0; c < w; ++c) {
    Lane& L = lanes_[cols_[c]];
    if (L.state != LaneState::kActive) continue;
    for (std::size_t u = 0; u < n_; ++u) L.x[u] = xs[(u + 1) * w + c];
  }
  // CapCompanion::accept_step per companion, all columns at once (the
  // step's dt > 0). Its companion conductances sit in the image it was
  // solved with.
  kernels::active().companion_latch(
      comps_.data(), comps_.size(), static_image_ + nnz_ * w, comp_v_.data(),
      comp_i_.data(), proto.method == Integrator::kTrapezoidal, xs, w);
  for (const std::uint32_t d : stateful_generic_devs_) {
    for (std::size_t c = 0; c < w; ++c) {
      Lane& L = lanes_[cols_[c]];
      if (L.state != LaneState::kActive) continue;
      StampContext ctx = proto;
      ctx.x = L.x;  // the accepted point
      L.ckt->devices()[d]->accept_step(ctx);
    }
  }
}

void BatchEngine::stamp_dynamic(const StampContext& proto) {
  const kernels::Kernels& kk = kernels::active();
  const std::size_t W = lanes_.size();
  const std::size_t w = w_;
  double* a = a_soa_.data();
  double* pb = pb_soa_.data();
  if (restored_image_ != static_image_) {
    kk.copy(a, static_image_, nnz_ * w);
    restored_image_ = static_image_;
  } else {
    // The operand already holds this image outside the slots the dynamic
    // stamps add to (the kernels only read it): restore just those.
    for (const std::uint32_t s : dyn_slots_w_) {
      std::copy_n(static_image_ + s, w, a + s);
    }
  }
  kk.copy(pb, b_static_.data(), n_ * w);

  std::size_t ref_col = 0;  // a column solved this iteration
  while (step_[ref_col] == 0) ++ref_col;
  double* out = mos_soa_.data();
  double* ids = out;
  double* dvg = out + w;
  double* dvd = out + 2 * w;
  double* dvs = out + 3 * w;
  double* dvb = out + 4 * w;
  for (const std::uint32_t d : dyn_devs_) {
    const DevPlan& p = plans_[d];
    if (p.kind == DeviceKind::kMosfet) {
      // The terminal voltages are rows of the iterate (row 0 reads 0 V for
      // a grounded terminal, as StampContext::v does).
      const double* vg = xs_.data() + static_cast<std::size_t>(p.g) * w;
      const double* vd = xs_.data() + static_cast<std::size_t>(p.d) * w;
      const double* vs = xs_.data() + static_cast<std::size_t>(p.s) * w;
      const double* vb = xs_.data() + static_cast<std::size_t>(p.b) * w;
      const Mosfet* const* lane_mos = mosfets_.data() + d * W;
      if (p.shared_params) {
        const Mosfet& m = *lane_mos[cols_[ref_col]];
        kk.ekv(m.params(), m.consts(),
               {vg, vd, vs, vb, ids, dvg, dvd, dvs, dvb}, w);
      } else {
        // Lanes with their own parameters: one column per call.
        for (std::size_t c = 0; c < w; ++c) {
          const Mosfet* m = lane_mos[cols_[c]];
          if (m == nullptr) continue;  // retired before the join
          kk.ekv(m->params(), m->consts(),
                 {vg + c, vd + c, vs + c, vb + c, ids + c, dvg + c, dvd + c,
                  dvs + c, dvb + c},
                 1);
        }
      }
      kk.mos_stamp(p.stamp, {vg, vd, vs, vb, ids, dvg, dvd, dvs, dvb}, a, pb,
                   w);
      continue;
    }
    // Any other nonlinear device, one step lane at a time through the
    // verifying tape, on a gathered copy of the lane's iterate and
    // right-hand-side column; the column is scattered back, so each row
    // keeps its add order.
    const std::uint32_t* prow = prog_->symbolic->pinv_row.data();
    for (std::size_t c = 0; c < w; ++c) {
      const std::size_t li = cols_[c];
      if (step_[c] == 0 || lanes_[li].state != LaneState::kActive) continue;
      for (std::size_t u = 0; u < n_; ++u) {
        lane_x_[u] = xs_[(u + 1) * w + c];
        lane_b_[u] = pb[prow[u] * w + c];
      }
      StampContext ctx = proto;
      ctx.x = lane_x_;
      ReplayTape rt = lane_tape(prog_->dynamic_coords, dynamic_slots_w_,
                                p.d_begin, p.d_end, a + c);
      MnaView view(rt);
      lanes_[li].ckt->devices()[d]->stamp(ctx, view, lane_b_);
      if (rt.diverged || rt.cursor != rt.size) {
        retire(li, "stamp sequence diverged from the program",
               /*divergence=*/true);
      }
      for (std::size_t u = 0; u < n_; ++u) pb[prow[u] * w + c] = lane_b_[u];
    }
  }
}

bool BatchEngine::solve_point(const StampContext& proto) {
  for (Lane& L : lanes_) {
    if (L.state != LaneState::kActive) continue;
    L.unfinished = true;
    L.engine_solved = false;
    L.point_iters = 0;
  }

  const bool joining = prog_ == nullptr;
  if (joining && !join(proto)) return false;
  restamp_static(proto, /*count=*/!joining);

  const kernels::Kernels& kk = kernels::active();
  const LuSymbolic& sy = *prog_->symbolic;
  const std::size_t w = w_;
  for (int iter = 0; iter < opts_.newton.max_iterations; ++iter) {
    bool pending = false, stepping = false;
    for (std::size_t c = 0; c < w; ++c) {
      step_[c] = 0;
      Lane& L = lanes_[cols_[c]];
      if (L.state != LaneState::kActive || !L.unfinished) continue;
      pending = true;
      if (L.engine_solved) {  // the bootstrap solve took this iteration
        L.engine_solved = false;
        continue;
      }
      step_[c] = 1;
      stepping = true;
      // The scalar engine restamps on a point's first assembly and reuses
      // the static image on the rest (the join point's restamp is the
      // lane engine's discovery).
      if (iter > 0) ++L.static_hits;
    }
    if (!pending) break;
    if (!stepping) continue;

    stamp_dynamic(proto);
    // The kernels compute every column; those not stepping this iteration
    // (converged, retired or finished since the last compaction) hold
    // stale data whose results are never read.
    kk.refactor(sy, a_soa_.data(), l_soa_.data(), u_soa_.data(),
                work_soa_.data(), w);
    kk.pivot_health(sy, u_soa_.data(), w, degraded_.data());
    kk.solve(sy, l_soa_.data(), u_soa_.data(), pb_soa_.data(), w);

    for (std::size_t c = 0; c < w; ++c) {
      if (step_[c] == 0) continue;
      Lane& L = lanes_[cols_[c]];
      if (L.state != LaneState::kActive) {  // a generic stamp diverged
        step_[c] = 0;
        continue;
      }
      if (degraded_[c] != 0) {
        // The scalar refactor would re-pivot here, off the cached order.
        retire(cols_[c], "pivot degraded under the cached order",
               /*divergence=*/true);
        step_[c] = 0;
        continue;
      }
      ++L.vector_refactors;
    }
    newton_update(iter, sy.pinv_col.data());
  }

  bool any = false;
  for (std::size_t li = 0; li < lanes_.size(); ++li) {
    Lane& L = lanes_[li];
    if (L.state != LaneState::kActive) continue;
    if (L.unfinished) {
      // The scalar transient would reject this step and halve — off-grid.
      retire(li, "newton did not converge on the lockstep grid",
             /*divergence=*/true);
      continue;
    }
    any = true;
  }
  return any;
}

}  // namespace ecms::circuit
