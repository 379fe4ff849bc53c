#include "circuit/batch.hpp"

#include <algorithm>
#include <cmath>
#include <typeinfo>
#include <utility>

#include "circuit/mosfet.hpp"
#include "circuit/passive.hpp"
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

  lanes_.resize(lanes.size());
  for (std::size_t li = 0; li < lanes.size(); ++li) {
    Lane& lane = lanes_[li];
    lane.ckt = lanes[li];
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
    // UIC start: x = 0 at t = 0, device history initialized from it — the
    // same initial condition every measurement flow uses (uic-only is an
    // engagement precondition enforced by the caller).
    lane.x.assign(n_, 0.0);
    lane.x_try.assign(n_, 0.0);
    lane.x_new.assign(n_, 0.0);
    lane.b_static.assign(n_, 0.0);
    lane.b_work.assign(n_, 0.0);
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
  const std::size_t nk = comps_.size();
  const auto& devs = L.ckt->devices();
  std::vector<double> blob;
  for (std::size_t d = 0; d < plans_.size(); ++d) {
    const DevPlan& p = plans_[d];
    if (p.kind == DeviceKind::kGeneric) continue;
    // save_state() order: (v_prev, i_prev) per companion, stamp order.
    blob.clear();
    for (std::size_t k = p.k_begin; k < p.k_end; ++k) {
      blob.push_back(comp_v_[lane * nk + k]);
      blob.push_back(comp_i_[lane * nk + k]);
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

void BatchEngine::advance(
    double t_stop,
    const std::function<void(std::size_t, double, std::span<const double>)>&
        on_sample) {
  obs::ScopedSpan span("batch_advance");
  ECMS_REQUIRE(t_stop > t_ + kTimeEps,
               "batch advance t_stop must lie after the current time");
  span.arg("t_stop_s", t_stop);
  span.arg("lanes", static_cast<double>(active_lanes()));

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

  // The lockstep schedule is a pure function of (dt, breakpoints): lanes
  // are the same netlist with the same stimulus timing, so their breakpoint
  // sets agree. A lane that disagrees (a reprogrammed wave, an exotic
  // defect model) cannot share the time grid and is retired.
  const std::vector<double> bps = lanes_[ref].ckt->breakpoints(t_stop);
  for (std::size_t li = ref + 1; li < lanes_.size(); ++li) {
    Lane& L = lanes_[li];
    if (L.state != LaneState::kActive) continue;
    if (L.ckt->breakpoints(t_stop) != bps) {
      retire(li, "breakpoint schedule differs from the batch",
             /*divergence=*/false);
    }
  }

  std::size_t next_bp = 0;
  bool start_on_bp = false;
  while (next_bp < bps.size() && bps[next_bp] <= t_ + kTimeEps) {
    if (bps[next_bp] >= t_ - kTimeEps) start_on_bp = true;
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
    if (next_bp < bps.size() && t + step >= bps[next_bp] - kTimeEps) {
      step = bps[next_bp] - t;
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

    bool any = false;
    for (Lane& L : lanes_) {
      if (L.state != LaneState::kActive) continue;
      L.x_try = L.x;
      any = true;
    }
    if (!any) break;

    if (!solve_point(proto)) break;

    for (Lane& L : lanes_) {
      if (L.state != LaneState::kActive) continue;
      std::swap(L.x, L.x_try);
      L.ctx.x = L.x;
    }
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

}  // namespace

void BatchEngine::newton_update(std::size_t li, int iter) {
  Lane& L = lanes_[li];
  const NewtonOptions& no = opts_.newton;
  double max_dv = 0.0;
  for (std::size_t i = 0; i < nv_; ++i) {
    const double dv = std::abs(L.x_new[i] - L.x_try[i]);
    if (dv > max_dv) max_dv = dv;
  }
  double scale = 1.0;
  if (max_dv > no.max_delta_v) scale = no.max_delta_v / max_dv;
  double max_x = 0.0;
  for (std::size_t i = 0; i < nv_; ++i) {
    max_x = std::max(max_x, std::abs(L.x_try[i]));
  }
  for (std::size_t i = 0; i < n_; ++i) {
    L.x_try[i] += scale * (L.x_new[i] - L.x_try[i]);
  }
  L.point_iters = iter + 1;
  const double final_delta = max_dv * scale;
  if (!std::isfinite(final_delta)) {
    retire(li, "non-finite newton update", /*divergence=*/true);
    return;
  }
  if (scale == 1.0 &&
      max_dv < no.tol_abs_v + no.tol_rel * std::max(max_x, 1.0)) {
    L.unfinished = false;  // converged
  }
}

bool BatchEngine::join() {
  // Discovery through each lane's own engine, in lane order: a cache miss
  // compiles and publishes exactly as the first scalar cell would (one
  // scalar solve), before any later lane assembles, so the later lanes
  // adopt the program during their own discovery.
  for (std::size_t li = 0; li < lanes_.size(); ++li) {
    Lane& L = lanes_[li];
    if (L.state != LaneState::kActive) continue;
    L.eng->begin_point();
    L.eng->assemble(*L.ckt, L.ctx, opts_.newton.gmin_ground);
    if (L.eng->lu_symbolic() != nullptr) continue;  // adopted a program
    try {
      L.eng->factor();
    } catch (const SolverError&) {
      // The scalar transient rejects and halves on a singular system; a
      // halved step leaves the lockstep grid.
      retire(li, "singular system", /*divergence=*/true);
      continue;
    }
    L.eng->solve(std::span<double>(L.x_new));
    ECMS_METRIC_COUNT("circuit.batch.scalar_fallbacks", 1);
    newton_update(li, 0);
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
    Recording rec = record(*L.ckt, L.ctx, b_scratch);
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
  generic_devs_.clear();
  comps_.clear();
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
                       [&](const CapCompanion&, NodeId a, NodeId b) {
                         comps_.push_back({a, b});
                       });
    p.k_end = static_cast<std::uint32_t>(comps_.size());
    if (p.nonlinear) dyn_devs_.push_back(static_cast<std::uint32_t>(d));
    if (p.kind == DeviceKind::kGeneric) {
      generic_devs_.push_back(static_cast<std::uint32_t>(d));
    }
    if (p.kind != DeviceKind::kMosfet) continue;
    // One kernels::ekv call serves all lanes only when they carry the
    // reference lane's parameters bit for bit (cells of one array do).
    const MosParams& mp = static_cast<const Mosfet&>(dev).params();
    p.shared_params = true;
    for (std::size_t li = 0; li < W; ++li) {
      const Lane& L = lanes_[li];
      if (L.state != LaneState::kActive) continue;
      const auto& m = static_cast<const Mosfet&>(*L.ckt->devices()[d]);
      mosfets_[d * W + li] = &m;
      p.shared_params = p.shared_params && identical(mp, m.params());
    }
  }

  // SoA companion history. The companion terminals must be the reference
  // lane's: equal coordinate streams do not fix a grounded capacitor's
  // orientation, which decides the sign of its history current.
  const std::size_t n_comp = comps_.size();
  comp_c_.assign(n_comp * W, 0.0);
  comp_v_.assign(n_comp * W, 0.0);
  comp_i_.assign(n_comp * W, 0.0);
  for (std::size_t li = 0; li < W; ++li) {
    Lane& L = lanes_[li];
    if (L.state != LaneState::kActive) continue;
    bool same = true;
    std::size_t k = 0;
    for (std::size_t d = 0; d < plans_.size(); ++d) {
      for_each_companion(*L.ckt->devices()[d], plans_[d].kind,
                         [&](const CapCompanion& cap, NodeId a, NodeId b) {
                           same = same && a == comps_[k].a && b == comps_[k].b;
                           comp_c_[li * n_comp + k] = cap.capacitance();
                           comp_v_[li * n_comp + k] = cap.history_voltage();
                           comp_i_[li * n_comp + k] = cap.history_current();
                           ++k;
                         });
    }
    if (!same) {
      retire(li, "capacitor terminals differ from the batch's",
             /*divergence=*/false);
      continue;
    }
    L.soa_history = true;
  }

  const auto premultiply = [W](const std::vector<std::uint32_t>& slots,
                               std::vector<std::uint32_t>& out) {
    out.resize(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      out[i] = static_cast<std::uint32_t>(slots[i] * W);
    }
  };
  premultiply(prog_->static_slots, static_slots_w_);
  premultiply(prog_->dynamic_slots, dynamic_slots_w_);
  const LuSymbolic& sy = *prog_->symbolic;
  const std::size_t nnz = prog_->pattern->cols.size();
  // Each image: the matrix (nnz * W), then the companion conductances
  // (comps_ * W), which depend on the same key.
  images_.clear((nnz + n_comp) * W);
  restored_image_ = nullptr;
  // The slots the dynamic stamps touch, once each, premultiplied.
  std::vector<std::uint32_t> dyn = prog_->dynamic_slots;
  std::sort(dyn.begin(), dyn.end());
  dyn.erase(std::unique(dyn.begin(), dyn.end()), dyn.end());
  premultiply(dyn, dyn_slots_w_);
  matrix_scratch_.assign(nnz, 0.0);
  rhs_scratch_.assign(n_, 0.0);
  a_soa_.resize(nnz * W);
  l_soa_.resize(sy.l_cols.size() * W);
  u_soa_.resize(sy.u_cols.size() * W);
  work_soa_.resize(sy.n * W);
  pb_soa_.resize(sy.n * W);
  mos_soa_.resize(kMosLanesArrays * W);
  degraded_.assign(W, 0);
  return true;
}

void BatchEngine::restamp_static(const StampContext& proto, bool count) {
  point_lanes_.clear();
  for (std::size_t li = 0; li < lanes_.size(); ++li) {
    if (lanes_[li].state == LaneState::kActive) point_lanes_.push_back(li);
  }
  // Lanes only ever leave the batch, so a cached image covers every lane
  // still active.
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
  double* image = images_.insert(key);
  const std::size_t nk = comps_.size();
  double* g = image + a_soa_.size();
  for (const std::size_t li : point_lanes_) {
    for (std::size_t k = 0; k < nk; ++k) {
      const double c = comp_c_[li * nk + k];
      g[li * nk + k] =
          CapCompanion::open(c, proto) ? 0.0 : CapCompanion::geq(c, proto);
    }
  }
  for (std::size_t d = 0; d < plans_.size(); ++d) {
    const DevPlan& p = plans_[d];
    const std::uint32_t* slots = static_slots_w_.data() + p.s_begin;
    for (const std::size_t li : point_lanes_) {
      Lane& L = lanes_[li];
      if (L.state != LaneState::kActive) continue;
      const auto& devs = L.ckt->devices();
      // The devices' own history is stale while the lane is in the batch;
      // it reaches only the right-hand side, which goes to scratch here.
      if (p.kind == DeviceKind::kMosfet) {
        SlotCursor cur{slots, image + li};
        mosfets_[d * W + li]->stamp_static_into(L.ctx, cur, rhs_scratch_);
      } else if (p.kind == DeviceKind::kCapacitor) {
        SlotCursor cur{slots, image + li};
        static_cast<const Capacitor&>(*devs[d])
            .stamp_into(L.ctx, cur, rhs_scratch_);
      } else {
        ReplayTape rt = lane_tape(prog_->static_coords, static_slots_w_,
                                  p.s_begin, p.s_end, image + li);
        MnaView view(rt);
        if (p.nonlinear) {
          devs[d]->stamp_static(L.ctx, view, rhs_scratch_);
        } else {
          devs[d]->stamp(L.ctx, view, rhs_scratch_);
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
                             opts_.newton.gmin_ground, W);
  return image;
}

void BatchEngine::stamp_static_rhs(const StampContext& proto) {
  const std::size_t nk = comps_.size();
  const CompanionTerminals* comps = comps_.data();
  const double* g_image = static_image_ + a_soa_.size();
  // A local copy: the right-hand-side stores below cannot alias it.
  const StampContext pc = proto;
  DiscardMatrix none;
  for (const std::size_t li : point_lanes_) {
    Lane& L = lanes_[li];
    if (L.state != LaneState::kActive) continue;
    const std::span<double> b(L.b_static);
    std::fill(b.begin(), b.end(), 0.0);
    const double* c = comp_c_.data() + li * nk;
    const double* g = g_image + li * nk;
    const double* v = comp_v_.data() + li * nk;
    const double* i = comp_i_.data() + li * nk;
    const auto& devs = L.ckt->devices();
    for (std::size_t d = 0; d < plans_.size(); ++d) {
      const DevPlan& p = plans_[d];
      if (p.kind != DeviceKind::kGeneric) {
        for (std::size_t k = p.k_begin; k < p.k_end; ++k) {
          if (CapCompanion::open(c[k], pc)) continue;
          CapCompanion::stamp_state(g[k], v[k], i[k], pc.method, comps[k].a,
                                    comps[k].b, none, b);
        }
        continue;
      }
      // Matrix adds land in a scratch column; the tape still verifies the
      // coordinates.
      ReplayTape rt = lane_tape(prog_->static_coords, prog_->static_slots,
                                p.s_begin, p.s_end, matrix_scratch_.data());
      MnaView view(rt);
      if (p.nonlinear) {
        devs[d]->stamp_static(L.ctx, view, L.b_static);
      } else {
        devs[d]->stamp(L.ctx, view, L.b_static);
      }
      if (rt.diverged || rt.cursor != rt.size) {
        retire(li, "stamp sequence diverged from the program",
               /*divergence=*/true);
        break;
      }
    }
  }
}

void BatchEngine::accept_step(const StampContext& proto) {
  const std::size_t nk = comps_.size();
  const CompanionTerminals* comps = comps_.data();
  // The step's companion conductances sit in the image it was solved with.
  const double* g_image = static_image_ + a_soa_.size();
  const StampContext pc = proto;  // local copies: the history stores below
  for (std::size_t li = 0; li < lanes_.size(); ++li) {  // cannot alias them
    const Lane& L = lanes_[li];
    if (L.state != LaneState::kActive) continue;
    const StampContext ctx = L.ctx;  // x = the accepted point
    const double* c = comp_c_.data() + li * nk;
    const double* g = g_image + li * nk;
    double* v = comp_v_.data() + li * nk;
    double* i = comp_i_.data() + li * nk;
    for (std::size_t k = 0; k < nk; ++k) {
      const double v_new = ctx.v(comps[k].a) - ctx.v(comps[k].b);
      if (CapCompanion::open(c[k], pc)) {
        CapCompanion::latch_open(v_new, v[k], i[k]);
      } else {
        CapCompanion::latch(g[k], pc.method, v_new, v[k], i[k]);
      }
    }
    // Devices without SoA history latch their own (a no-op for every
    // other device type in this library).
    const auto& devs = L.ckt->devices();
    for (const std::uint32_t d : generic_devs_) devs[d]->accept_step(ctx);
  }
}

void BatchEngine::stamp_dynamic() {
  const kernels::Kernels& kk = kernels::active();
  if (restored_image_ != static_image_) {
    kk.copy(a_soa_.data(), static_image_, a_soa_.size());
    restored_image_ = static_image_;
  } else {
    // The operand already holds this image outside the slots the dynamic
    // stamps add to (the kernels only read it): restore just those.
    const std::size_t W = lanes_.size();
    for (const std::uint32_t s : dyn_slots_w_) {
      std::copy_n(static_image_ + s, W, a_soa_.data() + s);
    }
  }
  for (const std::size_t li : step_lanes_) {
    Lane& L = lanes_[li];
    std::copy(L.b_static.begin(), L.b_static.end(), L.b_work.begin());
  }
  // MOSFET operands: the step lanes' terminal voltages and evaluations,
  // element [j] for step lane j.
  const std::size_t W = lanes_.size();
  double* mos = mos_soa_.data();
  const kernels::MosLanes io = {mos,         mos + W,     mos + 2 * W,
                                mos + 3 * W, mos + 4 * W, mos + 5 * W,
                                mos + 6 * W, mos + 7 * W, mos + 8 * W};
  double* vg = mos;
  double* vd = mos + W;
  double* vs = mos + 2 * W;
  double* vb = mos + 3 * W;
  const std::size_t n_step = step_lanes_.size();
  for (const std::uint32_t d : dyn_devs_) {
    const DevPlan& p = plans_[d];
    const std::uint32_t* slots = dynamic_slots_w_.data() + p.d_begin;
    if (p.kind == DeviceKind::kMosfet) {
      const Mosfet* const* lane_mos = mosfets_.data() + d * W;
      const auto mosfet = [&](std::size_t j) -> const Mosfet& {
        return *lane_mos[step_lanes_[j]];
      };
      for (std::size_t j = 0; j < n_step; ++j) {
        const StampContext& ctx = lanes_[step_lanes_[j]].ctx;
        const Mosfet& m = mosfet(j);
        vg[j] = ctx.v(m.gate());
        vd[j] = ctx.v(m.drain());
        vs[j] = ctx.v(m.source());
        vb[j] = ctx.v(m.bulk());
      }
      if (p.shared_params) {
        kk.ekv(mosfet(0).params(), mosfet(0).consts(), io, n_step);
      } else {
        // Lanes with their own parameters: one lane per call.
        for (std::size_t j = 0; j < n_step; ++j) {
          const kernels::MosLanes one = {
              vg + j,      vd + j,      vs + j,      vb + j,     io.ids + j,
              io.d_vg + j, io.d_vd + j, io.d_vs + j, io.d_vb + j};
          kk.ekv(mosfet(j).params(), mosfet(j).consts(), one, 1);
        }
      }
      for (std::size_t j = 0; j < n_step; ++j) {
        const std::size_t li = step_lanes_[j];
        Lane& L = lanes_[li];
        if (L.state != LaneState::kActive) continue;
        const MosEval e{io.ids[j], io.d_vg[j], io.d_vd[j], io.d_vs[j],
                        io.d_vb[j]};
        SlotCursor cur{slots, a_soa_.data() + li};
        mosfet(j).stamp_eval_into(e, vg[j], vd[j], vs[j], vb[j], cur,
                                  L.b_work);
      }
      continue;
    }
    for (const std::size_t li : step_lanes_) {
      Lane& L = lanes_[li];
      if (L.state != LaneState::kActive) continue;
      ReplayTape rt = lane_tape(prog_->dynamic_coords, dynamic_slots_w_,
                                p.d_begin, p.d_end, a_soa_.data() + li);
      MnaView view(rt);
      L.ckt->devices()[d]->stamp(L.ctx, view, L.b_work);
      if (rt.diverged || rt.cursor != rt.size) {
        retire(li, "stamp sequence diverged from the program",
               /*divergence=*/true);
      }
    }
  }
}

bool BatchEngine::solve_point(const StampContext& ctx_proto) {
  const std::size_t W = lanes_.size();
  for (Lane& L : lanes_) {
    if (L.state != LaneState::kActive) continue;
    L.unfinished = true;
    L.engine_solved = false;
    L.point_iters = 0;
    L.ctx = ctx_proto;
    L.ctx.x = L.x_try;
  }

  const bool joining = prog_ == nullptr;
  if (joining && !join()) return false;
  restamp_static(ctx_proto, /*count=*/!joining);

  const kernels::Kernels& kk = kernels::active();
  const LuSymbolic& sy = *prog_->symbolic;
  for (int iter = 0; iter < opts_.newton.max_iterations; ++iter) {
    bool pending = false;
    step_lanes_.clear();
    for (std::size_t li = 0; li < W; ++li) {
      Lane& L = lanes_[li];
      if (L.state != LaneState::kActive || !L.unfinished) continue;
      pending = true;
      if (L.engine_solved) {  // the bootstrap solve took this iteration
        L.engine_solved = false;
        continue;
      }
      step_lanes_.push_back(li);
      // The scalar engine restamps on a point's first assembly and reuses
      // the static image on the rest (the join point's restamp is the
      // lane engine's discovery).
      if (iter > 0) ++L.static_hits;
    }
    if (!pending) break;
    if (step_lanes_.empty()) continue;

    stamp_dynamic();
    double* pb = pb_soa_.data();
    for (const std::size_t li : step_lanes_) {
      const Lane& L = lanes_[li];
      if (L.state != LaneState::kActive) continue;
      for (std::size_t i = 0; i < sy.n; ++i) {
        pb[i * W + li] = L.b_work[sy.perm_row[i]];
      }
    }

    // The kernels compute every one of the W columns; columns of retired /
    // finished / converged lanes hold stale data whose results are never
    // read.
    kk.refactor(sy, a_soa_.data(), l_soa_.data(), u_soa_.data(),
                work_soa_.data(), W);
    kk.pivot_health(sy, u_soa_.data(), W, degraded_.data());
    kk.solve(sy, l_soa_.data(), u_soa_.data(), pb, W);

    for (const std::size_t li : step_lanes_) {
      Lane& L = lanes_[li];
      if (L.state != LaneState::kActive) continue;
      if (degraded_[li] != 0) {
        // The scalar refactor would re-pivot here, off the cached order.
        retire(li, "pivot degraded under the cached order",
               /*divergence=*/true);
        continue;
      }
      ++L.vector_refactors;
      for (std::size_t j = 0; j < sy.n; ++j) {
        L.x_new[sy.perm_col[j]] = pb[j * W + li];
      }
      newton_update(li, iter);
    }
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
