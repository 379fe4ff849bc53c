#include "circuit/mosfet.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#include "circuit/detmath.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace ecms::circuit {

// EKV interpolation function F(u) = ln^2(1 + e^{u/2}) and its derivative
// F'(u) = ln(1 + e^{u/2}) * sigmoid(u/2). One exp serves both factors:
// with e = e^x, ln(1 + e^x) = log1p(e) and sigmoid(x) = e / (1 + e). This
// evaluation sits on the per-iteration assembly path of every MOSFET in the
// netlist, so the transcendental count matters; the saturated tails keep
// the usual numerically stable forms. exp/log1p are the deterministic
// det_exp/det_log1p (detmath.hpp); kernels_avx2.cpp repeats this function
// lane by lane, the two tails as per-lane blends.
EkvInterp ekv_f(double u) {
  const double x = 0.5 * u;
  if (x > 37.0) {
    // e^x >> 1: ln(1 + e^x) = x and sigmoid(x) = 1 to double precision.
    return {x * x, x};
  }
  const double e = detmath::det_exp(x);
  if (x < -37.0) {
    // e^x < eps/2: ln(1 + e^x) = e^x and sigmoid(x) = e^x to double
    // precision (1 + e rounds to 1).
    return {e * e, e * e};
  }
  const double l = detmath::det_log1p(e);
  return {l * l, l * (e / (1.0 + e))};
}

namespace {

// n-type core evaluation (both models); voltages are absolute.
MosEval eval_ncore(const MosParams& p, const MosConsts& k, double vg,
                   double vd, double vs, double vb) {
  MosEval e;
  const double vt = k.vt;
  const double beta = k.beta;

  if (p.model == MosModel::kEkv) {
    const double n = p.n_slope;
    const double is = k.is;
    const double vp = (vg - vb - p.vth0) / n;
    const double uf = (vp - (vs - vb)) / vt;
    const double ur = (vp - (vd - vb)) / vt;
    const auto [ff, dff] = ekv_f(uf);
    const auto [fr, dfr] = ekv_f(ur);
    const double vds = vd - vs;
    const double clm = 1.0 + p.lambda * vds;
    const double ids0 = is * (ff - fr);
    e.ids = ids0 * clm;
    const double a = is * clm;
    e.d_vg = a * (dff - dfr) / k.n_vt;
    e.d_vd = a * dfr / vt + ids0 * p.lambda;
    e.d_vs = -a * dff / vt - ids0 * p.lambda;
    e.d_vb = a * (dff - dfr) * k.n_m1 / k.n_vt;
    return e;
  }

  // Level-1 (Shichman–Hodges) with linearized body effect and no
  // subthreshold conduction. Source/drain are swapped so vds >= 0.
  double d = vd, s = vs;
  double sign = 1.0;
  if (d < s) {
    std::swap(d, s);
    sign = -1.0;
  }
  const double vsb = s - vb;
  const double vth = p.vth0 + k.n_m1 * std::max(vsb, 0.0);
  const double vgs = vg - s;
  const double vds = d - s;
  const double vgst = vgs - vth;
  if (vgst <= 0.0) {
    e.ids = 0.0;
    return e;  // cutoff: all derivatives zero
  }
  const double clm = 1.0 + p.lambda * vds;
  double ids, gm, gds;
  if (vds < vgst) {
    // Triode.
    ids = beta * (vgst * vds - 0.5 * vds * vds) * clm;
    gm = beta * vds * clm;
    gds = beta * (vgst - vds) * clm +
          beta * (vgst * vds - 0.5 * vds * vds) * p.lambda;
  } else {
    // Saturation.
    ids = 0.5 * beta * vgst * vgst * clm;
    gm = beta * vgst * clm;
    gds = 0.5 * beta * vgst * vgst * p.lambda;
  }
  const double gmb = gm * k.n_m1 * (vsb > 0.0 ? 1.0 : 0.0);
  // Map swapped-terminal derivatives back to the original orientation.
  // In the swapped frame: dI/dg = gm, dI/dd = gds, dI/ds = -(gm+gds+gmb),
  // dI/db = gmb. Sign flips the current and each derivative.
  e.ids = sign * ids;
  const double dg = sign * gm;
  const double dd_sw = sign * gds;
  const double db = sign * gmb;
  const double ds_sw = -(dg + dd_sw + db);
  e.d_vg = dg;
  if (sign > 0) {
    e.d_vd = dd_sw;
    e.d_vs = ds_sw;
  } else {
    e.d_vd = ds_sw;
    e.d_vs = dd_sw;
  }
  e.d_vb = db;
  return e;
}

}  // namespace

MosConsts mos_consts(const MosParams& p) {
  MosConsts k;
  k.vt = phys::thermal_voltage(p.temp_k);
  k.beta = p.kp * p.w / p.l;
  const double n = p.n_slope;
  k.is = 2.0 * n * k.beta * k.vt * k.vt;
  k.n_vt = n * k.vt;
  k.n_m1 = n - 1.0;
  return k;
}

MosEval mos_eval_with(const MosParams& p, const MosConsts& k, double vg,
                      double vd, double vs, double vb) {
  if (p.type == MosType::kNmos) return eval_ncore(p, k, vg, vd, vs, vb);
  // PMOS: mirror all voltages, evaluate the n-core, negate the current.
  // d(-I(-v))/dv = +dI/dv' so derivatives carry over unchanged.
  MosEval m = eval_ncore(p, k, -vg, -vd, -vs, -vb);
  MosEval e;
  e.ids = -m.ids;
  e.d_vg = m.d_vg;
  e.d_vd = m.d_vd;
  e.d_vs = m.d_vs;
  e.d_vb = m.d_vb;
  return e;
}

bool identical(const MosParams& a, const MosParams& b) {
  static_assert(sizeof(MosParams) == 2 * sizeof(MosType) + 11 * sizeof(double),
                "identical() must compare every MosParams field");
  const auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  return a.type == b.type && a.model == b.model && same(a.w, b.w) &&
         same(a.l, b.l) && same(a.kp, b.kp) && same(a.vth0, b.vth0) &&
         same(a.lambda, b.lambda) && same(a.n_slope, b.n_slope) &&
         same(a.temp_k, b.temp_k) && same(a.cox_per_area, b.cox_per_area) &&
         same(a.cov_per_w, b.cov_per_w) && same(a.cj_per_area, b.cj_per_area) &&
         same(a.diff_len, b.diff_len);
}

MosEval mos_eval(const MosParams& p, double vg, double vd, double vs,
                 double vb) {
  return mos_eval_with(p, mos_consts(p), vg, vd, vs, vb);
}

double mos_ids(const MosParams& p, double vgs, double vds) {
  return mos_eval(p, vgs, vds, 0.0, 0.0).ids;
}

Mosfet::Mosfet(std::string name, NodeId d, NodeId g, NodeId s, NodeId b,
               MosParams params)
    : Device(std::move(name)),
      d_(d),
      g_(g),
      s_(s),
      b_(b),
      p_(params),
      k_(mos_consts(params)) {
  ECMS_REQUIRE(p_.w > 0 && p_.l > 0, "MOSFET geometry must be positive");
  ECMS_REQUIRE(p_.kp > 0, "MOSFET kp must be positive");
  // Intrinsic capacitance split: overlap caps to S/D, the full channel
  // capacitance to bulk, junction caps at the diffusions. See header.
  cgs_.set_capacitance(p_.c_overlap());
  cgd_.set_capacitance(p_.c_overlap());
  cgb_.set_capacitance(p_.c_gate_channel());
  cdb_.set_capacitance(p_.c_junction());
  csb_.set_capacitance(p_.c_junction());
}

void Mosfet::stamp(const StampContext& ctx, MnaView& a_mat,
                   std::span<double> b_vec) const {
  const double vg = ctx.v(g_), vd = ctx.v(d_), vs = ctx.v(s_), vb = ctx.v(b_);
  stamp_eval_into(mos_eval_with(p_, k_, vg, vd, vs, vb), vg, vd, vs, vb,
                  a_mat, b_vec);
}

template <class Sink>
void Mosfet::stamp_static_into(const StampContext& ctx, Sink& a_mat,
                               std::span<double> b_vec) const {
  // Convergence aid across the channel (negligible at 1e-12 S).
  stamp_conductance(a_mat, d_, s_, ctx.gmin);

  // Intrinsic capacitances. Their companions read dt and latched state but
  // never the Newton iterate, so they belong to the per-point static image:
  // on the sparse backend this cuts ~3/4 of the MOSFET's per-iteration
  // matrix stamps.
  cgs_.stamp(ctx, g_, s_, a_mat, b_vec);
  cgd_.stamp(ctx, g_, d_, a_mat, b_vec);
  cgb_.stamp(ctx, g_, b_, a_mat, b_vec);
  cdb_.stamp(ctx, d_, b_, a_mat, b_vec);
  csb_.stamp(ctx, s_, b_, a_mat, b_vec);
}

template void Mosfet::stamp_static_into(const StampContext&, MnaView&,
                                        std::span<double>) const;
template void Mosfet::stamp_static_into(const StampContext&, SlotCursor&,
                                        std::span<double>) const;
template void Mosfet::stamp_static_into(const StampContext&, DiscardMatrix&,
                                        std::span<double>) const;

void Mosfet::init_state(const StampContext& ctx) {
  cgs_.init_state(ctx, g_, s_);
  cgd_.init_state(ctx, g_, d_);
  cgb_.init_state(ctx, g_, b_);
  cdb_.init_state(ctx, d_, b_);
  csb_.init_state(ctx, s_, b_);
}

void Mosfet::accept_step(const StampContext& ctx) {
  cgs_.accept_step(ctx, g_, s_);
  cgd_.accept_step(ctx, g_, d_);
  cgb_.accept_step(ctx, g_, b_);
  cdb_.accept_step(ctx, d_, b_);
  csb_.accept_step(ctx, s_, b_);
}

double Mosfet::probe_current(const StampContext& ctx) const {
  return mos_eval_with(p_, k_, ctx.v(g_), ctx.v(d_), ctx.v(s_), ctx.v(b_)).ids;
}

void Mosfet::save_state(std::vector<double>& out) const {
  cgs_.save_state(out);
  cgd_.save_state(out);
  cgb_.save_state(out);
  cdb_.save_state(out);
  csb_.save_state(out);
}

std::size_t Mosfet::restore_state(std::span<const double> in) {
  std::size_t off = 0;
  off += cgs_.restore_state(in.subspan(off));
  off += cgd_.restore_state(in.subspan(off));
  off += cgb_.restore_state(in.subspan(off));
  off += cdb_.restore_state(in.subspan(off));
  off += csb_.restore_state(in.subspan(off));
  return off;
}

}  // namespace ecms::circuit
