// MOSFET model.
//
// Two channel-current models are provided:
//  * kEkv (default): a long-channel EKV-style interpolation that is smooth
//    and monotonic across subthreshold / triode / saturation. Smoothness is
//    what makes Newton converge reliably on the measurement structure, where
//    the REF transistor's gate sits anywhere between 0 V and VDD after charge
//    sharing — including right at threshold. Its exp/log1p are the in-house
//    det_exp/det_log1p (circuit/detmath.hpp), not libm: the same bits on
//    every host, and the batch engine's AVX2 lane kernel (kernels::ekv)
//    evaluates many cells' copies of one device bit-identically to
//    mos_eval().
//  * kLevel1: classic SPICE level-1 (Shichman–Hodges) piecewise square law,
//    kept as a cross-check so tests can validate the EKV curve against the
//    textbook regions.
//
// Intrinsic capacitances are modeled as constant (geometry-derived) linear
// capacitors Cgs/Cgd/Cgb plus junction capacitances Cdb/Csb. A constant gate
// capacitance is exactly what the paper's charge-sharing step relies on
// (C_REF is "the input capacitor of the n-MOSFET used for the analog to
// digital conversion"), and constant linear caps keep the transient solver
// charge-conserving.
#pragma once

#include <array>

#include "circuit/device.hpp"

namespace ecms::circuit {

enum class MosType { kNmos, kPmos };
enum class MosModel { kEkv, kLevel1 };

/// Electrical parameters of a MOSFET instance (already including geometry).
struct MosParams {
  MosType type = MosType::kNmos;
  MosModel model = MosModel::kEkv;
  double w = 1e-6;          ///< channel width (m)
  double l = 0.18e-6;       ///< drawn channel length (m)
  double kp = 170e-6;       ///< transconductance u0*Cox (A/V^2)
  double vth0 = 0.45;       ///< zero-bias threshold (V, positive for both types)
  double lambda = 0.06;     ///< channel-length modulation (1/V)
  double n_slope = 1.35;    ///< subthreshold slope factor (also linearized body
                            ///< effect: dVth/dVsb ~ (n-1))
  double temp_k = 300.0;    ///< device temperature
  double cox_per_area = 8.6e-3;  ///< gate oxide capacitance (F/m^2)
  double cov_per_w = 3.0e-10;    ///< G-D / G-S overlap capacitance (F/m)
  double cj_per_area = 1.0e-3;   ///< junction capacitance (F/m^2)
  double diff_len = 0.48e-6;     ///< source/drain diffusion length (m)

  /// Gate-channel oxide capacitance Cox*W*L.
  double c_gate_channel() const { return cox_per_area * w * l; }
  /// Overlap capacitance per side.
  double c_overlap() const { return cov_per_w * w; }
  /// Effective gate input capacitance seen from the gate with channel formed
  /// (used to size C_REF): channel + both overlaps.
  double c_gate_input() const { return c_gate_channel() + 2.0 * c_overlap(); }
  /// Junction (drain or source to bulk) capacitance.
  double c_junction() const { return cj_per_area * w * diff_len; }
};

/// Channel current and its partial derivatives at one bias point.
struct MosEval {
  double ids = 0.0;  ///< drain->source channel current (n-type convention)
  double d_vg = 0.0;
  double d_vd = 0.0;
  double d_vs = 0.0;
  double d_vb = 0.0;
};

/// Per-instance constants of the channel models, a pure function of the
/// parameters. mos_eval() derives them on every call; a Mosfet derives
/// them once at construction through the same function (mosfet.cpp), so
/// both evaluations see bit-identical constants.
struct MosConsts {
  double vt = 0.0;    ///< thermal voltage kT/q
  double beta = 0.0;  ///< kp * W / L
  double is = 0.0;    ///< EKV specific current 2 n beta vt^2
  double n_vt = 0.0;  ///< n * vt
  double n_m1 = 0.0;  ///< n - 1 (linearized body effect)
};

/// The EKV interpolation F(u) = ln^2(1 + e^{u/2}) and its derivative
/// F'(u), the transcendental core of the kEkv channel model (mosfet.cpp).
struct EkvInterp {
  double f;
  double df;
};
EkvInterp ekv_f(double u);

/// The constants of `p` (the function every evaluation derives them with).
MosConsts mos_consts(const MosParams& p);

/// True when every field of `a` and `b` has the same bits: devices that
/// share one lane-kernel evaluation must have identical parameters.
bool identical(const MosParams& a, const MosParams& b);

/// Evaluates the channel current for terminal voltages (absolute, any
/// reference). Exposed as a free function so the behavioral fast model and
/// tests can share the exact same I-V surface as the transient simulator.
MosEval mos_eval(const MosParams& p, double vg, double vd, double vs,
                 double vb);

/// mos_eval() with the constants already derived (k == mos_consts(p)): the
/// one evaluation behind mos_eval, Mosfet stamps and probes, and the scalar
/// lane kernel.
MosEval mos_eval_with(const MosParams& p, const MosConsts& k, double vg,
                      double vd, double vs, double vb);

/// Convenience: drain saturation-ish current at a given Vgs with Vds = vds,
/// Vsb = 0 (used by the ramp-ADC fast model).
double mos_ids(const MosParams& p, double vgs, double vds);

/// Four-terminal MOSFET device.
class Mosfet : public Device {
 public:
  Mosfet(std::string name, NodeId d, NodeId g, NodeId s, NodeId b,
         MosParams params);

  /// Evaluates the channel at the iterate and stamps its Newton companion.
  void stamp(const StampContext& ctx, MnaView& a_mat,
             std::span<double> b_vec) const override;
  /// gmin tie and the five intrinsic capacitances (iterate-independent).
  void stamp_static(const StampContext& ctx, MnaView& a_mat,
                    std::span<double> b_vec) const override {
    stamp_static_into(ctx, a_mat, b_vec);
  }
  /// The stamp bodies, templated over the matrix sink: MnaView on the
  /// scalar path, SlotCursor in the batch engine's static-image stamp. One
  /// body per stamp means one add order per slot on both paths.
  /// stamp_eval_into() stamps the companion of an evaluation `e` taken at
  /// terminal voltages (vg, vd, vs, vb) — stamp() passes mos_eval_with() at
  /// the iterate; kernels::mos_stamp repeats its operations across the
  /// lanes of a kernels::ekv result, and its test holds it to this body.
  /// stamp_static_into() is instantiated in mosfet.cpp for
  /// MnaView, SlotCursor and DiscardMatrix (the sparse engine's
  /// right-hand-side-only restamp).
  template <class Sink>
  void stamp_eval_into(const MosEval& e, double vg, double vd, double vs,
                       double vb, Sink& a_mat, std::span<double> b_vec) const;
  template <class Sink>
  void stamp_static_into(const StampContext& ctx, Sink& a_mat,
                         std::span<double> b_vec) const;
  bool nonlinear() const override { return true; }
  void init_state(const StampContext& ctx) override;
  void accept_step(const StampContext& ctx) override;
  /// Channel current (drain->source, n-type convention) at the iterate.
  double probe_current(const StampContext& ctx) const override;
  void save_state(std::vector<double>& out) const override;
  std::size_t restore_state(std::span<const double> in) override;

  /// One intrinsic capacitance and the terminals it sits across.
  struct Companion {
    const CapCompanion* cap;
    NodeId a, b;
  };
  /// The five intrinsic capacitances in the order stamp_static_into()
  /// stamps them and save_state() serializes them: Cgs, Cgd, Cgb, Cdb, Csb.
  std::array<Companion, 5> companions() const {
    return {{{&cgs_, g_, s_},
             {&cgd_, g_, d_},
             {&cgb_, g_, b_},
             {&cdb_, d_, b_},
             {&csb_, s_, b_}}};
  }

  const MosParams& params() const { return p_; }
  const MosConsts& consts() const { return k_; }
  NodeId drain() const { return d_; }
  NodeId gate() const { return g_; }
  NodeId source() const { return s_; }
  NodeId bulk() const { return b_; }

 private:
  NodeId d_, g_, s_, b_;
  MosParams p_;
  MosConsts k_;  // mos_consts(p_); parameters never change after construction
  CapCompanion cgs_, cgd_, cgb_, cdb_, csb_;
};

template <class Sink>
inline void Mosfet::stamp_eval_into(const MosEval& e, double vg, double vd,
                                    double vs, double vb, Sink& a_mat,
                                    std::span<double> b_vec) const {
  // Newton companion for the channel current I(d->s):
  // I ~ I0 + sum_k dI/dvk (vk - vk0).
  auto stamp_pair = [&](NodeId col, double g) {
    if (col == kGround) return;
    if (d_ != kGround) a_mat.add(unknown_of(d_), unknown_of(col), g);
    if (s_ != kGround) a_mat.add(unknown_of(s_), unknown_of(col), -g);
  };
  stamp_pair(g_, e.d_vg);
  stamp_pair(d_, e.d_vd);
  stamp_pair(s_, e.d_vs);
  stamp_pair(b_, e.d_vb);
  const double ieq =
      e.ids - e.d_vg * vg - e.d_vd * vd - e.d_vs * vs - e.d_vb * vb;
  stamp_current(b_vec, d_, s_, ieq);
}

}  // namespace ecms::circuit
