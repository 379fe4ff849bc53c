#include "circuit/device.hpp"

namespace ecms::circuit {

void stamp_transconductance(MnaView& a_mat, NodeId out_p, NodeId out_n,
                            NodeId in_p, NodeId in_n, double g) {
  auto stamp = [&](NodeId row, NodeId col, double val) {
    if (row == kGround || col == kGround) return;
    a_mat.add(unknown_of(row), unknown_of(col), val);
  };
  stamp(out_p, in_p, g);
  stamp(out_p, in_n, -g);
  stamp(out_n, in_p, -g);
  stamp(out_n, in_n, g);
}

void CapCompanion::init_state(const StampContext& ctx, NodeId a, NodeId b) {
  v_prev_ = ctx.v(a) - ctx.v(b);
  i_prev_ = 0.0;
}

void CapCompanion::accept_step(const StampContext& ctx, NodeId a, NodeId b) {
  if (ctx.is_dc() || c_ == 0.0) {
    init_state(ctx, a, b);
    return;
  }
  const double g = geq(ctx);
  const double v_new = ctx.v(a) - ctx.v(b);
  double i_new = g * (v_new - v_prev_);
  if (ctx.method == Integrator::kTrapezoidal) i_new -= i_prev_;
  v_prev_ = v_new;
  i_prev_ = i_new;
}

}  // namespace ecms::circuit
