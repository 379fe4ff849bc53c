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

}  // namespace ecms::circuit
