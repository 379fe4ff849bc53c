#include "circuit/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace ecms::circuit::kernels {

namespace {

// ---------------------------------------------------------------------------
// Scalar backend: the reference implementation. Per lane this is literally
// mos_eval_with() and SparseLu::refactor()/solve_in_place() with an extra
// inner lane loop; the AVX2 backend (kernels_avx2.cpp) replicates the
// identical op order 4 lanes at a time.
// ---------------------------------------------------------------------------

void refactor_scalar(const LuSymbolic& sy, const double* a, double* l,
                     double* u, double* work, std::size_t w) {
  const std::size_t n = sy.n;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::uint32_t s = sy.l_ptr[i]; s < sy.l_ptr[i + 1]; ++s) {
      double* row = work + static_cast<std::size_t>(sy.l_cols[s]) * w;
      for (std::size_t k = 0; k < w; ++k) row[k] = 0.0;
    }
    for (std::uint32_t s = sy.u_ptr[i]; s < sy.u_ptr[i + 1]; ++s) {
      double* row = work + static_cast<std::size_t>(sy.u_cols[s]) * w;
      for (std::size_t k = 0; k < w; ++k) row[k] = 0.0;
    }
    for (std::uint32_t s = sy.a_ptr[i]; s < sy.a_ptr[i + 1]; ++s) {
      double* row = work + static_cast<std::size_t>(sy.a_pcol[s]) * w;
      const double* av = a + static_cast<std::size_t>(sy.a_slot[s]) * w;
      for (std::size_t k = 0; k < w; ++k) row[k] += av[k];
    }
    for (std::uint32_t s = sy.l_ptr[i]; s < sy.l_ptr[i + 1]; ++s) {
      const std::uint32_t j = sy.l_cols[s];
      const double* wj = work + static_cast<std::size_t>(j) * w;
      const double* upiv = u + static_cast<std::size_t>(sy.u_ptr[j]) * w;
      double* ls = l + static_cast<std::size_t>(s) * w;
      for (std::size_t k = 0; k < w; ++k) ls[k] = wj[k] / upiv[k];
      for (std::uint32_t t = sy.u_ptr[j] + 1; t < sy.u_ptr[j + 1]; ++t) {
        double* row = work + static_cast<std::size_t>(sy.u_cols[t]) * w;
        const double* ut = u + static_cast<std::size_t>(t) * w;
        for (std::size_t k = 0; k < w; ++k) row[k] -= ls[k] * ut[k];
      }
    }
    for (std::uint32_t s = sy.u_ptr[i]; s < sy.u_ptr[i + 1]; ++s) {
      const double* row = work + static_cast<std::size_t>(sy.u_cols[s]) * w;
      double* us = u + static_cast<std::size_t>(s) * w;
      for (std::size_t k = 0; k < w; ++k) us[k] = row[k];
    }
  }
}

void solve_scalar(const LuSymbolic& sy, const double* l, const double* u,
                  double* pb, std::size_t w) {
  const std::size_t n = sy.n;
  for (std::size_t i = 0; i < n; ++i) {
    double* acc = pb + i * w;
    for (std::uint32_t s = sy.l_ptr[i]; s < sy.l_ptr[i + 1]; ++s) {
      const double* ls = l + static_cast<std::size_t>(s) * w;
      const double* pj = pb + static_cast<std::size_t>(sy.l_cols[s]) * w;
      for (std::size_t k = 0; k < w; ++k) acc[k] -= ls[k] * pj[k];
    }
  }
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double* acc = pb + i * w;
    for (std::uint32_t s = sy.u_ptr[i] + 1; s < sy.u_ptr[i + 1]; ++s) {
      const double* us = u + static_cast<std::size_t>(s) * w;
      const double* pj = pb + static_cast<std::size_t>(sy.u_cols[s]) * w;
      for (std::size_t k = 0; k < w; ++k) acc[k] -= us[k] * pj[k];
    }
    const double* upiv = u + static_cast<std::size_t>(sy.u_ptr[i]) * w;
    for (std::size_t k = 0; k < w; ++k) acc[k] /= upiv[k];
  }
}

void pivot_health_scalar(const LuSymbolic& sy, const double* u,
                         std::size_t w, std::uint8_t* flags) {
  for (std::size_t k = 0; k < w; ++k) flags[k] = 0;
  for (std::size_t i = 0; i < sy.n; ++i) {
    const double* piv = u + static_cast<std::size_t>(sy.u_ptr[i]) * w;
    for (std::size_t k = 0; k < w; ++k) {
      double rmax = 0.0;
      for (std::uint32_t s = sy.u_ptr[i]; s < sy.u_ptr[i + 1]; ++s) {
        rmax = std::max(rmax, std::abs(u[static_cast<std::size_t>(s) * w + k]));
      }
      const double mag = std::abs(piv[k]);
      if (!std::isfinite(piv[k]) || mag == 0.0 ||
          mag < kRepivotThreshold * rmax) {
        flags[k] = 1;
      }
    }
  }
}

void copy_scalar(double* dst, const double* src, std::size_t count) {
  std::memcpy(dst, src, count * sizeof(double));
}

void diag_add_scalar(double* values, const std::uint32_t* slots,
                     std::size_t n_slots, double g, std::size_t w) {
  for (std::size_t i = 0; i < n_slots; ++i) {
    double* row = values + static_cast<std::size_t>(slots[i]) * w;
    for (std::size_t k = 0; k < w; ++k) row[k] += g;
  }
}

void ekv_scalar(const MosParams& p, const MosConsts& k, const MosLanes& io,
                std::size_t w) {
  for (std::size_t i = 0; i < w; ++i) {
    const MosEval e =
        mos_eval_with(p, k, io.vg[i], io.vd[i], io.vs[i], io.vb[i]);
    io.ids[i] = e.ids;
    io.d_vg[i] = e.d_vg;
    io.d_vd[i] = e.d_vd;
    io.d_vs[i] = e.d_vs;
    io.d_vb[i] = e.d_vb;
  }
}

void mos_stamp_scalar(const MosStampPlan& plan, const MosLanes& io,
                      double* a, double* b, std::size_t w) {
  const double* const deriv[4] = {io.d_vg, io.d_vd, io.d_vs, io.d_vb};
  for (std::uint32_t j = 0; j < plan.n_adds; ++j) {
    double* row = a + static_cast<std::size_t>(plan.slot[j]) * w;
    const double* g = deriv[plan.deriv[j]];
    if (plan.negate[j]) {
      for (std::size_t k = 0; k < w; ++k) row[k] += -g[k];
    } else {
      for (std::size_t k = 0; k < w; ++k) row[k] += g[k];
    }
  }
  double* rd = plan.rhs_d < 0 ? nullptr : b + plan.rhs_d * w;
  double* rs = plan.rhs_s < 0 ? nullptr : b + plan.rhs_s * w;
  for (std::size_t k = 0; k < w; ++k) {
    const double ieq = io.ids[k] - io.d_vg[k] * io.vg[k] -
                       io.d_vd[k] * io.vd[k] - io.d_vs[k] * io.vs[k] -
                       io.d_vb[k] * io.vb[k];
    if (rd != nullptr) rd[k] -= ieq;
    if (rs != nullptr) rs[k] += ieq;
  }
}

void companion_rhs_scalar(const CompanionRows* comps, std::size_t count,
                          const double* g, const double* v, const double* i,
                          bool trap, double* b, std::size_t w) {
  for (std::size_t c = 0; c < count; ++c) {
    const CompanionRows& cr = comps[c];
    if (cr.open) continue;
    const double* gc = g + c * w;
    const double* vc = v + c * w;
    const double* ic = i + c * w;
    double* ra = cr.ba < 0 ? nullptr : b + cr.ba * w;
    double* rb = cr.bb < 0 ? nullptr : b + cr.bb * w;
    for (std::size_t k = 0; k < w; ++k) {
      double j = gc[k] * vc[k];
      if (trap) j += ic[k];
      if (rb != nullptr) rb[k] -= j;
      if (ra != nullptr) ra[k] += j;
    }
  }
}

void companion_latch_scalar(const CompanionRows* comps, std::size_t count,
                            const double* g, double* v, double* i, bool trap,
                            const double* x, std::size_t w) {
  for (std::size_t c = 0; c < count; ++c) {
    const CompanionRows& cr = comps[c];
    const double* xa = x + static_cast<std::size_t>(cr.xa) * w;
    const double* xb = x + static_cast<std::size_t>(cr.xb) * w;
    double* vc = v + c * w;
    double* ic = i + c * w;
    if (cr.open) {
      for (std::size_t k = 0; k < w; ++k) {
        vc[k] = xa[k] - xb[k];
        ic[k] = 0.0;
      }
      continue;
    }
    const double* gc = g + c * w;
    for (std::size_t k = 0; k < w; ++k) {
      const double v_new = xa[k] - xb[k];
      double i_new = gc[k] * (v_new - vc[k]);
      if (trap) i_new -= ic[k];
      vc[k] = v_new;
      ic[k] = i_new;
    }
  }
}

void newton_update_scalar(const NewtonLanes& io, std::size_t w) {
  for (std::size_t k = 0; k < w; ++k) {
    io.max_dv[k] = 0.0;
    io.max_x[k] = 0.0;
  }
  for (std::size_t r = 0; r < io.nv; ++r) {
    const double* xn = io.x_new + static_cast<std::size_t>(io.x_new_row[r]) * w;
    const double* x = io.x + r * w;
    for (std::size_t k = 0; k < w; ++k) {
      const double dv = std::abs(xn[k] - x[k]);
      if (dv > io.max_dv[k]) io.max_dv[k] = dv;
      io.max_x[k] = std::max(io.max_x[k], std::abs(x[k]));
    }
  }
  for (std::size_t k = 0; k < w; ++k) {
    io.scale[k] = 1.0;
    if (io.max_dv[k] > io.max_delta_v) {
      io.scale[k] = io.max_delta_v / io.max_dv[k];
    }
  }
  for (std::size_t r = 0; r < io.n; ++r) {
    const double* xn = io.x_new + static_cast<std::size_t>(io.x_new_row[r]) * w;
    double* x = io.x + r * w;
    for (std::size_t k = 0; k < w; ++k) {
      if (io.step[k] != 0) x[k] += io.scale[k] * (xn[k] - x[k]);
    }
  }
}

constexpr Kernels kScalar = {"scalar",
                             ekv_scalar,
                             refactor_scalar,
                             solve_scalar,
                             pivot_health_scalar,
                             copy_scalar,
                             diag_add_scalar,
                             mos_stamp_scalar,
                             companion_rhs_scalar,
                             companion_latch_scalar,
                             newton_update_scalar};

bool env_forces_scalar() {
  const char* v = std::getenv("ECMS_FORCE_SCALAR_KERNELS");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

const Kernels* detect_vector() {
#if !defined(ECMS_FORCE_SCALAR_KERNELS_BUILD) && \
    (defined(__x86_64__) || defined(_M_X64))
  if (avx2_kernels() != nullptr && __builtin_cpu_supports("avx2")) {
    return avx2_kernels();
  }
#endif
  return nullptr;
}

// -1 = undecided (consult env at first use), 0 = dispatch, 1 = scalar.
std::atomic<int> g_force_scalar{-1};

}  // namespace

const Kernels& scalar() { return kScalar; }

bool vector_available() { return detect_vector() != nullptr; }

void set_force_scalar(bool force) {
  g_force_scalar.store(force ? 1 : 0, std::memory_order_relaxed);
}

bool force_scalar() {
  int v = g_force_scalar.load(std::memory_order_relaxed);
  if (v < 0) {
    v = env_forces_scalar() ? 1 : 0;
    g_force_scalar.store(v, std::memory_order_relaxed);
  }
  return v == 1;
}

const Kernels& active() {
  if (force_scalar()) return kScalar;
  const Kernels* vec = detect_vector();
  return vec != nullptr ? *vec : kScalar;
}

const char* isa_summary() {
  if (force_scalar()) {
    return vector_available() ? "scalar (forced; vector backend available)"
                              : "scalar (forced)";
  }
  const Kernels* vec = detect_vector();
  if (vec == nullptr) return "scalar (no vector backend on this host)";
  return vec->name;
}

std::size_t preferred_width() {
  // Measured on the 16x16 array extraction (4x4 tiles, --jobs 2, AVX2):
  // width 16 ran 0.475 s median wall against 0.509 s at 8 over 8 alternating
  // rounds, and 32 runs the same chunks as 16 because a 4x4 tile holds 16
  // cells. No width won every round, so the constant stays.
  const Kernels& k = active();
  if (std::strcmp(k.name, "avx2") == 0) return 16;
  return 4;
}

}  // namespace ecms::circuit::kernels
