// Bit-identity of the batched SoA kernels against the scalar SparseLu path
// on randomized MNA-shaped systems: the vector refactor / triangular solves
// must reproduce the scalar backend's results to the last bit at every lane
// width, on both the dispatched and the forced-scalar backend, and a
// degraded (fault-injected) lane must be flagged by pivot_health() — on
// every backend exactly as the per-lane replica of SparseLu::refactor()'s
// check below decides — without contaminating its neighbors. The MOSFET
// lane kernel (ekv) must reproduce mos_eval() to the last bit on every
// backend, across the EKV tails and at non-finite terminal voltages, and
// the lane-major assembly and Newton-update kernels the scalar path's
// per-lane stamp bodies and update loop.
#include "circuit/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "circuit/device.hpp"
#include "circuit/mosfet.hpp"
#include "circuit/sparse.hpp"
#include "tech/tech.hpp"
#include "util/rng.hpp"

namespace ecms::circuit {
namespace {

struct Entry {
  std::size_t r, c;
  double v;
};

// Same MNA shape the sparse-LU equivalence tests use: conductance block
// with structural symmetry plus voltage-source incidence rows with zero
// diagonals (forces real pivoting).
std::vector<Entry> random_mna(std::size_t nv, std::size_t nb, Rng& rng) {
  std::vector<Entry> es;
  for (std::size_t i = 0; i < nv; ++i) {
    es.push_back({i, i, rng.uniform(0.5, 2.0)});
  }
  for (std::size_t k = 0; k < 2 * nv; ++k) {
    const std::size_t a = rng.uniform_index(nv);
    const std::size_t b = rng.uniform_index(nv);
    if (a == b) continue;
    const double g = rng.uniform(0.1, 10.0);
    es.push_back({a, a, g});
    es.push_back({b, b, g});
    es.push_back({a, b, -g});
    es.push_back({b, a, -g});
  }
  for (std::size_t k = 0; k < nb; ++k) {
    // Distinct (p, q) pairs per branch: two identical incidence rows would
    // make the system singular regardless of the conductance block.
    const std::size_t br = nv + k;
    const std::size_t p = (2 * k) % nv;
    const std::size_t q = (2 * k + 1) % nv;
    es.push_back({p, br, 1.0});
    es.push_back({br, p, 1.0});
    es.push_back({q, br, -1.0});
    es.push_back({br, q, -1.0});
  }
  return es;
}

SparseMatrix matrix_of(std::size_t n, const std::vector<Entry>& es) {
  std::vector<std::uint64_t> coords;
  coords.reserve(es.size());
  for (const auto& e : es) coords.push_back(pack_coord(e.r, e.c));
  SparseMatrix m;
  m.build_pattern(n, coords);
  auto vals = m.values();
  for (const auto& e : es) vals[m.slot(e.r, e.c)] += e.v;
  return m;
}

// The oracle: SparseLu::refactor()'s pivot-health early return replayed on
// one lane of an SoA U — the first permuted row whose pivot is non-finite,
// exactly zero, or below the threshold times the row max, or -1.
long first_degraded_row(const LuSymbolic& sy, const double* u,
                        std::size_t width, std::size_t lane) {
  for (std::size_t i = 0; i < sy.n; ++i) {
    double rmax = 0.0;
    for (std::uint32_t s = sy.u_ptr[i]; s < sy.u_ptr[i + 1]; ++s) {
      const double v = u[static_cast<std::size_t>(s) * width + lane];
      rmax = std::max(rmax, std::abs(v));
    }
    const double piv =
        u[static_cast<std::size_t>(sy.u_ptr[i]) * width + lane];
    const double mag = std::abs(piv);
    if (!std::isfinite(piv) || mag == 0.0 ||
        mag < kernels::kRepivotThreshold * rmax) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

// pivot_health() of `kk` over all lanes.
std::vector<std::uint8_t> health(const kernels::Kernels& kk,
                                 const LuSymbolic& sy,
                                 const std::vector<double>& u,
                                 std::size_t width) {
  std::vector<std::uint8_t> flags(width, 0xff);
  kk.pivot_health(sy, u.data(), width, flags.data());
  return flags;
}

::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bit patterns differ)";
}

// Runs one width-W equivalence round: W value-perturbed copies of one
// MNA-shaped topology, scalar SparseLu refactor+solve per lane as the
// reference, kernel refactor+solve over the SoA gather as the candidate.
void run_round(const kernels::Kernels& kk, std::size_t width,
               std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t nv = 8 + rng.uniform_index(8);
  const std::size_t nb = 1 + rng.uniform_index(3);
  const std::size_t n = nv + nb;
  const std::vector<Entry> base = random_mna(nv, nb, rng);

  // Lane 0 defines the shared pivot order, as in the batch engine.
  SparseMatrix m0 = matrix_of(n, base);
  SparseLu lu0;
  lu0.factor(m0);
  const std::shared_ptr<const LuSymbolic> sym = lu0.symbolic();
  ASSERT_NE(sym, nullptr);
  const LuSymbolic& sy = *sym;

  // Per-lane value sets (lane 0 keeps the base values) and RHS vectors.
  std::vector<SparseMatrix> mats;
  std::vector<std::vector<double>> rhs(width, std::vector<double>(n));
  for (std::size_t l = 0; l < width; ++l) {
    std::vector<Entry> es = base;
    if (l > 0) {
      for (auto& e : es) e.v *= rng.uniform(0.9, 1.1);
    }
    mats.push_back(matrix_of(n, es));
    for (double& v : rhs[l]) v = rng.uniform(-1.0, 1.0);
  }

  // Reference: scalar numeric refactor + solve on the shared symbolic.
  std::vector<std::vector<double>> ref = rhs;
  for (std::size_t l = 0; l < width; ++l) {
    SparseLu lu;
    lu.adopt_symbolic(sym);
    ASSERT_TRUE(lu.refactor(mats[l])) << "lane " << l;
    lu.solve_in_place(ref[l]);
  }

  // Candidate: SoA gather, kernel refactor + solve, scatter.
  const std::size_t nnz = mats[0].nnz();
  std::vector<double> a(nnz * width), l_vals(sy.l_cols.size() * width),
      u_vals(sy.u_cols.size() * width), work(n * width), pb(n * width);
  for (std::size_t l = 0; l < width; ++l) {
    const auto av = mats[l].values();
    for (std::size_t s = 0; s < nnz; ++s) a[s * width + l] = av[s];
    for (std::size_t i = 0; i < n; ++i) {
      pb[i * width + l] = rhs[l][sy.perm_row[i]];
    }
  }
  kk.refactor(sy, a.data(), l_vals.data(), u_vals.data(), work.data(), width);
  const std::vector<std::uint8_t> flags = health(kk, sy, u_vals, width);
  for (std::size_t l = 0; l < width; ++l) {
    EXPECT_EQ(first_degraded_row(sy, u_vals.data(), width, l), -1);
    EXPECT_EQ(flags[l], 0) << "lane " << l;
  }
  kk.solve(sy, l_vals.data(), u_vals.data(), pb.data(), width);
  for (std::size_t l = 0; l < width; ++l) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_TRUE(bits_equal(pb[j * width + l], ref[l][sy.perm_col[j]]))
          << "lane " << l << " unknown " << sy.perm_col[j] << " width "
          << width;
    }
  }
}

class BatchKernelT : public ::testing::Test {
 protected:
  void TearDown() override { kernels::set_force_scalar(false); }
};

TEST_F(BatchKernelT, ScalarBackendMatchesSparseLuAtEveryWidth) {
  for (std::size_t w : {1u, 4u, 8u, 16u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      run_round(kernels::scalar(), w, seed * 977 + w);
    }
  }
}

TEST_F(BatchKernelT, DispatchedBackendMatchesSparseLuAtEveryWidth) {
  // On hosts without a vector unit this re-checks the scalar backend; with
  // one it proves the AVX2 lanes agree with SparseLu to the last bit.
  for (std::size_t w : {1u, 4u, 8u, 16u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      run_round(kernels::active(), w, seed * 1409 + w);
    }
  }
}

TEST_F(BatchKernelT, ForceScalarOverridesDispatch) {
  kernels::set_force_scalar(true);
  EXPECT_STREQ(kernels::active().name, "scalar");
  EXPECT_TRUE(kernels::force_scalar());
  run_round(kernels::active(), 8, 42);
  kernels::set_force_scalar(false);
  EXPECT_FALSE(kernels::force_scalar());
  if (kernels::vector_available()) {
    EXPECT_STRNE(kernels::active().name, "scalar");
  }
}

TEST_F(BatchKernelT, DegradedLaneIsFlaggedAndConfined) {
  Rng rng(7);
  const std::size_t nv = 10, nb = 2, n = nv + nb;
  const std::vector<Entry> base = random_mna(nv, nb, rng);
  SparseMatrix m0 = matrix_of(n, base);
  SparseLu lu0;
  lu0.factor(m0);
  const auto sym = lu0.symbolic();
  const LuSymbolic& sy = *sym;

  const std::size_t width = 4, bad = 2;
  const std::size_t nnz = m0.nnz();
  std::vector<double> a(nnz * width, 0.0), l_vals(sy.l_cols.size() * width),
      u_vals(sy.u_cols.size() * width), work(n * width), pb(n * width);
  std::vector<std::vector<double>> rhs(width, std::vector<double>(n));
  for (std::size_t l = 0; l < width; ++l) {
    for (double& v : rhs[l]) v = rng.uniform(-1.0, 1.0);
    if (l == bad) continue;  // lane `bad` keeps an all-zero (singular) matrix
    const auto av = m0.values();
    for (std::size_t s = 0; s < nnz; ++s) a[s * width + l] = av[s];
  }
  for (std::size_t l = 0; l < width; ++l) {
    for (std::size_t i = 0; i < n; ++i) {
      pb[i * width + l] = rhs[l][sy.perm_row[i]];
    }
  }

  const kernels::Kernels& kk = kernels::active();
  kk.refactor(sy, a.data(), l_vals.data(), u_vals.data(), work.data(), width);
  const std::vector<std::uint8_t> flags = health(kk, sy, u_vals, width);
  for (std::size_t l = 0; l < width; ++l) {
    const long row = first_degraded_row(sy, u_vals.data(), width, l);
    if (l == bad) {
      EXPECT_GE(row, 0) << "singular lane must be flagged";
      EXPECT_EQ(flags[l], 1);
    } else {
      EXPECT_EQ(row, -1) << "lane " << l;
      EXPECT_EQ(flags[l], 0) << "lane " << l;
    }
  }
  // The scalar engine agrees the bad lane's refactor is degraded.
  SparseLu lu_bad;
  lu_bad.adopt_symbolic(sym);
  SparseMatrix zero = m0;
  for (double& v : zero.values()) v = 0.0;
  EXPECT_FALSE(lu_bad.refactor(zero));

  // Healthy lanes still solve bit-identically to the scalar reference.
  kk.solve(sy, l_vals.data(), u_vals.data(), pb.data(), width);
  for (std::size_t l = 0; l < width; ++l) {
    if (l == bad) continue;
    std::vector<double> ref = rhs[l];
    SparseLu lu;
    lu.adopt_symbolic(sym);
    ASSERT_TRUE(lu.refactor(m0));
    lu.solve_in_place(ref);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_TRUE(bits_equal(pb[j * width + l], ref[sy.perm_col[j]]))
          << "lane " << l;
    }
  }

  // Every backend's flags equal the oracle at widths 1-17 (vector bodies,
  // tails, and tails alone), with each lane of each width given one of the
  // cases below at a random row: pivots that are zero, NaN, +-inf or below
  // the threshold (and just above it), and NaN or inf entries off the
  // pivot — a NaN off the pivot is skipped by the row max, an inf one makes
  // every finite pivot of its row degraded.
  std::vector<const kernels::Kernels*> backends = {&kernels::scalar()};
  if (kernels::vector_available()) backends.push_back(kernels::avx2_kernels());
  // The healthy U: a width-1 refactor of m0.
  std::vector<double> healthy(sy.u_cols.size()), l1(sy.l_cols.size()),
      w1(n);
  kernels::scalar().refactor(sy, m0.values().data(), l1.data(),
                             healthy.data(), w1.data(), 1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  constexpr int kCases = 10;
  Rng crng(1234);
  std::size_t flagged = 0, clean = 0;
  for (std::size_t w = 1; w <= 17; ++w) {
    std::vector<double> u(sy.u_cols.size() * w);
    for (std::size_t s = 0; s < healthy.size(); ++s) {
      for (std::size_t l = 0; l < w; ++l) u[s * w + l] = healthy[s];
    }
    for (std::size_t l = 0; l < w; ++l) {
      const int c = static_cast<int>((l + w) % kCases);
      const std::size_t row = crng.uniform_index(sy.n);
      const std::uint32_t p = sy.u_ptr[row];
      const std::uint32_t row_len = sy.u_ptr[row + 1] - p;
      double rmax = 0.0;
      for (std::uint32_t s = p; s < p + row_len; ++s) {
        rmax = std::max(rmax, std::abs(healthy[s]));
      }
      // An off-pivot entry of the row (the pivot itself when it is alone).
      const std::uint32_t off = row_len > 1 ? p + 1 : p;
      double* piv = &u[static_cast<std::size_t>(p) * w + l];
      double* other = &u[static_cast<std::size_t>(off) * w + l];
      switch (c) {
        case 0: break;  // healthy
        case 1: *piv = 0.0; break;
        case 2: *piv = -0.0; break;
        case 3: *piv = nan; break;
        case 4: *piv = inf; break;
        case 5: *piv = -inf; break;
        case 6: *piv = 0.5 * kernels::kRepivotThreshold * rmax; break;
        case 7: *piv = -2.0 * kernels::kRepivotThreshold * rmax; break;
        case 8: *other = nan; break;
        case 9: *other = -inf; break;
      }
    }
    for (const kernels::Kernels* kb : backends) {
      const std::vector<std::uint8_t> got = health(*kb, sy, u, w);
      for (std::size_t l = 0; l < w; ++l) {
        const bool want = first_degraded_row(sy, u.data(), w, l) >= 0;
        EXPECT_EQ(got[l], want ? 1 : 0)
            << kb->name << " width " << w << " lane " << l << " case "
            << (l + w) % kCases;
        (want ? flagged : clean) += 1;
      }
    }
  }
  // Both outcomes were exercised.
  EXPECT_GT(flagged, 0u);
  EXPECT_GT(clean, 0u);
}

TEST_F(BatchKernelT, CopyAndDiagAddMatchScalar) {
  Rng rng(11);
  const std::size_t count = 257;  // odd length exercises vector remainders
  std::vector<double> src(count), dst_v(count, 0.0), dst_s(count, 0.0);
  for (double& v : src) v = rng.uniform(-5.0, 5.0);
  kernels::active().copy(dst_v.data(), src.data(), count);
  kernels::scalar().copy(dst_s.data(), src.data(), count);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_TRUE(bits_equal(dst_v[i], dst_s[i]));
    EXPECT_TRUE(bits_equal(dst_v[i], src[i]));
  }

  const std::size_t width = 8, nslots = 5;
  const std::uint32_t slots[nslots] = {0, 3, 7, 12, 13};
  std::vector<double> vals_v(16 * width), vals_s(16 * width);
  for (std::size_t i = 0; i < vals_v.size(); ++i) {
    vals_v[i] = vals_s[i] = rng.uniform(-1.0, 1.0);
  }
  kernels::active().diag_add(vals_v.data(), slots, nslots, 1e-12, width);
  kernels::scalar().diag_add(vals_s.data(), slots, nslots, 1e-12, width);
  for (std::size_t i = 0; i < vals_v.size(); ++i) {
    EXPECT_TRUE(bits_equal(vals_v[i], vals_s[i]));
  }
}

struct Bias {
  double vg, vd, vs, vb;
};

// The x = u/2 the n-core hands ekv_f for the forward (uf, from vs) or the
// reverse (ur, from vd) term: the expressions of mosfet.cpp's eval_ncore.
double ekv_x(const MosParams& p, const Bias& b, bool reverse) {
  const MosConsts k = mos_consts(p);
  const double vp = (b.vg - b.vb - p.vth0) / p.n_slope;
  const double u = (vp - ((reverse ? b.vd : b.vs) - b.vb)) / k.vt;
  return 0.5 * u;
}

// `b` with vs (forward) or vd (reverse) moved, one ulp at a time, until
// the term's x equals `target` exactly; false when no double lands on it.
bool land_on(const MosParams& p, Bias& b, bool reverse, double target) {
  double& v = reverse ? b.vd : b.vs;
  const MosConsts k = mos_consts(p);
  const double vp = (b.vg - b.vb - p.vth0) / p.n_slope;
  v = vp - 2.0 * target * k.vt + b.vb;  // the real-arithmetic solution
  const double start = v;
  for (const double dir : {-1e300, 1e300}) {
    v = start;
    for (int i = 0; i < 256; ++i, v = std::nextafter(v, dir)) {
      if (ekv_x(p, b, reverse) == target) return true;
    }
  }
  return false;
}

// NMOS-frame biases covering the EKV branches: x beyond, on and next to
// +-37 for both terms, deep subthreshold down to e^x underflowing (x below
// -745), random operating points, and NaN / +-inf on every terminal.
std::vector<Bias> ekv_cases(const MosParams& p) {
  std::vector<Bias> cases;
  for (const bool reverse : {false, true}) {
    for (const double target : {37.0, -37.0}) {
      Bias b = {target > 0 ? 3.5 : 0.2, 0.9, 0.0, 0.0};
      EXPECT_TRUE(land_on(p, b, reverse, target))
          << (reverse ? "ur" : "uf") << " " << target;
      cases.push_back(b);
      double& v = reverse ? b.vd : b.vs;
      const double on = v;
      for (int step = 1; step <= 2; ++step) {
        v = on;
        for (int i = 0; i < step; ++i) v = std::nextafter(v, 1e300);
        cases.push_back(b);
        v = on;
        for (int i = 0; i < step; ++i) v = std::nextafter(v, -1e300);
        cases.push_back(b);
      }
    }
  }
  for (const double vs :
       {2.0, 5.0, 19.0, 20.0, 30.0, 36.5, 37.6, 38.6, 38.9, 50.0, -50.0}) {
    cases.push_back({1.0, 1.2, vs, 0.0});
    cases.push_back({1.0, vs, 0.1, 0.0});
  }
  // A dense random sweep: x of both terms spread over the middle branch
  // and past both tails, where a reordered operation in either backend
  // would show in some last bit.
  Rng rng(4242);
  for (int i = 0; i < 4000; ++i) {
    cases.push_back({rng.uniform(-0.5, 2.3), rng.uniform(-0.5, 2.3),
                     rng.uniform(-0.5, 2.3), rng.uniform(-0.5, 0.5)});
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    cases.push_back({bad, 0.9, 0.0, 0.0});
    cases.push_back({1.0, bad, 0.0, 0.0});
    cases.push_back({1.0, 0.9, bad, 0.0});
    cases.push_back({1.0, 0.9, 0.0, bad});
  }
  return cases;
}

// Bit-identical, or NaN on both sides: a NaN's sign and payload depend on
// which operand of a commutative + or * the compiler put first when two
// NaNs meet, which neither IEEE-754 nor C++ fixes (every consumer tests
// std::isfinite).
::testing::AssertionResult same_result(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return ::testing::AssertionSuccess();
  return bits_equal(a, b);
}

TEST_F(BatchKernelT, EkvLaneKernelMatchesScalarModel) {
  std::vector<const kernels::Kernels*> backends = {&kernels::scalar()};
  if (kernels::vector_available()) backends.push_back(kernels::avx2_kernels());
  const tech::Technology& t = tech::tech018();
  MosParams level1 = t.nmos(1e-6, 0.18e-6);
  level1.model = MosModel::kLevel1;
  const MosParams devices[] = {t.nmos(2e-6, 0.5e-6), t.pmos(2e-6, 0.18e-6),
                               level1};
  std::size_t compared = 0;
  for (const MosParams& p : devices) {
    const MosConsts k = mos_consts(p);
    // PMOS sees the NMOS cases mirrored, so its n-core hits the same x.
    std::vector<Bias> cases = ekv_cases(devices[0]);
    if (p.type == MosType::kPmos) {
      for (Bias& b : cases) b = {-b.vg, -b.vd, -b.vs, -b.vb};
    }
    for (const kernels::Kernels* kb : backends) {
      for (std::size_t w = 1; w <= 17; ++w) {
        // Rotate the cases through every lane position of this width.
        for (std::size_t off = 0; off < cases.size(); off += w) {
          std::vector<double> v(9 * w);
          double* m = v.data();
          const kernels::MosLanes io = {m,         m + w,     m + 2 * w,
                                        m + 3 * w, m + 4 * w, m + 5 * w,
                                        m + 6 * w, m + 7 * w, m + 8 * w};
          for (std::size_t l = 0; l < w; ++l) {
            const Bias& b = cases[(off + l) % cases.size()];
            m[l] = b.vg;
            m[w + l] = b.vd;
            m[2 * w + l] = b.vs;
            m[3 * w + l] = b.vb;
          }
          kb->ekv(p, k, io, w);
          for (std::size_t l = 0; l < w; ++l) {
            const Bias& b = cases[(off + l) % cases.size()];
            const MosEval want = mos_eval(p, b.vg, b.vd, b.vs, b.vb);
            const double got[5] = {io.ids[l], io.d_vg[l], io.d_vd[l],
                                   io.d_vs[l], io.d_vb[l]};
            const double ref[5] = {want.ids, want.d_vg, want.d_vd, want.d_vs,
                                   want.d_vb};
            for (int f = 0; f < 5; ++f) {
              EXPECT_TRUE(same_result(got[f], ref[f]))
                  << kb->name << " width " << w << " lane " << l << " field "
                  << f << " bias (" << b.vg << ", " << b.vd << ", " << b.vs
                  << ", " << b.vb << ") type " << static_cast<int>(p.type)
                  << " model " << static_cast<int>(p.model);
            }
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 0u);

  // A dense sweep of the gate voltage, x of both terms across [-42, 42]
  // in 2^17 steps, where an operation the vector backend reorders would
  // flip some last bit: dispatched against scalar kernel, width 16.
  const MosParams& p = devices[0];
  const MosConsts k = mos_consts(p);
  constexpr std::size_t kW = 16, kSteps = std::size_t{1} << 17;
  const double span = 2.0 * 42.0 * p.n_slope * k.vt;
  std::vector<double> vec(9 * kW), ref(9 * kW);
  auto lanes_of = [](std::vector<double>& v) {
    double* m = v.data();
    return kernels::MosLanes{m,          m + kW,     m + 2 * kW,
                             m + 3 * kW, m + 4 * kW, m + 5 * kW,
                             m + 6 * kW, m + 7 * kW, m + 8 * kW};
  };
  const kernels::MosLanes vio = lanes_of(vec), rio = lanes_of(ref);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < kSteps; i += kW) {
    for (std::size_t l = 0; l < kW; ++l) {
      const double vg =
          p.vth0 - span + 2.0 * span * static_cast<double>(i + l) / kSteps;
      for (std::vector<double>* v : {&vec, &ref}) {
        (*v)[l] = vg;
        (*v)[kW + l] = 0.3;
        (*v)[2 * kW + l] = 0.0;
        (*v)[3 * kW + l] = 0.0;
      }
    }
    kernels::active().ekv(p, k, vio, kW);
    kernels::scalar().ekv(p, k, rio, kW);
    for (std::size_t e = 4 * kW; e < 9 * kW; ++e) {
      differing += same_result(vec[e], ref[e]) ? 0 : 1;
    }
  }
  EXPECT_EQ(differing, 0u);
}

// Random lane data with the values a lockstep column can hold past a
// divergence sprinkled in: NaN, +-inf, -0.0.
std::vector<double> lane_data(std::size_t count, Rng& rng) {
  std::vector<double> v(count);
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(), -0.0};
  for (double& x : v) {
    x = rng.bernoulli(0.03) ? specials[rng.uniform_index(4)]
                            : rng.uniform(-2.0, 2.0);
  }
  return v;
}

void expect_same(const std::vector<double>& got,
                 const std::vector<double>& want, const char* what,
                 std::size_t width) {
  std::size_t differing = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    differing += same_result(got[i], want[i]) ? 0 : 1;
  }
  EXPECT_EQ(differing, 0u) << what << " at width " << width;
}

// The batch engine's plan for one MOSFET (batch.cpp's join): the matrix
// adds of Mosfet::stamp_eval_into in its order, slots numbered as the adds
// come, right-hand-side rows = unknown indices.
kernels::MosStampPlan plan_of(NodeId d, NodeId g, NodeId s, NodeId b) {
  kernels::MosStampPlan plan;
  const NodeId cols[4] = {g, d, s, b};
  for (std::uint8_t j = 0; j < 4; ++j) {
    if (cols[j] == kGround) continue;
    for (const bool drain_row : {true, false}) {
      if ((drain_row ? d : s) == kGround) continue;
      plan.slot[plan.n_adds] = plan.n_adds;
      plan.deriv[plan.n_adds] = j;
      plan.negate[plan.n_adds] = !drain_row;
      ++plan.n_adds;
    }
  }
  const auto row = [](NodeId n) -> std::int64_t {
    return n == kGround ? -1 : static_cast<std::int64_t>(unknown_of(n));
  };
  plan.rhs_d = row(d);
  plan.rhs_s = row(s);
  return plan;
}

TEST_F(BatchKernelT, LaneMajorAssemblyKernelsMatchScalarPath) {
  // mos_stamp, companion_rhs and companion_latch on every backend, at
  // widths 1-17 (vector remainders and masks), against the scalar path's
  // own per-lane code: Mosfet::stamp_eval_into through a SlotCursor, and
  // CapCompanion's stamp_state / latch / latch_open.
  std::vector<const kernels::Kernels*> backends = {&kernels::scalar()};
  if (kernels::vector_available()) backends.push_back(kernels::avx2_kernels());
  const MosParams mp = tech::tech018().nmos(1e-6, 0.18e-6);
  Rng rng(1717);
  constexpr std::size_t kRows = 4;  // unknowns: nodes 1..4
  for (std::size_t w = 1; w <= 17; ++w) {
    // --- MOSFET channel companion, terminals on and off ground.
    const NodeId terms[][4] = {
        {1, 2, 3, 4}, {1, 2, kGround, kGround}, {kGround, 2, 3, 1},
        {2, 2, 1, 3}, {1, kGround, 2, kGround}};
    for (const auto& t : terms) {
      const Mosfet m("M", t[0], t[1], t[2], t[3], mp);
      const kernels::MosStampPlan plan = plan_of(t[0], t[1], t[2], t[3]);
      // Iterate rows, row 0 the zero row for ground (node id = row).
      std::vector<double> xs = lane_data((kRows + 1) * w, rng);
      std::fill_n(xs.begin(), w, 0.0);
      std::vector<double> out = lane_data(5 * w, rng);  // ekv's outputs
      const std::vector<double> a0 = lane_data(8 * w, rng);
      const std::vector<double> b0 = lane_data(kRows * w, rng);
      const auto row = [&](NodeId n) {
        return xs.data() + static_cast<std::size_t>(n) * w;
      };
      const kernels::MosLanes io = {
          row(m.gate()),   row(m.drain()),     row(m.source()),
          row(m.bulk()),   out.data(),         out.data() + w,
          out.data() + 2 * w, out.data() + 3 * w, out.data() + 4 * w};
      // The oracle: the scalar stamp body, one lane at a time.
      std::vector<double> a_ref = a0, b_ref = b0;
      std::uint32_t slots_w[8];
      for (std::uint32_t j = 0; j < 8; ++j) {
        slots_w[j] = static_cast<std::uint32_t>(j * w);
      }
      for (std::size_t k = 0; k < w; ++k) {
        std::vector<double> b_lane(kRows);
        for (std::size_t r = 0; r < kRows; ++r) b_lane[r] = b_ref[r * w + k];
        SlotCursor cur{slots_w, a_ref.data() + k};
        const MosEval e{io.ids[k], io.d_vg[k], io.d_vd[k], io.d_vs[k],
                        io.d_vb[k]};
        m.stamp_eval_into(e, io.vg[k], io.vd[k], io.vs[k], io.vb[k], cur,
                          b_lane);
        for (std::size_t r = 0; r < kRows; ++r) b_ref[r * w + k] = b_lane[r];
      }
      for (const kernels::Kernels* kk : backends) {
        SCOPED_TRACE(kk->name);
        std::vector<double> a = a0, b = b0;
        kk->mos_stamp(plan, io, a.data(), b.data(), w);
        expect_same(a, a_ref, "mos_stamp matrix", w);
        expect_same(b, b_ref, "mos_stamp rhs", w);
      }
    }

    // --- Capacitor companions: grounded either side, one open (c == 0),
    // under both integrators.
    const std::vector<kernels::CompanionRows> comps = {
        {1, 2, 0, 1, false}, {3, 0, 2, -1, false}, {0, 4, -1, 3, false},
        {2, 1, 1, 0, true},  {4, 3, 3, 2, false}};
    const std::size_t nk = comps.size();
    std::vector<double> xs = lane_data((kRows + 1) * w, rng);
    std::fill_n(xs.begin(), w, 0.0);
    const std::vector<double> g = lane_data(nk * w, rng);
    const std::vector<double> v0 = lane_data(nk * w, rng);
    const std::vector<double> i0 = lane_data(nk * w, rng);
    const std::vector<double> b0 = lane_data(kRows * w, rng);
    for (const bool trap : {false, true}) {
      const Integrator method =
          trap ? Integrator::kTrapezoidal : Integrator::kBackwardEuler;
      std::vector<double> b_ref = b0, v_ref = v0, i_ref = i0;
      for (std::size_t k = 0; k < w; ++k) {
        std::vector<double> b_lane(kRows);
        for (std::size_t r = 0; r < kRows; ++r) b_lane[r] = b_ref[r * w + k];
        for (std::size_t c = 0; c < nk; ++c) {
          const kernels::CompanionRows& cr = comps[c];
          const double v_new = xs[cr.xa * w + k] - xs[cr.xb * w + k];
          double& vk = v_ref[c * w + k];
          double& ik = i_ref[c * w + k];
          if (!cr.open) {
            DiscardMatrix none;
            CapCompanion::stamp_state(g[c * w + k], v0[c * w + k],
                                      i0[c * w + k], method,
                                      static_cast<NodeId>(cr.xa),
                                      static_cast<NodeId>(cr.xb), none,
                                      b_lane);
            CapCompanion::latch(g[c * w + k], method, v_new, vk, ik);
          } else {
            CapCompanion::latch_open(v_new, vk, ik);
          }
        }
        for (std::size_t r = 0; r < kRows; ++r) b_ref[r * w + k] = b_lane[r];
      }
      for (const kernels::Kernels* kk : backends) {
        SCOPED_TRACE(kk->name);
        std::vector<double> b = b0, v = v0, i = i0;
        kk->companion_rhs(comps.data(), nk, g.data(), v.data(), i.data(),
                          trap, b.data(), w);
        expect_same(b, b_ref, "companion_rhs", w);
        kk->companion_latch(comps.data(), nk, g.data(), v.data(), i.data(),
                            trap, xs.data(), w);
        expect_same(v, v_ref, "companion_latch v", w);
        expect_same(i, i_ref, "companion_latch i", w);
      }
    }
  }
}

TEST_F(BatchKernelT, NewtonUpdateKernelMatchesNewtonSolveImpl) {
  // newton_update on every backend, at widths 1-17, against the literal
  // update loop of newton_solve_impl run on each lane's own vectors: NaN
  // and infinite solutions, damped and undamped lanes, lanes that take no
  // update.
  std::vector<const kernels::Kernels*> backends = {&kernels::scalar()};
  if (kernels::vector_available()) backends.push_back(kernels::avx2_kernels());
  Rng rng(2323);
  constexpr std::size_t kN = 9, kNv = 6;
  constexpr double kMaxDeltaV = 0.5;
  const std::uint32_t rows[kN] = {4, 0, 7, 2, 8, 1, 5, 3, 6};
  for (std::size_t w = 1; w <= 17; ++w) {
    const std::vector<double> x0 = lane_data(kN * w, rng);
    std::vector<double> xn = lane_data(kN * w, rng);
    // Some lanes move by less than the damping limit.
    for (std::size_t k = 0; k < w; k += 3) {
      for (std::size_t r = 0; r < kN; ++r) {
        xn[rows[r] * w + k] = x0[r * w + k] + rng.uniform(-0.1, 0.1);
      }
    }
    std::vector<std::uint8_t> step(w);
    for (std::size_t k = 0; k < w; ++k) step[k] = rng.bernoulli(0.8) ? 1 : 0;

    std::vector<double> x_ref = x0, dv_ref(w), mx_ref(w), sc_ref(w);
    for (std::size_t k = 0; k < w; ++k) {
      std::vector<double> x(kN), x_new(kN);
      for (std::size_t r = 0; r < kN; ++r) {
        x[r] = x0[r * w + k];
        x_new[r] = xn[rows[r] * w + k];
      }
      // newton.cpp, verbatim over one lane.
      double max_dv = 0.0;
      for (std::size_t i = 0; i < kNv; ++i) {
        const double dv = std::abs(x_new[i] - x[i]);
        if (dv > max_dv) max_dv = dv;
      }
      double scale = 1.0;
      if (max_dv > kMaxDeltaV) scale = kMaxDeltaV / max_dv;
      double max_x = 0.0;
      for (std::size_t i = 0; i < kNv; ++i) {
        max_x = std::max(max_x, std::abs(x[i]));
      }
      for (std::size_t i = 0; i < kN; ++i) x[i] += scale * (x_new[i] - x[i]);
      dv_ref[k] = max_dv;
      mx_ref[k] = max_x;
      sc_ref[k] = scale;
      if (step[k] == 0) continue;
      for (std::size_t r = 0; r < kN; ++r) x_ref[r * w + k] = x[r];
    }
    for (const kernels::Kernels* kk : backends) {
      SCOPED_TRACE(kk->name);
      std::vector<double> x = x0, dv(w), mx(w), sc(w);
      kk->newton_update({.x = x.data(),
                         .x_new = xn.data(),
                         .x_new_row = rows,
                         .nv = kNv,
                         .n = kN,
                         .step = step.data(),
                         .max_delta_v = kMaxDeltaV,
                         .max_dv = dv.data(),
                         .max_x = mx.data(),
                         .scale = sc.data()},
                        w);
      expect_same(x, x_ref, "x", w);
      expect_same(dv, dv_ref, "max_dv", w);
      expect_same(mx, mx_ref, "max_x", w);
      expect_same(sc, sc_ref, "scale", w);
    }
  }
}

TEST_F(BatchKernelT, IsaReportAndPreferredWidthAreSane) {
  EXPECT_NE(kernels::isa_summary(), nullptr);
  EXPECT_GE(kernels::preferred_width(), 4u);
  if (kernels::vector_available()) {
    EXPECT_NE(kernels::active().name, nullptr);
  }
}

}  // namespace
}  // namespace ecms::circuit
