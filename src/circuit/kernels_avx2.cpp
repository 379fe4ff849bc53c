// AVX2 backend of the batched SoA kernels. This translation unit is the
// only one compiled with -mavx2 (see src/circuit/CMakeLists.txt); nothing
// here runs unless the dispatcher checked __builtin_cpu_supports("avx2").
//
// Bit-identity: values use only lanewise vaddpd/vsubpd/vmulpd/vdivpd — each
// IEEE-754 correctly rounded, so every lane computes exactly what the scalar
// backend computes. No FMA (vfmadd would contract mul+sub into one
// rounding). pivot_health's vmaxpd takes |v| as its first operand so a NaN
// entry yields the running max, as std::max(rmax, |v|) does (kernels.hpp).
#include "circuit/kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace ecms::circuit::kernels {

namespace {

void refactor_avx2(const LuSymbolic& sy, const double* a, double* l,
                   double* u, double* work, std::size_t w) {
  const std::size_t n = sy.n;
  const std::size_t wv = w & ~std::size_t{3};
  for (std::size_t i = 0; i < n; ++i) {
    const __m256d zero = _mm256_setzero_pd();
    for (std::uint32_t s = sy.l_ptr[i]; s < sy.l_ptr[i + 1]; ++s) {
      double* row = work + static_cast<std::size_t>(sy.l_cols[s]) * w;
      for (std::size_t k = 0; k < wv; k += 4) _mm256_storeu_pd(row + k, zero);
      for (std::size_t k = wv; k < w; ++k) row[k] = 0.0;
    }
    for (std::uint32_t s = sy.u_ptr[i]; s < sy.u_ptr[i + 1]; ++s) {
      double* row = work + static_cast<std::size_t>(sy.u_cols[s]) * w;
      for (std::size_t k = 0; k < wv; k += 4) _mm256_storeu_pd(row + k, zero);
      for (std::size_t k = wv; k < w; ++k) row[k] = 0.0;
    }
    for (std::uint32_t s = sy.a_ptr[i]; s < sy.a_ptr[i + 1]; ++s) {
      double* row = work + static_cast<std::size_t>(sy.a_pcol[s]) * w;
      const double* av = a + static_cast<std::size_t>(sy.a_slot[s]) * w;
      for (std::size_t k = 0; k < wv; k += 4) {
        _mm256_storeu_pd(row + k, _mm256_add_pd(_mm256_loadu_pd(row + k),
                                                _mm256_loadu_pd(av + k)));
      }
      for (std::size_t k = wv; k < w; ++k) row[k] += av[k];
    }
    for (std::uint32_t s = sy.l_ptr[i]; s < sy.l_ptr[i + 1]; ++s) {
      const std::uint32_t j = sy.l_cols[s];
      const double* wj = work + static_cast<std::size_t>(j) * w;
      const double* upiv = u + static_cast<std::size_t>(sy.u_ptr[j]) * w;
      double* ls = l + static_cast<std::size_t>(s) * w;
      for (std::size_t k = 0; k < wv; k += 4) {
        _mm256_storeu_pd(ls + k, _mm256_div_pd(_mm256_loadu_pd(wj + k),
                                               _mm256_loadu_pd(upiv + k)));
      }
      for (std::size_t k = wv; k < w; ++k) ls[k] = wj[k] / upiv[k];
      for (std::uint32_t t = sy.u_ptr[j] + 1; t < sy.u_ptr[j + 1]; ++t) {
        double* row = work + static_cast<std::size_t>(sy.u_cols[t]) * w;
        const double* ut = u + static_cast<std::size_t>(t) * w;
        for (std::size_t k = 0; k < wv; k += 4) {
          _mm256_storeu_pd(
              row + k,
              _mm256_sub_pd(_mm256_loadu_pd(row + k),
                            _mm256_mul_pd(_mm256_loadu_pd(ls + k),
                                          _mm256_loadu_pd(ut + k))));
        }
        for (std::size_t k = wv; k < w; ++k) row[k] -= ls[k] * ut[k];
      }
    }
    for (std::uint32_t s = sy.u_ptr[i]; s < sy.u_ptr[i + 1]; ++s) {
      const double* row = work + static_cast<std::size_t>(sy.u_cols[s]) * w;
      double* us = u + static_cast<std::size_t>(s) * w;
      for (std::size_t k = 0; k < wv; k += 4)
        _mm256_storeu_pd(us + k, _mm256_loadu_pd(row + k));
      for (std::size_t k = wv; k < w; ++k) us[k] = row[k];
    }
  }
}

void solve_avx2(const LuSymbolic& sy, const double* l, const double* u,
                double* pb, std::size_t w) {
  const std::size_t n = sy.n;
  const std::size_t wv = w & ~std::size_t{3};
  for (std::size_t i = 0; i < n; ++i) {
    double* acc = pb + i * w;
    for (std::uint32_t s = sy.l_ptr[i]; s < sy.l_ptr[i + 1]; ++s) {
      const double* ls = l + static_cast<std::size_t>(s) * w;
      const double* pj = pb + static_cast<std::size_t>(sy.l_cols[s]) * w;
      for (std::size_t k = 0; k < wv; k += 4) {
        _mm256_storeu_pd(
            acc + k,
            _mm256_sub_pd(_mm256_loadu_pd(acc + k),
                          _mm256_mul_pd(_mm256_loadu_pd(ls + k),
                                        _mm256_loadu_pd(pj + k))));
      }
      for (std::size_t k = wv; k < w; ++k) acc[k] -= ls[k] * pj[k];
    }
  }
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double* acc = pb + i * w;
    for (std::uint32_t s = sy.u_ptr[i] + 1; s < sy.u_ptr[i + 1]; ++s) {
      const double* us = u + static_cast<std::size_t>(s) * w;
      const double* pj = pb + static_cast<std::size_t>(sy.u_cols[s]) * w;
      for (std::size_t k = 0; k < wv; k += 4) {
        _mm256_storeu_pd(
            acc + k,
            _mm256_sub_pd(_mm256_loadu_pd(acc + k),
                          _mm256_mul_pd(_mm256_loadu_pd(us + k),
                                        _mm256_loadu_pd(pj + k))));
      }
      for (std::size_t k = wv; k < w; ++k) acc[k] -= us[k] * pj[k];
    }
    const double* upiv = u + static_cast<std::size_t>(sy.u_ptr[i]) * w;
    for (std::size_t k = 0; k < wv; k += 4) {
      _mm256_storeu_pd(acc + k, _mm256_div_pd(_mm256_loadu_pd(acc + k),
                                              _mm256_loadu_pd(upiv + k)));
    }
    for (std::size_t k = wv; k < w; ++k) acc[k] /= upiv[k];
  }
}

void pivot_health_avx2(const LuSymbolic& sy, const double* u, std::size_t w,
                       std::uint8_t* flags) {
  const std::size_t wv = w & ~std::size_t{3};
  // |x| clears the sign bit, as std::abs does (NaN stays NaN).
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256d zero = _mm256_setzero_pd();
  const __m256d inf = _mm256_set1_pd(__builtin_inf());
  const __m256d thr = _mm256_set1_pd(kRepivotThreshold);
  for (std::size_t k = 0; k < w; ++k) flags[k] = 0;
  for (std::size_t i = 0; i < sy.n; ++i) {
    const double* piv = u + static_cast<std::size_t>(sy.u_ptr[i]) * w;
    for (std::size_t k = 0; k < wv; k += 4) {
      __m256d rmax = zero;
      for (std::uint32_t s = sy.u_ptr[i]; s < sy.u_ptr[i + 1]; ++s) {
        const __m256d v = _mm256_and_pd(
            _mm256_loadu_pd(u + static_cast<std::size_t>(s) * w + k),
            abs_mask);
        rmax = _mm256_max_pd(v, rmax);  // NaN v -> rmax
      }
      const __m256d mag = _mm256_and_pd(_mm256_loadu_pd(piv + k), abs_mask);
      // !isfinite(piv): !(|piv| < inf), true for NaN (unordered).
      __m256d bad = _mm256_cmp_pd(mag, inf, _CMP_NLT_UQ);
      bad = _mm256_or_pd(bad, _mm256_cmp_pd(mag, zero, _CMP_EQ_OQ));
      bad = _mm256_or_pd(
          bad, _mm256_cmp_pd(mag, _mm256_mul_pd(thr, rmax), _CMP_LT_OQ));
      const int mask = _mm256_movemask_pd(bad);
      for (std::size_t j = 0; j < 4; ++j) {
        flags[k + j] |= static_cast<std::uint8_t>((mask >> j) & 1);
      }
    }
    for (std::size_t k = wv; k < w; ++k) {  // tail lanes, scalar
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

void copy_avx2(double* dst, const double* src, std::size_t count) {
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4)
    _mm256_storeu_pd(dst + k, _mm256_loadu_pd(src + k));
  for (; k < count; ++k) dst[k] = src[k];
}

void diag_add_avx2(double* values, const std::uint32_t* slots,
                   std::size_t n_slots, double g, std::size_t w) {
  const std::size_t wv = w & ~std::size_t{3};
  const __m256d gv = _mm256_set1_pd(g);
  for (std::size_t i = 0; i < n_slots; ++i) {
    double* row = values + static_cast<std::size_t>(slots[i]) * w;
    for (std::size_t k = 0; k < wv; k += 4)
      _mm256_storeu_pd(row + k, _mm256_add_pd(_mm256_loadu_pd(row + k), gv));
    for (std::size_t k = wv; k < w; ++k) row[k] += g;
  }
}

constexpr Kernels kAvx2 = {"avx2", refactor_avx2, solve_avx2,
                           pivot_health_avx2, copy_avx2, diag_add_avx2};

}  // namespace

const Kernels* avx2_kernels() { return &kAvx2; }

}  // namespace ecms::circuit::kernels

#else  // !x86-64

namespace ecms::circuit::kernels {
const Kernels* avx2_kernels() { return nullptr; }
}  // namespace ecms::circuit::kernels

#endif
