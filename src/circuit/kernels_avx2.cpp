// AVX2 backend of the batched SoA kernels. This translation unit is the
// only one compiled with -mavx2 (see src/circuit/CMakeLists.txt); nothing
// here runs unless the dispatcher checked __builtin_cpu_supports("avx2").
//
// Bit-identity: values use only lanewise vaddpd/vsubpd/vmulpd/vdivpd — each
// IEEE-754 correctly rounded, so every lane computes exactly what the scalar
// backend computes — plus exact sign-bit operations (negation, |x|), lane
// blends that select between results computed in full, and, in the EKV
// kernel, exact integer operations on the representation. No FMA (vfmadd
// would contract mul+sub into one rounding). pivot_health's and
// newton_update's vmaxpd take the new value as their first operand so a
// NaN one yields the running max, as the scalar maxima do (kernels.hpp).
// The kernels that carry a running maximum work on blocks of up to four
// groups of four lanes at once, so those dependency chains overlap.
//
// Nothing here calls an inline function shared with other translation units
// (such as detmath.hpp's det_exp): a copy built with -mavx2 could be the one
// the linker keeps. The EKV helpers re-spell those functions from their
// constants instead.
#include "circuit/kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <bit>
#include <iterator>

#include "circuit/detmath.hpp"

namespace ecms::circuit::kernels {

namespace {

// The EKV kernel's arithmetic: N vectors of four lanes as one value, so
// the expressions below read as their scalar originals (same operators,
// same association) while every statement advances N independent
// dependency chains; the evaluation is latency-bound, and the two chains
// of a MOSFET's forward and reverse EKV terms overlap. Every operation is
// lanewise: + - * / are vaddpd/vsubpd/vmulpd/vdivpd, a double operand is
// broadcast.
template <int N>
struct V {
  __m256d v[N];
};
template <int N>
struct VI {  // 64-bit integer lanes
  __m256i v[N];
};

// Intrinsics as functors: passed as plain function pointers they would be
// called out of line.
#define ECMS_OP(intrinsic) [](auto a, auto b) { return intrinsic(a, b); }
#define ECMS_OP1(intrinsic) [](auto a) { return intrinsic(a); }

template <class L, class Op>
[[gnu::always_inline]] inline L lanewise(L a, L b, Op op) {
  L r;
  for (std::size_t j = 0; j < std::size(r.v); ++j) r.v[j] = op(a.v[j], b.v[j]);
  return r;
}
template <class R, class L, class Op>
[[gnu::always_inline]] inline R map(L a, Op op) {
  R r;
  for (std::size_t j = 0; j < std::size(r.v); ++j) r.v[j] = op(a.v[j]);
  return r;
}
template <int N>
[[gnu::always_inline]] inline V<N> splat(double d) {
  return map<V<N>>(V<N>{}, [d](__m256d) { return _mm256_set1_pd(d); });
}
template <int N>
[[gnu::always_inline]] inline VI<N> splat_i(long long v) {
  return map<VI<N>>(VI<N>{}, [v](__m256i) { return _mm256_set1_epi64x(v); });
}
template <int N>
[[gnu::always_inline]] inline VI<N> bits_of(V<N> a) {
  return map<VI<N>>(a, ECMS_OP1(_mm256_castpd_si256));
}
template <int N>
[[gnu::always_inline]] inline V<N> from_bits(VI<N> a) {
  return map<V<N>>(a, ECMS_OP1(_mm256_castsi256_pd));
}
#define ECMS_OPERATOR(op, intrinsic)                                    \
  template <int N>                                                      \
  [[gnu::always_inline]] inline V<N> operator op(V<N> a, V<N> b) {      \
    return lanewise(a, b, ECMS_OP(intrinsic));                          \
  }                                                                     \
  template <int N>                                                      \
  [[gnu::always_inline]] inline V<N> operator op(V<N> a, double b) {    \
    return a op splat<N>(b);                                            \
  }                                                                     \
  template <int N>                                                      \
  [[gnu::always_inline]] inline V<N> operator op(double a, V<N> b) {    \
    return splat<N>(a) op b;                                            \
  }
ECMS_OPERATOR(+, _mm256_add_pd)
ECMS_OPERATOR(-, _mm256_sub_pd)
ECMS_OPERATOR(*, _mm256_mul_pd)
ECMS_OPERATOR(/, _mm256_div_pd)
#undef ECMS_OPERATOR
// Exact negation (the sign bit flipped), as unary minus is in scalar code.
template <int N>
[[gnu::always_inline]] inline V<N> operator-(V<N> a) {
  return lanewise(a, splat<N>(-0.0), ECMS_OP(_mm256_xor_pd));
}
// Lane mask of `a CMP b` (all ones where true); ordered predicates are
// false for NaN lanes, as the scalar <, > and == are.
template <int CMP, int N>
[[gnu::always_inline]] inline V<N> cmp(V<N> a, double b) {
  return lanewise(a, splat<N>(b), [](__m256d x, __m256d y) {
    return _mm256_cmp_pd(x, y, CMP);
  });
}
// where ? b : a, per lane.
template <int N>
[[gnu::always_inline]] inline V<N> select(V<N> a, V<N> b, V<N> where) {
  V<N> r;
  for (int j = 0; j < N; ++j) {
    r.v[j] = _mm256_blendv_pd(a.v[j], b.v[j], where.v[j]);
  }
  return r;
}

// 64-bit integer lanes: + - & | wrap as the scalar std::uint64_t ones do
// (a long long operand is broadcast), shifts are logical.
#define ECMS_INT_OPERATOR(op, intrinsic)                                  \
  template <int N>                                                        \
  [[gnu::always_inline]] inline VI<N> operator op(VI<N> a, VI<N> b) {     \
    return lanewise(a, b, ECMS_OP(intrinsic));                            \
  }                                                                       \
  template <int N>                                                        \
  [[gnu::always_inline]] inline VI<N> operator op(VI<N> a, long long b) { \
    return a op splat_i<N>(b);                                            \
  }
ECMS_INT_OPERATOR(+, _mm256_add_epi64)
ECMS_INT_OPERATOR(-, _mm256_sub_epi64)
ECMS_INT_OPERATOR(&, _mm256_and_si256)
ECMS_INT_OPERATOR(|, _mm256_or_si256)
#undef ECMS_INT_OPERATOR
template <int S, int N>
[[gnu::always_inline]] inline VI<N> shl(VI<N> a) {
  return map<VI<N>>(a, [](__m256i x) { return _mm256_slli_epi64(x, S); });
}
template <int S, int N>
[[gnu::always_inline]] inline VI<N> shr(VI<N> a) {
  return map<VI<N>>(a, [](__m256i x) { return _mm256_srli_epi64(x, S); });
}
// All ones where a > b (signed).
template <int N>
[[gnu::always_inline]] inline VI<N> greater(VI<N> a, long long b) {
  return lanewise(a, splat_i<N>(b), ECMS_OP(_mm256_cmpgt_epi64));
}
template <int N>
[[gnu::always_inline]] inline V<N> gather(const double* table, VI<N> index) {
  return map<V<N>>(index, [table](__m256i i) {
    return _mm256_i64gather_pd(table, i, 8);
  });
}

// detmath::det_exp: the scalar branches (one scale or two, NaN,
// overflow, underflow) become blends over values computed in full; table
// indices are masked into range for every lane, whatever its x.
template <int N>
[[gnu::always_inline]] inline V<N> det_exp(V<N> x) {
  using namespace detmath;
  const V<N> t = x * kInvLn2N + kShifter;
  const VI<N> k = bits_of(t) - std::bit_cast<long long>(kShifter);
  const V<N> kd = t - kShifter;
  const V<N> r = (x - kd * kLn2HiN) - kd * kLn2LoN;
  const V<N> r2 = r * r;
  const VI<N> j = k & static_cast<long long>(kExpTableSize - 1);
  const V<N> tmp = gather(kExpTable.tail.data(), j) + r +
                   r2 * (kExpC2 + r * kExpC3) +
                   r2 * r2 * (kExpC4 + r * kExpC5);
  // top = floor(k / N) and half = floor(top / 2) by logical shifts of
  // k + 2^30 (AVX2 has no 64-bit arithmetic shift; |k| < 2^18).
  constexpr long long kBias = 1LL << 30;
  const VI<N> biased = shr<kExpTableBits>(k + kBias);
  const VI<N> top = biased - (kBias >> kExpTableBits);
  const VI<N> half = shr<1>(biased) - (kBias >> (kExpTableBits + 1));
  const VI<N> hi_bits = bits_of(gather(kExpTable.hi.data(), j));
  const V<N> one = from_bits(hi_bits + shl<52>(top));
  const V<N> two = from_bits(hi_bits + shl<52>(top - half));
  const V<N> in_one = lanewise(cmp<_CMP_LT_OQ>(x, kExpOneScaleBelow),
                               cmp<_CMP_GT_OQ>(x, -kExpOneScaleBelow),
                               ECMS_OP(_mm256_and_pd));
  V<N> res = select((two + two * tmp) * from_bits(shl<52>(half + 1023)),
                    one + one * tmp, in_one);
  res = select(res, splat<N>(0.0), cmp<_CMP_LT_OQ>(x, kExpUnderflow));
  res = select(res, splat<N>(__builtin_inf()),
               cmp<_CMP_GT_OQ>(x, kExpOverflow));
  return select(res, x, cmp<_CMP_UNORD_Q>(x, 0.0));
}

// detmath::det_log1p; the pass-through of +-0, +inf and NaN is a final
// blend.
template <int N>
[[gnu::always_inline]] inline V<N> det_log1p(V<N> x) {
  using namespace detmath;
  const V<N> u = 1.0 + x;
  const VI<N> e = shr<52>(bits_of(u)) - 1023;
  const V<N> c =
      select(x - (u - 1.0), 1.0 - (u - x), from_bits(greater(e, 0))) / u;
  const VI<N> m = bits_of(u) & static_cast<long long>(kMantissaMask);
  const VI<N> upper = greater(m, static_cast<long long>(kSqrt2Mantissa - 1));
  // kOneBits, or kHalfBits = kOneBits - 2^52 where upper (mask -1).
  const V<N> f = from_bits(m | (shl<52>(upper) +
                                static_cast<long long>(kOneBits))) -
                 1.0;
  // k = e + 1 where upper, converted exactly through the shifter: the
  // bits of kShifter + k as a double, minus kShifter.
  const V<N> kd =
      from_bits((e - upper) + std::bit_cast<long long>(kShifter)) - kShifter;
  const V<N> hfsq = 0.5 * f * f;
  const V<N> s = f / (2.0 + f);
  const V<N> z = s * s;
  const V<N> z2 = z * z;
  const V<N> p = ((kLp1 + z * kLp2) + z2 * (kLp3 + z * kLp4)) +
                 z2 * z2 * ((kLp5 + z * kLp6) + z2 * kLp7);
  const V<N> sr = s * hfsq + (s * z) * p;
  const V<N> res = kd * kLn2Hi - (((hfsq - (kd * kLn2Lo + c)) - sr) - f);
  const V<N> pass = lanewise(cmp<_CMP_NLT_UQ>(x, __builtin_inf()),
                             cmp<_CMP_EQ_OQ>(x, 0.0), ECMS_OP(_mm256_or_pd));
  return select(res, x, pass);
}

// mosfet.cpp's ekv_f: both tails become blends over the middle branch,
// which is computed for every lane.
template <int N>
[[gnu::always_inline]] inline void ekv_f(V<N> u, V<N>& f, V<N>& df) {
  const V<N> x = 0.5 * u;
  const V<N> e = det_exp(x);
  const V<N> l = det_log1p(e);
  const V<N> ee = e * e;
  const V<N> low = cmp<_CMP_LT_OQ>(x, -37.0);
  const V<N> high = cmp<_CMP_GT_OQ>(x, 37.0);
  f = select(select(l * l, ee, low), x * x, high);
  df = select(select(l * (e / (1.0 + e)), ee, low), x, high);
}

// mosfet.cpp's eval_ncore (EKV branch) for the `n` <= 4 lanes from lane i
// of `io`, inputs mirrored and the current negated for PMOS as
// mos_eval_with() does. A short group loads and stores through a lane mask
// (its missing lanes read as 0 V and are never written). Operands travel by
// pointer: a function that takes or returns a vector gets no vzeroupper
// from GCC, and a dirty upper YMM state left behind slows every later SSE
// instruction in the process (libm's exp by ~30x).
void ekv_lanes(const MosParams& p, const MosConsts& k, const MosLanes& io,
               std::size_t i, std::size_t n) {
  const __m256i mask = _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(n)),
      _mm256_setr_epi64x(0, 1, 2, 3));
  const bool pmos = p.type == MosType::kPmos;
  auto load = [&](const double* src) {
    const V<1> r = {n == 4 ? _mm256_loadu_pd(src + i)
                           : _mm256_maskload_pd(src + i, mask)};
    return pmos ? -r : r;
  };
  auto store = [&](double* dst, V<1> r) {
    if (n == 4) {
      _mm256_storeu_pd(dst + i, r.v[0]);
    } else {
      _mm256_maskstore_pd(dst + i, mask, r.v[0]);
    }
  };
  const V<1> vg = load(io.vg), vd = load(io.vd), vs = load(io.vs),
             vb = load(io.vb);
  const double vt = k.vt;
  const V<1> vp = (vg - vb - p.vth0) / p.n_slope;
  // uf and ur ride through ekv_f together: two independent chains.
  const V<1> uf = (vp - (vs - vb)) / vt;
  const V<1> ur = (vp - (vd - vb)) / vt;
  V<2> f, df;
  ekv_f(V<2>{{uf.v[0], ur.v[0]}}, f, df);
  const V<1> ff = {f.v[0]}, fr = {f.v[1]}, dff = {df.v[0]}, dfr = {df.v[1]};
  const V<1> vds = vd - vs;
  const V<1> clm = 1.0 + p.lambda * vds;
  const V<1> ids0 = k.is * (ff - fr);
  const V<1> ids = ids0 * clm;
  const V<1> a = k.is * clm;
  store(io.ids, pmos ? -ids : ids);
  store(io.d_vg, a * (dff - dfr) / k.n_vt);
  store(io.d_vd, a * dfr / vt + ids0 * p.lambda);
  store(io.d_vs, -a * dff / vt - ids0 * p.lambda);
  store(io.d_vb, a * (dff - dfr) * k.n_m1 / k.n_vt);
}

#undef ECMS_OP
#undef ECMS_OP1

void ekv_avx2(const MosParams& p, const MosConsts& k, const MosLanes& io,
              std::size_t w) {
  if (p.model != MosModel::kEkv) {
    scalar().ekv(p, k, io, w);
    return;
  }
  for (std::size_t i = 0; i < w; i += 4) {
    ekv_lanes(p, k, io, i, w - i < 4 ? w - i : 4);
  }
}

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

// Lane masks and loads for a block of G groups of four lanes from lane k0
// of which the first n are valid: a short block loads through lane masks
// (its missing lanes read as 0.0) and stores only its valid lanes.
template <int G>
struct Block {
  __m256i mask[G];
  bool full;
  std::size_t k0;
  Block(std::size_t k0_, std::size_t n)
      : full(n == 4 * static_cast<std::size_t>(G)), k0(k0_) {
    for (int g = 0; g < G; ++g) {
      mask[g] = _mm256_cmpgt_epi64(
          _mm256_set1_epi64x(static_cast<long long>(n) - 4 * g),
          _mm256_setr_epi64x(0, 1, 2, 3));
    }
  }
  [[gnu::always_inline]] __m256d load(const double* row, int g) const {
    const double* at = row + k0 + 4 * g;
    return full ? _mm256_loadu_pd(at) : _mm256_maskload_pd(at, mask[g]);
  }
  [[gnu::always_inline]] void store(double* row, int g, __m256d v) const {
    double* at = row + k0 + 4 * g;
    if (full) {
      _mm256_storeu_pd(at, v);
    } else {
      _mm256_maskstore_pd(at, mask[g], v);
    }
  }
};

// Calls fn.template operator()<G>(k0, n) over blocks of up to 16 lanes, G
// groups of four each: the per-row work of the G groups is independent, so
// their dependency chains (a running maximum) overlap.
template <class Fn>
[[gnu::always_inline]] inline void for_blocks(std::size_t w, Fn&& fn) {
  for (std::size_t k0 = 0; k0 < w; k0 += 16) {
    const std::size_t n = w - k0 < 16 ? w - k0 : 16;
    switch ((n + 3) / 4) {
      case 1: fn.template operator()<1>(k0, n); break;
      case 2: fn.template operator()<2>(k0, n); break;
      case 3: fn.template operator()<3>(k0, n); break;
      default: fn.template operator()<4>(k0, n); break;
    }
  }
}

// |x| clears the sign bit, as std::abs does (NaN stays NaN).
[[gnu::always_inline]] inline __m256d abs_pd(__m256d x) {
  return _mm256_and_pd(
      x, _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL)));
}

void pivot_health_avx2(const LuSymbolic& sy, const double* u, std::size_t w,
                       std::uint8_t* flags) {
  for_blocks(w, [&]<int G>(std::size_t k0, std::size_t n) {
    const Block<G> blk(k0, n);
    const __m256d zero = _mm256_setzero_pd();
    const __m256d inf = _mm256_set1_pd(__builtin_inf());
    const __m256d thr = _mm256_set1_pd(kRepivotThreshold);
    unsigned bad_lanes = 0;
    for (std::size_t i = 0; i < sy.n; ++i) {
      __m256d rmax[G];
      for (int g = 0; g < G; ++g) rmax[g] = zero;
      for (std::uint32_t s = sy.u_ptr[i]; s < sy.u_ptr[i + 1]; ++s) {
        const double* row = u + static_cast<std::size_t>(s) * w;
        for (int g = 0; g < G; ++g) {
          rmax[g] = _mm256_max_pd(abs_pd(blk.load(row, g)), rmax[g]);
        }  // NaN |v| -> rmax
      }
      const double* piv = u + static_cast<std::size_t>(sy.u_ptr[i]) * w;
      for (int g = 0; g < G; ++g) {
        const __m256d mag = abs_pd(blk.load(piv, g));
        // !isfinite(piv): !(|piv| < inf), true for NaN (unordered).
        __m256d bad = _mm256_cmp_pd(mag, inf, _CMP_NLT_UQ);
        bad = _mm256_or_pd(bad, _mm256_cmp_pd(mag, zero, _CMP_EQ_OQ));
        bad = _mm256_or_pd(
            bad, _mm256_cmp_pd(mag, _mm256_mul_pd(thr, rmax[g]), _CMP_LT_OQ));
        bad_lanes |= static_cast<unsigned>(_mm256_movemask_pd(bad)) << (4 * g);
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      flags[k0 + j] = static_cast<std::uint8_t>((bad_lanes >> j) & 1);
    }
  });
}

void mos_stamp_avx2(const MosStampPlan& plan, const MosLanes& io, double* a,
                    double* b, std::size_t w) {
  const std::size_t wv = w & ~std::size_t{3};
  const double* const deriv[4] = {io.d_vg, io.d_vd, io.d_vs, io.d_vb};
  for (std::uint32_t j = 0; j < plan.n_adds; ++j) {
    double* row = a + static_cast<std::size_t>(plan.slot[j]) * w;
    const double* g = deriv[plan.deriv[j]];
    // Negation flips the sign bit, as unary minus does.
    const __m256d sign = _mm256_set1_pd(plan.negate[j] ? -0.0 : 0.0);
    for (std::size_t k = 0; k < wv; k += 4) {
      const __m256d gv = _mm256_xor_pd(_mm256_loadu_pd(g + k), sign);
      _mm256_storeu_pd(row + k, _mm256_add_pd(_mm256_loadu_pd(row + k), gv));
    }
    for (std::size_t k = wv; k < w; ++k) {
      row[k] += plan.negate[j] ? -g[k] : g[k];
    }
  }
  double* rd = plan.rhs_d < 0 ? nullptr : b + plan.rhs_d * w;
  double* rs = plan.rhs_s < 0 ? nullptr : b + plan.rhs_s * w;
  std::size_t k = 0;
  for (; k < wv; k += 4) {
    const auto ld = [k](const double* p) { return _mm256_loadu_pd(p + k); };
    __m256d ieq = _mm256_sub_pd(ld(io.ids),
                                _mm256_mul_pd(ld(io.d_vg), ld(io.vg)));
    ieq = _mm256_sub_pd(ieq, _mm256_mul_pd(ld(io.d_vd), ld(io.vd)));
    ieq = _mm256_sub_pd(ieq, _mm256_mul_pd(ld(io.d_vs), ld(io.vs)));
    ieq = _mm256_sub_pd(ieq, _mm256_mul_pd(ld(io.d_vb), ld(io.vb)));
    if (rd != nullptr) _mm256_storeu_pd(rd + k, _mm256_sub_pd(ld(rd), ieq));
    if (rs != nullptr) _mm256_storeu_pd(rs + k, _mm256_add_pd(ld(rs), ieq));
  }
  for (; k < w; ++k) {
    const double ieq = io.ids[k] - io.d_vg[k] * io.vg[k] -
                       io.d_vd[k] * io.vd[k] - io.d_vs[k] * io.vs[k] -
                       io.d_vb[k] * io.vb[k];
    if (rd != nullptr) rd[k] -= ieq;
    if (rs != nullptr) rs[k] += ieq;
  }
}

void companion_rhs_avx2(const CompanionRows* comps, std::size_t count,
                        const double* g, const double* v, const double* i,
                        bool trap, double* b, std::size_t w) {
  const std::size_t wv = w & ~std::size_t{3};
  for (std::size_t c = 0; c < count; ++c) {
    const CompanionRows& cr = comps[c];
    if (cr.open) continue;
    const double* gc = g + c * w;
    const double* vc = v + c * w;
    const double* ic = i + c * w;
    double* ra = cr.ba < 0 ? nullptr : b + cr.ba * w;
    double* rb = cr.bb < 0 ? nullptr : b + cr.bb * w;
    std::size_t k = 0;
    for (; k < wv; k += 4) {
      __m256d j =
          _mm256_mul_pd(_mm256_loadu_pd(gc + k), _mm256_loadu_pd(vc + k));
      if (trap) j = _mm256_add_pd(j, _mm256_loadu_pd(ic + k));
      if (rb != nullptr) {
        _mm256_storeu_pd(rb + k, _mm256_sub_pd(_mm256_loadu_pd(rb + k), j));
      }
      if (ra != nullptr) {
        _mm256_storeu_pd(ra + k, _mm256_add_pd(_mm256_loadu_pd(ra + k), j));
      }
    }
    for (; k < w; ++k) {
      double j = gc[k] * vc[k];
      if (trap) j += ic[k];
      if (rb != nullptr) rb[k] -= j;
      if (ra != nullptr) ra[k] += j;
    }
  }
}

void companion_latch_avx2(const CompanionRows* comps, std::size_t count,
                          const double* g, double* v, double* i, bool trap,
                          const double* x, std::size_t w) {
  const std::size_t wv = w & ~std::size_t{3};
  for (std::size_t c = 0; c < count; ++c) {
    const CompanionRows& cr = comps[c];
    const double* xa = x + static_cast<std::size_t>(cr.xa) * w;
    const double* xb = x + static_cast<std::size_t>(cr.xb) * w;
    const double* gc = g + c * w;
    double* vc = v + c * w;
    double* ic = i + c * w;
    std::size_t k = 0;
    for (; k < wv; k += 4) {
      const __m256d v_new =
          _mm256_sub_pd(_mm256_loadu_pd(xa + k), _mm256_loadu_pd(xb + k));
      __m256d i_new = _mm256_setzero_pd();
      if (!cr.open) {
        i_new = _mm256_mul_pd(_mm256_loadu_pd(gc + k),
                              _mm256_sub_pd(v_new, _mm256_loadu_pd(vc + k)));
        if (trap) i_new = _mm256_sub_pd(i_new, _mm256_loadu_pd(ic + k));
      }
      _mm256_storeu_pd(vc + k, v_new);
      _mm256_storeu_pd(ic + k, i_new);
    }
    for (; k < w; ++k) {
      const double v_new = xa[k] - xb[k];
      double i_new = 0.0;
      if (!cr.open) {
        i_new = gc[k] * (v_new - vc[k]);
        if (trap) i_new -= ic[k];
      }
      vc[k] = v_new;
      ic[k] = i_new;
    }
  }
}

void newton_update_avx2(const NewtonLanes& io, std::size_t w) {
  for_blocks(w, [&]<int G>(std::size_t k0, std::size_t n) {
    const Block<G> blk(k0, n);
    const __m256d zero = _mm256_setzero_pd();
    __m256d max_dv[G], max_x[G];
    for (int g = 0; g < G; ++g) max_dv[g] = max_x[g] = zero;
    for (std::size_t r = 0; r < io.nv; ++r) {
      const double* xn =
          io.x_new + static_cast<std::size_t>(io.x_new_row[r]) * w;
      const double* x = io.x + r * w;
      for (int g = 0; g < G; ++g) {
        const __m256d xv = blk.load(x, g);
        // MAXPD returns its second operand unless the first is greater:
        // `if (dv > max_dv) max_dv = dv` and std::max(max_x, |x|), NaN
        // operands never taken.
        max_dv[g] = _mm256_max_pd(abs_pd(_mm256_sub_pd(blk.load(xn, g), xv)),
                                  max_dv[g]);
        max_x[g] = _mm256_max_pd(abs_pd(xv), max_x[g]);
      }
    }
    const __m256d limit = _mm256_set1_pd(io.max_delta_v);
    __m256d scale[G], take[G];
    for (int g = 0; g < G; ++g) {
      scale[g] = _mm256_blendv_pd(_mm256_set1_pd(1.0),
                                  _mm256_div_pd(limit, max_dv[g]),
                                  _mm256_cmp_pd(max_dv[g], limit, _CMP_GT_OQ));
      blk.store(io.max_dv, g, max_dv[g]);
      blk.store(io.max_x, g, max_x[g]);
      blk.store(io.scale, g, scale[g]);
      long long t[4];
      for (int j = 0; j < 4; ++j) {
        const std::size_t lane = static_cast<std::size_t>(4 * g + j);
        t[j] = lane < n && io.step[k0 + lane] != 0 ? -1 : 0;
      }
      take[g] = _mm256_castsi256_pd(_mm256_setr_epi64x(t[0], t[1], t[2], t[3]));
    }
    for (std::size_t r = 0; r < io.n; ++r) {
      const double* xn =
          io.x_new + static_cast<std::size_t>(io.x_new_row[r]) * w;
      double* x = io.x + r * w;
      for (int g = 0; g < G; ++g) {
        const __m256d xv = blk.load(x, g);
        const __m256d next = _mm256_add_pd(
            xv, _mm256_mul_pd(scale[g], _mm256_sub_pd(blk.load(xn, g), xv)));
        blk.store(x, g, _mm256_blendv_pd(xv, next, take[g]));
      }
    }
  });
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

constexpr Kernels kAvx2 = {"avx2",
                           ekv_avx2,
                           refactor_avx2,
                           solve_avx2,
                           pivot_health_avx2,
                           copy_avx2,
                           diag_add_avx2,
                           mos_stamp_avx2,
                           companion_rhs_avx2,
                           companion_latch_avx2,
                           newton_update_avx2};

}  // namespace

const Kernels* avx2_kernels() { return &kAvx2; }

}  // namespace ecms::circuit::kernels

#else  // !x86-64

namespace ecms::circuit::kernels {
const Kernels* avx2_kernels() { return nullptr; }
}  // namespace ecms::circuit::kernels

#endif
