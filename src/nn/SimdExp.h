//===- SimdExp.h - shared vectorized exp/reduction kernels ------*- C++ -*-===//
///
/// \file
/// The exp kernel shared by every softmax in the system: the autograd
/// softmaxRows op (training and the graph-path oracle), the graph-free
/// inference runtime's encoder softmax, and the batched decode attention.
/// Keeping ONE definition is what makes the inference fast path
/// bit-identical to the training graph: both sides call the same code, so
/// their rounding can never diverge.
///
/// expPsScalar mirrors one lane of exp256Ps operation for operation
/// (std::fma where the vector code uses fmadd, separate rounding steps
/// elsewhere), so vector blocks and scalar tails of one row agree bitwise.
/// Builds without AVX2+FMA fall back to std::exp everywhere — still one
/// definition per build, so cross-path bit-exactness holds on every
/// target.
///
/// exp256Pd is the double-precision exp of beam selection's log-softmax
/// sums (nn/Beam.cpp); without AVX2+FMA that code calls std::exp.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_NN_SIMDEXP_H
#define SLADE_NN_SIMDEXP_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace slade {
namespace nn {

#if defined(__AVX2__) && defined(__FMA__)
#define SLADE_SIMD_EXP 1

/// Polynomial expf (Cephes coefficients, ~1e-7 relative error), 8-wide.
/// Used inside softmax where the argument is <= 0; the clamp keeps
/// denormal/overflow inputs finite.
inline __m256 exp256Ps(__m256 X) {
  const __m256 Hi = _mm256_set1_ps(88.3762626647950f);
  const __m256 Lo = _mm256_set1_ps(-87.3365478515625f);
  X = _mm256_min_ps(_mm256_max_ps(X, Lo), Hi);
  const __m256 Log2E = _mm256_set1_ps(1.44269504088896341f);
  __m256 Fx = _mm256_round_ps(_mm256_mul_ps(X, Log2E),
                              _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  X = _mm256_fnmadd_ps(Fx, _mm256_set1_ps(0.693359375f), X);
  X = _mm256_fnmadd_ps(Fx, _mm256_set1_ps(-2.12194440e-4f), X);
  __m256 Y = _mm256_set1_ps(1.9875691500e-4f);
  Y = _mm256_fmadd_ps(Y, X, _mm256_set1_ps(1.3981999507e-3f));
  Y = _mm256_fmadd_ps(Y, X, _mm256_set1_ps(8.3334519073e-3f));
  Y = _mm256_fmadd_ps(Y, X, _mm256_set1_ps(4.1665795894e-2f));
  Y = _mm256_fmadd_ps(Y, X, _mm256_set1_ps(1.6666665459e-1f));
  Y = _mm256_fmadd_ps(Y, X, _mm256_set1_ps(5.0000001201e-1f));
  __m256 X2 = _mm256_mul_ps(X, X);
  Y = _mm256_fmadd_ps(Y, X2, _mm256_add_ps(X, _mm256_set1_ps(1.0f)));
  __m256i N = _mm256_cvtps_epi32(Fx);
  N = _mm256_slli_epi32(_mm256_add_epi32(N, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(Y, _mm256_castsi256_ps(N));
}

/// One lane of exp256Ps, operation for operation: explicit std::fma where
/// the vector code fuses, separate rounding steps where it does not. Row
/// tails computed here agree bitwise with the vector blocks.
inline float expPsScalar(float X) {
  X = std::min(std::max(X, -87.3365478515625f), 88.3762626647950f);
  float Fx = std::nearbyintf(X * 1.44269504088896341f);
  X = std::fma(-Fx, 0.693359375f, X);
  X = std::fma(-Fx, -2.12194440e-4f, X);
  float Y = 1.9875691500e-4f;
  Y = std::fma(Y, X, 1.3981999507e-3f);
  Y = std::fma(Y, X, 8.3334519073e-3f);
  Y = std::fma(Y, X, 4.1665795894e-2f);
  Y = std::fma(Y, X, 1.6666665459e-1f);
  Y = std::fma(Y, X, 5.0000001201e-1f);
  float X2 = X * X;
  Y = std::fma(Y, X2, X + 1.0f);
  int32_t N = static_cast<int32_t>(Fx); // Fx is integral after the round.
  uint32_t Bits = static_cast<uint32_t>(N + 127) << 23;
  float Pow2;
  std::memcpy(&Pow2, &Bits, sizeof(float));
  return Y * Pow2;
}

/// Double-precision exp, 4-wide, for log-softmax sums (arguments <= 0).
/// Reduces x = n ln2 + r with |r| <= ln2/2: one FMA rounds x log2(e) to
/// n, x - n ln2_hi is exact, and ln2's low part adds one rounding. Then
/// sums the degree-13 Taylor polynomial of e^r by Horner with FMA
/// (truncation under 5e-18 relative) and scales by 2^n built in the
/// exponent bits. Within 2 ULP of exp on [-708, 0]. Arguments below
/// -708, whose exp is under 3.4e-308, give exactly +0.0; NaN stays NaN.
inline __m256d exp256Pd(__m256d X) {
  const __m256d Lo = _mm256_set1_pd(-708.0);
  // Operand order lets NaN through both clamps.
  __m256d Xc = _mm256_min_pd(_mm256_set1_pd(709.0), _mm256_max_pd(Lo, X));
  // Adding 1.5 * 2^52 rounds x log2(e) to the integer n and leaves n in
  // the low mantissa bits.
  const __m256d Shift = _mm256_set1_pd(6755399441055744.0);
  __m256d Fx =
      _mm256_fmadd_pd(Xc, _mm256_set1_pd(1.4426950408889634), Shift);
  __m256d N = _mm256_sub_pd(Fx, Shift);
  const __m256d Ln2Hi = _mm256_set1_pd(6.93147180559945286e-1);
  const __m256d Ln2Lo = _mm256_set1_pd(2.31904681384629956e-17);
  __m256d R = _mm256_fnmadd_pd(N, Ln2Lo, _mm256_fnmadd_pd(N, Ln2Hi, Xc));
  const double InvFact[] = {1.0 / 6227020800.0, 1.0 / 479001600.0,
                            1.0 / 39916800.0,   1.0 / 3628800.0,
                            1.0 / 362880.0,     1.0 / 40320.0,
                            1.0 / 5040.0,       1.0 / 720.0,
                            1.0 / 120.0,        1.0 / 24.0,
                            1.0 / 6.0,          0.5,
                            1.0,                1.0};
  __m256d P = _mm256_set1_pd(InvFact[0]);
  for (int K = 1; K < 14; ++K)
    P = _mm256_fmadd_pd(P, R, _mm256_set1_pd(InvFact[K]));
  // 2^n: n + 1023 shifted into the exponent field (the shift drops the
  // 1.5 * 2^52 bits; n + 1023 is in [1, 2046] after the clamps).
  __m256i E = _mm256_slli_epi64(
      _mm256_add_epi64(_mm256_castpd_si256(Fx), _mm256_set1_epi64x(1023)),
      52);
  __m256d Y = _mm256_mul_pd(P, _mm256_castsi256_pd(E));
  return _mm256_andnot_pd(_mm256_cmp_pd(X, Lo, _CMP_LT_OQ), Y);
}

inline float hsum256(__m256 V) {
  __m128 S = _mm_add_ps(_mm256_castps256_ps128(V),
                        _mm256_extractf128_ps(V, 1));
  S = _mm_add_ps(S, _mm_movehl_ps(S, S));
  S = _mm_add_ss(S, _mm_movehdup_ps(S));
  return _mm_cvtss_f32(S);
}

inline float hmax256(__m256 V) {
  __m128 S = _mm_max_ps(_mm256_castps256_ps128(V),
                        _mm256_extractf128_ps(V, 1));
  S = _mm_max_ps(S, _mm_movehl_ps(S, S));
  S = _mm_max_ss(S, _mm_movehdup_ps(S));
  return _mm_cvtss_f32(S);
}

#else // !(__AVX2__ && __FMA__)

/// Scalar fallback: std::exp. Slower, but every softmax in the build uses
/// it, so the graph path and the inference runtime still agree bitwise.
inline float expPsScalar(float X) { return std::exp(X); }

#endif

} // namespace nn
} // namespace slade

#endif // SLADE_NN_SIMDEXP_H
