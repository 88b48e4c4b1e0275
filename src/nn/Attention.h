//===- Attention.h - decoder attention kernels over cached K/V --*- C++ -*-===//
///
/// \file
/// The batched decoder's attention kernels (InferRuntime::forwardDecodeRows):
///
///  - attendCachedDyn: one query row over K/V rows reached through row
///    accessors. Self-attention uses it: a row's history is scattered
///    across its segment by the ancestry slot table.
///  - crossAttendGroup: every query row of a GROUP (adjacent rows that
///    share one source's EncoderCache) over that source's cross K/V, one
///    pass per head. Cross-K is stored transposed per head
///    (EncoderCache::CrossKT, [D][crossKStride(T)]), so the score pass
///    computes 8 source positions per vector and the group's rows read
///    the same K block while it is in L1; the value pass interleaves the
///    rows so each V row is loaded once for the whole group.
///
/// The two AVX2 kernels agree bit for bit on any row. The group score
/// pass replays, position by position, the lane chain attendHeadAVX
/// builds (one mul, then one fma per further 8-float slice of the head)
/// and hsum256's add tree; both kernels share the exp/normalizer pass and
/// the per-row FMA order of the value pass. tests/test_nn.cpp pins this.
///
/// Internal header — include from .cpp files (and tests) only.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_NN_ATTENTION_H
#define SLADE_NN_ATTENTION_H

#include "nn/SimdExp.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace slade {
namespace nn {

#ifdef SLADE_SIMD_EXP

/// Overwrites the scaled scores SRow[0..T) with exp(score - MaxS) and
/// returns 1 / their sum: vector blocks of 8, then a scalar tail.
inline float softmaxExpAVX(float *SRow, int T, float MaxS) {
  __m256 MaxV = _mm256_set1_ps(MaxS);
  __m256 SumV = _mm256_setzero_ps();
  int Tt = 0;
  for (; Tt + 8 <= T; Tt += 8) {
    __m256 E = exp256Ps(_mm256_sub_ps(_mm256_loadu_ps(SRow + Tt), MaxV));
    _mm256_storeu_ps(SRow + Tt, E);
    SumV = _mm256_add_ps(SumV, E);
  }
  float Sum = hsum256(SumV);
  for (; Tt < T; ++Tt) {
    SRow[Tt] = expPsScalar(SRow[Tt] - MaxS);
    Sum += SRow[Tt];
  }
  return 1.0f / Sum;
}

/// Value pass for R rows over one V cache: Oh[i] = sum_t P_i[t] * V[t],
/// P_i[t] = SRow[i][t] * InvSum[i]. Each row's accumulators take the
/// same FMA sequence as a solo pass; the rows only share the V loads.
template <int NV, int R, typename RowOfV>
inline void attendValuesAVX(const RowOfV &VRowOf, int T,
                            const float *const *SRow, const float *InvSum,
                            float *const *Oh) {
  __m256 Acc[R][NV];
  for (int I = 0; I < R; ++I)
    for (int V = 0; V < NV; ++V)
      Acc[I][V] = _mm256_setzero_ps();
  for (int Tt = 0; Tt < T; ++Tt) {
    const float *VRow = VRowOf(Tt);
    __m256 W[R];
    for (int I = 0; I < R; ++I)
      W[I] = _mm256_set1_ps(SRow[I][Tt] * InvSum[I]);
    for (int V = 0; V < NV; ++V) {
      __m256 X = _mm256_loadu_ps(VRow + V * 8);
      for (int I = 0; I < R; ++I)
        Acc[I][V] = _mm256_fmadd_ps(W[I], X, Acc[I][V]);
    }
  }
  for (int I = 0; I < R; ++I)
    for (int V = 0; V < NV; ++V)
      _mm256_storeu_ps(Oh[I] + V * 8, Acc[I][V]);
}

/// attendValuesAVX for NR <= R rows (R fixed at compile time).
template <int NV, int R, typename RowOfV>
inline void attendValuesUpToAVX(int NR, const RowOfV &VRowOf, int T,
                                const float *const *SRow,
                                const float *InvSum, float *const *Oh) {
  if constexpr (R > 1) {
    if (NR < R) {
      attendValuesUpToAVX<NV, R - 1>(NR, VRowOf, T, SRow, InvSum, Oh);
      return;
    }
  }
  attendValuesAVX<NV, R>(VRowOf, T, SRow, InvSum, Oh);
}

/// AVX2 softmax-attention over cached rows for one query row, one head
/// slice of DhT = NV*8 floats. The score pass keeps the dot product in
/// one lane chain per row and reduces it with hsum256; the value pass
/// holds the output slice in NV register accumulators across the whole
/// context.
template <int NV, typename RowOfK, typename RowOfV>
inline void attendHeadAVX(const float *Qh, float *Oh, int T, int Off,
                          float InvS, float *SRow, const RowOfK &KRowOf,
                          const RowOfV &VRowOf) {
  __m256 Q[NV];
  for (int V = 0; V < NV; ++V)
    Q[V] = _mm256_loadu_ps(Qh + V * 8);
  float MaxS = -1e30f;
  for (int Tt = 0; Tt < T; ++Tt) {
    const float *KRow = KRowOf(Tt) + Off;
    __m256 Acc = _mm256_mul_ps(Q[0], _mm256_loadu_ps(KRow));
    for (int V = 1; V < NV; ++V)
      Acc = _mm256_fmadd_ps(Q[V], _mm256_loadu_ps(KRow + V * 8), Acc);
    float Dot = hsum256(Acc) * InvS;
    SRow[Tt] = Dot;
    MaxS = std::max(MaxS, Dot);
  }
  float InvSum = softmaxExpAVX(SRow, T, MaxS);
  const float *SRows[1] = {SRow};
  float *Outs[1] = {Oh};
  attendValuesAVX<NV, 1>([&](int Tt) { return VRowOf(Tt) + Off; }, T, SRows,
                         &InvSum, Outs);
}

/// Hides \p V's producer from the optimizer. GCC's default
/// -ffp-contract=fast would otherwise fuse a product into the add that
/// consumes it, and hsum256 adds exact products.
inline __m256 opaque(__m256 V) {
  asm("" : "+x"(V));
  return V;
}

/// Lane chain \p J of attendHeadAVX's dot product for NR query rows
/// \p Qh over one 8-position block of transposed keys (column \p K):
/// component J as a mul, then components J+8, J+16, ... as fmas. The
/// rows share each key load.
template <int NV, int NR>
inline void laneChainsAVX(const float *const *Qh, const float *K,
                          size_t KStride, int J, __m256 (&A)[NR]) {
  const float *KJ = K + static_cast<size_t>(J) * KStride;
  __m256 X = _mm256_loadu_ps(KJ);
  for (int R = 0; R < NR; ++R)
    A[R] = opaque(_mm256_mul_ps(_mm256_set1_ps(Qh[R][J]), X));
  for (int V = 1; V < NV; ++V) {
    X = _mm256_loadu_ps(KJ + static_cast<size_t>(V) * 8 * KStride);
    for (int R = 0; R < NR; ++R)
      A[R] = _mm256_fmadd_ps(_mm256_set1_ps(Qh[R][V * 8 + J]), X, A[R]);
  }
}

/// Unscaled dot products of NR query rows with the keys of one
/// 8-position block (column \p K): the eight lane chains summed in
/// hsum256's order, ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)).
/// Lane i is then bit-identical to attendHeadAVX's hsum256 for that
/// position.
template <int NV, int NR>
inline void dotBlockAVX(const float *const *Qh, const float *K,
                        size_t KStride, __m256 (&S)[NR]) {
  __m256 A[NR], B[NR], Hi[NR];
  laneChainsAVX<NV, NR>(Qh, K, KStride, 0, A);
  laneChainsAVX<NV, NR>(Qh, K, KStride, 4, B);
  for (int R = 0; R < NR; ++R)
    S[R] = _mm256_add_ps(A[R], B[R]);
  laneChainsAVX<NV, NR>(Qh, K, KStride, 2, A);
  laneChainsAVX<NV, NR>(Qh, K, KStride, 6, B);
  for (int R = 0; R < NR; ++R)
    S[R] = _mm256_add_ps(S[R], _mm256_add_ps(A[R], B[R]));
  laneChainsAVX<NV, NR>(Qh, K, KStride, 1, A);
  laneChainsAVX<NV, NR>(Qh, K, KStride, 5, B);
  for (int R = 0; R < NR; ++R)
    Hi[R] = _mm256_add_ps(A[R], B[R]);
  laneChainsAVX<NV, NR>(Qh, K, KStride, 3, A);
  laneChainsAVX<NV, NR>(Qh, K, KStride, 7, B);
  for (int R = 0; R < NR; ++R)
    S[R] = _mm256_add_ps(S[R],
                         _mm256_add_ps(Hi[R], _mm256_add_ps(A[R], B[R])));
}

/// Scaled scores of NR query head slices \p Qh against transposed keys
/// \p KTh ([NV*8][KStride]) into SRow[r][0..KStride), and each row's
/// maximum over the first T into MaxS[r]. Lane i of block T0 is position
/// T0 + i.
template <int NV, int NR>
inline void crossScoresAVX(const float *const *Qh, const float *KTh,
                           size_t KStride, int T, float InvS,
                           float *const *SRow, float *MaxS) {
  const __m256 Scale = _mm256_set1_ps(InvS);
  __m256 MaxV[NR];
  for (int R = 0; R < NR; ++R)
    MaxV[R] = _mm256_set1_ps(-1e30f);
  for (int T0 = 0; T0 < T; T0 += 8) {
    __m256 S[NR];
    dotBlockAVX<NV, NR>(Qh, KTh + T0, KStride, S);
    // Padding lanes (zero keys) stay out of the maximum.
    __m256 Live = _mm256_castsi256_ps(_mm256_cmpgt_epi32(
        _mm256_set1_epi32(T - T0), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)));
    for (int R = 0; R < NR; ++R) {
      S[R] = _mm256_mul_ps(S[R], Scale);
      _mm256_storeu_ps(SRow[R] + T0, S[R]);
      MaxV[R] = _mm256_max_ps(_mm256_blendv_ps(MaxV[R], S[R], Live), MaxV[R]);
    }
  }
  // Lane order can only change which zero (+0 or -0) wins a tie, and
  // exp256Ps/expPsScalar map both to the same value.
  for (int R = 0; R < NR; ++R)
    MaxS[R] = hmax256(MaxV[R]);
}

/// One head of crossAttendGroup on AVX2 (head width NV*8).
template <int NV>
inline void crossAttendHeadAVX(const float *Q, float *O, int G, int D,
                               int Off, const float *KTh, size_t KStride,
                               const float *V, int T, float InvS,
                               float *Scores, size_t ScoreStride) {
  // Rows per value-pass block: R*NV accumulators plus R weights and one
  // V vector fit the 16 ymm registers.
  constexpr int R = NV <= 2 ? 5 : 3;
  auto VRowOf = [&](int Tt) {
    return V + static_cast<size_t>(Tt) * D + Off;
  };
  for (int G0 = 0; G0 < G; G0 += R) {
    int NR = std::min(R, G - G0);
    const float *Qh[R];
    float *SRows[R], *Outs[R], MaxS[R], InvSum[R];
    for (int I = 0; I < NR; ++I) {
      size_t Row = static_cast<size_t>(G0 + I);
      Qh[I] = Q + Row * D + Off;
      SRows[I] = Scores + Row * ScoreStride;
      Outs[I] = O + Row * D + Off;
    }
    // Scores two rows at a time: the pair shares every key load.
    int I = 0;
    for (; I + 2 <= NR; I += 2)
      crossScoresAVX<NV, 2>(Qh + I, KTh, KStride, T, InvS, SRows + I,
                            MaxS + I);
    if (I < NR)
      crossScoresAVX<NV, 1>(Qh + I, KTh, KStride, T, InvS, SRows + I,
                            MaxS + I);
    for (I = 0; I < NR; ++I)
      InvSum[I] = softmaxExpAVX(SRows[I], T, MaxS[I]);
    attendValuesUpToAVX<NV, R>(NR, VRowOf, T, SRows, InvSum, Outs);
  }
}

#endif // SLADE_SIMD_EXP

/// Softmax-attention over cached K/V rows for one query row. Per-head
/// passes with a fixed-width register accumulator for the value
/// reduction: each pass streams only its head's Dh-float slice of the
/// cache, so total memory traffic matches a single fused pass while the
/// inner loops stay pure FMA chains. DhT is the compile-time head width.
template <int DhT, typename RowOfK, typename RowOfV>
inline void attendCached(const float *QRow, float *ORow, int T, int H,
                         float InvS, float *Scores, int ScoreStride,
                         const RowOfK &KRowOf, const RowOfV &VRowOf) {
  for (int Hd = 0; Hd < H; ++Hd) {
    int Off = Hd * DhT;
    float *SRow = Scores + static_cast<size_t>(Hd) * ScoreStride;
    const float *Qh = QRow + Off;
    float MaxS = -1e30f;
    for (int Tt = 0; Tt < T; ++Tt) {
      const float *KRow = KRowOf(Tt) + Off;
      float Dot = 0;
#pragma omp simd reduction(+ : Dot)
      for (int Jj = 0; Jj < DhT; ++Jj)
        Dot += Qh[Jj] * KRow[Jj];
      SRow[Tt] = Dot * InvS;
      MaxS = std::max(MaxS, SRow[Tt]);
    }
    float Sum = 0;
    for (int Tt = 0; Tt < T; ++Tt) {
      SRow[Tt] = std::exp(SRow[Tt] - MaxS);
      Sum += SRow[Tt];
    }
    float InvSum = 1.0f / Sum;
    float Acc[DhT] = {};
    for (int Tt = 0; Tt < T; ++Tt) {
      float W = SRow[Tt] * InvSum;
      const float *VRow = VRowOf(Tt) + Off;
#pragma omp simd
      for (int Jj = 0; Jj < DhT; ++Jj)
        Acc[Jj] += W * VRow[Jj];
    }
    float *Oh = ORow + Off;
#pragma omp simd
    for (int Jj = 0; Jj < DhT; ++Jj)
      Oh[Jj] = Acc[Jj];
  }
}

/// Runtime-Dh dispatcher: common head widths get the fixed-width kernel.
template <typename RowOfK, typename RowOfV>
inline void attendCachedDyn(const float *QRow, float *ORow, int T, int H,
                            int Dh, float InvS, float *Scores,
                            int ScoreStride, const RowOfK &KRowOf,
                            const RowOfV &VRowOf) {
#ifdef SLADE_SIMD_EXP
  if (Dh % 8 == 0 && Dh <= 32) {
    for (int Hd = 0; Hd < H; ++Hd) {
      int Off = Hd * Dh;
      const float *Qh = QRow + Off;
      float *Oh = ORow + Off;
      float *SRow = Scores + static_cast<size_t>(Hd) * ScoreStride;
      switch (Dh / 8) {
      case 1:
        attendHeadAVX<1>(Qh, Oh, T, Off, InvS, SRow, KRowOf, VRowOf);
        break;
      case 2:
        attendHeadAVX<2>(Qh, Oh, T, Off, InvS, SRow, KRowOf, VRowOf);
        break;
      case 3:
        attendHeadAVX<3>(Qh, Oh, T, Off, InvS, SRow, KRowOf, VRowOf);
        break;
      default:
        attendHeadAVX<4>(Qh, Oh, T, Off, InvS, SRow, KRowOf, VRowOf);
        break;
      }
    }
    return;
  }
#endif
  switch (Dh) {
  case 8:
    attendCached<8>(QRow, ORow, T, H, InvS, Scores, ScoreStride, KRowOf,
                    VRowOf);
    return;
  case 16:
    attendCached<16>(QRow, ORow, T, H, InvS, Scores, ScoreStride, KRowOf,
                     VRowOf);
    return;
  case 32:
    attendCached<32>(QRow, ORow, T, H, InvS, Scores, ScoreStride, KRowOf,
                     VRowOf);
    return;
  default:
    break;
  }
  // Generic fallback, same math in the same order.
  for (int Hd = 0; Hd < H; ++Hd) {
    int Off = Hd * Dh;
    float *SRow = Scores + static_cast<size_t>(Hd) * ScoreStride;
    float MaxS = -1e30f;
    for (int Tt = 0; Tt < T; ++Tt) {
      const float *KRow = KRowOf(Tt) + Off;
      float Dot = 0;
      for (int Jj = 0; Jj < Dh; ++Jj)
        Dot += QRow[Off + Jj] * KRow[Jj];
      SRow[Tt] = Dot * InvS;
      MaxS = std::max(MaxS, SRow[Tt]);
    }
    float Sum = 0;
    for (int Tt = 0; Tt < T; ++Tt) {
      SRow[Tt] = std::exp(SRow[Tt] - MaxS);
      Sum += SRow[Tt];
    }
    float InvSum = 1.0f / Sum;
    for (int Jj = 0; Jj < Dh; ++Jj)
      ORow[Off + Jj] = 0;
    for (int Tt = 0; Tt < T; ++Tt) {
      float W = SRow[Tt] * InvSum;
      const float *VRow = VRowOf(Tt) + Off;
      for (int Jj = 0; Jj < Dh; ++Jj)
        ORow[Off + Jj] += W * VRow[Jj];
    }
  }
}

/// Cross-attention, head \p Hd, for the G query rows Q[g*D..] (outputs
/// O[g*D..]) of one group: every row attends over the same source of
/// \p T positions, keys \p KT transposed ([D][KStride], KStride =
/// crossKStride(T)), values \p V row-major [T][D]. Row g's scores live in
/// Scores[g*ScoreStride ..], ScoreStride >= KStride.
inline void crossAttendGroup(const float *Q, float *O, int G, int D, int Dh,
                             int Hd, const float *KT, size_t KStride,
                             const float *V, int T, float InvS,
                             float *Scores, size_t ScoreStride) {
  int Off = Hd * Dh;
  const float *KTh = KT + static_cast<size_t>(Off) * KStride;
#ifdef SLADE_SIMD_EXP
  if (Dh % 8 == 0 && Dh <= 32) {
    switch (Dh / 8) {
    case 1:
      crossAttendHeadAVX<1>(Q, O, G, D, Off, KTh, KStride, V, T, InvS,
                            Scores, ScoreStride);
      break;
    case 2:
      crossAttendHeadAVX<2>(Q, O, G, D, Off, KTh, KStride, V, T, InvS,
                            Scores, ScoreStride);
      break;
    case 3:
      crossAttendHeadAVX<3>(Q, O, G, D, Off, KTh, KStride, V, T, InvS,
                            Scores, ScoreStride);
      break;
    default:
      crossAttendHeadAVX<4>(Q, O, G, D, Off, KTh, KStride, V, T, InvS,
                            Scores, ScoreStride);
      break;
    }
    return;
  }
#endif
  // Scalar fallback (no AVX2+FMA, or an unusual head width): the generic
  // per-row math above, reading the transposed keys.
  for (int Gi = 0; Gi < G; ++Gi) {
    const float *Qh = Q + static_cast<size_t>(Gi) * D + Off;
    float *Oh = O + static_cast<size_t>(Gi) * D + Off;
    float *SRow = Scores + static_cast<size_t>(Gi) * ScoreStride;
    float MaxS = -1e30f;
    for (int Tt = 0; Tt < T; ++Tt) {
      float Dot = 0;
      for (int Jj = 0; Jj < Dh; ++Jj)
        Dot += Qh[Jj] * KTh[static_cast<size_t>(Jj) * KStride + Tt];
      SRow[Tt] = Dot * InvS;
      MaxS = std::max(MaxS, SRow[Tt]);
    }
    float Sum = 0;
    for (int Tt = 0; Tt < T; ++Tt) {
      SRow[Tt] = std::exp(SRow[Tt] - MaxS);
      Sum += SRow[Tt];
    }
    float InvSum = 1.0f / Sum;
    for (int Jj = 0; Jj < Dh; ++Jj)
      Oh[Jj] = 0;
    for (int Tt = 0; Tt < T; ++Tt) {
      float W = SRow[Tt] * InvSum;
      const float *VRow = V + static_cast<size_t>(Tt) * D + Off;
      for (int Jj = 0; Jj < Dh; ++Jj)
        Oh[Jj] += W * VRow[Jj];
    }
  }
}

} // namespace nn
} // namespace slade

#endif // SLADE_NN_ATTENTION_H
