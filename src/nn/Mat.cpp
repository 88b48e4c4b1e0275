//===- Mat.cpp - 2-D tensors with reverse-mode autograd ----------------------===//

#include "nn/Mat.h"

#include "nn/SimdExp.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>

using namespace slade;
using namespace slade::nn;

namespace {

// Register-blocked microkernel tile sizes. MR x NR accumulators live in
// registers across the K loop; NR = 16 floats spans two AVX registers (or
// four SSE registers) so the inner loop vectorizes under -O2/-O3.
constexpr int MR = 4;
constexpr int NR = 16;
static_assert(NR == slade::nn::GemmTileN,
              "PackedMat tile width must match the microkernel blocking");

/// MRv x NR tile of C += A * B with A row-major [M,K], B row-major [K,N].
/// Accumulation over K runs in increasing order per element, so the
/// result matches the naive triple loop bit-for-bit when C starts at zero.
/// Templated on the row count so short tails (decode batches have M = 1-5
/// rows) still run the register-blocked path instead of a scalar edge.
template <int MRv>
inline void microAcc(const float *A, const float *B, float *C, int K,
                     int LdA, int LdB, int LdC) {
  float Acc[MRv][NR] = {};
  for (int Kk = 0; Kk < K; ++Kk) {
    const float *BRow = B + static_cast<size_t>(Kk) * LdB;
    for (int I = 0; I < MRv; ++I) {
      float AV = A[static_cast<size_t>(I) * LdA + Kk];
#pragma omp simd
      for (int J = 0; J < NR; ++J)
        Acc[I][J] += AV * BRow[J];
    }
  }
  for (int I = 0; I < MRv; ++I) {
    float *CRow = C + static_cast<size_t>(I) * LdC;
#pragma omp simd
    for (int J = 0; J < NR; ++J)
      CRow[J] += Acc[I][J];
  }
}

/// Partial tile (edges): same accumulation order, scalar-friendly.
inline void edgeAcc(const float *A, const float *B, float *C, int MB, int K,
                    int NB, int LdA, int LdB, int LdC) {
  for (int I = 0; I < MB; ++I) {
    const float *ARow = A + static_cast<size_t>(I) * LdA;
    float *CRow = C + static_cast<size_t>(I) * LdC;
    for (int J = 0; J < NB; ++J) {
      float Acc = 0.0f;
      for (int Kk = 0; Kk < K; ++Kk)
        Acc += ARow[Kk] * B[static_cast<size_t>(Kk) * LdB + J];
      CRow[J] += Acc;
    }
  }
}

/// Runs full-width NR column blocks for MB <= MR rows, dispatching to the
/// widest register tile that fits.
inline void rowBlockAcc(const float *A, const float *B, float *C, int MB,
                        int K, int NFull, int LdA, int LdB, int LdC) {
  int I0 = 0;
  auto Run = [&](auto Tag) {
    constexpr int MRv = decltype(Tag)::value;
    for (int J0 = 0; J0 < NFull; J0 += NR)
      microAcc<MRv>(A + static_cast<size_t>(I0) * LdA, B + J0,
                    C + static_cast<size_t>(I0) * LdC + J0, K, LdA, LdB,
                    LdC);
    I0 += MRv;
  };
  while (MB - I0 >= 4)
    Run(std::integral_constant<int, 4>{});
  if (MB - I0 >= 2)
    Run(std::integral_constant<int, 2>{});
  if (MB - I0 >= 1)
    Run(std::integral_constant<int, 1>{});
}

/// MRv-row slice of one pre-packed column tile: the tile is K-major
/// [K][NR] with pad columns zeroed, so the inner loop is a contiguous
/// NR-wide load per K step. All NR accumulator lanes run (pad lanes
/// compute zeros); only the NB real columns are stored. Per-element
/// accumulation order matches microAcc/edgeAcc exactly.
template <int MRv>
inline void microAccPacked(const float *A, const float *Tile, float *C,
                           int K, int NB, int LdA, int LdC) {
  float Acc[MRv][NR] = {};
  for (int Kk = 0; Kk < K; ++Kk) {
    const float *BRow = Tile + static_cast<size_t>(Kk) * NR;
    for (int I = 0; I < MRv; ++I) {
      float AV = A[static_cast<size_t>(I) * LdA + Kk];
#pragma omp simd
      for (int J = 0; J < NR; ++J)
        Acc[I][J] += AV * BRow[J];
    }
  }
  for (int I = 0; I < MRv; ++I) {
    float *CRow = C + static_cast<size_t>(I) * LdC;
#pragma omp simd
    for (int J = 0; J < NB; ++J)
      CRow[J] += Acc[I][J];
  }
}

/// All M rows of one packed tile, dispatching to the widest register
/// block that fits (same dispatch as rowBlockAcc).
inline void tileAccPacked(const float *A, const float *Tile, float *C,
                          int M, int K, int NB, int LdA, int LdC) {
  int I0 = 0;
  auto Run = [&](auto Tag) {
    constexpr int MRv = decltype(Tag)::value;
    microAccPacked<MRv>(A + static_cast<size_t>(I0) * LdA, Tile,
                        C + static_cast<size_t>(I0) * LdC, K, NB, LdA,
                        LdC);
    I0 += MRv;
  };
  while (M - I0 >= 4)
    Run(std::integral_constant<int, 4>{});
  if (M - I0 >= 2)
    Run(std::integral_constant<int, 2>{});
  if (M - I0 >= 1)
    Run(std::integral_constant<int, 1>{});
}

} // namespace

void slade::nn::packBInto(const float *B, int K, int N, PackedMat &Out) {
  Out.K = K;
  Out.N = N;
  int NT = Out.tileCount();
  size_t Need = static_cast<size_t>(NT) * K * NR;
  if (Out.Tiles.size() < Need)
    Out.Tiles.resize(Need);
  for (int T = 0; T < NT; ++T) {
    float *Tile = Out.Tiles.data() + static_cast<size_t>(T) * K * NR;
    int J0 = T * NR;
    int NB = std::min(NR, N - J0);
    for (int Kk = 0; Kk < K; ++Kk) {
      float *Dst = Tile + static_cast<size_t>(Kk) * NR;
      std::memcpy(Dst, B + static_cast<size_t>(Kk) * N + J0,
                  static_cast<size_t>(NB) * sizeof(float));
      if (NB < NR)
        std::memset(Dst + NB, 0,
                    static_cast<size_t>(NR - NB) * sizeof(float));
    }
  }
}

void slade::nn::packBTransposedInto(const float *BT, int N, int K,
                                    PackedMat &Out) {
  Out.K = K;
  Out.N = N;
  int NT = Out.tileCount();
  size_t Need = static_cast<size_t>(NT) * K * NR;
  if (Out.Tiles.size() < Need)
    Out.Tiles.resize(Need);
  for (int T = 0; T < NT; ++T) {
    float *Tile = Out.Tiles.data() + static_cast<size_t>(T) * K * NR;
    int J0 = T * NR;
    int NB = std::min(NR, N - J0);
    if (NB < NR)
      std::memset(Tile, 0, static_cast<size_t>(K) * NR * sizeof(float));
    for (int J = 0; J < NB; ++J) {
      const float *Src = BT + static_cast<size_t>(J0 + J) * K;
      for (int Kk = 0; Kk < K; ++Kk)
        Tile[static_cast<size_t>(Kk) * NR + J] = Src[Kk];
    }
  }
}

void slade::nn::gemmAccPackedTiles(const float *A, const PackedMat &B,
                                   float *C, int M, int T0, int T1) {
  int K = B.K, N = B.N;
  for (int T = T0; T < T1; ++T) {
    const float *Tile =
        B.Tiles.data() + static_cast<size_t>(T) * K * NR;
    int J0 = T * NR;
    tileAccPacked(A, Tile, C + J0, M, K, std::min(NR, N - J0), K, N);
  }
}

void slade::nn::gemmAccPacked(const float *A, const PackedMat &B, float *C,
                              int M) {
  gemmAccPackedTiles(A, B, C, M, 0, B.tileCount());
}

void slade::nn::gemmAcc(const float *A, const float *B, float *C, int M,
                        int K, int N) {
  int NFull = N - N % NR;
  rowBlockAcc(A, B, C, M, K, NFull, K, N, N);
  if (NFull < N)
    edgeAcc(A, B + NFull, C + NFull, M, K, N - NFull, K, N, N);
}

void slade::nn::gemmAccNT(const float *A, const float *B, float *C, int M,
                          int K, int N, PackedMat &PackScratch) {
  // C += A * B^T. Dot-product tiles straight over B's rows leave the
  // inner loop with K-strided loads (painful exactly where attention
  // needs this kernel: scores with small K = Dh and large N = T), so pack
  // B^T once into the tile-major layout and run the register-blocked
  // tiles. Per output element the reduction still runs in increasing K
  // order. The pack scratch is caller-owned and grow-only, so hot-path
  // callers (EncodeScratch) allocate nothing in steady state and the
  // buffer's lifetime is pinned to theirs.
  packBTransposedInto(B, N, K, PackScratch);
  gemmAccPacked(A, PackScratch, C, M);
}

void slade::nn::gemmAccNT(const float *A, const float *B, float *C, int M,
                          int K, int N) {
  // Scratch-less convenience form for the training-graph ops (matmul
  // backward, matmulNT), which have no state object to own a scratch and
  // are not on the serving hot path.
  PackedMat Pack;
  gemmAccNT(A, B, C, M, K, N, Pack);
}

void slade::nn::gemmAccTN(const float *A, const float *B, float *C, int M,
                          int K, int N) {
  // C += A^T * B with A [K,M], B [K,N]: tile over the M x N output, march
  // down K reading one A and one B row per iteration.
  int MFull = M - M % MR, NFull = N - N % NR;
  for (int I0 = 0; I0 < MFull; I0 += MR) {
    for (int J0 = 0; J0 < NFull; J0 += NR) {
      float Acc[MR][NR] = {};
      for (int Kk = 0; Kk < K; ++Kk) {
        const float *ARow = A + static_cast<size_t>(Kk) * M + I0;
        const float *BRow = B + static_cast<size_t>(Kk) * N + J0;
        for (int I = 0; I < MR; ++I) {
          float AV = ARow[I];
#pragma omp simd
          for (int J = 0; J < NR; ++J)
            Acc[I][J] += AV * BRow[J];
        }
      }
      for (int I = 0; I < MR; ++I)
        for (int J = 0; J < NR; ++J)
          C[static_cast<size_t>(I0 + I) * N + J0 + J] += Acc[I][J];
    }
  }
  auto Edge = [&](int IBeg, int IEnd, int JBeg, int JEnd) {
    for (int I = IBeg; I < IEnd; ++I) {
      float *CRow = C + static_cast<size_t>(I) * N;
      for (int J = JBeg; J < JEnd; ++J) {
        float Acc = 0.0f;
        for (int Kk = 0; Kk < K; ++Kk)
          Acc += A[static_cast<size_t>(Kk) * M + I] *
                 B[static_cast<size_t>(Kk) * N + J];
        CRow[J] += Acc;
      }
    }
  };
  Edge(0, MFull, NFull, N);
  Edge(MFull, M, 0, N);
}

void slade::nn::softmaxRowInPlace(float *Row, int N) {
  if (N <= 0)
    return;
#ifdef SLADE_SIMD_EXP
  int Full = N & ~7;
  // Max: reorder-safe (no rounding), so the vector reduction is exact.
  float MaxV = -1e30f;
  if (Full) {
    __m256 Mx = _mm256_set1_ps(-1e30f);
    for (int J = 0; J < Full; J += 8)
      Mx = _mm256_max_ps(Mx, _mm256_loadu_ps(Row + J));
    MaxV = hmax256(Mx);
  }
  for (int J = Full; J < N; ++J)
    MaxV = Row[J] > MaxV ? Row[J] : MaxV;
  // exp blocks accumulate 8 partial sums; the tail uses the scalar mirror
  // of the same polynomial, then folds in ascending order.
  float Sum = 0;
  if (Full) {
    __m256 Mx = _mm256_set1_ps(MaxV);
    __m256 Sv = _mm256_setzero_ps();
    for (int J = 0; J < Full; J += 8) {
      __m256 E = exp256Ps(_mm256_sub_ps(_mm256_loadu_ps(Row + J), Mx));
      _mm256_storeu_ps(Row + J, E);
      Sv = _mm256_add_ps(Sv, E);
    }
    Sum = hsum256(Sv);
  }
  for (int J = Full; J < N; ++J) {
    Row[J] = expPsScalar(Row[J] - MaxV);
    Sum += Row[J];
  }
  // Per-lane IEEE division: vector and scalar agree bitwise.
  __m256 Sv = _mm256_set1_ps(Sum);
  for (int J = 0; J < Full; J += 8)
    _mm256_storeu_ps(Row + J,
                     _mm256_div_ps(_mm256_loadu_ps(Row + J), Sv));
  for (int J = Full; J < N; ++J)
    Row[J] /= Sum;
#else
  float MaxV = -1e30f;
  for (int J = 0; J < N; ++J)
    MaxV = Row[J] > MaxV ? Row[J] : MaxV;
  float Sum = 0;
  for (int J = 0; J < N; ++J) {
    Row[J] = expPsScalar(Row[J] - MaxV);
    Sum += Row[J];
  }
  for (int J = 0; J < N; ++J)
    Row[J] /= Sum;
#endif
}

void slade::nn::layerNormRow(const float *X, int N, const float *Gamma,
                             const float *Beta, float *Out, float *MeanOut,
                             float *InvStdOut) {
  float Mean = 0;
  for (int J = 0; J < N; ++J)
    Mean += X[J];
  Mean /= static_cast<float>(N);
  float Var = 0;
  for (int J = 0; J < N; ++J) {
    float D = X[J] - Mean;
    Var += D * D;
  }
  Var /= static_cast<float>(N);
  float InvStd = 1.0f / std::sqrt(Var + 1e-5f);
  for (int J = 0; J < N; ++J)
    Out[J] = (X[J] - Mean) * InvStd * Gamma[J] + Beta[J];
  if (MeanOut)
    *MeanOut = Mean;
  if (InvStdOut)
    *InvStdOut = InvStd;
}

Mat *slade::nn::matmul(Graph &G, Mat *A, Mat *B) {
  assert(A->C == B->R && "matmul shape mismatch");
  Mat *C = G.make(A->R, B->C);
  gemmAcc(A->V.data(), B->V.data(), C->V.data(), A->R, A->C, B->C);
  G.addBackward([A, B, C] {
    // dA += dC * B^T ; dB += A^T * dC.
    gemmAccNT(C->G.data(), B->V.data(), A->G.data(), A->R, B->C, A->C);
    gemmAccTN(A->V.data(), C->G.data(), B->G.data(), A->C, A->R, B->C);
  });
  return C;
}

Mat *slade::nn::matmulNT(Graph &G, Mat *A, Mat *B) {
  assert(A->C == B->C && "matmulNT shape mismatch");
  Mat *C = G.make(A->R, B->R);
  gemmAccNT(A->V.data(), B->V.data(), C->V.data(), A->R, A->C, B->R);
  G.addBackward([A, B, C] {
    // C = A*B^T: dA += dC * B ; dB += dC^T * A.
    gemmAcc(C->G.data(), B->V.data(), A->G.data(), A->R, B->R, A->C);
    gemmAccTN(C->G.data(), A->V.data(), B->G.data(), B->R, A->R, A->C);
  });
  return C;
}

Mat *slade::nn::add(Graph &G, Mat *A, Mat *B) {
  assert(A->R == B->R && A->C == B->C && "add shape mismatch");
  Mat *C = G.make(A->R, A->C);
  for (size_t I = 0; I < C->size(); ++I)
    C->V[I] = A->V[I] + B->V[I];
  G.addBackward([A, B, C] {
    for (size_t I = 0; I < C->size(); ++I) {
      A->G[I] += C->G[I];
      B->G[I] += C->G[I];
    }
  });
  return C;
}

Mat *slade::nn::addRow(Graph &G, Mat *A, Mat *Bias) {
  assert(Bias->R == 1 && Bias->C == A->C && "bias shape mismatch");
  Mat *C = G.make(A->R, A->C);
  for (int I = 0; I < A->R; ++I)
    for (int J = 0; J < A->C; ++J)
      C->at(I, J) = A->at(I, J) + Bias->V[static_cast<size_t>(J)];
  G.addBackward([A, Bias, C] {
    for (int I = 0; I < A->R; ++I)
      for (int J = 0; J < A->C; ++J) {
        A->gat(I, J) += C->gat(I, J);
        Bias->G[static_cast<size_t>(J)] += C->gat(I, J);
      }
  });
  return C;
}

Mat *slade::nn::scale(Graph &G, Mat *A, float S) {
  Mat *C = G.make(A->R, A->C);
  for (size_t I = 0; I < C->size(); ++I)
    C->V[I] = A->V[I] * S;
  G.addBackward([A, C, S] {
    for (size_t I = 0; I < C->size(); ++I)
      A->G[I] += C->G[I] * S;
  });
  return C;
}

Mat *slade::nn::relu(Graph &G, Mat *A) {
  Mat *C = G.make(A->R, A->C);
  for (size_t I = 0; I < C->size(); ++I)
    C->V[I] = A->V[I] > 0.0f ? A->V[I] : 0.0f;
  G.addBackward([A, C] {
    for (size_t I = 0; I < C->size(); ++I)
      if (A->V[I] > 0.0f)
        A->G[I] += C->G[I];
  });
  return C;
}

Mat *slade::nn::layerNorm(Graph &G, Mat *A, Mat *Gamma, Mat *Beta) {
  Mat *C = G.make(A->R, A->C);
  Mat *Stats = G.make(A->R, 2); // mean, inv-std per row.
  // Forward through the shared row kernel (the inference runtime calls
  // the same code, which is what keeps the two paths bit-identical).
  for (int I = 0; I < A->R; ++I)
    layerNormRow(A->V.data() + static_cast<size_t>(I) * A->C, A->C,
                 Gamma->V.data(), Beta->V.data(),
                 C->V.data() + static_cast<size_t>(I) * A->C,
                 &Stats->at(I, 0), &Stats->at(I, 1));
  G.addBackward([A, Gamma, Beta, C, Stats] {
    int N = A->C;
    for (int I = 0; I < A->R; ++I) {
      float Mean = Stats->at(I, 0), InvStd = Stats->at(I, 1);
      float SumDy = 0, SumDyXhat = 0;
      for (int J = 0; J < N; ++J) {
        float XHat = (A->at(I, J) - Mean) * InvStd;
        float DY = C->gat(I, J) * Gamma->V[J];
        SumDy += DY;
        SumDyXhat += DY * XHat;
        Gamma->G[J] += C->gat(I, J) * XHat;
        Beta->G[J] += C->gat(I, J);
      }
      for (int J = 0; J < N; ++J) {
        float XHat = (A->at(I, J) - Mean) * InvStd;
        float DY = C->gat(I, J) * Gamma->V[J];
        A->gat(I, J) += InvStd * (DY - SumDy / N - XHat * SumDyXhat / N);
      }
    }
  });
  return C;
}

Mat *slade::nn::softmaxRows(Graph &G, Mat *A, bool Causal) {
  Mat *C = G.make(A->R, A->C);
  for (int I = 0; I < A->R; ++I) {
    int Limit = Causal ? (I + 1 < A->C ? I + 1 : A->C) : A->C;
    float *CRow = C->V.data() + static_cast<size_t>(I) * A->C;
    std::memcpy(CRow, A->V.data() + static_cast<size_t>(I) * A->C,
                static_cast<size_t>(Limit) * sizeof(float));
    softmaxRowInPlace(CRow, Limit); // Shared with the inference runtime.
    for (int J = Limit; J < A->C; ++J)
      CRow[J] = 0.0f;
  }
  G.addBackward([A, C, Causal] {
    for (int I = 0; I < A->R; ++I) {
      int Limit = Causal ? (I + 1 < A->C ? I + 1 : A->C) : A->C;
      float Dot = 0;
      for (int J = 0; J < Limit; ++J)
        Dot += C->gat(I, J) * C->at(I, J);
      for (int J = 0; J < Limit; ++J)
        A->gat(I, J) += C->at(I, J) * (C->gat(I, J) - Dot);
    }
  });
  return C;
}

Mat *slade::nn::embed(Graph &G, Mat *Table, Mat *Pos,
                      const std::vector<int> &Ids) {
  int T = static_cast<int>(Ids.size());
  Mat *C = G.make(T, Table->C);
  for (int I = 0; I < T; ++I) {
    int Id = Ids[static_cast<size_t>(I)];
    int P = I < Pos->R ? I : Pos->R - 1;
    for (int J = 0; J < Table->C; ++J)
      C->at(I, J) = Table->at(Id, J) + Pos->at(P, J);
  }
  std::vector<int> IdsCopy = Ids;
  G.addBackward([Table, Pos, C, IdsCopy] {
    for (int I = 0; I < C->R; ++I) {
      int Id = IdsCopy[static_cast<size_t>(I)];
      int P = I < Pos->R ? I : Pos->R - 1;
      for (int J = 0; J < C->C; ++J) {
        Table->gat(Id, J) += C->gat(I, J);
        Pos->gat(P, J) += C->gat(I, J);
      }
    }
  });
  return C;
}

Mat *slade::nn::sliceCols(Graph &G, Mat *A, int ColStart, int Cols) {
  Mat *C = G.make(A->R, Cols);
  for (int I = 0; I < A->R; ++I)
    for (int J = 0; J < Cols; ++J)
      C->at(I, J) = A->at(I, ColStart + J);
  G.addBackward([A, C, ColStart, Cols] {
    for (int I = 0; I < A->R; ++I)
      for (int J = 0; J < Cols; ++J)
        A->gat(I, ColStart + J) += C->gat(I, J);
  });
  return C;
}

Mat *slade::nn::concatCols(Graph &G, const std::vector<Mat *> &Parts) {
  int Cols = 0;
  for (Mat *P : Parts)
    Cols += P->C;
  Mat *C = G.make(Parts[0]->R, Cols);
  int Off = 0;
  for (Mat *P : Parts) {
    for (int I = 0; I < P->R; ++I)
      for (int J = 0; J < P->C; ++J)
        C->at(I, Off + J) = P->at(I, J);
    Off += P->C;
  }
  std::vector<Mat *> PartsCopy = Parts;
  G.addBackward([PartsCopy, C] {
    int Off = 0;
    for (Mat *P : PartsCopy) {
      for (int I = 0; I < P->R; ++I)
        for (int J = 0; J < P->C; ++J)
          P->gat(I, J) += C->gat(I, Off + J);
      Off += P->C;
    }
  });
  return C;
}

Mat *slade::nn::dropout(Graph &G, Mat *A, float P, uint64_t *RngState) {
  if (P <= 0.0f)
    return A;
  Mat *C = G.make(A->R, A->C);
  Mat *Mask = G.make(A->R, A->C);
  float Keep = 1.0f - P;
  for (size_t I = 0; I < A->size(); ++I) {
    uint64_t Z = (*RngState += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    Z ^= Z >> 31;
    bool Drop = static_cast<double>(Z >> 11) * 0x1.0p-53 < P;
    Mask->V[I] = Drop ? 0.0f : 1.0f / Keep;
    C->V[I] = A->V[I] * Mask->V[I];
  }
  G.addBackward([A, C, Mask] {
    for (size_t I = 0; I < A->size(); ++I)
      A->G[I] += C->G[I] * Mask->V[I];
  });
  return C;
}

float slade::nn::crossEntropy(Graph &G, Mat *Logits,
                              const std::vector<int> &Targets) {
  assert(static_cast<int>(Targets.size()) == Logits->R &&
         "target/logit length mismatch");
  int T = Logits->R, V = Logits->C;
  Mat *Probs = G.make(T, V);
  double Loss = 0;
  for (int I = 0; I < T; ++I) {
    float MaxV = -1e30f;
    for (int J = 0; J < V; ++J)
      MaxV = Logits->at(I, J) > MaxV ? Logits->at(I, J) : MaxV;
    double Sum = 0;
    for (int J = 0; J < V; ++J) {
      float E = std::exp(Logits->at(I, J) - MaxV);
      Probs->at(I, J) = E;
      Sum += E;
    }
    for (int J = 0; J < V; ++J)
      Probs->at(I, J) = static_cast<float>(Probs->at(I, J) / Sum);
    Loss -= std::log(
        static_cast<double>(Probs->at(I, Targets[static_cast<size_t>(I)])) +
        1e-12);
  }
  float Mean = static_cast<float>(Loss / T);
  std::vector<int> TgtCopy = Targets;
  G.addBackward([Logits, Probs, TgtCopy, T, V] {
    float Inv = 1.0f / static_cast<float>(T);
    for (int I = 0; I < T; ++I) {
      for (int J = 0; J < V; ++J)
        Logits->gat(I, J) += Probs->at(I, J) * Inv;
      Logits->gat(I, TgtCopy[static_cast<size_t>(I)]) -= Inv;
    }
  });
  return Mean;
}
