//===- test_nn.cpp - autograd and Transformer tests ----------------------------===//
//
// Numerical gradient checks for every autograd op (central differences),
// plus Transformer-level properties: loss decreases when overfitting one
// pair, the batched beam search equals the sequential reference,
// checkpoints round-trip bit-exactly, and the no-dropout default (§V-C) is
// deterministic.
//
//===----------------------------------------------------------------------===//

#include "nn/Attention.h"
#include "nn/Beam.h"
#include "nn/BeamCore.h"
#include "nn/DecodeLRU.h"
#include "nn/EncoderLRU.h"
#include "nn/InferRuntime.h"
#include "nn/Mat.h"
#include "nn/Parallel.h"
#include "nn/SimdExp.h"
#include "nn/SourceLRU.h"
#include "nn/Transformer.h"
#include "support/RNG.h"
#include "tok/VocabConstraint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <thread>

using namespace slade;
using namespace slade::nn;

namespace {

void randomize(Mat &M, uint64_t Seed) {
  SplitMix64 Rng(Seed);
  for (float &V : M.V)
    V = static_cast<float>(Rng.normal()) * 0.5f;
}

/// Central-difference gradient check of a scalar-valued graph function.
void gradCheck(Mat &Param,
               const std::function<float()> &Forward,
               const std::function<float()> &ForwardBackward,
               float Tol = 2e-2f) {
  Param.zeroGrad();
  ForwardBackward();
  const float Eps = 1e-3f;
  SplitMix64 Rng(404);
  for (int Trial = 0; Trial < 6; ++Trial) {
    size_t I = Rng.below(Param.size());
    float Orig = Param.V[I];
    Param.V[I] = Orig + Eps;
    float Up = Forward();
    Param.V[I] = Orig - Eps;
    float Down = Forward();
    Param.V[I] = Orig;
    float Numeric = (Up - Down) / (2 * Eps);
    float Analytic = Param.G[I];
    float Scale = std::max({1.0f, std::fabs(Numeric), std::fabs(Analytic)});
    EXPECT_NEAR(Analytic, Numeric, Tol * Scale)
        << "param index " << I;
  }
}

/// Builds loss = sum(op(inputs...)) for simple op graphs.
float sumAll(Graph &G, Mat *M) {
  // Cross-entropy against class 0 of a 1xN "logit" row is awkward for
  // arbitrary shapes; instead accumulate a weighted sum via the tape.
  float S = 0;
  for (float V : M->V)
    S += V;
  // Seed the output gradient with ones.
  G.addBackward([M] {});
  for (float &Gv : M->G)
    Gv = 1.0f;
  return S;
}

TEST(Autograd, MatmulGradient) {
  Mat A(3, 4), B(4, 5);
  randomize(A, 1);
  randomize(B, 2);
  auto Fwd = [&] {
    Graph G;
    Mat *C = matmul(G, &A, &B);
    float S = 0;
    for (float V : C->V)
      S += V;
    return S;
  };
  auto FwdBwd = [&] {
    Graph G;
    Mat *C = matmul(G, &A, &B);
    float S = sumAll(G, C);
    G.backward();
    return S;
  };
  gradCheck(A, Fwd, FwdBwd);
  A.zeroGrad();
  B.zeroGrad();
  gradCheck(B, Fwd, FwdBwd);
}

TEST(Autograd, MatmulNTGradient) {
  Mat A(3, 4), B(5, 4);
  randomize(A, 3);
  randomize(B, 4);
  auto Fwd = [&] {
    Graph G;
    Mat *C = matmulNT(G, &A, &B);
    float S = 0;
    for (float V : C->V)
      S += V;
    return S;
  };
  auto FwdBwd = [&] {
    Graph G;
    Mat *C = matmulNT(G, &A, &B);
    float S = sumAll(G, C);
    G.backward();
    return S;
  };
  gradCheck(A, Fwd, FwdBwd);
}

TEST(Autograd, LayerNormGradient) {
  Mat X(4, 8), Gamma(1, 8), Beta(1, 8);
  randomize(X, 5);
  for (float &V : Gamma.V)
    V = 1.0f;
  auto Fwd = [&] {
    Graph G;
    Mat *C = layerNorm(G, &X, &Gamma, &Beta);
    // Non-uniform weights make the check sensitive to normalization.
    float S = 0;
    for (size_t I = 0; I < C->size(); ++I)
      S += C->V[I] * static_cast<float>(I % 3);
    return S;
  };
  auto FwdBwd = [&] {
    Graph G;
    Mat *C = layerNorm(G, &X, &Gamma, &Beta);
    float S = 0;
    for (size_t I = 0; I < C->size(); ++I) {
      S += C->V[I] * static_cast<float>(I % 3);
      C->G[I] = static_cast<float>(I % 3);
    }
    G.backward();
    return S;
  };
  gradCheck(X, Fwd, FwdBwd);
  X.zeroGrad();
  Gamma.zeroGrad();
  gradCheck(Gamma, Fwd, FwdBwd);
}

TEST(Autograd, SoftmaxCausalGradient) {
  Mat X(5, 5);
  randomize(X, 6);
  auto Fwd = [&] {
    Graph G;
    Mat *C = softmaxRows(G, &X, /*Causal=*/true);
    float S = 0;
    for (size_t I = 0; I < C->size(); ++I)
      S += C->V[I] * static_cast<float>(I % 4);
    return S;
  };
  auto FwdBwd = [&] {
    Graph G;
    Mat *C = softmaxRows(G, &X, true);
    float S = 0;
    for (size_t I = 0; I < C->size(); ++I) {
      S += C->V[I] * static_cast<float>(I % 4);
      C->G[I] = static_cast<float>(I % 4);
    }
    G.backward();
    return S;
  };
  gradCheck(X, Fwd, FwdBwd);
}

TEST(Autograd, CrossEntropyGradient) {
  Mat Logits(4, 7);
  randomize(Logits, 7);
  std::vector<int> Targets = {1, 3, 0, 6};
  auto Fwd = [&] {
    Graph G;
    return crossEntropy(G, &Logits, Targets);
  };
  auto FwdBwd = [&] {
    Graph G;
    float L = crossEntropy(G, &Logits, Targets);
    G.backward();
    return L;
  };
  gradCheck(Logits, Fwd, FwdBwd, 1e-2f);
}

TEST(Autograd, CausalSoftmaxMasksFuture) {
  Mat X(3, 3);
  randomize(X, 8);
  Graph G;
  Mat *C = softmaxRows(G, &X, true);
  EXPECT_FLOAT_EQ(C->at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(C->at(0, 2), 0.0f);
  EXPECT_FLOAT_EQ(C->at(1, 2), 0.0f);
  EXPECT_FLOAT_EQ(C->at(0, 0), 1.0f);
  float Row1 = C->at(1, 0) + C->at(1, 1);
  EXPECT_NEAR(Row1, 1.0f, 1e-5f);
}

// -- tiled GEMM kernels vs. naive references ---------------------------------

void naiveGemmAcc(const float *A, const float *B, float *C, int M, int K,
                  int N) {
  for (int I = 0; I < M; ++I)
    for (int Kk = 0; Kk < K; ++Kk)
      for (int J = 0; J < N; ++J)
        C[static_cast<size_t>(I) * N + J] +=
            A[static_cast<size_t>(I) * K + Kk] *
            B[static_cast<size_t>(Kk) * N + J];
}

void naiveGemmAccNT(const float *A, const float *B, float *C, int M, int K,
                    int N) {
  for (int I = 0; I < M; ++I)
    for (int J = 0; J < N; ++J)
      for (int Kk = 0; Kk < K; ++Kk)
        C[static_cast<size_t>(I) * N + J] +=
            A[static_cast<size_t>(I) * K + Kk] *
            B[static_cast<size_t>(J) * K + Kk];
}

void naiveGemmAccTN(const float *A, const float *B, float *C, int M, int K,
                    int N) {
  for (int Kk = 0; Kk < K; ++Kk)
    for (int I = 0; I < M; ++I)
      for (int J = 0; J < N; ++J)
        C[static_cast<size_t>(I) * N + J] +=
            A[static_cast<size_t>(Kk) * M + I] *
            B[static_cast<size_t>(Kk) * N + J];
}

std::vector<float> randomVec(size_t N, uint64_t Seed) {
  SplitMix64 Rng(Seed);
  std::vector<float> V(N);
  for (float &X : V)
    X = static_cast<float>(Rng.normal());
  return V;
}

TEST(Gemm, TiledMatchesNaiveAcrossShapes) {
  // Odd and non-multiple-of-tile shapes exercise every edge path of the
  // register-blocked kernels.
  const int Sizes[] = {1, 3, 7, 17, 64, 100};
  uint64_t Seed = 1;
  for (int M : Sizes)
    for (int K : Sizes)
      for (int N : Sizes) {
        auto A = randomVec(static_cast<size_t>(M) * K, Seed++);
        auto B = randomVec(static_cast<size_t>(K) * N, Seed++);
        auto BT = randomVec(static_cast<size_t>(N) * K, Seed++);
        auto AT = randomVec(static_cast<size_t>(K) * M, Seed++);
        auto CInit = randomVec(static_cast<size_t>(M) * N, Seed++);
        float Tol = 1e-4f * static_cast<float>(K);

        std::vector<float> C1 = CInit, C2 = CInit;
        nn::gemmAcc(A.data(), B.data(), C1.data(), M, K, N);
        naiveGemmAcc(A.data(), B.data(), C2.data(), M, K, N);
        for (size_t I = 0; I < C1.size(); ++I)
          ASSERT_NEAR(C1[I], C2[I], Tol)
              << "gemmAcc " << M << "x" << K << "x" << N << " at " << I;

        C1 = CInit;
        C2 = CInit;
        nn::gemmAccNT(A.data(), BT.data(), C1.data(), M, K, N);
        naiveGemmAccNT(A.data(), BT.data(), C2.data(), M, K, N);
        for (size_t I = 0; I < C1.size(); ++I)
          ASSERT_NEAR(C1[I], C2[I], Tol)
              << "gemmAccNT " << M << "x" << K << "x" << N << " at " << I;

        C1 = CInit;
        C2 = CInit;
        nn::gemmAccTN(AT.data(), B.data(), C1.data(), M, K, N);
        naiveGemmAccTN(AT.data(), B.data(), C2.data(), M, K, N);
        for (size_t I = 0; I < C1.size(); ++I)
          ASSERT_NEAR(C1[I], C2[I], Tol)
              << "gemmAccTN " << M << "x" << K << "x" << N << " at " << I;
      }
}

TEST(Gemm, PrepackedMatchesUnpackedBitExact) {
  // Pre-packing is a pure layout change: on every PERSISTENT weight
  // shape the model pre-packs (fused QKV [D,3D], projections [D,D], FFN
  // [D,FF] / [FF,D], logits [D,Vocab] — all GemmTileN multiples),
  // gemmAccPacked over packBInto(B) must reproduce gemmAcc over
  // row-major B BYTE-for-byte: identical per-element K-order
  // accumulation through the same microkernel. And on EVERY shape
  // (including the ragged head-dim score packs, whose padded edge tile
  // legitimately rounds differently from gemmAcc's scalar edge path),
  // the intra-tick partitions — M-row ranges and N-column-tile ranges —
  // and the transposed pack must agree with the one-call packed result
  // bit-for-bit: that is the invariant the parallel splits rely on.
  struct Shape {
    int M, K, N;
  };
  const Shape Shapes[] = {
      {1, 64, 192}, {5, 64, 192},  // fused QKV, beam 1 / 5
      {4, 64, 64},  {5, 64, 64},   // Wo / cross projections
      {5, 64, 128}, {5, 128, 64},  // FF1 / FF2
      {1, 64, 512}, {5, 64, 512},  // logits over the tiny vocab
      {3, 16, 33},  {7, 48, 100},  // head-dim scores, ragged edges
  };
  uint64_t Seed = 9001;
  for (const Shape &S : Shapes) {
    auto A = randomVec(static_cast<size_t>(S.M) * S.K, Seed++);
    auto B = randomVec(static_cast<size_t>(S.K) * S.N, Seed++);
    auto CInit = randomVec(static_cast<size_t>(S.M) * S.N, Seed++);
    const size_t CBytes = CInit.size() * sizeof(float);
    auto Tag = [&] {
      return std::to_string(S.M) + "x" + std::to_string(S.K) + "x" +
             std::to_string(S.N);
    };

    PackedMat P;
    packBInto(B.data(), S.K, S.N, P);
    std::vector<float> Packed = CInit;
    gemmAccPacked(A.data(), P, Packed.data(), S.M);

    if (S.N % GemmTileN == 0) {
      // Weight shapes: the packed kernel IS the unpacked kernel, bit
      // for bit (no edge path on either side).
      std::vector<float> Ref = CInit;
      nn::gemmAcc(A.data(), B.data(), Ref.data(), S.M, S.K, S.N);
      ASSERT_EQ(0, std::memcmp(Ref.data(), Packed.data(), CBytes))
          << "packed vs unpacked " << Tag();
    } else {
      // Ragged shapes: epsilon agreement with the naive oracle.
      std::vector<float> Ref = CInit;
      naiveGemmAcc(A.data(), B.data(), Ref.data(), S.M, S.K, S.N);
      float Tol = 1e-4f * static_cast<float>(S.K);
      for (size_t I = 0; I < Packed.size(); ++I)
        ASSERT_NEAR(Packed[I], Ref[I], Tol) << Tag() << " at " << I;
    }

    // Column-tile split halves — the intra-tick N partition.
    std::vector<float> TileSplit = CInit;
    int Mid = P.tileCount() / 2;
    gemmAccPackedTiles(A.data(), P, TileSplit.data(), S.M, 0, Mid);
    gemmAccPackedTiles(A.data(), P, TileSplit.data(), S.M, Mid,
                       P.tileCount());
    ASSERT_EQ(0, std::memcmp(Packed.data(), TileSplit.data(), CBytes))
        << "tile-split " << Tag();

    // Row-range split — the intra-tick M partition (linearRows).
    for (int Chunk : {1, 2}) {
      std::vector<float> RowSplit = CInit;
      for (int I0 = 0; I0 < S.M; I0 += Chunk)
        gemmAccPacked(A.data() + static_cast<size_t>(I0) * S.K, P,
                      RowSplit.data() + static_cast<size_t>(I0) * S.N,
                      std::min(Chunk, S.M - I0));
      ASSERT_EQ(0, std::memcmp(Packed.data(), RowSplit.data(), CBytes))
          << "row-split " << Tag() << " chunk " << Chunk;
    }

    // The transposed pack (gemmAccNT's pre-pack form) agrees too.
    std::vector<float> BT(B.size());
    for (int Kk = 0; Kk < S.K; ++Kk)
      for (int J = 0; J < S.N; ++J)
        BT[static_cast<size_t>(J) * S.K + Kk] =
            B[static_cast<size_t>(Kk) * S.N + J];
    PackedMat PT;
    packBTransposedInto(BT.data(), S.N, S.K, PT);
    std::vector<float> PackedT = CInit;
    gemmAccPacked(A.data(), PT, PackedT.data(), S.M);
    ASSERT_EQ(0, std::memcmp(Packed.data(), PackedT.data(), CBytes))
        << "transposed pack " << Tag();
  }
}

TEST(Parallel, RunCoversRangeExactlyOnce) {
  // Disjoint chunk cover of [0, N): every index exactly once, chunk ids
  // dense from 0, chunk 0 on the calling thread, and the regions counter
  // bumps only on real fan-out.
  ParallelFor TP(4);
  EXPECT_EQ(TP.threads(), 4);
  for (int N : {1, 3, 4, 7, 103}) {
    std::vector<int> Hits(static_cast<size_t>(N), 0);
    uint64_t R0 = TP.regions();
    TP.run(N, [&](int B, int E, int Chunk) {
      EXPECT_GE(Chunk, 0);
      EXPECT_LT(Chunk, TP.threads());
      for (int I = B; I < E; ++I)
        Hits[static_cast<size_t>(I)]++; // Disjoint ranges: no race.
    });
    for (int I = 0; I < N; ++I)
      EXPECT_EQ(Hits[static_cast<size_t>(I)], 1) << "N=" << N << " I=" << I;
    if (N > 1)
      EXPECT_EQ(TP.regions(), R0 + 1) << "N=" << N;
    else
      EXPECT_EQ(TP.regions(), R0) << "N=1 runs inline, no region";
  }
  // A one-thread pool never fans out and never counts regions.
  ParallelFor Solo(1);
  EXPECT_EQ(Solo.threads(), 1);
  int Calls = 0;
  Solo.run(64, [&](int B, int E, int Chunk) {
    ++Calls;
    EXPECT_EQ(B, 0);
    EXPECT_EQ(E, 64);
    EXPECT_EQ(Chunk, 0);
  });
  EXPECT_EQ(Calls, 1);
  EXPECT_EQ(Solo.regions(), 0u);
}

TEST(Graph, InferenceModeSkipsGradients) {
  Graph G(/*Inference=*/true);
  Mat A(2, 3), B(3, 4);
  randomize(A, 11);
  randomize(B, 12);
  Mat *C = matmul(G, &A, &B);
  EXPECT_TRUE(C->G.empty()) << "inference intermediates carry no gradients";
  EXPECT_EQ(C->R, 2);
  EXPECT_EQ(C->C, 4);
  // backward over an empty tape is a no-op, not a crash.
  G.backward();
}

TransformerConfig tinyConfig() {
  TransformerConfig Cfg;
  Cfg.Vocab = 40;
  Cfg.DModel = 16;
  Cfg.NHeads = 2;
  Cfg.FF = 32;
  Cfg.EncLayers = 1;
  Cfg.DecLayers = 1;
  Cfg.MaxLen = 32;
  return Cfg;
}

/// A one-source batched state holding \p Enc's BOS row, with room for
/// \p K beams over \p Steps positions.
Transformer::BatchDecodeState
oneSourceState(const Transformer &Model,
               std::shared_ptr<const Transformer::EncoderCache> Enc, int K,
               int Steps) {
  Transformer::BatchDecodeState St = Model.startDecodeStream(1, K, Steps);
  Model.admitStreamRow(St, 0, std::move(Enc));
  return St;
}

TEST(Transformer, OverfitsOnePair) {
  Transformer Model(tinyConfig());
  AdamW::Config AC;
  AC.LR = 1e-2f;
  AC.WarmupSteps = 10;
  AdamW Opt(Model.params(), AC);
  std::vector<int> Src = {5, 6, 7, 8, 9};
  std::vector<int> Tgt = {10, 11, 12, 13};
  float First = 0, Last = 0;
  for (int Step = 0; Step < 120; ++Step) {
    Graph G;
    float L = Model.pairLoss(G, Src, Tgt, true);
    if (Step == 0)
      First = L;
    Last = L;
    G.backward();
    Opt.step();
  }
  EXPECT_LT(Last, First * 0.2f) << "loss must collapse when memorizing";
  // And the decode must reproduce the memorized target.
  BeamConfig BC;
  BC.BeamSize = 1;
  BC.MaxLen = 16;
  auto Hyps = beamSearch(Model, Src, BC);
  ASSERT_FALSE(Hyps.empty());
  EXPECT_EQ(Hyps[0].Tokens, Tgt);
}

TEST(Transformer, BatchedStepMatchesSequentialStep) {
  // One beam through the batched path must reproduce the sequential
  // KV-cached path step for step.
  Transformer Model(tinyConfig());
  std::vector<int> Src = {7, 3, 9, 4, 5};
  std::vector<int> Feed = {Transformer::BosId, 11, 12, 13, 14};
  Transformer::DecodeState Seq = Model.startDecode(Src);
  Transformer::BatchDecodeState Bat =
      oneSourceState(Model, Model.encodeSource(Src), 1, 16);
  for (int T : Feed) {
    std::vector<float> L1 = Model.stepDecode(Seq, T);
    std::vector<float> L2 = Model.stepDecodeBatch(Bat, {T});
    ASSERT_EQ(L1.size(), L2.size());
    for (size_t I = 0; I < L1.size(); ++I)
      ASSERT_NEAR(L1[I], L2[I], 1e-4f) << "token " << T << " logit " << I;
  }
}

TEST(Transformer, ReorderBeamsGathersSelfCache) {
  // Three beams fed different tokens, then survivor-selected [2, 0, 2]:
  // each reordered row must continue exactly like a sequential state that
  // decoded the same token history.
  Transformer Model(tinyConfig());
  std::vector<int> Src = {4, 5, 6, 7};
  auto Enc = Model.encodeSource(Src);
  Transformer::BatchDecodeState Bat = oneSourceState(Model, Enc, 3, 16);
  Model.stepDecodeBatch(Bat, {Transformer::BosId});
  Model.reorderBeams(Bat, {0, 0, 0});
  Model.stepDecodeBatch(Bat, {10, 11, 12});
  Model.reorderBeams(Bat, {2, 0, 2});
  std::vector<float> L = Model.stepDecodeBatch(Bat, {20, 21, 22});

  const std::vector<std::vector<int>> Histories = {
      {Transformer::BosId, 12, 20},
      {Transformer::BosId, 10, 21},
      {Transformer::BosId, 12, 22}};
  int V = Model.config().Vocab;
  for (size_t BI = 0; BI < Histories.size(); ++BI) {
    Transformer::DecodeState Seq = Model.startDecode(Src);
    std::vector<float> Want;
    for (int T : Histories[BI])
      Want = Model.stepDecode(Seq, T);
    for (int J = 0; J < V; ++J)
      ASSERT_NEAR(Want[static_cast<size_t>(J)],
                  L[BI * static_cast<size_t>(V) + J], 1e-4f)
          << "beam " << BI << " logit " << J;
  }
}

TEST(Transformer, BatchedBeamMatchesSequentialBeam) {
  // The batched hot path and the retained sequential reference must agree
  // on hypotheses: identical token outputs, scores within 1e-4.
  Transformer Model(tinyConfig());
  std::vector<std::vector<int>> Sources = {
      {4, 5, 6}, {9, 8, 7, 6, 5}, {30, 2, 17, 21}, {3}};
  for (int K : {1, 2, 3, 5}) {
    BeamConfig BC;
    BC.BeamSize = K;
    BC.MaxLen = 14;
    for (const auto &Src : Sources) {
      auto Batched = beamSearch(Model, Src, BC);
      auto Sequential = beamSearchSequential(Model, Src, BC);
      ASSERT_EQ(Batched.size(), Sequential.size())
          << "k=" << K << " src0=" << Src[0];
      for (size_t I = 0; I < Batched.size(); ++I) {
        EXPECT_EQ(Batched[I].Tokens, Sequential[I].Tokens)
            << "k=" << K << " hyp " << I;
        EXPECT_NEAR(Batched[I].Score, Sequential[I].Score, 1e-4f);
      }
    }
  }
}

TEST(Transformer, BatchedBeamMatchesSequentialAfterTraining) {
  // Same check on a briefly trained model: a peaked distribution ends
  // hypotheses early and exercises the EOS/finished-beam paths.
  Transformer Model(tinyConfig());
  AdamW::Config AC;
  AC.LR = 1e-2f;
  AC.WarmupSteps = 10;
  AdamW Opt(Model.params(), AC);
  std::vector<int> Src = {5, 6, 7, 8};
  std::vector<int> Tgt = {10, 11, 12};
  for (int StepI = 0; StepI < 60; ++StepI) {
    Graph G;
    Model.pairLoss(G, Src, Tgt, true);
    G.backward();
    Opt.step();
  }
  BeamConfig BC;
  BC.BeamSize = 5;
  BC.MaxLen = 12;
  auto Batched = beamSearch(Model, Src, BC);
  auto Sequential = beamSearchSequential(Model, Src, BC);
  ASSERT_EQ(Batched.size(), Sequential.size());
  for (size_t I = 0; I < Batched.size(); ++I) {
    EXPECT_EQ(Batched[I].Tokens, Sequential[I].Tokens) << "hyp " << I;
    EXPECT_NEAR(Batched[I].Score, Sequential[I].Score, 1e-4f);
  }
  // The trained target must be the top hypothesis of both paths.
  EXPECT_EQ(Batched[0].Tokens, Tgt);
}

/// Asserts two encoder caches are BYTE-identical (memcmp, not epsilon):
/// the graph-free fast path's contract against the training-graph oracle.
void expectCachesBitExact(const Transformer::EncoderCache &Fast,
                          const Transformer::EncoderCache &Ref,
                          const char *Tag) {
  ASSERT_EQ(Fast.TSrc, Ref.TSrc) << Tag;
  ASSERT_EQ(Fast.EncOut.size(), Ref.EncOut.size()) << Tag;
  EXPECT_EQ(0, std::memcmp(Fast.EncOut.data(), Ref.EncOut.data(),
                           Fast.EncOut.size() * sizeof(float)))
      << Tag << ": EncOut diverges";
  // On memcmp failure, pin down the first mismatching element.
  for (size_t I = 0; I < Fast.EncOut.size(); ++I)
    ASSERT_EQ(Fast.EncOut[I], Ref.EncOut[I]) << Tag << " EncOut[" << I
                                             << "]";
  ASSERT_EQ(Fast.CrossKT.size(), Ref.CrossKT.size()) << Tag;
  for (size_t L = 0; L < Fast.CrossKT.size(); ++L) {
    EXPECT_EQ(Fast.CrossKT[L], Ref.CrossKT[L]) << Tag << " CrossKT layer "
                                             << L;
    EXPECT_EQ(Fast.CrossV[L], Ref.CrossV[L]) << Tag << " CrossV layer "
                                             << L;
  }
}

TEST(InferRuntime, EncodeSourceBitExactVsGraphAcrossLengths) {
  // The graph-free encoder must reproduce the training-graph path
  // byte-for-byte: same kernels, same op order, only the execution
  // substrate differs. Lengths cover a single token, a short function,
  // and a 300-token optimized-assembly-sized source (plus the MaxLen
  // truncation path).
  TransformerConfig Cfg;
  Cfg.Vocab = 96;
  Cfg.DModel = 32;
  Cfg.NHeads = 4; // Dh = 8: exercises the vectorized attention widths.
  Cfg.FF = 48;
  Cfg.EncLayers = 2;
  Cfg.DecLayers = 2;
  Cfg.MaxLen = 320;
  Transformer Model(Cfg);
  for (int T : {1, 17, 300, 400 /* truncated to MaxLen */}) {
    std::vector<int> Src;
    for (int I = 0; I < T; ++I)
      Src.push_back(3 + (I * 7 + T) % (Cfg.Vocab - 3));
    auto Fast = Model.encodeSource(Src);
    auto Ref = Model.encodeSourceGraph(Src);
    expectCachesBitExact(*Fast, *Ref,
                         ("T=" + std::to_string(T)).c_str());
    // Both paths borrow the same shared constants object.
    EXPECT_EQ(Fast->Consts.get(), Ref->Consts.get());
  }
}

TEST(InferRuntime, EncodeSourceBitExactAfterTrainStep) {
  // A weight update must invalidate the decode constants AND leave the
  // fast path bit-identical to the oracle on the NEW weights — a stale
  // scratch or constants cache would diverge here.
  TransformerConfig Cfg = tinyConfig();
  Transformer Model(Cfg);
  std::vector<int> Src = {5, 6, 7, 8, 9, 10, 11};
  auto Before = Model.encodeSource(Src);
  uint64_t V0 = Model.weightVersion();

  AdamW::Config AC;
  AC.LR = 1e-2f;
  AC.WarmupSteps = 10;
  AdamW Opt(Model.params(), AC, &Model);
  std::vector<int> Tgt = {12, 13, 14};
  for (int Step = 0; Step < 5; ++Step) {
    Graph G;
    Model.pairLoss(G, Src, Tgt, true);
    G.backward();
    Opt.step();
  }
  ASSERT_GT(Model.weightVersion(), V0);

  auto Fast = Model.encodeSource(Src);
  auto Ref = Model.encodeSourceGraph(Src);
  expectCachesBitExact(*Fast, *Ref, "after-train");
  EXPECT_EQ(Fast->Consts->Version, Model.weightVersion());
  EXPECT_NE(Fast->Consts.get(), Before->Consts.get())
      << "constants must be rebuilt for the new weight version";
  EXPECT_NE(Fast->EncOut, Before->EncOut)
      << "training must actually have moved the encoder output";
}

TEST(InferRuntime, ExplicitScratchReuseMatchesPooledPath) {
  // Caller-owned EncodeScratch across differently sized sources: buffer
  // reuse (stale tails from a longer previous encode) must not leak into
  // a shorter encode's results.
  TransformerConfig Cfg = tinyConfig();
  Transformer Model(Cfg);
  InferRuntime RT(Model);
  EncodeScratch S;
  std::vector<int> Long = {9, 8, 7, 6, 5, 4, 3, 2, 1, 9, 8, 7};
  std::vector<int> Short = {4, 5, 6};
  Transformer::EncoderCache Out;
  RT.encodeInto(Long, S, Out);
  size_t BytesAfterLong = S.bytes();
  EXPECT_GT(BytesAfterLong, 0u);
  RT.encodeInto(Short, S, Out); // Reuses the larger buffers.
  RT.finishEncoderCache(Out);
  EXPECT_EQ(S.bytes(), BytesAfterLong) << "ensure() never shrinks";
  auto Ref = Model.encodeSourceGraph(Short);
  expectCachesBitExact(Out, *Ref, "scratch-reuse");
}

TEST(InferRuntime, EncodeSourceBitExactAcrossTickThreads) {
  // The intra-tick pool partitions encoder row/tile ranges only — never
  // a reduction — so any thread count must reproduce the sequential
  // encode BYTE-for-byte, across lengths that hit every edge path.
  TransformerConfig Cfg;
  Cfg.Vocab = 96;
  Cfg.DModel = 32;
  Cfg.NHeads = 4;
  Cfg.FF = 48;
  Cfg.EncLayers = 2;
  Cfg.DecLayers = 2;
  Cfg.MaxLen = 320;
  Transformer Model(Cfg);
  for (int T : {1, 5, 17, 300}) {
    std::vector<int> Src;
    for (int I = 0; I < T; ++I)
      Src.push_back(3 + (I * 5 + T) % (Cfg.Vocab - 3));
    auto Seq = Model.encodeSource(Src);
    for (int Threads : {2, 4}) {
      ParallelFor TP(Threads);
      auto Par = Model.encodeSource(Src, &TP);
      expectCachesBitExact(*Par, *Seq,
                           ("T=" + std::to_string(T) + " threads=" +
                            std::to_string(Threads))
                               .c_str());
    }
  }
}

TEST(InferRuntime, CrossGroupKernelBitExactVsPerRowKernel) {
  // The AVX2 group kernel over transposed keys must give every row the
  // bits the per-row kernel (still used by self-attention) gives it over
  // row-major keys: outputs, and the softmax numerators it leaves in the
  // caller's score rows (one row per group member, in the slab passed
  // in). Head widths 8..32, source lengths around the 8-wide padding,
  // and group sizes on both sides of the value pass's row blocks.
#ifndef SLADE_SIMD_EXP
  GTEST_SKIP() << "the bit-exact kernel pair is the AVX2+FMA build's";
#endif
  const int H = 2;
  for (int Dh : {8, 16, 24, 32}) {
    const int D = H * Dh;
    const float InvS = 1.0f / std::sqrt(static_cast<float>(Dh));
    for (int T : {1, 7, 8, 9, 246}) {
      size_t KStride = static_cast<size_t>(crossKStride(T));
      std::vector<float> K = randomVec(static_cast<size_t>(T) * D, 11 + T);
      std::vector<float> V = randomVec(static_cast<size_t>(T) * D, 13 + T);
      std::vector<float> KT(static_cast<size_t>(D) * KStride, 0.0f);
      for (int Tt = 0; Tt < T; ++Tt)
        for (int J = 0; J < D; ++J)
          KT[static_cast<size_t>(J) * KStride + Tt] =
              K[static_cast<size_t>(Tt) * D + J];
      for (int G : {1, 2, 3, 4, 5, 9}) {
        std::string Tag = "Dh=" + std::to_string(Dh) +
                          " T=" + std::to_string(T) +
                          " G=" + std::to_string(G);
        std::vector<float> Q =
            randomVec(static_cast<size_t>(G) * D, 17 + G * 31 + T);
        std::vector<float> Want(static_cast<size_t>(G) * D);
        std::vector<float> WantScores(static_cast<size_t>(G) * H * T);
        for (int Gi = 0; Gi < G; ++Gi)
          attendCachedDyn(
              Q.data() + static_cast<size_t>(Gi) * D,
              Want.data() + static_cast<size_t>(Gi) * D, T, H, Dh, InvS,
              WantScores.data() + static_cast<size_t>(Gi) * H * T, T,
              [&](int Tt) { return K.data() + static_cast<size_t>(Tt) * D; },
              [&](int Tt) { return V.data() + static_cast<size_t>(Tt) * D; });
        std::vector<float> Got(static_cast<size_t>(G) * D, -7.0f);
        std::vector<float> Slab(static_cast<size_t>(G) * KStride);
        for (int Hd = 0; Hd < H; ++Hd) {
          crossAttendGroup(Q.data(), Got.data(), G, D, Dh, Hd, KT.data(),
                           KStride, V.data(), T, InvS, Slab.data(), KStride);
          for (int Gi = 0; Gi < G; ++Gi)
            ASSERT_EQ(0, std::memcmp(
                             Slab.data() + static_cast<size_t>(Gi) * KStride,
                             WantScores.data() +
                                 (static_cast<size_t>(Gi) * H + Hd) * T,
                             static_cast<size_t>(T) * sizeof(float)))
                << Tag << " head " << Hd << " row " << Gi << " scores";
        }
        ASSERT_EQ(0, std::memcmp(Got.data(), Want.data(),
                                 Want.size() * sizeof(float)))
            << Tag << " outputs";
      }
    }
  }
}

TEST(SimdExp, DoubleExpWithinTwoUlpAndFlushesBelowRange) {
  // Beam selection sums exp256Pd(x) for x = logit - max <= 0. Wherever a
  // term can reach that sum (x >= -708) it must be within 2 ULP of a long
  // double reference; below -708 the kernel flushes to exactly +0.0, and
  // NaN stays NaN.
#ifndef SLADE_SIMD_EXP
  GTEST_SKIP() << "exp256Pd is the AVX2+FMA build's";
#else
  std::vector<double> In = {0.0, -0.0, -1e-300, -5e-324, -708.0};
  const long double Ln2 = 0.693147180559945309417232121458176568L;
  for (int K = 0; K <= 1021; ++K) {
    // Around the reduction's breakpoints: n ln2 and (n + 1/2) ln2.
    for (long double Y : {K * Ln2, (K + 0.5L) * Ln2})
      for (double D : {-1e-9, 0.0, 1e-9}) {
        double X = static_cast<double>(-Y) + D;
        if (X <= 0 && X >= -708.0)
          In.push_back(X);
      }
  }
  for (int I = 0; I <= 200000; ++I)
    In.push_back(-708.0 * I / 200000);
  SplitMix64 Rng(11);
  for (int I = 0; I < 200000; ++I) {
    double U = static_cast<double>(Rng.next() >> 11) * 0x1p-53;
    In.push_back(-708.0 * U);
    // The kernel's real inputs: float differences, dense near 0.
    In.push_back(static_cast<double>(static_cast<float>(-30.0 * U)));
  }
  auto Run = [](const std::vector<double> &X) {
    std::vector<double> Y(X.size() + 3);
    std::vector<double> Pad(X);
    Pad.resize(Y.size(), 0.0);
    for (size_t I = 0; I < X.size(); I += 4)
      _mm256_storeu_pd(&Y[I], exp256Pd(_mm256_loadu_pd(&Pad[I])));
    Y.resize(X.size());
    return Y;
  };
  std::vector<double> Out = Run(In);
  double Worst = 0;
  for (size_t I = 0; I < In.size(); ++I) {
    long double Ref = std::exp(static_cast<long double>(In[I]));
    double Ulp = std::ldexp(1.0, std::ilogb(static_cast<double>(Ref)) - 52);
    double Err =
        static_cast<double>(std::fabs(static_cast<long double>(Out[I]) - Ref) /
                            Ulp);
    ASSERT_LE(Err, 2.0) << "exp(" << In[I] << ") = " << Out[I];
    Worst = std::max(Worst, Err);
  }
  RecordProperty("worst_ulp", std::to_string(Worst));

  const std::vector<double> Flush = {
      std::nextafter(-708.0, -1e9), -708.5, -709.0, -745.2, -746.0, -1e30,
      -1e300, -INFINITY};
  std::vector<double> Zero = Run(Flush);
  const double PlusZero = 0.0;
  for (size_t I = 0; I < Flush.size(); ++I)
    EXPECT_EQ(0, std::memcmp(&Zero[I], &PlusZero, sizeof(double)))
        << "exp(" << Flush[I] << ") = " << Zero[I];
  EXPECT_TRUE(std::isnan(Run({std::nan("")})[0]));
#endif
}

TEST(InferRuntime, CrossKeysAreTransposedPaddedAndCounted) {
  // Cross-K is stored once per layer as [D][crossKStride(T)], zero past
  // T, and EncoderCache::bytes() charges the padded size (the EncoderLRU
  // budget sees what is really held).
  TransformerConfig Cfg = tinyConfig();
  Transformer Model(Cfg);
  for (int T : {1, 7, 8, 9}) {
    std::vector<int> Src;
    for (int I = 0; I < T; ++I)
      Src.push_back(3 + (I * 5 + T) % (Cfg.Vocab - 3));
    auto Enc = Model.encodeSource(Src);
    size_t KStride = static_cast<size_t>(crossKStride(T));
    EXPECT_EQ(KStride % 8, 0u);
    size_t Want = sizeof(Transformer::EncoderCache) +
                  Enc->EncOut.capacity() * sizeof(float);
    ASSERT_EQ(Enc->CrossKT.size(), static_cast<size_t>(Cfg.DecLayers));
    for (size_t L = 0; L < Enc->CrossKT.size(); ++L) {
      const std::vector<float> &KT = Enc->CrossKT[L];
      ASSERT_EQ(KT.size(), static_cast<size_t>(Cfg.DModel) * KStride)
          << "T=" << T;
      for (size_t J = 0; J < static_cast<size_t>(Cfg.DModel); ++J)
        for (size_t Tt = static_cast<size_t>(T); Tt < KStride; ++Tt)
          EXPECT_EQ(KT[J * KStride + Tt], 0.0f) << "T=" << T;
      Want += (KT.capacity() + Enc->CrossV[L].capacity()) * sizeof(float);
    }
    EXPECT_EQ(Enc->bytes(), Want) << "T=" << T;
  }
}

TEST(Transformer, BatchedStepBitExactAcrossTickThreads) {
  // Five beams stepped through the batched decoder with the per-shard
  // pool installed (BatchDecodeState::TP): logits must be byte-identical
  // to the sequential path at every thread count and every step.
  // Second half: the same across cross-attention group layouts.
  TransformerConfig Cfg = tinyConfig();
  Transformer Model(Cfg);
  std::vector<int> Src = {7, 3, 9, 4, 5, 8, 6};
  auto Enc = Model.encodeSource(Src);
  const int B = 5, Steps = 6;

  auto RunSteps = [&](ParallelFor *TP) {
    Transformer::BatchDecodeState St = oneSourceState(Model, Enc, B, 16);
    St.TP = TP;
    Model.stepDecodeBatch(St, {Transformer::BosId});
    Model.reorderBeams(St, {0, 0, 0, 0, 0});
    std::vector<std::vector<float>> Logits;
    std::vector<int> Feed(B, Transformer::BosId);
    for (int S = 0; S < Steps; ++S) {
      Logits.push_back(Model.stepDecodeBatch(St, Feed));
      EXPECT_EQ(Logits.back().size(), static_cast<size_t>(B) * Cfg.Vocab);
      for (int R = 0; R < B; ++R) // Diverge the rows deterministically.
        Feed[R] = 3 + (S * B + R) % (Cfg.Vocab - 3);
    }
    return Logits;
  };

  auto Seq = RunSteps(nullptr);
  for (int Threads : {2, 4}) {
    ParallelFor TP(Threads);
    auto Par = RunSteps(&TP);
    ASSERT_EQ(Par.size(), Seq.size());
    for (size_t S = 0; S < Seq.size(); ++S) {
      ASSERT_EQ(Par[S].size(), Seq[S].size());
      ASSERT_EQ(0, std::memcmp(Par[S].data(), Seq[S].data(),
                               Seq[S].size() * sizeof(float)))
          << "threads=" << Threads << " step=" << S;
    }
    EXPECT_GT(TP.regions(), 0u) << "the pool must actually have fanned out";
  }

  // Cross-attention groups (adjacent rows sharing an EncoderCache): a
  // row's logits must not depend on its group. Rows of 1..5 beams per
  // source, with two segments of source A laid out contiguous (one group
  // of up to 10 rows) and interleaved with source B, at every tick-thread
  // count, must equal a one-row decode of the same token history.
  auto EncA = Model.encodeSource({7, 3, 9, 4, 5, 8, 6, 2, 9}); // T = 9.
  auto EncB = Model.encodeSource({4, 5, 6, 7, 8, 9, 10});      // T = 7.
  auto TokenOf = [&](int Seg, int Beam, int Step) {
    return 3 + (Seg * 7 + Beam * 3 + Step * 5) % (Cfg.Vocab - 3);
  };
  using Layout =
      std::vector<std::shared_ptr<const Transformer::EncoderCache>>;
  const Layout Layouts[] = {{EncA, EncA, EncB}, {EncA, EncB, EncA}};
  for (int K = 1; K <= 5; ++K) {
    for (const Layout &Encs : Layouts) {
      // Reference: every (segment, beam) decoded alone, one row.
      std::vector<std::vector<std::vector<float>>> Ref(Encs.size() * K);
      for (size_t S = 0; S < Encs.size(); ++S)
        for (int R = 0; R < K; ++R) {
          Transformer::BatchDecodeState St =
              oneSourceState(Model, Encs[S], 1, 16);
          Model.stepDecodeBatch(St, {Transformer::BosId});
          for (int Step = 0; Step < 4; ++Step)
            Ref[S * K + R].push_back(Model.stepDecodeBatch(
                St, {TokenOf(static_cast<int>(S), R, Step)}));
        }
      for (int Threads : {1, 2, 4}) {
        ParallelFor TP(Threads);
        // The engine's calls: one segment per source, each admitted with
        // its BOS row.
        Transformer::BatchDecodeState St =
            Model.startDecodeStream(static_cast<int>(Encs.size()), K, 16);
        St.TP = &TP;
        for (size_t S = 0; S < Encs.size(); ++S)
          ASSERT_EQ(Model.admitStreamRow(St, static_cast<int>(S), Encs[S]),
                    static_cast<int>(S));
        Model.stepDecodeBatch(
            St, std::vector<int>(Encs.size(), Transformer::BosId));
        std::vector<int> Fan;
        for (size_t S = 0; S < Encs.size(); ++S)
          Fan.insert(Fan.end(), static_cast<size_t>(K), static_cast<int>(S));
        Model.reorderBeams(St, Fan);
        for (int Step = 0; Step < 4; ++Step) {
          std::vector<int> Feed;
          for (size_t S = 0; S < Encs.size(); ++S)
            for (int R = 0; R < K; ++R)
              Feed.push_back(TokenOf(static_cast<int>(S), R, Step));
          std::vector<float> L = Model.stepDecodeBatch(St, Feed);
          for (size_t Row = 0; Row < Feed.size(); ++Row)
            ASSERT_EQ(0, std::memcmp(L.data() + Row * Cfg.Vocab,
                                     Ref[Row][static_cast<size_t>(Step)]
                                         .data(),
                                     Cfg.Vocab * sizeof(float)))
                << "K=" << K << " layout "
                << (Encs[1] == EncA ? "contiguous" : "interleaved")
                << " threads=" << Threads << " step=" << Step
                << " row=" << Row;
        }
      }
    }
  }
}

TEST(Transformer, TrainStepInvalidatesPackedWeights) {
  // bumpWeightVersion() is THE single invalidation path: an optimizer
  // step must drop the cached PackedWeights alongside DecodeConstants,
  // and the next forward must rebuild from the NEW weights — verified
  // against the training-graph oracle, which reads raw weights and can
  // never see a stale pack.
  TransformerConfig Cfg = tinyConfig();
  Transformer Model(Cfg);
  std::vector<int> Src = {5, 6, 7, 8, 9};
  auto P0 = Model.packedWeights();
  EXPECT_EQ(P0->Version, Model.weightVersion());
  EXPECT_EQ(Model.packedWeights().get(), P0.get())
      << "same version must reuse the cached pack";
  Model.encodeSource(Src);
  Transformer::PackCacheStats S0 = Model.packCacheStats();
  EXPECT_EQ(S0.PackBuilds, 1u) << "one pack build serves every encode";
  EXPECT_GT(S0.PackedBytes, 0u);

  AdamW::Config AC;
  AC.LR = 1e-2f;
  AC.WarmupSteps = 10;
  AdamW Opt(Model.params(), AC, &Model);
  std::vector<int> Tgt = {12, 13, 14};
  for (int Step = 0; Step < 3; ++Step) {
    Graph G;
    Model.pairLoss(G, Src, Tgt, true);
    G.backward();
    Opt.step();
  }
  EXPECT_GT(Model.weightVersion(), P0->Version);

  // The post-step forward rebuilds (exactly once) and matches the
  // oracle bit-for-bit on the new weights.
  auto Fast = Model.encodeSource(Src);
  auto Ref = Model.encodeSourceGraph(Src);
  expectCachesBitExact(*Fast, *Ref, "post-step");
  auto P1 = Model.packedWeights();
  EXPECT_NE(P1.get(), P0.get());
  EXPECT_EQ(P1->Version, Model.weightVersion());
  Transformer::PackCacheStats S1 = Model.packCacheStats();
  EXPECT_EQ(S1.PackBuilds, S0.PackBuilds + 1);
  EXPECT_EQ(S1.ConstBuilds, S0.ConstBuilds + 1);
}

TEST(Transformer, DecodeConstantsSharedAcrossSources) {
  // The fused QKV weights and transposed embedding depend only on the
  // weights: every encoded source must borrow the same copy instead of
  // rebuilding it per request.
  Transformer Model(tinyConfig());
  auto E1 = Model.encodeSource({4, 5, 6});
  auto E2 = Model.encodeSource({9, 8, 7, 6});
  ASSERT_NE(E1->Consts, nullptr);
  EXPECT_EQ(E1->Consts.get(), E2->Consts.get());
  EXPECT_EQ(E1->Consts->Version, Model.weightVersion());
}

TEST(Transformer, TrainStepRebuildsDecodeConstants) {
  // An optimizer step bumps the weight version; the next decode must
  // rebuild the constants from the new weights and still agree with the
  // sequential path (which reads the raw weights directly) — a stale
  // cache would diverge.
  Transformer Model(tinyConfig());
  std::vector<int> Src = {5, 6, 7, 8};
  uint64_t V0 = Model.weightVersion();
  auto Before = Model.encodeSource(Src);

  AdamW::Config AC;
  AC.LR = 1e-2f;
  AC.WarmupSteps = 10;
  AdamW Opt(Model.params(), AC, &Model);
  std::vector<int> Tgt = {10, 11, 12};
  for (int Step = 0; Step < 30; ++Step) {
    Graph G;
    Model.pairLoss(G, Src, Tgt, true);
    G.backward();
    Opt.step();
  }
  EXPECT_GT(Model.weightVersion(), V0);

  auto After = Model.encodeSource(Src);
  EXPECT_NE(Before->Consts.get(), After->Consts.get());
  EXPECT_EQ(After->Consts->Version, Model.weightVersion());

  // Cached-constants decode vs. the raw-weight sequential reference.
  BeamConfig BC;
  BC.BeamSize = 3;
  BC.MaxLen = 10;
  auto Batched = beamSearch(Model, Src, BC);
  auto Sequential = beamSearchSequential(Model, Src, BC);
  ASSERT_EQ(Batched.size(), Sequential.size());
  for (size_t I = 0; I < Batched.size(); ++I) {
    EXPECT_EQ(Batched[I].Tokens, Sequential[I].Tokens) << "hyp " << I;
    EXPECT_NEAR(Batched[I].Score, Sequential[I].Score, 1e-4f);
  }
}

TEST(Transformer, StreamingJoinLeaveRecyclingBitExactLogits) {
  // The continuous-batching substrate: per-SOURCE decode clocks
  // (SegLen). A source admitted mid-flight, a source retiring while
  // others continue, and a new source recycling a retired source's
  // segment must all produce logits BIT-IDENTICAL to a solo decode of
  // that source — position embeddings, self-K/V slots, and ancestry all
  // follow the row's own clock, never the batch's.
  Transformer Model(tinyConfig());
  std::vector<std::vector<int>> Sources = {
      {4, 5, 6, 7, 8}, {9, 8, 7}, {30, 2, 17, 21, 11, 12}};
  std::vector<std::shared_ptr<const Transformer::EncoderCache>> Encs;
  for (const auto &Src : Sources)
    Encs.push_back(Model.encodeSource(Src));
  int Vocab = Model.config().Vocab;

  // Solo oracle: per source, the logits of feeding BOS, 3, 4, 5, ...
  auto SoloLogits = [&](size_t S, int Steps) {
    Transformer::BatchDecodeState St =
        oneSourceState(Model, Encs[S], 1, Steps + 1);
    std::vector<std::vector<float>> Out;
    Out.push_back(Model.stepDecodeBatch(St, {Transformer::BosId}));
    for (int T = 0; T < Steps - 1; ++T)
      Out.push_back(Model.stepDecodeBatch(St, {3 + T}));
    return Out;
  };
  std::vector<std::vector<std::vector<float>>> Solo;
  for (size_t S = 0; S < Sources.size(); ++S)
    Solo.push_back(SoloLogits(S, 6));

  // Streamed schedule over TWO segments (sources join/leave/recycle):
  //   tick 1: [A]       A admitted (seg 0)
  //   tick 2: [A, B]    B joins mid-flight (seg 1)
  //   tick 3: [A, B]
  //   tick 4: [B, C]    A retires; C recycles seg 0 while B is mid-decode
  //   tick 5: [B, C]
  //   tick 6: [C]       B retires
  Transformer::BatchDecodeState St = Model.startDecodeStream(2, 1, 8);
  auto Row = [&](const std::vector<float> &Logits, int R) {
    return std::vector<float>(
        Logits.begin() + static_cast<long>(R) * Vocab,
        Logits.begin() + static_cast<long>(R + 1) * Vocab);
  };

  Model.admitStreamRow(St, 0, Encs[0]);
  std::vector<float> L = Model.stepDecodeBatch(St, {Transformer::BosId});
  EXPECT_EQ(Row(L, 0), Solo[0][0]) << "A step 0";

  Model.admitStreamRow(St, 1, Encs[1]);
  L = Model.stepDecodeBatch(St, {3, Transformer::BosId});
  EXPECT_EQ(Row(L, 0), Solo[0][1]) << "A step 1 (fused with B's BOS)";
  EXPECT_EQ(Row(L, 1), Solo[1][0]) << "B step 0 at a different clock";

  L = Model.stepDecodeBatch(St, {4, 3});
  EXPECT_EQ(Row(L, 0), Solo[0][2]) << "A step 2";
  EXPECT_EQ(Row(L, 1), Solo[1][1]) << "B step 1";

  // Retire A (keep only B's row), recycle segment 0 for C.
  Model.reorderBeams(St, {1});
  Model.admitStreamRow(St, 0, Encs[2]);
  L = Model.stepDecodeBatch(St, {4, Transformer::BosId});
  EXPECT_EQ(Row(L, 0), Solo[1][2]) << "B step 2 after A left";
  EXPECT_EQ(Row(L, 1), Solo[2][0]) << "C step 0 in A's recycled segment";

  L = Model.stepDecodeBatch(St, {5, 3});
  EXPECT_EQ(Row(L, 0), Solo[1][3]) << "B step 3";
  EXPECT_EQ(Row(L, 1), Solo[2][1]) << "C step 1";

  // Retire B; C decodes alone to the end of its script.
  Model.reorderBeams(St, {1});
  L = Model.stepDecodeBatch(St, {4});
  EXPECT_EQ(Row(L, 0), Solo[2][2]) << "C step 2 solo";
  L = Model.stepDecodeBatch(St, {5});
  EXPECT_EQ(Row(L, 0), Solo[2][3]) << "C step 3 solo";

  // Retire C too: the batch may drop to zero rows and restart.
  Model.reorderBeams(St, {});
  EXPECT_EQ(St.B, 0);
  Model.admitStreamRow(St, 1, Encs[0]);
  L = Model.stepDecodeBatch(St, {Transformer::BosId});
  EXPECT_EQ(Row(L, 0), Solo[0][0]) << "A again after full drain";
}

TEST(Transformer, AbortStreamSegmentLeavesSurvivorsBitExact) {
  // Mid-decode abort of one source's segment (the serve engine's
  // deadline/cancel retirement path): the survivor's subsequent logits
  // must stay BIT-IDENTICAL to a decode that never shared a batch with
  // the aborted source, and the freed segment must be recyclable
  // immediately.
  Transformer Model(tinyConfig());
  std::vector<std::vector<int>> Sources = {
      {4, 5, 6, 7, 8}, {9, 8, 7}, {30, 2, 17, 21, 11, 12}};
  std::vector<std::shared_ptr<const Transformer::EncoderCache>> Encs;
  for (const auto &Src : Sources)
    Encs.push_back(Model.encodeSource(Src));
  int Vocab = Model.config().Vocab;
  auto Row = [&](const std::vector<float> &Logits, int R) {
    return std::vector<float>(
        Logits.begin() + static_cast<long>(R) * Vocab,
        Logits.begin() + static_cast<long>(R + 1) * Vocab);
  };
  // Solo oracle for source S: logits of feeding BOS, 3, 4, 5, ...
  auto SoloLogits = [&](size_t S, int Steps) {
    Transformer::BatchDecodeState St =
        oneSourceState(Model, Encs[S], 1, Steps + 1);
    std::vector<std::vector<float>> Out;
    Out.push_back(Model.stepDecodeBatch(St, {Transformer::BosId}));
    for (int T = 0; T < Steps - 1; ++T)
      Out.push_back(Model.stepDecodeBatch(St, {3 + T}));
    return Out;
  };
  std::vector<std::vector<std::vector<float>>> Solo;
  for (size_t S = 0; S < Sources.size(); ++S)
    Solo.push_back(SoloLogits(S, 5));

  Transformer::BatchDecodeState St = Model.startDecodeStream(2, 1, 8);
  ASSERT_EQ(Model.admitStreamRow(St, 0, Encs[0]), 0);
  ASSERT_EQ(Model.admitStreamRow(St, 1, Encs[1]), 1);
  std::vector<float> L =
      Model.stepDecodeBatch(St, {Transformer::BosId, Transformer::BosId});
  EXPECT_EQ(Row(L, 0), Solo[0][0]) << "A step 0";
  EXPECT_EQ(Row(L, 1), Solo[1][0]) << "B step 0";
  L = Model.stepDecodeBatch(St, {3, 3});
  EXPECT_EQ(Row(L, 0), Solo[0][1]) << "A step 1";
  EXPECT_EQ(Row(L, 1), Solo[1][1]) << "B step 1";

  // Abort A mid-decode (deadline hit / cancel). B survives in place.
  Model.abortStreamSegment(St, 0);
  EXPECT_EQ(St.B, 1);
  L = Model.stepDecodeBatch(St, {4});
  EXPECT_EQ(Row(L, 0), Solo[1][2]) << "B step 2 after A aborted";

  // The freed segment recycles immediately for a new source, and both
  // rows keep their own clocks (C appends after survivor B).
  ASSERT_EQ(Model.admitStreamRow(St, 0, Encs[2]), 1);
  L = Model.stepDecodeBatch(St, {5, Transformer::BosId});
  EXPECT_EQ(Row(L, 0), Solo[1][3]) << "B step 3";
  EXPECT_EQ(Row(L, 1), Solo[2][0]) << "C step 0 in A's recycled segment";
  L = Model.stepDecodeBatch(St, {6, 3});
  EXPECT_EQ(Row(L, 0), Solo[1][4]) << "B step 4";
  EXPECT_EQ(Row(L, 1), Solo[2][1]) << "C step 1";

  // Aborting a segment with no live rows is a harmless no-op; aborting
  // every remaining segment drains the batch to zero rows.
  Model.abortStreamSegment(St, 0);
  Model.abortStreamSegment(St, 0);
  EXPECT_EQ(St.B, 1);
  Model.abortStreamSegment(St, 1);
  EXPECT_EQ(St.B, 0);
}

TEST(Transformer, StreamingAdmitRefusesMixedWeightVersions) {
  // A source encoded AFTER a weight update must not join a batch whose
  // live rows decode with the old constants: admitStreamRow returns -1
  // (the caller defers) until the batch drains and adopts the version.
  Transformer Model(tinyConfig());
  auto OldEnc = Model.encodeSource({4, 5, 6});
  Transformer::BatchDecodeState St = Model.startDecodeStream(2, 1, 8);
  ASSERT_EQ(Model.admitStreamRow(St, 0, OldEnc), 0);
  Model.stepDecodeBatch(St, {Transformer::BosId});

  Model.bumpWeightVersion(); // In-place weight mutation elsewhere.
  auto NewEnc = Model.encodeSource({9, 8, 7});
  EXPECT_EQ(Model.admitStreamRow(St, 1, NewEnc), -1)
      << "mixed-version admission must be refused, not asserted";

  Model.reorderBeams(St, {}); // The old source retires; batch drains.
  EXPECT_EQ(Model.admitStreamRow(St, 1, NewEnc), 0)
      << "an idle batch adopts the new weight version";
  std::vector<float> L = Model.stepDecodeBatch(St, {Transformer::BosId});
  EXPECT_EQ(L.size(),
            static_cast<size_t>(Model.config().Vocab));
}

// -- the per-source LRU policy, run against both caches ----------------------

/// What the typed suite needs per cache: the policy base it derives
/// from, distinct values of one byte size, and its distinct tags.
template <typename CacheT> struct LRUKit;

template <> struct LRUKit<EncoderLRU> {
  using Policy = SourceLRU<Transformer::EncoderCache>;
  static constexpr const char *Name = "EncoderLRU";
  static Policy::Value value(int Seed) {
    auto E = std::make_shared<Transformer::EncoderCache>();
    E->EncOut.assign(16, static_cast<float>(Seed));
    E->TSrc = 1;
    return E;
  }
  static size_t bytes(const Policy::Value &V) { return V->bytes(); }
  static std::vector<NoTag> tags() { return {NoTag()}; }
};

template <> struct LRUKit<DecodeLRU> {
  using Policy = SourceLRU<std::vector<Hypothesis>, BeamTag>;
  static constexpr const char *Name = "DecodeLRU";
  static Policy::Value value(int Seed) {
    auto H = std::make_shared<std::vector<Hypothesis>>(2);
    (*H)[0] = {{3, 4, Seed}, -1.0f};
    (*H)[1] = {{5, Seed}, -2.0f};
    return H;
  }
  static size_t bytes(const Policy::Value &V) {
    return DecodeLRU::bytesOf(*V);
  }
  static std::vector<BeamTag> tags() {
    return {{5, 220, false}, {3, 220, false}, {5, 64, false},
            {5, 220, true}};
  }
};

struct LRUName {
  template <typename CacheT> static std::string GetName(int) {
    return LRUKit<CacheT>::Name;
  }
};

template <typename CacheT> class SourceLRUPolicy : public ::testing::Test {
protected:
  using Kit = LRUKit<CacheT>;
  using Policy = typename Kit::Policy;
  using Value = typename Policy::Value;
  using Tag = typename decltype(Kit::tags())::value_type;

  /// Puts seed \p Seed's value under the key; returns the stored value.
  static Value put(Policy &P, const std::vector<int> &Src, uint64_t Version,
                   int Seed, const Tag &K = Kit::tags().front()) {
    Value V = Kit::value(Seed);
    return P.put(Src, Version, K, V, Kit::bytes(V));
  }
  static Value get(Policy &P, const std::vector<int> &Src, uint64_t Version,
                   const Tag &K = Kit::tags().front()) {
    return P.get(Src, Version, K);
  }
};

using LRUCaches = ::testing::Types<EncoderLRU, DecodeLRU>;
TYPED_TEST_SUITE(SourceLRUPolicy, LRUCaches, LRUName);

TYPED_TEST(SourceLRUPolicy, CountBoundEvictsLeastRecentlyUsed) {
  TypeParam Cache(/*Capacity=*/2);
  this->put(Cache, {1}, 1, 1);
  this->put(Cache, {2}, 1, 2);
  EXPECT_NE(this->get(Cache, {1}, 1), nullptr); // Touch: {2} is now LRU.
  this->put(Cache, {3}, 1, 3);
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  EXPECT_EQ(this->get(Cache, {2}, 1), nullptr) << "LRU victim";
  EXPECT_NE(this->get(Cache, {1}, 1), nullptr) << "touched entry survives";
  EXPECT_NE(this->get(Cache, {3}, 1), nullptr);
}

TYPED_TEST(SourceLRUPolicy, ByteBudgetKeepsTheNewestEntry) {
  // Size one entry, then budget the cache below two entries' worth:
  // every insert evicts the previous entry but is itself kept.
  TypeParam Probe(4);
  this->put(Probe, {1, 2, 3, 0}, 1, 0);
  const size_t One = Probe.bytesUsed();
  ASSERT_GT(One, 0u);
  TypeParam Cache(/*Capacity=*/64, /*ByteBudget=*/One + One / 2);
  for (int S = 0; S < 4; ++S)
    this->put(Cache, {1, 2, 3, S}, 1, S);
  EXPECT_EQ(Cache.size(), 1u) << "budget holds one same-sized entry";
  EXPECT_EQ(Cache.stats().Evictions, 3u);
  EXPECT_EQ(Cache.bytesUsed(), One);
  EXPECT_NE(this->get(Cache, {1, 2, 3, 3}, 1), nullptr)
      << "the newest entry always survives";

  // One entry bigger than the whole budget: kept (a cache of one), not
  // thrashed to an empty cache.
  TypeParam Tiny(/*Capacity=*/8, /*ByteBudget=*/1);
  auto Big = this->put(Tiny, {7}, 1, 7);
  EXPECT_EQ(Tiny.size(), 1u);
  EXPECT_EQ(this->get(Tiny, {7}, 1), Big);
}

TYPED_TEST(SourceLRUPolicy, WeightVersionAndTagArePartOfTheKey) {
  TypeParam Cache(/*Capacity=*/8);
  const auto Tags = TestFixture::Kit::tags();
  std::vector<typename TestFixture::Value> Stored;
  for (size_t T = 0; T < Tags.size(); ++T)
    Stored.push_back(
        this->put(Cache, {1, 2}, 7, static_cast<int>(T), Tags[T]));
  EXPECT_EQ(Cache.size(), Tags.size()) << "one entry per tag";
  for (size_t T = 0; T < Tags.size(); ++T)
    EXPECT_EQ(this->get(Cache, {1, 2}, 7, Tags[T]), Stored[T])
        << "tag " << T << " serves its own value";
  EXPECT_EQ(this->get(Cache, {1, 2}, 8), nullptr) << "weight version keys";
  EXPECT_EQ(this->get(Cache, {1, 2, 3}, 7), nullptr) << "source keys";
  EXPECT_EQ(this->get(Cache, {1}, 7), nullptr) << "a prefix is not a match";
}

TYPED_TEST(SourceLRUPolicy, ReinsertKeepsTheResidentValue) {
  TypeParam Cache(/*Capacity=*/2);
  auto First = this->put(Cache, {4, 5}, 1, 1);
  const size_t Bytes = Cache.bytesUsed();
  EXPECT_EQ(this->put(Cache, {4, 5}, 1, 2), First)
      << "put returns the resident value";
  EXPECT_EQ(this->get(Cache, {4, 5}, 1), First);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Cache.bytesUsed(), Bytes);
  // The re-insert also refreshes recency.
  this->put(Cache, {6}, 1, 6);
  this->put(Cache, {4, 5}, 1, 3); // {6} is now LRU.
  this->put(Cache, {7}, 1, 7);
  EXPECT_EQ(this->get(Cache, {6}, 1), nullptr);
  EXPECT_EQ(this->get(Cache, {4, 5}, 1), First);
}

TYPED_TEST(SourceLRUPolicy, ClearZeroesTheBytes) {
  TypeParam Cache(/*Capacity=*/8);
  this->put(Cache, {0}, 1, 0);
  const size_t One = Cache.bytesUsed();
  this->put(Cache, {1}, 1, 1);
  this->put(Cache, {2}, 1, 2);
  EXPECT_EQ(Cache.bytesUsed(), 3 * One) << "the sum over the entries";
  Cache.clear();
  EXPECT_EQ(Cache.bytesUsed(), 0u);
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(this->get(Cache, {0}, 1), nullptr);
  this->put(Cache, {0}, 1, 0);
  EXPECT_EQ(Cache.bytesUsed(), One);
}

TYPED_TEST(SourceLRUPolicy, ConcurrentGetAndPutOnOneCache) {
  // Four threads race lookups and inserts over 12 keys on one cache that
  // holds 4. Every lookup must end with the one value made for its key,
  // and the accounting must add up afterwards.
  constexpr int Keys = 12, Threads = 4, Rounds = 2000;
  std::vector<typename TestFixture::Value> Values;
  for (int K = 0; K < Keys; ++K)
    Values.push_back(TestFixture::Kit::value(K));
  const size_t ValueBytes = TestFixture::Kit::bytes(Values.front());
  const auto Tag = TestFixture::Kit::tags().front();
  TypeParam Cache(/*Capacity=*/4);
  typename TestFixture::Policy &P = Cache;
  std::atomic<int> Wrong{0};
  std::vector<std::thread> Ts;
  for (int W = 0; W < Threads; ++W)
    Ts.emplace_back([&, W] {
      for (int I = 0; I < Rounds; ++I) {
        const int K = (I * 7 + W * 5) % Keys;
        const size_t KI = static_cast<size_t>(K);
        auto V = P.get({K}, 1, Tag);
        if (!V)
          V = P.put({K}, 1, Tag, Values[KI], ValueBytes);
        if (V != Values[KI])
          Wrong.fetch_add(1);
      }
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(Wrong.load(), 0);
  EXPECT_EQ(Cache.size(), 4u);
  EXPECT_EQ(Cache.stats().Hits + Cache.stats().Misses,
            static_cast<uint64_t>(Threads * Rounds));
  TypeParam Probe(1);
  this->put(Probe, {0}, 1, 0);
  EXPECT_EQ(Cache.bytesUsed(), 4 * Probe.bytesUsed());
}

// -- the encoder LRU's get-or-encode -----------------------------------------

TEST(EncoderLRU, HitsShareOneCacheAndEvictionKeepsResultsIdentical) {
  Transformer Model(tinyConfig());
  EncoderLRU Cache(/*Capacity=*/2);
  std::vector<int> A = {4, 5, 6}, B = {7, 8}, C = {9, 10, 11};

  auto EA = Cache.get(Model, A);
  EXPECT_EQ(Cache.get(Model, A).get(), EA.get()) << "hit shares the object";
  EXPECT_EQ(Cache.stats().Hits, 1u);
  EXPECT_EQ(Cache.stats().Misses, 1u);

  // Fill past capacity: A becomes the LRU victim.
  Cache.get(Model, B);
  Cache.get(Model, C);
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_GE(Cache.stats().Evictions, 1u);

  // Re-encoding the evicted source must give identical results.
  BeamConfig BC;
  BC.BeamSize = 3;
  BC.MaxLen = 10;
  auto FromCache = beamSearch(Model, Cache.get(Model, A), BC);
  auto Fresh = beamSearch(Model, A, BC);
  ASSERT_EQ(FromCache.size(), Fresh.size());
  for (size_t I = 0; I < Fresh.size(); ++I) {
    EXPECT_EQ(FromCache[I].Tokens, Fresh[I].Tokens);
    EXPECT_EQ(FromCache[I].Score, Fresh[I].Score);
  }
}

TEST(EncoderLRU, StatsTrackColdEncodeSeconds) {
  Transformer Model(tinyConfig());
  EncoderLRU Cache(8);
  std::vector<int> Src = {4, 5, 6, 7};
  Cache.get(Model, Src);
  EncoderLRU::Stats St = Cache.stats();
  EXPECT_EQ(St.Misses, 1u);
  EXPECT_GT(St.MissSeconds, 0.0) << "miss wall time must accumulate";
  double AfterMiss = St.MissSeconds;
  Cache.get(Model, Src); // Hit: no encode, no time accrued.
  EXPECT_EQ(Cache.stats().MissSeconds, AfterMiss);
}

TEST(EncoderLRU, WeightVersionChangeMisses) {
  Transformer Model(tinyConfig());
  EncoderLRU Cache(8);
  std::vector<int> Src = {4, 5, 6};
  auto Before = Cache.get(Model, Src);
  Model.bumpWeightVersion();
  auto After = Cache.get(Model, Src);
  EXPECT_NE(Before.get(), After.get()) << "stale entry must not match";
  EXPECT_EQ(Cache.stats().Misses, 2u);
}

// -- decoded-hypotheses LRU ---------------------------------------------------

std::shared_ptr<const std::vector<Hypothesis>>
hypsOf(std::initializer_list<int> Tokens) {
  auto H = std::make_shared<std::vector<Hypothesis>>(1);
  H->front().Tokens = Tokens;
  H->front().Score = -1.0f;
  return H;
}

TEST(DecodeLRU, KeyedBySourceVersionAndBeamConfig) {
  DecodeLRU Cache(/*Capacity=*/8);
  BeamConfig BC;
  BC.BeamSize = 2;
  BC.MaxLen = 16;
  Cache.put({1, 2}, /*Version=*/7, BC, hypsOf({3, 4, 5}));
  auto Hit = Cache.get({1, 2}, 7, BC);
  ASSERT_NE(Hit, nullptr);
  ASSERT_EQ(Hit->size(), 1u);
  EXPECT_EQ(Hit->front().Tokens, std::vector<int>({3, 4, 5}));
  EXPECT_EQ(Hit->front().Score, -1.0f);
  EXPECT_EQ(Cache.get({1, 2, 3}, 7, BC), nullptr) << "source keys";
  EXPECT_EQ(Cache.get({1, 2}, 8, BC), nullptr) << "weight version keys";
  BeamConfig Wider = BC;
  Wider.BeamSize = 3;
  EXPECT_EQ(Cache.get({1, 2}, 7, Wider), nullptr) << "beam width keys";
  BeamConfig Longer = BC;
  Longer.MaxLen = 32;
  EXPECT_EQ(Cache.get({1, 2}, 7, Longer), nullptr) << "MaxLen keys";
  BeamTag Constrained = DecodeLRU::tagOf(BC);
  Constrained.Constrained = true;
  EXPECT_FALSE(Constrained == DecodeLRU::tagOf(BC)) << "constraint keys";
  DecodeLRU::Stats St = Cache.stats();
  EXPECT_EQ(St.Hits, 1u);
  EXPECT_EQ(St.Misses, 4u);
}

TEST(DecodeLRU, HitReturnsTheObjectPutStored) {
  DecodeLRU Cache;
  BeamConfig BC;
  auto Hyps = hypsOf({3, 4, 5});
  Cache.put({1, 2}, 1, BC, Hyps);
  EXPECT_EQ(Cache.get({1, 2}, 1, BC), Hyps) << "stored whole, not copied";
  EXPECT_EQ(Cache.get({1, 2}, 1, BC), Hyps) << "every hit shares it";
}

TEST(DecodeLRU, EmptyAndDisjointResultsRoundTrip) {
  DecodeLRU Cache(/*Capacity=*/8);
  BeamConfig BC;
  // A result with no hypotheses is still a (negative) cache entry.
  Cache.put({5}, 1, BC, std::make_shared<std::vector<Hypothesis>>());
  auto Empty = Cache.get({5}, 1, BC);
  ASSERT_NE(Empty, nullptr);
  EXPECT_TRUE(Empty->empty());
  // Hypotheses sharing no prefix.
  auto Hyps = std::make_shared<std::vector<Hypothesis>>();
  Hyps->push_back({{10, 11, 12}, -1.0f});
  Hyps->push_back({{20, 21}, -2.0f});
  Cache.put({6}, 1, BC, Hyps);
  auto Hit = Cache.get({6}, 1, BC);
  ASSERT_NE(Hit, nullptr);
  ASSERT_EQ(Hit->size(), 2u);
  EXPECT_EQ((*Hit)[0].Tokens, std::vector<int>({10, 11, 12}));
  EXPECT_EQ((*Hit)[1].Tokens, std::vector<int>({20, 21}));
  EXPECT_EQ((*Hit)[1].Score, -2.0f);
}

TEST(Transformer, BeamReturnsSortedHypotheses) {
  Transformer Model(tinyConfig());
  std::vector<int> Src = {4, 9, 6, 7};
  BeamConfig BC;
  BC.BeamSize = 4;
  BC.MaxLen = 10;
  auto Hyps = beamSearch(Model, Src, BC);
  ASSERT_GE(Hyps.size(), 2u);
  for (size_t I = 1; I < Hyps.size(); ++I)
    EXPECT_GE(Hyps[I - 1].Score, Hyps[I].Score);
}

TEST(Transformer, SearchWithoutBeamOrStepReturnsNothing) {
  // A search needs at least one beam and one step: any other config
  // yields no hypotheses (no crash, no allocation error) from the
  // batched search, its pre-encoded overload and the sequential
  // reference alike.
  Transformer Model(tinyConfig());
  std::vector<int> Src = {4, 5, 6};
  auto Enc = Model.encodeSource(Src);
  const std::pair<int, int> Configs[] = {
      {0, 10}, {-1, 10}, {5, 0}, {5, -1}, {5, -5}};
  for (const auto &[K, Len] : Configs) {
    BeamConfig BC;
    BC.BeamSize = K;
    BC.MaxLen = Len;
    EXPECT_TRUE(beamSearch(Model, Src, BC).empty())
        << "k=" << K << " maxlen=" << Len;
    EXPECT_TRUE(beamSearch(Model, Enc, BC).empty())
        << "k=" << K << " maxlen=" << Len;
    EXPECT_TRUE(beamSearchSequential(Model, Src, BC).empty())
        << "k=" << K << " maxlen=" << Len;
  }
}

TEST(Transformer, SearchWithMismatchedConstraintReturnsNothing) {
  // A constraint over another vocabulary than the model's would index
  // the logits row and the log-prob scratch with ids the model does not
  // have. Every search returns no hypotheses instead, in every build
  // type, whichever side is larger.
  tok::Tokenizer::Config TC;
  TC.VocabSize = 120;
  tok::Tokenizer Tok = tok::Tokenizer::train(
      {"int f(int a) { return a + 1; }",
       "long g(long *p, int n) { long s = 0; while (n--) s += p[n]; "
       "return s; }",
       "void h(char *d, const char *s) { for (; *s; ++s) *d++ = *s; }"},
      TC);
  tok::VocabConstraint VC(Tok);
  const int V = static_cast<int>(VC.vocabSize());
  ASSERT_GE(V, 16);
  std::vector<int> Src = {4, 5, 6};
  for (int ModelVocab : {V / 2, V + 7, V}) {
    TransformerConfig Cfg = tinyConfig();
    Cfg.Vocab = ModelVocab;
    Transformer Model(Cfg);
    BeamConfig BC;
    BC.BeamSize = 3;
    BC.MaxLen = 8;
    BC.Constraint = &VC;
    EXPECT_EQ(searchable(Model, BC), ModelVocab == V) << ModelVocab;
    if (ModelVocab == V)
      continue;
    EXPECT_TRUE(beamSearch(Model, Src, BC).empty()) << ModelVocab;
    EXPECT_TRUE(beamSearch(Model, Model.encodeSource(Src), BC).empty())
        << ModelVocab;
    EXPECT_TRUE(beamSearchSequential(Model, Src, BC).empty()) << ModelVocab;
  }
}

TEST(BeamBatch, RecyclesSegmentsLifoAndMatchesSequentialSearch) {
  // Two segments: a second source joins one step after the first, a
  // third is refused while both are live, the first is aborted
  // mid-flight and its segment is handed out again first. Every source
  // that finishes must get exactly the sequential reference's
  // hypotheses, whatever shared its batch.
  Transformer Model(tinyConfig());
  const std::vector<std::vector<int>> Srcs = {
      {4, 5, 6, 7}, {9, 8, 7, 6, 5}, {30, 2, 17, 21}};
  BeamConfig BC;
  BC.BeamSize = 3;
  BC.MaxLen = 12;
  beamcore::BeamBatch Batch(Model, BC, /*MaxSources=*/2);
  std::vector<beamcore::BeamBatch::Finished> Out;

  ASSERT_EQ(Batch.admit(Model.encodeSource(Srcs[0])), 0);
  Batch.step(Out);
  ASSERT_TRUE(Out.empty()) << "source 0 finished on its first step";
  ASSERT_EQ(Batch.admit(Model.encodeSource(Srcs[1])), 1);
  EXPECT_EQ(Batch.admit(Model.encodeSource(Srcs[2])), -1) << "batch full";
  Batch.step(Out);
  ASSERT_TRUE(Out.empty()) << "a source finished by step 2";
  Batch.abort(0);
  ASSERT_EQ(Batch.admit(Model.encodeSource(Srcs[2])), 0)
      << "the aborted segment is reused first";

  std::vector<int> SegSrc = {2, 1}; // Segment -> source index.
  std::vector<int> Retired;
  for (int Step = 0; Step < BC.MaxLen && Retired.size() < 2; ++Step) {
    Out.clear();
    Batch.step(Out);
    for (beamcore::BeamBatch::Finished &F : Out) {
      EXPECT_GE(F.Steps, 1);
      EXPECT_LE(F.Steps, BC.MaxLen);
      int S = SegSrc[static_cast<size_t>(F.Seg)];
      auto Want = beamSearchSequential(Model, Srcs[static_cast<size_t>(S)],
                                       BC);
      ASSERT_EQ(F.Hyps.size(), Want.size()) << "source " << S;
      for (size_t I = 0; I < Want.size(); ++I) {
        EXPECT_EQ(F.Hyps[I].Tokens, Want[I].Tokens)
            << "source " << S << " hyp " << I;
        EXPECT_NEAR(F.Hyps[I].Score, Want[I].Score, 1e-4f)
            << "source " << S << " hyp " << I;
      }
      Retired.push_back(F.Seg);
    }
  }
  ASSERT_EQ(Retired.size(), 2u) << "both sources finish within MaxLen";
  EXPECT_EQ(Batch.rows(), 0);
  EXPECT_EQ(Batch.admit(Model.encodeSource(Srcs[0])), Retired.back())
      << "retire-then-admit reuses the last freed segment";
}

TEST(Transformer, CheckpointRoundTrip) {
  Transformer Model(tinyConfig());
  ASSERT_TRUE(Model.save("/tmp/slade_nn_test.model").ok());
  auto Loaded = Transformer::load("/tmp/slade_nn_test.model");
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.errorMessage();
  std::vector<int> Src = {3, 4, 5};
  BeamConfig BC;
  BC.BeamSize = 3;
  BC.MaxLen = 8;
  auto Want = beamSearch(Model, Src, BC);
  auto Got = beamSearch(*Loaded, Src, BC);
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I) {
    EXPECT_EQ(Got[I].Tokens, Want[I].Tokens) << "hyp " << I;
    EXPECT_EQ(Got[I].Score, Want[I].Score) << "hyp " << I;
  }
}

TEST(Transformer, TrainingLossPathIsDeterministic) {
  // No dropout (§V-C) means two identical runs produce identical losses.
  auto runOnce = [] {
    Transformer Model(tinyConfig());
    AdamW::Config AC;
    AdamW Opt(Model.params(), AC);
    std::vector<int> Src = {5, 6, 7};
    std::vector<int> Tgt = {8, 9};
    float L = 0;
    for (int Step = 0; Step < 5; ++Step) {
      Graph G;
      L = Model.pairLoss(G, Src, Tgt, true);
      G.backward();
      Opt.step();
    }
    return L;
  };
  EXPECT_FLOAT_EQ(runOnce(), runOnce());
}

TEST(Transformer, TrainInferenceParity) {
  // The KV-cached inference path must agree with the training-graph
  // decoder on next-token argmax.
  Transformer Model(tinyConfig());
  std::vector<int> Src = {7, 8, 9, 10};
  std::vector<int> Prefix = {11, 12};
  // Inference path.
  Transformer::DecodeState St = Model.startDecode(Src);
  std::vector<float> Logits = Model.stepDecode(St, Transformer::BosId);
  for (int T : Prefix)
    Logits = Model.stepDecode(St, T);
  int InfBest = 0;
  for (size_t I = 1; I < Logits.size(); ++I)
    if (Logits[I] > Logits[static_cast<size_t>(InfBest)])
      InfBest = static_cast<int>(I);
  // Training path: loss with teacher forcing is not directly comparable;
  // instead verify the stepwise path is prefix-consistent (re-decoding the
  // same prefix gives the same logits).
  Transformer::DecodeState St2 = Model.startDecode(Src);
  std::vector<float> L2 = Model.stepDecode(St2, Transformer::BosId);
  for (int T : Prefix)
    L2 = Model.stepDecode(St2, T);
  for (size_t I = 0; I < Logits.size(); ++I)
    EXPECT_FLOAT_EQ(Logits[I], L2[I]);
  int Best2 = 0;
  for (size_t I = 1; I < L2.size(); ++I)
    if (L2[I] > L2[static_cast<size_t>(Best2)])
      Best2 = static_cast<int>(I);
  EXPECT_EQ(InfBest, Best2);
}

TEST(AdamW, DecaysOnlyMarkedParams) {
  Mat W(2, 2), B(1, 2);
  W.V = {1, 1, 1, 1};
  B.V = {1, 1};
  AdamW::Config AC;
  AC.LR = 0.1f;
  AC.WeightDecay = 0.5f;
  AC.WarmupSteps = 1;
  AdamW Opt({{&W, true}, {&B, false}}, AC);
  // Zero gradients: only decay moves parameters.
  Opt.step();
  EXPECT_LT(W.V[0], 1.0f);
  EXPECT_FLOAT_EQ(B.V[0], 1.0f);
}

} // namespace
