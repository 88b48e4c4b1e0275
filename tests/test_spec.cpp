//===- test_spec.cpp - speculative decode + int8 kernel tests ------------------===//
//
// The speculative path's contract is byte-identity: with any draft — well
// distilled, untrained, even adversarially wrong — every decode driver
// must produce bit-for-bit the hypotheses of plain decode, because all
// committed selections consume exact full-model logits. These tests pin
// that contract at the nn level (beamSearch) and the serving level
// (sharded engine), plus the int8 kernel properties the draft relies on.
//
//===----------------------------------------------------------------------===//

#include "nn/Beam.h"
#include "nn/DraftModel.h"
#include "nn/Mat.h"
#include "nn/SpecDecode.h"
#include "nn/Transformer.h"
#include "serve/Engine.h"
#include "support/RNG.h"

#include "PipelineTestUtil.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

using namespace slade;
using namespace slade::nn;

namespace {

//===----------------------------------------------------------------------===//
// int8 row-quantized kernels
//===----------------------------------------------------------------------===//

std::vector<float> randomVec(size_t N, uint64_t Seed, float Scale = 1.0f) {
  SplitMix64 Rng(Seed);
  std::vector<float> V(N);
  for (float &X : V)
    X = static_cast<float>(Rng.normal()) * Scale;
  return V;
}

TEST(Int8Quantize, RoundTripWithinHalfStep) {
  int R = 6, C = 37;
  std::vector<float> A = randomVec(static_cast<size_t>(R) * C, 11, 2.0f);
  QuantizedMat Q = quantizeRowsI8(A.data(), R, C);
  ASSERT_EQ(Q.R, R);
  ASSERT_EQ(Q.C, C);
  for (int I = 0; I < R; ++I) {
    float S = Q.Scale[static_cast<size_t>(I)];
    ASSERT_GT(S, 0.0f);
    for (int J = 0; J < C; ++J) {
      int8_t Qv = Q.Q[static_cast<size_t>(I) * C + J];
      EXPECT_GE(Qv, -127);
      EXPECT_LE(Qv, 127);
      // Symmetric round-to-nearest: dequantization error is at most half
      // a quantization step (plus fp slack).
      EXPECT_NEAR(static_cast<float>(Qv) * S,
                  A[static_cast<size_t>(I) * C + J], S * 0.5f + 1e-6f);
    }
  }
}

TEST(Int8Quantize, ZeroRowGetsZeroScale) {
  int C = 16;
  std::vector<float> A(static_cast<size_t>(2) * C, 0.0f);
  for (int J = 0; J < C; ++J)
    A[static_cast<size_t>(C) + J] = 1.0f + J;
  QuantizedMat Q = quantizeRowsI8(A.data(), 2, C);
  EXPECT_EQ(Q.Scale[0], 0.0f);
  EXPECT_GT(Q.Scale[1], 0.0f);
  for (int J = 0; J < C; ++J)
    EXPECT_EQ(Q.Q[static_cast<size_t>(J)], 0);
}

TEST(Int8Gemm, MatchesDoubleReference) {
  // K deliberately not a multiple of the vector width so the tail path
  // runs too.
  int M = 5, N = 7, K = 45;
  std::vector<float> A = randomVec(static_cast<size_t>(M) * K, 21);
  std::vector<float> B = randomVec(static_cast<size_t>(N) * K, 22);
  std::vector<float> C = randomVec(static_cast<size_t>(M) * N, 23, 0.1f);
  std::vector<float> Bias = C; // gemmI8NT accumulates on top.
  QuantizedMat QA = quantizeRowsI8(A.data(), M, K);
  QuantizedMat QB = quantizeRowsI8(B.data(), N, K);
  gemmI8NT(QA, QB, C.data());
  for (int I = 0; I < M; ++I)
    for (int J = 0; J < N; ++J) {
      int64_t Acc = 0;
      for (int Kk = 0; Kk < K; ++Kk)
        Acc += static_cast<int32_t>(QA.Q[static_cast<size_t>(I) * K + Kk]) *
               static_cast<int32_t>(QB.Q[static_cast<size_t>(J) * K + Kk]);
      double Ref = static_cast<double>(Bias[static_cast<size_t>(I) * N + J]) +
                   static_cast<double>(QA.Scale[static_cast<size_t>(I)]) *
                       QB.Scale[static_cast<size_t>(J)] *
                       static_cast<double>(Acc);
      EXPECT_NEAR(C[static_cast<size_t>(I) * N + J], Ref,
                  1e-5 * std::max(1.0, std::fabs(Ref)))
          << "element (" << I << "," << J << ")";
    }
}

TEST(Int8Gemm, ApproximatesFloatGemm) {
  int M = 4, N = 16, K = 64;
  std::vector<float> A = randomVec(static_cast<size_t>(M) * K, 31);
  std::vector<float> B = randomVec(static_cast<size_t>(N) * K, 32);
  std::vector<float> C(static_cast<size_t>(M) * N, 0.0f);
  QuantizedMat QA = quantizeRowsI8(A.data(), M, K);
  QuantizedMat QB = quantizeRowsI8(B.data(), N, K);
  gemmI8NT(QA, QB, C.data());
  double Num = 0, Den = 0;
  for (int I = 0; I < M; ++I)
    for (int J = 0; J < N; ++J) {
      double Exact = 0;
      for (int Kk = 0; Kk < K; ++Kk)
        Exact += static_cast<double>(A[static_cast<size_t>(I) * K + Kk]) *
                 B[static_cast<size_t>(J) * K + Kk];
      double Err = C[static_cast<size_t>(I) * N + J] - Exact;
      Num += Err * Err;
      Den += Exact * Exact;
    }
  // Relative RMS error of symmetric 8-bit quantization on Gaussian data
  // stays well under 2%.
  EXPECT_LT(std::sqrt(Num / Den), 0.02);
}

TEST(Int8Gemm, PerRowIndependence) {
  // The batched-decode bit-identity invariant at the kernel level: row i
  // of a batched product is bit-identical to computing row i alone.
  int M = 6, N = 9, K = 40;
  std::vector<float> A = randomVec(static_cast<size_t>(M) * K, 41);
  std::vector<float> B = randomVec(static_cast<size_t>(N) * K, 42);
  QuantizedMat QA = quantizeRowsI8(A.data(), M, K);
  QuantizedMat QB = quantizeRowsI8(B.data(), N, K);
  std::vector<float> Batched(static_cast<size_t>(M) * N, 0.0f);
  gemmI8NT(QA, QB, Batched.data());
  for (int I = 0; I < M; ++I) {
    QuantizedMat QRow = quantizeRowsI8(A.data() + static_cast<size_t>(I) * K,
                                       1, K);
    std::vector<float> Solo(static_cast<size_t>(N), 0.0f);
    gemmI8NT(QRow, QB, Solo.data());
    for (int J = 0; J < N; ++J)
      EXPECT_EQ(Solo[static_cast<size_t>(J)],
                Batched[static_cast<size_t>(I) * N + J])
          << "row " << I << " col " << J;
  }
}

//===----------------------------------------------------------------------===//
// Speculative decode: byte-identity across drivers and drafts
//===----------------------------------------------------------------------===//

/// A tiny full model plus token sources for nn-level decode tests. The
/// model is untrained (random init) — decode is still fully deterministic,
/// which is all byte-identity needs.
struct SpecFixture {
  TransformerConfig FC;
  std::unique_ptr<Transformer> Full;
  std::vector<std::vector<int>> Sources;

  SpecFixture() {
    FC.Vocab = 64;
    FC.DModel = 32;
    FC.NHeads = 2;
    FC.FF = 48;
    FC.EncLayers = 1;
    FC.DecLayers = 2;
    FC.MaxLen = 64;
    FC.Seed = 1234;
    Full = std::make_unique<Transformer>(FC);
    SplitMix64 Rng(77);
    for (int S = 0; S < 4; ++S) {
      std::vector<int> Src;
      int Len = 6 + static_cast<int>(Rng.below(10));
      for (int I = 0; I < Len; ++I)
        Src.push_back(3 + static_cast<int>(Rng.below(
                              static_cast<uint64_t>(FC.Vocab - 3))));
      Sources.push_back(std::move(Src));
    }
  }

  DraftModel makeDraft(int Steps) const {
    DraftConfig DC;
    DC.Steps = Steps;
    DC.BatchSize = 2;
    DC.MaxTeacherLen = 24;
    return DraftModel::distill(*Full, Sources, DC);
  }
};

void expectSameHyps(const std::vector<Hypothesis> &A,
                    const std::vector<Hypothesis> &B, const char *What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  for (size_t H = 0; H < A.size(); ++H) {
    EXPECT_EQ(A[H].Tokens, B[H].Tokens) << What << " hyp " << H;
    EXPECT_EQ(A[H].Score, B[H].Score) << What << " hyp " << H;
  }
}

TEST(SpecDecode, BeamSearchByteIdenticalAcrossGammas) {
  SpecFixture F;
  DraftModel Draft = F.makeDraft(/*Steps=*/30);
  BeamConfig Plain;
  Plain.BeamSize = 3;
  Plain.MaxLen = 24;
  for (const std::vector<int> &Src : F.Sources) {
    std::vector<Hypothesis> Want = beamSearch(*F.Full, Src, Plain);
    for (int Gamma : {1, 2, 4, 7}) {
      BeamConfig Spec = Plain;
      Spec.Draft = &Draft.model();
      Spec.DraftGamma = Gamma;
      SpecStats Stats;
      Spec.SpecTelemetry = &Stats;
      std::vector<Hypothesis> Got = beamSearch(*F.Full, Src, Spec);
      expectSameHyps(Want, Got, "beamSearch");
      EXPECT_GT(Stats.Rounds, 0u);
      EXPECT_GE(Stats.Proposed, Stats.Accepted);
    }
  }
}

TEST(SpecDecode, UntrainedDraftStillByteIdentical) {
  // A draft that proposes near-noise: acceptance collapses, output must
  // not change (the fallback at every disagreement is the full model's
  // own selection).
  SpecFixture F;
  DraftModel Bad = F.makeDraft(/*Steps=*/0);
  BeamConfig Plain;
  Plain.BeamSize = 3;
  Plain.MaxLen = 20;
  BeamConfig Spec = Plain;
  Spec.Draft = &Bad.model();
  Spec.DraftGamma = 4;
  SpecStats Stats;
  Spec.SpecTelemetry = &Stats;
  for (const std::vector<int> &Src : F.Sources) {
    std::vector<Hypothesis> Want = beamSearch(*F.Full, Src, Plain);
    std::vector<Hypothesis> Got = beamSearch(*F.Full, Src, Spec);
    expectSameHyps(Want, Got, "bad-draft beamSearch");
  }
  EXPECT_GE(Stats.Proposed, Stats.Accepted);
}

TEST(SpecDecode, DistillationIsDeterministic) {
  SpecFixture F;
  DraftModel A = F.makeDraft(/*Steps=*/10);
  DraftModel B = F.makeDraft(/*Steps=*/10);
  // Two distillations of the same teacher over the same corpus are
  // bit-identical, so speculative serving stays reproducible run-to-run.
  std::vector<ParamRef> PA =
      const_cast<Transformer &>(A.model()).params();
  std::vector<ParamRef> PB =
      const_cast<Transformer &>(B.model()).params();
  ASSERT_EQ(PA.size(), PB.size());
  for (size_t I = 0; I < PA.size(); ++I)
    EXPECT_EQ(PA[I].M->V, PB[I].M->V) << "param " << I;
}

TEST(SpecDecode, ConstrainedDecodeByteIdentical) {
  // Speculation composes with the grammar constraint: the simulated
  // proposals run the same oracle (on forked cursors), verification runs
  // it on the real cursors, and the outputs stay byte-identical to the
  // constrained plain decode.
  testutil::DecompilerFixture F(4);
  ASSERT_GE(F.Tasks.size(), 2u);
  const core::Decompiler &D = *F.Slade;

  std::vector<std::vector<int>> Sources;
  for (const core::EvalTask &T : F.Tasks)
    Sources.push_back(D.tokenizer().encode(T.Prog.TargetAsm));
  DraftConfig DC;
  DC.Steps = 20;
  DC.BatchSize = 2;
  DC.MaxTeacherLen = 32;
  DraftModel Draft = DraftModel::distill(D.model(), Sources, DC);

  BeamConfig Plain;
  Plain.BeamSize = 3;
  Plain.MaxLen = 40;
  Plain.Constraint = &D.vocabConstraint();
  BeamConfig Spec = Plain;
  Spec.Draft = &Draft.model();
  Spec.DraftGamma = 3;
  for (const std::vector<int> &Src : Sources) {
    auto Enc = D.encodeCached(Src);
    std::vector<Hypothesis> Want = beamSearch(D.model(), Enc, Plain);
    std::vector<Hypothesis> Got = beamSearch(D.model(), Enc, Spec);
    expectSameHyps(Want, Got, "constrained beamSearch");
  }
}

//===----------------------------------------------------------------------===//
// engine-level speculation
//===----------------------------------------------------------------------===//

TEST(SpecServe, EngineByteIdenticalAcrossShardCountsAndConstraint) {
  // The sharded streaming engine with speculation on must serve
  // byte-identical results at every shard count, with and without the
  // grammar constraint — against a PLAIN sequential oracle.
  testutil::DecompilerFixture F(5);
  ASSERT_GE(F.Tasks.size(), 3u);
  const core::Decompiler &D = *F.Slade;
  std::vector<std::string> Asm;
  std::vector<std::vector<int>> Sources;
  for (const core::EvalTask &T : F.Tasks) {
    Asm.push_back(T.Prog.TargetAsm);
    Sources.push_back(D.tokenizer().encode(T.Prog.TargetAsm));
  }
  DraftConfig DC;
  DC.Steps = 40;
  DC.BatchSize = 2;
  DC.MaxTeacherLen = 24;
  D.attachDraft(std::make_shared<const DraftModel>(
      DraftModel::distill(D.model(), Sources, DC)));

  for (bool Constrained : {false, true}) {
    ConstrainMode CM =
        Constrained ? ConstrainMode::Syntax : ConstrainMode::Off;
    std::vector<std::string> Solo(Asm.size());
    for (size_t I = 0; I < Asm.size(); ++I)
      Solo[I] = D.translate(Asm[I], 2, 24, CM);

    for (int Shards : {1, 2, 4}) {
      serve::EngineOptions EO;
      EO.BeamSize = 2;
      EO.MaxLen = 24;
      EO.MaxLiveSources = 2;
      EO.Shards = Shards;
      EO.UseDecodeCache = false;
      EO.Constrain = CM;
      EO.Speculate = SpecMode::On;
      EO.DraftGamma = 3;
      serve::Engine Eng(D, EO);
      std::vector<serve::Handle> Futs;
      for (size_t R = 0; R < 2; ++R)
        for (size_t I = 0; I < Asm.size(); ++I)
          Futs.push_back(Eng.submit({"job", Asm[I], {}, {}, nullptr}));
      for (size_t K = 0; K < Futs.size(); ++K)
        EXPECT_EQ(Futs[K].get().CSource, Solo[K % Asm.size()])
            << "constrained=" << Constrained << " shards=" << Shards
            << " request " << K;
      serve::EngineMetrics M = Eng.metrics();
      EXPECT_GT(M.SpecRounds, 0u) << "speculative ticks must have run";
      EXPECT_GT(M.DraftProposed, 0u) << "the draft must have proposed";
      EXPECT_EQ(M.SpecFallbacks, 0u) << "mode On never gates";
    }
  }
}

TEST(SpecServe, TickThreadsByteIdenticalWithSpeculation) {
  // Speculative serving with the intra-tick pool installed: the draft's
  // int8 forwards AND the full model's batched verify both split their
  // row ranges across the per-shard workers, and outputs must stay
  // byte-identical to the plain sequential oracle at every tick-thread
  // and shard count, with and without the grammar constraint.
  testutil::DecompilerFixture F(5);
  ASSERT_GE(F.Tasks.size(), 3u);
  const core::Decompiler &D = *F.Slade;
  std::vector<std::string> Asm;
  std::vector<std::vector<int>> Sources;
  for (const core::EvalTask &T : F.Tasks) {
    Asm.push_back(T.Prog.TargetAsm);
    Sources.push_back(D.tokenizer().encode(T.Prog.TargetAsm));
  }
  DraftConfig DC;
  DC.Steps = 40;
  DC.BatchSize = 2;
  DC.MaxTeacherLen = 24;
  D.attachDraft(std::make_shared<const DraftModel>(
      DraftModel::distill(D.model(), Sources, DC)));

  for (bool Constrained : {false, true}) {
    ConstrainMode CM =
        Constrained ? ConstrainMode::Syntax : ConstrainMode::Off;
    std::vector<std::string> Solo(Asm.size());
    for (size_t I = 0; I < Asm.size(); ++I)
      Solo[I] = D.translate(Asm[I], 2, 24, CM);

    for (int Shards : {1, 2})
      for (int TickThreads : {2, 4}) {
        serve::EngineOptions EO;
        EO.BeamSize = 2;
        EO.MaxLen = 24;
        EO.MaxLiveSources = 2;
        EO.Shards = Shards;
        EO.TickThreads = TickThreads;
        EO.UseDecodeCache = false;
        EO.Constrain = CM;
        EO.Speculate = SpecMode::On;
        EO.DraftGamma = 3;
        serve::Engine Eng(D, EO);
        std::vector<serve::Handle> Futs;
        for (size_t R = 0; R < 2; ++R)
          for (size_t I = 0; I < Asm.size(); ++I)
            Futs.push_back(Eng.submit({"job", Asm[I], {}, {}, nullptr}));
        for (size_t K = 0; K < Futs.size(); ++K)
          EXPECT_EQ(Futs[K].get().CSource, Solo[K % Asm.size()])
              << "constrained=" << Constrained << " shards=" << Shards
              << " tick-threads=" << TickThreads << " request " << K;
        serve::EngineMetrics M = Eng.metrics();
        EXPECT_GT(M.SpecRounds, 0u) << "speculative ticks must have run";
      }
  }
}

TEST(SpecServe, AutoGateRevertsBadDraftAndStaysByteIdentical) {
  // An untrained draft proposes junk the full model rejects every round;
  // the Auto acceptance gate must demote each surviving request to plain
  // decode (SpecFallbacks counts them) without changing a single output
  // byte.
  testutil::DecompilerFixture F(4);
  ASSERT_GE(F.Tasks.size(), 2u);
  const core::Decompiler &D = *F.Slade;
  std::vector<std::string> Asm;
  std::vector<std::vector<int>> Sources;
  for (const core::EvalTask &T : F.Tasks) {
    Asm.push_back(T.Prog.TargetAsm);
    Sources.push_back(D.tokenizer().encode(T.Prog.TargetAsm));
  }
  DraftConfig DC;
  DC.Steps = 0; // Random-init draft: acceptance ~0.
  D.attachDraft(std::make_shared<const DraftModel>(
      DraftModel::distill(D.model(), Sources, DC)));

  std::vector<std::string> Solo(Asm.size());
  for (size_t I = 0; I < Asm.size(); ++I)
    Solo[I] = D.translate(Asm[I], 2, 32);

  serve::EngineOptions EO;
  EO.BeamSize = 2;
  EO.MaxLen = 32;
  EO.MaxLiveSources = 2;
  EO.Shards = 2;
  EO.UseDecodeCache = false;
  EO.Speculate = SpecMode::Auto;
  EO.DraftGamma = 3;
  serve::Engine Eng(D, EO);
  std::vector<serve::Handle> Futs;
  for (size_t I = 0; I < Asm.size(); ++I)
    Futs.push_back(Eng.submit({"job", Asm[I], {}, {}, nullptr}));
  for (size_t K = 0; K < Futs.size(); ++K)
    EXPECT_EQ(Futs[K].get().CSource, Solo[K]) << "request " << K;
  serve::EngineMetrics M = Eng.metrics();
  EXPECT_GT(M.SpecFallbacks, 0u)
      << "the gate must revert requests fed by a useless draft";
}

} // namespace
