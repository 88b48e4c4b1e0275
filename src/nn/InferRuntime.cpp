//===- InferRuntime.cpp - graph-free inference runtime ------------------------===//

#include "nn/InferRuntime.h"

#include "nn/Attention.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>

using namespace slade;
using namespace slade::nn;

//===----------------------------------------------------------------------===//
// EncodeScratch arena + process-wide pool
//===----------------------------------------------------------------------===//

void EncodeScratch::ensure(const TransformerConfig &Cfg, int T) {
  size_t Tz = static_cast<size_t>(T);
  size_t D = static_cast<size_t>(Cfg.DModel);
  size_t Dh = D / static_cast<size_t>(Cfg.NHeads);
  auto Grow = [](std::vector<float> &V, size_t N) {
    if (V.size() < N)
      V.resize(N);
  };
  Grow(X, Tz * D);
  Grow(Norm, Tz * D);
  Grow(Q, Tz * D);
  Grow(K, Tz * D);
  Grow(V, Tz * D);
  Grow(Qh, Tz * Dh);
  Grow(Kh, Tz * Dh);
  Grow(Vh, Tz * Dh);
  Grow(Scores, Tz * Tz);
  Grow(HeadOut, Tz * Dh);
  Grow(Attn, Tz * D);
  Grow(Proj, Tz * D);
  Grow(FF1, Tz * static_cast<size_t>(Cfg.FF));
}

size_t EncodeScratch::bytes() const {
  size_t B = 0;
  for (const std::vector<float> *Buf :
       {&X, &Norm, &Q, &K, &V, &Qh, &Kh, &Vh, &Scores, &HeadOut, &Attn,
        &Proj, &FF1})
    B += Buf->capacity() * sizeof(float);
  B += PackB.bytes();
  return B;
}

namespace {

/// Idle arenas waiting for the next encode. Bounded so a burst of
/// concurrent encodes cannot pin unbounded memory; arenas past the bound
/// are simply freed.
struct ScratchPool {
  std::mutex Mu;
  std::vector<std::unique_ptr<EncodeScratch>> Free;
};

ScratchPool &scratchPool() {
  static ScratchPool P;
  return P;
}

constexpr size_t MaxPooledScratches = 8;

/// RAII lease: pop an arena from the pool (or create one), return it on
/// destruction.
struct ScratchLease {
  std::unique_ptr<EncodeScratch> S;
  ScratchLease() {
    ScratchPool &P = scratchPool();
    std::lock_guard<std::mutex> Lock(P.Mu);
    if (!P.Free.empty()) {
      S = std::move(P.Free.back());
      P.Free.pop_back();
    } else {
      S = std::make_unique<EncodeScratch>();
    }
  }
  ~ScratchLease() {
    ScratchPool &P = scratchPool();
    std::lock_guard<std::mutex> Lock(P.Mu);
    if (P.Free.size() < MaxPooledScratches)
      P.Free.push_back(std::move(S));
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Encoder fast path
//===----------------------------------------------------------------------===//

// Every helper below partitions OUTPUT elements only (row ranges when
// there are enough rows to feed the pool, column-tile ranges otherwise);
// each element's K-reduction runs sequentially on one thread, so every
// split is bit-identical to the sequential kernel.

void InferRuntime::linearRowsBiasAfter(const float *X, int Rows,
                                       const PackedMat &W, const float *Bias,
                                       float *Out, ParallelFor *TP) const {
  int InD = W.K, OutD = W.N;
  auto RowRange = [&](int B, int E, int) {
    std::fill(Out + static_cast<size_t>(B) * OutD,
              Out + static_cast<size_t>(E) * OutD, 0.0f);
    gemmAccPacked(X + static_cast<size_t>(B) * InD, W,
                  Out + static_cast<size_t>(B) * OutD, E - B);
    for (int R = B; R < E; ++R) {
      float *Row = Out + static_cast<size_t>(R) * OutD;
      for (int J = 0; J < OutD; ++J)
        Row[J] += Bias[static_cast<size_t>(J)];
    }
  };
  if (!TP || TP->threads() <= 1) {
    RowRange(0, Rows, 0);
  } else if (Rows >= TP->threads()) {
    TP->run(Rows, RowRange);
  } else {
    TP->run(W.tileCount(), [&](int T0, int T1, int) {
      int J0 = T0 * GemmTileN, J1 = std::min(OutD, T1 * GemmTileN);
      for (int R = 0; R < Rows; ++R)
        std::fill(Out + static_cast<size_t>(R) * OutD + J0,
                  Out + static_cast<size_t>(R) * OutD + J1, 0.0f);
      gemmAccPackedTiles(X, W, Out, Rows, T0, T1);
      for (int R = 0; R < Rows; ++R) {
        float *Row = Out + static_cast<size_t>(R) * OutD;
        for (int J = J0; J < J1; ++J)
          Row[J] += Bias[static_cast<size_t>(J)];
      }
    });
  }
}

void InferRuntime::linearRows(const float *X, int Rows, const PackedMat &W,
                              const float *Bias, float *Out,
                              ParallelFor *TP) const {
  int InD = W.K, OutD = W.N;
  auto RowRange = [&](int B, int E, int) {
    for (int R = B; R < E; ++R)
      std::memcpy(Out + static_cast<size_t>(R) * OutD, Bias,
                  static_cast<size_t>(OutD) * sizeof(float));
    gemmAccPacked(X + static_cast<size_t>(B) * InD, W,
                  Out + static_cast<size_t>(B) * OutD, E - B);
  };
  if (!TP || TP->threads() <= 1) {
    RowRange(0, Rows, 0);
  } else if (Rows >= TP->threads()) {
    TP->run(Rows, RowRange);
  } else {
    TP->run(W.tileCount(), [&](int T0, int T1, int) {
      int J0 = T0 * GemmTileN, J1 = std::min(OutD, T1 * GemmTileN);
      for (int R = 0; R < Rows; ++R)
        std::memcpy(Out + static_cast<size_t>(R) * OutD + J0, Bias + J0,
                    static_cast<size_t>(J1 - J0) * sizeof(float));
      gemmAccPackedTiles(X, W, Out, Rows, T0, T1);
    });
  }
}

void InferRuntime::gemmPackedPar(const float *X, const PackedMat &W,
                                 float *C, int Rows, ParallelFor *TP) const {
  int InD = W.K, OutD = W.N;
  if (!TP || TP->threads() <= 1) {
    gemmAccPacked(X, W, C, Rows);
  } else if (Rows >= TP->threads()) {
    TP->run(Rows, [&](int B, int E, int) {
      gemmAccPacked(X + static_cast<size_t>(B) * InD, W,
                    C + static_cast<size_t>(B) * OutD, E - B);
    });
  } else {
    TP->run(W.tileCount(), [&](int T0, int T1, int) {
      gemmAccPackedTiles(X, W, C, Rows, T0, T1);
    });
  }
}

void InferRuntime::encodeInto(const std::vector<int> &Src, EncodeScratch &S,
                              Transformer::EncoderCache &Out) const {
  const TransformerConfig &Cfg = M.Cfg;
  int T = static_cast<int>(Src.size());
  if (T > Cfg.MaxLen)
    T = Cfg.MaxLen;
  // Every id read below indexes TokEmb: one outside the vocabulary means
  // the tokenizer and the model do not match. Checked in every build.
  for (int I = 0; I < T; ++I) {
    int Id = Src[static_cast<size_t>(I)];
    if (Id < 0 || Id >= Cfg.Vocab)
      throw std::out_of_range("encode: source id " + std::to_string(Id) +
                              " is outside the model's vocabulary of " +
                              std::to_string(Cfg.Vocab));
  }
  int D = Cfg.DModel, H = Cfg.NHeads, Dh = D / H, FF = Cfg.FF;
  S.ensure(Cfg, T);

  float *X = S.X.data(), *Norm = S.Norm.data(), *Q = S.Q.data(),
        *K = S.K.data(), *V = S.V.data(), *Qh = S.Qh.data(),
        *Kh = S.Kh.data(), *Vh = S.Vh.data(), *Scores = S.Scores.data(),
        *HeadOut = S.HeadOut.data(), *Attn = S.Attn.data(),
        *Proj = S.Proj.data(), *FF1 = S.FF1.data();
  size_t TD = static_cast<size_t>(T) * D;

  // Weight-version-pinned packed tiles for every persistent matrix this
  // pass multiplies by — no per-call weight packing anywhere below.
  std::shared_ptr<const Transformer::PackedWeights> PW = M.packedWeights();

  // Row ranges only: every loop below either writes disjoint rows per
  // chunk or is a GEMM whose splits are bit-identical (see helpers).
  auto ForRows = [&](int N, const std::function<void(int)> &RowFn) {
    if (!TP || TP->threads() <= 1) {
      for (int I = 0; I < N; ++I)
        RowFn(I);
      return;
    }
    TP->run(N, [&](int B, int E, int) {
      for (int I = B; I < E; ++I)
        RowFn(I);
    });
  };

  // Token + learned-position embedding (same position clamp as the embed
  // op, though T <= MaxLen makes it a no-op here).
  ForRows(T, [&](int I) {
    int Id = Src[static_cast<size_t>(I)];
    int P = I < M.EncPos.R ? I : M.EncPos.R - 1;
    const float *Tok = M.TokEmb.V.data() + static_cast<size_t>(Id) * D;
    const float *Pos = M.EncPos.V.data() + static_cast<size_t>(P) * D;
    float *XRow = X + static_cast<size_t>(I) * D;
    for (int J = 0; J < D; ++J)
      XRow[J] = Tok[J] + Pos[J];
  });

  float Scale = 1.0f / std::sqrt(static_cast<float>(Dh));
  for (size_t LI = 0; LI < M.Enc.size(); ++LI) {
    const Transformer::EncLayer &L = M.Enc[LI];
    const Transformer::PackedWeights::EncLayerPack &LP = PW->Enc[LI];
    // Pre-LN self-attention block. Q/K/V run as the SAME three GEMMs the
    // training graph issues (bias after the product, per-head score and
    // value products over contiguous [T, Dh] slices) so every
    // intermediate rounds identically to the graph path.
    ForRows(T, [&](int I) {
      layerNormRow(X + static_cast<size_t>(I) * D, D, L.LN1.Gamma.V.data(),
                   L.LN1.Beta.V.data(), Norm + static_cast<size_t>(I) * D);
    });
    linearRowsBiasAfter(Norm, T, LP.Wq, L.Self.Bq.V.data(), Q, TP);
    linearRowsBiasAfter(Norm, T, LP.Wk, L.Self.Bk.V.data(), K, TP);
    linearRowsBiasAfter(Norm, T, LP.Wv, L.Self.Bv.V.data(), V, TP);
    for (int Hd = 0; Hd < H; ++Hd) {
      int Off = Hd * Dh;
      size_t DhBytes = static_cast<size_t>(Dh) * sizeof(float);
      ForRows(T, [&](int I) {
        size_t Row = static_cast<size_t>(I);
        std::memcpy(Qh + Row * Dh, Q + Row * D + Off, DhBytes);
        std::memcpy(Kh + Row * Dh, K + Row * D + Off, DhBytes);
        std::memcpy(Vh + Row * Dh, V + Row * D + Off, DhBytes);
      });
      // Kh^T is an activation, so it packs per call — into the arena's
      // explicit scratch handle, once per head, then every score row
      // range reuses the pack.
      packBTransposedInto(Kh, T, Dh, S.PackB);
      auto ScoreRows = [&](int B, int E, int) {
        float *SB = Scores + static_cast<size_t>(B) * T;
        size_t RowsT = static_cast<size_t>(E - B) * T;
        std::fill(SB, SB + RowsT, 0.0f);
        gemmAccPacked(Qh + static_cast<size_t>(B) * Dh, S.PackB, SB, E - B);
        for (size_t I = 0; I < RowsT; ++I)
          SB[I] *= Scale;
        for (int I = B; I < E; ++I)
          softmaxRowInPlace(Scores + static_cast<size_t>(I) * T, T);
      };
      auto ValueRows = [&](int B, int E, int) {
        float *OB = HeadOut + static_cast<size_t>(B) * Dh;
        std::fill(OB, OB + static_cast<size_t>(E - B) * Dh, 0.0f);
        gemmAcc(Scores + static_cast<size_t>(B) * T, Vh, OB, E - B, T, Dh);
        for (int I = B; I < E; ++I)
          std::memcpy(Attn + static_cast<size_t>(I) * D + Off,
                      HeadOut + static_cast<size_t>(I) * Dh, DhBytes);
      };
      if (!TP || TP->threads() <= 1) {
        ScoreRows(0, T, 0);
        ValueRows(0, T, 0);
      } else {
        // Two regions: run()'s barrier guarantees a value chunk sees the
        // score rows even if a different worker computed them.
        TP->run(T, ScoreRows);
        TP->run(T, ValueRows);
      }
    }
    linearRowsBiasAfter(Attn, T, LP.Wo, L.Self.Bo.V.data(), Proj, TP);
    ForRows(T, [&](int I) {
      for (int J = 0; J < D; ++J)
        X[static_cast<size_t>(I) * D + J] +=
            Proj[static_cast<size_t>(I) * D + J];
    });

    // Feed-forward block.
    ForRows(T, [&](int I) {
      layerNormRow(X + static_cast<size_t>(I) * D, D, L.LN2.Gamma.V.data(),
                   L.LN2.Beta.V.data(), Norm + static_cast<size_t>(I) * D);
    });
    linearRowsBiasAfter(Norm, T, LP.W1, L.B1.V.data(), FF1, TP);
    for (size_t I = 0; I < static_cast<size_t>(T) * FF; ++I)
      FF1[I] = FF1[I] > 0.0f ? FF1[I] : 0.0f;
    linearRowsBiasAfter(FF1, T, LP.W2, L.B2.V.data(), Proj, TP);
    ForRows(T, [&](int I) {
      for (int J = 0; J < D; ++J)
        X[static_cast<size_t>(I) * D + J] +=
            Proj[static_cast<size_t>(I) * D + J];
    });
  }

  Out.EncOut.resize(TD);
  ForRows(T, [&](int I) {
    layerNormRow(X + static_cast<size_t>(I) * D, D,
                 M.EncFinal.Gamma.V.data(), M.EncFinal.Beta.V.data(),
                 Out.EncOut.data() + static_cast<size_t>(I) * D);
  });
  Out.TSrc = T;
}

void InferRuntime::finishEncoderCache(
    Transformer::EncoderCache &Cache) const {
  int D = M.Cfg.DModel, T = Cache.TSrc;
  size_t KStride = static_cast<size_t>(crossKStride(T));
  // Cross-attention K/V per decoder layer, batched over the source
  // positions. K is projected row-major into V's buffer, then stored
  // transposed ([D][KStride], zero-padded) for the decoder's group
  // kernel; V's projection then overwrites the buffer.
  Cache.CrossKT.resize(M.Dec.size());
  Cache.CrossV.resize(M.Dec.size());
  std::shared_ptr<const Transformer::PackedWeights> PW = M.packedWeights();
  for (size_t L = 0; L < M.Dec.size(); ++L) {
    const Transformer::Attn &A = M.Dec[L].Cross;
    std::vector<float> &V = Cache.CrossV[L];
    V.assign(static_cast<size_t>(T) * D, 0.0f);
    linearRows(Cache.EncOut.data(), T, PW->CrossWk[L], A.Bk.V.data(),
               V.data(), TP);
    std::vector<float> &KT = Cache.CrossKT[L];
    KT.assign(static_cast<size_t>(D) * KStride, 0.0f);
    for (size_t Tt = 0; Tt < static_cast<size_t>(T); ++Tt)
      for (size_t J = 0; J < static_cast<size_t>(D); ++J)
        KT[J * KStride + Tt] = V[Tt * D + J];
    linearRows(Cache.EncOut.data(), T, PW->CrossWv[L], A.Bv.V.data(),
               V.data(), TP);
  }
  // Decode-session constants (fused Q|K|V projection, transposed output
  // embedding) are per-model, not per-source: borrow the shared
  // weight-versioned copy instead of rebuilding them per request.
  Cache.Consts = M.decodeConstants();
}

std::shared_ptr<const Transformer::EncoderCache>
InferRuntime::encodeSource(const std::vector<int> &Src) const {
  auto Cache = std::make_shared<Transformer::EncoderCache>();
  {
    ScratchLease Lease;
    encodeInto(Src, *Lease.S, *Cache);
  }
  finishEncoderCache(*Cache);
  return Cache;
}

//===----------------------------------------------------------------------===//
// Decode constants
//===----------------------------------------------------------------------===//

std::shared_ptr<const Transformer::DecodeConstants>
InferRuntime::buildDecodeConstants() const {
  int D = M.Cfg.DModel;
  auto C = std::make_shared<Transformer::DecodeConstants>();
  C->Version = M.WeightVersion;
  // Pre-pack EVERY persistent weight-side operand into the blocked
  // tile-major microkernel layout, once per weight version. The per-tick
  // GEMMs consume these directly and skip per-call packing.
  size_t NL = M.Dec.size();
  C->SelfQKVB.resize(NL);
  C->SelfQKVWP.resize(NL);
  C->SelfWoP.resize(NL);
  C->CrossWqP.resize(NL);
  C->CrossWoP.resize(NL);
  C->FF1P.resize(NL);
  C->FF2P.resize(NL);
  std::vector<float> QKVW(static_cast<size_t>(D) * 3 * D);
  for (size_t L = 0; L < NL; ++L) {
    const Transformer::DecLayer &Lay = M.Dec[L];
    // Fused Q|K|V projection: one GEMM projects all three.
    const Transformer::Attn &A = Lay.Self;
    std::vector<float> &B = C->SelfQKVB[L];
    B.resize(static_cast<size_t>(3) * D);
    for (int I = 0; I < D; ++I)
      for (int J = 0; J < D; ++J) {
        QKVW[static_cast<size_t>(I) * 3 * D + J] = A.Wq.at(I, J);
        QKVW[static_cast<size_t>(I) * 3 * D + D + J] = A.Wk.at(I, J);
        QKVW[static_cast<size_t>(I) * 3 * D + 2 * D + J] = A.Wv.at(I, J);
      }
    for (int J = 0; J < D; ++J) {
      B[static_cast<size_t>(J)] = A.Bq.V[static_cast<size_t>(J)];
      B[static_cast<size_t>(D + J)] = A.Bk.V[static_cast<size_t>(J)];
      B[static_cast<size_t>(2 * D + J)] = A.Bv.V[static_cast<size_t>(J)];
    }
    packBInto(QKVW.data(), D, 3 * D, C->SelfQKVWP[L]);
    packBInto(Lay.Self.Wo.V.data(), D, D, C->SelfWoP[L]);
    packBInto(Lay.Cross.Wq.V.data(), D, D, C->CrossWqP[L]);
    packBInto(Lay.Cross.Wo.V.data(), D, D, C->CrossWoP[L]);
    packBInto(Lay.W1.V.data(), D, M.Cfg.FF, C->FF1P[L]);
    packBInto(Lay.W2.V.data(), M.Cfg.FF, D, C->FF2P[L]);
  }
  // TokEmb is [Vocab, D], i.e. the logits operand [D, Vocab] transposed.
  packBTransposedInto(M.TokEmb.V.data(), M.Cfg.Vocab, D, C->EmbTP);
  return C;
}

std::shared_ptr<const Transformer::PackedWeights>
InferRuntime::buildPackedWeights() const {
  int D = M.Cfg.DModel, FF = M.Cfg.FF;
  auto P = std::make_shared<Transformer::PackedWeights>();
  P->Version = M.WeightVersion;
  P->Enc.resize(M.Enc.size());
  for (size_t L = 0; L < M.Enc.size(); ++L) {
    const Transformer::EncLayer &Lay = M.Enc[L];
    Transformer::PackedWeights::EncLayerPack &E = P->Enc[L];
    packBInto(Lay.Self.Wq.V.data(), D, D, E.Wq);
    packBInto(Lay.Self.Wk.V.data(), D, D, E.Wk);
    packBInto(Lay.Self.Wv.V.data(), D, D, E.Wv);
    packBInto(Lay.Self.Wo.V.data(), D, D, E.Wo);
    packBInto(Lay.W1.V.data(), D, FF, E.W1);
    packBInto(Lay.W2.V.data(), FF, D, E.W2);
  }
  P->CrossWk.resize(M.Dec.size());
  P->CrossWv.resize(M.Dec.size());
  for (size_t L = 0; L < M.Dec.size(); ++L) {
    packBInto(M.Dec[L].Cross.Wk.V.data(), D, D, P->CrossWk[L]);
    packBInto(M.Dec[L].Cross.Wv.V.data(), D, D, P->CrossWv[L]);
  }
  return P;
}

//===----------------------------------------------------------------------===//
// Batched decode (shared encoder/cross caches, one GEMM per beam batch)
//===----------------------------------------------------------------------===//

Transformer::BatchDecodeState
InferRuntime::startDecodeStream(int MaxSources, int BeamsPerSource,
                                int MaxSteps) const {
  // No live rows: sources are bound later via admitStreamRow.
  assert(MaxSources > 0 && BeamsPerSource > 0 && MaxSteps > 0);
  assert(MaxSources <= 65535 && BeamsPerSource <= 65535 &&
         "source/slot ids are uint16");
  Transformer::BatchDecodeState St;
  int MaxBeams = BeamsPerSource * MaxSources;
  St.BMax = MaxBeams;
  St.KMax = BeamsPerSource;
  St.Cap = MaxSteps;
  St.SegCount = MaxSources;
  St.SegLen.assign(static_cast<size_t>(MaxSources), 0);
  St.RowEnc.resize(static_cast<size_t>(MaxBeams));
  St.RowSource.assign(static_cast<size_t>(MaxBeams), 0);
  int D = M.Cfg.DModel;
  size_t PerLayer = static_cast<size_t>(MaxBeams) * St.Cap * D;
  St.SelfK.assign(M.Dec.size(), std::vector<float>(PerLayer));
  St.SelfV.assign(M.Dec.size(), std::vector<float>(PerLayer));
  St.Anc.assign(static_cast<size_t>(MaxBeams) * St.Cap, 0);
  size_t Rows = static_cast<size_t>(MaxBeams) * D;
  St.X.resize(Rows);
  St.Norm.resize(Rows);
  St.QKV.resize(Rows * 3);
  St.AttnOut.resize(Rows);
  St.Proj.resize(Rows);
  St.FF1.resize(static_cast<size_t>(MaxBeams) * M.Cfg.FF);
  St.Consts = M.decodeConstants();
  return St;
}

int InferRuntime::admitStreamRow(
    Transformer::BatchDecodeState &St, int Seg,
    std::shared_ptr<const Transformer::EncoderCache> Enc) const {
  assert(Seg >= 0 && Seg < St.SegCount && "segment out of range");
  assert(St.B < St.BMax && "no free rows to admit into");
#ifndef NDEBUG
  for (int Bi = 0; Bi < St.B; ++Bi)
    assert(St.RowSource[static_cast<size_t>(Bi)] != Seg &&
           "recycled segment still has live rows");
#endif
  // An idle state adopts the incoming constants: the engine outlives
  // weight updates between decode sessions. A version MISMATCH against
  // live rows is refused at runtime (not just asserted): mixing one
  // version's QKV constants with another version's encoder K/V would
  // silently decode garbage. The caller defers the admission until the
  // batch drains.
  if (St.B == 0)
    St.Consts = Enc->Consts;
  else if (!St.Consts || !Enc->Consts ||
           St.Consts->Version != Enc->Consts->Version)
    return -1;
  St.SegLen[static_cast<size_t>(Seg)] = 0; // Fresh decode clock.
  St.MaxTSrc = std::max(St.MaxTSrc, Enc->TSrc);
  int Row = St.B++;
  St.RowEnc[static_cast<size_t>(Row)] = std::move(Enc);
  St.RowSource[static_cast<size_t>(Row)] = static_cast<uint16_t>(Seg);
  return Row;
}

std::vector<float>
InferRuntime::forwardDecodeRows(Transformer::BatchDecodeState &St) const {
  const TransformerConfig &Cfg = M.Cfg;
  const std::vector<Transformer::DecodeRowPlan> &Rows = St.FwdRows;
  int N = static_cast<int>(Rows.size());
  int D = Cfg.DModel, H = Cfg.NHeads, Dh = D / H;
  const Transformer::DecodeConstants &Consts = *St.Consts;
  // The row scratch was sized for BMax rows at start.
  assert(N <= St.BMax && "more forward rows than the state holds");
  size_t RowsD = static_cast<size_t>(N) * D;

  // Intra-tick pool: null (or 1 thread) means the sequential code path,
  // taken branch-for-branch as before this field existed.
  ParallelFor *TP = St.TP;
  if (TP && TP->threads() <= 1)
    TP = nullptr;

  // Cross-attention groups: maximal runs of adjacent rows that share an
  // EncoderCache. Each group attends in one pass per head.
  std::vector<int> &Groups = St.CrossGroups;
  Groups.clear();
  for (int R = 0; R < N; ++R)
    if (R == 0 || Rows[static_cast<size_t>(R)].Enc !=
                      Rows[static_cast<size_t>(R - 1)].Enc)
      Groups.push_back(R);
  Groups.push_back(N);
  int NumGroups = static_cast<int>(Groups.size()) - 1, GroupMax = 0;
  for (size_t G = 0; G + 1 < Groups.size(); ++G)
    GroupMax = std::max(GroupMax, Groups[G + 1] - Groups[G]);

  // One score slab per pool chunk so concurrent work never shares softmax
  // scratch (chunk 0's slab is the sequential one): a row per head for
  // self-attention, a row per group member for cross-attention. Rows are
  // whole vectors long so the cross kernel's padded stores fit.
  int ScoreStride = crossKStride(std::max(St.Cap, St.MaxTSrc));
  size_t SlabFloats =
      static_cast<size_t>(std::max(H, GroupMax)) * ScoreStride;
  size_t ScoreFloats = static_cast<size_t>(TP ? TP->threads() : 1) * SlabFloats;
  if (St.Scores.size() < ScoreFloats)
    St.Scores.resize(ScoreFloats);

  float *X = St.X.data(), *Norm = St.Norm.data(), *QKV = St.QKV.data(),
        *AttnOut = St.AttnOut.data(), *Proj = St.Proj.data(),
        *FF1 = St.FF1.data(), *Scores = St.Scores.data();
  for (int R = 0; R < N; ++R) {
    const Transformer::DecodeRowPlan &Row = Rows[static_cast<size_t>(R)];
    for (int J = 0; J < D; ++J)
      X[static_cast<size_t>(R) * D + J] =
          M.TokEmb.at(Row.Token, J) + M.DecPos.at(Row.Pos, J);
  }

  float InvS = 1.0f / std::sqrt(static_cast<float>(Dh));

  // Per-source segment geometry: [Cap, KMax, D] time-major per segment.
  size_t TimeStride = static_cast<size_t>(St.KMax) * D;
  size_t SegStride = static_cast<size_t>(St.Cap) * TimeStride;

  for (size_t L = 0; L < M.Dec.size(); ++L) {
    const Transformer::DecLayer &Lay = M.Dec[L];

    // Self attention: one fused Q|K|V GEMM for the whole row batch.
    for (int R = 0; R < N; ++R)
      layerNormRow(X + static_cast<size_t>(R) * D, D,
                   Lay.LN1.Gamma.V.data(), Lay.LN1.Beta.V.data(),
                   Norm + static_cast<size_t>(R) * D);
    for (int R = 0; R < N; ++R)
      std::memcpy(QKV + static_cast<size_t>(R) * 3 * D,
                  Consts.SelfQKVB[L].data(),
                  static_cast<size_t>(3) * D * sizeof(float));
    gemmPackedPar(Norm, Consts.SelfQKVWP[L], QKV, N, TP);
    // Each row writes its new K/V once, at its descriptor's (segment,
    // time, slot); the row is never moved afterwards — descendants find
    // it via the slot tables. ALL writes land before ANY row attends.
    for (int R = 0; R < N; ++R) {
      const Transformer::DecodeRowPlan &Row = Rows[static_cast<size_t>(R)];
      size_t Slot = static_cast<size_t>(Row.Seg) * SegStride +
                    static_cast<size_t>(Row.WriteT) * TimeStride +
                    static_cast<size_t>(Row.WriteSlot) * D;
      const float *Src = QKV + static_cast<size_t>(R) * 3 * D;
      std::memcpy(&St.SelfK[L][Slot], Src + D,
                  static_cast<size_t>(D) * sizeof(float));
      std::memcpy(&St.SelfV[L][Slot], Src + 2 * D,
                  static_cast<size_t>(D) * sizeof(float));
    }
    auto SelfAttendRows = [&](int B, int E, int Chunk) {
      float *CScores = Scores + static_cast<size_t>(Chunk) * SlabFloats;
      for (int R = B; R < E; ++R) {
        const Transformer::DecodeRowPlan &Row =
            Rows[static_cast<size_t>(R)];
        int TCtx = Row.WriteT + 1;
        const float *KBase =
            St.SelfK[L].data() + static_cast<size_t>(Row.Seg) * SegStride;
        const float *VBase =
            St.SelfV[L].data() + static_cast<size_t>(Row.Seg) * SegStride;
        const uint16_t *Sl = Row.Slots;
        attendCachedDyn(
            QKV + static_cast<size_t>(R) * 3 * D,
            AttnOut + static_cast<size_t>(R) * D, TCtx, H, Dh, InvS,
            CScores, ScoreStride,
            [&](int Tt) {
              return KBase + static_cast<size_t>(Tt) * TimeStride +
                     static_cast<size_t>(Sl[Tt]) * D;
            },
            [&](int Tt) {
              return VBase + static_cast<size_t>(Tt) * TimeStride +
                     static_cast<size_t>(Sl[Tt]) * D;
            });
      }
    };
    if (!TP)
      SelfAttendRows(0, N, 0);
    else
      TP->run(N, SelfAttendRows);
    linearRows(AttnOut, N, Consts.SelfWoP[L], Lay.Self.Bo.V.data(), Proj,
               TP);
    for (size_t I = 0; I < RowsD; ++I)
      X[I] += Proj[I];

    // Cross attention: the K/V caches are shared by every beam of one
    // source; each group of rows attends over its source's cache (rows of
    // different sources may share the batch).
    for (int R = 0; R < N; ++R)
      layerNormRow(X + static_cast<size_t>(R) * D, D,
                   Lay.LN2.Gamma.V.data(), Lay.LN2.Beta.V.data(),
                   Norm + static_cast<size_t>(R) * D);
    linearRows(Norm, N, Consts.CrossWqP[L], Lay.Cross.Bq.V.data(), QKV,
               TP);
    // Work items are (group, head) pairs; each writes only its group's
    // head slice of AttnOut.
    auto CrossAttendGroups = [&](int B, int E, int Chunk) {
      float *CScores = Scores + static_cast<size_t>(Chunk) * SlabFloats;
      for (int I = B; I < E; ++I) {
        int R0 = Groups[static_cast<size_t>(I / H)];
        int R1 = Groups[static_cast<size_t>(I / H + 1)];
        const Transformer::EncoderCache &Enc =
            *Rows[static_cast<size_t>(R0)].Enc;
        crossAttendGroup(QKV + static_cast<size_t>(R0) * D,
                         AttnOut + static_cast<size_t>(R0) * D, R1 - R0, D,
                         Dh, I % H, Enc.CrossKT[L].data(),
                         static_cast<size_t>(crossKStride(Enc.TSrc)),
                         Enc.CrossV[L].data(), Enc.TSrc, InvS, CScores,
                         static_cast<size_t>(ScoreStride));
      }
    };
    if (!TP)
      CrossAttendGroups(0, NumGroups * H, 0);
    else
      TP->run(NumGroups * H, CrossAttendGroups);
    linearRows(AttnOut, N, Consts.CrossWoP[L], Lay.Cross.Bo.V.data(), Proj,
               TP);
    for (size_t I = 0; I < RowsD; ++I)
      X[I] += Proj[I];

    // FFN, batched across rows.
    for (int R = 0; R < N; ++R)
      layerNormRow(X + static_cast<size_t>(R) * D, D,
                   Lay.LN3.Gamma.V.data(), Lay.LN3.Beta.V.data(),
                   Norm + static_cast<size_t>(R) * D);
    linearRows(Norm, N, Consts.FF1P[L], Lay.B1.V.data(), FF1, TP);
    for (size_t I = 0; I < static_cast<size_t>(N) * Cfg.FF; ++I)
      FF1[I] = FF1[I] > 0 ? FF1[I] : 0;
    linearRows(FF1, N, Consts.FF2P[L], Lay.B2.V.data(), Proj, TP);
    for (size_t I = 0; I < RowsD; ++I)
      X[I] += Proj[I];
  }

  for (int R = 0; R < N; ++R)
    layerNormRow(X + static_cast<size_t>(R) * D, D,
                 M.DecFinal.Gamma.V.data(), M.DecFinal.Beta.V.data(),
                 Norm + static_cast<size_t>(R) * D);
  // Logits against the shared embedding: one streaming [N,D]x[D,V] GEMM
  // over the pre-transposed table.
  std::vector<float> Logits(static_cast<size_t>(N) * Cfg.Vocab, 0.0f);
  gemmPackedPar(Norm, Consts.EmbTP, Logits.data(), N, TP);
  return Logits;
}

std::vector<float>
InferRuntime::stepDecodeBatch(Transformer::BatchDecodeState &St,
                              const std::vector<int> &Tokens) const {
  const TransformerConfig &Cfg = M.Cfg;
  int B = St.B;
  assert(static_cast<int>(Tokens.size()) == B && "one token per beam");
  // Each row decodes at ITS source's position: sources joining the batch
  // mid-flight carry their own clock (SegLen), so the same row's logits
  // are bit-identical whether it decodes solo or fused with rows at any
  // other positions. Rows of one source are contiguous, so the running
  // Local counter is the segment-local slot.
  St.FwdRows.resize(static_cast<size_t>(B));
  for (int Bi = 0, Local = 0; Bi < B; ++Bi) {
    Local = (Bi > 0 && St.RowSource[static_cast<size_t>(Bi)] ==
                           St.RowSource[static_cast<size_t>(Bi - 1)])
                ? Local + 1
                : 0;
    assert(Local < St.KMax && "source rows not contiguous");
    int SL = St.SegLen[St.RowSource[static_cast<size_t>(Bi)]];
    assert(SL < St.Cap && "self-cache capacity exhausted");
    // The row's own ancestry table doubles as its slot table: entry [SL]
    // is this step's slot (recorded before the forward reads it).
    St.Anc[static_cast<size_t>(Bi) * St.Cap + SL] =
        static_cast<uint16_t>(Local);
    Transformer::DecodeRowPlan &R = St.FwdRows[static_cast<size_t>(Bi)];
    R.Token = Tokens[static_cast<size_t>(Bi)];
    R.Pos = SL < Cfg.MaxLen ? SL : Cfg.MaxLen - 1;
    R.WriteT = SL;
    R.Seg = St.RowSource[static_cast<size_t>(Bi)];
    R.WriteSlot = static_cast<uint16_t>(Local);
    R.Enc = St.RowEnc[static_cast<size_t>(Bi)].get();
    R.Slots = &St.Anc[static_cast<size_t>(Bi) * St.Cap];
  }
  std::vector<float> Logits = forwardDecodeRows(St);
  // Advance each stepped source's clock once (its rows are contiguous).
  for (int Bi = 0; Bi < B; ++Bi)
    if (Bi == 0 || St.RowSource[static_cast<size_t>(Bi)] !=
                       St.RowSource[static_cast<size_t>(Bi - 1)]) {
      int SL = ++St.SegLen[St.RowSource[static_cast<size_t>(Bi)]];
      St.Len = std::max(St.Len, SL);
    }
  return Logits;
}

void InferRuntime::reorderBeams(Transformer::BatchDecodeState &St,
                                const std::vector<int> &SrcIdx) const {
  int NewB = static_cast<int>(SrcIdx.size());
  assert(NewB <= St.BMax && "beam count exceeds allocation");
  // Cached K/V rows never move: survivor selection only gathers the
  // per-beam ancestry index rows (the source's SegLen uint16 entries per
  // beam) and the per-row encoder bindings. Scratch rows use the Cap
  // stride; only each row's decoded prefix is copied.
  size_t Cap = static_cast<size_t>(St.Cap);
  St.AncScratch.resize(static_cast<size_t>(NewB) * Cap);
  St.RowEncScratch.resize(static_cast<size_t>(NewB));
  St.RowSourceScratch.resize(static_cast<size_t>(NewB));
  for (int Bi = 0; Bi < NewB; ++Bi) {
    size_t Src = static_cast<size_t>(SrcIdx[static_cast<size_t>(Bi)]);
    size_t Used = static_cast<size_t>(St.SegLen[St.RowSource[Src]]);
    std::memcpy(&St.AncScratch[static_cast<size_t>(Bi) * Cap],
                &St.Anc[Src * Cap], Used * sizeof(uint16_t));
    St.RowEncScratch[static_cast<size_t>(Bi)] = St.RowEnc[Src];
    St.RowSourceScratch[static_cast<size_t>(Bi)] = St.RowSource[Src];
  }
  for (int Bi = 0; Bi < NewB; ++Bi) {
    size_t Used = static_cast<size_t>(
        St.SegLen[St.RowSourceScratch[static_cast<size_t>(Bi)]]);
    std::memcpy(&St.Anc[static_cast<size_t>(Bi) * Cap],
                &St.AncScratch[static_cast<size_t>(Bi) * Cap],
                Used * sizeof(uint16_t));
    St.RowEnc[static_cast<size_t>(Bi)] =
        std::move(St.RowEncScratch[static_cast<size_t>(Bi)]);
    St.RowSource[static_cast<size_t>(Bi)] =
        St.RowSourceScratch[static_cast<size_t>(Bi)];
  }
  // Drop stale encoder bindings past the new row count so a retired
  // source's encoder output is not pinned by a long-lived state.
  for (int Bi = NewB; Bi < St.B; ++Bi)
    St.RowEnc[static_cast<size_t>(Bi)].reset();
  St.B = NewB;
}

void InferRuntime::abortStreamSegment(Transformer::BatchDecodeState &St,
                                      int Seg) const {
  // A survivor gather that omits the segment's rows: cached K/V never
  // moves, other rows keep their slots and ancestry, and the aborted
  // rows' encoder refs drop (reorderBeams resets the tail bindings).
  // The segment's SegLen is left as-is — admitStreamRow resets it when
  // the segment is recycled, same as a normal retirement.
  std::vector<int> Survivors;
  Survivors.reserve(static_cast<size_t>(St.B));
  for (int Bi = 0; Bi < St.B; ++Bi)
    if (St.RowSource[static_cast<size_t>(Bi)] !=
        static_cast<uint16_t>(Seg))
      Survivors.push_back(Bi);
  if (static_cast<int>(Survivors.size()) == St.B)
    return; // No live rows in the segment (pre-first-tick abort).
  reorderBeams(St, Survivors);
}
