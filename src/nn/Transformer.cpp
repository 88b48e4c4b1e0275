//===- Transformer.cpp - sequence-to-sequence Transformer --------------------===//

#include "nn/Transformer.h"

#include "nn/InferRuntime.h"
#include "support/RNG.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>

using namespace slade;
using namespace slade::nn;

namespace {

void initMat(Mat &M, int R, int C, SplitMix64 &Rng, float Std) {
  M = Mat(R, C);
  for (float &V : M.V)
    V = static_cast<float>(Rng.normal()) * Std;
}

void initOnes(Mat &M, int C) {
  M = Mat(1, C);
  std::fill(M.V.begin(), M.V.end(), 1.0f);
}

void initZeros(Mat &M, int R, int C) { M = Mat(R, C); }

} // namespace

Transformer::Transformer(const TransformerConfig &Cfg) : Cfg(Cfg) {
  SplitMix64 Rng(Cfg.Seed);
  const float Std = 0.02f; // Paper: N(0, 0.02).
  int D = Cfg.DModel;
  initMat(TokEmb, Cfg.Vocab, D, Rng, Std);
  initMat(EncPos, Cfg.MaxLen, D, Rng, Std);
  initMat(DecPos, Cfg.MaxLen, D, Rng, Std);
  auto initAttn = [&](Attn &A) {
    initMat(A.Wq, D, D, Rng, Std);
    initZeros(A.Bq, 1, D);
    initMat(A.Wk, D, D, Rng, Std);
    initZeros(A.Bk, 1, D);
    initMat(A.Wv, D, D, Rng, Std);
    initZeros(A.Bv, 1, D);
    initMat(A.Wo, D, D, Rng, Std);
    initZeros(A.Bo, 1, D);
  };
  auto initLN = [&](LN &L) {
    initOnes(L.Gamma, D);
    initZeros(L.Beta, 1, D);
  };
  Enc.resize(static_cast<size_t>(Cfg.EncLayers));
  for (EncLayer &L : Enc) {
    initLN(L.LN1);
    initAttn(L.Self);
    initLN(L.LN2);
    initMat(L.W1, D, Cfg.FF, Rng, Std);
    initZeros(L.B1, 1, Cfg.FF);
    initMat(L.W2, Cfg.FF, D, Rng, Std);
    initZeros(L.B2, 1, D);
  }
  Dec.resize(static_cast<size_t>(Cfg.DecLayers));
  for (DecLayer &L : Dec) {
    initLN(L.LN1);
    initAttn(L.Self);
    initLN(L.LN2);
    initAttn(L.Cross);
    initLN(L.LN3);
    initMat(L.W1, D, Cfg.FF, Rng, Std);
    initZeros(L.B1, 1, Cfg.FF);
    initMat(L.W2, Cfg.FF, D, Rng, Std);
    initZeros(L.B2, 1, D);
  }
  initLN(EncFinal);
  initLN(DecFinal);
}

std::vector<ParamRef> Transformer::params() {
  std::vector<ParamRef> Out;
  auto mat = [&](Mat &M) { Out.push_back({&M, true}); };
  auto vec = [&](Mat &M) { Out.push_back({&M, false}); };
  mat(TokEmb);
  vec(EncPos);
  vec(DecPos);
  auto attn = [&](Attn &A) {
    mat(A.Wq);
    vec(A.Bq);
    mat(A.Wk);
    vec(A.Bk);
    mat(A.Wv);
    vec(A.Bv);
    mat(A.Wo);
    vec(A.Bo);
  };
  auto ln = [&](LN &L) {
    vec(L.Gamma);
    vec(L.Beta);
  };
  for (EncLayer &L : Enc) {
    ln(L.LN1);
    attn(L.Self);
    ln(L.LN2);
    mat(L.W1);
    vec(L.B1);
    mat(L.W2);
    vec(L.B2);
  }
  for (DecLayer &L : Dec) {
    ln(L.LN1);
    attn(L.Self);
    ln(L.LN2);
    attn(L.Cross);
    ln(L.LN3);
    mat(L.W1);
    vec(L.B1);
    mat(L.W2);
    vec(L.B2);
  }
  ln(EncFinal);
  ln(DecFinal);
  return Out;
}

size_t Transformer::parameterCount() {
  size_t N = 0;
  for (const ParamRef &P : params())
    N += P.M->size();
  return N;
}

Mat *Transformer::attention(Graph &G, Mat *XQ, Mat *XKV, Attn &P,
                            bool Causal, bool Train) {
  int D = Cfg.DModel, H = Cfg.NHeads, Dh = D / H;
  Mat *Q = addRow(G, matmul(G, XQ, &P.Wq), &P.Bq);
  Mat *K = addRow(G, matmul(G, XKV, &P.Wk), &P.Bk);
  Mat *V = addRow(G, matmul(G, XKV, &P.Wv), &P.Bv);
  std::vector<Mat *> Heads;
  float Scale = 1.0f / std::sqrt(static_cast<float>(Dh));
  for (int Hd = 0; Hd < H; ++Hd) {
    Mat *Qh = sliceCols(G, Q, Hd * Dh, Dh);
    Mat *Kh = sliceCols(G, K, Hd * Dh, Dh);
    Mat *Vh = sliceCols(G, V, Hd * Dh, Dh);
    Mat *S = scale(G, matmulNT(G, Qh, Kh), Scale);
    Mat *Pm = softmaxRows(G, S, Causal);
    if (Train && Cfg.DropoutP > 0)
      Pm = dropout(G, Pm, Cfg.DropoutP, &DropRng);
    Heads.push_back(matmul(G, Pm, Vh));
  }
  Mat *O = concatCols(G, Heads);
  return addRow(G, matmul(G, O, &P.Wo), &P.Bo);
}

Mat *Transformer::encode(Graph &G, const std::vector<int> &Src, bool Train) {
  Mat *X = embed(G, &TokEmb, &EncPos, Src);
  if (Train && Cfg.DropoutP > 0)
    X = dropout(G, X, Cfg.DropoutP, &DropRng);
  for (EncLayer &L : Enc) {
    // Pre-LN residual blocks (eq. 8-9).
    Mat *N1 = layerNorm(G, X, &L.LN1.Gamma, &L.LN1.Beta);
    Mat *A = attention(G, N1, N1, L.Self, /*Causal=*/false, Train);
    X = add(G, X, A);
    Mat *H = layerNorm(G, X, &L.LN2.Gamma, &L.LN2.Beta);
    H = addRow(G, matmul(G, H, &L.W1), &L.B1);
    H = relu(G, H);
    if (Train && Cfg.DropoutP > 0)
      H = dropout(G, H, Cfg.DropoutP, &DropRng);
    H = addRow(G, matmul(G, H, &L.W2), &L.B2);
    X = add(G, X, H);
  }
  return layerNorm(G, X, &EncFinal.Gamma, &EncFinal.Beta);
}

Mat *Transformer::decode(Graph &G, Mat *EncOut, const std::vector<int> &In,
                         bool Train) {
  Mat *X = embed(G, &TokEmb, &DecPos, In);
  if (Train && Cfg.DropoutP > 0)
    X = dropout(G, X, Cfg.DropoutP, &DropRng);
  for (DecLayer &L : Dec) {
    Mat *N1 = layerNorm(G, X, &L.LN1.Gamma, &L.LN1.Beta);
    X = add(G, X, attention(G, N1, N1, L.Self, /*Causal=*/true, Train));
    Mat *N2 = layerNorm(G, X, &L.LN2.Gamma, &L.LN2.Beta);
    X = add(G, X,
            attention(G, N2, EncOut, L.Cross, /*Causal=*/false, Train));
    Mat *H = layerNorm(G, X, &L.LN3.Gamma, &L.LN3.Beta);
    H = addRow(G, matmul(G, H, &L.W1), &L.B1);
    H = relu(G, H);
    if (Train && Cfg.DropoutP > 0)
      H = dropout(G, H, Cfg.DropoutP, &DropRng);
    H = addRow(G, matmul(G, H, &L.W2), &L.B2);
    X = add(G, X, H);
  }
  return layerNorm(G, X, &DecFinal.Gamma, &DecFinal.Beta);
}

float Transformer::pairLoss(Graph &G, const std::vector<int> &Src,
                            const std::vector<int> &Tgt, bool Train) {
  // Teacher forcing: input <s> t0..tn-1, predict t0..tn-1 </s>.
  std::vector<int> In = {1 /*BOS*/};
  In.insert(In.end(), Tgt.begin(), Tgt.end());
  std::vector<int> Out = Tgt;
  Out.push_back(2 /*EOS*/);
  if (static_cast<int>(In.size()) > Cfg.MaxLen) {
    In.resize(static_cast<size_t>(Cfg.MaxLen));
    Out.resize(static_cast<size_t>(Cfg.MaxLen));
  }
  std::vector<int> SrcCapped = Src;
  if (static_cast<int>(SrcCapped.size()) > Cfg.MaxLen)
    SrcCapped.resize(static_cast<size_t>(Cfg.MaxLen));

  Mat *EncOut = encode(G, SrcCapped, Train);
  Mat *H = decode(G, EncOut, In, Train);
  Mat *Logits = matmulNT(G, H, &TokEmb); // Shared output embedding.
  return crossEntropy(G, Logits, Out);
}

//===----------------------------------------------------------------------===//
// Inference fast path
//===----------------------------------------------------------------------===//

void Transformer::layerNormRow(const float *X, const LN &P,
                               float *Out) const {
  // Shared row kernel (also the graph op's forward): every path in the
  // system normalizes with identical rounding.
  nn::layerNormRow(X, Cfg.DModel, P.Gamma.V.data(), P.Beta.V.data(), Out);
}

void Transformer::linearRow(const float *X, const Mat &W, const Mat &B,
                            float *Out) const {
  int In = W.R, OutD = W.C;
  for (int J = 0; J < OutD; ++J)
    Out[J] = B.V[static_cast<size_t>(J)];
  for (int I = 0; I < In; ++I) {
    float XV = X[I];
    if (XV == 0.0f)
      continue;
    const float *WRow = W.V.data() + static_cast<size_t>(I) * OutD;
    for (int J = 0; J < OutD; ++J)
      Out[J] += XV * WRow[J];
  }
}

std::shared_ptr<const Transformer::DecodeConstants>
Transformer::decodeConstants() const {
  VersionedCache<DecodeConstants> &Slot = *ConstCache.Box;
  // Lock-free fast path: N decode shards admit sources concurrently and
  // all want the SAME shared copy, so the steady-state read must not
  // serialize them on the rebuild mutex. The slot is only ever accessed
  // through the shared_ptr atomic free functions.
  std::shared_ptr<const DecodeConstants> Cur =
      std::atomic_load_explicit(&Slot.Cur, std::memory_order_acquire);
  if (Cur && Cur->Version == WeightVersion)
    return Cur;
  // Version miss: rebuild under the lock so concurrent first callers
  // build once; late arrivals re-check before building.
  std::lock_guard<std::mutex> Lock(Slot.Mu);
  Cur = std::atomic_load_explicit(&Slot.Cur, std::memory_order_relaxed);
  if (Cur && Cur->Version == WeightVersion)
    return Cur;
  Cur = InferRuntime(*this).buildDecodeConstants();
  Slot.Builds.fetch_add(1, std::memory_order_relaxed);
  std::atomic_store_explicit(&Slot.Cur, Cur, std::memory_order_release);
  return Cur;
}

std::shared_ptr<const Transformer::PackedWeights>
Transformer::packedWeights() const {
  VersionedCache<PackedWeights> &Slot = *PackCache.Box;
  std::shared_ptr<const PackedWeights> Cur =
      std::atomic_load_explicit(&Slot.Cur, std::memory_order_acquire);
  if (Cur && Cur->Version == WeightVersion)
    return Cur;
  std::lock_guard<std::mutex> Lock(Slot.Mu);
  Cur = std::atomic_load_explicit(&Slot.Cur, std::memory_order_relaxed);
  if (Cur && Cur->Version == WeightVersion)
    return Cur;
  Cur = InferRuntime(*this).buildPackedWeights();
  Slot.Builds.fetch_add(1, std::memory_order_relaxed);
  std::atomic_store_explicit(&Slot.Cur, Cur, std::memory_order_release);
  return Cur;
}

void Transformer::bumpWeightVersion() {
  ++WeightVersion;
  // THE invalidation path for every weight-version-keyed cache: besides
  // the version bump (which readers compare against), proactively drop
  // both cached snapshots so stale packs become unreachable and their
  // memory is released as soon as in-flight sessions let go. Sessions
  // holding the old shared_ptr stay valid — they carry the old Version
  // and are rejected at admission (admitStreamRow) like before.
  std::atomic_store_explicit(&ConstCache.Box->Cur,
                             std::shared_ptr<const DecodeConstants>(),
                             std::memory_order_release);
  std::atomic_store_explicit(&PackCache.Box->Cur,
                             std::shared_ptr<const PackedWeights>(),
                             std::memory_order_release);
}

Transformer::PackCacheStats Transformer::packCacheStats() const {
  PackCacheStats S;
  S.ConstBuilds = ConstCache.Box->Builds.load(std::memory_order_relaxed);
  S.PackBuilds = PackCache.Box->Builds.load(std::memory_order_relaxed);
  if (auto C = std::atomic_load_explicit(&ConstCache.Box->Cur,
                                         std::memory_order_acquire))
    S.PackedBytes += C->packedBytes();
  if (auto P = std::atomic_load_explicit(&PackCache.Box->Cur,
                                         std::memory_order_acquire))
    S.PackedBytes += P->bytes();
  return S;
}

std::shared_ptr<const Transformer::EncoderCache>
Transformer::encodeSource(const std::vector<int> &Src,
                          ParallelFor *TP) const {
  // Graph-free fast path: raw buffers from the pooled scratch arena, the
  // same tiled kernels as the training graph, bit-identical outputs
  // (tested against encodeSourceGraph) at any TP thread count.
  return InferRuntime(*this, TP).encodeSource(Src);
}

std::shared_ptr<const Transformer::EncoderCache>
Transformer::encodeSourceGraph(const std::vector<int> &Src) const {
  auto Cache = std::make_shared<EncoderCache>();
  std::vector<int> S = Src;
  if (static_cast<int>(S.size()) > Cfg.MaxLen)
    S.resize(static_cast<size_t>(Cfg.MaxLen));
  int T = static_cast<int>(S.size());
  // Run the encoder on an inference-mode Graph: no gradient buffers are
  // allocated and no backward closures recorded. Still pays the per-node
  // arena allocations — this path exists as the oracle and baseline.
  Graph G(/*Inference=*/true);
  Mat *X = embed(G, const_cast<Mat *>(&TokEmb), const_cast<Mat *>(&EncPos),
                 S);
  Transformer *Self = const_cast<Transformer *>(this);
  for (EncLayer &L : Self->Enc) {
    Mat *N1 = layerNorm(G, X, &L.LN1.Gamma, &L.LN1.Beta);
    Mat *A = Self->attention(G, N1, N1, L.Self, false, false);
    X = add(G, X, A);
    Mat *H = layerNorm(G, X, &L.LN2.Gamma, &L.LN2.Beta);
    H = addRow(G, matmul(G, H, &L.W1), &L.B1);
    H = relu(G, H);
    H = addRow(G, matmul(G, H, &L.W2), &L.B2);
    X = add(G, X, H);
  }
  Mat *EncOut = layerNorm(G, X, &Self->EncFinal.Gamma,
                          &Self->EncFinal.Beta);
  Cache->EncOut = EncOut->V;
  Cache->TSrc = T;
  // Cross-K/V + shared constants through the SAME code as the fast path,
  // so the two caches agree whenever EncOut does.
  InferRuntime(*this).finishEncoderCache(*Cache);
  return Cache;
}

Transformer::DecodeState
Transformer::startDecode(const std::vector<int> &Src) const {
  std::shared_ptr<const EncoderCache> Cache = encodeSource(Src);
  DecodeState St;
  St.EncOut = Cache->EncOut;
  St.TSrc = Cache->TSrc;
  St.CrossKT = Cache->CrossKT;
  St.CrossV = Cache->CrossV;
  St.SelfK.resize(Dec.size());
  St.SelfV.resize(Dec.size());
  return St;
}

std::vector<float> Transformer::stepDecode(DecodeState &St,
                                           int Token) const {
  int D = Cfg.DModel, H = Cfg.NHeads, Dh = D / H;
  int Pos = St.Len < Cfg.MaxLen ? St.Len : Cfg.MaxLen - 1;
  std::vector<float> X(static_cast<size_t>(D));
  for (int J = 0; J < D; ++J)
    X[static_cast<size_t>(J)] =
        TokEmb.at(Token, J) + DecPos.at(Pos, J);

  std::vector<float> Norm(static_cast<size_t>(D));
  std::vector<float> Q(static_cast<size_t>(D)), K(static_cast<size_t>(D)),
      V(static_cast<size_t>(D)), AttnOut(static_cast<size_t>(D)),
      Proj(static_cast<size_t>(D));
  std::vector<float> FF1(static_cast<size_t>(Cfg.FF));

  for (size_t L = 0; L < Dec.size(); ++L) {
    const DecLayer &Lay = Dec[L];
    // Self attention with the growing cache.
    layerNormRow(X.data(), Lay.LN1, Norm.data());
    linearRow(Norm.data(), Lay.Self.Wq, Lay.Self.Bq, Q.data());
    linearRow(Norm.data(), Lay.Self.Wk, Lay.Self.Bk, K.data());
    linearRow(Norm.data(), Lay.Self.Wv, Lay.Self.Bv, V.data());
    St.SelfK[L].insert(St.SelfK[L].end(), K.begin(), K.end());
    St.SelfV[L].insert(St.SelfV[L].end(), V.begin(), V.end());
    int TCtx = St.Len + 1;
    float InvS = 1.0f / std::sqrt(static_cast<float>(Dh));
    for (int Hd = 0; Hd < H; ++Hd) {
      int Off = Hd * Dh;
      std::vector<float> Scores(static_cast<size_t>(TCtx));
      float MaxS = -1e30f;
      for (int Tt = 0; Tt < TCtx; ++Tt) {
        const float *KRow = &St.SelfK[L][static_cast<size_t>(Tt) * D + Off];
        float Dot = 0;
        for (int Jj = 0; Jj < Dh; ++Jj)
          Dot += Q[static_cast<size_t>(Off + Jj)] * KRow[Jj];
        Scores[static_cast<size_t>(Tt)] = Dot * InvS;
        MaxS = std::max(MaxS, Scores[static_cast<size_t>(Tt)]);
      }
      float Sum = 0;
      for (int Tt = 0; Tt < TCtx; ++Tt) {
        Scores[static_cast<size_t>(Tt)] =
            std::exp(Scores[static_cast<size_t>(Tt)] - MaxS);
        Sum += Scores[static_cast<size_t>(Tt)];
      }
      for (int Jj = 0; Jj < Dh; ++Jj)
        AttnOut[static_cast<size_t>(Off + Jj)] = 0;
      for (int Tt = 0; Tt < TCtx; ++Tt) {
        float W = Scores[static_cast<size_t>(Tt)] / Sum;
        const float *VRow = &St.SelfV[L][static_cast<size_t>(Tt) * D + Off];
        for (int Jj = 0; Jj < Dh; ++Jj)
          AttnOut[static_cast<size_t>(Off + Jj)] += W * VRow[Jj];
      }
    }
    linearRow(AttnOut.data(), Lay.Self.Wo, Lay.Self.Bo, Proj.data());
    for (int J = 0; J < D; ++J)
      X[static_cast<size_t>(J)] += Proj[static_cast<size_t>(J)];

    // Cross attention over cached encoder K/V.
    layerNormRow(X.data(), Lay.LN2, Norm.data());
    linearRow(Norm.data(), Lay.Cross.Wq, Lay.Cross.Bq, Q.data());
    float InvS2 = 1.0f / std::sqrt(static_cast<float>(Dh));
    size_t KStride = static_cast<size_t>(crossKStride(St.TSrc));
    for (int Hd = 0; Hd < H; ++Hd) {
      int Off = Hd * Dh;
      std::vector<float> Scores(static_cast<size_t>(St.TSrc));
      float MaxS = -1e30f;
      for (int Tt = 0; Tt < St.TSrc; ++Tt) {
        // Transposed keys: component Jj of position Tt sits at
        // [(Off + Jj) * KStride + Tt].
        const float *KCol = &St.CrossKT[L][static_cast<size_t>(Off) * KStride +
                                           static_cast<size_t>(Tt)];
        float Dot = 0;
        for (int Jj = 0; Jj < Dh; ++Jj)
          Dot += Q[static_cast<size_t>(Off + Jj)] *
                 KCol[static_cast<size_t>(Jj) * KStride];
        Scores[static_cast<size_t>(Tt)] = Dot * InvS2;
        MaxS = std::max(MaxS, Scores[static_cast<size_t>(Tt)]);
      }
      float Sum = 0;
      for (int Tt = 0; Tt < St.TSrc; ++Tt) {
        Scores[static_cast<size_t>(Tt)] =
            std::exp(Scores[static_cast<size_t>(Tt)] - MaxS);
        Sum += Scores[static_cast<size_t>(Tt)];
      }
      for (int Jj = 0; Jj < Dh; ++Jj)
        AttnOut[static_cast<size_t>(Off + Jj)] = 0;
      for (int Tt = 0; Tt < St.TSrc; ++Tt) {
        float W = Scores[static_cast<size_t>(Tt)] / Sum;
        const float *VRow =
            &St.CrossV[L][static_cast<size_t>(Tt) * D + Off];
        for (int Jj = 0; Jj < Dh; ++Jj)
          AttnOut[static_cast<size_t>(Off + Jj)] += W * VRow[Jj];
      }
    }
    linearRow(AttnOut.data(), Lay.Cross.Wo, Lay.Cross.Bo, Proj.data());
    for (int J = 0; J < D; ++J)
      X[static_cast<size_t>(J)] += Proj[static_cast<size_t>(J)];

    // FFN.
    layerNormRow(X.data(), Lay.LN3, Norm.data());
    linearRow(Norm.data(), Lay.W1, Lay.B1, FF1.data());
    for (float &F : FF1)
      F = F > 0 ? F : 0;
    linearRow(FF1.data(), Lay.W2, Lay.B2, Proj.data());
    for (int J = 0; J < D; ++J)
      X[static_cast<size_t>(J)] += Proj[static_cast<size_t>(J)];
  }
  ++St.Len;

  layerNormRow(X.data(), DecFinal, Norm.data());
  // Logits against the shared embedding.
  std::vector<float> Logits(static_cast<size_t>(Cfg.Vocab));
  for (int W = 0; W < Cfg.Vocab; ++W) {
    const float *Row = TokEmb.V.data() + static_cast<size_t>(W) * D;
    float Dot = 0;
    for (int J = 0; J < D; ++J)
      Dot += Norm[static_cast<size_t>(J)] * Row[J];
    Logits[static_cast<size_t>(W)] = Dot;
  }
  return Logits;
}
//===----------------------------------------------------------------------===//
// Batched inference: delegates to the graph-free InferRuntime
//===----------------------------------------------------------------------===//

Transformer::BatchDecodeState
Transformer::startDecodeStream(int MaxSources, int BeamsPerSource,
                               int MaxSteps) const {
  return InferRuntime(*this).startDecodeStream(MaxSources, BeamsPerSource,
                                               MaxSteps);
}

int Transformer::admitStreamRow(
    BatchDecodeState &St, int Seg,
    std::shared_ptr<const EncoderCache> Enc) const {
  return InferRuntime(*this).admitStreamRow(St, Seg, std::move(Enc));
}

std::vector<float>
Transformer::stepDecodeBatch(BatchDecodeState &St,
                             const std::vector<int> &Tokens) const {
  return InferRuntime(*this).stepDecodeBatch(St, Tokens);
}

void Transformer::reorderBeams(BatchDecodeState &St,
                               const std::vector<int> &SrcIdx) const {
  InferRuntime(*this).reorderBeams(St, SrcIdx);
}

void Transformer::abortStreamSegment(BatchDecodeState &St, int Seg) const {
  InferRuntime(*this).abortStreamSegment(St, Seg);
}

//===----------------------------------------------------------------------===//
// Checkpointing
//===----------------------------------------------------------------------===//

Status Transformer::save(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return Status::error("cannot open " + Path + " for writing");
  const char Magic[8] = {'S', 'L', 'A', 'D', 'E', 'M', '0', '1'};
  std::fwrite(Magic, 1, 8, F);
  int32_t Ints[8] = {Cfg.Vocab,     Cfg.DModel,    Cfg.NHeads, Cfg.FF,
                     Cfg.EncLayers, Cfg.DecLayers, Cfg.MaxLen, 0};
  std::fwrite(Ints, sizeof(int32_t), 8, F);
  Transformer *Self = const_cast<Transformer *>(this);
  for (const ParamRef &P : Self->params())
    std::fwrite(P.M->V.data(), sizeof(float), P.M->size(), F);
  std::fclose(F);
  return Status::success();
}

Expected<Transformer> Transformer::load(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Expected<Transformer>::error("cannot open " + Path);
  char Magic[8];
  if (std::fread(Magic, 1, 8, F) != 8 ||
      std::memcmp(Magic, "SLADEM01", 8) != 0) {
    std::fclose(F);
    return Expected<Transformer>::error("bad checkpoint magic in " + Path);
  }
  int32_t Ints[8];
  if (std::fread(Ints, sizeof(int32_t), 8, F) != 8) {
    std::fclose(F);
    return Expected<Transformer>::error("truncated checkpoint " + Path);
  }
  TransformerConfig Cfg;
  Cfg.Vocab = Ints[0];
  Cfg.DModel = Ints[1];
  Cfg.NHeads = Ints[2];
  Cfg.FF = Ints[3];
  Cfg.EncLayers = Ints[4];
  Cfg.DecLayers = Ints[5];
  Cfg.MaxLen = Ints[6];
  Transformer T(Cfg);
  for (const ParamRef &P : T.params()) {
    if (std::fread(P.M->V.data(), sizeof(float), P.M->size(), F) !=
        P.M->size()) {
      std::fclose(F);
      return Expected<Transformer>::error("truncated checkpoint " + Path);
    }
  }
  std::fclose(F);
  return T;
}

//===----------------------------------------------------------------------===//
// AdamW
//===----------------------------------------------------------------------===//

AdamW::AdamW(std::vector<ParamRef> ParamsIn, const Config &CfgIn,
             Transformer *ModelIn)
    : Params(std::move(ParamsIn)), Cfg(CfgIn), Model(ModelIn) {
  for (const ParamRef &P : Params) {
    M1.emplace_back(P.M->size(), 0.0f);
    M2.emplace_back(P.M->size(), 0.0f);
  }
}

void AdamW::step() {
  ++Steps;
  if (Model)
    Model->bumpWeightVersion(); // Cached decode constants go stale now.
  // Inverse-sqrt warmup schedule.
  float Scale;
  if (Steps < Cfg.WarmupSteps)
    Scale = static_cast<float>(Steps) / static_cast<float>(Cfg.WarmupSteps);
  else
    Scale = std::sqrt(static_cast<float>(Cfg.WarmupSteps) /
                      static_cast<float>(Steps));
  float LR = Cfg.LR * Scale;

  // Global gradient-norm clipping.
  double NormSq = 0;
  for (const ParamRef &P : Params)
    for (float Gv : P.M->G)
      NormSq += static_cast<double>(Gv) * Gv;
  float ClipScale = 1.0f;
  double Norm = std::sqrt(NormSq);
  if (Norm > Cfg.ClipNorm && Norm > 0)
    ClipScale = static_cast<float>(Cfg.ClipNorm / Norm);

  float B1C = 1.0f - std::pow(Cfg.Beta1, static_cast<float>(Steps));
  float B2C = 1.0f - std::pow(Cfg.Beta2, static_cast<float>(Steps));
  for (size_t P = 0; P < Params.size(); ++P) {
    Mat *M = Params[P].M;
    bool Decay = Params[P].Decay;
    for (size_t I = 0; I < M->size(); ++I) {
      float Gv = M->G[I] * ClipScale;
      M1[P][I] = Cfg.Beta1 * M1[P][I] + (1 - Cfg.Beta1) * Gv;
      M2[P][I] = Cfg.Beta2 * M2[P][I] + (1 - Cfg.Beta2) * Gv * Gv;
      float MHat = M1[P][I] / B1C;
      float VHat = M2[P][I] / B2C;
      float Update = MHat / (std::sqrt(VHat) + Cfg.Eps);
      if (Decay)
        Update += Cfg.WeightDecay * M->V[I]; // Decoupled decay.
      M->V[I] -= LR * Update;
    }
    M->zeroGrad();
  }
}
