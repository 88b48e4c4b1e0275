//===- Beam.cpp - beam search decoding ----------------------------------------===//

#include "nn/Beam.h"

#include "nn/BeamCore.h"
#include "nn/SimdExp.h"

#include <algorithm>
#include <cmath>

using namespace slade;
using namespace slade::nn;
// The per-source selection logic and the batched driver live in
// nn/BeamCore.h, shared with the serve engine's shards; the two softmaxes
// are out of line here (see the note in BeamCore.h).
using namespace slade::nn::beamcore;

namespace {

// Both softmaxes sum exp(x - max) into four partial sums by row
// position: lane J sums the entries I with I % 4 == J, in ascending
// order, and the lanes are added in one fixed order. A masked entry's exp
// is exactly +0.0, which leaves a sum of nonnegative terms unchanged, so
// the allowed-id path and the masked-row path get the same sum bit for
// bit whichever entries they skip.

double laneTotal(const double L[4]) { return (L[0] + L[1]) + (L[2] + L[3]); }

#if SLADE_SIMD_EXP
/// exp(X[J] - MaxV) for the four floats \p X, widened to double.
__m256d expShifted(__m128 X, float MaxV) {
  return exp256Pd(_mm256_cvtps_pd(_mm_sub_ps(X, _mm_set1_ps(MaxV))));
}
#endif

/// Sum of exp(Row[I] - MaxV) over I < V.
double expSumRow(const float *Row, int V, float MaxV) {
  alignas(32) double L[4] = {0, 0, 0, 0};
#if SLADE_SIMD_EXP
  __m256d Acc = _mm256_setzero_pd();
  int I = 0;
  for (; I + 4 <= V; I += 4)
    Acc = _mm256_add_pd(Acc, expShifted(_mm_loadu_ps(Row + I), MaxV));
  if (I < V) {
    // -inf past the row's end: those lanes add exactly +0.0.
    float Tail[4] = {-INFINITY, -INFINITY, -INFINITY, -INFINITY};
    for (int J = I; J < V; ++J)
      Tail[J - I] = Row[J];
    Acc = _mm256_add_pd(Acc, expShifted(_mm_loadu_ps(Tail), MaxV));
  }
  _mm256_store_pd(L, Acc);
#else
  for (int I = 0; I < V; ++I)
    L[I & 3] += std::exp(static_cast<double>(Row[I] - MaxV));
#endif
  return laneTotal(L);
}

/// Sum of exp(Row[I] - MaxV) over the ascending ids \p Ids.
double expSumIds(const float *Row, const std::vector<uint16_t> &Ids,
                 float MaxV) {
  double L[4] = {0, 0, 0, 0};
  size_t K = 0;
#if SLADE_SIMD_EXP
  alignas(32) double E[4];
  for (; K + 4 <= Ids.size(); K += 4) {
    const uint16_t *I = Ids.data() + K;
    _mm256_store_pd(E, expShifted(_mm_setr_ps(Row[I[0]], Row[I[1]],
                                              Row[I[2]], Row[I[3]]),
                                  MaxV));
    for (int J = 0; J < 4; ++J)
      L[I[J] & 3] += E[J];
  }
  if (K < Ids.size()) {
    float G[4] = {-INFINITY, -INFINITY, -INFINITY, -INFINITY};
    for (size_t J = K; J < Ids.size(); ++J)
      G[J - K] = Row[Ids[J]];
    _mm256_store_pd(E, expShifted(_mm_loadu_ps(G), MaxV));
    for (size_t J = K; J < Ids.size(); ++J)
      L[Ids[J] & 3] += E[J - K];
  }
#else
  for (; K < Ids.size(); ++K)
    L[Ids[K] & 3] += std::exp(static_cast<double>(Row[Ids[K]] - MaxV));
#endif
  return laneTotal(L);
}

/// max(-1e30f, Row[0], ..., Row[V - 1]) by a std::max chain; a NaN entry
/// never replaces the running maximum.
float rowMax(const float *Row, int V) {
  float MaxV = -1e30f;
  int I = 0;
#if SLADE_SIMD_EXP
  // _mm256_max_ps(X, M) is X > M ? X : M, which is std::max(M, X) lane by
  // lane: the same NaN and equal-value (signed zero) choice as the chain,
  // so no lane is ever NaN. Only which of +0 and -0 wins a tie across
  // lanes can differ from the chain, and both give the same shifted exps
  // (exp(-0) = exp(+0) = 1) and the same log-normaliser.
  __m256 M = _mm256_set1_ps(MaxV);
  for (; I + 8 <= V; I += 8)
    M = _mm256_max_ps(_mm256_loadu_ps(Row + I), M);
  MaxV = hmax256(M);
#endif
  for (; I < V; ++I)
    MaxV = std::max(MaxV, Row[I]);
  return MaxV;
}

} // namespace

void slade::nn::beamcore::logSoftmax(const float *Logits, int V,
                                     std::vector<float> &Out) {
  float MaxV = rowMax(Logits, V);
  float LogZ =
      MaxV + static_cast<float>(std::log(expSumRow(Logits, V, MaxV)));
  Out.resize(static_cast<size_t>(V));
  for (int I = 0; I < V; ++I)
    Out[static_cast<size_t>(I)] = Logits[I] - LogZ;
}

bool slade::nn::beamcore::logSoftmaxAllowed(const float *Logits,
                                            const std::vector<uint16_t> &Ids,
                                            std::vector<float> &LogP) {
  float MaxV = -1e30f;
  for (uint16_t I : Ids)
    MaxV = std::max(MaxV, Logits[I]);
  float LogZ =
      MaxV + static_cast<float>(std::log(expSumIds(Logits, Ids, MaxV)));
  float MaskedLogP = -1e30f - LogZ;
  bool Above = true;
  for (uint16_t I : Ids) {
    LogP[I] = Logits[I] - LogZ;
    Above &= LogP[I] > MaskedLogP;
  }
  return Above;
}

bool slade::nn::searchable(const Transformer &Model, const BeamConfig &Cfg) {
  // Selection indexes the logits row and the log-prob scratch with the
  // constraint's ids, so a vocabulary mismatch must never reach it.
  return Cfg.BeamSize >= 1 && Cfg.MaxLen >= 1 &&
         (!Cfg.Constraint ||
          Cfg.Constraint->vocabSize() ==
              static_cast<size_t>(Model.config().Vocab));
}

namespace {

/// Sequential stepper: per-beam DecodeStates, deep-copied on survivor
/// selection (the pre-batching behavior, retained as reference/baseline).
struct SequentialStepper {
  const Transformer &Model;
  std::vector<Transformer::DecodeState> States;
  std::vector<std::vector<float>> Logits;

  SequentialStepper(const Transformer &Model, const std::vector<int> &Src)
      : Model(Model) {
    States.push_back(Model.startDecode(Src));
  }

  void start() {
    Logits.resize(1);
    Logits[0] = Model.stepDecode(States[0], Transformer::BosId);
  }
  const float *logits(int Beam) const {
    return Logits[static_cast<size_t>(Beam)].data();
  }
  int vocab() const { return Model.config().Vocab; }
  void advance(const std::vector<int> &SrcIdx,
               const std::vector<int> &Tokens) {
    std::vector<Transformer::DecodeState> NextStates;
    std::vector<std::vector<float>> NextLogits;
    for (size_t I = 0; I < SrcIdx.size(); ++I) {
      Transformer::DecodeState S =
          States[static_cast<size_t>(SrcIdx[I])]; // Full KV-cache copy.
      NextLogits.push_back(Model.stepDecode(S, Tokens[I]));
      NextStates.push_back(std::move(S));
    }
    States = std::move(NextStates);
    Logits = std::move(NextLogits);
  }
};

} // namespace

std::vector<Hypothesis> slade::nn::beamSearch(const Transformer &Model,
                                              const std::vector<int> &Src,
                                              const BeamConfig &Cfg) {
  if (!searchable(Model, Cfg))
    return {};
  return beamSearch(Model, Model.encodeSource(Src), Cfg);
}

std::vector<Hypothesis>
slade::nn::beamSearch(const Transformer &Model,
                      std::shared_ptr<const Transformer::EncoderCache> Enc,
                      const BeamConfig &Cfg) {
  if (!searchable(Model, Cfg))
    return {};
  BeamBatch Batch(Model, Cfg, /*MaxSources=*/1);
  Batch.admit(std::move(Enc)); // An idle batch admits any weight version.
  std::vector<BeamBatch::Finished> Out;
  while (Out.empty())
    Batch.step(Out);
  return std::move(Out.front().Hyps);
}

std::vector<Hypothesis>
slade::nn::beamSearchSequential(const Transformer &Model,
                                const std::vector<int> &Src,
                                const BeamConfig &Cfg) {
  if (!searchable(Model, Cfg))
    return {};
  SequentialStepper Step(Model, Src);
  std::vector<BeamMeta> Live(1);
  Step.start();
  std::vector<Hypothesis> Done;
  SelectScratch S;
  ConstraintCtx CC;
  CC.init(Cfg);

  for (int It = 0; It < Cfg.MaxLen && !Live.empty(); ++It) {
    SelectResult R = selectBeamStep(
        Live, Done,
        [&](size_t BI) { return Step.logits(static_cast<int>(BI)); },
        Step.vocab(), Cfg, S, &CC);
    if (R.StopNow)
      break;
    if (!Live.empty())
      Step.advance(R.SrcIdx, R.Tokens);
  }
  return finalizeBeams(std::move(Live), std::move(Done), Cfg, &CC);
}
