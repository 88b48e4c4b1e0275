//===- Beam.cpp - beam search decoding ----------------------------------------===//

#include "nn/Beam.h"

#include "nn/BeamCore.h"

#include <algorithm>
#include <cmath>

using namespace slade;
using namespace slade::nn;
// The per-source selection logic and the batched driver live in
// nn/BeamCore.h, shared with the serve engine's shards; the two softmaxes
// are out of line here (see the note in BeamCore.h).
using namespace slade::nn::beamcore;

void slade::nn::beamcore::logSoftmax(const float *Logits, int V,
                                     std::vector<float> &Out) {
  float MaxV = -1e30f;
  for (int I = 0; I < V; ++I)
    MaxV = std::max(MaxV, Logits[I]);
  double Sum = 0;
  for (int I = 0; I < V; ++I)
    Sum += std::exp(static_cast<double>(Logits[I] - MaxV));
  float LogZ = MaxV + static_cast<float>(std::log(Sum));
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
  double Sum = 0;
  for (uint16_t I : Ids)
    Sum += std::exp(static_cast<double>(Logits[I] - MaxV));
  float LogZ = MaxV + static_cast<float>(std::log(Sum));
  float MaskedLogP = -1e30f - LogZ;
  bool Above = true;
  for (uint16_t I : Ids) {
    LogP[I] = Logits[I] - LogZ;
    Above &= LogP[I] > MaskedLogP;
  }
  return Above;
}

namespace {

/// A config the search can run: at least one beam and one step.
bool decodes(const BeamConfig &Cfg) {
  return Cfg.BeamSize >= 1 && Cfg.MaxLen >= 1;
}

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
  if (!decodes(Cfg))
    return {};
  return beamSearch(Model, Model.encodeSource(Src), Cfg);
}

std::vector<Hypothesis>
slade::nn::beamSearch(const Transformer &Model,
                      std::shared_ptr<const Transformer::EncoderCache> Enc,
                      const BeamConfig &Cfg) {
  if (!decodes(Cfg))
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
  if (!decodes(Cfg))
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
