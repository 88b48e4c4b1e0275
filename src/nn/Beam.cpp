//===- Beam.cpp - beam search decoding ----------------------------------------===//

#include "nn/Beam.h"

#include "nn/BeamCore.h"

#include <algorithm>
#include <cmath>

using namespace slade;
using namespace slade::nn;
// The per-source selection/retirement logic lives in nn/BeamCore.h so the
// serve engine's continuous-batching driver shares it verbatim.
using namespace slade::nn::beamcore;

namespace {

/// The search loop, shared by the batched and sequential paths. A Stepper
/// exposes:
///   int start()                      - run the BOS step, return live count
///   const float *logits(int Beam)    - next-token logits of a live beam
///   void advance(SrcIdx, Tokens)     - survivor-select then step once
///   int vocab()
template <typename Stepper>
std::vector<Hypothesis> beamSearchImpl(Stepper &Step, const BeamConfig &Cfg) {
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

/// Batched stepper: one BatchDecodeState, survivor selection is an
/// index-gather over the contiguous self-cache rows.
struct BatchedStepper {
  const Transformer &Model;
  Transformer::BatchDecodeState St;
  std::vector<float> Logits; ///< [B, Vocab].

  BatchedStepper(const Transformer &Model, const std::vector<int> &Src,
                 const BeamConfig &Cfg)
      : BatchedStepper(Model, Model.encodeSource(Src), Cfg) {}
  BatchedStepper(const Transformer &Model,
                 std::shared_ptr<const Transformer::EncoderCache> Enc,
                 const BeamConfig &Cfg)
      : Model(Model), St(Model.startDecodeBatch(std::move(Enc),
                                                Cfg.BeamSize,
                                                Cfg.MaxLen + 1)) {}

  void start() { Logits = Model.stepDecodeBatch(St, {Transformer::BosId}); }
  const float *logits(int Beam) const {
    return Logits.data() +
           static_cast<size_t>(Beam) * Model.config().Vocab;
  }
  int vocab() const { return Model.config().Vocab; }
  void advance(const std::vector<int> &SrcIdx,
               const std::vector<int> &Tokens) {
    Model.reorderBeams(St, SrcIdx);
    Logits = Model.stepDecodeBatch(St, Tokens);
  }
};

/// Sequential stepper: per-beam DecodeStates, deep-copied on survivor
/// selection (the pre-batching behavior, retained as reference/baseline).
struct SequentialStepper {
  const Transformer &Model;
  std::vector<Transformer::DecodeState> States;
  std::vector<std::vector<float>> Logits;

  SequentialStepper(const Transformer &Model, const std::vector<int> &Src,
                    const BeamConfig &)
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
  BatchedStepper Step(Model, Src, Cfg);
  return beamSearchImpl(Step, Cfg);
}

std::vector<Hypothesis>
slade::nn::beamSearch(const Transformer &Model,
                      std::shared_ptr<const Transformer::EncoderCache> Enc,
                      const BeamConfig &Cfg) {
  BatchedStepper Step(Model, std::move(Enc), Cfg);
  return beamSearchImpl(Step, Cfg);
}

std::vector<Hypothesis>
slade::nn::beamSearchSequential(const Transformer &Model,
                                const std::vector<int> &Src,
                                const BeamConfig &Cfg) {
  SequentialStepper Step(Model, Src, Cfg);
  return beamSearchImpl(Step, Cfg);
}

std::vector<int> slade::nn::greedyDecode(const Transformer &Model,
                                         const std::vector<int> &Src,
                                         int MaxLen) {
  Transformer::BatchDecodeState St =
      Model.startDecodeBatch(Model.encodeSource(Src), 1, MaxLen + 1);
  std::vector<float> Logits =
      Model.stepDecodeBatch(St, {Transformer::BosId});
  std::vector<int> Out;
  for (int Step = 0; Step < MaxLen; ++Step) {
    int Best = 0;
    for (size_t I = 1; I < Logits.size(); ++I)
      if (Logits[I] > Logits[static_cast<size_t>(Best)])
        Best = static_cast<int>(I);
    if (Best == Transformer::EosId || Best == Transformer::PadId)
      break;
    Out.push_back(Best);
    Logits = Model.stepDecodeBatch(St, {Best});
  }
  return Out;
}
