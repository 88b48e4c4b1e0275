//===- DecodeLRU.h - decoded-hypotheses cache for repeated requests -*- C++ -*-===//
///
/// \file
/// An LRU cache of finished beam-search results (the k hypotheses a
/// source decodes to) keyed by the tokenized source, the model's weight
/// version, AND the beam configuration (the policy is nn::SourceLRU's).
/// It sits IN FRONT of decode: a hit skips the entire beam search — every
/// decode tick, the self-K/V traffic, and the selection bookkeeping —
/// which is the whole decode-bound cost of a repeated request.
///
/// This closes the one serving regime in-flight single-flight cannot:
/// duplicate-heavy streams whose repeats never overlap in time. The
/// engine's single-flight only attaches a request to a source that is
/// live RIGHT NOW; with this cache the streaming engine also serves a
/// repeat that arrives after the original retired from memory.
///
/// Correctness: beam decode is deterministic, so a cached result is
/// byte-identical to re-decoding. Entries are keyed by weight version
/// (stale entries stop matching after a training step and age out) and
/// by the beam configuration's BeamTag, so differently-configured engines
/// sharing one cache can never serve each other's hypotheses.
///
/// An entry stores the hypotheses object put() is given, whole; a hit
/// returns that same object. N decode shards insert at retirement while
/// the dispatcher looks up concurrently.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_NN_DECODELRU_H
#define SLADE_NN_DECODELRU_H

#include "nn/Beam.h"
#include "nn/SourceLRU.h"

namespace slade {
namespace nn {

/// What a finished decode depends on beyond its source and weights: the
/// beam width, the step budget, and whether the grammar constraint was
/// on (a constrained decode yields other hypotheses for one source).
struct BeamTag {
  int BeamSize = 0;
  int MaxLen = 0;
  bool Constrained = false;

  bool operator==(const BeamTag &O) const {
    return BeamSize == O.BeamSize && MaxLen == O.MaxLen &&
           Constrained == O.Constrained;
  }
};

class DecodeLRU : public SourceLRU<std::vector<Hypothesis>, BeamTag> {
public:
  static constexpr size_t DefaultCapacity = 256;

  explicit DecodeLRU(size_t Capacity = DefaultCapacity,
                     size_t ByteBudget = 0)
      : SourceLRU(Capacity, ByteBudget) {}

  static BeamTag tagOf(const BeamConfig &Cfg) {
    return {Cfg.BeamSize, Cfg.MaxLen, Cfg.Constraint != nullptr};
  }

  /// Heap bytes \p Hyps holds: the vector and every token buffer.
  static size_t bytesOf(const std::vector<Hypothesis> &Hyps) {
    size_t B = sizeof(Hyps) + Hyps.capacity() * sizeof(Hypothesis);
    for (const Hypothesis &H : Hyps)
      B += H.Tokens.capacity() * sizeof(int);
    return B;
  }

  /// The cached hypotheses for \p Src decoded under weight \p Version
  /// with \p Cfg, or nullptr on a miss. Never decodes on its own — the
  /// caller owns the decode (results land via put()).
  Value get(const std::vector<int> &Src, uint64_t Version,
            const BeamConfig &Cfg) {
    return SourceLRU::get(Src, Version, tagOf(Cfg));
  }

  /// Inserts a finished decode. A key already present keeps its entry
  /// (the hypotheses are identical by determinism).
  void put(const std::vector<int> &Src, uint64_t Version,
           const BeamConfig &Cfg, Value Hyps) {
    if (Hyps)
      SourceLRU::put(Src, Version, tagOf(Cfg), Hyps, bytesOf(*Hyps));
  }
};

} // namespace nn
} // namespace slade

#endif // SLADE_NN_DECODELRU_H
