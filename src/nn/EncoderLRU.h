//===- EncoderLRU.h - encoder-output cache for repeated requests -*- C++ -*-===//
///
/// \file
/// An LRU cache of per-source encoder state (Transformer::EncoderCache)
/// keyed by the tokenized source AND the model's weight version (the
/// policy is nn::SourceLRU's). Serving traffic repeats sources (identical
/// functions across binaries, retried requests, evaluation sweeps); a hit
/// skips the whole encoder forward pass and cross-K/V computation.
///
/// A byte budget matters here: long sources cost ~(1 + 2*DecLayers) *
/// TSrc * DModel floats each, so a count bound alone lets memory scale
/// with source length.
///
/// The encode runs OUTSIDE the lock, so concurrent misses on different
/// sources do not serialize; concurrent misses on the SAME source may
/// encode twice (both produce identical caches, the first insert wins
/// and both callers get it) — correctness over strict single-flight.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_NN_ENCODERLRU_H
#define SLADE_NN_ENCODERLRU_H

#include "nn/SourceLRU.h"
#include "nn/Transformer.h"

namespace slade {
namespace nn {

class EncoderLRU : public SourceLRU<Transformer::EncoderCache> {
public:
  static constexpr size_t DefaultCapacity = 64;

  explicit EncoderLRU(size_t Capacity = DefaultCapacity,
                      size_t ByteBudget = 0)
      : SourceLRU(Capacity, ByteBudget) {}

  /// Returns the encoder cache for \p Src under \p Model's current
  /// weights, computing and inserting it on a miss. \p TP (optional,
  /// non-owning) parallelizes the miss-path encode across its workers;
  /// the cached result is bit-identical either way, so hits and misses
  /// never depend on who encoded.
  std::shared_ptr<const Transformer::EncoderCache>
  get(const Transformer &Model, const std::vector<int> &Src,
      ParallelFor *TP = nullptr);
};

} // namespace nn
} // namespace slade

#endif // SLADE_NN_ENCODERLRU_H
