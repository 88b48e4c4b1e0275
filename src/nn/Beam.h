//===- Beam.h - beam search decoding ----------------------------*- C++ -*-===//
///
/// \file
/// Beam-search decoding (§VI-A): keep the top-k hypotheses by sequence
/// log-probability; the caller then picks the first candidate that passes
/// the IO tests. Greedy decoding is the k=1 special case used by the BTC
/// baseline.
///
/// beamSearch runs all beams through the model per step as one batch
/// (shared encoder/cross caches, batched GEMMs, survivor selection by
/// index-gather): it is a one-source run of the batched driver that every
/// serve engine shard runs over many sources (nn/BeamCore.h).
/// beamSearchSequential is the retained one-step-per-beam reference path:
/// it runs the same selection over per-beam DecodeStates that are
/// deep-copied on survivor selection, and exists for equivalence tests and
/// as the benchmark baseline.
///
/// Every search needs BeamSize >= 1, MaxLen >= 1 and a constraint (if
/// any) over the model's vocabulary; any other config returns no
/// hypotheses (see searchable).
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_NN_BEAM_H
#define SLADE_NN_BEAM_H

#include "nn/Transformer.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace slade {
namespace tok {
class VocabConstraint;
} // namespace tok
namespace nn {

/// User-facing constraint mode (--constrain={off,syntax}); Off decodes
/// byte-identically to the pre-constraint pipeline.
enum class ConstrainMode { Off, Syntax };

/// Per-decode grammar-constraint counters, merged up into serve metrics.
struct ConstraintStats {
  uint64_t TokensMasked = 0; ///< Vocab entries masked across all steps.
  uint64_t BeamsKilled = 0;  ///< Beams whose every candidate was masked.
  double OracleSeconds = 0;  ///< Wall time inside the oracle/mask code.
};

struct BeamConfig {
  int BeamSize = 5; ///< Paper: k = 5.
  int MaxLen = 220;
  /// When set, decode is grammar-constrained: pieces that would kill
  /// every syntactic continuation are masked pre-top-k, fully-masked
  /// beams are killed mid-flight (releasing their K/V rows), EOS is
  /// gated on prefix completeness, and unfinished non-complete beams
  /// are dropped at finalize. nullptr (the default) is byte-identical
  /// to the pre-constraint decoder.
  const tok::VocabConstraint *Constraint = nullptr;
  /// Optional sink for constraint counters (single decode's worth is
  /// added; the caller aggregates).
  ConstraintStats *Stats = nullptr;
};

struct Hypothesis {
  std::vector<int> Tokens; ///< Without BOS/EOS.
  float Score = 0;         ///< Length-normalized log probability.
};

/// True when a search under \p Cfg can run on \p Model: at least one
/// beam and one step, and a constraint (if any) that covers exactly the
/// model's vocabulary. Every search, and the serve engine's dispatcher,
/// decodes nothing otherwise. Checked in every build type.
bool searchable(const Transformer &Model, const BeamConfig &Cfg);

/// Returns up to BeamSize hypotheses, best first. Batched hot path.
std::vector<Hypothesis> beamSearch(const Transformer &Model,
                                   const std::vector<int> &Src,
                                   const BeamConfig &Cfg);

/// Same, over a pre-encoded source (e.g. an EncoderLRU hit): the encoder
/// pass is skipped entirely.
std::vector<Hypothesis>
beamSearch(const Transformer &Model,
           std::shared_ptr<const Transformer::EncoderCache> Enc,
           const BeamConfig &Cfg);

/// Sequential reference implementation (per-beam states, full-state copy
/// on survivor selection). Same search algorithm and tie-breaking as
/// beamSearch.
std::vector<Hypothesis> beamSearchSequential(const Transformer &Model,
                                             const std::vector<int> &Src,
                                             const BeamConfig &Cfg);

} // namespace nn
} // namespace slade

#endif // SLADE_NN_BEAM_H
