//===- SpecDecode.h - speculative propose/verify decode rounds --*- C++ -*-===//
///
/// \file
/// The speculative shallow-deep decode loop shared by solo beamSearch
/// and the serve engine's continuous batch. One ROUND replaces
/// one-or-more plain beam steps:
///
///   1. Depth-0 plan rows apply the PENDING selection (the last exact
///      beam step) to the live state rows — always exact.
///   2. The draft model steps the plan one depth at a time on its own
///      mirrored state; after each depth, a SIMULATED selectBeamStep
///      over the DRAFT logits proposes the next selection, extending the
///      plan up to Gamma proposal depths per job.
///   3. The FULL model scores the whole plan in ONE batched call.
///   4. Verification replays selectBeamStep over the full model's
///      logits depth by depth — the same code, the same scratch
///      semantics, the same constraint oracle as plain decode. While the
///      exact selection equals the draft's proposal the next depth's
///      logits are already on hand; at the first disagreement the exact
///      selection simply becomes the new pending selection.
///   5. Both states commit the accepted frontier in place (commitSpec);
///      nothing proposed ever bypasses full-model scoring.
///
/// Exactness: every committed selection is produced by selectBeamStep
/// over full-model logits that are bit-identical to what committed
/// plain stepping would produce (the per-row bit-identity invariant of
/// the batched decoder), so the decoded hypotheses are byte-identical
/// to non-speculative decode; the draft only decides how many exact
/// steps each batched call yields. A job with Gamma == 0 runs plain
/// decode through the same machinery (depth-0 only), which is how the
/// acceptance gate bounds the worst case.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_NN_SPECDECODE_H
#define SLADE_NN_SPECDECODE_H

#include "nn/Beam.h"
#include "nn/BeamCore.h"
#include "nn/Transformer.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace slade {
namespace nn {

/// One speculative decode session: owns the draft model's mirrored
/// decode state, which tracks the full state's row geometry in lockstep
/// (same admits, same commits, same row order) so plan rows resolve in
/// both coordinate systems. Only K/V CONTENT differs between the two
/// states; rows of jobs that stopped proposing carry stale draft K/V
/// that is never attended (a job's Gamma never goes back up once 0).
class SpecSession {
public:
  SpecSession(const Transformer &Full, const Transformer &Draft)
      : Full(Full), Draft(Draft) {}

  /// Mirrors Transformer::startDecodeBatchMulti on the draft state:
  /// derives a draft-side cache per full-model cache.
  void initBatch(
      const std::vector<std::shared_ptr<const Transformer::EncoderCache>>
          &FullEncs,
      int BeamsPerSource, int MaxSteps);
  /// Mirrors Transformer::startDecodeStream.
  void initStream(int MaxSources, int BeamsPerSource, int MaxSteps);
  /// Mirrors a successful admitStreamRow on the full state (same Seg).
  void admit(int Seg, const Transformer::EncoderCache &FullEnc);
  /// Mirrors abortStreamSegment.
  void abortSegment(int Seg);

  /// Installs the intra-tick worker pool on the DRAFT state's forwards
  /// (the caller sets the full state's BatchDecodeState::TP itself).
  /// Survives initStream/initBatch re-creating the draft state. Null
  /// (the default) keeps the draft sequential. Exactness is unaffected:
  /// the pool only row-splits, never re-associates reductions.
  void setTickPool(ParallelFor *TP);

  /// One decode job inside a round: a source's live beam search. The
  /// caller keeps Job objects alive across rounds (they carry the
  /// pending selection and the step budget) and passes the LIVE jobs in
  /// state-row order each round.
  struct Job {
    int Seg = 0; ///< The job's self-K/V segment in both states.
    std::vector<beamcore::BeamMeta> *Live = nullptr;
    std::vector<Hypothesis> *Done = nullptr;
    beamcore::ConstraintCtx *CC = nullptr;
    /// The pending (last exact) selection: next round's depth-0 rows.
    /// Seed a fresh job with {0} -> {BosId}: the BOS feed is just the
    /// first pending selection.
    std::vector<int> PendingSrc{0};
    std::vector<int> PendingTok{Transformer::BosId};
    /// Rows this job owns in the states (contiguous from its RowBase).
    int StateRows = 1;
    /// Proposal depth this round; 0 = plain decode through the spec
    /// machinery (the acceptance gate's fallback).
    int Gamma = 0;
    /// Exact selections taken so far (plain decode's step budget).
    int StepsDone = 0;
    // -- per-round outputs -------------------------------------------------
    bool Finished = false; ///< Search completed (budget / StopNow / empty).
    int Proposed = 0;      ///< This round's proposal count.
    int Accepted = 0;      ///< This round's accepted proposals.
  };

  /// Runs one propose/verify/commit round over \p Jobs (all live jobs of
  /// \p FullSt, in state-row order). Updates each job's Live/Done/CC and
  /// pending selection exactly as the equivalent plain beam steps would,
  /// commits both states, and fills the per-round outputs. Jobs that
  /// finish contribute no committed rows (their segments recycle as
  /// usual). \p Stats accumulates telemetry across rounds. Returns the
  /// number of plan rows the full model scored (the round's GEMM-row
  /// count, for utilization accounting).
  int runRound(Transformer::BatchDecodeState &FullSt,
               std::vector<Job *> &Jobs, const BeamConfig &Cfg,
               SpecStats &Stats);

private:
  const Transformer &Full;
  const Transformer &Draft;
  Transformer::BatchDecodeState DraftSt;
  ParallelFor *TickTP = nullptr; ///< Re-applied on every init*.

  // Round scratch (reused).
  std::vector<SpecRow> Plan;
  std::vector<float> FullLogits, DraftLogits;
  beamcore::SelectScratch Scratch;
  struct Sim {
    std::vector<beamcore::BeamMeta> Live;
    std::vector<Hypothesis> Done;
    beamcore::ConstraintCtx CC;
    bool Alive = false;
  };
  std::vector<Sim> Sims;
  /// Per job: the plan index where its depth-d block starts, and the
  /// block's row count ([job][depth]).
  std::vector<std::vector<int>> DepthStart, DepthCount;
  /// Per job: the draft's proposed selections; Proposals[j][d] created
  /// the job's depth-(d+1) plan rows.
  std::vector<std::vector<beamcore::SelectResult>> Proposals;
  std::vector<int> NewRows;
  std::vector<int> RowBase, EffGamma;
};

} // namespace nn
} // namespace slade

#endif // SLADE_NN_SPECDECODE_H
