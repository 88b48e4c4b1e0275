//===- Staged.h - decompile, one public call at a time ----------*- C++ -*-===//
///
/// \file
/// The traced run's pipeline: the same calls Decompiler::decompile makes
/// with one verify thread, issued here one by one so each gets a span and
/// its own counters. Its outcome must equal decompile's byte for byte.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_PERFBENCH_STAGED_H
#define SLADE_PERFBENCH_STAGED_H

#include "Spans.h"

#include "core/Slade.h"

#include <cstdint>

namespace slade {
namespace perfbench {

/// Work counts of the staged calls, summed over every input driven.
struct StagedCounters {
  uint64_t SrcTokens = 0; ///< Encoder input tokens.
  uint64_t OutTokens = 0; ///< Tokens in the returned beam hypotheses.
  uint64_t TypeinfApplied = 0; ///< Candidates that got a synthesized prelude.
  uint64_t ParseFailed = 0;
  uint64_t SemaFailed = 0; ///< Includes a target left undefined.
  uint64_t IRGenFailed = 0;
  uint64_t EmitFailed = 0;
  uint64_t AssembleFailed = 0;
  uint64_t IOPass = 0;
  uint64_t Candidates = 0; ///< Candidates evaluated (early exit counts).
  nn::ConstraintStats Constraint;
};

/// Runs \p Task through the staged calls with the options of
/// Decompiler::decompile (VerifyThreads is taken as 1: candidates in beam
/// order, first IO pass wins). Spans go to \p Rec under \p Request.
core::HypothesisOutcome stagedDecompile(const core::Decompiler &D,
                                        const core::EvalTask &Task,
                                        const core::Decompiler::Options &Opts,
                                        SpanRecorder &Rec, uint64_t Request,
                                        StagedCounters &C);

/// Byte-for-byte equality of two outcomes (every field, EditSim exact).
bool sameOutcome(const core::HypothesisOutcome &A,
                 const core::HypothesisOutcome &B);

} // namespace perfbench
} // namespace slade

#endif // SLADE_PERFBENCH_STAGED_H
