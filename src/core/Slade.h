//===- Slade.h - the SLaDe decompilation pipeline ---------------*- C++ -*-===//
///
/// \file
/// Public entry point of the reproduction: the full SLaDe pipeline (Fig. 2
/// right half). Assembly is tokenized, the small seq2seq model beam-decodes
/// k=5 C hypotheses, missing declarations are reconstructed by the type
/// inference engine, candidates are compiled and IO-tested, and the first
/// candidate passing the IO tests is selected (§VI).
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_CORE_SLADE_H
#define SLADE_CORE_SLADE_H

#include "core/Compile.h"
#include "nn/Beam.h"
#include "nn/DecodeLRU.h"
#include "nn/EncoderLRU.h"
#include "nn/Transformer.h"
#include "support/ThreadPool.h"
#include "tok/Tokenizer.h"
#include "tok/VocabConstraint.h"

#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

namespace slade {
namespace core {

/// One benchmark item: the compiled ground truth and its IO profile.
struct EvalTask {
  std::string Name;
  std::string Category;
  std::string FunctionSource; ///< Ground truth C.
  std::string ContextSource;
  bool UsesExternalTypedef = false;
  CompiledProgram Prog;
  vm::TestProfile RefProfile;
  asmx::Dialect D = asmx::Dialect::X86;
  bool Optimize = false;
};

/// Result of evaluating one hypothesis against a task.
struct HypothesisOutcome {
  bool Produced = false;
  bool Compiles = false;
  bool IOCorrect = false;
  bool UsedTypeInference = false;
  double EditSim = 0;
  std::string CSource;
};

/// Recompiles \p HypothesisSource into the task's context and runs the IO
/// tests, stopping at the first input whose result differs from the
/// task's reference (vm::matchesProfile), then scores its edit
/// similarity. This is the shared evaluation path for every tool.
HypothesisOutcome evaluateHypothesis(const EvalTask &Task,
                                     const std::string &HypothesisSource,
                                     bool UseTypeInference);

/// Sets \p Out.EditSim to the edit similarity of its C to the task's
/// ground truth; an outcome that produced nothing keeps 0. Selections
/// over k candidates (Decompiler::decompile, the serve engine) evaluate
/// the candidates unscored and score only the outcome they return.
void scoreEditSimilarity(const EvalTask &Task, HypothesisOutcome &Out);

/// Bounds on one candidate's evaluation (the serve engine's verify
/// containment knobs). Timeouts are COOPERATIVE: C++ threads cannot be
/// preempted, so the candidate deadline is checked between pipeline
/// stages (type inference / compile phases / before the VM run) plus
/// inside the IO harness's own step budget (vm::HarnessConfig::MaxSteps)
/// — a timed-out candidate returns within one stage of its deadline
/// instead of wedging its verify worker.
struct VerifyLimits {
  /// Wall-clock budget for ONE candidate, spanning all its retry
  /// attempts. 0 = unbounded.
  double CandidateTimeoutSeconds = 0;
  /// Retries after a thrown attempt (transient-fault containment);
  /// total attempts = MaxRetries + 1. Deterministic failures (parse /
  /// compile errors) are outcomes, not exceptions — they never retry.
  int MaxRetries = 0;
  /// Sleep before each retry, sliced against the candidate deadline.
  double RetryBackoffSeconds = 0.01;
  /// External cutoff (engine drain / request deadline); the effective
  /// candidate deadline is the earlier of this and the timeout.
  std::chrono::steady_clock::time_point Deadline =
      std::chrono::steady_clock::time_point::max();
  /// Test/fault hook, called at the START of every attempt (0-based)
  /// with the candidate deadline; may throw (counted as a transient
  /// attempt failure) or sleep (must honor the deadline).
  std::function<void(int Attempt,
                     std::chrono::steady_clock::time_point CandDeadline)>
      BeforeAttempt;
  /// Observability (obs/Trace.h): when \p Traced, each attempt records a
  /// verify_attempt span tagged (TraceId = request Seq, TraceCand =
  /// candidate index) into the global trace recorder. Inert by default.
  bool Traced = false;
  uint64_t TraceId = 0;
  int TraceCand = 0;
};

/// What happened while evaluating one candidate under VerifyLimits.
struct VerifyAttemptStats {
  int Attempts = 0;
  int Retries = 0;
  bool TimedOut = false; ///< The candidate deadline fired.
  bool Faulted = false;  ///< An exception survived the retry budget.
};

/// evaluateHypothesis with failure containment: per-candidate wall-clock
/// timeout, bounded retry-with-backoff for thrown (transient) failures,
/// and no exception ever escapes — a candidate that faults past its
/// retry budget returns a non-compiling outcome with \p Stats->Faulted
/// set. The outcome is NOT scored (EditSim is 0): the caller scores the
/// one outcome it keeps with scoreEditSimilarity, unless that candidate
/// faulted out, whose EditSim stays 0. With default limits and after
/// scoring, byte-identical to evaluateHypothesis.
HypothesisOutcome evaluateHypothesisBounded(const EvalTask &Task,
                                            const std::string &HypothesisSource,
                                            bool UseTypeInference,
                                            const VerifyLimits &Limits,
                                            VerifyAttemptStats *Stats = nullptr);

/// The trained SLaDe system: tokenizer + model + the inference pipeline.
class Decompiler {
public:
  /// \p EncoderCacheBytes caps the heap bytes of the LRU of per-source
  /// encoder outputs shared by every request through this decompiler
  /// (0 = only its count bound, nn::EncoderLRU::DefaultCapacity
  /// sources, applies). \p DecodeCacheBytes bounds the
  /// decoded-hypotheses LRU the streaming engine consults the same way
  /// (count bound nn::DecodeLRU::DefaultCapacity).
  Decompiler(tok::Tokenizer Tok, nn::Transformer Model,
             size_t EncoderCacheBytes = 0, size_t DecodeCacheBytes = 0)
      : Tok(std::move(Tok)), Model(std::move(Model)),
        EncCache(nn::EncoderLRU::DefaultCapacity, EncoderCacheBytes),
        DecCache(nn::DecodeLRU::DefaultCapacity, DecodeCacheBytes) {}

  struct Options {
    int BeamSize = 5; ///< Paper: k = 5.
    bool UseTypeInference = true;
    int MaxLen = 220;
    /// Worker threads for candidate IO-verification (compile + execute of
    /// the k hypotheses). 0 = hardware concurrency; 1 = sequential with
    /// early exit on the first IO-passing candidate.
    int VerifyThreads = 0;
    /// Grammar-constrained decoding (--constrain). Off is byte-identical
    /// to the pre-constraint pipeline; Syntax masks vocabulary pieces
    /// against a cc::PrefixOracle cursor per beam so only prefixes of
    /// syntactically valid C survive to IO-verification.
    nn::ConstrainMode Constrain = nn::ConstrainMode::Off;
    /// Optional sink for the constraint counters of this decompile call.
    nn::ConstraintStats *ConstraintStatsOut = nullptr;
  };

  /// Runs the pipeline on a task; candidates are tried in beam order and
  /// the first IO-passing one wins (§VI-A). With VerifyThreads != 1 the k
  /// candidates compile+execute concurrently; the winner is still the
  /// first passing candidate in beam order. Throws std::out_of_range
  /// when the tokenizer yields an id outside the model's vocabulary:
  /// the tokenizer and the model do not match.
  HypothesisOutcome decompile(const EvalTask &Task,
                              const Options &Opts) const;

  /// Raw model output for an assembly string (no verification). Throws
  /// std::out_of_range as decompile does.
  std::string translate(const std::string &Asm, int BeamSize, int MaxLen,
                        nn::ConstrainMode Constrain =
                            nn::ConstrainMode::Off) const;

  /// The shared vocabulary→grammar mask for this tokenizer, built on
  /// first use (thread-safe) and reused by every constrained decode —
  /// solo, batch, and streaming alike.
  const tok::VocabConstraint &vocabConstraint() const;

  /// Encodes \p Src through the shared encoder LRU (hit = the whole
  /// encoder pass is skipped). Thread-safe; used by decompile/translate,
  /// the serve engine's dispatcher, and slade-serve's up-front batch
  /// encode. \p TP (optional)
  /// fans the miss-path encoder rows out over an intra-tick worker pool;
  /// the cached bytes are identical either way.
  std::shared_ptr<const nn::Transformer::EncoderCache>
  encodeCached(const std::vector<int> &Src,
               nn::ParallelFor *TP = nullptr) const {
    return EncCache.get(Model, Src, TP);
  }

  const tok::Tokenizer &tokenizer() const { return Tok; }
  const nn::Transformer &model() const { return Model; }
  const nn::EncoderLRU &encoderCache() const { return EncCache; }
  /// The decoded-hypotheses LRU (finished beam results keyed by source,
  /// weight version, and beam config). The solo decompile/translate
  /// paths never consult it — only the serve engine reads and fills it
  /// (serve/Engine.h) — so sequential baselines stay measurement-pure.
  nn::DecodeLRU &decodeCache() const { return DecCache; }
  /// Drops all cached encoder outputs (cold-start measurement; the cache
  /// never needs manual invalidation for correctness).
  void clearEncoderCache() const { EncCache.clear(); }
  /// Same for the decoded-hypotheses LRU.
  void clearDecodeCache() const { DecCache.clear(); }

private:
  tok::Tokenizer Tok;
  nn::Transformer Model;
  /// Per-source encoder outputs, shared across requests; entries are
  /// keyed by (tokenized source, weight version) so they can never leak
  /// across a weight update.
  mutable nn::EncoderLRU EncCache;
  /// Finished beam results, keyed by (tokenized source, weight version,
  /// beam config); persists across serve engines so repeats that never
  /// overlap in flight still skip their decode.
  mutable nn::DecodeLRU DecCache;
  /// Lazily created verification pool, reused across decompile calls so
  /// an evaluation sweep does not pay thread create/join per task.
  /// Guarded by VerifyMu, which is held for the whole parallel section:
  /// concurrent decompile calls serialize their candidate verification.
  mutable std::mutex VerifyMu;
  mutable std::unique_ptr<ThreadPool> VerifyPool;
  /// Lazily built piece classification (tokenizer-derived, immutable
  /// once built; shared by all constrained decodes).
  mutable std::once_flag VCOnce;
  mutable std::unique_ptr<tok::VocabConstraint> VC;
};

} // namespace core
} // namespace slade

#endif // SLADE_CORE_SLADE_H
