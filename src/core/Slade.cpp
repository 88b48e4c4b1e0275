//===- Slade.cpp - the SLaDe decompilation pipeline ---------------------------===//

#include "core/Slade.h"

#include "core/Metrics.h"
#include "obs/Trace.h"
#include "support/ThreadPool.h"
#include "typeinf/TypeInference.h"

#include <algorithm>
#include <thread>

using namespace slade;
using namespace slade::core;

namespace {

using Clock = std::chrono::steady_clock;

/// One staged candidate evaluation with cooperative deadline checks
/// between stages (type inference -> compile -> VM run). With Deadline =
/// max() the checks never fire. EditSim is left 0: a selection scores
/// only the outcome it returns (scoreEditSimilarity).
HypothesisOutcome evaluateStaged(const EvalTask &Task,
                                 const std::string &HypothesisSource,
                                 bool UseTypeInference,
                                 Clock::time_point Deadline =
                                     Clock::time_point::max(),
                                 bool *TimedOut = nullptr) {
  auto Expired = [Deadline] {
    return Deadline != Clock::time_point::max() &&
           Clock::now() >= Deadline;
  };
  HypothesisOutcome Out;
  Out.CSource = HypothesisSource;
  Out.Produced = !HypothesisSource.empty();
  if (!Out.Produced)
    return Out;

  std::string Prelude;
  if (UseTypeInference) {
    typeinf::InferenceResult Inf = typeinf::inferMissingDeclarations(
        HypothesisSource, Task.ContextSource);
    if (Inf.ParseOk && Inf.NeededInference) {
      Prelude = Inf.Prelude;
      Out.UsedTypeInference = true;
    }
  }
  if (Expired()) {
    if (TimedOut)
      *TimedOut = true;
    return Out;
  }

  // Insert the hypothesis into the original calling context (§VII-A2) and
  // recompile. The hypothesis must define the target function.
  CompileLimits CL;
  CL.Deadline = Deadline;
  auto Compiled = compileProgram(HypothesisSource,
                                 Prelude + Task.ContextSource,
                                 Task.Prog.Target->Name, Task.D,
                                 /*Optimize=*/false, CL);
  if (!Compiled) {
    if (Expired() && TimedOut)
      *TimedOut = true;
    return Out;
  }
  Out.Compiles = true;
  if (Expired()) {
    if (TimedOut)
      *TimedOut = true;
    return Out;
  }

  Out.IOCorrect = vm::matchesProfile(Task.RefProfile, Compiled->Image,
                                     *Task.Prog.Target, Task.Prog.Globals,
                                     Task.D, vm::HarnessConfig());
  return Out;
}

} // namespace

void slade::core::scoreEditSimilarity(const EvalTask &Task,
                                      HypothesisOutcome &Out) {
  if (Out.Produced)
    Out.EditSim = editSimilarity(Out.CSource, Task.FunctionSource);
}

HypothesisOutcome slade::core::evaluateHypothesis(
    const EvalTask &Task, const std::string &HypothesisSource,
    bool UseTypeInference) {
  HypothesisOutcome Out =
      evaluateStaged(Task, HypothesisSource, UseTypeInference);
  scoreEditSimilarity(Task, Out);
  return Out;
}

HypothesisOutcome slade::core::evaluateHypothesisBounded(
    const EvalTask &Task, const std::string &HypothesisSource,
    bool UseTypeInference, const VerifyLimits &Limits,
    VerifyAttemptStats *Stats) {
  // The candidate deadline spans ALL attempts: retries eat into the same
  // budget, and the external cutoff (drain / request deadline) wins when
  // earlier.
  Clock::time_point CandDeadline = Limits.Deadline;
  if (Limits.CandidateTimeoutSeconds > 0) {
    Clock::time_point ByTimeout =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               Limits.CandidateTimeoutSeconds));
    CandDeadline = std::min(CandDeadline, ByTimeout);
  }
  const int MaxAttempts = std::max(1, Limits.MaxRetries + 1);
  for (int Attempt = 0; Attempt < MaxAttempts; ++Attempt) {
    if (Stats)
      ++Stats->Attempts;
    // Traced requests span every attempt individually — the destructor
    // records even when the attempt throws, so retried/faulted attempts
    // show up in the trace with their true duration.
    obs::ScopedSpan AttemptSpan(obs::trace(), obs::SpanKind::VerifyAttempt,
                                Limits.TraceId, Limits.Traced);
    AttemptSpan.args(static_cast<uint64_t>(Limits.TraceCand),
                     static_cast<uint64_t>(Attempt));
    try {
      if (Limits.BeforeAttempt)
        Limits.BeforeAttempt(Attempt, CandDeadline);
      bool TimedOut = false;
      HypothesisOutcome Out = evaluateStaged(
          Task, HypothesisSource, UseTypeInference, CandDeadline, &TimedOut);
      if (TimedOut && Stats)
        Stats->TimedOut = true;
      return Out;
    } catch (...) {
      // Transient failure: retry with backoff while budget remains.
      // Deterministic failures (parse/compile errors) are outcomes, not
      // exceptions, so they never land here.
      bool Expired = CandDeadline != Clock::time_point::max() &&
                     Clock::now() >= CandDeadline;
      if (Attempt + 1 >= MaxAttempts || Expired) {
        if (Stats) {
          Stats->Faulted = true;
          if (Expired)
            Stats->TimedOut = true;
        }
        HypothesisOutcome Out;
        Out.CSource = HypothesisSource;
        Out.Produced = !HypothesisSource.empty();
        return Out; // Contained: a non-compiling outcome, no rethrow.
      }
      if (Stats)
        ++Stats->Retries;
      if (Limits.RetryBackoffSeconds > 0) {
        std::chrono::duration<double> Back(Limits.RetryBackoffSeconds);
        if (CandDeadline != Clock::time_point::max()) {
          auto Remaining = CandDeadline - Clock::now();
          if (Remaining < std::chrono::duration_cast<Clock::duration>(Back))
            Back = std::chrono::duration<double>(
                std::max(0.0,
                         std::chrono::duration<double>(Remaining).count()));
        }
        std::this_thread::sleep_for(Back);
      }
    }
  }
  return HypothesisOutcome(); // Unreachable; MaxAttempts >= 1.
}

const tok::VocabConstraint &Decompiler::vocabConstraint() const {
  std::call_once(VCOnce, [this] {
    VC = std::make_unique<tok::VocabConstraint>(Tok);
  });
  return *VC;
}

std::string Decompiler::translate(const std::string &Asm, int BeamSize,
                                  int MaxLen,
                                  nn::ConstrainMode Constrain) const {
  std::vector<int> Src = Tok.encode(Asm);
  nn::BeamConfig BC;
  BC.BeamSize = BeamSize;
  BC.MaxLen = MaxLen;
  if (Constrain == nn::ConstrainMode::Syntax)
    BC.Constraint = &vocabConstraint();
  std::vector<nn::Hypothesis> Hyps =
      nn::beamSearch(Model, encodeCached(Src), BC);
  if (Hyps.empty())
    return std::string();
  return Tok.decode(Hyps.front().Tokens);
}

HypothesisOutcome Decompiler::decompile(const EvalTask &Task,
                                        const Options &Opts) const {
  std::vector<int> Src = Tok.encode(Task.Prog.TargetAsm);
  nn::BeamConfig BC;
  BC.BeamSize = Opts.BeamSize;
  BC.MaxLen = Opts.MaxLen;
  if (Opts.Constrain == nn::ConstrainMode::Syntax)
    BC.Constraint = &vocabConstraint();
  BC.Stats = Opts.ConstraintStatsOut;
  std::vector<nn::Hypothesis> Hyps =
      nn::beamSearch(Model, encodeCached(Src), BC);
  if (Hyps.empty())
    return HypothesisOutcome();

  // Sized from the options alone (a search yields at most BeamSize
  // hypotheses), so calls that yield different counts share one pool.
  unsigned Workers = Opts.VerifyThreads > 0
                         ? static_cast<unsigned>(Opts.VerifyThreads)
                         : ThreadPool::defaultConcurrency();
  Workers = std::min<unsigned>(Workers,
                               static_cast<unsigned>(Opts.BeamSize));

  // Candidates are evaluated unscored; only the returned one is scored.
  HypothesisOutcome Picked;
  if (Workers <= 1 || Hyps.size() == 1) {
    // Sequential fallback keeps the early exit on the first IO pass: the
    // first candidate passing the IO tests (§VI-A), else the top one.
    for (size_t I = 0; I < Hyps.size() && !Picked.IOCorrect; ++I) {
      HypothesisOutcome Out = evaluateStaged(
          Task, Tok.decode(Hyps[I].Tokens), Opts.UseTypeInference);
      if (I == 0 || Out.IOCorrect)
        Picked = std::move(Out);
    }
  } else {
    // Verify all k candidates concurrently; the selection rule is
    // unchanged (first IO-passing candidate in beam order, else the top
    // candidate).
    std::vector<HypothesisOutcome> Outcomes(Hyps.size());
    {
      std::lock_guard<std::mutex> Lock(VerifyMu);
      if (!VerifyPool || VerifyPool->workerCount() != Workers)
        VerifyPool = std::make_unique<ThreadPool>(Workers);
      VerifyPool->parallelFor(Hyps.size(), [&](size_t I) {
        Outcomes[I] = evaluateStaged(Task, Tok.decode(Hyps[I].Tokens),
                                     Opts.UseTypeInference);
      });
    }
    auto Pass = std::find_if(
        Outcomes.begin(), Outcomes.end(),
        [](const HypothesisOutcome &Out) { return Out.IOCorrect; });
    Picked = std::move(Pass != Outcomes.end() ? *Pass : Outcomes.front());
  }
  scoreEditSimilarity(Task, Picked);
  return Picked;
}
