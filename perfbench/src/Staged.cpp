//===- Staged.cpp - decompile, one public call at a time ----------------===//

#include "Staged.h"

#include "asmx/Asm.h"
#include "cc/Parser.h"
#include "cc/Sema.h"
#include "codegen/Backend.h"
#include "core/Metrics.h"
#include "ir/IRGen.h"
#include "typeinf/TypeInference.h"
#include "vm/IOHarness.h"

using namespace slade;
using namespace slade::perfbench;

namespace {

using Scope = SpanRecorder::Scope;

/// Calls \p F inside a span named \p Name and returns its result.
template <typename Fn>
auto inSpan(SpanRecorder &Rec, const char *Name, uint64_t Req, Fn &&F) {
  Scope S(Rec, Name, Req);
  return F();
}

/// core::evaluateHypothesis with an unbounded deadline, stage by stage.
/// compileProgram's calls are inlined here except the candidate's global
/// table, which verification never reads (the IO harness runs against the
/// task's own globals).
core::HypothesisOutcome verifyCandidate(const core::Decompiler &D,
                                        const core::EvalTask &Task,
                                        const nn::Hypothesis &H,
                                        bool UseTypeInference,
                                        SpanRecorder &Rec, uint64_t Req,
                                        StagedCounters &C) {
  Scope Candidate(Rec, "core.verify", Req);
  ++C.Candidates;
  core::HypothesisOutcome Out;
  Out.CSource = inSpan(Rec, "tok.decode", Req,
                       [&] { return D.tokenizer().decode(H.Tokens); });
  Out.Produced = !Out.CSource.empty();
  if (!Out.Produced)
    return Out;
  Out.EditSim = core::editSimilarity(Out.CSource, Task.FunctionSource);

  std::string Prelude;
  if (UseTypeInference) {
    Scope S(Rec, "typeinf.infer", Req);
    typeinf::InferenceResult Inf =
        typeinf::inferMissingDeclarations(Out.CSource, Task.ContextSource);
    if (Inf.ParseOk && Inf.NeededInference) {
      Prelude = Inf.Prelude;
      Out.UsedTypeInference = true;
      ++C.TypeinfApplied;
    }
  }

  cc::TypeContext Ctx;
  std::string Source = Prelude + Task.ContextSource + "\n" + Out.CSource;
  auto TU = inSpan(Rec, "cc.parse", Req,
                   [&] { return cc::parseC(Source, Ctx); });
  if (!TU) {
    ++C.ParseFailed;
    return Out;
  }
  const std::string &TargetName = Task.Prog.Target->Name;
  {
    Scope S(Rec, "cc.sema", Req);
    bool Ok = cc::analyze(**TU, Ctx).ok();
    const cc::FunctionDecl *Target = Ok ? (*TU)->findFunction(TargetName)
                                        : nullptr;
    if (!Target || !Target->isDefinition()) {
      ++C.SemaFailed;
      return Out;
    }
  }

  std::string FullAsm;
  for (const auto &F : (*TU)->Functions) {
    if (!F->isDefinition())
      continue;
    auto IR = inSpan(Rec, "ir.irgen", Req, [&] {
      return ir::generateIR(*F, ir::IRGenOptions());
    });
    if (!IR) {
      ++C.IRGenFailed;
      return Out;
    }
    auto Text = inSpan(Rec, "codegen.emit", Req, [&] {
      return Task.D == asmx::Dialect::X86
                 ? codegen::emitX86(*IR, codegen::CodegenOptions())
                 : codegen::emitArm(*IR, codegen::CodegenOptions());
    });
    if (!Text) {
      ++C.EmitFailed;
      return Out;
    }
    FullAsm += *Text;
  }

  auto Image = inSpan(Rec, "asmx.assemble", Req,
                      [&] { return asmx::parseAsmImage(FullAsm, Task.D); });
  if (!Image) {
    ++C.AssembleFailed;
    return Out;
  }
  Out.Compiles = true;

  {
    Scope S(Rec, "vm.run", Req);
    vm::TestProfile Profile =
        vm::runProfile(*Image, *Task.Prog.Target, Task.Prog.Globals, Task.D,
                       vm::HarnessConfig());
    Out.IOCorrect = vm::profilesEquivalent(Task.RefProfile, Profile);
  }
  if (Out.IOCorrect)
    ++C.IOPass;
  return Out;
}

} // namespace

core::HypothesisOutcome slade::perfbench::stagedDecompile(
    const core::Decompiler &D, const core::EvalTask &Task,
    const core::Decompiler::Options &Opts, SpanRecorder &Rec,
    uint64_t Request, StagedCounters &C) {
  Scope Root(Rec, "core.decompile", Request);
  std::vector<int> Src = inSpan(Rec, "tok.encode", Request, [&] {
    return D.tokenizer().encode(Task.Prog.TargetAsm);
  });
  C.SrcTokens += Src.size();
  D.clearEncoderCache();
  auto Enc = inSpan(Rec, "nn.encode", Request,
                    [&] { return D.encodeCached(Src); });
  nn::BeamConfig BC;
  BC.BeamSize = Opts.BeamSize;
  BC.MaxLen = Opts.MaxLen;
  if (Opts.Constrain == nn::ConstrainMode::Syntax)
    BC.Constraint = &D.vocabConstraint();
  BC.Stats = &C.Constraint;
  std::vector<nn::Hypothesis> Hyps = inSpan(Rec, "nn.decode", Request, [&] {
    return nn::beamSearch(D.model(), Enc, BC);
  });
  for (const nn::Hypothesis &H : Hyps)
    C.OutTokens += H.Tokens.size();

  core::HypothesisOutcome First;
  for (size_t I = 0; I < Hyps.size(); ++I) {
    core::HypothesisOutcome Out = verifyCandidate(
        D, Task, Hyps[I], Opts.UseTypeInference, Rec, Request, C);
    if (Out.IOCorrect)
      return Out;
    if (I == 0)
      First = std::move(Out);
  }
  return First;
}

bool slade::perfbench::sameOutcome(const core::HypothesisOutcome &A,
                                   const core::HypothesisOutcome &B) {
  return A.Produced == B.Produced && A.Compiles == B.Compiles &&
         A.IOCorrect == B.IOCorrect &&
         A.UsedTypeInference == B.UsedTypeInference &&
         A.EditSim == B.EditSim && A.CSource == B.CSource;
}
