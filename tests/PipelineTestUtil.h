//===- PipelineTestUtil.h - shared helpers for pipeline tests ---*- C++ -*-===//
///
/// \file
/// Compiles mini-C source through the full stack and runs it in the vm;
/// shared by compiler, interpreter, and differential tests. Also the
/// Decompiler fixture and the single-flight engine setup that the serve
/// and trace tests share.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_TESTS_PIPELINETESTUTIL_H
#define SLADE_TESTS_PIPELINETESTUTIL_H

#include "asmx/Asm.h"
#include "cc/Parser.h"
#include "cc/Sema.h"
#include "codegen/Backend.h"
#include "core/Eval.h"
#include "core/Trainer.h"
#include "ir/IRGen.h"
#include "ir/Passes.h"
#include "serve/Engine.h"
#include "vm/IOHarness.h"
#include "vm/Interp.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace slade {
namespace testutil {

struct Compiled {
  std::unique_ptr<cc::TypeContext> Ctx;
  std::unique_ptr<cc::TranslationUnit> TU;
  std::string Asm;
  std::vector<asmx::AsmFunction> Image;
};

/// Compiles all functions in \p Source for the given ISA/opt level and
/// parses the emitted assembly back. Fails the current gtest assertion
/// context on any error.
inline Compiled compileAll(const std::string &Source, asmx::Dialect D,
                           bool Optimize) {
  Compiled C;
  C.Ctx = std::make_unique<cc::TypeContext>();
  auto TU = cc::parseC(Source, *C.Ctx);
  EXPECT_TRUE(TU.hasValue()) << TU.errorMessage();
  if (!TU)
    return C;
  C.TU = std::move(*TU);
  Status S = cc::analyze(*C.TU, *C.Ctx);
  EXPECT_TRUE(S.ok()) << S.message();
  if (!S.ok())
    return C;
  for (const auto &F : C.TU->Functions) {
    if (!F->isDefinition())
      continue;
    ir::IRGenOptions GO;
    GO.Optimize = Optimize;
    auto IR = ir::generateIR(*F, GO);
    EXPECT_TRUE(IR.hasValue()) << IR.errorMessage();
    if (!IR)
      return C;
    if (Optimize)
      ir::optimize(*IR);
    codegen::CodegenOptions CO;
    CO.Optimize = Optimize;
    auto Text = D == asmx::Dialect::X86 ? codegen::emitX86(*IR, CO)
                                        : codegen::emitArm(*IR, CO);
    EXPECT_TRUE(Text.hasValue()) << Text.errorMessage();
    if (!Text)
      return C;
    C.Asm += *Text;
  }
  auto Image = asmx::parseAsmImage(C.Asm, D);
  EXPECT_TRUE(Image.hasValue()) << Image.errorMessage() << "\n" << C.Asm;
  if (Image)
    C.Image = std::move(*Image);
  return C;
}

/// Calls \p Name with integer arguments and returns the integer result.
inline uint64_t callInt(const Compiled &C, asmx::Dialect D,
                        const std::string &Name,
                        std::vector<uint64_t> IntArgs,
                        vm::Memory *ExistingMem = nullptr) {
  vm::CallArgs Args;
  Args.IntArgs = std::move(IntArgs);
  vm::Memory Local;
  vm::Memory &Mem = ExistingMem ? *ExistingMem : Local;
  std::map<std::string, uint64_t> Symbols;
  vm::ExecConfig EC;
  vm::RunOutcome Out = D == asmx::Dialect::X86
                           ? vm::runX86(C.Image, Name, Args, Mem, Symbols, EC)
                           : vm::runArm(C.Image, Name, Args, Mem, Symbols,
                                        EC);
  EXPECT_EQ(Out.K, vm::RunOutcome::Return) << Out.FaultReason;
  return Out.IntResult;
}

/// A small deployable system: tokenizer trained on the given pairs, model
/// left untrained (decoding still runs the full stack and is perfectly
/// deterministic, which is all pipeline tests need).
inline core::TrainedSystem
tinySystem(const std::vector<core::TrainPair> &Pairs) {
  core::TrainConfig TC;
  TC.Steps = 0; // Tokenizer only; weights stay at init.
  TC.VocabSize = 200;
  TC.DModel = 32;
  TC.NHeads = 2;
  TC.FF = 48;
  TC.EncLayers = 1;
  TC.DecLayers = 1;
  TC.Verbose = false;
  return core::trainSystem(Pairs, TC);
}

/// Demo-corpus eval tasks plus a Decompiler over a tinySystem: the
/// standard fixture for decode-path determinism and serving tests.
struct DecompilerFixture {
  std::vector<core::EvalTask> Tasks;
  std::unique_ptr<core::Decompiler> Slade;

  explicit DecompilerFixture(size_t N, uint64_t Seed = 99) {
    dataset::Corpus Corpus =
        dataset::buildCorpus(dataset::Suite::ExeBench, 8, N, Seed);
    Tasks = core::buildTasks(Corpus.Test, asmx::Dialect::X86,
                             /*Optimize=*/false);
    std::vector<core::TrainPair> Pairs = core::buildTrainPairs(
        Corpus.Train, asmx::Dialect::X86, /*Optimize=*/false);
    core::TrainedSystem Sys = tinySystem(Pairs);
    Slade = std::make_unique<core::Decompiler>(std::move(Sys.Tok),
                                               std::move(Sys.Model));
  }
};

/// One 1-row shard, decode LRU off, every tick slowed to 2 ms: a source
/// decodes for many ticks, so an identical request submitted a few
/// milliseconds after it attaches to its decode (single flight).
inline serve::EngineOptions slowSingleFlightOptions() {
  serve::EngineOptions EO;
  EO.BeamSize = 5;
  EO.MaxLen = 220;
  EO.MaxLiveSources = 1;
  EO.Shards = 1;
  EO.UseDecodeCache = false;
  EO.Faults.SlowTick = 1;
  return EO;
}

/// Submits \p Asm as "main" and, 5 ms later, as "dup"; returns both
/// handles once \p Eng (built with slowSingleFlightOptions) has attached
/// the duplicate to main's decode. Fails the test when no attach shows
/// within 2 s.
inline std::pair<serve::Handle, serve::Handle>
submitWithAttachedDuplicate(serve::Engine &Eng, const std::string &Asm) {
  serve::Handle Main = Eng.submit({"main", Asm, {}, {}, nullptr});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  serve::Handle Dup = Eng.submit({"dup", Asm, {}, {}, nullptr});
  auto Until = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (Eng.metrics().InFlightDeduped == 0) {
    if (std::chrono::steady_clock::now() >= Until) {
      ADD_FAILURE() << "the duplicate never attached";
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return {std::move(Main), std::move(Dup)};
}

/// Field-by-field equality for two HypothesisOutcomes of the same job.
inline void expectSameOutcome(const core::HypothesisOutcome &A,
                              const core::HypothesisOutcome &B, size_t I) {
  EXPECT_EQ(A.CSource, B.CSource) << "job " << I;
  EXPECT_EQ(A.Produced, B.Produced) << "job " << I;
  EXPECT_EQ(A.Compiles, B.Compiles) << "job " << I;
  EXPECT_EQ(A.IOCorrect, B.IOCorrect) << "job " << I;
  EXPECT_EQ(A.UsedTypeInference, B.UsedTypeInference) << "job " << I;
  EXPECT_EQ(A.EditSim, B.EditSim) << "job " << I;
}

/// The selection rule of §VI-A in its plainest form: every beam candidate
/// through evaluateHypothesis in beam order, the first IO pass kept, else
/// the first candidate. \p Rank gets the kept pass's beam
/// index, or -1 when no candidate passed.
inline core::HypothesisOutcome
referenceSelection(const core::Decompiler &D, const core::EvalTask &Task,
                   const core::Decompiler::Options &Opts, int *Rank) {
  nn::BeamConfig BC;
  BC.BeamSize = Opts.BeamSize;
  BC.MaxLen = Opts.MaxLen;
  std::vector<nn::Hypothesis> Hyps = nn::beamSearch(
      D.model(), D.encodeCached(D.tokenizer().encode(Task.Prog.TargetAsm)),
      BC);
  *Rank = -1;
  core::HypothesisOutcome First;
  for (size_t I = 0; I < Hyps.size(); ++I) {
    core::HypothesisOutcome Out = core::evaluateHypothesis(
        Task, D.tokenizer().decode(Hyps[I].Tokens), Opts.UseTypeInference);
    if (Out.IOCorrect) {
      *Rank = static_cast<int>(I);
      return Out;
    }
    if (I == 0)
      First = Out;
  }
  return First;
}

} // namespace testutil
} // namespace slade

#endif // SLADE_TESTS_PIPELINETESTUTIL_H
