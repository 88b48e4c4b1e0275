//===- test_vm.cpp - interpreter and assembly-parser semantics -----------------===//

#include "PipelineTestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>

using namespace slade;
using namespace slade::testutil;
using asmx::Dialect;

namespace {

TEST(AsmParser, ParsesX86Operands) {
  const char *Text = "\t.globl\tf\nf:\n"
                     "\tmovl\t$5, %eax\n"
                     "\tmovq\t-24(%rbp), %rcx\n"
                     "\tmovl\tcounter(%rip), %edx\n"
                     "\tjmp\t.L2\n"
                     ".L2:\n"
                     "\tret\n"
                     "\t.size\tf, .-f\n";
  auto F = asmx::parseAsm(Text, Dialect::X86);
  ASSERT_TRUE(F.hasValue()) << F.errorMessage();
  EXPECT_EQ(F->Name, "f");
  ASSERT_EQ(F->Instrs.size(), 5u);
  EXPECT_EQ(F->Instrs[0].Ops[0].K, asmx::Operand::Imm);
  EXPECT_EQ(F->Instrs[0].Ops[0].ImmValue, 5);
  EXPECT_EQ(F->Instrs[1].Ops[0].K, asmx::Operand::Mem);
  EXPECT_EQ(F->Instrs[1].Ops[0].Disp, -24);
  EXPECT_EQ(F->Instrs[1].Ops[0].BaseReg, "rbp");
  EXPECT_EQ(F->Instrs[2].Ops[0].SymName, "counter");
  EXPECT_EQ(F->Labels.at(".L2"), 4u);
}

TEST(AsmParser, ParsesArmOperands) {
  const char *Text = "\t.globl\tf\nf:\n"
                     "\tstp\tx29, x30, [sp, -32]!\n"
                     "\tldr\tw9, [sp, 16]\n"
                     "\tadd\tx9, x9, :lo12:g_count\n"
                     "\tmovk\tw9, 513, lsl 16\n"
                     "\tldp\tx29, x30, [sp], 32\n"
                     "\tret\n"
                     "\t.size\tf, .-f\n";
  auto F = asmx::parseAsm(Text, Dialect::Arm);
  ASSERT_TRUE(F.hasValue()) << F.errorMessage();
  EXPECT_TRUE(F->Instrs[0].Ops[2].WriteBackPre);
  EXPECT_EQ(F->Instrs[1].Ops[1].Disp, 16);
  EXPECT_EQ(F->Instrs[2].Ops[2].K, asmx::Operand::Lo12);
  EXPECT_EQ(F->Instrs[2].Ops[2].SymName, "g_count");
  EXPECT_EQ(F->Instrs[3].Ops[2].K, asmx::Operand::Shifter);
  EXPECT_EQ(F->Instrs[3].Ops[2].ImmValue, 16);
}

TEST(AsmParser, SplitsMultipleFunctions) {
  const char *Text = "\t.globl\ta\na:\n\tret\n\t.size\ta, .-a\n"
                     "\t.globl\tb\nb:\n\tret\n\t.size\tb, .-b\n";
  auto Image = asmx::parseAsmImage(Text, Dialect::X86);
  ASSERT_TRUE(Image.hasValue());
  ASSERT_EQ(Image->size(), 2u);
  EXPECT_EQ((*Image)[0].Name, "a");
  EXPECT_EQ((*Image)[1].Name, "b");
}

struct Cfg {
  Dialect D;
  bool Optimize;
};

class VmSemanticsTest : public ::testing::TestWithParam<Cfg> {};

TEST_P(VmSemanticsTest, SignedOverflowWraps) {
  // Both ISAs wrap 32-bit arithmetic; the interpreters must agree.
  auto C = compileAll("int f(int a) { return a + a; }", GetParam().D,
                      GetParam().Optimize);
  ASSERT_FALSE(C.Image.empty());
  uint64_t Big = 0x7fffffffULL;
  EXPECT_EQ(static_cast<int32_t>(callInt(C, GetParam().D, "f", {Big})),
            static_cast<int32_t>(0xfffffffe));
}

TEST_P(VmSemanticsTest, UnsignedDivisionAndRemainder) {
  auto C = compileAll(
      "unsigned f(unsigned a, unsigned b) { return a / b + a % b; }",
      GetParam().D, GetParam().Optimize);
  ASSERT_FALSE(C.Image.empty());
  EXPECT_EQ(callInt(C, GetParam().D, "f", {0xfffffff0ULL, 7}),
            0xfffffff0u / 7 + 0xfffffff0u % 7);
}

TEST_P(VmSemanticsTest, NegativeDivisionTruncatesTowardZero) {
  auto C = compileAll("int f(int a, int b) { return a / b; }", GetParam().D,
                      GetParam().Optimize);
  ASSERT_FALSE(C.Image.empty());
  uint64_t NegSeven = static_cast<uint64_t>(-7) & 0xffffffffULL;
  EXPECT_EQ(static_cast<int32_t>(callInt(C, GetParam().D, "f",
                                         {NegSeven, 2})),
            -3);
}

TEST_P(VmSemanticsTest, ShiftCountsMask) {
  auto C = compileAll("int f(int a, int s) { return a << s; }",
                      GetParam().D, GetParam().Optimize);
  ASSERT_FALSE(C.Image.empty());
  // Hardware masks the count mod 32 on both ISAs.
  EXPECT_EQ(static_cast<int32_t>(callInt(C, GetParam().D, "f", {3, 33})),
            3 << 1);
}

TEST_P(VmSemanticsTest, CharSignExtension) {
  auto C = compileAll("int f(char *p) { return p[0]; }", GetParam().D,
                      GetParam().Optimize);
  ASSERT_FALSE(C.Image.empty());
  vm::Memory Mem;
  Mem.store(0x40000, 1, 0x80); // -128 as signed char.
  EXPECT_EQ(static_cast<int32_t>(
                callInt(C, GetParam().D, "f", {0x40000}, &Mem)),
            -128);
}

TEST_P(VmSemanticsTest, OutOfBoundsAccessFaults) {
  // With p = 0, p[0] is in the guard page and p[-1] is the address
  // 2^64 - 4, where a bounds check that adds the access size wraps.
  auto C = compileAll("int f(int *p) { return p[0]; }\n"
                      "int g(int *p) { return p[-1]; }\n"
                      "void h(int *p) { p[-1] = 7; }\n",
                      GetParam().D, GetParam().Optimize);
  ASSERT_FALSE(C.Image.empty());
  for (const char *Fn : {"f", "g", "h"}) {
    vm::CallArgs Args;
    Args.IntArgs = {0}; // Null pointer.
    vm::Memory Mem;
    std::map<std::string, uint64_t> Symbols;
    vm::ExecConfig EC;
    vm::RunOutcome Out =
        GetParam().D == Dialect::X86
            ? vm::runX86(C.Image, Fn, Args, Mem, Symbols, EC)
            : vm::runArm(C.Image, Fn, Args, Mem, Symbols, EC);
    EXPECT_EQ(Out.K, vm::RunOutcome::Fault) << Fn;
  }
}

TEST_P(VmSemanticsTest, InfiniteLoopTimesOut) {
  auto C = compileAll("int f(void) {\n  int x = 1;\n  while (x) {\n"
                      "    x = 1;\n  }\n  return x;\n}\n",
                      GetParam().D, GetParam().Optimize);
  ASSERT_FALSE(C.Image.empty());
  vm::CallArgs Args;
  vm::Memory Mem;
  std::map<std::string, uint64_t> Symbols;
  vm::ExecConfig EC;
  EC.MaxSteps = 5000;
  vm::RunOutcome Out =
      GetParam().D == Dialect::X86
          ? vm::runX86(C.Image, "f", Args, Mem, Symbols, EC)
          : vm::runArm(C.Image, "f", Args, Mem, Symbols, EC);
  EXPECT_EQ(Out.K, vm::RunOutcome::Timeout);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, VmSemanticsTest,
    ::testing::Values(Cfg{Dialect::X86, false}, Cfg{Dialect::X86, true},
                      Cfg{Dialect::Arm, false}, Cfg{Dialect::Arm, true}),
    [](const ::testing::TestParamInfo<Cfg> &Info) {
      std::string N = Info.param.D == Dialect::X86 ? "x86" : "arm";
      return N + (Info.param.Optimize ? "_O3" : "_O0");
    });

TEST(IOHarness, TimeoutNeverEquivalent) {
  vm::TestProfile A, B;
  vm::TestResult R;
  R.K = vm::RunOutcome::Timeout;
  A.Tests.push_back(R);
  B.Tests.push_back(R);
  // Identical timeouts still count as non-equivalent (§III-A).
  EXPECT_FALSE(vm::profilesEquivalent(A, B));
}

TEST(IOHarness, MatchingFaultsAreEquivalent) {
  vm::TestProfile A, B;
  vm::TestResult R;
  R.K = vm::RunOutcome::Fault;
  A.Tests.push_back(R);
  B.Tests.push_back(R);
  EXPECT_TRUE(vm::profilesEquivalent(A, B));
}

TEST(IOHarness, BufferDifferenceDetected) {
  vm::TestProfile A, B;
  vm::TestResult RA, RB;
  RA.K = RB.K = vm::RunOutcome::Return;
  RA.Buffers = {{1, 2, 3}};
  RB.Buffers = {{1, 2, 4}};
  A.Tests.push_back(RA);
  B.Tests.push_back(RB);
  EXPECT_FALSE(vm::profilesEquivalent(A, B));
}

TEST(Memory, PagedImageReadsZeroAndRoundTripsAcrossPages) {
  vm::Memory Mem;
  const uint64_t Page = vm::Memory::PageSize;
  // Never-stored bytes read as zero, on a fresh page and at the very end.
  EXPECT_EQ(Mem.load(0x40000, 8), 0u);
  EXPECT_EQ(Mem.load(Mem.size() - 8, 8), 0u);

  // An 8-byte store straddling a page boundary, and its neighbours.
  uint64_t A = 5 * Page - 3;
  Mem.store(A, 8, 0x1122334455667788ULL);
  EXPECT_EQ(Mem.load(A, 8), 0x1122334455667788ULL);
  EXPECT_EQ(Mem.load(A - 8, 8), 0u);
  EXPECT_EQ(Mem.load(A + 8, 8), 0u);
  EXPECT_EQ(Mem.load(5 * Page, 1), 0x55u) << "little-endian across pages";

  // A 16-byte block straddling a boundary (a vector register).
  uint8_t In[16], Out[16];
  for (int I = 0; I < 16; ++I)
    In[I] = static_cast<uint8_t>(I + 1);
  uint64_t B = 9 * Page - 7;
  Mem.storeBlock(B, In, 16);
  Mem.loadBlock(B, Out, 16);
  EXPECT_EQ(std::memcmp(In, Out, 16), 0);

  // snapshot reads across the boundary and through untouched bytes.
  std::vector<uint8_t> Snap = Mem.snapshot(B - 4, 24);
  std::vector<uint8_t> Want(24, 0);
  std::copy(In, In + 16, Want.begin() + 4);
  EXPECT_EQ(Snap, Want);
  EXPECT_EQ(Mem.snapshot(Mem.size() - 4, 8), std::vector<uint8_t>(8, 0))
      << "a snapshot past the end reads zeros";
  EXPECT_FALSE(Mem.faulted());
}

TEST(Memory, GuardPageAndPastTheEndFaultWithTheirMessages) {
  const uint64_t End = vm::Memory().size();
  struct Case {
    uint64_t Addr;
    unsigned N;
    bool Store;
    bool Block;
    const char *Msg;
  } Cases[] = {
      {0x10, 4, false, false, "memory load out of bounds at 0x10"},
      {vm::Memory::GuardSize - 1, 4, true, false,
       "memory store out of bounds at 0xfff"},
      {End - 4, 8, false, false, "memory load out of bounds at 0xffffc"},
      {End, 1, true, false, "memory store out of bounds at 0x100000"},
      {End - 8, 16, false, true, "memory load out of bounds at 0xffff8"},
      {End - 15, 16, true, true, "memory store out of bounds at 0xffff1"},
      // Addr + N wraps past 2^64: still out of bounds.
      {~0ULL - 3, 4, false, false,
       "memory load out of bounds at 0xfffffffffffffffc"},
      {~0ULL - 3, 16, true, true,
       "memory store out of bounds at 0xfffffffffffffffc"},
  };
  for (const Case &C : Cases) {
    vm::Memory Mem;
    uint8_t Buf[16];
    std::memset(Buf, 0xab, sizeof(Buf));
    if (C.Store && C.Block)
      Mem.storeBlock(C.Addr, Buf, C.N);
    else if (C.Store)
      Mem.store(C.Addr, C.N, ~0ULL);
    else if (C.Block)
      Mem.loadBlock(C.Addr, Buf, C.N);
    else
      EXPECT_EQ(Mem.load(C.Addr, C.N), 0u) << C.Msg;
    EXPECT_TRUE(Mem.faulted()) << C.Msg;
    EXPECT_EQ(Mem.faultReason(), C.Msg);
    if (C.Block && !C.Store)
      EXPECT_EQ(Buf[0], 0) << "a faulting block load reads zeros";
    // The first fault is the one reported.
    Mem.load(0, 1);
    EXPECT_EQ(Mem.faultReason(), C.Msg);
    // No fault ever writes: the image is still all zero.
    EXPECT_EQ(Mem.snapshot(End - 16, 16), std::vector<uint8_t>(16, 0));
  }
  vm::Memory Mem;
  Mem.store(End - 8, 8, 1); // The last 8 bytes are in bounds.
  EXPECT_EQ(Mem.load(End - 8, 8), 1u);
  EXPECT_FALSE(Mem.faulted());
}

/// vm::matchesProfile must agree with profilesEquivalent(Ref,
/// runProfile(...)) everywhere, early exit or not.
void expectMatchAgrees(const vm::TestProfile &Ref,
                       const core::CompiledProgram &Cand,
                       const core::CompiledProgram &Sig, Dialect D,
                       const vm::HarnessConfig &HC, bool Want,
                       const std::string &What) {
  vm::TestProfile Full =
      vm::runProfile(Cand.Image, *Sig.Target, Sig.Globals, D, HC);
  EXPECT_EQ(vm::profilesEquivalent(Ref, Full), Want) << What;
  EXPECT_EQ(vm::matchesProfile(Ref, Cand.Image, *Sig.Target, Sig.Globals, D,
                               HC),
            Want)
      << What;
}

TEST(IOHarness, MatchesProfileAgreesWithProfilesEquivalent) {
  for (Dialect D : {Dialect::X86, Dialect::Arm}) {
    const char *Isa = D == Dialect::X86 ? "x86" : "arm";
    for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
      SplitMix64 Rng(Seed);
      dataset::Sample S =
          dataset::generateSample(Rng, dataset::Suite::ExeBench, "");
      auto Prog = core::compileProgram(S.FunctionSource, S.ContextSource,
                                       S.Name, D, D == Dialect::Arm);
      ASSERT_TRUE(Prog.hasValue()) << Prog.errorMessage();
      std::string What = std::string(Isa) + " seed " +
                         std::to_string(Seed) + "\n" + S.FunctionSource;
      vm::HarnessConfig HC;
      vm::TestProfile Ref =
          vm::runProfile(Prog->Image, *Prog->Target, Prog->Globals, D, HC);
      ASSERT_EQ(Ref.Tests.size(), static_cast<size_t>(HC.NumTests));

      // The reference program itself.
      expectMatchAgrees(Ref, *Prog, *Prog, D, HC, true, "same " + What);
      // A reference that differs only on the last input.
      vm::TestProfile LastDiffers = Ref;
      LastDiffers.Tests.back().K = vm::RunOutcome::Fault;
      expectMatchAgrees(LastDiffers, *Prog, *Prog, D, HC, false,
                        "last input " + What);
      // A run that times out on every input.
      vm::HarnessConfig Tight = HC;
      Tight.MaxSteps = 3;
      expectMatchAgrees(Ref, *Prog, *Prog, D, Tight, false,
                        "timeout " + What);
      // A reference with a different test count.
      vm::TestProfile Shorter = Ref;
      Shorter.Tests.pop_back();
      expectMatchAgrees(Shorter, *Prog, *Prog, D, HC, false,
                        "count " + What);
      vm::HarnessConfig None = HC;
      None.NumTests = 0;
      EXPECT_FALSE(vm::matchesProfile(Ref, Prog->Image, *Prog->Target,
                                      Prog->Globals, D, None))
          << What;
    }

    // Faults on every input against a faulting reference: equivalent,
    // whatever the two fault reasons are.
    auto Below = core::compileProgram(
        "int f(int *p, int n) { return p[n - 100000]; }", "", "f", D, false);
    auto Above = core::compileProgram(
        "int f(int *p, int n) { return p[n + 1000000]; }", "", "f", D, true);
    ASSERT_TRUE(Below.hasValue() && Above.hasValue());
    vm::HarnessConfig HC;
    vm::TestProfile Ref =
        vm::runProfile(Below->Image, *Below->Target, Below->Globals, D, HC);
    for (const vm::TestResult &R : Ref.Tests)
      ASSERT_EQ(R.K, vm::RunOutcome::Fault) << Isa;
    expectMatchAgrees(Ref, *Above, *Below, D, HC, true,
                      std::string("faulting ") + Isa);
  }
}

/// One task's candidates under every verdict: a pass, a wrong answer, a
/// non-terminating loop, a wild store, a parse error and no output.
core::EvalTask sumTask(Dialect D) {
  const char *Sum = "int sum(int *arr, int n) {\n"
                    "  int total = 0;\n"
                    "  for (int i = 0; i < n; i++) {\n"
                    "    total += arr[i];\n"
                    "  }\n"
                    "  return total;\n}\n";
  auto Prog = core::compileProgram(Sum, "", "sum", D, D == Dialect::Arm);
  EXPECT_TRUE(Prog.hasValue()) << Prog.errorMessage();
  core::EvalTask T;
  T.Name = "sum";
  T.FunctionSource = Sum;
  T.D = D;
  T.Optimize = D == Dialect::Arm;
  T.RefProfile = vm::runProfile(Prog->Image, *Prog->Target, Prog->Globals,
                                D, vm::HarnessConfig());
  T.Prog = std::move(*Prog);
  return T;
}

const std::vector<std::string> SumCandidates = {
    "int sum(int *a, int n) {\n  int s = 0;\n"
    "  for (int i = 0; i < n; i++) {\n    s += a[i];\n  }\n"
    "  return s;\n}\n",
    "int sum(int *a, int n) {\n  int s = 0;\n"
    "  for (int i = 0; i <= n; i++) {\n    s += a[i];\n  }\n"
    "  return s;\n}\n",
    "int sum(int *a, int n) {\n  int s = 0;\n"
    "  for (int i = 0; i < n; i += 0) {\n    s += a[i];\n  }\n"
    "  return s;\n}\n",
    "int sum(int *a, int n) {\n  a[n + 1000000] = 1;\n  return n;\n}\n",
    "int sum(int *a, int n) {\n  return a[n;\n}\n",
    "",
};

TEST(VerifyConcurrency, FourThreadsMatchOneThread) {
  // The decompiler's verify pool and the engine's verify workers run the
  // VM concurrently on one shared task: each candidate's verdict must
  // not depend on what other threads verify at the same time.
  for (Dialect D : {Dialect::X86, Dialect::Arm}) {
    const core::EvalTask Task = sumTask(D);
    std::vector<core::HypothesisOutcome> Solo;
    for (const std::string &C : SumCandidates)
      Solo.push_back(core::evaluateHypothesis(Task, C, true));
    EXPECT_TRUE(Solo[0].IOCorrect);
    for (size_t I = 1; I < Solo.size(); ++I)
      EXPECT_FALSE(Solo[I].IOCorrect) << "candidate " << I;

    const size_t N = SumCandidates.size();
    std::vector<std::vector<core::HypothesisOutcome>> Got(
        4, std::vector<core::HypothesisOutcome>(N));
    std::vector<std::thread> Threads;
    for (size_t W = 0; W < 4; ++W)
      Threads.emplace_back([&, W] {
        // Each thread starts at a different candidate.
        for (size_t K = 0; K < N; ++K) {
          size_t I = (W + K) % N;
          Got[W][I] = core::evaluateHypothesis(Task, SumCandidates[I], true);
        }
      });
    for (std::thread &T : Threads)
      T.join();
    for (size_t W = 0; W < 4; ++W)
      for (size_t I = 0; I < N; ++I)
        expectSameOutcome(Got[W][I], Solo[I], I);
  }
}

} // namespace
