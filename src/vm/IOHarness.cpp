//===- IOHarness.cpp - input/output equivalence testing ---------------------===//

#include "vm/IOHarness.h"

#include "support/RNG.h"
#include "vm/Interp.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

using namespace slade;
using namespace slade::cc;
using namespace slade::vm;

namespace {

constexpr uint64_t GlobalBase = 0x20000;
constexpr uint64_t BufferBase = 0x40000;

/// Fills a pointee buffer with small deterministic values appropriate for
/// the element type. Char buffers get a NUL near the end so strlen-style
/// loops stay bounded.
void fillBuffer(std::vector<uint8_t> &Buf, const Type *Elem,
                SplitMix64 &Rng) {
  const Type *C = Elem->canonical();
  if (const auto *I = dyn_cast<IntType>(C)) {
    unsigned ES = I->bits() / 8;
    size_t N = Buf.size() / ES;
    for (size_t K = 0; K < N; ++K) {
      int64_t V = I->bits() == 8 ? Rng.range(1, 99) : Rng.range(-9, 9);
      std::memcpy(&Buf[K * ES], &V, ES);
    }
    if (I->bits() == 8 && !Buf.empty())
      Buf[Buf.size() - 1] = 0;
    return;
  }
  if (const auto *F = dyn_cast<FloatType>(C)) {
    unsigned ES = F->bits() / 8;
    size_t N = Buf.size() / ES;
    for (size_t K = 0; K < N; ++K) {
      double V = static_cast<double>(Rng.range(-16, 16)) * 0.25;
      if (F->bits() == 32) {
        float FV = static_cast<float>(V);
        std::memcpy(&Buf[K * ES], &FV, 4);
      } else {
        std::memcpy(&Buf[K * ES], &V, 8);
      }
    }
    return;
  }
  if (const auto *S = dyn_cast<StructType>(C)) {
    for (const StructType::Field &Fd : S->fields()) {
      const Type *FC = Fd.Ty->canonical();
      if (FC->isInteger()) {
        int64_t V = Rng.range(-9, 9);
        std::memcpy(&Buf[Fd.Offset], &V, std::min(8u, FC->size()));
      } else if (FC->isFloating()) {
        double V = static_cast<double>(Rng.range(-16, 16)) * 0.25;
        if (FC->size() == 4) {
          float FV = static_cast<float>(V);
          std::memcpy(&Buf[Fd.Offset], &FV, 4);
        } else {
          std::memcpy(&Buf[Fd.Offset], &V, 8);
        }
      }
      // Pointer fields stay null: functions that chase them fault
      // deterministically on both sides.
    }
    return;
  }
  // Pointer-to-pointer and other exotic pointees: zero-filled.
}

/// The fixed address plan shared by every test input, so out-of-bounds
/// behaviour is deterministic and comparable: each global's address.
std::map<std::string, uint64_t>
globalAddresses(const std::vector<GlobalSpec> &Globals) {
  std::map<std::string, uint64_t> Symbols;
  uint64_t GAddr = GlobalBase;
  for (const GlobalSpec &G : Globals) {
    GAddr = (GAddr + 15) & ~15ULL;
    Symbols[G.Name] = GAddr;
    GAddr += std::max(1u, G.Size);
  }
  return Symbols;
}

/// Test input \p T: a fresh memory image holding the globals and the
/// T-th seeded argument set, one simulated call, and what it left behind.
/// Each input is seeded on its own, so inputs can run in any subset.
TestResult runTest(const std::vector<asmx::AsmFunction> &Image,
                   const FunctionDecl &Sig,
                   const std::vector<GlobalSpec> &Globals,
                   const std::map<std::string, uint64_t> &Symbols,
                   asmx::Dialect D, const HarnessConfig &Cfg, int T) {
  SplitMix64 Rng(Cfg.Seed * 1000003ULL + static_cast<uint64_t>(T));
  Memory Mem;
  // Globals.
  for (const GlobalSpec &G : Globals) {
    std::vector<uint8_t> Bytes(G.Size, 0);
    std::copy(G.Init.begin(),
              G.Init.begin() +
                  std::min(G.Init.size(), static_cast<size_t>(G.Size)),
              Bytes.begin());
    Mem.storeBlock(Symbols.at(G.Name), Bytes.data(), G.Size);
  }

  // Arguments.
  CallArgs Args;
  struct BufInfo {
    uint64_t Addr;
    unsigned Size;
  };
  std::vector<BufInfo> Buffers;
  uint64_t BAddr = BufferBase;
  for (const auto &P : Sig.Params) {
    const Type *C = P->Ty->canonical();
    if (const auto *PT = dyn_cast<PointerType>(C)) {
      const Type *Elem = PT->pointee()->canonical();
      unsigned ES = std::max(1u, Elem->size());
      unsigned Size = Elem->isStruct() ? ES * 2 : ES * Cfg.BufferElems;
      BAddr = (BAddr + 63) & ~63ULL;
      std::vector<uint8_t> Bytes(Size, 0);
      fillBuffer(Bytes, Elem, Rng);
      Mem.storeBlock(BAddr, Bytes.data(), Size);
      Buffers.push_back({BAddr, Size});
      Args.IntArgs.push_back(BAddr);
      BAddr += Size;
      continue;
    }
    if (C->isFloating()) {
      Args.FloatArgs.push_back(static_cast<double>(Rng.range(-16, 16)) *
                               0.25);
      Args.FloatIsF32.push_back(C->size() == 4);
      continue;
    }
    // Integers: small non-negative values keep generator loops bounded
    // by construction (see dataset/Generator.cpp).
    Args.IntArgs.push_back(static_cast<uint64_t>(Rng.range(0, 8)));
  }

  ExecConfig EC;
  EC.MaxSteps = Cfg.MaxSteps;
  RunOutcome Out = D == asmx::Dialect::X86
                       ? runX86(Image, Sig.Name, Args, Mem, Symbols, EC)
                       : runArm(Image, Sig.Name, Args, Mem, Symbols, EC);

  TestResult R;
  R.K = Out.K;
  const Type *RetC = Sig.RetTy->canonical();
  R.RetVoid = RetC->isVoid();
  if (Out.K == RunOutcome::Return && !R.RetVoid) {
    if (RetC->isFloating()) {
      R.RetIsFloat = true;
      if (RetC->size() == 4) {
        float F;
        uint32_t Bits = static_cast<uint32_t>(Out.FloatBits);
        std::memcpy(&F, &Bits, 4);
        R.RetFloat = F;
      } else {
        double Dv;
        std::memcpy(&Dv, &Out.FloatBits, 8);
        R.RetFloat = Dv;
      }
    } else {
      unsigned W = std::max(1u, RetC->size());
      R.RetBits = W >= 8 ? Out.IntResult
                         : (Out.IntResult & ((1ULL << (W * 8)) - 1));
    }
  }
  if (Out.K == RunOutcome::Return) {
    for (const BufInfo &B : Buffers)
      R.Buffers.push_back(Mem.snapshot(B.Addr, B.Size));
    for (const GlobalSpec &G : Globals)
      R.Globals.push_back(Mem.snapshot(Symbols.at(G.Name), G.Size));
  }
  return R;
}

/// profilesEquivalent's rule for one test input.
bool testsEquivalent(const TestResult &X, const TestResult &Y) {
  // Timeouts are never equivalent (undecidability guard, §III-A).
  if (X.K == RunOutcome::Timeout || Y.K == RunOutcome::Timeout)
    return false;
  if (X.K != Y.K)
    return false;
  if (X.K == RunOutcome::Fault)
    return true; // Both faulted deterministically on this input.
  if (X.RetVoid != Y.RetVoid)
    return false;
  if (!X.RetVoid) {
    if (X.RetIsFloat != Y.RetIsFloat)
      return false;
    if (X.RetIsFloat) {
      double DA = X.RetFloat, DB = Y.RetFloat;
      double Scale = std::max({1.0, std::fabs(DA), std::fabs(DB)});
      if (std::fabs(DA - DB) > 1e-6 * Scale)
        return false;
    } else if (X.RetBits != Y.RetBits) {
      return false;
    }
  }
  return X.Buffers == Y.Buffers && X.Globals == Y.Globals;
}

/// The number of tests runProfile records under \p Cfg.
size_t testCount(const HarnessConfig &Cfg) {
  return static_cast<size_t>(std::max(0, Cfg.NumTests));
}

} // namespace

TestProfile slade::vm::runProfile(const std::vector<asmx::AsmFunction> &Image,
                                  const FunctionDecl &Sig,
                                  const std::vector<GlobalSpec> &Globals,
                                  asmx::Dialect D,
                                  const HarnessConfig &Cfg) {
  std::map<std::string, uint64_t> Symbols = globalAddresses(Globals);
  TestProfile Profile;
  for (size_t T = 0; T < testCount(Cfg); ++T)
    Profile.Tests.push_back(runTest(Image, Sig, Globals, Symbols, D, Cfg,
                                    static_cast<int>(T)));
  return Profile;
}

bool slade::vm::profilesEquivalent(const TestProfile &A,
                                   const TestProfile &B) {
  if (A.Tests.size() != B.Tests.size())
    return false;
  for (size_t T = 0; T < A.Tests.size(); ++T)
    if (!testsEquivalent(A.Tests[T], B.Tests[T]))
      return false;
  return true;
}

bool slade::vm::matchesProfile(const TestProfile &Ref,
                               const std::vector<asmx::AsmFunction> &Image,
                               const FunctionDecl &Sig,
                               const std::vector<GlobalSpec> &Globals,
                               asmx::Dialect D, const HarnessConfig &Cfg) {
  if (Ref.Tests.size() != testCount(Cfg))
    return false;
  std::map<std::string, uint64_t> Symbols = globalAddresses(Globals);
  for (size_t T = 0; T < Ref.Tests.size(); ++T)
    if (!testsEquivalent(Ref.Tests[T],
                         runTest(Image, Sig, Globals, Symbols, D, Cfg,
                                 static_cast<int>(T))))
      return false; // Later inputs cannot change the verdict.
  return true;
}
