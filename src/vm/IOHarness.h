//===- IOHarness.h - input/output equivalence testing -----------*- C++ -*-===//
///
/// \file
/// Implements the paper's IO-equivalence criterion (§III-A): generate a
/// finite set of typed inputs from the *original* function signature, run
/// the candidate over the simulated machine, and compare outcome, return
/// value, every pointee buffer, and every global. Non-termination (step
/// budget) never equals anything, matching the paper's conservative rule.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_VM_IOHARNESS_H
#define SLADE_VM_IOHARNESS_H

#include "asmx/Asm.h"
#include "cc/AST.h"
#include "vm/Machine.h"

#include <cstdint>
#include <string>
#include <vector>

namespace slade {
namespace vm {

/// A global variable to materialize in the memory image.
struct GlobalSpec {
  std::string Name;
  unsigned Size = 4;
  std::vector<uint8_t> Init; ///< Zero-filled to Size if shorter.
};

struct HarnessConfig {
  int NumTests = 5;
  unsigned BufferElems = 16; ///< Elements per pointer-argument buffer.
  uint64_t Seed = 0x51adeULL;
  uint64_t MaxSteps = 400000;
};

/// Observable behaviour of one simulated call.
struct TestResult {
  RunOutcome::Kind K = RunOutcome::Return;
  bool RetVoid = true;
  bool RetIsFloat = false;
  uint64_t RetBits = 0;   ///< Return value truncated to declared width.
  double RetFloat = 0;
  std::vector<std::vector<uint8_t>> Buffers; ///< Pointee buffers after run.
  std::vector<std::vector<uint8_t>> Globals; ///< Global contents after run.
};

/// Behaviour across the whole finite input set F (eq. 3).
struct TestProfile {
  std::vector<TestResult> Tests;
};

/// Runs \p Sig's input set against \p Image (target + context externals).
TestProfile runProfile(const std::vector<asmx::AsmFunction> &Image,
                       const cc::FunctionDecl &Sig,
                       const std::vector<GlobalSpec> &Globals,
                       asmx::Dialect D, const HarnessConfig &Cfg);

/// True when the two profiles are behaviourally equal (floats compared
/// with 1e-6 relative tolerance; timeouts never compare equal).
bool profilesEquivalent(const TestProfile &A, const TestProfile &B);

/// profilesEquivalent(Ref, runProfile(Image, Sig, Globals, D, Cfg)),
/// computed lazily: the test inputs run in order and the first one whose
/// result differs from \p Ref's stops the run, so a candidate that fails
/// its first input (or loops forever on it) costs one simulated call.
/// False when \p Ref holds a different number of tests than \p Cfg runs.
bool matchesProfile(const TestProfile &Ref,
                    const std::vector<asmx::AsmFunction> &Image,
                    const cc::FunctionDecl &Sig,
                    const std::vector<GlobalSpec> &Globals,
                    asmx::Dialect D, const HarnessConfig &Cfg);

} // namespace vm
} // namespace slade

#endif // SLADE_VM_IOHARNESS_H
