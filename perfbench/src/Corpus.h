//===- Corpus.h - fixed, held-out, deduplicated function sets ---*- C++ -*-===//
///
/// \file
/// The benchmark's inputs. Each workload draws its functions from a pinned
/// corpus seed, so the function set (and with it every quality metric) is
/// the same on every run; the run seed only orders and schedules requests.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_PERFBENCH_CORPUS_H
#define SLADE_PERFBENCH_CORPUS_H

#include "core/Slade.h"

#include <cstdint>
#include <vector>

namespace slade {
namespace perfbench {

struct FunctionSetSpec {
  asmx::Dialect D = asmx::Dialect::X86;
  bool Optimize = false;
  uint64_t CorpusSeed = 0;
  /// Distinct functions wanted; generation stops there or at MaxDraws.
  size_t Want = 0;
  size_t MaxDraws = 0;
};

struct FunctionSet {
  /// Distinct by target assembly and by its token sequence, none of them
  /// in the training split, in generation order.
  std::vector<core::EvalTask> Tasks;
  size_t Draws = 0;          ///< Samples generated.
  size_t DroppedTrain = 0;   ///< Token hash found in the training split.
  size_t DroppedDup = 0;     ///< Repeats an assembly already kept.
  size_t DroppedCompile = 0; ///< Rejected by the compiler.
  /// FNV-1a over every kept function's name, C source and assembly.
  uint64_t Digest = 0;
};

/// Generates ExeBench-style functions from \p Spec.CorpusSeed, compiles
/// them at the spec's ISA and optimisation level, and keeps one function
/// per distinct target assembly that is absent from the training split
/// of the pinned weights (slade-train's corpus: 2600 samples, seed
/// 20240101).
FunctionSet buildFunctionSet(const FunctionSetSpec &Spec,
                             const tok::Tokenizer &Tok);

} // namespace perfbench
} // namespace slade

#endif // SLADE_PERFBENCH_CORPUS_H
