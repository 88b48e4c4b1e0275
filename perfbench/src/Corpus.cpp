//===- Corpus.cpp - fixed, held-out, deduplicated function sets -----------===//

#include "Corpus.h"

#include "cc/Lexer.h"
#include "dataset/Generator.h"
#include "support/StringUtils.h"

#include <set>
#include <string>

using namespace slade;
using namespace slade::perfbench;

namespace {

/// slade-train's corpus defaults: the pinned weights saw exactly this
/// training split.
constexpr uint64_t TrainCorpusSeed = 20240101;
constexpr size_t TrainCorpusSamples = 2600;

uint64_t tokenHash(const std::string &FunctionSource) {
  return fnv1a64(joinStrings(cc::cTokenSpellings(FunctionSource), "\x1f"));
}

const std::set<uint64_t> &trainingHashes() {
  static const std::set<uint64_t> Hashes = [] {
    std::set<uint64_t> H;
    dataset::Corpus Corpus = dataset::buildCorpus(
        dataset::Suite::ExeBench, TrainCorpusSamples, 0, TrainCorpusSeed);
    for (const dataset::Sample &S : Corpus.Train)
      H.insert(tokenHash(S.FunctionSource));
    return H;
  }();
  return Hashes;
}

void mixDigest(uint64_t &Digest, const std::string &Part) {
  Digest = fnv1a64(std::to_string(Digest) + '\x1e' + Part);
}

} // namespace

FunctionSet slade::perfbench::buildFunctionSet(const FunctionSetSpec &Spec,
                                               const tok::Tokenizer &Tok) {
  FunctionSet Set;
  SplitMix64 Rng(Spec.CorpusSeed);
  std::set<std::string> SeenAsm;
  std::set<std::vector<int>> SeenTokens;
  while (Set.Tasks.size() < Spec.Want && Set.Draws < Spec.MaxDraws) {
    ++Set.Draws;
    dataset::Sample S =
        dataset::generateSample(Rng, dataset::Suite::ExeBench, "");
    if (trainingHashes().count(tokenHash(S.FunctionSource))) {
      ++Set.DroppedTrain;
      continue;
    }
    auto Prog = core::compileProgram(S.FunctionSource, S.ContextSource,
                                     S.Name, Spec.D, Spec.Optimize);
    if (!Prog) {
      ++Set.DroppedCompile;
      continue;
    }
    if (!SeenAsm.insert(Prog->TargetAsm).second ||
        !SeenTokens.insert(Tok.encode(Prog->TargetAsm)).second) {
      ++Set.DroppedDup;
      continue;
    }
    core::EvalTask T;
    T.Name = S.Name + "#" + std::to_string(Set.Tasks.size());
    T.Category = S.Category;
    T.FunctionSource = S.FunctionSource;
    T.ContextSource = S.ContextSource;
    T.UsesExternalTypedef = S.UsesExternalTypedef;
    T.D = Spec.D;
    T.Optimize = Spec.Optimize;
    T.RefProfile = vm::runProfile(Prog->Image, *Prog->Target, Prog->Globals,
                                  Spec.D, vm::HarnessConfig());
    T.Prog = std::move(*Prog);
    mixDigest(Set.Digest, T.Name);
    mixDigest(Set.Digest, T.FunctionSource);
    mixDigest(Set.Digest, T.Prog.TargetAsm);
    Set.Tasks.push_back(std::move(T));
  }
  return Set;
}
