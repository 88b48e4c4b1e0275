//===- test_constrain.cpp - grammar-constrained decoding tests -------------===//
//
// Differential pinning of cc::PrefixOracle against the real cc::Lexer/
// cc::Parser frontend, plus the snapshot/advance/rollback state property
// beams rely on, plus byte-identity regression pins for --constrain=off.
//
// The oracle's contract has two directions:
//   soundness:  it never rejects a byte prefix of a parseable program
//               (checked on every prefix of thousands of generated
//               functions, contexts, and whole translation units);
//   usefulness: when it does reject, the prefix really is a dead end —
//               the parser fails on the prefix extended by any single
//               token (checked on randomly mutated programs).
//
//===----------------------------------------------------------------------===//

#include "cc/AST.h"
#include "cc/Parser.h"
#include "cc/PrefixOracle.h"
#include "dataset/Generator.h"
#include "nn/BeamCore.h"
#include "serve/Engine.h"
#include "support/RNG.h"

#include "PipelineTestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace slade;
using namespace slade::cc;

namespace {

bool parsesPartial(const std::string &Src) {
  TypeContext Ctx;
  ParseOptions Opts;
  Opts.Partial = true;
  return parseC(Src, Ctx, Opts).hasValue();
}

/// Feeds the whole text byte-by-byte, asserting liveness at every prefix.
/// Returns the final state.
PrefixOracle::State feedExpectAlive(const PrefixOracle &O,
                                    const std::string &Text,
                                    const char *What) {
  PrefixOracle::State S = O.start();
  for (size_t I = 0; I < Text.size(); ++I) {
    bool Alive = O.advance(S, std::string_view(&Text[I], 1));
    if (!Alive) {
      ADD_FAILURE() << What << ": oracle rejected parseable prefix at byte "
                    << I << " ('" << Text[I] << "')\nprefix: <<<"
                    << Text.substr(0, I + 1) << ">>>";
      return S;
    }
  }
  return S;
}

/// One representative spelling per terminal the lexer can produce,
/// used as the single-token continuations of the usefulness check.
const std::vector<std::string> &continuationTokens() {
  static const std::vector<std::string> Toks = [] {
    std::vector<std::string> V = {
        "x", "1", "1.5", "'a'", "\"s\"",
        // keywords (accepted and rejected ones alike)
        "void", "int", "unsigned", "const", "static", "struct", "typedef",
        "extern", "sizeof", "if", "else", "while", "do", "for", "return",
        "break", "continue", "union", "switch", "goto",
        // punctuators
        "(", ")", "{", "}", "[", "]", ";", ",", "?", ":", ".", "->", "++",
        "--", "*", "&", "+", "-", "!", "~", "=", "+=", "<<=", "==", "&&",
        "<", ">>", "/", "%", "^", "|", "...",
    };
    return V;
  }();
  return Toks;
}

} // namespace

//===----------------------------------------------------------------------===//
// Differential soundness: every prefix of every generated function
//===----------------------------------------------------------------------===//

TEST(PrefixOracle, AcceptsEveryPrefixOfGeneratedFunctions) {
  PrefixOracle O;
  SplitMix64 Rng(0xC0FFEE);
  const auto &Cats = dataset::synthCategories();
  size_t NumFns = 0;
  // >= 2000 functions across both suites and all synth categories; each
  // is checked standalone AND inside its full context (the form the
  // parser actually sees during verification).
  for (int I = 0; I < 1100 && !HasFatalFailure(); ++I) {
    dataset::Sample Ex =
        dataset::generateSample(Rng, dataset::Suite::ExeBench, "");
    dataset::Sample Sy = dataset::generateSample(
        Rng, dataset::Suite::Synth, Cats[I % Cats.size()]);
    for (const dataset::Sample *Smp : {&Ex, &Sy}) {
      ASSERT_TRUE(parsesPartial(Smp->FunctionSource))
          << "generator emitted an unparseable function: "
          << Smp->FunctionSource;
      PrefixOracle::State S =
          feedExpectAlive(O, Smp->FunctionSource, Smp->Name.c_str());
      EXPECT_TRUE(O.acceptsEnd(S))
          << "complete parseable function not accepted as an end state:\n"
          << Smp->FunctionSource;
      ++NumFns;
      if (!Smp->ContextSource.empty()) {
        std::string Full = Smp->ContextSource + "\n" + Smp->FunctionSource;
        if (parsesPartial(Full)) {
          PrefixOracle::State SF = feedExpectAlive(O, Full, Smp->Name.c_str());
          EXPECT_TRUE(O.acceptsEnd(SF)) << Full;
        }
      }
    }
  }
  EXPECT_GE(NumFns, 2000u);
}

TEST(PrefixOracle, ChunkBoundariesNeverMatter) {
  // advance() must be chunking-invariant: the vocab adapter feeds
  // multi-byte pieces, the tests feed single bytes; both must land on
  // memcmp-identical states.
  PrefixOracle O;
  SplitMix64 Rng(77);
  for (int I = 0; I < 50; ++I) {
    dataset::Sample Smp =
        dataset::generateSample(Rng, dataset::Suite::ExeBench, "");
    const std::string &Text = Smp.FunctionSource;
    PrefixOracle::State ByByte = O.start();
    for (char C : Text)
      O.advance(ByByte, std::string_view(&C, 1));
    PrefixOracle::State Whole = O.start();
    O.advance(Whole, Text);
    ASSERT_EQ(0, std::memcmp(&ByByte, &Whole, sizeof(PrefixOracle::State)));
    PrefixOracle::State Random = O.start();
    size_t Pos = 0;
    while (Pos < Text.size()) {
      size_t Len = 1 + Rng.next() % 7;
      Len = std::min(Len, Text.size() - Pos);
      O.advance(Random, std::string_view(Text.data() + Pos, Len));
      Pos += Len;
    }
    ASSERT_EQ(0, std::memcmp(&ByByte, &Random, sizeof(PrefixOracle::State)));
  }
}

//===----------------------------------------------------------------------===//
// Usefulness: rejection implies the parser fails on every single-token
// continuation
//===----------------------------------------------------------------------===//

TEST(PrefixOracle, RejectionImpliesParserFailureOnAllContinuations) {
  PrefixOracle O;
  SplitMix64 Rng(0xBADC0DE);
  const std::string Bytes = "(){}[];,.*&+-=<>!~?:x1\"'%^|/ ";
  int Rejections = 0;
  for (int I = 0; I < 400; ++I) {
    dataset::Sample Smp =
        dataset::generateSample(Rng, dataset::Suite::ExeBench, "");
    std::string Text = Smp.FunctionSource;
    if (Text.size() < 8)
      continue;
    // Mutate: replace or insert a random byte somewhere in the function.
    size_t Pos = 1 + Rng.next() % (Text.size() - 2);
    char NewC = Bytes[Rng.next() % Bytes.size()];
    if (Rng.next() & 1)
      Text[Pos] = NewC;
    else
      Text.insert(Text.begin() + Pos, NewC);

    PrefixOracle::State S = O.start();
    size_t Died = Text.size();
    for (size_t B = 0; B < Text.size(); ++B) {
      if (!O.advance(S, std::string_view(&Text[B], 1))) {
        Died = B + 1;
        break;
      }
    }
    if (Died == Text.size())
      continue; // mutation survived (or is genuinely still extendable)
    ++Rejections;
    std::string Prefix = Text.substr(0, Died);
    EXPECT_FALSE(parsesPartial(Prefix))
        << "oracle rejected but the prefix parses: <<<" << Prefix << ">>>";
    for (const std::string &Tok : continuationTokens()) {
      EXPECT_FALSE(parsesPartial(Prefix + " " + Tok))
          << "oracle rejected but prefix + '" << Tok << "' parses: <<<"
          << Prefix << ">>>";
      if (HasFailure())
        return;
    }
  }
  // The mutation distribution must actually exercise the reject path.
  EXPECT_GE(Rejections, 40) << "mutation campaign too weak to test anything";
}

//===----------------------------------------------------------------------===//
// Snapshot / advance / rollback state property
//===----------------------------------------------------------------------===//

TEST(PrefixOracle, SnapshotRollbackBitIdenticalToReplay) {
  // Beams snapshot oracle cursors, advance them speculatively, get
  // reordered, and die; survivors must be indistinguishable from a
  // cursor that only ever saw the surviving byte sequence. Random
  // interleavings of advance/snapshot/rollback against a from-scratch
  // replay of the surviving bytes.
  PrefixOracle O;
  SplitMix64 Rng(2024);
  for (int Round = 0; Round < 200; ++Round) {
    dataset::Sample Smp = dataset::generateSample(
        Rng, dataset::Suite::Synth,
        dataset::synthCategories()[Round %
                                   dataset::synthCategories().size()]);
    const std::string &Text = Smp.FunctionSource;
    PrefixOracle::State Cur = O.start();
    std::vector<PrefixOracle::State> Snaps;
    std::vector<size_t> SnapPos;
    std::string Survived;
    size_t Pos = 0;
    int Ops = 0;
    while (Pos < Text.size() && Ops++ < 300) {
      uint64_t R = Rng.next() % 10;
      if (R < 6) { // advance a random chunk
        size_t Len = std::min<size_t>(1 + Rng.next() % 5, Text.size() - Pos);
        O.advance(Cur, std::string_view(Text.data() + Pos, Len));
        Survived.append(Text, Pos, Len);
        Pos += Len;
      } else if (R < 8) { // snapshot (beam fork)
        Snaps.push_back(Cur);
        SnapPos.push_back(Pos);
      } else if (!Snaps.empty()) { // rollback (beam death / reorder)
        Cur = Snaps.back();
        Pos = SnapPos.back();
        Survived.resize(Pos);
        Snaps.pop_back();
        SnapPos.pop_back();
      }
    }
    PrefixOracle::State Fresh = O.start();
    O.advance(Fresh, Survived);
    ASSERT_EQ(0, std::memcmp(&Cur, &Fresh, sizeof(PrefixOracle::State)))
        << "state after snapshot/rollback diverges from scratch replay at "
        << "round " << Round << " (survived " << Survived.size()
        << " bytes)";
  }
}

TEST(PrefixOracle, TerminalMaskMatchesStepOutcome) {
  // terminalMask() must agree bit-for-bit with what feeding each token
  // spelling actually does at a clean boundary.
  PrefixOracle O;
  SplitMix64 Rng(99);
  const struct {
    const char *Spelling;
    int Term;
  } Probe[] = {
      {"x", PrefixOracle::T_Ident},      {"1", PrefixOracle::T_IntLit},
      {"int", PrefixOracle::T_KwType},   {"const", PrefixOracle::T_KwQual},
      {"struct", PrefixOracle::T_KwStruct}, {"(", PrefixOracle::T_LParen},
      {")", PrefixOracle::T_RParen},     {"{", PrefixOracle::T_LBrace},
      {"}", PrefixOracle::T_RBrace},     {";", PrefixOracle::T_Semi},
      {",", PrefixOracle::T_Comma},      {"*", PrefixOracle::T_Star},
      {"=", PrefixOracle::T_Assign},     {"+=", PrefixOracle::T_OpAssign},
      {"==", PrefixOracle::T_BinOp},     {"?", PrefixOracle::T_Question},
      {"return", PrefixOracle::T_KwReturn},
  };
  for (int I = 0; I < 30; ++I) {
    dataset::Sample Smp =
        dataset::generateSample(Rng, dataset::Suite::ExeBench, "");
    const std::string &Text = Smp.FunctionSource;
    PrefixOracle::State S = O.start();
    for (size_t B = 0; B < Text.size() && !S.Dead; ++B) {
      O.advance(S, std::string_view(&Text[B], 1));
      if (Rng.next() % 23 != 0)
        continue;
      PrefixOracle::State Bnd = O.boundary(S);
      if (Bnd.Dead)
        continue;
      uint64_t Mask = O.terminalMask(Bnd);
      for (const auto &P : Probe) {
        PrefixOracle::State Probe1 = Bnd;
        // A leading space forces a boundary, then the spelling, then a
        // trailing space resolves it.
        bool Accepted = O.advance(Probe1, std::string(" ") + P.Spelling +
                                              " ");
        bool MaskSays = (Mask >> P.Term) & 1;
        EXPECT_EQ(Accepted, MaskSays)
            << "mask disagrees with stepping '" << P.Spelling
            << "' after: <<<" << Text.substr(0, B + 1) << ">>>";
        if (HasFailure())
          return;
      }
    }
  }
}

TEST(PrefixOracle, StaticTables) {
  using POx = PrefixOracle;
  EXPECT_EQ(POx::keywordTerm("int"), POx::T_KwType);
  EXPECT_EQ(POx::keywordTerm("__restrict"), POx::T_KwQual);
  EXPECT_EQ(POx::keywordTerm("union"), -1);
  EXPECT_EQ(POx::keywordTerm("switch"), -1);
  EXPECT_EQ(POx::keywordTerm("notakeyword"), POx::T_Ident);
  // "un" extends to unsigned (accepted) and union (rejected): only the
  // accepted bit shows up.
  EXPECT_EQ(POx::keywordPrefixBits("un"), POx::bit(POx::T_KwType));
  EXPECT_EQ(POx::keywordPrefixBits("zz"), 0u);
  EXPECT_NE(POx::keywordPrefixBits("re") & POx::bit(POx::T_KwReturn), 0u);
  EXPECT_NE(POx::keywordPrefixBits("re") & POx::bit(POx::T_KwQual), 0u);

  EXPECT_EQ(POx::punctTerm("+"), POx::T_Plus);
  EXPECT_EQ(POx::punctTerm("<<="), POx::T_OpAssign);
  EXPECT_EQ(POx::punctTerm("..."), -1);
  EXPECT_EQ(POx::punctTerm("@"), -1);
  EXPECT_TRUE(POx::punctExtends("<", '<'));
  EXPECT_TRUE(POx::punctExtends("<<", '='));
  EXPECT_FALSE(POx::punctExtends("<<=", '='));
  EXPECT_TRUE(POx::punctExtends("..", '.'));
  // "<" can end up as <, <<, <= (BinOp) or <<= (OpAssign).
  EXPECT_EQ(POx::punctPrefixBits("<"),
            POx::bit(POx::T_BinOp) | POx::bit(POx::T_OpAssign));
  // ".." can only become "..." (never accepted) or flush as two dots —
  // the chain itself carries no reachable complete punctuator.
  EXPECT_EQ(POx::punctPrefixBits(".."), 0u);
}

TEST(PrefixOracle, HandLexerEdgeCases) {
  // Numeric/lexical corners mirrored from cc::Lexer: each source must
  // be accepted end-to-end iff the real frontend parses it.
  PrefixOracle O;
  const std::pair<const char *, bool> Cases[] = {
      {"int f() { return 1.; }", true},      // "1." is a float literal
      {"int f() { return 1e; }", true},      // empty exponent lexes
      {"int f() { return 0x; }", true},      // "0x" lexes as 0
      {"int f() { return .5f; }", true},     // ".5" starts a number
      {"int f() { return 0x1fUL; }", true},
      {"int f() { return 1..2; }", false},   // float then member-dot
      {"int f() { return 'ab'; }", false},   // unterminated char value
      {"int f() { return '''; }", true},     // quote is the char value
      {"int f() { return \"a\\\"b\"; }", true},
      {"int f() { return a..b; }", false},   // dot-dot never parses
      {"int f() { return a...b; }", false},  // "..." never parses
      {"int f() { int x = 1 /* c */ + 2; return x; }", true},
      {"int f() { // c\n return 0; }", true},
      {"#define X 1\nint f() { return 0; }", true}, // '#' line skipped
      {"int f() { return $; }", false},      // unknown char
      {"int f(float x) { return x <<= 2; }", true},
      {"int f() { union u; }", false},       // rejected keyword
      {"int f() { goto l; }", false},
  };
  for (const auto &[Src, Valid] : Cases) {
    ASSERT_EQ(parsesPartial(Src), Valid) << Src;
    PrefixOracle::State S = O.start();
    bool Alive = O.advance(S, Src) && O.acceptsEnd(S);
    if (Valid)
      EXPECT_TRUE(Alive) << "oracle rejected parseable: " << Src;
    // (When !Valid the oracle MAY accept: it is an over-approximation.
    // The usefulness direction is covered by the mutation test.)
  }
}

TEST(PrefixOracle, GenerousDegradationOnDeepNesting) {
  // Frames are bounded; past the bound the oracle flips to Generous and
  // accepts everything rather than mis-rejecting a valid deep program.
  PrefixOracle O;
  std::string Deep = "int f() { return ";
  for (int I = 0; I < 80; ++I)
    Deep += "(1 + ";
  PrefixOracle::State S = O.start();
  EXPECT_TRUE(O.advance(S, Deep));
  EXPECT_TRUE(S.Generous);
  EXPECT_TRUE(O.acceptsEnd(S)); // generous states refuse nothing
  EXPECT_TRUE(O.advance(S, ") ] } while"));
}

TEST(PrefixOracle, StateKeyCoversExactlyTheLiveFields) {
  // The mask cache's key: equal for states whose live fields agree
  // (whatever the cached terminal mask or the stale bytes past SP and
  // BufLen hold), different as soon as any live field differs.
  PrefixOracle O;
  PrefixOracle::State S = O.start();
  ASSERT_TRUE(O.advance(S, "int f(int a) { while (a) { return sizeo"));
  ASSERT_GE(S.SP, 3);
  ASSERT_LT(S.SP, PrefixOracle::MaxFrames);
  ASSERT_GT(S.BufLen, 0);
  ASSERT_LT(static_cast<size_t>(S.BufLen), sizeof(S.Buf));
  std::string Key, Other;
  PrefixOracle::stateKey(S, Key);
  auto KeyOf = [&](const PrefixOracle::State &T) {
    PrefixOracle::stateKey(T, Other);
    return Other;
  };

  PrefixOracle::State Same = S;
  O.terminalMask(Same); // Fills CachedMask / MaskValid.
  Same.MaskValid ^= 1;
  Same.CachedMask ^= 0x5a5a;
  Same.Stack[Same.SP].Kind ^= 0x11;
  Same.Stack[PrefixOracle::MaxFrames - 1].F1 ^= 0x22;
  Same.Buf[Same.BufLen] ^= 0x33;
  Same.Buf[sizeof(Same.Buf) - 1] ^= 0x44;
  EXPECT_EQ(KeyOf(Same), Key) << "non-live bytes must not enter the key";

  std::vector<std::pair<std::string, PrefixOracle::State>> Variants;
  auto Vary = [&](const std::string &What,
                  const std::function<void(PrefixOracle::State &)> &Fn) {
    PrefixOracle::State T = S;
    Fn(T);
    Variants.push_back({What, T});
  };
  Vary("SP-1", [](PrefixOracle::State &T) { --T.SP; });
  Vary("SP+1", [](PrefixOracle::State &T) { ++T.SP; });
  for (int I = 0; I < S.SP; ++I) {
    std::string F = "Stack[" + std::to_string(I) + "].";
    Vary(F + "Kind", [I](PrefixOracle::State &T) { T.Stack[I].Kind ^= 1; });
    Vary(F + "St", [I](PrefixOracle::State &T) { T.Stack[I].St ^= 1; });
    Vary(F + "F0", [I](PrefixOracle::State &T) { T.Stack[I].F0 ^= 1; });
    Vary(F + "F1", [I](PrefixOracle::State &T) { T.Stack[I].F1 ^= 1; });
  }
  Vary("Dead", [](PrefixOracle::State &T) { T.Dead ^= 1; });
  Vary("Generous", [](PrefixOracle::State &T) { T.Generous ^= 1; });
  Vary("Lex", [](PrefixOracle::State &T) { T.Lex ^= 1; });
  Vary("NumSt", [](PrefixOracle::State &T) { T.NumSt ^= 1; });
  Vary("WordViaIdent", [](PrefixOracle::State &T) { T.WordViaIdent ^= 1; });
  Vary("BufLen-1", [](PrefixOracle::State &T) { --T.BufLen; });
  Vary("BufLen+1", [](PrefixOracle::State &T) { ++T.BufLen; });
  for (int I = 0; I < S.BufLen; ++I)
    Vary("Buf[" + std::to_string(I) + "]",
         [I](PrefixOracle::State &T) { T.Buf[I] ^= 1; });
  std::set<std::string> Keys{Key};
  for (const auto &V : Variants) {
    EXPECT_NE(KeyOf(V.second), Key) << V.first;
    Keys.insert(KeyOf(V.second));
  }
  EXPECT_EQ(Keys.size(), Variants.size() + 1)
      << "every variant gets its own key";
}

//===----------------------------------------------------------------------===//
// Decode integration: --constrain wiring through beam search and serving
//===----------------------------------------------------------------------===//

TEST(Constrain, AllowedLogSoftmaxMatchesMaterializedMask) {
  // Constrained selection takes the log-softmax and top-k over the
  // allowed ids only. Both must equal logSoftmax + topK over the row with
  // masked entries set to -1e30f, bit for bit (top-k: the allowed members
  // of the full top-k, in order), at every mask density and at row widths
  // covering every tail of the 4-wide exp. A row whose allowed logits do
  // not all rank above the masked ones must be refused.
  const int K = 5;
  SplitMix64 Rng(7);
  std::vector<float> Logits, Masked, Want, Got;
  std::vector<uint8_t> Allowed;
  std::vector<uint16_t> Ids;
  std::vector<std::pair<float, int>> Heap;
  std::vector<int> WantTop, GotTop;
  for (int V : {1, 3, 4, 5, 8, 97, 512}) {
    Logits.assign(V, 0.0f);
    Masked.assign(V, 0.0f);
    Got.assign(V, 0.0f);
    Allowed.assign(V, 0);
    // Density: one allowed id, then about 3%, 50% and 100% of the row.
    for (int Density : {0, 3, 50, 100}) {
      for (int Trial = 0; Trial < 20; ++Trial) {
        Ids.clear();
        for (int I = 0; I < V; ++I) {
          Logits[I] = static_cast<float>(Rng.normal()) * 4.0f;
          Allowed[I] = Density == 0
                           ? I == Trial % V
                           : static_cast<int>(Rng.below(100)) < Density;
          if (Allowed[I])
            Ids.push_back(static_cast<uint16_t>(I));
          Masked[I] = Allowed[I] ? Logits[I] : -1e30f;
        }
        if (Ids.empty())
          continue;
        std::string Tag = "V " + std::to_string(V) + " density " +
                          std::to_string(Density) + " trial " +
                          std::to_string(Trial);
        nn::beamcore::logSoftmax(Masked.data(), V, Want);
        ASSERT_TRUE(
            nn::beamcore::logSoftmaxAllowed(Logits.data(), Ids, Got))
            << Tag;
        for (uint16_t I : Ids)
          ASSERT_EQ(0, std::memcmp(&Got[I], &Want[I], sizeof(float)))
              << Tag << " id " << I;
        nn::beamcore::topK(Want, K, Heap, WantTop);
        WantTop.erase(std::remove_if(WantTop.begin(), WantTop.end(),
                                     [&](int Tok) { return !Allowed[Tok]; }),
                      WantTop.end());
        nn::beamcore::topKOf(
            Got, static_cast<int>(Ids.size()),
            [&](int C) { return static_cast<int>(Ids[C]); }, K, Heap,
            GotTop);
        EXPECT_EQ(GotTop, WantTop) << Tag;
      }
    }
  }
  Logits.assign(97, 0.0f);
  Ids = {3, 8};
  Logits[3] = 1.0f;
  Logits[8] = -2e30f; // Allowed, yet ranks below the masked entries.
  EXPECT_FALSE(nn::beamcore::logSoftmaxAllowed(Logits.data(), Ids, Got));
  Logits[3] = -1e30f; // No allowed logit above the mask value.
  EXPECT_FALSE(nn::beamcore::logSoftmaxAllowed(Logits.data(), Ids, Got));
}

namespace {

/// The shared cache's mask equals a direct allowedTokens call: the same
/// allowed bytes and count, and Ids lists exactly the allowed ids,
/// ascending.
void expectMaskMatchesDirect(const tok::VocabConstraint &VC,
                             const cc::PrefixOracle::State &S,
                             const tok::VocabConstraint::Mask &M,
                             const std::string &Where) {
  std::vector<uint8_t> Direct;
  int N = VC.allowedTokens(S, Direct);
  ASSERT_EQ(M.Allowed, Direct) << Where;
  ASSERT_EQ(M.Masked, N) << Where;
  std::vector<uint16_t> Ids;
  for (size_t I = 0; I < Direct.size(); ++I)
    if (Direct[I])
      Ids.push_back(static_cast<uint16_t>(I));
  ASSERT_EQ(M.Ids, Ids) << Where;
}

} // namespace

TEST(Constrain, MaskCacheMatchesDirectMaskAtEveryBeamStep) {
  // Every constrained decode of a vocabulary shares one mask cache. Drive
  // a beam search by hand over a fixed decode set and, at every beam
  // step, check the cached mask the step used against a direct
  // allowedTokens call; the constraint counters must count exactly what
  // the direct calls count, and the hypotheses must be beamSearch's. A
  // second pass over the same decodes must find every mask cached.
  testutil::DecompilerFixture F(4);
  ASSERT_GE(F.Tasks.size(), 2u) << "demo corpus unexpectedly rejected";
  const nn::Transformer &Model = F.Slade->model();
  const tok::VocabConstraint &VC = F.Slade->vocabConstraint();
  const int V = Model.config().Vocab;
  const size_t CachedBefore = VC.cachedMasks();

  struct Decode {
    std::shared_ptr<const nn::Transformer::EncoderCache> Enc;
    std::vector<nn::Hypothesis> Hyps;
    uint64_t Masked = 0, Killed = 0;
  };
  std::vector<Decode> Decodes;
  nn::BeamConfig BC;
  BC.BeamSize = 5;
  BC.MaxLen = 48;
  BC.Constraint = &VC;
  size_t BeamSteps = 0;
  tok::VocabConstraint::MaskScratch Lookup;
  for (const core::EvalTask &T : F.Tasks) {
    nn::ConstraintStats Stats;
    BC.Stats = &Stats;
    Decode D;
    D.Enc =
        F.Slade->encodeCached(F.Slade->tokenizer().encode(T.Prog.TargetAsm));

    nn::Transformer::BatchDecodeState St =
        Model.startDecodeStream(1, BC.BeamSize, BC.MaxLen + 1);
    Model.admitStreamRow(St, 0, D.Enc);
    std::vector<float> Logits =
        Model.stepDecodeBatch(St, {nn::Transformer::BosId});
    std::vector<nn::beamcore::BeamMeta> Live(1);
    std::vector<nn::Hypothesis> Done;
    nn::beamcore::SelectScratch Scratch;
    nn::beamcore::ConstraintCtx CC;
    CC.init(BC);
    for (int It = 0; It < BC.MaxLen && !Live.empty(); ++It) {
      std::vector<cc::PrefixOracle::State> Before = CC.States;
      nn::beamcore::SelectResult R = nn::beamcore::selectBeamStep(
          Live, Done,
          [&](size_t BI) { return Logits.data() + BI * V; }, V, BC,
          Scratch, &CC);
      std::string Where = T.Name + " step " + std::to_string(It);
      for (const cc::PrefixOracle::State &S : Before) {
        const tok::VocabConstraint::Mask &Used = VC.mask(S, Lookup);
        ASSERT_NE(&Used, &Lookup.Own) << Where << ": mask not cached";
        ASSERT_NO_FATAL_FAILURE(expectMaskMatchesDirect(VC, S, Used, Where));
        D.Masked += static_cast<uint64_t>(Used.Masked);
        D.Killed += Used.Masked >= V;
        ++BeamSteps;
      }
      if (R.StopNow)
        break;
      if (!Live.empty()) {
        Model.reorderBeams(St, R.SrcIdx);
        Logits = Model.stepDecodeBatch(St, R.Tokens);
      }
    }
    EXPECT_EQ(Stats.TokensMasked, D.Masked) << T.Name;
    EXPECT_EQ(Stats.BeamsKilled, D.Killed) << T.Name;
    D.Hyps = nn::beamcore::finalizeBeams(std::move(Live), std::move(Done),
                                         BC, &CC);
    Decodes.push_back(std::move(D));
  }
  const size_t Cached = VC.cachedMasks() - CachedBefore;
  EXPECT_GT(BeamSteps, 100u);
  EXPECT_LT(Cached, BeamSteps) << "no beam step reused a mask";

  for (size_t I = 0; I < Decodes.size(); ++I) {
    const Decode &D = Decodes[I];
    nn::ConstraintStats SearchStats;
    BC.Stats = &SearchStats;
    std::vector<nn::Hypothesis> Search = nn::beamSearch(Model, D.Enc, BC);
    ASSERT_EQ(D.Hyps.size(), Search.size()) << F.Tasks[I].Name;
    for (size_t H = 0; H < D.Hyps.size(); ++H) {
      EXPECT_EQ(D.Hyps[H].Tokens, Search[H].Tokens) << F.Tasks[I].Name;
      EXPECT_EQ(D.Hyps[H].Score, Search[H].Score) << F.Tasks[I].Name;
    }
    EXPECT_EQ(SearchStats.TokensMasked, D.Masked) << F.Tasks[I].Name;
    EXPECT_EQ(SearchStats.BeamsKilled, D.Killed) << F.Tasks[I].Name;
  }
  EXPECT_EQ(VC.cachedMasks() - CachedBefore, Cached)
      << "a second pass over the same decodes added a mask";
}

TEST(Constrain, MaskCachePastBoundMatchesAllowedTokens) {
  // Random piece sequences through the oracle fill a fresh cache to its
  // bound. Every mask, cached or computed past the bound into the
  // caller's scratch, must equal allowedTokens, and the cache must stop
  // growing at MaskCacheCap.
  testutil::DecompilerFixture F(1);
  tok::VocabConstraint VC(F.Slade->tokenizer());
  tok::VocabConstraint::MaskScratch Lookup;
  SplitMix64 Rng(4096);
  cc::PrefixOracle::State S = VC.start();
  size_t Walk = 0, PastBound = 0;
  for (size_t Step = 0; Step < 400000 && PastBound < 500; ++Step) {
    const tok::VocabConstraint::Mask &M = VC.mask(S, Lookup);
    if (&M == &Lookup.Own) {
      ASSERT_EQ(VC.cachedMasks(), tok::VocabConstraint::MaskCacheCap)
          << "a mask went uncached below the bound";
      ++PastBound;
    }
    ASSERT_NO_FATAL_FAILURE(
        expectMaskMatchesDirect(VC, S, M, "step " + std::to_string(Step)));
    if (M.Ids.empty() || ++Walk == 80) {
      S = VC.start(); // Dead end or long enough: start a new sequence.
      Walk = 0;
      continue;
    }
    VC.advanceToken(S, M.Ids[Rng.below(M.Ids.size())]);
  }
  EXPECT_EQ(VC.cachedMasks(), tok::VocabConstraint::MaskCacheCap);
  EXPECT_EQ(PastBound, 500u) << "the walk never went past the bound";
}

TEST(Constrain, ConcurrentSearchesShareOneMaskCache) {
  // Four threads run constrained searches over one task set against one
  // fresh VocabConstraint, so they miss and insert the same states
  // concurrently. Every result must equal the single-thread search's,
  // tokens and scores.
  testutil::DecompilerFixture F(6);
  ASSERT_GE(F.Tasks.size(), 3u) << "demo corpus unexpectedly rejected";
  const nn::Transformer &Model = F.Slade->model();
  std::vector<std::shared_ptr<const nn::Transformer::EncoderCache>> Encs;
  for (const core::EvalTask &T : F.Tasks)
    Encs.push_back(
        F.Slade->encodeCached(F.Slade->tokenizer().encode(T.Prog.TargetAsm)));
  nn::BeamConfig BC;
  BC.BeamSize = 5;
  BC.MaxLen = 48;

  tok::VocabConstraint Shared(F.Slade->tokenizer());
  BC.Constraint = &Shared;
  const size_t Threads = 4;
  std::vector<std::vector<std::vector<nn::Hypothesis>>> Got(
      Threads, std::vector<std::vector<nn::Hypothesis>>(Encs.size()));
  std::vector<std::thread> Pool;
  for (size_t T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      // Each thread starts at another task, so misses overlap.
      for (size_t K = 0; K < Encs.size(); ++K) {
        size_t I = (K + T) % Encs.size();
        Got[T][I] = nn::beamSearch(Model, Encs[I], BC);
      }
    });
  for (std::thread &Th : Pool)
    Th.join();
  EXPECT_GT(Shared.cachedMasks(), 0u);

  BC.Constraint = &F.Slade->vocabConstraint();
  for (size_t I = 0; I < Encs.size(); ++I) {
    std::vector<nn::Hypothesis> Want = nn::beamSearch(Model, Encs[I], BC);
    for (size_t T = 0; T < Threads; ++T) {
      ASSERT_EQ(Got[T][I].size(), Want.size())
          << F.Tasks[I].Name << " thread " << T;
      for (size_t H = 0; H < Want.size(); ++H) {
        EXPECT_EQ(Got[T][I][H].Tokens, Want[H].Tokens)
            << F.Tasks[I].Name << " thread " << T;
        EXPECT_EQ(Got[T][I][H].Score, Want[H].Score)
            << F.Tasks[I].Name << " thread " << T;
      }
    }
  }
}

TEST(Constrain, OffModeByteIdenticalAcrossDriversAndShards) {
  // The regression pin for the constraint plumbing: with the constraint
  // off (the default, a nullptr in BeamConfig), sequential
  // Decompiler::decompile and the sharded streaming engine at every
  // shard count must produce byte-identical outputs, exactly as before
  // the constraint plumbing existed.
  testutil::DecompilerFixture F(5);
  ASSERT_GE(F.Tasks.size(), 2u) << "demo corpus unexpectedly rejected";

  core::Decompiler::Options DOpts;
  DOpts.BeamSize = 3;
  DOpts.MaxLen = 48;
  DOpts.VerifyThreads = 1;
  std::vector<core::HypothesisOutcome> Seq;
  for (const core::EvalTask &T : F.Tasks)
    Seq.push_back(F.Slade->decompile(T, DOpts));

  for (int Shards : {1, 2, 4}) {
    serve::EngineOptions EO;
    EO.BeamSize = 3;
    EO.MaxLen = 48;
    EO.VerifyThreads = 2;
    EO.Shards = Shards;
    EO.Constrain = nn::ConstrainMode::Off;
    // Every shard count must decode for itself, not replay the cache.
    EO.UseDecodeCache = false;
    serve::Engine Eng(*F.Slade, EO);
    std::vector<serve::Handle> Futs;
    for (const core::EvalTask &T : F.Tasks)
      Futs.push_back(Eng.submit({T.Name, "", {}, {}, &T}));
    for (size_t I = 0; I < Seq.size(); ++I) {
      serve::RequestResult R = Futs[I].get();
      ASSERT_TRUE(R.Verified) << Shards << " shards, job " << I;
      testutil::expectSameOutcome(R.Outcome, Seq[I], I);
    }
    // Off mode never touches the oracle: the counters must stay zero.
    serve::EngineMetrics M = Eng.metrics();
    EXPECT_EQ(M.TokensMasked, 0u) << Shards << " shards";
    EXPECT_EQ(M.BeamsKilled, 0u) << Shards << " shards";
    EXPECT_EQ(M.OracleSeconds, 0.0) << Shards << " shards";
  }
}

TEST(Constrain, SyntaxModeEveryCandidateParses) {
  // The acceptance gate, as a unit test: under --constrain=syntax no
  // candidate that would reach IO-verification may be rejected by the
  // real frontend. A lightly-trained model (enough steps to learn to
  // close a function and emit EOS, nowhere near convergence) is the
  // hardest practical input: output is mostly noise, so nearly every
  // step has tokens to mask, yet beams can still finish.
  dataset::Corpus Corpus =
      dataset::buildCorpus(dataset::Suite::ExeBench, 8, 5, /*Seed=*/99);
  std::vector<core::EvalTask> Tasks = core::buildTasks(
      Corpus.Test, asmx::Dialect::X86, /*Optimize=*/false);
  ASSERT_GE(Tasks.size(), 2u) << "demo corpus unexpectedly rejected";
  core::TrainConfig TC;
  TC.Steps = 60;
  TC.VocabSize = 200;
  TC.DModel = 32;
  TC.NHeads = 2;
  TC.FF = 48;
  TC.EncLayers = 1;
  TC.DecLayers = 1;
  TC.Verbose = false;
  core::TrainedSystem Sys = core::trainSystem(
      core::buildTrainPairs(Corpus.Train, asmx::Dialect::X86,
                            /*Optimize=*/false),
      TC);
  core::Decompiler Slade(std::move(Sys.Tok), std::move(Sys.Model));

  nn::ConstraintStats Stats;
  nn::BeamConfig BC;
  BC.BeamSize = 3;
  BC.MaxLen = 160;
  BC.Constraint = &Slade.vocabConstraint();
  BC.Stats = &Stats;
  size_t Candidates = 0;
  for (const core::EvalTask &T : Tasks) {
    std::vector<int> Src = Slade.tokenizer().encode(T.Prog.TargetAsm);
    std::vector<nn::Hypothesis> Hyps =
        nn::beamSearch(Slade.model(), Slade.encodeCached(Src), BC);
    for (const nn::Hypothesis &H : Hyps) {
      std::string C = Slade.tokenizer().decode(H.Tokens);
      ++Candidates;
      EXPECT_TRUE(parsesPartial(C))
          << T.Name << ": constrained candidate does not parse:\n" << C;
    }
  }
  // A noisy model must have had tokens masked away; a zero here means
  // the constraint never engaged and the test proved nothing.
  EXPECT_GT(Stats.TokensMasked, 0u);
  EXPECT_GT(Stats.OracleSeconds, 0.0);
  EXPECT_GT(Candidates, 0u) << "constrained decode produced nothing";
}

TEST(Constrain, SyntaxModeServingSelectionsParse) {
  // Same gate through the serving stack: sharded engine -> constrained
  // BeamCore -> pooled verification. Selected hypotheses must parse,
  // and the constraint counters must surface through EngineMetrics.
  testutil::DecompilerFixture F(4);
  ASSERT_GE(F.Tasks.size(), 2u) << "demo corpus unexpectedly rejected";

  serve::EngineOptions EO;
  EO.BeamSize = 3;
  EO.MaxLen = 48;
  EO.VerifyThreads = 2;
  EO.Shards = 2;
  EO.Constrain = nn::ConstrainMode::Syntax;
  serve::Engine Eng(*F.Slade, EO);
  std::vector<serve::Handle> Futs;
  for (const core::EvalTask &T : F.Tasks)
    Futs.push_back(Eng.submit({T.Name, "", {}, {}, &T}));
  for (size_t I = 0; I < Futs.size(); ++I) {
    serve::RequestResult R = Futs[I].get();
    ASSERT_TRUE(R.Verified) << F.Tasks[I].Name;
    if (!R.Outcome.Produced)
      continue;
    EXPECT_TRUE(parsesPartial(R.Outcome.CSource))
        << F.Tasks[I].Name << ": served constrained selection does not "
        << "parse:\n" << R.Outcome.CSource;
  }
  EXPECT_GT(Eng.metrics().TokensMasked, 0u);
}

TEST(Constrain, MaskNeverBlocksAParseableProgramsPath) {
  // Completeness of every allowedTokens fast path: walking the token
  // sequence of a program known to parse, the TRUE next token must
  // never be masked, and at the end EOS must be allowed. If this holds
  // for arbitrary parseable programs, constrained decoding can always
  // reach every valid output — a mask bug in any fast path (boundary
  // bits, word continuation, keyword midfix, generic-first-terminal)
  // would block some real sequence and fail here.
  //
  // Note the mask may legitimately be TIGHTER than copy-state-and-
  // advance: advanceToken keeps an unresolved lexeme tail alive ("!"
  // pends as a punct chain) while the mask already proves it doomed.
  testutil::DecompilerFixture F(4);
  ASSERT_GE(F.Tasks.size(), 1u) << "demo corpus unexpectedly rejected";
  const tok::Tokenizer &Tok = F.Slade->tokenizer();
  const tok::VocabConstraint &VC = F.Slade->vocabConstraint();

  SplitMix64 Rng(20240808);
  std::vector<uint8_t> Allowed;
  size_t StatesChecked = 0;
  for (int Round = 0; Round < 60 && !HasFailure(); ++Round) {
    dataset::Sample Smp = dataset::generateSample(
        Rng, dataset::Suite::Synth, dataset::synthCategories()
            [Round % dataset::synthCategories().size()]);
    std::vector<int> Ids = Tok.encode(Smp.FunctionSource);
    cc::PrefixOracle::State S = VC.start();
    std::string Fed;
    bool Alive = true;
    for (int Id : Ids) {
      VC.allowedTokens(S, Allowed);
      ++StatesChecked;
      ASSERT_LT(static_cast<size_t>(Id), Allowed.size());
      EXPECT_TRUE(Allowed[static_cast<size_t>(Id)])
          << "true next piece " << Id << " [" << VC.pieceText(Id)
          << "] masked after <<<" << Fed << ">>>";
      Fed += VC.pieceText(Id);
      if (!VC.advanceToken(S, Id)) {
        ADD_FAILURE() << "oracle died on parseable program at <<<" << Fed
                      << ">>>";
        Alive = false;
        break;
      }
    }
    if (Alive) {
      VC.allowedTokens(S, Allowed);
      EXPECT_TRUE(Allowed[tok::Tokenizer::EosId])
          << "EOS masked after complete function:\n"
          << Smp.FunctionSource;
    }
  }
  EXPECT_GT(StatesChecked, 1000u);
}
