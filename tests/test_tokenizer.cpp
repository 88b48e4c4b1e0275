//===- test_tokenizer.cpp - UnigramLM tokenizer tests -------------------------===//

#include "core/Trainer.h"
#include "dataset/Generator.h"
#include "support/RNG.h"
#include "tok/Tokenizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <unordered_map>

using namespace slade;
using namespace slade::tok;

namespace {

TEST(PreTokenize, SplitsDigitsIndividually) {
  // §IV: 512 -> [5, 1, 2].
  auto Atoms = preTokenize("512");
  ASSERT_EQ(Atoms.size(), 3u);
  EXPECT_EQ(Atoms[0], "5");
  EXPECT_EQ(Atoms[1], "1");
  EXPECT_EQ(Atoms[2], "2");
}

TEST(PreTokenize, SplitsPunctuation) {
  auto Atoms = preTokenize("a+=b;");
  ASSERT_EQ(Atoms.size(), 5u);
  EXPECT_EQ(Atoms[0], "a");
  EXPECT_EQ(Atoms[1], "+");
  EXPECT_EQ(Atoms[2], "=");
  EXPECT_EQ(Atoms[3], "b");
  EXPECT_EQ(Atoms[4], ";");
}

TEST(PreTokenize, MarksSpacesWithMetaspace) {
  auto Atoms = preTokenize("int x");
  ASSERT_EQ(Atoms.size(), 2u);
  EXPECT_EQ(Atoms[0], "int");
  EXPECT_EQ(Atoms[1], std::string(metaspace()) + "x");
}

TEST(PreTokenize, DotsStayWithLabels) {
  auto Atoms = preTokenize(".L4:");
  ASSERT_EQ(Atoms.size(), 2u);
  EXPECT_EQ(Atoms[0], ".L4");
  EXPECT_EQ(Atoms[1], ":");
}

class TrainedTokenizer : public ::testing::Test {
protected:
  static Tokenizer &tokenizer() {
    static Tokenizer Tok = [] {
      std::vector<std::string> Texts;
      for (int I = 0; I < 40; ++I) {
        Texts.push_back("int sum(int *arr, int n) {\n"
                        "  int total = 0;\n"
                        "  for (int i = 0; i < n; i++) {\n"
                        "    total += arr[i];\n"
                        "  }\n"
                        "  return total;\n}\n");
        Texts.push_back("\tmovl\t%edi, -20(%rbp)\n\taddl\t$5, %eax\n"
                        "\tjmp\t.L2\n");
      }
      Tokenizer::Config Cfg;
      Cfg.VocabSize = 300;
      return Tokenizer::train(Texts, Cfg);
    }();
    return Tok;
  }
};

TEST_F(TrainedTokenizer, RoundTripsC) {
  std::string Src = "int f(int a) { return a + 42; }";
  std::vector<int> Ids = tokenizer().encode(Src);
  EXPECT_FALSE(Ids.empty());
  // Whitespace-normalized round trip.
  EXPECT_EQ(tokenizer().decode(Ids), Src);
}

TEST_F(TrainedTokenizer, RoundTripsAssembly) {
  std::string Asm = "movl %eax, -24(%rbp)";
  EXPECT_EQ(tokenizer().decode(tokenizer().encode(Asm)), Asm);
}

TEST_F(TrainedTokenizer, RoundTripsUnseenIdentifiers) {
  // Character coverage: unseen tokens are built from single characters.
  std::string Src = "zqxj_unseen99(zq)";
  EXPECT_EQ(tokenizer().decode(tokenizer().encode(Src)), Src);
}

TEST_F(TrainedTokenizer, NormalizesWhitespace) {
  EXPECT_EQ(tokenizer().decode(tokenizer().encode("int   \n x")), "int x");
}

TEST_F(TrainedTokenizer, LearnsFrequentSubwords) {
  // "total" appears constantly; it should encode into very few pieces.
  std::vector<int> Ids = tokenizer().encode("total");
  EXPECT_LE(Ids.size(), 2u);
}

TEST_F(TrainedTokenizer, VocabRespectsBudget) {
  EXPECT_LE(tokenizer().vocabSize(), 300u + 4u);
}

TEST_F(TrainedTokenizer, SaveLoadRoundTrip) {
  std::string Path = "/tmp/slade_tok_test.bin";
  ASSERT_TRUE(tokenizer().save(Path).ok());
  auto Loaded = Tokenizer::load(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.errorMessage();
  std::string Src = "int f(int a) { return a * 3; }";
  EXPECT_EQ(Loaded->encode(Src), tokenizer().encode(Src));
}

//===----------------------------------------------------------------------===//
// Reference encoder
//===----------------------------------------------------------------------===//

/// A vocabulary as a .tok file stores it.
struct Vocab {
  std::vector<std::string> Pieces;
  std::vector<float> LogProbs;
};

std::string readBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

/// Parses the .tok format: u64 count, then per piece u32 length, bytes,
/// f32 log prob.
Vocab readVocab(const std::string &Path) {
  std::string B = readBytes(Path);
  Vocab V;
  size_t Off = 0;
  auto take = [&](void *Dst, size_t N) {
    if (Off + N > B.size())
      throw std::runtime_error("truncated " + Path);
    std::memcpy(Dst, B.data() + Off, N);
    Off += N;
  };
  uint64_t N = 0;
  take(&N, sizeof(N));
  for (uint64_t I = 0; I < N; ++I) {
    uint32_t L = 0;
    take(&L, sizeof(L));
    std::string P(L, '\0');
    take(P.data(), L);
    float LP = 0;
    take(&LP, sizeof(LP));
    V.Pieces.push_back(std::move(P));
    V.LogProbs.push_back(LP);
  }
  return V;
}

void writeVocab(const std::string &Path, const Vocab &V) {
  std::ofstream Out(Path, std::ios::binary);
  uint64_t N = V.Pieces.size();
  Out.write(reinterpret_cast<const char *>(&N), sizeof(N));
  for (size_t I = 0; I < V.Pieces.size(); ++I) {
    uint32_t L = static_cast<uint32_t>(V.Pieces[I].size());
    Out.write(reinterpret_cast<const char *>(&L), sizeof(L));
    Out.write(V.Pieces[I].data(), L);
    Out.write(reinterpret_cast<const char *>(&V.LogProbs[I]), sizeof(float));
  }
}

/// The substring-and-hash encoder the trie replaced, kept as the oracle:
/// atoms cut with <cctype>, and for every end position, every start up
/// to 28 bytes before it looked up as a substring in a hash map (a
/// duplicated piece maps to its last id).
class ReferenceEncoder {
public:
  explicit ReferenceEncoder(Vocab V) : V(std::move(V)) {
    for (size_t I = 0; I < this->V.Pieces.size(); ++I)
      PieceIds[this->V.Pieces[I]] = static_cast<int>(I);
  }

  static std::vector<std::string> preTokenize(const std::string &Text) {
    std::vector<std::string> Atoms;
    bool PendingSpace = false;
    size_t I = 0, N = Text.size();
    auto push = [&](std::string Atom) {
      if (PendingSpace)
        Atom = std::string(metaspace()) + Atom;
      PendingSpace = false;
      Atoms.push_back(std::move(Atom));
    };
    while (I < N) {
      unsigned char C = static_cast<unsigned char>(Text[I]);
      if (std::isspace(C)) {
        PendingSpace = true;
        ++I;
        continue;
      }
      if (std::isdigit(C)) {
        push(std::string(1, static_cast<char>(C)));
        ++I;
        continue;
      }
      if (std::isalpha(C) || C == '_' || C == '.') {
        size_t Start = I;
        ++I;
        while (I < N) {
          unsigned char D = static_cast<unsigned char>(Text[I]);
          if (std::isalnum(D) || D == '_')
            ++I;
          else
            break;
        }
        push(Text.substr(Start, I - Start));
        continue;
      }
      push(std::string(1, static_cast<char>(C)));
      ++I;
    }
    return Atoms;
  }

  std::vector<int> encode(const std::string &Text) const {
    std::vector<int> Out;
    for (const std::string &Atom : preTokenize(Text))
      viterbi(Atom, &Out);
    return Out;
  }

private:
  Vocab V;
  std::unordered_map<std::string, int> PieceIds;

  void viterbi(const std::string &Atom, std::vector<int> *Out) const {
    const size_t MaxPieceLen = 24;
    size_t N = Atom.size();
    std::vector<float> Best(N + 1, -1e30f);
    std::vector<int> BackPiece(N + 1, -1);
    std::vector<size_t> BackPos(N + 1, 0);
    Best[0] = 0;
    for (size_t End = 1; End <= N; ++End) {
      size_t MinStart = End > MaxPieceLen + 4 ? End - MaxPieceLen - 4 : 0;
      for (size_t Start = MinStart; Start < End; ++Start) {
        if (Best[Start] <= -1e29f)
          continue;
        auto It = PieceIds.find(Atom.substr(Start, End - Start));
        float Score;
        int Id;
        if (It != PieceIds.end()) {
          Id = It->second;
          Score = Best[Start] + V.LogProbs[static_cast<size_t>(Id)];
        } else if (End - Start == 1) {
          Id = Tokenizer::UnkId;
          Score = Best[Start] - 30.0f;
        } else {
          continue;
        }
        if (Score > Best[End]) {
          Best[End] = Score;
          BackPiece[End] = Id;
          BackPos[End] = Start;
        }
      }
    }
    std::vector<int> Rev;
    for (size_t Pos = N; Pos > 0; Pos = BackPos[Pos])
      Rev.push_back(BackPiece[Pos]);
    Out->insert(Out->end(), Rev.rbegin(), Rev.rend());
  }
};

std::string pinnedTok(const std::string &Name) {
  return SLADE_SOURCE_DIR "/perfbench/weights/" + Name + ".tok";
}

const char *const PinnedNames[] = {"slade_x86_O0", "slade_arm_O3"};

Tokenizer loadOrDie(const std::string &Path) {
  auto Tok = Tokenizer::load(Path);
  if (!Tok)
    throw std::runtime_error(Tok.errorMessage());
  return std::move(*Tok);
}

/// Writes \p V to a scratch file and loads it back.
Tokenizer loadVocab(const Vocab &V, const std::string &Name) {
  std::string Path = testing::TempDir() + Name + ".tok";
  writeVocab(Path, V);
  return loadOrDie(Path);
}

/// slade-train's corpus (2600 ExeBench-style samples, seed 20240101),
/// compiled as the pinned x86 O0 (\p Arm false) or ARM O3 weights saw it.
const std::vector<core::TrainPair> &trainPairs(bool Arm) {
  static const dataset::Corpus Corpus = dataset::buildCorpus(
      dataset::Suite::ExeBench, 2600, 0, /*Seed=*/20240101);
  static const std::vector<core::TrainPair> X86 =
      core::buildTrainPairs(Corpus.Train, asmx::Dialect::X86, false);
  static const std::vector<core::TrainPair> ArmO3 =
      core::buildTrainPairs(Corpus.Train, asmx::Dialect::Arm, true);
  return Arm ? ArmO3 : X86;
}

/// Seeded strings aimed at the encoder's edges: identifiers longer than
/// the 28-byte window (and than the 64-byte stack scratch), bytes >= 0x80,
/// lone and partial metaspace bytes, every whitespace class, NUL, and
/// fully random bytes.
std::vector<std::string> hostileStrings(size_t Count, uint64_t Seed) {
  SplitMix64 Rng(Seed);
  const char *const Words[] = {"movl", "%rbp", ".L4", "ldr", "x0", "int",
                               "return", "total", "_start", "w1", "sp"};
  const char *const Meta[] = {"\xe2", "\x96", "\x81", "\xe2\x96",
                              "\x96\x81", "\xe2\x96\x81", "\xe2\x96\x81x"};
  const char Ident[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
  const char Space[] = " \t\n\v\f\r";
  std::vector<std::string> Out;
  for (size_t S = 0; S < Count; ++S) {
    std::string T;
    if (S % 8 == 7) {
      // Fully random bytes.
      size_t Len = Rng.below(200);
      for (size_t I = 0; I < Len; ++I)
        T += static_cast<char>(Rng.below(256));
      Out.push_back(std::move(T));
      continue;
    }
    size_t Frags = 1 + Rng.below(40);
    for (size_t F = 0; F < Frags; ++F) {
      switch (Rng.below(8)) {
      case 0: { // A long identifier, sometimes past the stack scratch.
        size_t Len = 29 + Rng.below(70);
        T += Rng.below(2) ? '_' : 'q';
        for (size_t I = 1; I < Len; ++I)
          T += Ident[Rng.below(sizeof(Ident) - 1)];
        break;
      }
      case 1:
        for (size_t I = 0, N = 1 + Rng.below(4); I < N; ++I)
          T += static_cast<char>(0x80 + Rng.below(128));
        break;
      case 2:
        T += Meta[Rng.below(std::size(Meta))];
        break;
      case 3:
        for (size_t I = 0, N = 1 + Rng.below(4); I < N; ++I)
          T += Space[Rng.below(sizeof(Space) - 1)];
        break;
      case 4:
        T += Words[Rng.below(std::size(Words))];
        break;
      case 5:
        T += static_cast<char>('0' + Rng.below(10));
        break;
      case 6:
        T += static_cast<char>(Rng.below(128)); // NUL and controls too.
        break;
      default:
        T += "(,)[]{}+-*/%$#:;.!"[Rng.below(18)];
        break;
      }
    }
    Out.push_back(std::move(T));
  }
  return Out;
}

/// encode equals the reference on every text; reports the first mismatch.
void expectMatchesReference(const Tokenizer &Tok, const ReferenceEncoder &Ref,
                            const std::vector<std::string> &Texts,
                            const std::string &What) {
  size_t Mismatches = 0;
  for (size_t I = 0; I < Texts.size(); ++I) {
    if (Tok.encode(Texts[I]) == Ref.encode(Texts[I]))
      continue;
    if (Mismatches++ == 0)
      ADD_FAILURE() << What << ": text " << I << " differs: \"" << Texts[I]
                    << "\"";
  }
  EXPECT_EQ(Mismatches, 0u) << What << ", " << Texts.size() << " texts";
}

TEST(PreTokenize, ByteClassesMatchTheCLocale) {
  for (int B = 0; B < 256; ++B) {
    const std::string C(1, static_cast<char>(B));
    for (const std::string &Text : {C, "a" + C + "1", "1" + C + "a",
                                    "." + C + C, " " + C + "_"})
      EXPECT_EQ(preTokenize(Text), ReferenceEncoder::preTokenize(Text))
          << "byte " << B;
  }
}

TEST(TokenizerOracle, PinnedTokenizersOnTheTrainingCorpus) {
  for (const char *Name : PinnedNames) {
    Tokenizer Tok = loadOrDie(pinnedTok(Name));
    ReferenceEncoder Ref(readVocab(pinnedTok(Name)));
    for (bool Arm : {false, true}) {
      std::vector<std::string> Texts;
      for (const core::TrainPair &P : trainPairs(Arm)) {
        Texts.push_back(P.Asm);
        Texts.push_back(P.CSource);
      }
      ASSERT_GT(Texts.size(), 4000u);
      expectMatchesReference(Tok, Ref, Texts,
                             std::string(Name) +
                                 (Arm ? " on ARM O3" : " on x86 O0"));
    }
  }
}

TEST(TokenizerOracle, PinnedTokenizersOnHostileStrings) {
  std::vector<std::string> Texts = hostileStrings(3000, 0x70c0);
  for (const char *Name : PinnedNames)
    expectMatchesReference(loadOrDie(pinnedTok(Name)),
                           ReferenceEncoder(readVocab(pinnedTok(Name))),
                           Texts, Name);
}

TEST(TokenizerOracle, DuplicatedPieceMapsToItsLastId) {
  Vocab V = readVocab(pinnedTok("slade_x86_O0"));
  // "mov" again, scored better than anything, and "%" again, scored worse
  // than its first id: either way the last id is the one encode emits.
  V.Pieces.push_back("mov");
  V.LogProbs.push_back(-0.5f);
  V.Pieces.push_back("%");
  V.LogProbs.push_back(-20.0f);
  const int MovId = static_cast<int>(V.Pieces.size()) - 2;
  const int PercentId = MovId + 1;
  Tokenizer Tok = loadVocab(V, "dup_piece");
  ReferenceEncoder Ref(V);
  EXPECT_EQ(Tok.encode("mov"), std::vector<int>{MovId});
  EXPECT_EQ(Tok.encode("%"), std::vector<int>{PercentId});
  std::vector<std::string> Texts = hostileStrings(500, 0xd0b);
  for (const core::TrainPair &P : trainPairs(false)) {
    if (Texts.size() == 1000)
      break;
    Texts.push_back(P.Asm);
  }
  expectMatchesReference(Tok, Ref, Texts, "duplicated piece");
}

TEST(TokenizerOracle, VocabularyMissingSingleCharacters) {
  Vocab Full = readVocab(pinnedTok("slade_x86_O0"));
  const std::string MS = metaspace();
  const std::vector<std::string> Drop = {"q", MS + "q", "x", "7",
                                         "%", MS + "%", ",", "e"};
  Vocab V;
  for (size_t I = 0; I < Full.Pieces.size(); ++I) {
    if (I > Tokenizer::UnkId &&
        std::find(Drop.begin(), Drop.end(), Full.Pieces[I]) != Drop.end())
      continue;
    V.Pieces.push_back(Full.Pieces[I]);
    V.LogProbs.push_back(Full.LogProbs[I]);
  }
  ASSERT_EQ(V.Pieces.size() + Drop.size(), Full.Pieces.size());
  // "qz" scores half a nat above <unk> "q" + "z": the -30 <unk> penalty
  // decides between them.
  const float Z = V.LogProbs[static_cast<size_t>(
      std::find(V.Pieces.begin(), V.Pieces.end(), "z") - V.Pieces.begin())];
  V.Pieces.push_back("qz");
  V.LogProbs.push_back(Z - 29.5f);
  const int QzId = static_cast<int>(V.Pieces.size()) - 1;
  Tokenizer Tok = loadVocab(V, "missing_chars");
  EXPECT_EQ(Tok.encode("q"), std::vector<int>{Tokenizer::UnkId});
  EXPECT_EQ(Tok.encode("qz"), std::vector<int>{QzId});
  std::vector<std::string> Texts = hostileStrings(500, 0x9a9);
  Texts.push_back("qz qqz zqz q7x");
  for (const core::TrainPair &P : trainPairs(false)) {
    if (Texts.size() == 1000)
      break;
    Texts.push_back(P.Asm);
    Texts.push_back(P.CSource);
  }
  expectMatchesReference(Tok, ReferenceEncoder(V), Texts,
                         "missing single characters");
}

TEST(TokenizerOracle, PiecesAtAndPastTheWindow) {
  // Prefixes of one long identifier, 26 to 31 bytes, bare and after a
  // metaspace: encode matches pieces of up to 28 bytes and no longer.
  const std::string Word = "q_abcdefghijklmnopqrstuvwxyz0123456789";
  const std::string MS = metaspace();
  Vocab V = readVocab(pinnedTok("slade_x86_O0"));
  for (size_t Len = 26; Len <= 31; ++Len) {
    V.Pieces.push_back(Word.substr(0, Len));
    V.LogProbs.push_back(-1.0f);
    V.Pieces.push_back(MS + Word.substr(0, Len - MS.size()));
    V.LogProbs.push_back(-1.0f);
  }
  Tokenizer Tok = loadVocab(V, "long_pieces");
  EXPECT_EQ(Tok.encode(Word.substr(0, 28)).size(), 1u);
  EXPECT_GT(Tok.encode(Word.substr(0, 29)).size(), 1u);
  EXPECT_EQ(Tok.encode(" " + Word.substr(0, 25)).size(), 1u);
  EXPECT_GT(Tok.encode(" " + Word.substr(0, 26)).size(), 1u);
  std::vector<std::string> Texts;
  for (size_t Len = 20; Len <= Word.size(); ++Len) {
    Texts.push_back(Word.substr(0, Len));
    Texts.push_back("x " + Word.substr(0, Len) + " " + Word + Word);
  }
  expectMatchesReference(Tok, ReferenceEncoder(V), Texts, "long pieces");
}

TEST(TokenizerOracle, EqualScoresAndUnreachablePositions) {
  // Every piece scored alike makes ties everywhere; single characters
  // scored -inf leave positions no segmentation reaches.
  Vocab V = readVocab(pinnedTok("slade_arm_O3"));
  Vocab Ties = V;
  for (float &LP : Ties.LogProbs)
    LP = -1.0f;
  Vocab Unreachable = V;
  for (size_t I = 0; I < V.Pieces.size(); ++I)
    if (V.Pieces[I].size() == 1 && I % 3 == 0)
      Unreachable.LogProbs[I] = -INFINITY;
  std::vector<std::string> Texts = hostileStrings(1000, 0x71e);
  for (const core::TrainPair &P : trainPairs(true)) {
    if (Texts.size() == 1500)
      break;
    Texts.push_back(P.Asm);
  }
  expectMatchesReference(loadVocab(Ties, "ties"), ReferenceEncoder(Ties),
                         Texts, "equal scores");
  expectMatchesReference(loadVocab(Unreachable, "unreachable"),
                         ReferenceEncoder(Unreachable), Texts,
                         "-inf single characters");
}

TEST(TokenizerOracle, DefaultConstructedTokenizer) {
  Tokenizer Tok;
  EXPECT_EQ(Tok.vocabSize(), 0u);
  EXPECT_EQ(Tok.encode("a b"),
            (std::vector<int>{Tokenizer::UnkId, Tokenizer::UnkId,
                              Tokenizer::UnkId, Tokenizer::UnkId,
                              Tokenizer::UnkId}));
  expectMatchesReference(Tok, ReferenceEncoder(Vocab()),
                         hostileStrings(300, 0xdef), "default tokenizer");
}

TEST(TokenizerDecode, DefaultConstructedTokenizerStaysInBounds) {
  // A default tokenizer has no pieces, not even <unk>: decoding its own
  // encode (every byte UnkId) and ids past the vocabulary must not read
  // past the empty piece table.
  Tokenizer Tok;
  EXPECT_EQ(Tok.decode(Tok.encode("a")), "<unk>");
  EXPECT_EQ(Tok.decode({Tokenizer::BosId, 600, -1, Tokenizer::EosId}),
            "<unk><unk>");
}

TEST(TokenizerTraining, RetrainsThePinnedTokenizersByteForByte) {
  // slade-train's recipe: one tokenizer over the asm and C of every pair
  // (trainSystem with no model steps), VocabSize 512.
  for (bool Arm : {false, true}) {
    core::TrainConfig TC;
    TC.D = Arm ? asmx::Dialect::Arm : asmx::Dialect::X86;
    TC.Optimize = Arm;
    TC.Steps = 0;
    TC.Verbose = false;
    ASSERT_EQ(TC.VocabSize, 512u);
    core::TrainedSystem Sys = core::trainSystem(trainPairs(Arm), TC);
    const std::string Name = PinnedNames[Arm ? 1 : 0];
    std::string Path = testing::TempDir() + "retrained_" + Name + ".tok";
    ASSERT_TRUE(Sys.Tok.save(Path).ok());
    EXPECT_TRUE(readBytes(Path) == readBytes(pinnedTok(Name)))
        << Name << ": retrained tokenizer differs from the pinned file";
  }
}

TEST(TokenizerLoad, RejectsFilesWithoutTheSpecialPieces) {
  Vocab V = readVocab(pinnedTok("slade_x86_O0"));
  for (size_t Keep : {0, 1, 3}) {
    Vocab Short;
    Short.Pieces.assign(V.Pieces.begin(), V.Pieces.begin() + Keep);
    Short.LogProbs.assign(V.LogProbs.begin(), V.LogProbs.begin() + Keep);
    std::string Path =
        testing::TempDir() + "short_" + std::to_string(Keep) + ".tok";
    writeVocab(Path, Short);
    auto Tok = Tokenizer::load(Path);
    EXPECT_FALSE(Tok.hasValue()) << Keep << " pieces loaded";
    if (Tok) // The <unk> fallback for id 600 has no piece to read.
      Tok->decode({Tokenizer::UnkId, 600});
    else
      EXPECT_NE(Tok.errorMessage().find("corrupt"), std::string::npos);
  }
  // The four special pieces alone are a valid (if useless) vocabulary.
  Vocab Specials;
  Specials.Pieces.assign(V.Pieces.begin(), V.Pieces.begin() + 4);
  Specials.LogProbs.assign(V.LogProbs.begin(), V.LogProbs.begin() + 4);
  Tokenizer Tok = loadVocab(Specials, "specials_only");
  EXPECT_EQ(Tok.encode("ab"),
            (std::vector<int>{Tokenizer::UnkId, Tokenizer::UnkId}));
  EXPECT_EQ(Tok.decode({Tokenizer::UnkId, 600}), "<unk><unk>");
}

TEST(TokenizerConcurrency, FourThreadsMatchOneThread) {
  // One tokenizer shared by four threads, as the engine's dispatcher and
  // the decompiler's callers share theirs: encode keeps no shared state.
  Tokenizer Tok = loadOrDie(pinnedTok("slade_x86_O0"));
  std::vector<std::string> Texts = hostileStrings(150, 0xc0c);
  dataset::Corpus Corpus =
      dataset::buildCorpus(dataset::Suite::ExeBench, 0, 24, /*Seed=*/77);
  for (const core::TrainPair &P :
       core::buildTrainPairs(Corpus.Test, asmx::Dialect::X86, false)) {
    Texts.push_back(P.Asm);
    Texts.push_back(P.CSource);
  }
  std::vector<std::vector<int>> Expected;
  for (const std::string &T : Texts)
    Expected.push_back(Tok.encode(T));
  std::vector<size_t> Mismatches(4, 0);
  std::vector<std::thread> Threads;
  for (size_t W = 0; W < Mismatches.size(); ++W)
    Threads.emplace_back([&, W] {
      for (int Round = 0; Round < 3; ++Round)
        for (size_t I = 0; I < Texts.size(); ++I) {
          size_t J = (I + W * 37) % Texts.size(); // Stagger the threads.
          if (Tok.encode(Texts[J]) != Expected[J])
            ++Mismatches[W];
        }
    });
  for (std::thread &T : Threads)
    T.join();
  for (size_t W = 0; W < Mismatches.size(); ++W)
    EXPECT_EQ(Mismatches[W], 0u) << "thread " << W;
}

} // namespace
