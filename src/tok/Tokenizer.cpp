//===- Tokenizer.cpp - UnigramLM subword tokenizer ---------------------------===//

#include "tok/Tokenizer.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <utility>

using namespace slade;
using namespace slade::tok;

namespace {

/// Byte classes of the C locale, as std::isspace, std::isalpha and
/// std::isalnum give them; bytes 0x80 and above have none.
enum : uint8_t { Space = 1, WordStart = 2, WordPart = 4 };

constexpr std::array<uint8_t, 256> byteClasses() {
  std::array<uint8_t, 256> T{};
  for (unsigned char C : {' ', '\t', '\n', '\v', '\f', '\r'})
    T[C] = Space;
  for (unsigned char C = '0'; C <= '9'; ++C)
    T[C] = WordPart;
  for (unsigned char C = 'a'; C <= 'z'; ++C)
    T[C] = T[C - 'a' + 'A'] = WordStart | WordPart;
  T['_'] = WordStart | WordPart;
  // Local labels (.L4) keep their dot so assembly labels stay word-like.
  T['.'] = WordStart;
  return T;
}

constexpr std::array<uint8_t, 256> ByteClass = byteClasses();

constexpr size_t MetaspaceLen = 3; ///< Bytes of metaspace().

/// Longest piece, in bytes, that encode matches.
constexpr size_t EncodeWindow = 24 + 4;

/// Calls \p Fn(Begin, Len, AfterSpace) on each atom of \p Text in order:
/// an identifier (digits inside it stay attached), a single digit (§IV:
/// 512 -> [5, 1, 2]) or a single punctuation byte. AfterSpace is whether
/// whitespace precedes the atom.
template <typename FnT> void forEachAtom(const std::string &Text, FnT &&Fn) {
  const auto *P = reinterpret_cast<const unsigned char *>(Text.data());
  const size_t N = Text.size();
  bool AfterSpace = false;
  for (size_t I = 0; I < N;) {
    uint8_t C = ByteClass[P[I]];
    if (C & Space) {
      AfterSpace = true;
      ++I;
      continue;
    }
    size_t Start = I++;
    if (C & WordStart)
      while (I < N && (ByteClass[P[I]] & WordPart))
        ++I;
    Fn(Text.data() + Start, I - Start, AfterSpace);
    AfterSpace = false;
  }
}

/// Atoms up to this many bytes, metaspace included, are segmented with
/// scratch on the stack.
constexpr size_t InlineAtom = 64;

/// The trie key of the edge for \p Byte out of \p Node; never 0.
uint64_t edgeKey(uint64_t Node, unsigned char Byte) {
  return (Node << 8 | Byte) + 1;
}

} // namespace

std::vector<std::string> slade::tok::preTokenize(const std::string &Text) {
  std::vector<std::string> Atoms;
  forEachAtom(Text, [&](const char *Atom, size_t Len, bool AfterSpace) {
    Atoms.emplace_back(AfterSpace ? metaspace() : "");
    Atoms.back().append(Atom, Len);
  });
  return Atoms;
}

size_t Tokenizer::trieProbe(uint64_t Key) const {
  size_t Mask = Trie.size() - 1;
  size_t H = static_cast<size_t>((Key * 0x9E3779B97F4A7C15ULL) >> TrieShift);
  while (Trie[H].Key != Key && Trie[H].Key != 0)
    H = (H + 1) & Mask;
  return H;
}

void Tokenizer::rebuildIndex() {
  Trie.assign(2, TrieSlot());
  TrieShift = 63;
  size_t Nodes = 1;
  for (size_t Id = 0; Id < Pieces.size(); ++Id) {
    uint32_t Node = 0;
    TrieSlot *Edge = nullptr;
    for (unsigned char B : Pieces[Id]) {
      uint64_t Key = edgeKey(Node, B);
      Edge = &Trie[trieProbe(Key)];
      if (Edge->Key == 0) {
        if (2 * Nodes >= Trie.size()) {
          // Keep the table under half full: double it and re-place every
          // edge.
          std::vector<TrieSlot> Old =
              std::exchange(Trie, std::vector<TrieSlot>(Trie.size() * 2));
          --TrieShift;
          for (const TrieSlot &S : Old)
            if (S.Key != 0)
              Trie[trieProbe(S.Key)] = S;
          Edge = &Trie[trieProbe(Key)];
        }
        Edge->Key = Key;
        Edge->Node = static_cast<uint32_t>(Nodes++);
      }
      Node = Edge->Node;
    }
    if (Edge)
      Edge->Piece = static_cast<int32_t>(Id);
  }
}

void Tokenizer::viterbi(const char *Atom, size_t Len, size_t Window,
                        std::vector<int> *Out) const {
  // Lattice over byte positions: the best score of a segmentation of the
  // first Pos bytes and the last piece of it. Start positions relax their
  // end positions in ascending order with a strict >, so of equal scores
  // the segmentation whose last piece starts earliest wins.
  struct Cell {
    float Best;
    int Piece;
    size_t From;
  };
  Cell Inline[InlineAtom + 1];
  std::vector<Cell> Heap;
  Cell *L = Inline;
  if (Len > InlineAtom) {
    Heap.resize(Len + 1);
    L = Heap.data();
  }
  for (size_t Pos = 0; Pos <= Len; ++Pos)
    L[Pos] = {-1e30f, -1, 0};
  L[0].Best = 0;
  auto Relax = [&](size_t End, int Id, float Score, size_t From) {
    if (Score > L[End].Best)
      L[End] = {Score, Id, From};
  };
  const auto *Bytes = reinterpret_cast<const unsigned char *>(Atom);
  for (size_t Start = 0; Start < Len; ++Start) {
    const float Base = L[Start].Best;
    if (Base <= -1e29f)
      continue;
    const size_t Stop = std::min(Len, Start + Window);
    uint64_t Node = 0;
    for (size_t End = Start + 1; End <= Stop; ++End) {
      const TrieSlot &Edge = Trie[trieProbe(edgeKey(Node, Bytes[End - 1]))];
      if (Edge.Key != 0 && Edge.Piece >= 0)
        Relax(End, Edge.Piece, Base + LogProbs[static_cast<size_t>(Edge.Piece)],
              Start);
      else if (End == Start + 1)
        Relax(End, UnkId, Base - 30.0f, Start); // Unknown character penalty.
      if (Edge.Key == 0)
        break;
      Node = Edge.Node;
    }
  }
  size_t First = Out->size();
  for (size_t Pos = Len; Pos > 0; Pos = L[Pos].From)
    Out->push_back(L[Pos].Piece);
  std::reverse(Out->begin() + static_cast<long>(First), Out->end());
}

std::vector<int> Tokenizer::encode(const std::string &Text) const {
  std::vector<int> Out;
  char Buf[InlineAtom];
  std::string Long;
  forEachAtom(Text, [&](const char *Atom, size_t Len, bool AfterSpace) {
    if (!AfterSpace) {
      viterbi(Atom, Len, EncodeWindow, &Out);
      return;
    }
    char *Dst = Buf;
    if (MetaspaceLen + Len > InlineAtom) {
      Long.resize(MetaspaceLen + Len);
      Dst = Long.data();
    }
    std::memcpy(Dst, metaspace(), MetaspaceLen);
    std::memcpy(Dst + MetaspaceLen, Atom, Len);
    viterbi(Dst, MetaspaceLen + Len, EncodeWindow, &Out);
  });
  return Out;
}

std::string Tokenizer::decode(const std::vector<int> &Ids) const {
  static const std::string Unk = "<unk>";
  std::string Out;
  for (int Id : Ids) {
    if (Id == PadId || Id == BosId || Id == EosId)
      continue;
    // An id outside the vocabulary reads as <unk>, also in a vocabulary
    // without that piece (a default-constructed tokenizer has none).
    if (Id < 0 || static_cast<size_t>(Id) >= Pieces.size())
      Id = UnkId;
    Out += static_cast<size_t>(Id) < Pieces.size()
               ? Pieces[static_cast<size_t>(Id)]
               : Unk;
  }
  return replaceAll(std::move(Out), metaspace(), " ");
}

Tokenizer Tokenizer::train(const std::vector<std::string> &Texts,
                           const Config &Cfg) {
  // 1. Atom frequency table.
  std::map<std::string, int64_t> AtomFreq;
  for (const std::string &T : Texts)
    for (const std::string &A : preTokenize(T))
      ++AtomFreq[A];

  // 2. Candidate pieces: all substrings up to MaxPieceLen (character
  //    coverage guaranteed by always keeping single "characters", where a
  //    character may be the 3-byte metaspace followed by one byte).
  std::map<std::string, int64_t> CandScore;
  std::map<std::string, int64_t> CharFreq;
  const std::string MS = metaspace();
  for (const auto &[Atom, Freq] : AtomFreq) {
    for (size_t S = 0; S < Atom.size(); ++S) {
      // Do not start a piece in the middle of the metaspace bytes.
      if (S > 0 && S < MS.size() && Atom.compare(0, MS.size(), MS) == 0)
        continue;
      for (size_t L = 1; L <= Cfg.MaxPieceLen + 3 && S + L <= Atom.size();
           ++L) {
        std::string Piece = Atom.substr(S, L);
        CandScore[Piece] += Freq * static_cast<int64_t>(L);
      }
      size_t CharLen = 1;
      if (Atom.compare(S, MS.size(), MS) == 0)
        CharLen = S + MS.size() < Atom.size() ? MS.size() + 1 : MS.size();
      CharFreq[Atom.substr(S, CharLen)] += Freq;
      if (CharLen > 1)
        CharFreq[Atom.substr(S, 1)] += 0; // Keep raw bytes available too.
    }
  }

  Tokenizer Tok;
  Tok.Pieces = {"<pad>", "<s>", "</s>", "<unk>"};
  // Alphabet first. Full character coverage (§IV: "unseen tokens can
  // always be built from seen subwords, even character by character")
  // requires both the bare and the metaspace-prefixed variant of every
  // observed character.
  std::set<std::string> Alphabet;
  Alphabet.insert(MS);
  // Printable ASCII is always covered (the paper's alphabet is
  // "essentially the ASCII alphabet").
  for (char C = 0x21; C < 0x7f; ++C) {
    Alphabet.insert(std::string(1, C));
    Alphabet.insert(MS + std::string(1, C));
  }
  for (const auto &[Piece, Freq] : CharFreq) {
    std::string Base = Piece;
    if (startsWith(Base, MS))
      Base = Base.substr(MS.size());
    if (Base.empty())
      continue;
    Alphabet.insert(Base);
    Alphabet.insert(MS + Base);
  }
  for (const std::string &Piece : Alphabet)
    Tok.Pieces.push_back(Piece);
  CharFreq.clear();
  for (const std::string &Piece : Alphabet)
    CharFreq[Piece] = 1; // Alphabet marker for the pruning stage below.
  // Then the highest-scoring multi-character candidates.
  std::vector<std::pair<int64_t, std::string>> Ranked;
  for (const auto &[Piece, Score] : CandScore)
    if (!CharFreq.count(Piece))
      Ranked.push_back({Score, Piece});
  std::sort(Ranked.begin(), Ranked.end(), [](const auto &A, const auto &B) {
    if (A.first != B.first)
      return A.first > B.first;
    return A.second < B.second;
  });
  size_t Budget = Cfg.VocabSize > Tok.Pieces.size()
                      ? Cfg.VocabSize - Tok.Pieces.size()
                      : 0;
  // Over-seed, then let EM pruning pick the final set.
  size_t Seed = std::min(Ranked.size(), Budget * 3 + 32);
  for (size_t I = 0; I < Seed; ++I)
    Tok.Pieces.push_back(Ranked[I].second);
  Tok.LogProbs.assign(Tok.Pieces.size(), -10.0f);
  Tok.rebuildIndex();

  // 3. Hard-EM: Viterbi counts, re-estimate, prune back to VocabSize.
  //    Candidates are at most MaxPieceLen + 3 bytes; as encode's, the
  //    window reaches 4 bytes further.
  const size_t TrainWindow = Cfg.MaxPieceLen + 3 + 4;
  for (int Iter = 0; Iter < Cfg.EMIterations; ++Iter) {
    std::vector<int64_t> Counts(Tok.Pieces.size(), 0);
    int64_t Total = 0;
    for (const auto &[Atom, Freq] : AtomFreq) {
      std::vector<int> Ids;
      Tok.viterbi(Atom.data(), Atom.size(), TrainWindow, &Ids);
      for (int Id : Ids) {
        Counts[static_cast<size_t>(Id)] += Freq;
        Total += Freq;
      }
    }
    bool LastIter = Iter == Cfg.EMIterations - 1;
    size_t AlphabetEnd = 4 + CharFreq.size();
    if (!LastIter) {
      // Prune the worst-used multi-char pieces, keeping the alphabet.
      std::vector<std::pair<int64_t, size_t>> Usage;
      for (size_t I = AlphabetEnd; I < Tok.Pieces.size(); ++I)
        Usage.push_back({Counts[I], I});
      std::sort(Usage.begin(), Usage.end(), [](const auto &A, const auto &B) {
        if (A.first != B.first)
          return A.first > B.first;
        return A.second < B.second;
      });
      size_t Keep = Cfg.VocabSize > AlphabetEnd
                        ? Cfg.VocabSize - AlphabetEnd
                        : 0;
      std::vector<std::string> NewPieces(Tok.Pieces.begin(),
                                         Tok.Pieces.begin() +
                                             static_cast<long>(AlphabetEnd));
      std::vector<int64_t> NewCounts(Counts.begin(),
                                     Counts.begin() +
                                         static_cast<long>(AlphabetEnd));
      for (size_t I = 0; I < Usage.size() && I < Keep; ++I) {
        NewPieces.push_back(Tok.Pieces[Usage[I].second]);
        NewCounts.push_back(Usage[I].first);
      }
      Tok.Pieces = std::move(NewPieces);
      Counts = std::move(NewCounts);
      Tok.rebuildIndex();
    }
    // Re-estimate probabilities with add-one smoothing.
    Tok.LogProbs.assign(Tok.Pieces.size(), 0.0f);
    double Denom = static_cast<double>(Total) +
                   static_cast<double>(Tok.Pieces.size());
    for (size_t I = 0; I < Tok.Pieces.size(); ++I)
      Tok.LogProbs[I] = static_cast<float>(
          std::log((static_cast<double>(Counts[I]) + 1.0) / Denom));
  }
  return Tok;
}

Status Tokenizer::save(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return Status::error("cannot open " + Path + " for writing");
  uint64_t N = Pieces.size();
  std::fwrite(&N, sizeof(N), 1, F);
  for (size_t I = 0; I < Pieces.size(); ++I) {
    uint32_t L = static_cast<uint32_t>(Pieces[I].size());
    std::fwrite(&L, sizeof(L), 1, F);
    std::fwrite(Pieces[I].data(), 1, L, F);
    std::fwrite(&LogProbs[I], sizeof(float), 1, F);
  }
  std::fclose(F);
  return Status::success();
}

Expected<Tokenizer> Tokenizer::load(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Expected<Tokenizer>::error("cannot open " + Path);
  Tokenizer Tok;
  uint64_t N = 0;
  // Fewer than the special pieces would leave decode's <unk> fallback
  // without a piece.
  if (std::fread(&N, sizeof(N), 1, F) != 1 || N <= UnkId || N > 1000000) {
    std::fclose(F);
    return Expected<Tokenizer>::error("corrupt tokenizer file " + Path);
  }
  Tok.Pieces.resize(N);
  Tok.LogProbs.resize(N);
  for (uint64_t I = 0; I < N; ++I) {
    uint32_t L = 0;
    if (std::fread(&L, sizeof(L), 1, F) != 1 || L > 4096) {
      std::fclose(F);
      return Expected<Tokenizer>::error("corrupt tokenizer file " + Path);
    }
    Tok.Pieces[I].resize(L);
    if (L && std::fread(Tok.Pieces[I].data(), 1, L, F) != L) {
      std::fclose(F);
      return Expected<Tokenizer>::error("corrupt tokenizer file " + Path);
    }
    if (std::fread(&Tok.LogProbs[I], sizeof(float), 1, F) != 1) {
      std::fclose(F);
      return Expected<Tokenizer>::error("corrupt tokenizer file " + Path);
    }
  }
  std::fclose(F);
  Tok.rebuildIndex();
  return Tok;
}
