//===- Tokenizer.h - UnigramLM subword tokenizer ----------------*- C++ -*-===//
///
/// \file
/// The paper's code tokenizer (§IV): UnigramLM subword vocabulary with a
/// small code-oriented vocab, digit-by-digit number splitting, punctuation
/// isolation, and SentencePiece-style metaspace ('▁', here the byte 0x1e
/// placeholder is avoided by using the literal UTF-8 sequence) marking
/// word-initial pieces. Whitespace runs are normalized to a single space,
/// which is lossless for C and assembly up to formatting.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_TOK_TOKENIZER_H
#define SLADE_TOK_TOKENIZER_H

#include "support/Error.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace slade {
namespace tok {

/// Metaspace marker prepended to atoms that follow whitespace.
inline const char *metaspace() { return "\xe2\x96\x81"; } // U+2581

/// Splits \p Text into atoms: identifiers, single digits, single
/// punctuation characters; atoms preceded by whitespace get the metaspace
/// prefix. Character classes are the C locale's.
std::vector<std::string> preTokenize(const std::string &Text);

/// Thread-safety: every const member may be called concurrently on one
/// tokenizer; encode keeps its scratch on the caller's stack.
class Tokenizer {
public:
  struct Config {
    unsigned VocabSize = 512;
    int EMIterations = 3;
    unsigned MaxPieceLen = 10;
  };

  /// Special token ids.
  static constexpr int PadId = 0;
  static constexpr int BosId = 1;
  static constexpr int EosId = 2;
  static constexpr int UnkId = 3;

  /// An empty vocabulary: encode maps every byte to UnkId.
  Tokenizer() { rebuildIndex(); }

  /// Learns a UnigramLM vocabulary over \p Texts.
  static Tokenizer train(const std::vector<std::string> &Texts,
                         const Config &Cfg);

  /// Viterbi-segments \p Text (no BOS/EOS added).
  std::vector<int> encode(const std::string &Text) const;

  /// Inverse of encode up to whitespace normalization.
  std::string decode(const std::vector<int> &Ids) const;

  size_t vocabSize() const { return Pieces.size(); }
  const std::string &piece(int Id) const { return Pieces[Id]; }

  Status save(const std::string &Path) const;
  /// Fails on a file that does not hold at least the four special pieces.
  static Expected<Tokenizer> load(const std::string &Path);

private:
  /// One edge of the byte trie over Pieces. Edges live in one
  /// open-addressing table keyed by (parent node, byte), and each carries
  /// the piece its path spells, so a walk reads one slot per byte.
  struct TrieSlot {
    uint64_t Key = 0;   ///< (Parent << 8 | Byte) + 1; 0 marks a free slot.
    uint32_t Node = 0;  ///< The node this edge leads to; the root is 0.
    int32_t Piece = -1; ///< Id of the piece the path spells, or -1.
  };

  std::vector<std::string> Pieces; ///< Id -> piece text.
  std::vector<float> LogProbs;     ///< Id -> unigram log prob.
  std::vector<TrieSlot> Trie;      ///< Power-of-two size, under half full.
  unsigned TrieShift = 0;          ///< 64 - log2(Trie.size()).

  /// Rebuilds Trie from Pieces; a duplicated piece maps to its last id.
  void rebuildIndex();
  /// Index of \p Key's slot, or of the free slot where it would go.
  size_t trieProbe(uint64_t Key) const;
  /// Best segmentation of the \p Len bytes at \p Atom into pieces of at
  /// most \p Window bytes; appends ids.
  void viterbi(const char *Atom, size_t Len, size_t Window,
               std::vector<int> *Out) const;
};

} // namespace tok
} // namespace slade

#endif // SLADE_TOK_TOKENIZER_H
