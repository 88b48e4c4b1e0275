//===- VocabConstraint.h - vocab masking over a C-prefix oracle -*- C++ -*-===//
///
/// \file
/// The token↔lexeme bridge for grammar-constrained decoding: classifies
/// every subword piece of a tok::Tokenizer once at build time, then
/// answers, per beam step, "which vocabulary ids can this beam emit next
/// without killing every syntactic continuation?" against that beam's
/// cc::PrefixOracle cursor.
///
/// The mask is a SOUND under-approximation of death: a piece is only
/// disallowed when no completion of (text so far + piece text) parses.
/// Over-allowing merely wastes a beam for one step — the oracle state it
/// advances into is fully masked on the next tick — so every fast path
/// below errs on the side of allowing.
///
/// Per-piece fast paths avoid per-piece oracle copies in the common
/// states (clean boundary, pending identifier): a piece's acceptability
/// reduces to one AND of its precomputed terminal-class bits against the
/// beam's cached terminal mask. Rare lexer states (inside a string,
/// char, comment, numeric literal, or an ambiguous punctuator chain)
/// fall back to copy-state-and-advance per piece.
///
/// Beams keep landing in the same oracle states, within one decode and
/// across decodes, so mask() memoizes allowedTokens per state in one
/// bounded, mutex-guarded map that every decode of this vocabulary
/// shares: solo searches and every serve engine shard alike.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_TOK_VOCABCONSTRAINT_H
#define SLADE_TOK_VOCABCONSTRAINT_H

#include "cc/PrefixOracle.h"
#include "tok/Tokenizer.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace slade {
namespace tok {

class VocabConstraint {
public:
  /// Classifies every piece of \p Tok. The tokenizer must outlive only
  /// this constructor — all piece text is copied.
  explicit VocabConstraint(const Tokenizer &Tok);

  /// Fresh oracle cursor (empty translation unit).
  cc::PrefixOracle::State start() const { return Oracle.start(); }

  /// Fills \p Allowed (resized to the vocab) with 1 for every id the
  /// beam at \p S may emit next. EOS and PAD are allowed iff the text so
  /// far is already a complete valid translation unit; BOS and UNK are
  /// never allowed. Returns the number of DISALLOWED ids.
  int allowedTokens(const cc::PrefixOracle::State &S,
                    std::vector<uint8_t> &Allowed) const;

  /// One allowedTokens result.
  struct Mask {
    std::vector<uint8_t> Allowed;
    std::vector<uint16_t> Ids; ///< The allowed ids, ascending.
    int Masked = 0;            ///< Disallowed ids.
  };
  /// A caller's lookup key buffer, and the mask a lookup past the cache
  /// bound is computed into.
  struct MaskScratch {
    std::string Key;
    Mask Own;
  };
  /// The most masks the cache stores (about 1.2 KB each at 512 pieces).
  /// Benchmark decodes stay far below it: the 1010 ARM O3 functions reach
  /// 899 distinct states, the 310 x86 O0 functions 567.
  static constexpr size_t MaskCacheCap = 4096;

  /// The mask of \p S, computed once per distinct
  /// cc::PrefixOracle::stateKey and shared by every caller. Cached masks
  /// are never evicted or changed, so a returned cache entry lives as
  /// long as this object. Past MaskCacheCap the mask is computed into
  /// \p Scratch.Own and not stored; it lives until \p Scratch's next
  /// lookup. Thread-safe.
  const Mask &mask(const cc::PrefixOracle::State &S,
                   MaskScratch &Scratch) const;

  /// Masks the cache holds (at most MaskCacheCap).
  size_t cachedMasks() const;

  /// Advances \p S by the decoded text of \p Id (no-op for specials).
  /// Returns false when the state died.
  bool advanceToken(cc::PrefixOracle::State &S, int Id) const;

  /// True when the text fed so far is a complete valid translation unit
  /// (what gates EOS, exposed for finalize-time filtering).
  bool acceptsEnd(const cc::PrefixOracle::State &S) const {
    return Oracle.acceptsEnd(S);
  }

  /// Decoded text contribution of \p Id ("" for BOS/EOS/PAD).
  const std::string &pieceText(int Id) const {
    return Text[static_cast<size_t>(Id)];
  }

  size_t vocabSize() const { return Text.size(); }
  const cc::PrefixOracle &oracle() const { return Oracle; }

private:
  enum PieceKind : uint8_t {
    PK_Special, ///< BOS/EOS/PAD (end-gated) and UNK (always masked)
    PK_Empty,   ///< decodes to whitespace only
    PK_Word,    ///< identifier-char body, first char not a digit
    PK_DotWord, ///< '.' + identifier chars (field access / .L labels)
    PK_Digits,  ///< all-digit body
    PK_Punct,   ///< single punctuation char with precomputed bits
    PK_Generic, ///< copy state + advance (no fast path)
  };

  /// Copy-state-and-advance fallback for pieces with no fast path.
  bool genericAllowed(const cc::PrefixOracle::State &S, size_t Id) const;

  cc::PrefixOracle Oracle;
  std::vector<std::string> Text;     ///< id -> decoded contribution
  std::vector<std::string> Body;     ///< text minus the leading space
  std::vector<uint8_t> Kind;         ///< PieceKind per id
  std::vector<uint8_t> LeadSpace;    ///< text begins with ' '
  /// Terminal-class bits that admit this piece when it starts a fresh
  /// lexeme at a clean boundary. For the uniform kinds
  /// (PK_Word/DotWord/Digits/Punct) this is exact; for PK_Generic it is
  /// the piece's FIRST terminal, over-approximated — sound because a
  /// piece whose tail kills the parse still dies in advanceToken and the
  /// beam is fully masked on the next step.
  std::vector<uint64_t> BoundaryBits;
  /// PK_Generic pieces whose first terminal could not be classified
  /// statically (e.g. '#'): always simulated with genericAllowed.
  std::vector<uint8_t> GenericSlow;
  /// PK_Word/PK_Digits pieces whose body occurs inside an accepted
  /// keyword at a non-zero offset: only these can turn a pending word
  /// into a keyword, so only these pay the keyword-prefix check when
  /// continuing a word.
  std::vector<uint8_t> KwMidfix;

  mutable std::mutex MaskMu;
  /// stateKey -> mask. Nodes never move, so entries stay put while
  /// others are inserted.
  mutable std::unordered_map<std::string, Mask> Masks;
};

} // namespace tok
} // namespace slade

#endif // SLADE_TOK_VOCABCONSTRAINT_H
