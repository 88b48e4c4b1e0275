//===- PrefixOracle.h - incremental C-prefix acceptability ------*- C++ -*-===//
///
/// \file
/// An incremental, token-level acceptability checker derived from the
/// cc::Lexer/Parser frontend: "can this emitted text prefix still extend
/// to a syntactically valid translation unit?" It powers grammar-
/// constrained beam decoding (nn/BeamCore.h): each live beam carries one
/// oracle State, the decoder masks vocabulary pieces whose text would
/// kill every continuation, and beams whose state dies are retired
/// mid-flight.
///
/// The oracle recognizes a SOUND OVER-APPROXIMATION of the parser's
/// prefix language: it never rejects a prefix of a parseable program
/// (differentially tested against dataset::Generator output in
/// tests/test_constrain.cpp), and when it does reject, no single-token
/// continuation parses. Where the parser disambiguates with lookahead or
/// dynamic typedef knowledge (decl-vs-expr statements, cast-vs-paren),
/// the oracle tracks the UNION of both interpretations and only dies
/// when every interpretation is dead — over-acceptance costs masking
/// precision, never correctness.
///
/// Implementation: a pushdown automaton over small 4-byte frames
/// (cc grammar productions) fed by an incremental lexer that mirrors
/// cc::Lexer byte-for-byte (maximal-munch punctuators, numeric suffixes,
/// comments, string/char escapes), keeping at most one pending lexeme
/// tail. State is a flat POD value: snapshot is a copy, rollback is a
/// copy-assign, and identical input bytes always produce memcmp-equal
/// states (property-tested), so beams can fork/reorder/retire freely.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_CC_PREFIXORACLE_H
#define SLADE_CC_PREFIXORACLE_H

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace slade {
namespace cc {

class PrefixOracle {
public:
  /// Terminal classes of the mini-C grammar. Keywords and punctuators
  /// that behave identically in every parser position share a class
  /// (e.g. all pure binary operators); ones the parser treats specially
  /// get their own. Keywords the parser never accepts (union, enum,
  /// switch, case, default, goto) and the "..." punctuator map to no
  /// class and are always rejected.
  enum Term : int {
    T_Ident,
    T_IntLit,
    T_FloatLit,
    T_CharLit,
    T_StrLit,
    T_KwType,   // void char short int long float double signed unsigned _Bool
    T_KwQual,   // const volatile restrict __restrict inline register static
    T_KwStruct,
    T_KwTypedef,
    T_KwExtern,
    T_KwSizeof,
    T_KwIf,
    T_KwElse,
    T_KwWhile,
    T_KwDo,
    T_KwFor,
    T_KwReturn,
    T_KwBreak,
    T_KwContinue,
    T_LParen,
    T_RParen,
    T_LBrace,
    T_RBrace,
    T_LBracket,
    T_RBracket,
    T_Semi,
    T_Comma,
    T_Question,
    T_Colon,
    T_Dot,
    T_Arrow,
    T_Inc,
    T_Dec,
    T_Star,
    T_Amp,
    T_Plus,
    T_Minus,
    T_Bang,
    T_Tilde,
    T_Assign,   // =
    T_OpAssign, // += -= *= /= %= &= |= ^= <<= >>=
    T_BinOp,    // || && | ^ == != < > <= >= << >> / %
    NumTerms
  };
  static constexpr uint64_t bit(int T) { return uint64_t(1) << T; }

  /// What kind of lexeme tail is pending (unfinished) in a State.
  enum PendClass : uint8_t {
    P_None,
    P_Word,    ///< identifier/keyword characters
    P_Num,     ///< numeric literal
    P_Punct,   ///< punctuator chain (maximal munch unresolved)
    P_Str,     ///< inside a string literal
    P_Chr,     ///< inside a character literal
    P_Comment, ///< inside a // or /* comment (or a # line)
  };

  static constexpr int MaxFrames = 48;

  /// One PDA frame: a grammar production in progress. POD, 4 bytes.
  struct Frame {
    uint8_t Kind = 0;
    uint8_t St = 0;
    uint8_t F0 = 0;
    uint8_t F1 = 0;
  };

  /// The full oracle cursor. Flat POD: copy to snapshot, copy-assign to
  /// roll back, memcmp to compare. advance() over the same bytes from
  /// the same start state always yields memcmp-identical states.
  struct State {
    Frame Stack[MaxFrames];
    int8_t SP = 0;        ///< frames in use (Stack[SP-1] is the top)
    uint8_t Dead = 0;     ///< no completion can parse
    uint8_t Generous = 0; ///< frame overflow: accept everything (sound)
    uint8_t Lex = 0;      ///< lexer sub-state (internal LK_* values)
    uint8_t NumSt = 0;    ///< numeric-literal sub-state when Lex is num
    uint8_t BufLen = 0;   ///< pending word/punct chain length
    uint8_t WordViaIdent = 0; ///< pending word viable as an identifier
    uint8_t MaskValid = 0;    ///< CachedMask is current
    char Buf[12] = {0};       ///< pending word (keyword window) or chain
    uint64_t CachedMask = 0;  ///< terminal classes the PDA accepts now
  };

  PrefixOracle() = default;

  /// Fresh state: empty translation unit, nothing pending.
  State start() const;

  /// Feeds \p Text (raw source bytes, any chunking). Returns false and
  /// marks the state dead when no completion of the bytes fed so far can
  /// lex+parse as a valid translation unit. Feeding a dead state stays
  /// dead. Chunk boundaries never matter: advance(S,"ab") is
  /// byte-identical to advance(S,"a"); advance(S,"b").
  bool advance(State &S, std::string_view Text) const;

  bool alive(const State &S) const { return !S.Dead; }

  /// True when the text fed so far, terminated here, is itself a
  /// complete valid translation unit (all frames closed, no unfinished
  /// literal). Gates EOS during constrained decoding.
  bool acceptsEnd(const State &S) const;

  /// Bitmask of terminal classes the PDA accepts next, ignoring any
  /// pending lexeme tail (callers resolve the tail first — see
  /// boundary()). Cached inside the state between terminals.
  uint64_t terminalMask(State &S) const;

  /// Copy of \p S with the pending lexeme resolved as if at a
  /// whitespace boundary (what feeding ' ' does, minus the space).
  /// May come back dead (e.g. an unterminated string).
  State boundary(const State &S) const;

  /// Sets \p Key to a byte string of \p S's live fields: SP,
  /// Stack[0..SP), Dead, Generous, Lex, NumSt, WordViaIdent, BufLen and
  /// Buf[0..BufLen). The cached terminal mask (a function of those
  /// fields) and stale bytes past SP or BufLen are left out. Two states
  /// get equal keys exactly when every live field is equal, so the key
  /// can index anything computed from a state, such as its vocabulary
  /// mask (nn/BeamCore.h).
  static void stateKey(const State &S, std::string &Key);

  /// Pending-tail introspection for the vocabulary-mask fast path.
  PendClass pendClass(const State &S) const;
  /// Pending word or punct chain text (empty otherwise). For words
  /// longer than the longest keyword the window is cleared — such words
  /// can only resolve to identifiers.
  std::string_view pendingText(const State &S) const;

  // -- static token tables (shared with the vocab adapter) -----------------

  /// Terminal class of keyword \p W, or -1 when the parser never
  /// accepts it (union, enum, switch, ...).
  static int keywordTerm(std::string_view W);
  /// Union of keyword terminal bits over all ACCEPTED keywords having
  /// \p Prefix as a strict or full prefix (0 when none).
  static uint64_t keywordPrefixBits(std::string_view Prefix);
  /// True when some nonempty pending word could make Pend + \p Body
  /// begin an ACCEPTED keyword — i.e. \p Body matches an accepted
  /// keyword's interior at a non-zero offset. When false, a pending
  /// word extended by \p Body can only ever flush as an identifier,
  /// letting the vocab adapter skip keywordPrefixBits entirely.
  static bool keywordMidfix(std::string_view Body);
  /// Terminal class of punctuator spelling \p P, or -1 (e.g. "...").
  static int punctTerm(std::string_view P);
  /// Union of punct terminal bits reachable from chain \p Prefix by
  /// maximal-munch extension (includes the chain itself when complete).
  static uint64_t punctPrefixBits(std::string_view Prefix);
  /// True when \p Chain + \p C is still a punctuator or a prefix of one.
  static bool punctExtends(std::string_view Chain, char C);

private:
  // Terminal-level PDA step. Returns false when the terminal is not
  // acceptable (state marked dead by the caller as appropriate).
  bool stepTerminal(State &S, int T) const;
  // Feed one raw byte through the incremental lexer.
  void feedChar(State &S, char C) const;
  // Resolve the pending lexeme (boundary reached); feeds terminals.
  void flushPending(State &S) const;
  // Feed terminal T; kill the state when unacceptable.
  void feedTerminal(State &S, int T) const;
  uint64_t computeMask(const State &S) const;
};

} // namespace cc
} // namespace slade

#endif // SLADE_CC_PREFIXORACLE_H
