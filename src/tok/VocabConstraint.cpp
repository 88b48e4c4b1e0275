//===- VocabConstraint.cpp - vocab masking over a C-prefix oracle -------------===//

#include "tok/VocabConstraint.h"

#include "support/StringUtils.h"

#include <cctype>

using namespace slade;
using namespace slade::tok;
using cc::PrefixOracle;

namespace {

bool isIdentChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

bool allIdentChars(const std::string &S) {
  for (char C : S)
    if (!isIdentChar(C))
      return false;
  return !S.empty();
}

bool allDigits(const std::string &S) {
  for (char C : S)
    if (!std::isdigit(static_cast<unsigned char>(C)))
      return false;
  return !S.empty();
}

/// Terminal bits admitting single punctuation char \p C at a boundary.
/// Returns ~0 for chars that may contribute nothing (comment starters),
/// 0 for chars the frontend can never accept.
uint64_t punctCharBits(char C) {
  switch (C) {
  case '"':
    return PrefixOracle::bit(PrefixOracle::T_StrLit);
  case '\'':
    return PrefixOracle::bit(PrefixOracle::T_CharLit);
  case '.':
    // Member access, or the start of a fraction-first float literal.
    return PrefixOracle::bit(PrefixOracle::T_Dot) |
           PrefixOracle::bit(PrefixOracle::T_FloatLit);
  case '/':
    // Division, /=, or the start of a comment (which contributes no
    // terminal at all) — never maskable at an alive boundary.
    return ~uint64_t(0);
  default:
    return PrefixOracle::punctPrefixBits(std::string_view(&C, 1));
  }
}

} // namespace

VocabConstraint::VocabConstraint(const Tokenizer &Tok) {
  size_t V = Tok.vocabSize();
  Text.resize(V);
  Body.resize(V);
  Kind.assign(V, PK_Generic);
  LeadSpace.assign(V, 0);
  BoundaryBits.assign(V, 0);
  GenericSlow.assign(V, 0);
  KwMidfix.assign(V, 0);
  for (size_t Id = 0; Id < V; ++Id) {
    if (Id == Tokenizer::PadId || Id == Tokenizer::BosId ||
        Id == Tokenizer::EosId || Id == Tokenizer::UnkId) {
      Kind[Id] = PK_Special;
      continue;
    }
    // Exactly what Tokenizer::decode contributes for this id.
    std::string T =
        replaceAll(std::string(Tok.piece(static_cast<int>(Id))),
                   metaspace(), " ");
    Text[Id] = T;
    size_t B = 0;
    while (B < T.size() && T[B] == ' ')
      ++B;
    LeadSpace[Id] = B > 0;
    Body[Id] = T.substr(B);
    const std::string &Bd = Body[Id];
    if (Bd.empty()) {
      Kind[Id] = PK_Empty;
    } else if (allDigits(Bd)) {
      Kind[Id] = PK_Digits;
      BoundaryBits[Id] = PrefixOracle::bit(PrefixOracle::T_IntLit) |
                         PrefixOracle::bit(PrefixOracle::T_FloatLit);
    } else if (allIdentChars(Bd) &&
               !std::isdigit(static_cast<unsigned char>(Bd[0]))) {
      Kind[Id] = PK_Word;
      BoundaryBits[Id] = PrefixOracle::bit(PrefixOracle::T_Ident) |
                         PrefixOracle::keywordPrefixBits(Bd);
      KwMidfix[Id] = PrefixOracle::keywordMidfix(Bd);
    } else if (Bd[0] == '.' && Bd.size() > 1 &&
               allIdentChars(Bd.substr(1))) {
      // ".b" / ".L4" word atoms: the dot flushes as T_Dot by maximal
      // munch, then the tail pends as a word.
      Kind[Id] = PK_DotWord;
      BoundaryBits[Id] = PrefixOracle::bit(PrefixOracle::T_Dot);
    } else if (Bd.size() == 1 && !isIdentChar(Bd[0]) && Bd[0] != '#') {
      Kind[Id] = PK_Punct;
      BoundaryBits[Id] = punctCharBits(Bd[0]);
    } else {
      // Mixed bodies ("a = ", "();", "5b"...): PK_Generic. At a clean
      // boundary only the FIRST terminal decides admissibility — a
      // later char that kills the parse still dies in advanceToken, so
      // the beam is fully masked next step. Precompute that terminal's
      // bits (over-approximate where the piece ends mid-lexeme);
      // full simulation is then only needed mid-lexeme.
      char C = Bd[0];
      if (C == '#') {
        GenericSlow[Id] = 1; // Preprocessor-ish: simulate.
      } else if (std::isdigit(static_cast<unsigned char>(C))) {
        BoundaryBits[Id] = PrefixOracle::bit(PrefixOracle::T_IntLit) |
                           PrefixOracle::bit(PrefixOracle::T_FloatLit);
      } else if (isIdentChar(C)) {
        size_t R = 1;
        while (R < Bd.size() && isIdentChar(Bd[R]))
          ++R;
        if (R >= Bd.size()) {
          // Word runs to the piece's end: still open, may extend.
          BoundaryBits[Id] =
              PrefixOracle::bit(PrefixOracle::T_Ident) |
              PrefixOracle::keywordPrefixBits(Bd.substr(0, R));
        } else if (R > 10) {
          BoundaryBits[Id] = PrefixOracle::bit(PrefixOracle::T_Ident);
        } else {
          int Kw = PrefixOracle::keywordTerm(Bd.substr(0, R));
          BoundaryBits[Id] = Kw >= 0 ? PrefixOracle::bit(Kw) : 0;
        }
      } else {
        BoundaryBits[Id] = punctCharBits(C);
      }
    }
  }
}

int VocabConstraint::allowedTokens(const PrefixOracle::State &S,
                                   std::vector<uint8_t> &Allowed) const {
  size_t V = Text.size();
  Allowed.assign(V, 0);
  if (S.Dead)
    return static_cast<int>(V);

  // One boundary resolution + two mask queries per beam step; the fast
  // paths below are then a single AND per piece.
  PrefixOracle::State Bnd = Oracle.boundary(S);
  bool BndAlive = !Bnd.Dead;
  uint64_t MaskB = BndAlive ? Oracle.terminalMask(Bnd) : 0;
  bool EndOK = Oracle.acceptsEnd(S);
  PrefixOracle::PendClass PC = Oracle.pendClass(S);
  PrefixOracle::State SC = S; // terminalMask caches into the state
  uint64_t MaskP = Oracle.terminalMask(SC);
  std::string_view Pend = Oracle.pendingText(S);
  // Inside a string/char/comment a space is literal content, not a
  // lexeme boundary — the boundary-resolution fast paths are wrong
  // there, so every piece takes the generic path.
  bool BoundaryFast = PC == PrefixOracle::P_None ||
                      PC == PrefixOracle::P_Word ||
                      PC == PrefixOracle::P_Num ||
                      PC == PrefixOracle::P_Punct;

  int Masked = 0;
  for (size_t Id = 0; Id < V; ++Id) {
    bool Ok = false;
    switch (Kind[Id]) {
    case PK_Special:
      Ok = (Id == Tokenizer::EosId || Id == Tokenizer::PadId) && EndOK;
      break;
    case PK_Empty:
      // A bare space: flushes any pending lexeme (generic when the
      // pending lexeme swallows spaces — handled by BoundaryFast).
      Ok = BoundaryFast ? BndAlive : genericAllowed(S, Id);
      break;
    default: {
      if (!BoundaryFast) {
        Ok = genericAllowed(S, Id); // Inside string/char/comment.
        break;
      }
      // Does this piece START A NEW LEXEME? A leading space always
      // flushes whatever pends; otherwise the piece's first char must
      // be unable to extend the pending lexeme. boundary(S) performs
      // exactly that flush, so MaskB decides new-lexeme pieces with one
      // AND. (P_Num pendings extend through ident chars, '.', and even
      // '+'/'-' after an exponent — only a space is safely a flush.)
      bool NewLexeme;
      char F = Body[Id][0];
      if (LeadSpace[Id] || PC == PrefixOracle::P_None)
        NewLexeme = true;
      else if (PC == PrefixOracle::P_Word)
        NewLexeme = !isIdentChar(F);
      else if (PC == PrefixOracle::P_Punct)
        // Pending chains are "<", ">", "<<", ">>", "..": only these
        // chars can extend one ("<=", "<<=", "...").
        NewLexeme = F != '<' && F != '>' && F != '=' && F != '.';
      else // P_Num
        NewLexeme = false;
      if (NewLexeme && !GenericSlow[Id]) {
        Ok = BndAlive && (MaskB & BoundaryBits[Id]) != 0;
      } else if (PC == PrefixOracle::P_Word &&
                 (Kind[Id] == PK_Word || Kind[Id] == PK_Digits)) {
        // Continue the pending identifier/keyword: viable iff the word
        // can still flush as something the PDA accepts. Identifiers
        // decide almost every piece with one AND; the keyword check
        // (which allocates) only runs for bodies that can actually sit
        // inside a keyword.
        if (MaskP & PrefixOracle::bit(PrefixOracle::T_Ident))
          Ok = true;
        else if (!Pend.empty() && KwMidfix[Id])
          Ok = (MaskP & PrefixOracle::keywordPrefixBits(
                            std::string(Pend) + Body[Id])) != 0;
        else
          Ok = false;
      } else {
        Ok = genericAllowed(S, Id);
      }
      break;
    }
    }
    Allowed[Id] = Ok;
    Masked += !Ok;
  }
  return Masked;
}

const VocabConstraint::Mask &
VocabConstraint::mask(const PrefixOracle::State &S,
                      MaskScratch &Scratch) const {
  PrefixOracle::stateKey(S, Scratch.Key);
  {
    std::lock_guard<std::mutex> Lock(MaskMu);
    auto It = Masks.find(Scratch.Key);
    if (It != Masks.end())
      return It->second;
  }
  // Computed outside the lock, so a miss never stalls another decode's
  // hits; two decodes missing one state both compute it, and the first
  // insert wins (the masks are equal).
  Mask &M = Scratch.Own;
  M.Masked = allowedTokens(S, M.Allowed);
  M.Ids.clear();
  for (size_t I = 0; I < M.Allowed.size(); ++I)
    if (M.Allowed[I])
      M.Ids.push_back(static_cast<uint16_t>(I));
  std::lock_guard<std::mutex> Lock(MaskMu);
  if (Masks.size() >= MaskCacheCap)
    return M;
  return Masks.try_emplace(Scratch.Key, std::move(M)).first->second;
}

size_t VocabConstraint::cachedMasks() const {
  std::lock_guard<std::mutex> Lock(MaskMu);
  return Masks.size();
}

bool VocabConstraint::genericAllowed(const PrefixOracle::State &S,
                                     size_t Id) const {
  PrefixOracle::State T = S;
  return Oracle.advance(T, Text[Id]);
}

bool VocabConstraint::advanceToken(PrefixOracle::State &S, int Id) const {
  if (Id < 0 || static_cast<size_t>(Id) >= Text.size())
    return Oracle.alive(S);
  return Oracle.advance(S, Text[static_cast<size_t>(Id)]);
}
