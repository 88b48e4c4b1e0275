//===- PrefixOracle.cpp - incremental C-prefix acceptability ---------------===//
//
// A pushdown automaton over the mini-C grammar accepted by cc::Parser in
// Partial mode, fed by an incremental lexer that mirrors cc::Lexer
// byte-for-byte. See PrefixOracle.h for the soundness contract; the
// differential test in tests/test_constrain.cpp pins this file against the
// real frontend.
//
// Structure of this file:
//   1. Static token tables (keywords, punctuators, maximal-munch chains).
//   2. The PDA: frame kinds, per-frame transition tables (stepFrame),
//      pop rules, and the terminal feed loop.
//   3. The incremental lexer (feedChar/flushPending) that turns raw bytes
//      into Term terminals at exactly the boundaries cc::Lexer would.
//
// Where the parser disambiguates with lookahead or typedef knowledge the
// PDA tracks the union of interpretations (K_IdentStmt for decl-vs-expr,
// E_MaybeCastOp for cast-vs-paren); it only rejects when every
// interpretation rejects, so rejection always implies a real parse error.
//
//===----------------------------------------------------------------------===//

#include "cc/PrefixOracle.h"

#include <cassert>
#include <cctype>

using namespace slade;
using namespace slade::cc;

namespace {

//===----------------------------------------------------------------------===//
// 1. Token tables
//===----------------------------------------------------------------------===//

using PO = PrefixOracle;

struct KwEntry {
  const char *Word;
  int Term; // -1: lexed as a keyword but never accepted by the parser
};

// Exactly the cc::isCKeyword set. Any other word lexes as an identifier.
constexpr KwEntry Keywords[] = {
    {"void", PO::T_KwType},      {"char", PO::T_KwType},
    {"short", PO::T_KwType},     {"int", PO::T_KwType},
    {"long", PO::T_KwType},      {"float", PO::T_KwType},
    {"double", PO::T_KwType},    {"signed", PO::T_KwType},
    {"unsigned", PO::T_KwType},  {"_Bool", PO::T_KwType},
    {"const", PO::T_KwQual},     {"volatile", PO::T_KwQual},
    {"restrict", PO::T_KwQual},  {"__restrict", PO::T_KwQual},
    {"inline", PO::T_KwQual},    {"register", PO::T_KwQual},
    {"static", PO::T_KwQual},    {"struct", PO::T_KwStruct},
    {"typedef", PO::T_KwTypedef},{"extern", PO::T_KwExtern},
    {"sizeof", PO::T_KwSizeof},  {"if", PO::T_KwIf},
    {"else", PO::T_KwElse},      {"while", PO::T_KwWhile},
    {"do", PO::T_KwDo},          {"for", PO::T_KwFor},
    {"return", PO::T_KwReturn},  {"break", PO::T_KwBreak},
    {"continue", PO::T_KwContinue},
    {"union", -1}, {"enum", -1}, {"switch", -1},
    {"case", -1},  {"default", -1}, {"goto", -1},
};

struct PunctEntry {
  const char *Spelling;
  int Term;
};

// Multi-character punctuators, mirroring cc::Lexer's MultiPuncts table.
// "..." is lexed but never accepted by the parser.
constexpr PunctEntry MultiPuncts[] = {
    {"<<=", PO::T_OpAssign}, {">>=", PO::T_OpAssign}, {"...", -1},
    {"->", PO::T_Arrow},     {"++", PO::T_Inc},       {"--", PO::T_Dec},
    {"<<", PO::T_BinOp},     {">>", PO::T_BinOp},     {"<=", PO::T_BinOp},
    {">=", PO::T_BinOp},     {"==", PO::T_BinOp},     {"!=", PO::T_BinOp},
    {"&&", PO::T_BinOp},     {"||", PO::T_BinOp},     {"+=", PO::T_OpAssign},
    {"-=", PO::T_OpAssign},  {"*=", PO::T_OpAssign},  {"/=", PO::T_OpAssign},
    {"%=", PO::T_OpAssign},  {"&=", PO::T_OpAssign},  {"|=", PO::T_OpAssign},
    {"^=", PO::T_OpAssign},
};

constexpr PunctEntry SinglePuncts[] = {
    {"+", PO::T_Plus},     {"-", PO::T_Minus},    {"*", PO::T_Star},
    {"/", PO::T_BinOp},    {"%", PO::T_BinOp},    {"<", PO::T_BinOp},
    {">", PO::T_BinOp},    {"=", PO::T_Assign},   {"!", PO::T_Bang},
    {"&", PO::T_Amp},      {"|", PO::T_BinOp},    {"^", PO::T_BinOp},
    {"~", PO::T_Tilde},    {"?", PO::T_Question}, {":", PO::T_Colon},
    {";", PO::T_Semi},     {",", PO::T_Comma},    {".", PO::T_Dot},
    {"(", PO::T_LParen},   {")", PO::T_RParen},   {"{", PO::T_LBrace},
    {"}", PO::T_RBrace},   {"[", PO::T_LBracket}, {"]", PO::T_RBracket},
};

bool identStart(char C) {
  return std::isalpha(static_cast<unsigned char>(C)) || C == '_';
}
bool identChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}
bool isDigitC(char C) { return std::isdigit(static_cast<unsigned char>(C)); }
bool isXDigit(char C) { return std::isxdigit(static_cast<unsigned char>(C)); }
bool numSuffix(char C) {
  return C == 'u' || C == 'U' || C == 'l' || C == 'L' || C == 'f' || C == 'F';
}

//===----------------------------------------------------------------------===//
// 2. PDA tables
//===----------------------------------------------------------------------===//

enum FrameKind : uint8_t {
  K_TU = 0,     // translation unit (bottom frame, never popped)
  K_Type,       // type-specifier (quals, builtins, named, struct [body])
  K_StructBody, // struct field list after '{'
  K_Typedef,    // typedef <type> <pointers> <name> ;
  K_TopDecl,    // top-level function or global(s); F0=1: bare-struct form
  K_Params,     // function parameter list after '('
  K_Block,      // compound statement after '{'
  K_Stmt,       // statement dispatcher (transmutes in place)
  K_If,
  K_While,
  K_Do,
  K_For,
  K_Return,
  K_SimpleStmt, // break/continue/empty: just needs ';'
  K_LocalDecl,  // local declaration, consumes trailing ';'
  K_IdentStmt,  // statement starting with an identifier (decl/expr union)
  K_ExprStmt,   // expression statement, consumes trailing ';'
  K_Expr,       // expression (assignment/conditional/binary/postfix union)
};

// K_Expr states.
enum ExprState : uint8_t {
  E_NeedOp = 0,      // expecting an operand (or prefix operator)
  E_HaveOp,          // operand complete; operator/postfix/end may follow
  E_Member,          // after '.'/'->': field name required
  E_CloseGroup,      // after '(expr': ')' required
  E_CloseIndex,      // after '[expr': ']' required
  E_CloseTern,       // after '?expr': ':' required
  E_CallOpen,        // after 'ident(': ')' or first argument
  E_CallArgs,        // between call arguments: ',' or ')'
  E_ParenDispatch,   // after '(': cast vs group vs ambiguous-name
  E_CastClose,       // after '(<type-kw ...>': '*' or ')'
  E_CastPtr,         // pointer suffix inside a cast: '*'/qual/')'
  E_AmbClose,        // after '(name...': ')' closes group or cast
  E_MaybeCastOp,     // '(name)' seen: operand-done OR cast-pending union
  E_AmbCallOpen,     // '(name)(': call args or cast-of-paren-expr
  E_AmbCallClose,    // after '(name)(expr': ')' required
  E_Sizeof,          // after 'sizeof'
  E_SizeofParen,     // after 'sizeof('
  E_SizeofCastClose, // after 'sizeof(<type>': '*' or ')'
  E_SizeofCastPtr,   // pointer suffix inside sizeof(type)
  E_SizeofClose,     // after 'sizeof(expr': ')' required
};

// K_Expr F0 flags.
constexpr uint8_t X_CommaOk = 1; // comma continues this expression
constexpr uint8_t X_TypeCtx = 2; // `Ident *...` may close as a type name

// K_Expr F1 flags.
constexpr uint8_t XF_TypeViable = 1;  // content so far is Ident Star*
constexpr uint8_t XF_SawOp = 2;       // any operator consumed
constexpr uint8_t XF_OperandVar = 4;  // last operand is a plain VarRef
constexpr uint8_t XF_Seen = 8;        // at least one terminal consumed
constexpr uint8_t XF_ChildTV = 16;    // last popped child was type-viable
constexpr uint8_t XF_ChildPure = 32;  // last popped child was a pure VarRef

constexpr uint64_t B_TypeStart = PO::bit(PO::T_KwType) | PO::bit(PO::T_KwQual) |
                                 PO::bit(PO::T_KwStruct) | PO::bit(PO::T_Ident);
constexpr uint64_t B_UnaryPre =
    PO::bit(PO::T_Star) | PO::bit(PO::T_Amp) | PO::bit(PO::T_Plus) |
    PO::bit(PO::T_Minus) | PO::bit(PO::T_Bang) | PO::bit(PO::T_Tilde) |
    PO::bit(PO::T_Inc) | PO::bit(PO::T_Dec);
constexpr uint64_t B_Literal = PO::bit(PO::T_IntLit) | PO::bit(PO::T_FloatLit) |
                               PO::bit(PO::T_CharLit) | PO::bit(PO::T_StrLit);
constexpr uint64_t B_ExprStart = B_Literal | PO::bit(PO::T_Ident) |
                                 PO::bit(PO::T_LParen) | B_UnaryPre |
                                 PO::bit(PO::T_KwSizeof);
constexpr uint64_t B_StmtStart =
    PO::bit(PO::T_LBrace) | PO::bit(PO::T_Semi) | PO::bit(PO::T_KwIf) |
    PO::bit(PO::T_KwWhile) | PO::bit(PO::T_KwDo) | PO::bit(PO::T_KwFor) |
    PO::bit(PO::T_KwReturn) | PO::bit(PO::T_KwBreak) |
    PO::bit(PO::T_KwContinue) | B_TypeStart | B_ExprStart;

bool inSet(uint64_t Set, int T) { return (Set >> T) & 1; }

// stepFrame outcomes.
enum StepAct { A_Consumed, A_Again, A_NoMatch, A_Reject };

using Frame = PO::Frame;
using State = PO::State;

// Pushes a frame; on overflow flips the state to Generous (sound: accept
// everything from here on) and reports failure so the caller can stop.
bool pushFrame(State &S, uint8_t Kind, uint8_t St, uint8_t F0 = 0,
               uint8_t F1 = 0) {
  if (S.SP >= PO::MaxFrames) {
    S.Generous = 1;
    return false;
  }
  S.Stack[S.SP++] = Frame{Kind, St, F0, F1};
  return true;
}

// True when the frame, as it stands, may complete and return control to
// its parent without consuming another terminal.
bool poppable(const Frame &F) {
  switch (F.Kind) {
  case K_Type:
    return F.St == 1 || F.St == 3 || F.St == 4;
  case K_TopDecl:
    return F.St == 13;
  case K_If:
    return F.St == 3 || F.St == 5;
  case K_While:
    return F.St == 3;
  case K_For:
    return F.St == 8;
  case K_Expr:
    if (F.St == E_HaveOp || F.St == E_MaybeCastOp)
      return true;
    return F.St == E_NeedOp && (F.F0 & X_TypeCtx) && (F.F1 & XF_TypeViable) &&
           (F.F1 & XF_Seen);
  default:
    return false;
  }
}

void popFrame(State &S) {
  --S.SP;
  const Frame &Child = S.Stack[S.SP];
  Frame &Parent = S.Stack[S.SP - 1];
  if (Child.Kind == K_Expr && Parent.Kind == K_Expr) {
    Parent.F1 &= static_cast<uint8_t>(~(XF_ChildTV | XF_ChildPure));
    if (Child.F1 & XF_TypeViable)
      Parent.F1 |= XF_ChildTV;
    if ((Child.F1 & XF_OperandVar) && !(Child.F1 & XF_SawOp))
      Parent.F1 |= XF_ChildPure;
  }
}

// Notes a terminal consumed directly by a K_Expr frame: maintains the
// "could still be a type name" view (Ident then Stars only).
void exprNote(Frame &F, int T) {
  if (!(F.F1 & XF_Seen)) {
    F.F1 |= XF_Seen;
    if (T == PO::T_Ident)
      F.F1 |= XF_TypeViable;
  } else if (T != PO::T_Star) {
    F.F1 &= static_cast<uint8_t>(~XF_TypeViable);
  }
}

void setVar(Frame &F, bool IsVar) {
  if (IsVar)
    F.F1 |= XF_OperandVar;
  else
    F.F1 &= static_cast<uint8_t>(~XF_OperandVar);
}

// Pushes a fresh sub-expression; Parent.St must already hold the resume
// state (continuation-passing).
bool pushExpr(State &S, uint8_t F0, uint8_t St = E_NeedOp, uint8_t F1 = 0) {
  return pushFrame(S, K_Expr, St, F0, F1);
}

StepAct stepExpr(State &S, Frame &F, int T);
StepAct stepFrame(State &S, Frame &F, int T);

// One operand/operator step shared by E_HaveOp and the ambiguous
// E_MaybeCastOp ("operator view"). Returns A_NoMatch when T cannot extend
// the completed operand.
StepAct stepAfterOperand(State &S, Frame &F, int T) {
  switch (T) {
  case PO::T_BinOp:
  case PO::T_Star:
  case PO::T_Amp:
  case PO::T_Plus:
  case PO::T_Minus:
  case PO::T_Assign:
  case PO::T_OpAssign:
    F.St = E_NeedOp;
    F.F1 |= XF_SawOp;
    exprNote(F, T);
    return A_Consumed;
  case PO::T_Question:
    F.St = E_CloseTern;
    F.F1 |= XF_SawOp;
    exprNote(F, T);
    pushExpr(S, X_CommaOk);
    return A_Consumed;
  case PO::T_Comma:
    if (!(F.F0 & X_CommaOk))
      return A_NoMatch;
    F.St = E_NeedOp;
    F.F1 |= XF_SawOp;
    exprNote(F, T);
    return A_Consumed;
  case PO::T_LBracket:
    F.St = E_CloseIndex;
    F.F1 |= XF_SawOp;
    setVar(F, false);
    exprNote(F, T);
    pushExpr(S, X_CommaOk);
    return A_Consumed;
  case PO::T_Dot:
  case PO::T_Arrow:
    F.St = E_Member;
    F.F1 |= XF_SawOp;
    exprNote(F, T);
    return A_Consumed;
  case PO::T_Inc:
  case PO::T_Dec:
    // Postfix: result is no longer a VarRef, so no call may follow.
    F.F1 |= XF_SawOp;
    setVar(F, false);
    exprNote(F, T);
    return A_Consumed;
  case PO::T_LParen:
    // Calls are only valid on a direct name (parser: dyn_cast<VarRef>).
    if (!(F.F1 & XF_OperandVar))
      return A_NoMatch;
    F.St = E_CallOpen;
    F.F1 |= XF_SawOp;
    exprNote(F, T);
    return A_Consumed;
  default:
    return A_NoMatch;
  }
}

// Consume an operand-start terminal from E_NeedOp (shared with the
// operand view of E_MaybeCastOp). Returns A_NoMatch if T is not one.
StepAct stepOperandStart(Frame &F, int T) {
  if (inSet(B_Literal, T)) {
    F.St = E_HaveOp;
    setVar(F, false);
    exprNote(F, T);
    return A_Consumed;
  }
  switch (T) {
  case PO::T_Ident:
    F.St = E_HaveOp;
    setVar(F, true);
    exprNote(F, T);
    return A_Consumed;
  case PO::T_Star:
  case PO::T_Amp:
  case PO::T_Plus:
  case PO::T_Minus:
  case PO::T_Bang:
  case PO::T_Tilde:
  case PO::T_Inc:
  case PO::T_Dec:
    F.St = E_NeedOp;
    F.F1 |= XF_SawOp;
    setVar(F, false);
    exprNote(F, T);
    return A_Consumed;
  case PO::T_KwSizeof:
    F.St = E_Sizeof;
    F.F1 |= XF_SawOp;
    setVar(F, false);
    exprNote(F, T);
    return A_Consumed;
  case PO::T_LParen:
    F.St = E_ParenDispatch;
    setVar(F, false);
    exprNote(F, T);
    return A_Consumed;
  default:
    return A_NoMatch;
  }
}

StepAct stepExpr(State &S, Frame &F, int T) {
  switch (F.St) {
  case E_NeedOp: {
    return stepOperandStart(F, T);
  }

  case E_HaveOp:
    return stepAfterOperand(S, F, T);

  case E_MaybeCastOp: {
    // Union of "operand complete" (paren expression) and "cast pending"
    // (operand still to come). Operand-start terminals take the cast
    // reading; operator terminals take the expression reading; both
    // readings converge for the dual-use ones.
    if (T == PO::T_LParen) {
      F.St = E_AmbCallOpen;
      F.F1 |= XF_SawOp;
      exprNote(F, T);
      return A_Consumed;
    }
    if (T == PO::T_Inc || T == PO::T_Dec) {
      // Expression reading: postfix. Cast reading: prefix on the operand
      // to come. Stay ambiguous; either way no longer a plain VarRef.
      F.F1 |= XF_SawOp;
      setVar(F, false);
      exprNote(F, T);
      return A_Consumed;
    }
    if (T == PO::T_Bang || T == PO::T_Tilde || T == PO::T_KwSizeof ||
        inSet(B_Literal, T) || T == PO::T_Ident) {
      StepAct A = stepOperandStart(F, T);
      if (A != A_NoMatch)
        return A;
    }
    return stepAfterOperand(S, F, T);
  }

  case E_Member:
    if (T == PO::T_Ident) {
      F.St = E_HaveOp;
      setVar(F, false);
      exprNote(F, T);
      return A_Consumed;
    }
    return A_Reject;

  case E_CloseGroup:
    if (T == PO::T_RParen) {
      F.St = E_HaveOp;
      setVar(F, (F.F1 & XF_ChildPure) != 0);
      exprNote(F, T);
      return A_Consumed;
    }
    return A_Reject;

  case E_CloseIndex:
    if (T == PO::T_RBracket) {
      F.St = E_HaveOp;
      setVar(F, false);
      exprNote(F, T);
      return A_Consumed;
    }
    return A_Reject;

  case E_CloseTern:
    if (T == PO::T_Colon) {
      F.St = E_NeedOp;
      exprNote(F, T);
      return A_Consumed;
    }
    return A_Reject;

  case E_CallOpen:
    if (T == PO::T_RParen) {
      F.St = E_HaveOp;
      setVar(F, false);
      exprNote(F, T);
      return A_Consumed;
    }
    if (inSet(B_ExprStart, T)) {
      F.St = E_CallArgs;
      pushExpr(S, 0);
      return A_Again;
    }
    return A_Reject;

  case E_CallArgs:
    if (T == PO::T_Comma) {
      exprNote(F, T);
      pushExpr(S, 0);
      return A_Consumed;
    }
    if (T == PO::T_RParen) {
      F.St = E_HaveOp;
      setVar(F, false);
      exprNote(F, T);
      return A_Consumed;
    }
    return A_Reject;

  case E_ParenDispatch:
    if (T == PO::T_KwType || T == PO::T_KwQual || T == PO::T_KwStruct) {
      F.St = E_CastClose;
      pushFrame(S, K_Type, 0);
      return A_Again;
    }
    if (T == PO::T_Ident) {
      // `(name ...`: paren expression or cast by an (unknown) type name.
      F.St = E_AmbClose;
      pushExpr(S, X_CommaOk | X_TypeCtx);
      return A_Again;
    }
    if (inSet(B_ExprStart, T)) {
      F.St = E_CloseGroup;
      pushExpr(S, X_CommaOk);
      return A_Again;
    }
    return A_Reject;

  case E_CastClose:
    if (T == PO::T_Star) {
      F.St = E_CastPtr;
      exprNote(F, T);
      return A_Consumed;
    }
    if (T == PO::T_RParen) {
      F.St = E_NeedOp;
      F.F1 |= XF_SawOp;
      exprNote(F, T);
      return A_Consumed;
    }
    return A_Reject;

  case E_CastPtr:
    if (T == PO::T_Star || T == PO::T_KwQual) {
      exprNote(F, T);
      return A_Consumed;
    }
    if (T == PO::T_RParen) {
      F.St = E_NeedOp;
      F.F1 |= XF_SawOp;
      exprNote(F, T);
      return A_Consumed;
    }
    return A_Reject;

  case E_AmbClose:
    if (T == PO::T_RParen) {
      F.St = (F.F1 & XF_ChildTV) ? E_MaybeCastOp : E_HaveOp;
      setVar(F, (F.F1 & XF_ChildPure) != 0);
      exprNote(F, T);
      return A_Consumed;
    }
    return A_Reject;

  case E_AmbCallOpen:
    if (T == PO::T_RParen) {
      F.St = E_HaveOp;
      setVar(F, false);
      exprNote(F, T);
      return A_Consumed;
    }
    if (inSet(B_ExprStart, T)) {
      F.St = E_AmbCallClose;
      pushExpr(S, X_CommaOk | X_TypeCtx);
      return A_Again;
    }
    return A_Reject;

  case E_AmbCallClose:
    if (T == PO::T_RParen) {
      // Call reading resolves to a CallExpr; cast reading to a cast of a
      // parenthesized expression, which may itself be a chained cast
      // `(T)(U)z` — keep the ambiguity when the inner text was a viable
      // type name.
      F.St = (F.F1 & XF_ChildTV) ? E_MaybeCastOp : E_HaveOp;
      setVar(F, (F.F1 & XF_ChildPure) != 0);
      exprNote(F, T);
      return A_Consumed;
    }
    return A_Reject;

  case E_Sizeof:
    if (T == PO::T_LParen) {
      F.St = E_SizeofParen;
      exprNote(F, T);
      return A_Consumed;
    }
    if (inSet(B_ExprStart, T)) {
      F.St = E_NeedOp;
      return A_Again;
    }
    return A_Reject;

  case E_SizeofParen:
    if (T == PO::T_KwType || T == PO::T_KwQual || T == PO::T_KwStruct) {
      F.St = E_SizeofCastClose;
      pushFrame(S, K_Type, 0);
      return A_Again;
    }
    if (T == PO::T_Ident) {
      F.St = E_SizeofClose;
      pushExpr(S, X_CommaOk | X_TypeCtx);
      return A_Again;
    }
    if (inSet(B_ExprStart, T)) {
      F.St = E_SizeofClose;
      pushExpr(S, X_CommaOk);
      return A_Again;
    }
    return A_Reject;

  case E_SizeofCastClose:
    if (T == PO::T_Star) {
      F.St = E_SizeofCastPtr;
      exprNote(F, T);
      return A_Consumed;
    }
    if (T == PO::T_RParen) {
      F.St = E_HaveOp;
      setVar(F, false);
      exprNote(F, T);
      return A_Consumed;
    }
    return A_Reject;

  case E_SizeofCastPtr:
    if (T == PO::T_Star || T == PO::T_KwQual) {
      exprNote(F, T);
      return A_Consumed;
    }
    if (T == PO::T_RParen) {
      F.St = E_HaveOp;
      setVar(F, false);
      exprNote(F, T);
      return A_Consumed;
    }
    return A_Reject;

  case E_SizeofClose:
    if (T == PO::T_RParen) {
      F.St = E_HaveOp;
      // `sizeof(x)` keeps postfix rights of the parenthesized operand
      // when the parser takes the expression reading: `sizeof(f)(a)`.
      setVar(F, (F.F1 & XF_ChildPure) != 0);
      exprNote(F, T);
      return A_Consumed;
    }
    return A_Reject;
  }
  return A_Reject;
}

// Starts a declarator-pointer run shared by several frames: states are
// encoded by the caller; this just factors the transition test.
bool isQual(int T) { return T == PO::T_KwQual; }

StepAct stepFrame(State &S, Frame &F, int T) {
  switch (F.Kind) {
  //=== translation unit ===================================================//
  case K_TU:
    switch (F.St) {
    case 0:
      if (T == PO::T_Semi)
        return A_Consumed; // stray top-level ';' skipped by the parser
      if (T == PO::T_KwTypedef) {
        pushFrame(S, K_Typedef, 0);
        return A_Consumed;
      }
      if (T == PO::T_KwStruct) {
        // Bare `struct S { ... };` or `struct S declarator ...`.
        pushFrame(S, K_TopDecl, 20, /*F0=*/1);
        return A_Consumed;
      }
      if (T == PO::T_KwExtern) {
        F.St = 1;
        return A_Consumed;
      }
      if (T == PO::T_KwType || T == PO::T_KwQual || T == PO::T_Ident) {
        pushFrame(S, K_TopDecl, 0);
        return A_Again;
      }
      return A_Reject;
    case 1: // after `extern`+
      if (T == PO::T_KwExtern)
        return A_Consumed;
      if (inSet(B_TypeStart, T)) {
        F.St = 0;
        pushFrame(S, K_TopDecl, 0);
        return A_Again;
      }
      return A_Reject;
    }
    return A_Reject;

  //=== type specifier =====================================================//
  // St0: nothing but qualifiers yet. St1: builtin(s) seen (complete).
  // St2: `struct` seen. St3: `struct Ident` (complete; body may open).
  // St4: body closed (complete).
  case K_Type:
    switch (F.St) {
    case 0:
      if (isQual(T))
        return A_Consumed;
      if (T == PO::T_KwType) {
        F.St = 1;
        return A_Consumed;
      }
      if (T == PO::T_KwStruct) {
        F.St = 2;
        return A_Consumed;
      }
      if (T == PO::T_Ident) {
        // Partial mode: any identifier names a type; it completes the
        // specifier immediately (no trailing qualifiers).
        popFrame(S);
        return A_Consumed;
      }
      return A_Reject;
    case 1:
      if (T == PO::T_KwType || isQual(T))
        return A_Consumed;
      return A_NoMatch;
    case 2:
      if (T == PO::T_Ident) {
        F.St = 3;
        return A_Consumed;
      }
      return A_Reject;
    case 3:
      if (T == PO::T_LBrace) {
        F.St = 4;
        pushFrame(S, K_StructBody, 0);
        return A_Consumed;
      }
      return A_NoMatch;
    case 4:
      return A_NoMatch;
    }
    return A_Reject;

  //=== struct field list (after '{') ======================================//
  // St0: field start or '}'. St1: after field type. St2: after name.
  // St3: '[' seen. St4: size seen. St5: ']' seen.
  case K_StructBody:
    switch (F.St) {
    case 0:
      if (T == PO::T_RBrace) {
        popFrame(S);
        return A_Consumed;
      }
      if (inSet(B_TypeStart, T)) {
        F.St = 1;
        pushFrame(S, K_Type, 0);
        return A_Again;
      }
      return A_Reject;
    case 1:
      if (T == PO::T_Star) {
        F.F0 = 1; // pointer run started: qualifiers now allowed
        return A_Consumed;
      }
      if (F.F0 && isQual(T))
        return A_Consumed;
      if (T == PO::T_Ident) {
        F.St = 2;
        F.F0 = 0;
        return A_Consumed;
      }
      return A_Reject;
    case 2:
      if (T == PO::T_LBracket) {
        F.St = 3;
        return A_Consumed;
      }
      if (T == PO::T_Comma) {
        F.St = 1;
        return A_Consumed;
      }
      if (T == PO::T_Semi) {
        F.St = 0;
        return A_Consumed;
      }
      return A_Reject;
    case 3:
      if (T == PO::T_IntLit) {
        F.St = 4;
        return A_Consumed;
      }
      return A_Reject;
    case 4:
      if (T == PO::T_RBracket) {
        F.St = 5;
        return A_Consumed;
      }
      return A_Reject;
    case 5: // fields take at most one array suffix
      if (T == PO::T_Comma) {
        F.St = 1;
        return A_Consumed;
      }
      if (T == PO::T_Semi) {
        F.St = 0;
        return A_Consumed;
      }
      return A_Reject;
    }
    return A_Reject;

  //=== typedef ============================================================//
  // St0: type expected. St1: after type. St2: after name.
  case K_Typedef:
    switch (F.St) {
    case 0:
      if (inSet(B_TypeStart, T)) {
        F.St = 1;
        pushFrame(S, K_Type, 0);
        return A_Again;
      }
      return A_Reject;
    case 1:
      if (T == PO::T_Star) {
        F.F0 = 1;
        return A_Consumed;
      }
      if (F.F0 && isQual(T))
        return A_Consumed;
      if (T == PO::T_Ident) {
        F.St = 2;
        return A_Consumed;
      }
      return A_Reject;
    case 2:
      if (T == PO::T_Semi) {
        popFrame(S);
        return A_Consumed;
      }
      return A_Reject;
    }
    return A_Reject;

  //=== top-level function or global(s) ====================================//
  // St0: type expected. St1/+F0: declarator pointers. St2: first
  // declarator named. St5..5c: array suffix. St6: after ','. St8: after
  // initializer. St9: subsequent declarator named. St10: params done.
  // St13: function body done (auto-pop). St20/21/23: bare-struct form.
  case K_TopDecl:
    switch (F.St) {
    case 0:
      if (inSet(B_TypeStart, T)) {
        F.St = 1;
        pushFrame(S, K_Type, 0);
        return A_Again;
      }
      return A_Reject;
    case 20: // `struct` consumed at top level
      if (T == PO::T_Ident) {
        F.St = 21;
        return A_Consumed;
      }
      return A_Reject;
    case 21: // `struct S`: body (bare definition) or declarator
      if (T == PO::T_LBrace) {
        F.St = 23;
        pushFrame(S, K_StructBody, 0);
        return A_Consumed;
      }
      if (T == PO::T_Star) {
        F.St = 1;
        F.F0 = 1;
        return A_Consumed;
      }
      if (T == PO::T_Ident) {
        F.St = 2;
        return A_Consumed;
      }
      return A_Reject;
    case 23: // bare `struct S { ... }` requires ';' (parser lookahead)
      if (T == PO::T_Semi) {
        popFrame(S);
        return A_Consumed;
      }
      return A_Reject;
    case 1:
      if (T == PO::T_Star) {
        F.F0 = 1;
        return A_Consumed;
      }
      if (F.F0 && isQual(T))
        return A_Consumed;
      if (T == PO::T_Ident) {
        F.St = 2;
        F.F0 = 0;
        return A_Consumed;
      }
      return A_Reject;
    case 2: // first declarator name seen: function or global
      if (T == PO::T_LParen) {
        F.St = 10;
        pushFrame(S, K_Params, 0);
        return A_Consumed;
      }
      [[fallthrough]];
    case 9: // subsequent declarator (no function form)
      if (T == PO::T_LBracket) {
        F.St = 5;
        return A_Consumed;
      }
      if (T == PO::T_Assign) {
        F.St = 8;
        pushExpr(S, 0);
        return A_Consumed;
      }
      if (T == PO::T_Comma) {
        F.St = 6;
        return A_Consumed;
      }
      if (T == PO::T_Semi) {
        popFrame(S);
        return A_Consumed;
      }
      return A_Reject;
    case 5:
      if (T == PO::T_IntLit) {
        F.St = 51;
        return A_Consumed;
      }
      return A_Reject;
    case 51:
      if (T == PO::T_RBracket) {
        F.St = 52;
        return A_Consumed;
      }
      return A_Reject;
    case 52: // globals take at most one array suffix
      if (T == PO::T_Assign) {
        F.St = 8;
        pushExpr(S, 0);
        return A_Consumed;
      }
      if (T == PO::T_Comma) {
        F.St = 6;
        return A_Consumed;
      }
      if (T == PO::T_Semi) {
        popFrame(S);
        return A_Consumed;
      }
      return A_Reject;
    case 6: // after ',': next declarator
      if (T == PO::T_Star) {
        F.St = 61;
        return A_Consumed;
      }
      if (T == PO::T_Ident) {
        F.St = 9;
        return A_Consumed;
      }
      return A_Reject;
    case 61:
      if (T == PO::T_Star || isQual(T))
        return A_Consumed;
      if (T == PO::T_Ident) {
        F.St = 9;
        return A_Consumed;
      }
      return A_Reject;
    case 8: // initializer done
      if (T == PO::T_Comma) {
        F.St = 6;
        return A_Consumed;
      }
      if (T == PO::T_Semi) {
        popFrame(S);
        return A_Consumed;
      }
      return A_Reject;
    case 10: // parameter list closed
      if (T == PO::T_Semi) {
        popFrame(S);
        return A_Consumed;
      }
      if (T == PO::T_LBrace) {
        F.St = 13;
        pushFrame(S, K_Block, 0);
        return A_Consumed;
      }
      return A_Reject;
    case 13:
      return A_NoMatch; // body done: auto-pop
    }
    return A_Reject;

  //=== parameter list (after '(') =========================================//
  // St0: ')' or first param type. St1/+F0: declarator pointers (')', ','
  // and '[' legal: abstract declarators). St2: named. St3: '[' seen
  // (size optional). St4: ']' seen. St5: after ','.
  case K_Params:
    switch (F.St) {
    case 0:
      if (T == PO::T_RParen) {
        popFrame(S);
        return A_Consumed;
      }
      if (inSet(B_TypeStart, T)) {
        F.St = 1;
        pushFrame(S, K_Type, 0);
        return A_Again;
      }
      return A_Reject;
    case 1:
      if (T == PO::T_Star) {
        F.F0 = 1;
        return A_Consumed;
      }
      if (F.F0 && isQual(T))
        return A_Consumed;
      if (T == PO::T_Ident) {
        F.St = 2;
        F.F0 = 0;
        return A_Consumed;
      }
      [[fallthrough]];
    case 2:
      if (T == PO::T_LBracket) {
        F.St = 3;
        return A_Consumed;
      }
      if (T == PO::T_Comma) {
        F.St = 5;
        return A_Consumed;
      }
      if (T == PO::T_RParen) {
        popFrame(S);
        return A_Consumed;
      }
      return A_Reject;
    case 3:
      if (T == PO::T_IntLit) {
        F.St = 31;
        return A_Consumed;
      }
      if (T == PO::T_RBracket) {
        F.St = 4;
        return A_Consumed;
      }
      return A_Reject;
    case 31:
      if (T == PO::T_RBracket) {
        F.St = 4;
        return A_Consumed;
      }
      return A_Reject;
    case 4:
      if (T == PO::T_Comma) {
        F.St = 5;
        return A_Consumed;
      }
      if (T == PO::T_RParen) {
        popFrame(S);
        return A_Consumed;
      }
      return A_Reject;
    case 5: // a type is required after ','
      if (inSet(B_TypeStart, T)) {
        F.St = 1;
        pushFrame(S, K_Type, 0);
        return A_Again;
      }
      return A_Reject;
    }
    return A_Reject;

  //=== compound statement (after '{') =====================================//
  case K_Block:
    if (T == PO::T_RBrace) {
      popFrame(S);
      return A_Consumed;
    }
    if (inSet(B_StmtStart, T)) {
      pushFrame(S, K_Stmt, 0);
      return A_Again;
    }
    return A_Reject;

  //=== statement dispatcher (transmutes in place) =========================//
  case K_Stmt:
    if (T == PO::T_LBrace) {
      F.Kind = K_Block;
      F.St = 0;
      return A_Consumed;
    }
    if (T == PO::T_Semi) {
      F.Kind = K_SimpleStmt;
      F.St = 0;
      return A_Again;
    }
    if (T == PO::T_KwIf) {
      F.Kind = K_If;
      F.St = 0;
      return A_Consumed;
    }
    if (T == PO::T_KwWhile) {
      F.Kind = K_While;
      F.St = 0;
      return A_Consumed;
    }
    if (T == PO::T_KwDo) {
      F.Kind = K_Do;
      F.St = 1;
      pushFrame(S, K_Stmt, 0);
      return A_Consumed;
    }
    if (T == PO::T_KwFor) {
      F.Kind = K_For;
      F.St = 0;
      return A_Consumed;
    }
    if (T == PO::T_KwReturn) {
      F.Kind = K_Return;
      F.St = 0;
      return A_Consumed;
    }
    if (T == PO::T_KwBreak || T == PO::T_KwContinue) {
      F.Kind = K_SimpleStmt;
      F.St = 0;
      return A_Consumed;
    }
    if (T == PO::T_KwType || T == PO::T_KwQual || T == PO::T_KwStruct) {
      F.Kind = K_LocalDecl;
      F.St = 0;
      return A_Again;
    }
    if (T == PO::T_Ident) {
      F.Kind = K_IdentStmt;
      F.St = 0;
      return A_Consumed;
    }
    if (inSet(B_ExprStart, T)) {
      F.Kind = K_ExprStmt;
      F.St = 0;
      pushExpr(S, X_CommaOk);
      return A_Again;
    }
    return A_Reject;

  //=== if/while/do/for/return/simple ======================================//
  case K_If:
    switch (F.St) {
    case 0:
      if (T == PO::T_LParen) {
        F.St = 1;
        pushExpr(S, X_CommaOk);
        return A_Consumed;
      }
      return A_Reject;
    case 1:
      if (T == PO::T_RParen) {
        F.St = 2;
        return A_Consumed;
      }
      return A_Reject;
    case 2:
      if (inSet(B_StmtStart, T)) {
        F.St = 3;
        pushFrame(S, K_Stmt, 0);
        return A_Again;
      }
      return A_Reject;
    case 3: // then-branch done: optional else (greedy: dangling-else)
      if (T == PO::T_KwElse) {
        F.St = 4;
        return A_Consumed;
      }
      return A_NoMatch;
    case 4:
      if (inSet(B_StmtStart, T)) {
        F.St = 5;
        pushFrame(S, K_Stmt, 0);
        return A_Again;
      }
      return A_Reject;
    case 5:
      return A_NoMatch;
    }
    return A_Reject;

  case K_While:
    switch (F.St) {
    case 0:
      if (T == PO::T_LParen) {
        F.St = 1;
        pushExpr(S, X_CommaOk);
        return A_Consumed;
      }
      return A_Reject;
    case 1:
      if (T == PO::T_RParen) {
        F.St = 2;
        return A_Consumed;
      }
      return A_Reject;
    case 2:
      if (inSet(B_StmtStart, T)) {
        F.St = 3;
        pushFrame(S, K_Stmt, 0);
        return A_Again;
      }
      return A_Reject;
    case 3:
      return A_NoMatch;
    }
    return A_Reject;

  case K_Do:
    switch (F.St) {
    case 1: // body done
      if (T == PO::T_KwWhile) {
        F.St = 2;
        return A_Consumed;
      }
      return A_Reject;
    case 2:
      if (T == PO::T_LParen) {
        F.St = 3;
        pushExpr(S, X_CommaOk);
        return A_Consumed;
      }
      return A_Reject;
    case 3:
      if (T == PO::T_RParen) {
        F.St = 4;
        return A_Consumed;
      }
      return A_Reject;
    case 4:
      if (T == PO::T_Semi) {
        popFrame(S);
        return A_Consumed;
      }
      return A_Reject;
    }
    return A_Reject;

  case K_For:
    switch (F.St) {
    case 0:
      if (T == PO::T_LParen) {
        F.St = 1;
        return A_Consumed;
      }
      return A_Reject;
    case 1: // init clause
      if (T == PO::T_Semi) {
        F.St = 3;
        return A_Consumed;
      }
      if (T == PO::T_KwType || T == PO::T_KwQual || T == PO::T_KwStruct) {
        F.St = 3;
        pushFrame(S, K_LocalDecl, 0);
        return A_Again;
      }
      if (T == PO::T_Ident) {
        F.St = 3;
        pushFrame(S, K_IdentStmt, 0);
        return A_Consumed;
      }
      if (inSet(B_ExprStart, T)) {
        F.St = 2;
        pushExpr(S, X_CommaOk);
        return A_Again;
      }
      return A_Reject;
    case 2: // init expression done
      if (T == PO::T_Semi) {
        F.St = 3;
        return A_Consumed;
      }
      return A_Reject;
    case 3: // condition clause
      if (T == PO::T_Semi) {
        F.St = 5;
        return A_Consumed;
      }
      if (inSet(B_ExprStart, T)) {
        F.St = 4;
        pushExpr(S, X_CommaOk);
        return A_Again;
      }
      return A_Reject;
    case 4:
      if (T == PO::T_Semi) {
        F.St = 5;
        return A_Consumed;
      }
      return A_Reject;
    case 5: // step clause
      if (T == PO::T_RParen) {
        F.St = 7;
        return A_Consumed;
      }
      if (inSet(B_ExprStart, T)) {
        F.St = 6;
        pushExpr(S, X_CommaOk);
        return A_Again;
      }
      return A_Reject;
    case 6:
      if (T == PO::T_RParen) {
        F.St = 7;
        return A_Consumed;
      }
      return A_Reject;
    case 7:
      if (inSet(B_StmtStart, T)) {
        F.St = 8;
        pushFrame(S, K_Stmt, 0);
        return A_Again;
      }
      return A_Reject;
    case 8:
      return A_NoMatch;
    }
    return A_Reject;

  case K_Return:
    switch (F.St) {
    case 0:
      if (T == PO::T_Semi) {
        popFrame(S);
        return A_Consumed;
      }
      if (inSet(B_ExprStart, T)) {
        F.St = 1;
        pushExpr(S, X_CommaOk);
        return A_Again;
      }
      return A_Reject;
    case 1:
      if (T == PO::T_Semi) {
        popFrame(S);
        return A_Consumed;
      }
      return A_Reject;
    }
    return A_Reject;

  case K_SimpleStmt:
    if (T == PO::T_Semi) {
      popFrame(S);
      return A_Consumed;
    }
    return A_Reject;

  //=== local declaration (consumes trailing ';') ==========================//
  // St0: type expected. St1/+F0: declarator pointers. St2: named.
  // St3/31: array suffix (repeatable). St4: initializer done.
  case K_LocalDecl:
    switch (F.St) {
    case 0:
      if (inSet(B_TypeStart, T)) {
        F.St = 1;
        pushFrame(S, K_Type, 0);
        return A_Again;
      }
      return A_Reject;
    case 1:
      if (T == PO::T_Star) {
        F.F0 = 1;
        return A_Consumed;
      }
      if (F.F0 && isQual(T))
        return A_Consumed;
      if (T == PO::T_Ident) {
        F.St = 2;
        F.F0 = 0;
        return A_Consumed;
      }
      return A_Reject;
    case 2:
      if (T == PO::T_LBracket) {
        F.St = 3;
        return A_Consumed;
      }
      if (T == PO::T_Assign) {
        F.St = 4;
        pushExpr(S, 0);
        return A_Consumed;
      }
      if (T == PO::T_Comma) {
        F.St = 1;
        F.F0 = 0;
        return A_Consumed;
      }
      if (T == PO::T_Semi) {
        popFrame(S);
        return A_Consumed;
      }
      return A_Reject;
    case 3:
      if (T == PO::T_IntLit) {
        F.St = 31;
        return A_Consumed;
      }
      return A_Reject;
    case 31:
      if (T == PO::T_RBracket) {
        F.St = 2; // locals allow repeated array suffixes
        return A_Consumed;
      }
      return A_Reject;
    case 4:
      if (T == PO::T_Comma) {
        F.St = 1;
        F.F0 = 0;
        return A_Consumed;
      }
      if (T == PO::T_Semi) {
        popFrame(S);
        return A_Consumed;
      }
      return A_Reject;
    }
    return A_Reject;

  //=== identifier-led statement (decl/expr union) =========================//
  // The parser decides with startsLocalDecl() lookahead; this frame
  // mirrors it token by token. St0: one Ident consumed. St1: `Ident *`.
  // St11: `Ident * *...` (two or more stars: never a decl for unknown
  // names). St2: `Ident * Ident`. St21: `Ident ** Ident`.
  case K_IdentStmt:
    switch (F.St) {
    case 0:
      if (T == PO::T_Ident) {
        // `a b`: only viable as a declaration.
        F.Kind = K_LocalDecl;
        F.St = 2;
        F.F0 = 0;
        return A_Consumed;
      }
      if (T == PO::T_Star) {
        F.St = 1;
        return A_Consumed;
      }
      // Expression statement led by the identifier.
      F.Kind = K_ExprStmt;
      F.St = 0;
      pushExpr(S, X_CommaOk, E_HaveOp, XF_Seen | XF_OperandVar);
      return A_Again;
    case 1: // `a *`
      if (T == PO::T_Star) {
        F.St = 11;
        return A_Consumed;
      }
      if (isQual(T)) {
        // `a * const`: only the declaration reading survives.
        F.Kind = K_LocalDecl;
        F.St = 1;
        F.F0 = 1;
        return A_Again;
      }
      if (T == PO::T_Ident) {
        F.St = 2;
        return A_Consumed;
      }
      // Expression: `a * <operand>` (binary multiply).
      F.Kind = K_ExprStmt;
      F.St = 0;
      pushExpr(S, X_CommaOk, E_NeedOp, XF_Seen | XF_SawOp);
      return A_Again;
    case 11: // `a * * ...`
      if (T == PO::T_Star)
        return A_Consumed;
      if (isQual(T)) {
        F.Kind = K_LocalDecl;
        F.St = 1;
        F.F0 = 1;
        return A_Again;
      }
      if (T == PO::T_Ident) {
        F.St = 21;
        return A_Consumed;
      }
      F.Kind = K_ExprStmt;
      F.St = 0;
      pushExpr(S, X_CommaOk, E_NeedOp, XF_Seen | XF_SawOp);
      return A_Again;
    case 2: // `a * b`: startsLocalDecl commits on ';' '=' ','
      if (T == PO::T_Semi) {
        popFrame(S);
        return A_Consumed;
      }
      if (T == PO::T_Comma || T == PO::T_Assign) {
        F.Kind = K_LocalDecl;
        F.St = 2;
        F.F0 = 0;
        return A_Again;
      }
      // `a * b [` / `a * b + ...`: expression reading (with the b operand
      // complete). Over-accepts the known-typedef corner `T * b + c`.
      F.Kind = K_ExprStmt;
      F.St = 0;
      pushExpr(S, X_CommaOk, E_HaveOp, XF_Seen | XF_SawOp | XF_OperandVar);
      return A_Again;
    case 21: // `a ** b`: a declaration only for known names — keep the
             // expression reading, which covers every declaration
             // continuation here.
      if (T == PO::T_Semi) {
        popFrame(S);
        return A_Consumed;
      }
      F.Kind = K_ExprStmt;
      F.St = 0;
      pushExpr(S, X_CommaOk, E_HaveOp, XF_Seen | XF_SawOp | XF_OperandVar);
      return A_Again;
    }
    return A_Reject;

  case K_ExprStmt:
    if (T == PO::T_Semi) {
      popFrame(S);
      return A_Consumed;
    }
    return A_Reject;

  case K_Expr:
    return stepExpr(S, F, T);
  }
  return A_Reject;
}

} // namespace

//===----------------------------------------------------------------------===//
// Public PDA interface
//===----------------------------------------------------------------------===//

PrefixOracle::State PrefixOracle::start() const {
  State S;
  S.SP = 1;
  S.Stack[0] = Frame{K_TU, 0, 0, 0};
  return S;
}

bool PrefixOracle::stepTerminal(State &S, int T) const {
  if (S.Generous)
    return true;
  if (T < 0)
    return false; // union/enum/... or "...": never parseable
  // Each iteration either consumes, transmutes/pushes (replay), or pops;
  // pops strictly shrink the stack and pushes consume-or-replay at most
  // once per frame, so 4*MaxFrames bounds the loop with slack.
  for (int Guard = 0; Guard < 4 * MaxFrames; ++Guard) {
    Frame &F = S.Stack[S.SP - 1];
    StepAct Act = stepFrame(S, F, T);
    if (S.Generous)
      return true;
    if (Act == A_Consumed)
      return true;
    if (Act == A_Again)
      continue;
    if (Act == A_NoMatch && poppable(F) && S.SP > 1) {
      popFrame(S);
      continue;
    }
    return false;
  }
  return false;
}

void PrefixOracle::feedTerminal(State &S, int T) const {
  if (S.Dead)
    return;
  S.MaskValid = 0;
  S.CachedMask = 0;
  if (!stepTerminal(S, T))
    S.Dead = 1;
}

uint64_t PrefixOracle::computeMask(const State &S) const {
  if (S.Dead)
    return 0;
  if (S.Generous)
    return (uint64_t(1) << NumTerms) - 1;
  // Brute force over the 42 terminal classes: guaranteed consistent with
  // stepTerminal by construction. State is small; this runs once per
  // consumed terminal (cached) and is far off the decode critical path.
  uint64_t Mask = 0;
  for (int T = 0; T < NumTerms; ++T) {
    State Probe = S;
    if (stepTerminal(Probe, T))
      Mask |= bit(T);
  }
  return Mask;
}

uint64_t PrefixOracle::terminalMask(State &S) const {
  if (!S.MaskValid) {
    S.CachedMask = computeMask(S);
    S.MaskValid = 1;
  }
  return S.CachedMask;
}

bool PrefixOracle::acceptsEnd(const State &S) const {
  State B = boundary(S);
  if (B.Dead)
    return false;
  if (B.Generous)
    return true;
  // An unterminated comment is fine at EOF (the lexer exits without
  // error); any open literal already died in boundary().
  while (B.SP > 1 && poppable(B.Stack[B.SP - 1]))
    popFrame(B);
  return B.SP == 1 && B.Stack[0].St == 0;
}

//===----------------------------------------------------------------------===//
// 3. Incremental lexer
//===----------------------------------------------------------------------===//

namespace {

enum LexState : uint8_t {
  LK_None = 0,
  LK_Word,
  LK_Num,
  LK_Punct,
  LK_Str,
  LK_StrEsc,
  LK_Chr0,     // just after the opening quote
  LK_ChrEsc,   // after a backslash in a char literal
  LK_Chr1,     // value consumed; closing quote required
  LK_LineComment,
  LK_BlockComment,
  LK_BlockStar, // '*' seen inside a block comment
  LK_Hash,      // '#' directive line: skipped to end of line
};

enum NumState : uint8_t {
  N_IntZero = 0, // exactly "0" so far
  N_Int,         // decimal digits
  N_HexPfx,      // "0x" (already a valid literal)
  N_Hex,         // hex digits
  N_Frac,        // after '.', fractional part
  N_Exp0,        // 'e'/'E' just consumed (sign may follow)
  N_ExpD,        // inside exponent digits (or after its sign)
  N_SufInt,      // integer suffix run (u/l)
  N_SufFloat,    // float suffix run (or f/F seen)
};

bool numIsFloat(uint8_t N) {
  return N == N_Frac || N == N_Exp0 || N == N_ExpD || N == N_SufFloat;
}

void clearPend(State &S) {
  S.Lex = LK_None;
  S.NumSt = 0;
  S.BufLen = 0;
  S.WordViaIdent = 0;
  std::memset(S.Buf, 0, sizeof(S.Buf));
}

} // namespace

void PrefixOracle::flushPending(State &S) const {
  if (S.Dead)
    return;
  switch (S.Lex) {
  case LK_None:
  case LK_LineComment:
  case LK_BlockComment:
  case LK_BlockStar:
  case LK_Hash:
    // Nothing pending; unterminated comments are legal at EOF.
    return;
  case LK_Word: {
    int T = T_Ident;
    if (!S.WordViaIdent)
      T = keywordTerm(std::string_view(S.Buf, S.BufLen));
    clearPend(S);
    feedTerminal(S, T);
    return;
  }
  case LK_Num: {
    int T = numIsFloat(S.NumSt) ? T_FloatLit : T_IntLit;
    clearPend(S);
    feedTerminal(S, T);
    return;
  }
  case LK_Punct: {
    // Maximal munch over the pending chain. Pending chains are "<", ">",
    // "<<", ">>", ".." or a single one-char punctuator; complete
    // multi-puncts with no extension were emitted eagerly.
    char Chain[4];
    int Len = S.BufLen;
    std::memcpy(Chain, S.Buf, sizeof(Chain));
    clearPend(S);
    int Pos = 0;
    while (Pos < Len && !S.Dead) {
      int Best = -1, BestTerm = -1;
      for (int L = Len - Pos; L >= 1; --L) {
        int T = punctTerm(std::string_view(Chain + Pos, L));
        if (T != -1) {
          Best = L;
          BestTerm = T;
          break;
        }
      }
      if (Best == -1) {
        S.Dead = 1;
        return;
      }
      feedTerminal(S, BestTerm);
      Pos += Best;
    }
    return;
  }
  case LK_Str:
  case LK_StrEsc:
    S.Dead = 1; // unterminated string literal: lexC fails
    return;
  case LK_Chr0:
  case LK_ChrEsc:
  case LK_Chr1:
    S.Dead = 1; // unterminated char literal: lexC fails
    return;
  }
}

void PrefixOracle::feedChar(State &S, char C) const {
  if (S.Dead)
    return;

restart:
  switch (S.Lex) {
  case LK_None:
    if (std::isspace(static_cast<unsigned char>(C)))
      return;
    if (identStart(C)) {
      S.Lex = LK_Word;
      S.Buf[0] = C;
      S.BufLen = 1;
      return;
    }
    if (isDigitC(C)) {
      S.Lex = LK_Num;
      S.NumSt = (C == '0') ? N_IntZero : N_Int;
      return;
    }
    if (C == '"') {
      S.Lex = LK_Str;
      return;
    }
    if (C == '\'') {
      S.Lex = LK_Chr0;
      return;
    }
    if (C == '#') {
      S.Lex = LK_Hash;
      return;
    }
    switch (C) {
    case '(': feedTerminal(S, T_LParen); return;
    case ')': feedTerminal(S, T_RParen); return;
    case '{': feedTerminal(S, T_LBrace); return;
    case '}': feedTerminal(S, T_RBrace); return;
    case '[': feedTerminal(S, T_LBracket); return;
    case ']': feedTerminal(S, T_RBracket); return;
    case ';': feedTerminal(S, T_Semi); return;
    case ',': feedTerminal(S, T_Comma); return;
    case '?': feedTerminal(S, T_Question); return;
    case ':': feedTerminal(S, T_Colon); return;
    case '~': feedTerminal(S, T_Tilde); return;
    case '+': case '-': case '*': case '/': case '%': case '<': case '>':
    case '=': case '!': case '&': case '|': case '^': case '.':
      S.Lex = LK_Punct;
      S.Buf[0] = C;
      S.BufLen = 1;
      return;
    default:
      // cc::Lexer emits an Unknown token here; the parser never accepts
      // one, so the prefix is dead.
      S.Dead = 1;
      return;
    }

  case LK_Word:
    if (identChar(C)) {
      if (S.WordViaIdent)
        return;
      if (S.BufLen < 10) {
        S.Buf[S.BufLen++] = C;
      } else {
        // Longer than the longest keyword: identifier for sure. Clear
        // the window so equal-content states stay memcmp-equal.
        S.WordViaIdent = 1;
        S.BufLen = 0;
        std::memset(S.Buf, 0, sizeof(S.Buf));
      }
      return;
    }
    flushPending(S);
    if (S.Dead)
      return;
    goto restart;

  case LK_Num:
    switch (S.NumSt) {
    case N_IntZero:
      if (C == 'x' || C == 'X') {
        S.NumSt = N_HexPfx;
        return;
      }
      [[fallthrough]];
    case N_Int:
      if (isDigitC(C)) {
        S.NumSt = N_Int;
        return;
      }
      if (C == '.') {
        S.NumSt = N_Frac;
        return;
      }
      if (C == 'e' || C == 'E') {
        S.NumSt = N_Exp0;
        return;
      }
      if (C == 'f' || C == 'F') {
        S.NumSt = N_SufFloat;
        return;
      }
      if (numSuffix(C)) {
        S.NumSt = N_SufInt;
        return;
      }
      break;
    case N_HexPfx:
    case N_Hex:
      if (isXDigit(C)) {
        S.NumSt = N_Hex; // covers f/F, consumed as hex digits
        return;
      }
      if (C == 'u' || C == 'U' || C == 'l' || C == 'L') {
        S.NumSt = N_SufInt;
        return;
      }
      break;
    case N_Frac:
      if (isDigitC(C))
        return;
      if (C == 'e' || C == 'E') {
        S.NumSt = N_Exp0;
        return;
      }
      if (numSuffix(C)) {
        S.NumSt = N_SufFloat;
        return;
      }
      break;
    case N_Exp0:
      if (C == '+' || C == '-' || isDigitC(C)) {
        S.NumSt = N_ExpD;
        return;
      }
      if (numSuffix(C)) {
        S.NumSt = N_SufFloat;
        return;
      }
      break;
    case N_ExpD:
      if (isDigitC(C))
        return;
      if (numSuffix(C)) {
        S.NumSt = N_SufFloat;
        return;
      }
      break;
    case N_SufInt:
      if (C == 'f' || C == 'F') {
        S.NumSt = N_SufFloat;
        return;
      }
      if (numSuffix(C)) {
        return;
      }
      break;
    case N_SufFloat:
      if (numSuffix(C))
        return;
      break;
    }
    flushPending(S); // also handles a digit after a suffix: new token
    if (S.Dead)
      return;
    goto restart;

  case LK_Punct: {
    // Comment openers take precedence over the "/" punctuator.
    if (S.BufLen == 1 && S.Buf[0] == '/' && (C == '/' || C == '*')) {
      uint8_t Next = (C == '/') ? LK_LineComment : LK_BlockComment;
      clearPend(S);
      S.Lex = Next;
      return;
    }
    // '.' directly followed by a digit starts a number ("."+digit is a
    // numeric-literal start for cc::Lexer).
    if (S.Buf[S.BufLen - 1] == '.' && isDigitC(C)) {
      if (S.BufLen == 2) {
        // ".." + digit: the first '.' is a Dot token, then ".<digit>".
        clearPend(S);
        feedTerminal(S, T_Dot);
        if (S.Dead)
          return;
      } else {
        clearPend(S);
      }
      S.Lex = LK_Num;
      S.NumSt = N_Frac;
      return;
    }
    std::string_view Chain(S.Buf, S.BufLen);
    if (punctExtends(Chain, C)) {
      S.Buf[S.BufLen++] = C;
      // Emit eagerly once no further extension exists: the lexer's
      // maximal munch is then decided.
      std::string_view Z(S.Buf, S.BufLen);
      bool MoreIsPossible = false;
      for (const PunctEntry &M : MultiPuncts) {
        std::string_view Sp(M.Spelling);
        if (Sp.size() > Z.size() && Sp.substr(0, Z.size()) == Z) {
          MoreIsPossible = true;
          break;
        }
      }
      if (!MoreIsPossible) {
        int T = punctTerm(Z);
        clearPend(S);
        feedTerminal(S, T); // T==-1 ("...") kills the state
      }
      return;
    }
    flushPending(S);
    if (S.Dead)
      return;
    goto restart;
  }

  case LK_Str:
    if (C == '"') {
      S.Lex = LK_None;
      feedTerminal(S, T_StrLit);
      return;
    }
    if (C == '\\') {
      S.Lex = LK_StrEsc;
      return;
    }
    return;

  case LK_StrEsc:
    S.Lex = LK_Str;
    return;

  case LK_Chr0:
    if (C == '\\') {
      S.Lex = LK_ChrEsc;
      return;
    }
    S.Lex = LK_Chr1; // any byte (even a quote) is the value
    return;

  case LK_ChrEsc:
    S.Lex = LK_Chr1;
    return;

  case LK_Chr1:
    if (C == '\'') {
      S.Lex = LK_None;
      feedTerminal(S, T_CharLit);
      return;
    }
    S.Dead = 1; // cc::Lexer latches an error: guaranteed parse failure
    return;

  case LK_LineComment:
  case LK_Hash:
    if (C == '\n')
      S.Lex = LK_None;
    return;

  case LK_BlockComment:
    if (C == '*')
      S.Lex = LK_BlockStar;
    return;

  case LK_BlockStar:
    if (C == '/')
      S.Lex = LK_None;
    else if (C != '*')
      S.Lex = LK_BlockComment;
    return;
  }
}

bool PrefixOracle::advance(State &S, std::string_view Text) const {
  for (char C : Text) {
    if (S.Dead)
      break;
    feedChar(S, C);
  }
  return !S.Dead;
}

PrefixOracle::State PrefixOracle::boundary(const State &S) const {
  State B = S;
  if (B.Dead)
    return B;
  flushPending(B);
  return B;
}

PrefixOracle::PendClass PrefixOracle::pendClass(const State &S) const {
  switch (S.Lex) {
  case LK_Word:
    return P_Word;
  case LK_Num:
    return P_Num;
  case LK_Punct:
    return P_Punct;
  case LK_Str:
  case LK_StrEsc:
    return P_Str;
  case LK_Chr0:
  case LK_ChrEsc:
  case LK_Chr1:
    return P_Chr;
  case LK_LineComment:
  case LK_BlockComment:
  case LK_BlockStar:
  case LK_Hash:
    return P_Comment;
  default:
    return P_None;
  }
}

void PrefixOracle::stateKey(const State &S, std::string &Key) {
  static_assert(sizeof(Frame) == 4, "frames are copied as padding-free bytes");
  assert(S.SP >= 0 && S.SP <= MaxFrames && S.BufLen <= sizeof(S.Buf));
  Key.assign(1, static_cast<char>(S.SP));
  Key.append(reinterpret_cast<const char *>(S.Stack),
             static_cast<size_t>(S.SP) * sizeof(Frame));
  const uint8_t Fields[] = {S.Dead,  S.Generous,     S.Lex,
                            S.NumSt, S.WordViaIdent, S.BufLen};
  Key.append(reinterpret_cast<const char *>(Fields), sizeof(Fields));
  Key.append(S.Buf, S.BufLen);
}

std::string_view PrefixOracle::pendingText(const State &S) const {
  if ((S.Lex == LK_Word && !S.WordViaIdent) || S.Lex == LK_Punct)
    return std::string_view(S.Buf, S.BufLen);
  return {};
}

//===----------------------------------------------------------------------===//
// Static token tables
//===----------------------------------------------------------------------===//

int PrefixOracle::keywordTerm(std::string_view W) {
  for (const KwEntry &K : Keywords)
    if (W == K.Word)
      return K.Term;
  return T_Ident;
}

uint64_t PrefixOracle::keywordPrefixBits(std::string_view Prefix) {
  uint64_t Bits = 0;
  for (const KwEntry &K : Keywords) {
    if (K.Term < 0)
      continue;
    std::string_view W(K.Word);
    if (W.size() >= Prefix.size() && W.substr(0, Prefix.size()) == Prefix)
      Bits |= bit(K.Term);
  }
  return Bits;
}

bool PrefixOracle::keywordMidfix(std::string_view Body) {
  if (Body.empty())
    return false;
  for (const KwEntry &K : Keywords) {
    if (K.Term < 0)
      continue;
    std::string_view W(K.Word);
    for (size_t O = 1; O + Body.size() <= W.size(); ++O)
      if (W.substr(O, Body.size()) == Body)
        return true;
  }
  return false;
}

int PrefixOracle::punctTerm(std::string_view P) {
  for (const PunctEntry &M : MultiPuncts)
    if (P == M.Spelling)
      return M.Term;
  for (const PunctEntry &E : SinglePuncts)
    if (P == E.Spelling)
      return E.Term;
  return -1;
}

uint64_t PrefixOracle::punctPrefixBits(std::string_view Prefix) {
  uint64_t Bits = 0;
  int Own = punctTerm(Prefix);
  if (Own >= 0)
    Bits |= bit(Own);
  for (const PunctEntry &M : MultiPuncts) {
    std::string_view Sp(M.Spelling);
    if (Sp.size() > Prefix.size() && Sp.substr(0, Prefix.size()) == Prefix &&
        M.Term >= 0)
      Bits |= bit(M.Term);
  }
  return Bits;
}

bool PrefixOracle::punctExtends(std::string_view Chain, char C) {
  for (const PunctEntry &M : MultiPuncts) {
    std::string_view Sp(M.Spelling);
    if (Sp.size() > Chain.size() && Sp.substr(0, Chain.size()) == Chain &&
        Sp[Chain.size()] == C)
      return true;
  }
  return false;
}
