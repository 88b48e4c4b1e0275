//===- RuleDecompiler.cpp - Ghidra-style rule-based decompiler ---------------===//

#include "baselines/RuleDecompiler.h"

#include "support/StringUtils.h"

#include <cstring>
#include <map>
#include <set>

using namespace slade;
using namespace slade::asmx;
using namespace slade::baselines;

namespace {

/// A symbolic value during block-local forward substitution.
struct SymExpr {
  std::string Text;   ///< Parenthesized C expression.
  bool IsConst = false;
  int64_t ConstVal = 0;
  bool IsFloat = false;
  int Width = 4; ///< Bytes (4/8).
};

SymExpr constExpr(int64_t V, int Width = 4) {
  SymExpr E;
  E.Text = std::to_string(V);
  E.IsConst = true;
  E.ConstVal = V;
  E.Width = Width;
  return E;
}
SymExpr varExpr(const std::string &Name, int Width = 8,
                bool IsFloat = false) {
  SymExpr E;
  E.Text = Name;
  E.Width = Width;
  E.IsFloat = IsFloat;
  return E;
}
SymExpr binExpr(const SymExpr &A, const char *Op, const SymExpr &B,
                bool IsFloat = false) {
  SymExpr E;
  E.Text = "(" + A.Text + " " + Op + " " + B.Text + ")";
  E.IsFloat = IsFloat || A.IsFloat || B.IsFloat;
  E.Width = A.Width > B.Width ? A.Width : B.Width;
  return E;
}

/// A lifted basic block with structured-terminator metadata.
struct LBlock {
  std::vector<std::string> Stmts;
  enum Kind { Fall, Jump, Cond, Ret } Term = Fall;
  std::string CondText;
  int T0 = -1, T1 = -1; ///< Cond: T0 taken, T1 fallthrough. Jump: T0.
  std::string RetExpr;  ///< Empty for bare return / no return yet.
  bool RetIsFloat = false;
  int RetWidth = 4;
};

/// Pending comparison for condition-code consumers.
struct FlagState {
  bool Valid = false;
  SymExpr A, B;
  bool IsFloat = false;
  int Width = 4;
};

class Lifter {
public:
  Lifter(const AsmFunction &F, Dialect D) : F(F), D(D) {}

  Expected<std::string> run();

private:
  const AsmFunction &F;
  Dialect D;
  std::string Error;

  // Declarations discovered during lifting.
  std::map<int64_t, int> LocalWidth;     ///< frame offset -> bytes.
  std::map<int64_t, bool> LocalFloat;
  std::set<std::string> UsedRegVars;     ///< uVar_<reg> names.
  std::set<std::string> UsedGlobals;
  int MaxIntParam = 0, MaxFloatParam = 0;
  int TempCount = 0;
  std::vector<std::string> TempDecls;
  bool SawFloatReturn = false;
  int FloatRetWidth = 4;
  bool SawIntReturn = false;

  std::vector<LBlock> Blocks;
  std::vector<int> BlockStart; ///< Instruction index of each block.
  std::map<size_t, int> StartToBlock;

  void fail(const std::string &Msg) {
    if (Error.empty())
      Error = Msg;
  }

  // -- register classification ---------------------------------------------
  bool isArgReg(const std::string &Base, int *Index) {
    if (D == Dialect::X86) {
      static const char *Regs[6][4] = {
          {"rdi", "edi", "di", "dil"}, {"rsi", "esi", "si", "sil"},
          {"rdx", "edx", "dx", "dl"},  {"rcx", "ecx", "cx", "cl"},
          {"r8", "r8d", "r8w", "r8b"}, {"r9", "r9d", "r9w", "r9b"}};
      for (int I = 0; I < 6; ++I)
        for (int W = 0; W < 4; ++W)
          if (Base == Regs[I][W]) {
            *Index = I;
            return true;
          }
      return false;
    }
    if (Base.size() >= 2 && (Base[0] == 'w' || Base[0] == 'x')) {
      int N = std::atoi(Base.c_str() + 1);
      if (N >= 0 && N <= 5 && Base != "wzr" && Base != "xzr") {
        *Index = N;
        return true;
      }
    }
    return false;
  }

  /// Canonical 64-bit register key for the symbolic map.
  std::string regKey(const std::string &Name) {
    if (D == Dialect::Arm) {
      if (Name == "sp" || Name == "xzr" || Name == "wzr")
        return Name;
      return "x" + std::string(Name.c_str() + 1);
    }
    static const std::map<std::string, std::string> Sub = [] {
      std::map<std::string, std::string> M;
      const char *Q[] = {"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi",
                         "rdi", "r8",  "r9",  "r10", "r11", "r12", "r13",
                         "r14", "r15"};
      const char *DN[] = {"eax", "ecx", "edx", "ebx", "esp", "ebp",
                          "esi", "edi", "r8d", "r9d", "r10d", "r11d",
                          "r12d", "r13d", "r14d", "r15d"};
      const char *W[] = {"ax", "cx", "dx", "bx", "sp", "bp", "si", "di",
                         "r8w", "r9w", "r10w", "r11w", "r12w", "r13w",
                         "r14w", "r15w"};
      const char *B[] = {"al", "cl", "dl", "bl", "spl", "bpl", "sil",
                         "dil", "r8b", "r9b", "r10b", "r11b", "r12b",
                         "r13b", "r14b", "r15b"};
      for (int I = 0; I < 16; ++I) {
        M[Q[I]] = Q[I];
        M[DN[I]] = Q[I];
        M[W[I]] = Q[I];
        M[B[I]] = Q[I];
      }
      return M;
    }();
    auto It = Sub.find(Name);
    return It == Sub.end() ? Name : It->second;
  }

  int regWidth(const std::string &Name) {
    if (D == Dialect::Arm)
      return Name[0] == 'x' || Name == "sp" ? 8 : 4;
    if (Name.size() >= 3 && Name[0] == 'r')
      return Name.back() == 'd' || Name.back() == 'w' ||
                     Name.back() == 'b'
                 ? 4
                 : 8;
    if (Name[0] == 'e')
      return 4;
    if (Name[0] == 'r')
      return 8;
    return 4;
  }

  bool isFloatReg(const std::string &Name) {
    if (D == Dialect::X86)
      return startsWith(Name, "xmm");
    return Name.size() >= 2 &&
           (Name[0] == 's' || Name[0] == 'd' || Name[0] == 'q' ||
            Name[0] == 'v') &&
           Name != "sp" && std::isdigit(static_cast<unsigned char>(Name[1]));
  }

  /// Name for a register read before any write (an incoming value).
  SymExpr incomingValue(const std::string &Key) {
    int ArgIdx;
    if (isArgReg(Key, &ArgIdx)) {
      if (ArgIdx + 1 > MaxIntParam)
        MaxIntParam = ArgIdx + 1;
      return varExpr(formatString("param_%d", ArgIdx + 1), 8);
    }
    std::string V = "uVar_" + Key;
    UsedRegVars.insert(V);
    return varExpr(V, 8);
  }

  SymExpr incomingFloat(const std::string &Reg) {
    // xmm0..3 / s0..s3 are float parameters.
    int N = -1;
    if (D == Dialect::X86 && startsWith(Reg, "xmm"))
      N = std::atoi(Reg.c_str() + 3);
    else if (D == Dialect::Arm)
      N = std::atoi(Reg.c_str() + 1);
    if (N >= 0 && N <= 3) {
      if (N + 1 > MaxFloatParam)
        MaxFloatParam = N + 1;
      bool F64 = D == Dialect::X86 ? true : Reg[0] == 'd';
      (void)F64;
      return varExpr(formatString("fparam_%d", N + 1), 4, true);
    }
    std::string V = "uVar_" + Reg;
    UsedRegVars.insert(V);
    return varExpr(V, 4, true);
  }

  std::string localName(int64_t Off, int Width, bool IsFloat) {
    int64_t Key = Off;
    int &W = LocalWidth[Key];
    if (Width > W)
      W = Width;
    if (IsFloat)
      LocalFloat[Key] = true;
    return formatString("local_%lld", static_cast<long long>(Key < 0 ? -Key
                                                                     : Key));
  }

  std::string freshTemp(bool IsFloat, int Width) {
    ++TempCount;
    std::string Name = formatString("%cVar%d", IsFloat ? 'f' : 'i',
                                    TempCount);
    const char *Ty = IsFloat ? (Width == 8 ? "double" : "float")
                             : (Width == 8 ? "long" : "int");
    TempDecls.push_back(std::string(Ty) + " " + Name + ";");
    return Name;
  }

  // -- per-block state -------------------------------------------------------
  std::map<std::string, SymExpr> Regs;   ///< By 64-bit key.
  std::map<std::string, SymExpr> FRegs;  ///< Float/vector registers.
  std::set<std::string> WrittenRegs;
  FlagState Flags;
  LBlock *Cur = nullptr;

  SymExpr readReg(const std::string &Name) {
    std::string Key = regKey(Name);
    if (Key == "xzr" || Key == "wzr")
      return constExpr(0, regWidth(Name));
    auto It = Regs.find(Key);
    if (It != Regs.end())
      return It->second;
    SymExpr E = incomingValue(Key);
    Regs[Key] = E;
    return E;
  }
  void writeReg(const std::string &Name, SymExpr E) {
    Regs[regKey(Name)] = std::move(E);
    WrittenRegs.insert(regKey(Name));
  }
  SymExpr readFReg(const std::string &Name) {
    auto It = FRegs.find(Name);
    if (It != FRegs.end())
      return It->second;
    SymExpr E = incomingFloat(Name);
    FRegs[Name] = E;
    return E;
  }
  void writeFReg(const std::string &Name, SymExpr E) {
    FRegs[Name] = std::move(E);
  }

  /// Memory operand -> C lvalue text. Width/float define the cast.
  Expected<std::string> memLValue(const Operand &Op, int Width,
                                  bool IsFloat) {
    const char *Ty = IsFloat ? (Width == 8 ? "double" : "float")
                     : Width == 8
                         ? "long"
                         : (Width == 4 ? "int"
                                       : (Width == 2 ? "short" : "char"));
    if (D == Dialect::X86) {
      if (!Op.SymName.empty()) {
        UsedGlobals.insert(Op.SymName);
        return Op.SymName;
      }
      if (Op.BaseReg == "rbp")
        return localName(Op.Disp, Width, IsFloat);
      SymExpr Base = readReg(Op.BaseReg);
      std::string Addr = Op.Disp == 0
                             ? Base.Text
                             : formatString("(%s + %lld)", Base.Text.c_str(),
                                            static_cast<long long>(Op.Disp));
      return formatString("*(%s *)%s", Ty, Addr.c_str());
    }
    // ARM.
    if (Op.BaseReg == "sp")
      return localName(Op.Disp, Width, IsFloat);
    SymExpr Base = readReg(Op.BaseReg);
    // The adrp/add:lo12 pattern leaves "&sym" in the register.
    if (startsWith(Base.Text, "&")) {
      std::string Sym = Base.Text.substr(1);
      UsedGlobals.insert(Sym);
      return Sym;
    }
    std::string Addr = Op.Disp == 0
                           ? Base.Text
                           : formatString("(%s + %lld)", Base.Text.c_str(),
                                          static_cast<long long>(Op.Disp));
    return formatString("*(%s *)%s", Ty, Addr.c_str());
  }

  void emitStmt(const std::string &S) { Cur->Stmts.push_back(S); }

  /// Word-boundary occurrence test: does \p Text mention variable \p V?
  static bool mentionsVar(const std::string &Text, const std::string &V) {
    size_t Pos = 0;
    while ((Pos = Text.find(V, Pos)) != std::string::npos) {
      bool LeftOk = Pos == 0 || (!std::isalnum(static_cast<unsigned char>(
                                     Text[Pos - 1])) &&
                                 Text[Pos - 1] != '_');
      size_t End = Pos + V.size();
      bool RightOk = End >= Text.size() ||
                     (!std::isalnum(static_cast<unsigned char>(Text[End])) &&
                      Text[End] != '_');
      if (LeftOk && RightOk)
        return true;
      ++Pos;
    }
    return false;
  }

  /// Pins a pending symbolic expression into a fresh temporary.
  void materializeExpr(SymExpr &E) {
    if (E.IsConst)
      return;
    // A bare identifier needs no pinning unless it is the assigned var,
    // which callers check via mentionsVar.
    std::string T = freshTemp(E.IsFloat, E.Width);
    emitStmt(T + " = " + E.Text + ";");
    E = varExpr(T, E.Width, E.IsFloat);
  }

  /// Before assigning to \p Name, pin every pending expression (register
  /// values and comparison flags) that mentions it.
  void materializeVarRefs(const std::string &Name) {
    for (auto &[Key, E] : Regs)
      if (mentionsVar(E.Text, Name))
        materializeExpr(E);
    for (auto &[Key, E] : FRegs)
      if (mentionsVar(E.Text, Name))
        materializeExpr(E);
    if (Flags.Valid) {
      if (mentionsVar(Flags.A.Text, Name))
        materializeExpr(Flags.A);
      if (mentionsVar(Flags.B.Text, Name))
        materializeExpr(Flags.B);
    }
  }

  /// Before a store through a pointer, pin every pending memory read (it
  /// might alias the stored-to location).
  void materializeMemReads() {
    for (auto &[Key, E] : Regs)
      if (E.Text.find("*(") != std::string::npos)
        materializeExpr(E);
    for (auto &[Key, E] : FRegs)
      if (E.Text.find("*(") != std::string::npos)
        materializeExpr(E);
    if (Flags.Valid) {
      if (Flags.A.Text.find("*(") != std::string::npos)
        materializeExpr(Flags.A);
      if (Flags.B.Text.find("*(") != std::string::npos)
        materializeExpr(Flags.B);
    }
  }

  /// Shared guard for any `LV = ...;` statement the lifter emits.
  void preAssign(const std::string &LV) {
    if (startsWith(LV, "*("))
      materializeMemReads();
    else
      materializeVarRefs(LV);
  }

  std::string condText(const std::string &CC);
  void liftX86(const AsmInstr &I, const AsmInstr *Next, bool *Fused);
  void liftArm(const AsmInstr &I, const AsmInstr *Next, bool *Fused);
  void flushBlockEnd();
  void splitBlocks();
  int blockOfLabel(const std::string &L) {
    auto It = F.Labels.find(L);
    if (It == F.Labels.end()) {
      fail("jump to unknown label " + L);
      return 0;
    }
    auto BIt = StartToBlock.find(It->second);
    if (BIt == StartToBlock.end()) {
      fail("label does not start a block: " + L);
      return 0;
    }
    return BIt->second;
  }

  // -- structuring ------------------------------------------------------------
  struct LoopCtx {
    int Header = -1;
    int Exit = -1;
    int MaxBlock = -1;
  };
  std::string structure();
  bool emitRegion(int Cur, int Stop, const LoopCtx &Loop, int Depth,
                  std::string &Out, int Indent);
  bool emitLoopHeaderAndBody(int Header, const LoopCtx &Loop, int Depth,
                             std::string &Out, int Indent);
  int findJoin(int A, int B, const LoopCtx &Loop);
  void reachSet(int From, const LoopCtx &Loop, std::set<int> &Out);
  bool isLoopHeader(int B, int *MaxBack);
  std::string signature();
};

//===----------------------------------------------------------------------===//
// Block splitting
//===----------------------------------------------------------------------===//

void Lifter::splitBlocks() {
  std::set<size_t> Starts = {0};
  for (const auto &[Label, Index] : F.Labels)
    Starts.insert(Index);
  for (size_t I = 0; I < F.Instrs.size(); ++I) {
    const std::string &M = F.Instrs[I].Mnemonic;
    bool IsCond = (D == Dialect::X86 && M.size() >= 2 && M[0] == 'j' &&
                   M != "jmp") ||
                  (D == Dialect::Arm && startsWith(M, "b."));
    bool IsUncond = (D == Dialect::X86 && (M == "jmp" || M == "ret")) ||
                    (D == Dialect::Arm && (M == "b" || M == "ret"));
    if (IsCond) {
      // The backend pairs every jcc with a jmp; keep the pair together.
      if (I + 2 < F.Instrs.size())
        Starts.insert(I + 2);
      ++I;
      continue;
    }
    if (IsUncond && I + 1 < F.Instrs.size())
      Starts.insert(I + 1);
  }
  for (size_t S : Starts) {
    if (S <= F.Instrs.size()) {
      StartToBlock[S] = static_cast<int>(BlockStart.size());
      BlockStart.push_back(static_cast<int>(S));
    }
  }
}

//===----------------------------------------------------------------------===//
// Conditions
//===----------------------------------------------------------------------===//

std::string Lifter::condText(const std::string &CC) {
  if (!Flags.Valid) {
    fail("condition consumed without a comparison");
    return "0";
  }
  std::string A = Flags.A.Text, B = Flags.B.Text;
  bool Unsigned = false;
  const char *Op = "==";
  auto set = [&](const char *O, bool U = false) {
    Op = O;
    Unsigned = U;
  };
  if (D == Dialect::X86) {
    if (CC == "e")
      set("==");
    else if (CC == "ne")
      set("!=");
    else if (CC == "l")
      set("<");
    else if (CC == "le")
      set("<=");
    else if (CC == "g")
      set(">");
    else if (CC == "ge")
      set(">=");
    else if (CC == "b")
      set("<", true);
    else if (CC == "be")
      set("<=", true);
    else if (CC == "a")
      set(">", true);
    else if (CC == "ae")
      set(">=", true);
    else {
      fail("unsupported condition code " + CC);
      return "0";
    }
  } else {
    if (CC == "eq")
      set("==");
    else if (CC == "ne")
      set("!=");
    else if (CC == "lt")
      set("<");
    else if (CC == "le")
      set("<=");
    else if (CC == "gt")
      set(">");
    else if (CC == "ge")
      set(">=");
    else if (CC == "cc")
      set("<", true);
    else if (CC == "ls")
      set("<=", true);
    else if (CC == "hi")
      set(">", true);
    else if (CC == "cs")
      set(">=", true);
    else {
      fail("unsupported condition code " + CC);
      return "0";
    }
  }
  if (Unsigned && !Flags.IsFloat) {
    const char *Cast = Flags.Width == 8 ? "(unsigned long)" : "(unsigned int)";
    A = std::string(Cast) + A;
    B = std::string(Cast) + B;
  }
  return "(" + A + " " + Op + " " + B + ")";
}

//===----------------------------------------------------------------------===//
// x86 lifting rules
//===----------------------------------------------------------------------===//

void Lifter::liftX86(const AsmInstr &I, const AsmInstr *Next, bool *Fused) {
  const std::string &M = I.Mnemonic;
  *Fused = false;

  auto widthOf = [&](char Suf) {
    return Suf == 'q' ? 8 : Suf == 'l' ? 4 : Suf == 'w' ? 2 : 1;
  };
  auto readOperand = [&](const Operand &Op, int Width) -> SymExpr {
    switch (Op.K) {
    case Operand::Reg:
      return readReg(Op.RegName);
    case Operand::Imm:
      return constExpr(Op.ImmValue, Width);
    case Operand::Mem: {
      auto LV = memLValue(Op, Width, false);
      if (!LV)
        return constExpr(0);
      SymExpr E = varExpr(*LV, Width);
      return E;
    }
    default:
      fail("unexpected operand");
      return constExpr(0);
    }
  };
  auto writeOperand = [&](const Operand &Op, const SymExpr &V, int Width) {
    if (Op.K == Operand::Reg) {
      writeReg(Op.RegName, V);
      return;
    }
    auto LV = memLValue(Op, Width, V.IsFloat);
    if (LV) {
      preAssign(*LV);
      emitStmt(*LV + " = " + V.Text + ";");
    }
  };

  // Frame plumbing to ignore.
  if (M == "endbr64" || M == "nop")
    return;
  if (M == "pushq" || M == "popq") {
    if (I.Ops[0].K == Operand::Reg &&
        (I.Ops[0].RegName == "rbp" || I.Ops[0].RegName == "rbx"))
      return; // Prologue save/restore.
    fail("unsupported stack operation");
    return;
  }
  if (M == "leave")
    return;
  if (M == "movq" && I.Ops.size() == 2 && I.Ops[0].K == Operand::Reg &&
      I.Ops[0].RegName == "rsp" && I.Ops[1].K == Operand::Reg &&
      I.Ops[1].RegName == "rbp")
    return;
  if (M == "subq" && I.Ops[1].K == Operand::Reg &&
      I.Ops[1].RegName == "rsp")
    return;

  if (M == "movabsq") {
    writeOperand(I.Ops[1], constExpr(I.Ops[0].ImmValue, 8), 8);
    return;
  }
  if ((M == "movd" || M == "movq") && I.Ops.size() == 2 &&
      ((I.Ops[0].K == Operand::Reg && isFloatReg(I.Ops[0].RegName)) ||
       (I.Ops[1].K == Operand::Reg && isFloatReg(I.Ops[1].RegName)))) {
    // GPR <-> xmm bit moves: reconstruct float constants.
    int W = M == "movd" ? 4 : 8;
    bool DstX = I.Ops[1].K == Operand::Reg && isFloatReg(I.Ops[1].RegName);
    if (DstX) {
      SymExpr Src = readOperand(I.Ops[0], W);
      if (Src.IsConst) {
        SymExpr FE;
        if (W == 4) {
          float FV;
          uint32_t Bits = static_cast<uint32_t>(Src.ConstVal);
          std::memcpy(&FV, &Bits, 4);
          FE = varExpr(formatString("%gf", FV), 4, true);
        } else {
          double DV;
          uint64_t Bits = static_cast<uint64_t>(Src.ConstVal);
          std::memcpy(&DV, &Bits, 8);
          FE = varExpr(formatString("%g", DV), 8, true);
          if (FE.Text.find('.') == std::string::npos &&
              FE.Text.find('e') == std::string::npos)
            FE.Text += ".0";
        }
        writeFReg(I.Ops[1].RegName, FE);
        return;
      }
      fail("movd from non-constant");
      return;
    }
    fail("xmm to gpr move unsupported");
    return;
  }
  if (M == "movb" || M == "movw" || M == "movl" || M == "movq") {
    int W = widthOf(M[3]);
    writeOperand(I.Ops[1], readOperand(I.Ops[0], W), W);
    return;
  }
  if (M == "movzbl" || M == "movsbl" || M == "movzwl" || M == "movswl") {
    int SrcW = M[4] == 'b' ? 1 : 2;
    SymExpr Src;
    if (I.Ops[0].K == Operand::Mem) {
      auto LV = memLValue(I.Ops[0], SrcW, false);
      if (!LV)
        return;
      Src = varExpr(*LV, 4);
    } else {
      Src = readReg(I.Ops[0].RegName);
    }
    if (M[3] == 'z' && SrcW == 1)
      Src = varExpr("(unsigned char)" + Src.Text, 4);
    writeReg(I.Ops[1].RegName, Src);
    return;
  }
  if (M == "movslq") {
    SymExpr Src = I.Ops[0].K == Operand::Mem
                      ? readOperand(I.Ops[0], 4)
                      : readReg(I.Ops[0].RegName);
    SymExpr E = varExpr("(long)" + Src.Text, 8);
    E.IsConst = Src.IsConst;
    E.ConstVal = Src.ConstVal;
    writeReg(I.Ops[1].RegName, E);
    return;
  }

  auto alu = [&](const char *Op, size_t BaseLen) {
    int W = widthOf(M[BaseLen]);
    SymExpr B = readOperand(I.Ops[0], W);
    SymExpr A = readOperand(I.Ops[1], W);
    if (I.Ops[1].K == Operand::Reg) {
      writeReg(I.Ops[1].RegName, binExpr(A, Op, B));
    } else {
      auto LV = memLValue(I.Ops[1], W, false);
      if (LV) {
        preAssign(*LV);
        emitStmt(*LV + " = " + binExpr(A, Op, B).Text + ";");
      }
    }
  };
  if (startsWith(M, "add") && M.size() == 4)
    return alu("+", 3);
  if (startsWith(M, "sub") && M.size() == 4)
    return alu("-", 3);
  if (startsWith(M, "imul") && M.size() == 5)
    return alu("*", 4);
  if (startsWith(M, "and") && M.size() == 4)
    return alu("&", 3);
  if ((M == "orl" || M == "orq"))
    return alu("|", 2);
  if (startsWith(M, "xor") && M.size() == 4) {
    // xorl %r, %r is the zero idiom.
    if (I.Ops[0].K == Operand::Reg && I.Ops[1].K == Operand::Reg &&
        regKey(I.Ops[0].RegName) == regKey(I.Ops[1].RegName)) {
      writeReg(I.Ops[1].RegName, constExpr(0, widthOf(M[3])));
      return;
    }
    return alu("^", 3);
  }
  if ((startsWith(M, "sal") || startsWith(M, "sar") ||
       startsWith(M, "shr")) &&
      M.size() == 4) {
    int W = widthOf(M[3]);
    SymExpr Count = I.Ops.size() == 2 ? readOperand(I.Ops[0], 1)
                                      : constExpr(1);
    const Operand &DstOp = I.Ops.size() == 2 ? I.Ops[1] : I.Ops[0];
    SymExpr A = readOperand(DstOp, W);
    SymExpr R;
    if (M[1] == 'a' && M[2] == 'l')
      R = binExpr(A, "<<", Count);
    else if (M[1] == 'a')
      R = binExpr(A, ">>", Count);
    else {
      SymExpr AU = varExpr(std::string(W == 8 ? "(unsigned long)"
                                              : "(unsigned int)") +
                               A.Text,
                           W);
      R = binExpr(AU, ">>", Count);
    }
    writeOperand(DstOp, R, W);
    return;
  }
  if (startsWith(M, "neg") && M.size() == 4) {
    int W = widthOf(M[3]);
    SymExpr A = readOperand(I.Ops[0], W);
    SymExpr R = varExpr("-" + A.Text, W);
    writeOperand(I.Ops[0], R, W);
    return;
  }
  if (startsWith(M, "not") && M.size() == 4) {
    int W = widthOf(M[3]);
    SymExpr A = readOperand(I.Ops[0], W);
    writeOperand(I.Ops[0], varExpr("~" + A.Text, W), W);
    return;
  }
  if (M == "cltd" || M == "cqto")
    return; // Folded into the following idiv.
  if (startsWith(M, "idiv") || (startsWith(M, "div") && M.size() == 4)) {
    bool Signed = M[0] == 'i';
    int W = widthOf(M[Signed ? 4 : 3]);
    SymExpr A = readReg(W == 8 ? "rax" : "eax");
    SymExpr B = readOperand(I.Ops[0], W);
    if (!Signed) {
      const char *Cast = W == 8 ? "(unsigned long)" : "(unsigned int)";
      A = varExpr(std::string(Cast) + A.Text, W);
      B = varExpr(std::string(Cast) + B.Text, W);
    }
    writeReg(W == 8 ? "rax" : "eax", binExpr(A, "/", B));
    writeReg(W == 8 ? "rdx" : "edx", binExpr(A, "%", B));
    return;
  }
  if (startsWith(M, "cmp") && M.size() == 4) {
    int W = widthOf(M[3]);
    Flags.Valid = true;
    Flags.IsFloat = false;
    Flags.Width = W;
    Flags.B = readOperand(I.Ops[0], W);
    Flags.A = readOperand(I.Ops[1], W);
    return;
  }
  if (startsWith(M, "test") && M.size() == 5) {
    int W = widthOf(M[4]);
    SymExpr A = readOperand(I.Ops[1], W);
    Flags.Valid = true;
    Flags.IsFloat = false;
    Flags.Width = W;
    if (I.Ops[0].K == Operand::Reg && I.Ops[1].K == Operand::Reg &&
        regKey(I.Ops[0].RegName) == regKey(I.Ops[1].RegName)) {
      Flags.A = A;
      Flags.B = constExpr(0, W);
    } else {
      Flags.A = binExpr(readOperand(I.Ops[0], W), "&", A);
      Flags.B = constExpr(0, W);
    }
    return;
  }
  if (startsWith(M, "set")) {
    std::string C = condText(M.substr(3));
    writeReg(I.Ops[0].RegName, varExpr(C, 4));
    return;
  }
  if (M == "jmp") {
    Cur->Term = LBlock::Jump;
    Cur->T0 = blockOfLabel(I.Ops[0].LabelName);
    return;
  }
  if (M[0] == 'j') {
    Cur->Term = LBlock::Cond;
    Cur->CondText = condText(M.substr(1));
    Cur->T0 = blockOfLabel(I.Ops[0].LabelName);
    // The backend always pairs jcc with an unconditional jmp.
    if (Next && Next->Mnemonic == "jmp") {
      Cur->T1 = blockOfLabel(Next->Ops[0].LabelName);
      *Fused = true;
    } else {
      fail("conditional jump without a paired jmp");
    }
    return;
  }
  if (M == "call") {
    std::string Callee = I.Ops[0].LabelName;
    // Arguments: consecutive arg registers written in this block.
    static const char *ArgKeys[] = {"rdi", "rsi", "rdx", "rcx", "r8", "r9"};
    std::vector<std::string> Args;
    for (const char *K : ArgKeys) {
      if (!WrittenRegs.count(K))
        break;
      Args.push_back(readReg(K).Text);
    }
    materializeMemReads(); // The callee may write memory.
    std::string T = freshTemp(false, 8);
    emitStmt(T + " = " + Callee + "(" + joinStrings(Args, ", ") + ");");
    writeReg("rax", varExpr(T, 8));
    // Callee may clobber arg registers; forget them.
    for (const char *K : ArgKeys) {
      Regs.erase(K);
      WrittenRegs.erase(K);
    }
    return;
  }
  if (M == "ret") {
    Cur->Term = LBlock::Ret;
    if (FRegs.count("xmm0")) {
      SymExpr E = FRegs["xmm0"];
      materializeExpr(E); // Epilogue restores must not go stale.
      Cur->RetExpr = E.Text;
      Cur->RetIsFloat = true;
      Cur->RetWidth = FRegs["xmm0"].Width;
      SawFloatReturn = true;
      FloatRetWidth = Cur->RetWidth;
    } else if (Regs.count("rax")) {
      SymExpr E = Regs["rax"];
      materializeExpr(E);
      Cur->RetExpr = E.Text;
      SawIntReturn = true;
    }
    return;
  }
  if (M == "leaq") {
    fail("lea lifting is not supported");
    return;
  }

  // Scalar SSE.
  auto fwidth = [&](const std::string &Mn) { return endsWith(Mn, "sd") ? 8
                                                                        : 4; };
  if (M == "movss" || M == "movsd") {
    int W = fwidth(M);
    if (I.Ops[1].K == Operand::Reg && isFloatReg(I.Ops[1].RegName)) {
      SymExpr Src;
      if (I.Ops[0].K == Operand::Reg && isFloatReg(I.Ops[0].RegName))
        Src = readFReg(I.Ops[0].RegName);
      else {
        auto LV = memLValue(I.Ops[0], W, true);
        if (!LV)
          return;
        Src = varExpr(*LV, W, true);
      }
      writeFReg(I.Ops[1].RegName, Src);
    } else {
      auto LV = memLValue(I.Ops[1], W, true);
      if (LV) {
        preAssign(*LV);
        emitStmt(*LV + " = " + readFReg(I.Ops[0].RegName).Text + ";");
      }
    }
    return;
  }
  auto fbin = [&](const char *Op) {
    int W = fwidth(M);
    SymExpr B;
    if (I.Ops[0].K == Operand::Reg && isFloatReg(I.Ops[0].RegName))
      B = readFReg(I.Ops[0].RegName);
    else {
      auto LV = memLValue(I.Ops[0], W, true);
      if (!LV)
        return;
      B = varExpr(*LV, W, true);
    }
    SymExpr A = readFReg(I.Ops[1].RegName);
    SymExpr R = binExpr(A, Op, B, true);
    R.Width = W;
    writeFReg(I.Ops[1].RegName, R);
  };
  if (M == "addss" || M == "addsd")
    return fbin("+");
  if (M == "subss" || M == "subsd")
    return fbin("-");
  if (M == "mulss" || M == "mulsd")
    return fbin("*");
  if (M == "divss" || M == "divsd")
    return fbin("/");
  if (M == "comiss" || M == "comisd") {
    Flags.Valid = true;
    Flags.IsFloat = true;
    Flags.Width = M == "comiss" ? 4 : 8;
    Flags.B = readFReg(I.Ops[0].RegName);
    Flags.A = readFReg(I.Ops[1].RegName);
    return;
  }
  if (startsWith(M, "cvtsi2")) {
    bool ToF32 = M[6] == 's' && M[7] == 's';
    SymExpr Src = readOperand(I.Ops[0], M.back() == 'q' ? 8 : 4);
    SymExpr R = varExpr(std::string(ToF32 ? "(float)" : "(double)") +
                            Src.Text,
                        ToF32 ? 4 : 8, true);
    writeFReg(I.Ops[1].RegName, R);
    return;
  }
  if (startsWith(M, "cvttss2si") || startsWith(M, "cvttsd2si")) {
    SymExpr Src = readFReg(I.Ops[0].RegName);
    int W = M.back() == 'q' ? 8 : 4;
    writeReg(I.Ops[1].RegName,
             varExpr(std::string(W == 8 ? "(long)" : "(int)") + Src.Text,
                     W));
    return;
  }
  if (M == "cvtss2sd") {
    SymExpr Src = readFReg(I.Ops[0].RegName);
    SymExpr R = varExpr("(double)" + Src.Text, 8, true);
    writeFReg(I.Ops[1].RegName, R);
    return;
  }
  if (M == "cvtsd2ss") {
    SymExpr Src = readFReg(I.Ops[0].RegName);
    SymExpr R = varExpr("(float)" + Src.Text, 4, true);
    writeFReg(I.Ops[1].RegName, R);
    return;
  }

  // SIMD: no lifting rules (like pre-vector Ghidra rule sets).
  fail("no lifting rule for instruction '" + M + "'");
}

//===----------------------------------------------------------------------===//
// ARM lifting rules
//===----------------------------------------------------------------------===//

void Lifter::liftArm(const AsmInstr &I, const AsmInstr *Next, bool *Fused) {
  const std::string &M = I.Mnemonic;
  *Fused = false;

  auto readOperand = [&](const Operand &Op, int Width) -> SymExpr {
    if (Op.K == Operand::Reg)
      return readReg(Op.RegName);
    if (Op.K == Operand::Imm)
      return constExpr(Op.ImmValue, Width);
    fail("unexpected operand");
    return constExpr(0);
  };

  if (M == "nop")
    return;
  if (M == "stp" || M == "ldp")
    return; // Frame save/restore of x29/x30 (and writeback).
  if (M == "mov" && I.Ops[0].K == Operand::Reg &&
      I.Ops[0].RegName == "x29")
    return;

  if (M == "mov") {
    int W = regWidth(I.Ops[0].RegName);
    writeReg(I.Ops[0].RegName, readOperand(I.Ops[1], W));
    return;
  }
  if (M == "movz") {
    writeReg(I.Ops[0].RegName,
             constExpr(I.Ops[1].ImmValue, regWidth(I.Ops[0].RegName)));
    return;
  }
  if (M == "movk") {
    SymExpr Old = readReg(I.Ops[0].RegName);
    int64_t Shift = I.Ops.size() > 2 ? I.Ops[2].ImmValue : 0;
    if (Old.IsConst) {
      uint64_t U = static_cast<uint64_t>(Old.ConstVal);
      uint64_t Mask = 0xffffULL << Shift;
      U = (U & ~Mask) |
          ((static_cast<uint64_t>(I.Ops[1].ImmValue) & 0xffff) << Shift);
      writeReg(I.Ops[0].RegName,
               constExpr(static_cast<int64_t>(U),
                         regWidth(I.Ops[0].RegName)));
      return;
    }
    fail("movk over non-constant");
    return;
  }
  if (M == "adrp") {
    SymExpr E = varExpr("&" + I.Ops[1].LabelName, 8);
    writeReg(I.Ops[0].RegName, E);
    return;
  }
  if (M == "add" && I.Ops.size() == 3 && I.Ops[2].K == Operand::Lo12) {
    // Completes the adrp pair; the register already holds &sym.
    writeReg(I.Ops[0].RegName, readReg(I.Ops[1].RegName));
    return;
  }
  if (M == "add" && I.Ops[1].K == Operand::Reg &&
      I.Ops[1].RegName == "sp") {
    fail("address of stack slot is not supported");
    return;
  }

  auto alu3 = [&](const char *Op) {
    int W = regWidth(I.Ops[0].RegName);
    SymExpr A = readOperand(I.Ops[1], W);
    SymExpr B = readOperand(I.Ops[2], W);
    writeReg(I.Ops[0].RegName, binExpr(A, Op, B));
  };
  if (M == "add" && !isFloatReg(I.Ops[0].RegName))
    return alu3("+");
  if (M == "sub" && !isFloatReg(I.Ops[0].RegName))
    return alu3("-");
  if (M == "mul" && !isFloatReg(I.Ops[0].RegName))
    return alu3("*");
  if (M == "and")
    return alu3("&");
  if (M == "orr")
    return alu3("|");
  if (M == "eor")
    return alu3("^");
  if (M == "lsl")
    return alu3("<<");
  if (M == "asr")
    return alu3(">>");
  if (M == "lsr") {
    int W = regWidth(I.Ops[0].RegName);
    SymExpr A = readOperand(I.Ops[1], W);
    SymExpr AU = varExpr(std::string(W == 8 ? "(unsigned long)"
                                            : "(unsigned int)") +
                             A.Text,
                         W);
    writeReg(I.Ops[0].RegName, binExpr(AU, ">>", readOperand(I.Ops[2], W)));
    return;
  }
  if (M == "sdiv" || M == "udiv") {
    int W = regWidth(I.Ops[0].RegName);
    SymExpr A = readOperand(I.Ops[1], W);
    SymExpr B = readOperand(I.Ops[2], W);
    if (M == "udiv") {
      const char *Cast = W == 8 ? "(unsigned long)" : "(unsigned int)";
      A = varExpr(std::string(Cast) + A.Text, W);
      B = varExpr(std::string(Cast) + B.Text, W);
    }
    writeReg(I.Ops[0].RegName, binExpr(A, "/", B));
    return;
  }
  if (M == "msub") {
    int W = regWidth(I.Ops[0].RegName);
    SymExpr Q = readOperand(I.Ops[1], W);
    SymExpr B = readOperand(I.Ops[2], W);
    SymExpr A = readOperand(I.Ops[3], W);
    writeReg(I.Ops[0].RegName,
             varExpr("(" + A.Text + " - " + Q.Text + " * " + B.Text + ")",
                     W));
    return;
  }
  if (M == "neg") {
    int W = regWidth(I.Ops[0].RegName);
    writeReg(I.Ops[0].RegName,
             varExpr("-" + readOperand(I.Ops[1], W).Text, W));
    return;
  }
  if (M == "mvn") {
    int W = regWidth(I.Ops[0].RegName);
    writeReg(I.Ops[0].RegName,
             varExpr("~" + readOperand(I.Ops[1], W).Text, W));
    return;
  }
  if (M == "sxtw") {
    SymExpr Src = readReg(I.Ops[1].RegName);
    SymExpr E = varExpr("(long)" + Src.Text, 8);
    E.IsConst = Src.IsConst;
    E.ConstVal = Src.ConstVal;
    writeReg(I.Ops[0].RegName, E);
    return;
  }
  if (M == "uxtw") {
    SymExpr Src = readReg(I.Ops[1].RegName);
    writeReg(I.Ops[0].RegName,
             varExpr("(long)(unsigned int)" + Src.Text, 8));
    return;
  }

  auto memWidth = [&](const std::string &Mn, const std::string &Reg) {
    if (endsWith(Mn, "b"))
      return 1;
    if (endsWith(Mn, "h") && Mn != "b.h")
      return 2;
    return regWidth(Reg);
  };
  if (M == "ldr" || M == "ldrb" || M == "ldrh" || M == "ldrsb" ||
      M == "ldrsh") {
    const std::string &Dst = I.Ops[0].RegName;
    if (isFloatReg(Dst)) {
      if (Dst[0] == 'q') {
        fail("no lifting rule for vector load");
        return;
      }
      int W = Dst[0] == 'd' ? 8 : 4;
      auto LV = memLValue(I.Ops[1], W, true);
      if (LV)
        writeFReg(Dst, varExpr(*LV, W, true));
      return;
    }
    int W = memWidth(M, Dst);
    auto LV = memLValue(I.Ops[1], W, false);
    if (!LV)
      return;
    SymExpr E = varExpr(*LV, W);
    if (M == "ldrb")
      E = varExpr("(unsigned char)" + E.Text, 4);
    writeReg(Dst, E);
    return;
  }
  if (M == "str" || M == "strb" || M == "strh") {
    const std::string &Src = I.Ops[0].RegName;
    if (isFloatReg(Src)) {
      if (Src[0] == 'q') {
        fail("no lifting rule for vector store");
        return;
      }
      int W = Src[0] == 'd' ? 8 : 4;
      auto LV = memLValue(I.Ops[1], W, true);
      if (LV) {
        preAssign(*LV);
        emitStmt(*LV + " = " + readFReg(Src).Text + ";");
      }
      return;
    }
    int W = memWidth(M, Src);
    auto LV = memLValue(I.Ops[1], W, false);
    if (LV) {
      preAssign(*LV);
      emitStmt(*LV + " = " + readReg(Src).Text + ";");
    }
    return;
  }

  if (M == "cmp") {
    int W = regWidth(I.Ops[0].RegName);
    Flags.Valid = true;
    Flags.IsFloat = false;
    Flags.Width = W;
    Flags.A = readReg(I.Ops[0].RegName);
    Flags.B = readOperand(I.Ops[1], W);
    return;
  }
  if (M == "cset") {
    writeReg(I.Ops[0].RegName, varExpr(condText(I.Ops[1].LabelName), 4));
    return;
  }
  if (M == "b") {
    Cur->Term = LBlock::Jump;
    Cur->T0 = blockOfLabel(I.Ops[0].LabelName);
    return;
  }
  if (startsWith(M, "b.")) {
    Cur->Term = LBlock::Cond;
    Cur->CondText = condText(M.substr(2));
    Cur->T0 = blockOfLabel(I.Ops[0].LabelName);
    if (Next && Next->Mnemonic == "b") {
      Cur->T1 = blockOfLabel(Next->Ops[0].LabelName);
      *Fused = true;
    } else {
      fail("conditional branch without a paired b");
    }
    return;
  }
  if (M == "bl") {
    std::string Callee = I.Ops[0].LabelName;
    std::vector<std::string> Args;
    for (int A = 0; A < 6; ++A) {
      std::string Key = formatString("x%d", A);
      if (!WrittenRegs.count(Key))
        break;
      Args.push_back(readReg(Key).Text);
    }
    materializeMemReads(); // The callee may write memory.
    std::string T = freshTemp(false, 8);
    emitStmt(T + " = " + Callee + "(" + joinStrings(Args, ", ") + ");");
    writeReg("x0", varExpr(T, 8));
    for (int A = 1; A < 6; ++A) {
      Regs.erase(formatString("x%d", A));
      WrittenRegs.erase(formatString("x%d", A));
    }
    return;
  }
  if (M == "ret") {
    Cur->Term = LBlock::Ret;
    if (FRegs.count("s0") || FRegs.count("d0")) {
      SymExpr E = FRegs.count("s0") ? FRegs["s0"] : FRegs["d0"];
      int W = E.Width;
      materializeExpr(E); // Epilogue restores must not go stale.
      Cur->RetExpr = E.Text;
      Cur->RetIsFloat = true;
      Cur->RetWidth = W;
      SawFloatReturn = true;
      FloatRetWidth = W;
    } else if (Regs.count("x0")) {
      SymExpr E = Regs["x0"];
      materializeExpr(E);
      Cur->RetExpr = E.Text;
      SawIntReturn = true;
    }
    return;
  }

  // Scalar float.
  auto fbin3 = [&](const char *Op) {
    int W = I.Ops[0].RegName[0] == 'd' ? 8 : 4;
    SymExpr A = readFReg(I.Ops[1].RegName);
    SymExpr B = readFReg(I.Ops[2].RegName);
    SymExpr R = binExpr(A, Op, B, true);
    R.Width = W;
    writeFReg(I.Ops[0].RegName, R);
  };
  if (M == "fadd")
    return fbin3("+");
  if (M == "fsub")
    return fbin3("-");
  if (M == "fmul")
    return fbin3("*");
  if (M == "fdiv")
    return fbin3("/");
  if (M == "fneg") {
    SymExpr A = readFReg(I.Ops[1].RegName);
    writeFReg(I.Ops[0].RegName, varExpr("-" + A.Text,
                                        I.Ops[0].RegName[0] == 'd' ? 8 : 4,
                                        true));
    return;
  }
  if (M == "fcmp") {
    Flags.Valid = true;
    Flags.IsFloat = true;
    Flags.Width = I.Ops[0].RegName[0] == 'd' ? 8 : 4;
    Flags.A = readFReg(I.Ops[0].RegName);
    Flags.B = readFReg(I.Ops[1].RegName);
    return;
  }
  if (M == "fmov") {
    const std::string &Dst = I.Ops[0].RegName;
    const std::string &Src = I.Ops[1].RegName;
    if (isFloatReg(Dst) && isFloatReg(Src)) {
      writeFReg(Dst, readFReg(Src));
      return;
    }
    if (isFloatReg(Dst)) {
      SymExpr Bits = readReg(Src);
      if (Bits.IsConst) {
        SymExpr FE;
        if (Dst[0] == 's') {
          float FV;
          uint32_t B = static_cast<uint32_t>(Bits.ConstVal);
          std::memcpy(&FV, &B, 4);
          FE = varExpr(formatString("%gf", FV), 4, true);
        } else {
          double DV;
          uint64_t B = static_cast<uint64_t>(Bits.ConstVal);
          std::memcpy(&DV, &B, 8);
          FE = varExpr(formatString("%g", DV), 8, true);
          if (FE.Text.find('.') == std::string::npos &&
              FE.Text.find('e') == std::string::npos)
            FE.Text += ".0";
        }
        writeFReg(Dst, FE);
        return;
      }
      fail("fmov from non-constant");
      return;
    }
    fail("fmov to gpr unsupported");
    return;
  }
  if (M == "scvtf") {
    bool F64 = I.Ops[0].RegName[0] == 'd';
    SymExpr Src = readReg(I.Ops[1].RegName);
    writeFReg(I.Ops[0].RegName,
              varExpr(std::string(F64 ? "(double)" : "(float)") + Src.Text,
                      F64 ? 8 : 4, true));
    return;
  }
  if (M == "fcvtzs") {
    int W = regWidth(I.Ops[0].RegName);
    SymExpr Src = readFReg(I.Ops[1].RegName);
    writeReg(I.Ops[0].RegName,
             varExpr(std::string(W == 8 ? "(long)" : "(int)") + Src.Text,
                     W));
    return;
  }
  if (M == "fcvt") {
    bool ToF64 = I.Ops[0].RegName[0] == 'd';
    SymExpr Src = readFReg(I.Ops[1].RegName);
    writeFReg(I.Ops[0].RegName,
              varExpr(std::string(ToF64 ? "(double)" : "(float)") +
                          Src.Text,
                      ToF64 ? 8 : 4, true));
    return;
  }

  fail("no lifting rule for instruction '" + M + "'");
}

//===----------------------------------------------------------------------===//
// Block-end materialization
//===----------------------------------------------------------------------===//

void Lifter::flushBlockEnd() {
  // Materialize written callee-saved registers so their values survive the
  // block (Ghidra's uVar assignments).
  static const char *X86Saved[] = {"rbx", "r12", "r13", "r14", "r15"};
  static const char *ArmSaved[] = {"x19", "x20", "x21", "x22", "x23"};
  // Two phases: pin every pending value first (they may reference the
  // uVars being reassigned), then assign.
  std::vector<std::pair<std::string, std::string>> Pending;
  auto collect = [&](const std::string &Key) {
    auto It = Regs.find(Key);
    if (It == Regs.end() || !WrittenRegs.count(Key))
      return;
    std::string V = "uVar_" + Key;
    if (It->second.Text == V)
      return;
    materializeExpr(It->second);
    UsedRegVars.insert(V);
    Pending.push_back({V, It->second.Text});
  };
  if (D == Dialect::X86)
    for (const char *R : X86Saved)
      collect(R);
  if (D == Dialect::Arm)
    for (const char *R : ArmSaved)
      collect(R);
  for (const auto &[V, Text] : Pending)
    Cur->Stmts.push_back(V + " = " + Text + ";");
  Regs.clear();
  FRegs.clear();
  WrittenRegs.clear();
  Flags = FlagState();
}

//===----------------------------------------------------------------------===//
// Structuring
//===----------------------------------------------------------------------===//

bool Lifter::isLoopHeader(int B, int *MaxBack) {
  int Max = -1;
  for (size_t P = 0; P < Blocks.size(); ++P) {
    const LBlock &LB = Blocks[P];
    bool Edge = (LB.Term == LBlock::Jump && LB.T0 == B) ||
                (LB.Term == LBlock::Cond && (LB.T0 == B || LB.T1 == B)) ||
                (LB.Term == LBlock::Fall &&
                 static_cast<int>(P) + 1 == B);
    if (Edge && static_cast<int>(P) >= B)
      Max = static_cast<int>(P);
  }
  *MaxBack = Max;
  return Max >= 0;
}

void Lifter::reachSet(int From, const LoopCtx &Loop, std::set<int> &Out) {
  std::vector<int> Work = {From};
  while (!Work.empty()) {
    int B = Work.back();
    Work.pop_back();
    if (B < 0 || B >= static_cast<int>(Blocks.size()))
      continue;
    if (Loop.Header >= 0 && B == Loop.Header)
      continue; // Back-edge: not part of the forward region.
    if (Loop.Exit >= 0 && B == Loop.Exit)
      continue;
    if (!Out.insert(B).second)
      continue;
    const LBlock &LB = Blocks[static_cast<size_t>(B)];
    if (LB.Term == LBlock::Jump)
      Work.push_back(LB.T0);
    else if (LB.Term == LBlock::Cond) {
      Work.push_back(LB.T0);
      Work.push_back(LB.T1);
    } else if (LB.Term == LBlock::Fall)
      Work.push_back(B + 1);
  }
}

int Lifter::findJoin(int A, int B, const LoopCtx &Loop) {
  std::set<int> SA, SB;
  reachSet(A, Loop, SA);
  reachSet(B, Loop, SB);
  int Best = -1;
  for (int X : SA)
    if (SB.count(X) && (Best < 0 || X < Best))
      Best = X;
  return Best;
}

bool Lifter::emitRegion(int CurB, int Stop, const LoopCtx &Loop, int Depth,
                        std::string &Out, int Indent) {
  if (Depth > 64) {
    fail("control flow too deep to structure");
    return false;
  }
  std::string Pad(static_cast<size_t>(Indent) * 2, ' ');
  std::set<int> Visited;
  while (CurB != Stop && CurB >= 0 &&
         CurB < static_cast<int>(Blocks.size())) {
    if (!Visited.insert(CurB).second) {
      fail("irreducible control flow");
      return false;
    }
    // Loop header inside the current region (but not the enclosing one)?
    int MaxBack = -1;
    if (CurB != Loop.Header && isLoopHeader(CurB, &MaxBack) &&
        MaxBack >= CurB) {
      // Determine the single exit target of the loop.
      int Exit = -1;
      for (int B = CurB; B <= MaxBack; ++B) {
        const LBlock &LB = Blocks[static_cast<size_t>(B)];
        auto consider = [&](int T) {
          if (T >= 0 && (T < CurB || T > MaxBack)) {
            if (Exit >= 0 && Exit != T)
              Exit = -2;
            else if (Exit != -2)
              Exit = T;
          }
        };
        if (LB.Term == LBlock::Jump)
          consider(LB.T0);
        if (LB.Term == LBlock::Cond) {
          consider(LB.T0);
          consider(LB.T1);
        }
      }
      if (Exit == -2) {
        fail("loop with multiple exits");
        return false;
      }
      LoopCtx Inner{CurB, Exit, MaxBack};
      Out += Pad + "while (1) {\n";
      if (!emitLoopHeaderAndBody(CurB, Inner, Depth, Out, Indent + 1))
        return false;
      Out += Pad + "}\n";
      CurB = Exit;
      continue;
    }

    const LBlock &LB = Blocks[static_cast<size_t>(CurB)];
    for (const std::string &S : LB.Stmts)
      Out += Pad + S + "\n";
    switch (LB.Term) {
    case LBlock::Ret:
      if (!LB.RetExpr.empty())
        Out += Pad + "return " + LB.RetExpr + ";\n";
      else
        Out += Pad + "return;\n";
      return true;
    case LBlock::Fall:
      CurB = CurB + 1;
      continue;
    case LBlock::Jump: {
      int T = LB.T0;
      if (Loop.Header >= 0 && T == Loop.Header) {
        Out += Pad + "continue;\n";
        return true;
      }
      if (Loop.Exit >= 0 && T == Loop.Exit) {
        Out += Pad + "break;\n";
        return true;
      }
      CurB = T;
      continue;
    }
    case LBlock::Cond: {
      int A = LB.T0, B = LB.T1;
      auto branchText = [&](int T, int JoinT, int Ind,
                            std::string &Dst) -> bool {
        std::string P(static_cast<size_t>(Ind) * 2, ' ');
        if (Loop.Header >= 0 && T == Loop.Header) {
          Dst += P + "continue;\n";
          return true;
        }
        if (Loop.Exit >= 0 && T == Loop.Exit) {
          Dst += P + "break;\n";
          return true;
        }
        if (T == JoinT)
          return true;
        return emitRegion(T, JoinT, Loop, Depth + 1, Dst, Ind);
      };
      // Join of the two forward chains.
      int EffA = (Loop.Header >= 0 && A == Loop.Header) ||
                         (Loop.Exit >= 0 && A == Loop.Exit)
                     ? -1
                     : A;
      int EffB = (Loop.Header >= 0 && B == Loop.Header) ||
                         (Loop.Exit >= 0 && B == Loop.Exit)
                     ? -1
                     : B;
      int Join;
      if (EffA < 0 && EffB < 0)
        Join = -1;
      else if (EffA < 0)
        Join = -1; // Then-branch is continue/break; else chain continues.
      else if (EffB < 0)
        Join = -1;
      else
        Join = findJoin(EffA, EffB, Loop);

      if (EffA >= 0 && EffB >= 0 && Join >= 0) {
        std::string ThenS, ElseS;
        if (!branchText(A, Join, Indent + 1, ThenS))
          return false;
        if (!branchText(B, Join, Indent + 1, ElseS))
          return false;
        Out += Pad + "if " + LB.CondText + " {\n" + ThenS;
        if (!ElseS.empty())
          Out += Pad + "} else {\n" + ElseS;
        Out += Pad + "}\n";
        CurB = Join;
        continue;
      }
      // One (or both) arms leave the region: emit the leaving arm under
      // the if and fall through to the other.
      std::string ThenS;
      if (!branchText(A, -1, Indent + 1, ThenS))
        return false;
      Out += Pad + "if " + LB.CondText + " {\n" + ThenS + Pad + "}\n";
      if (Loop.Header >= 0 && B == Loop.Header) {
        Out += Pad + "continue;\n";
        return true;
      }
      if (Loop.Exit >= 0 && B == Loop.Exit) {
        Out += Pad + "break;\n";
        return true;
      }
      CurB = B;
      continue;
    }
    }
  }
  return true;
}

bool Lifter::emitLoopHeaderAndBody(int Header, const LoopCtx &Loop,
                                   int Depth, std::string &Out, int Indent) {
  // Emit the header block and its successors inside the loop context; the
  // region naturally terminates with continue/break.
  std::string Pad(static_cast<size_t>(Indent) * 2, ' ');
  const LBlock &LB = Blocks[static_cast<size_t>(Header)];
  for (const std::string &S : LB.Stmts)
    Out += Pad + S + "\n";
  switch (LB.Term) {
  case LBlock::Ret:
    if (!LB.RetExpr.empty())
      Out += Pad + "return " + LB.RetExpr + ";\n";
    else
      Out += Pad + "return;\n";
    return true;
  case LBlock::Fall:
    return emitRegion(Header + 1, -1, Loop, Depth + 1, Out, Indent);
  case LBlock::Jump:
    if (LB.T0 == Header) {
      fail("self-loop header");
      return false;
    }
    if (LB.T0 == Loop.Exit) {
      Out += Pad + "break;\n";
      return true;
    }
    return emitRegion(LB.T0, -1, Loop, Depth + 1, Out, Indent);
  case LBlock::Cond: {
    // if (cond) break/body else body/break.
    int A = LB.T0, B = LB.T1;
    if (A == Loop.Exit) {
      Out += Pad + "if " + LB.CondText + " {\n" + Pad + "  break;\n" + Pad +
             "}\n";
      if (B == Header) {
        Out += Pad + "continue;\n";
        return true;
      }
      return emitRegion(B, -1, Loop, Depth + 1, Out, Indent);
    }
    if (B == Loop.Exit) {
      Out += Pad + "if (!" + LB.CondText + ") {\n" + Pad + "  break;\n" +
             Pad + "}\n";
      if (A == Header) {
        Out += Pad + "continue;\n";
        return true;
      }
      return emitRegion(A, -1, Loop, Depth + 1, Out, Indent);
    }
    // Neither arm exits directly: structure as a normal conditional.
    std::string Body;
    LoopCtx Inner = Loop;
    int Join = findJoin(A, B, Inner);
    if (Join >= 0) {
      std::string ThenS, ElseS;
      if (A != Join && !emitRegion(A, Join, Inner, Depth + 1, ThenS,
                                   Indent + 1))
        return false;
      if (B != Join && !emitRegion(B, Join, Inner, Depth + 1, ElseS,
                                   Indent + 1))
        return false;
      Out += Pad + "if " + LB.CondText + " {\n" + ThenS;
      if (!ElseS.empty())
        Out += Pad + "} else {\n" + ElseS;
      Out += Pad + "}\n";
      return emitRegion(Join, -1, Inner, Depth + 1, Out, Indent);
    }
    std::string ThenS, ElseS;
    if (!emitRegion(A, -1, Inner, Depth + 1, ThenS, Indent + 1))
      return false;
    if (!emitRegion(B, -1, Inner, Depth + 1, ElseS, Indent + 1))
      return false;
    Out += Pad + "if " + LB.CondText + " {\n" + ThenS + Pad + "} else {\n" +
           ElseS + Pad + "}\n";
    return true;
  }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

std::string Lifter::signature() {
  std::string RetTy = SawFloatReturn
                          ? (FloatRetWidth == 8 ? "double" : "float")
                      : SawIntReturn ? "long"
                                     : "void";
  std::vector<std::string> Params;
  for (int P = 0; P < MaxIntParam; ++P)
    Params.push_back(formatString("long param_%d", P + 1));
  for (int P = 0; P < MaxFloatParam; ++P)
    Params.push_back(formatString("float fparam_%d", P + 1));
  std::string Sig = RetTy + " " + F.Name + "(" +
                    (Params.empty() ? "void" : joinStrings(Params, ", ")) +
                    ")";
  return Sig;
}

Expected<std::string> Lifter::run() {
  splitBlocks();
  Blocks.resize(BlockStart.size());
  for (size_t B = 0; B < BlockStart.size(); ++B) {
    Cur = &Blocks[B];
    Regs.clear();
    FRegs.clear();
    WrittenRegs.clear();
    Flags = FlagState();
    size_t End = B + 1 < BlockStart.size()
                     ? static_cast<size_t>(BlockStart[B + 1])
                     : F.Instrs.size();
    for (size_t I = static_cast<size_t>(BlockStart[B]); I < End; ++I) {
      bool Fused = false;
      const AsmInstr *Next =
          I + 1 < End ? &F.Instrs[I + 1] : nullptr;
      if (D == Dialect::X86)
        liftX86(F.Instrs[I], Next, &Fused);
      else
        liftArm(F.Instrs[I], Next, &Fused);
      if (!Error.empty())
        return Expected<std::string>::error(Error);
      if (Fused)
        ++I;
    }
    flushBlockEnd();
  }

  std::string Body;
  LoopCtx Top;
  if (!emitRegion(0, -1, Top, 0, Body, 1) || !Error.empty())
    return Expected<std::string>::error(
        Error.empty() ? "structuring failed" : Error);

  // Declarations.
  std::string Decls;
  for (const auto &[Off, W] : LocalWidth) {
    bool Fl = LocalFloat.count(Off) && LocalFloat.at(Off);
    const char *Ty = Fl ? (W == 8 ? "double" : "float")
                        : (W == 8 ? "long" : "int");
    Decls += formatString("  %s local_%lld;\n", Ty,
                          static_cast<long long>(Off < 0 ? -Off : Off));
  }
  for (const std::string &V : UsedRegVars)
    Decls += "  long " + V + ";\n";
  for (const std::string &T : TempDecls)
    Decls += "  " + T + "\n";

  std::string Out = signature() + " {\n" + Decls + Body + "}\n";
  return Out;
}

} // namespace

Expected<std::string> slade::baselines::ruleDecompile(const AsmFunction &F,
                                                      Dialect D) {
  Lifter L(F, D);
  return L.run();
}
