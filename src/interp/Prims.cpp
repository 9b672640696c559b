//===- interp/Prims.cpp - Speculate's primitive semantics ------------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/Prims.h"

#include "support/StringUtils.h"

using namespace specpar;
using namespace specpar::interp;
using namespace specpar::lang;

std::string prims::operandsNotInts(BinOpKind Op) {
  return formatString("operator '%s' needs integer operands",
                      binOpSpelling(Op));
}

std::string prims::indexOutOfBounds(int64_t Index) {
  return formatString("array index %lld out of bounds",
                      static_cast<long long>(Index));
}

std::string prims::unboundVariable(const std::string &Name) {
  return formatString("unbound variable '%s'", Name.c_str());
}

bool prims::heapOp(Heap &H, const Expr *E, Value *Ops, Value &Out,
                   RtError &Err) {
  auto Fail = [&Err](const Expr *At, std::string Msg) {
    Err = RtError{std::move(Msg), At->loc()};
    return false;
  };
  switch (E->kind()) {
  case Expr::Kind::NewCell:
    if (!heapFits(H.slots(), 1))
      return Fail(E, HeapExhausted);
    Out = Value(H.allocCell(Ops[0]));
    return true;
  case Expr::Kind::Assign: {
    const Expr *Target = cast<Assign>(E)->cell();
    const auto *Ref = std::get_if<CellRef>(&Ops[0].V);
    if (!Ref)
      return Fail(Target, AssignNotCell);
    if (!H.setCell(*Ref, Ops[1]))
      return Fail(Target, DanglingCell);
    Out = std::move(Ops[1]);
    return true;
  }
  case Expr::Kind::Deref: {
    const auto *Ref = std::get_if<CellRef>(&Ops[0].V);
    if (!Ref)
      return Fail(E, DerefNotCell);
    std::optional<Value> V = H.getCell(*Ref);
    if (!V)
      return Fail(E, DanglingCell);
    Out = std::move(*V);
    return true;
  }
  case Expr::Kind::NewArray: {
    const Value &Size = Ops[0];
    if (!Size.isInt() || Size.asInt() < 0)
      return Fail(cast<NewArray>(E)->size(), BadArraySize);
    if (!heapFits(H.slots(), static_cast<uint64_t>(Size.asInt())))
      return Fail(E, HeapExhausted);
    Out = Value(H.allocArray(Size.asInt(), Ops[1]));
    return true;
  }
  case Expr::Kind::ArrayGet: {
    const auto *Ref = std::get_if<ArrRef>(&Ops[0].V);
    if (!Ref || !Ops[1].isInt())
      return Fail(E, BadArrayRead);
    std::optional<Value> V = H.getSlot(*Ref, Ops[1].asInt());
    if (!V)
      return Fail(E, indexOutOfBounds(Ops[1].asInt()));
    Out = std::move(*V);
    return true;
  }
  case Expr::Kind::ArraySet: {
    const auto *Ref = std::get_if<ArrRef>(&Ops[0].V);
    if (!Ref || !Ops[1].isInt())
      return Fail(E, BadArrayWrite);
    if (!H.setSlot(*Ref, Ops[1].asInt(), Ops[2]))
      return Fail(E, indexOutOfBounds(Ops[1].asInt()));
    Out = std::move(Ops[2]);
    return true;
  }
  case Expr::Kind::ArrayLen: {
    const auto *Ref = std::get_if<ArrRef>(&Ops[0].V);
    if (!Ref)
      return Fail(E, LenNotArray);
    Out = Value(*H.arrayLen(*Ref));
    return true;
  }
  default:
    sp_unreachable("not a heap operation");
  }
}
