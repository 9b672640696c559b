//===- interp/Prims.h - Speculate's primitive semantics ---------*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single definition of Speculate's primitives, shared by all three
/// engines so they agree on every value and every error:
///
///  * the integer operators: `+ - *` wrap in two's complement, `/` and `%`
///    truncate toward zero and fail on a zero divisor or INT64_MIN / -1,
///    comparisons yield 0 or 1;
///  * the cell and array operations on `Value`/`Heap`, the error each one
///    raises and the node it blames;
///  * iteration over fold's and specfold's inclusive `[lo, hi]`, which
///    stops at hi without computing hi + 1, so hi may be INT64_MAX;
///  * the per-run heap limit;
///  * every runtime error text.
///
/// The non-speculative evaluator and the speculative machine call
/// `operands`/`apply`/`foldRange` once a node's operands are evaluated.
/// The compiled tier keeps its own value representation and takes the
/// integer operators, the range, the heap limit and the texts from here.
/// Nothing on a success path allocates; the hot parts are inline.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_INTERP_PRIMS_H
#define SPECPAR_INTERP_PRIMS_H

#include "interp/Heap.h"
#include "interp/Value.h"
#include "lang/Ast.h"
#include "support/Casting.h"
#include "support/Unreachable.h"

#include <cstdint>
#include <string>

namespace specpar {
namespace interp {
namespace prims {

//===----------------------------------------------------------------------===//
// Error texts
//===----------------------------------------------------------------------===//

inline constexpr char IfNotInt[] = "if condition must be an integer";
inline constexpr char DivByZero[] = "division by zero";
inline constexpr char DivOverflow[] = "integer overflow in division";
inline constexpr char ModByZero[] = "modulo by zero";
inline constexpr char ModOverflow[] = "integer overflow in modulo";
inline constexpr char NotCallable[] = "application of a non-function value";
inline constexpr char AssignNotCell[] = "assignment target is not a cell";
inline constexpr char DerefNotCell[] = "dereference of a non-cell";
inline constexpr char DanglingCell[] = "dangling cell reference";
inline constexpr char BadArraySize[] =
    "array size must be a non-negative integer";
inline constexpr char BadArrayRead[] =
    "array read needs an array and an integer index";
inline constexpr char BadArrayWrite[] =
    "array write needs an array and an integer index";
inline constexpr char LenNotArray[] = "len of a non-array";
inline constexpr char FoldBoundsNotInts[] = "fold bounds must be integers";
inline constexpr char HeapExhausted[] = "speculate heap exhausted";
/// Only the speculative machine has threads to wait on.
inline constexpr char WaitCancelled[] = "wait on a cancelled thread";
/// Only the compiled tier can lose a consumer result (an engine bug).
inline constexpr char NoConsumerResult[] =
    "speculation finished without a consumer result";

std::string operandsNotInts(lang::BinOpKind Op);
std::string indexOutOfBounds(int64_t Index);
std::string unboundVariable(const std::string &Name);

//===----------------------------------------------------------------------===//
// Integers, ranges, heap limit
//===----------------------------------------------------------------------===//

/// Applies integer operator \p Op to \p A and \p B. Returns null with the
/// result in \p Out, or the error text.
inline const char *intOp(lang::BinOpKind Op, int64_t A, int64_t B,
                         int64_t &Out) {
  using K = lang::BinOpKind;
  switch (Op) {
  case K::Add:
    Out = static_cast<int64_t>(static_cast<uint64_t>(A) +
                               static_cast<uint64_t>(B));
    return nullptr;
  case K::Sub:
    Out = static_cast<int64_t>(static_cast<uint64_t>(A) -
                               static_cast<uint64_t>(B));
    return nullptr;
  case K::Mul:
    Out = static_cast<int64_t>(static_cast<uint64_t>(A) *
                               static_cast<uint64_t>(B));
    return nullptr;
  case K::Div:
    if (B == 0)
      return DivByZero;
    if (A == INT64_MIN && B == -1)
      return DivOverflow;
    Out = A / B;
    return nullptr;
  case K::Mod:
    if (B == 0)
      return ModByZero;
    if (A == INT64_MIN && B == -1)
      return ModOverflow;
    Out = A % B;
    return nullptr;
  case K::Lt:
    Out = A < B;
    return nullptr;
  case K::Le:
    Out = A <= B;
    return nullptr;
  case K::Gt:
    Out = A > B;
    return nullptr;
  case K::Ge:
    Out = A >= B;
    return nullptr;
  case K::EqEq:
    Out = A == B;
    return nullptr;
  case K::Ne:
    Out = A != B;
    return nullptr;
  }
  sp_unreachable("unknown binop");
}

/// The indices of an inclusive range [Lo, Hi], in order. `pop` never
/// computes Hi + 1, so Hi may be INT64_MAX. Default-constructed: empty.
class InclusiveRange {
public:
  InclusiveRange() = default;
  InclusiveRange(int64_t Lo, int64_t Hi) : Next(Lo), Hi(Hi), Done(Lo > Hi) {}

  bool empty() const { return Done; }

  /// The next index; the range must not be empty.
  int64_t pop() {
    const int64_t I = Next;
    if (I == Hi)
      Done = true;
    else
      ++Next;
    return I;
  }

private:
  int64_t Next = 0;
  int64_t Hi = 0;
  bool Done = true;
};

/// The most value slots one run's heap holds: one per cell, one per array
/// element (2^28 slots are 4 GiB of the compiled tier's 16-byte values).
/// Closures and partial applications do not count; each costs a step.
inline constexpr uint64_t MaxHeapSlots = uint64_t(1) << 28;

/// True when \p More further slots fit beside the \p Used already held.
inline bool heapFits(uint64_t Used, uint64_t More) {
  return More <= MaxHeapSlots - Used;
}

//===----------------------------------------------------------------------===//
// The interpreters' primitives on Value/Heap
//===----------------------------------------------------------------------===//

inline constexpr unsigned MaxOperands = 4;

/// The operands of \p E in evaluation order (left to right) for the nodes
/// that evaluate all their operands before acting: binary operators, the
/// cell and array operations, fold and specfold. Returns how many, 0 for
/// every other node.
inline unsigned operands(const lang::Expr *E,
                         const lang::Expr *Out[MaxOperands]) {
  using namespace lang;
  switch (E->kind()) {
  case Expr::Kind::BinOp:
    Out[0] = cast<BinOp>(E)->lhs();
    Out[1] = cast<BinOp>(E)->rhs();
    return 2;
  case Expr::Kind::NewCell:
    Out[0] = cast<NewCell>(E)->init();
    return 1;
  case Expr::Kind::Assign:
    Out[0] = cast<Assign>(E)->cell();
    Out[1] = cast<Assign>(E)->value();
    return 2;
  case Expr::Kind::Deref:
    Out[0] = cast<Deref>(E)->cell();
    return 1;
  case Expr::Kind::NewArray:
    Out[0] = cast<NewArray>(E)->size();
    Out[1] = cast<NewArray>(E)->init();
    return 2;
  case Expr::Kind::ArrayGet:
    Out[0] = cast<ArrayGet>(E)->array();
    Out[1] = cast<ArrayGet>(E)->index();
    return 2;
  case Expr::Kind::ArraySet:
    Out[0] = cast<ArraySet>(E)->array();
    Out[1] = cast<ArraySet>(E)->index();
    Out[2] = cast<ArraySet>(E)->value();
    return 3;
  case Expr::Kind::ArrayLen:
    Out[0] = cast<ArrayLen>(E)->array();
    return 1;
  case Expr::Kind::Fold: {
    const auto *F = cast<Fold>(E);
    Out[0] = F->fn();
    Out[1] = F->init();
    Out[2] = F->lo();
    Out[3] = F->hi();
    return 4;
  }
  case Expr::Kind::SpecFold: {
    const auto *S = cast<SpecFold>(E);
    Out[0] = S->fn();
    Out[1] = S->guess();
    Out[2] = S->lo();
    Out[3] = S->hi();
    return 4;
  }
  default:
    return 0;
  }
}

/// Applies the cell or array operation \p E — new, :=, !, newarr, a[i],
/// a[i] := v, len — to its evaluated operands \p Ops (consumed).
bool heapOp(Heap &H, const lang::Expr *E, Value *Ops, Value &Out,
            RtError &Err);

/// Applies the binary operator or heap operation \p E to its evaluated
/// operands \p Ops (consumed). On failure returns false with the error
/// and the node it blames in \p Err; \p Err is untouched otherwise.
inline bool apply(Heap &H, const lang::Expr *E, Value *Ops, Value &Out,
                  RtError &Err) {
  const auto *B = dyn_cast<lang::BinOp>(E);
  if (!B)
    return heapOp(H, E, Ops, Out, Err);
  if (!Ops[0].isInt() || !Ops[1].isInt()) {
    Err = RtError{operandsNotInts(B->op()), B->loc()};
    return false;
  }
  int64_t V;
  if (const char *Msg = intOp(B->op(), Ops[0].asInt(), Ops[1].asInt(), V)) {
    Err = RtError{Msg, B->loc()};
    return false;
  }
  Out = Value(V);
  return true;
}

/// The range of fold or specfold \p At from its evaluated bounds, checked
/// before anything else of the loop runs (specfold's g(lo) included).
inline bool foldRange(const lang::Expr *At, const Value &Lo, const Value &Hi,
                      InclusiveRange &R, RtError &Err) {
  if (!Lo.isInt() || !Hi.isInt()) {
    Err = RtError{FoldBoundsNotInts, At->loc()};
    return false;
  }
  R = InclusiveRange(Lo.asInt(), Hi.asInt());
  return true;
}

} // namespace prims
} // namespace interp
} // namespace specpar

#endif // SPECPAR_INTERP_PRIMS_H
