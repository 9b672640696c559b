//===- interp/NonSpecEval.cpp - Non-speculative semantics -------------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/NonSpecEval.h"

#include "interp/Prims.h"
#include "support/Casting.h"
#include "support/StringUtils.h"
#include "support/Unreachable.h"

using namespace specpar;
using namespace specpar::interp;
using namespace specpar::lang;

std::string RunOutcome::statusStr() const {
  switch (St) {
  case Status::Done:
    return "done";
  case Status::Error:
    return formatString("error at line %d col %d: %s", Error.Loc.Line,
                        Error.Loc.Col, Error.Message.c_str());
  case Status::StepLimit:
    return "step limit exceeded";
  case Status::Deadlock:
    return "deadlock";
  }
  sp_unreachable("unknown status");
}

namespace {

class Evaluator {
public:
  Evaluator(const Program &P, Heap &H, uint64_t MaxSteps)
      : P(P), H(H), MaxSteps(MaxSteps) {}

  /// Evaluates \p E; on success stores into \p Out and returns true.
  bool eval(const Expr *E, const EnvPtr &Env, Value &Out) {
    if (++Steps > MaxSteps) {
      StepLimitHit = true;
      return false;
    }
    switch (E->kind()) {
    case Expr::Kind::IntLit:
      Out = Value(cast<IntLit>(E)->value());
      return true;
    case Expr::Kind::UnitLit:
      Out = Value(UnitVal{});
      return true;
    case Expr::Kind::VarRef: {
      const auto *V = cast<VarRef>(E);
      if (const Binding *B = V->binding()) {
        const Value *Found = EnvNode::lookup(Env, B);
        if (!Found)
          return fail(E, prims::unboundVariable(V->name()));
        Out = *Found;
        return true;
      }
      Out = Value(FunVal{V->fun(), nullptr});
      return true;
    }
    case Expr::Kind::Lambda:
      Out = Value(Closure{cast<Lambda>(E), Env});
      return true;
    case Expr::Kind::Call: {
      const auto *C = cast<Call>(E);
      Value Fn;
      if (!eval(C->callee(), Env, Fn))
        return false;
      std::vector<Value> Args;
      Args.reserve(C->args().size());
      for (const Expr *A : C->args()) {
        Value V;
        if (!eval(A, Env, V))
          return false;
        Args.push_back(std::move(V));
      }
      return applyMany(E, Fn, Args, Out);
    }
    case Expr::Kind::Seq: {
      const auto *S = cast<Seq>(E);
      Value Ignored;
      return eval(S->first(), Env, Ignored) && eval(S->second(), Env, Out);
    }
    case Expr::Kind::If: {
      const auto *I = cast<If>(E);
      Value Cond;
      if (!eval(I->cond(), Env, Cond))
        return false;
      if (!Cond.isInt())
        return fail(I->cond(), prims::IfNotInt);
      return eval(Cond.asInt() != 0 ? I->thenExpr() : I->elseExpr(), Env,
                  Out);
    }
    case Expr::Kind::BinOp:
    case Expr::Kind::NewCell:
    case Expr::Kind::Assign:
    case Expr::Kind::Deref:
    case Expr::Kind::NewArray:
    case Expr::Kind::ArrayGet:
    case Expr::Kind::ArraySet:
    case Expr::Kind::ArrayLen: {
      Value Ops[prims::MaxOperands];
      return evalOperands(E, Env, Ops) && prims::apply(H, E, Ops, Out, Error);
    }
    case Expr::Kind::Let: {
      const auto *L = cast<Let>(E);
      Value Init;
      if (!eval(L->init(), Env, Init))
        return false;
      return eval(L->body(), EnvNode::bind(Env, L->var(), std::move(Init)),
                  Out);
    }
    case Expr::Kind::Fold:
    case Expr::Kind::SpecFold: {
      // Operands fn, init (fold) or guess (specfold), lo, hi.
      // NONSPEC-ITERATE runs specfold f g l u as fold f (g l) l u.
      Value Ops[prims::MaxOperands];
      prims::InclusiveRange R;
      if (!evalOperands(E, Env, Ops) ||
          !prims::foldRange(E, Ops[2], Ops[3], R, Error))
        return false;
      if (isa<SpecFold>(E) && !applyMany(E, Ops[1], {Ops[2]}, Ops[1]))
        return false;
      return runFold(E, Ops[0], std::move(Ops[1]), R, Out);
    }
    case Expr::Kind::Spec: {
      // NONSPEC-APPLY: evaluate the consumer (evaluation context), then
      // c(p). The predictor is never evaluated.
      const auto *S = cast<Spec>(E);
      Value Consumer, Produced;
      if (!eval(S->consumer(), Env, Consumer))
        return false;
      if (!eval(S->producer(), Env, Produced))
        return false;
      return applyMany(E, Consumer, {Produced}, Out);
    }
    }
    sp_unreachable("unknown expression kind");
  }

  bool fail(const Expr *E, std::string Msg) {
    Error = RtError{std::move(Msg), E->loc()};
    return false;
  }

  bool stepLimitHit() const { return StepLimitHit; }
  const RtError &error() const { return Error; }
  uint64_t steps() const { return Steps; }

  /// Applies \p Fn to \p Args left to right (curried).
  bool applyMany(const Expr *At, Value Fn, std::vector<Value> Args,
                 Value &Out) {
    // A zero-argument call of a nullary named function runs its body.
    if (Args.empty()) {
      if (const auto *F = std::get_if<FunVal>(&Fn.V);
          F && F->Fn->Params.empty())
        return eval(F->Fn->Body, nullptr, Out);
      Out = std::move(Fn);
      return true;
    }
    Value Cur = std::move(Fn);
    for (Value &A : Args) {
      Value Next;
      if (!applyOne(At, Cur, std::move(A), Next))
        return false;
      Cur = std::move(Next);
    }
    Out = std::move(Cur);
    return true;
  }

private:
  bool applyOne(const Expr *At, const Value &Fn, Value Arg, Value &Out) {
    if (const auto *C = std::get_if<Closure>(&Fn.V)) {
      EnvPtr Env = EnvNode::bind(C->Env, C->Fn->param(), std::move(Arg));
      return eval(C->Fn->body(), Env, Out);
    }
    if (const auto *F = std::get_if<FunVal>(&Fn.V)) {
      std::vector<Value> Partial =
          F->Partial ? *F->Partial : std::vector<Value>();
      Partial.push_back(std::move(Arg));
      if (Partial.size() < F->Fn->Params.size()) {
        Out = Value(FunVal{
            F->Fn,
            std::make_shared<const std::vector<Value>>(std::move(Partial))});
        return true;
      }
      EnvPtr Env;
      for (size_t I = 0; I < Partial.size(); ++I)
        Env = EnvNode::bind(Env, F->Fn->Params[I], std::move(Partial[I]));
      return eval(F->Fn->Body, Env, Out);
    }
    return fail(At, prims::NotCallable);
  }

  /// Evaluates the operands of \p E (prims::operands) into \p Ops.
  bool evalOperands(const Expr *E, const EnvPtr &Env, Value *Ops) {
    const Expr *Sub[prims::MaxOperands];
    const unsigned N = prims::operands(E, Sub);
    for (unsigned I = 0; I < N; ++I)
      if (!eval(Sub[I], Env, Ops[I]))
        return false;
    return true;
  }

  /// The FOLD-1/FOLD-2 loop over \p R, iterative.
  bool runFold(const Expr *At, const Value &Fn, Value Acc,
               prims::InclusiveRange R, Value &Out) {
    while (!R.empty()) {
      Value Next;
      if (!applyMany(At, Fn, {Value(R.pop()), std::move(Acc)}, Next))
        return false;
      Acc = std::move(Next);
    }
    Out = std::move(Acc);
    return true;
  }

  const Program &P;
  Heap &H;
  uint64_t MaxSteps;
  uint64_t Steps = 0;
  bool StepLimitHit = false;
  RtError Error;
};

} // namespace

RunOutcome specpar::interp::runNonSpeculative(const Program &P,
                                              const EvalOptions &Opts) {
  RunOutcome Out;
  Heap H(&Out.Trace);
  H.setActingThread(0);
  Evaluator Ev(P, H, Opts.MaxSteps);
  Value Result;
  if (Ev.eval(P.Main, nullptr, Result)) {
    Out.St = RunOutcome::Status::Done;
    Out.Result = Result;
    Out.Final = H.snapshot(Result);
  } else if (Ev.stepLimitHit()) {
    Out.St = RunOutcome::Status::StepLimit;
  } else {
    Out.St = RunOutcome::Status::Error;
    Out.Error = Ev.error();
  }
  Out.Steps = Ev.steps();
  return Out;
}
