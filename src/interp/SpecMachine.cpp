//===- interp/SpecMachine.cpp - The speculative semantics -------------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/SpecMachine.h"

#include "interp/Prims.h"
#include "support/Casting.h"
#include "support/Unreachable.h"

#include <algorithm>
#include <memory>

using namespace specpar;
using namespace specpar::interp;
using namespace specpar::lang;

namespace {

/// An argument of a machine-level application: either a value or the
/// result of waiting on a thread (the `vc (wait tg)` shapes of the rules).
struct ArgSpec {
  bool IsWait = false;
  Value V;
  uint64_t Tid = 0;

  static ArgSpec val(Value V) {
    ArgSpec A;
    A.V = std::move(V);
    return A;
  }
  static ArgSpec wait(uint64_t Tid) {
    ArgSpec A;
    A.IsWait = true;
    A.Tid = Tid;
    return A;
  }
};

/// Thread control: what the thread does next.
struct Control {
  enum class Kind { Eval, Ret, Wait, StartApply, AuxFold } K = Kind::Ret;
  // Eval
  const Expr *E = nullptr;
  EnvPtr Env;
  // Ret
  Value V;
  // Wait
  uint64_t Tid = 0;
  // StartApply
  Value Fn;
  std::vector<ArgSpec> Specs;
  // AuxFold (rule SPEC-ITERATE-2/3 state)
  Value FoldFn, FoldGuess;
  prims::InclusiveRange FoldRange;
  uint64_t FoldPrev = 0;

  static Control eval(const Expr *E, EnvPtr Env) {
    Control C;
    C.K = Kind::Eval;
    C.E = E;
    C.Env = std::move(Env);
    return C;
  }
  static Control ret(Value V) {
    Control C;
    C.K = Kind::Ret;
    C.V = std::move(V);
    return C;
  }
  static Control wait(uint64_t Tid) {
    Control C;
    C.K = Kind::Wait;
    C.Tid = Tid;
    return C;
  }
  static Control startApply(Value Fn, std::vector<ArgSpec> Specs) {
    Control C;
    C.K = Kind::StartApply;
    C.Fn = std::move(Fn);
    C.Specs = std::move(Specs);
    return C;
  }
  static Control auxFold(Value F, Value G, prims::InclusiveRange R,
                         uint64_t Prev) {
    Control C;
    C.K = Kind::AuxFold;
    C.FoldFn = std::move(F);
    C.FoldGuess = std::move(G);
    C.FoldRange = R;
    C.FoldPrev = Prev;
    return C;
  }
};

/// One entry of a thread's evaluation context.
struct Frame {
  enum class Kind {
    CallCallee,
    CallArgs,
    SeqNext,
    IfCond,
    Operands,
    LetInit,
    FoldLoop,
    SpecConsumer,
    MultiApply,
    ApplyArgs,
    Check,
  } K;
  const Expr *E = nullptr;
  EnvPtr Env;
  // Operands: the evaluated operands. V[0] is also the callee (CallArgs,
  // ApplyArgs) or the fold function (FoldLoop); Check keeps vc and vp
  // in V[0] and V[1].
  Value V[prims::MaxOperands];
  std::vector<Value> Vals;
  std::vector<ArgSpec> Specs;
  size_t Idx = 0;
  prims::InclusiveRange Range; // FoldLoop: the iterations still to run
  uint64_t T1 = 0, T2 = 0, T3 = 0;
  int Phase = 0; // Check: 0=await consumer value, 1=wait producer,
                 // 2=wait predictor
};

struct MachineThread {
  uint64_t Id = 0;
  bool Speculative = false;
  enum class Status { Running, Done, Cancelled, Failed } St = Status::Running;
  Control Ctl;
  std::vector<Frame> Stack;
  Value Result;
  RtError Err;
  /// The threads blocked waiting on this one while it runs.
  std::vector<uint64_t> Waiters;
};

class Machine {
public:
  Machine(const Program &P, const MachineOptions &Opts)
      : P(P), Opts(Opts), Sched(Opts.Sched, Opts.Seed), H(&Out.Trace) {}

  SpecRunOutcome run() {
    spawn(Control::eval(P.Main, nullptr), /*Speculative=*/false);
    uint64_t Steps = 0;
    for (;;) {
      MachineThread &Main = *Threads[0];
      if (Main.St == MachineThread::Status::Done) {
        Out.St = RunOutcome::Status::Done;
        Out.Result = Main.Result;
        Out.Final = H.snapshot(Main.Result);
        break;
      }
      if (Main.St == MachineThread::Status::Failed) {
        Out.St = RunOutcome::Status::Error;
        Out.Error = Main.Err;
        break;
      }
      if (Steps >= Opts.MaxSteps) {
        Out.St = RunOutcome::Status::StepLimit;
        break;
      }
      // Collect runnable threads (THREAD rule nondeterminism), in
      // ascending Tid order. Done, Cancelled and Failed are terminal, so
      // a thread found in one of them leaves Live for good; a thread
      // waiting on a running one leaves it until that one stops.
      const size_t Old = Live.size();
      Live.insert(Live.end(), Woken.begin(), Woken.end());
      std::sort(Live.begin() + Old, Live.end());
      std::inplace_merge(Live.begin(), Live.begin() + Old, Live.end());
      Woken.clear();
      Candidates.clear();
      size_t Kept = 0;
      for (uint64_t Id : Live) {
        const MachineThread &T = *Threads[Id];
        if (T.St != MachineThread::Status::Running)
          continue;
        if (T.Ctl.K == Control::Kind::Wait &&
            Threads[T.Ctl.Tid]->St == MachineThread::Status::Running) {
          Threads[T.Ctl.Tid]->Waiters.push_back(Id); // blocked
          continue;
        }
        Live[Kept++] = Id;
        Candidates.push_back(SchedCandidate{T.Id, T.Speculative});
      }
      Live.resize(Kept);
      if (Candidates.empty()) {
        Out.St = RunOutcome::Status::Deadlock;
        break;
      }
      uint64_t Tid = Candidates[Sched.pick(Candidates)].Tid;
      ++Steps;
      step(*Threads[Tid]);
      // Only the stepped thread and the threads it cancels can stop.
      if (Threads[Tid]->St != MachineThread::Status::Running)
        wake(*Threads[Tid]);
    }
    Out.Steps = Steps;
    return std::move(Out);
  }

private:
  //===--------------------------------------------------------------------===//
  // Thread management
  //===--------------------------------------------------------------------===//

  uint64_t spawn(Control Ctl, bool Speculative,
                 std::vector<Frame> Stack = {}) {
    auto T = std::make_unique<MachineThread>();
    T->Id = Threads.size();
    T->Speculative = Speculative;
    T->Ctl = std::move(Ctl);
    T->Stack = std::move(Stack);
    Threads.push_back(std::move(T));
    Live.push_back(Threads.back()->Id);
    if (Threads.size() > 1)
      ++Out.ThreadsSpawned;
    return Threads.back()->Id;
  }

  void cancelThread(uint64_t Tid) {
    Threads[Tid]->St = MachineThread::Status::Cancelled;
    wake(*Threads[Tid]);
    ++Out.Cancellations;
  }

  /// Returns the threads blocked on \p T, which has stopped, to Live.
  void wake(MachineThread &T) {
    Woken.insert(Woken.end(), T.Waiters.begin(), T.Waiters.end());
    T.Waiters.clear();
  }

  void failThread(MachineThread &T, const Expr *At, std::string Msg) {
    T.St = MachineThread::Status::Failed;
    T.Err = RtError{std::move(Msg), At ? At->loc() : SourceLoc{}};
  }

  //===--------------------------------------------------------------------===//
  // Stepping
  //===--------------------------------------------------------------------===//

  void step(MachineThread &T) {
    H.setActingThread(T.Id);
    switch (T.Ctl.K) {
    case Control::Kind::Eval:
      stepEval(T);
      return;
    case Control::Kind::Ret:
      onReturn(T, std::move(T.Ctl.V));
      return;
    case Control::Kind::Wait: {
      MachineThread &Target = *Threads[T.Ctl.Tid];
      switch (Target.St) {
      case MachineThread::Status::Done:
        T.Ctl = Control::ret(Target.Result);
        return;
      case MachineThread::Status::Cancelled:
        failThread(T, nullptr, prims::WaitCancelled);
        return;
      case MachineThread::Status::Failed:
        // Propagate the failure to the waiter (a stuck redex in the
        // formal semantics).
        T.St = MachineThread::Status::Failed;
        T.Err = Target.Err;
        return;
      case MachineThread::Status::Running:
        sp_unreachable("scheduled a blocked thread");
      }
      return;
    }
    case Control::Kind::StartApply: {
      Frame F;
      F.K = Frame::Kind::ApplyArgs;
      F.V[0] = std::move(T.Ctl.Fn);
      F.Specs = std::move(T.Ctl.Specs);
      T.Stack.push_back(std::move(F));
      continueApplyArgs(T);
      return;
    }
    case Control::Kind::AuxFold:
      stepAuxFold(T);
      return;
    }
    sp_unreachable("unknown control kind");
  }

  /// SPEC-ITERATE-2 and SPEC-ITERATE-3.
  void stepAuxFold(MachineThread &T) {
    Control C = T.Ctl; // copy: we overwrite T.Ctl below
    if (C.FoldRange.empty()) {
      // SPEC-ITERATE-3: wait for the last checker in the chain.
      T.Ctl = Control::wait(C.FoldPrev);
      return;
    }
    // SPEC-ITERATE-2: spawn predictor tg', speculative body tb', and the
    // checker tc' that first evaluates the re-execution consumer (f lo).
    const int64_t Lo = C.FoldRange.pop();
    uint64_t Tg = spawn(
        Control::startApply(C.FoldGuess, {ArgSpec::val(Value(Lo))}),
        /*Speculative=*/true);
    uint64_t Tb = spawn(Control::startApply(C.FoldFn, {ArgSpec::val(Value(Lo)),
                                                       ArgSpec::wait(Tg)}),
                        /*Speculative=*/true);
    Frame Check;
    Check.K = Frame::Kind::Check;
    Check.T1 = C.FoldPrev; // producer role: the previous iteration
    Check.T2 = Tg;         // predictor
    Check.T3 = Tb;         // speculative consumer
    Check.Phase = 0;       // consumer value (f lo) evaluated first
    std::vector<Frame> Stack;
    Stack.push_back(std::move(Check));
    uint64_t Tc =
        spawn(Control::startApply(C.FoldFn, {ArgSpec::val(Value(Lo))}),
              /*Speculative=*/false, std::move(Stack));
    T.Ctl = Control::auxFold(C.FoldFn, C.FoldGuess, C.FoldRange, Tc);
  }

  void stepEval(MachineThread &T) {
    const Expr *E = T.Ctl.E;
    EnvPtr Env = T.Ctl.Env;
    switch (E->kind()) {
    case Expr::Kind::IntLit:
      T.Ctl = Control::ret(Value(cast<IntLit>(E)->value()));
      return;
    case Expr::Kind::UnitLit:
      T.Ctl = Control::ret(Value(UnitVal{}));
      return;
    case Expr::Kind::VarRef: {
      const auto *V = cast<VarRef>(E);
      if (const Binding *B = V->binding()) {
        const Value *Found = EnvNode::lookup(Env, B);
        if (!Found) {
          failThread(T, E, prims::unboundVariable(V->name()));
          return;
        }
        T.Ctl = Control::ret(*Found);
        return;
      }
      T.Ctl = Control::ret(Value(FunVal{V->fun(), nullptr}));
      return;
    }
    case Expr::Kind::Lambda:
      T.Ctl = Control::ret(Value(Closure{cast<Lambda>(E), Env}));
      return;
    case Expr::Kind::Call: {
      const auto *C = cast<Call>(E);
      Frame F;
      F.K = Frame::Kind::CallCallee;
      F.E = E;
      F.Env = Env;
      T.Stack.push_back(std::move(F));
      T.Ctl = Control::eval(C->callee(), Env);
      return;
    }
    case Expr::Kind::Seq: {
      const auto *S = cast<Seq>(E);
      Frame F;
      F.K = Frame::Kind::SeqNext;
      F.E = S->second();
      F.Env = Env;
      T.Stack.push_back(std::move(F));
      T.Ctl = Control::eval(S->first(), Env);
      return;
    }
    case Expr::Kind::If: {
      const auto *I = cast<If>(E);
      Frame F;
      F.K = Frame::Kind::IfCond;
      F.E = E;
      F.Env = Env;
      T.Stack.push_back(std::move(F));
      T.Ctl = Control::eval(I->cond(), Env);
      return;
    }
    case Expr::Kind::BinOp:
    case Expr::Kind::NewCell:
    case Expr::Kind::Assign:
    case Expr::Kind::Deref:
    case Expr::Kind::NewArray:
    case Expr::Kind::ArrayGet:
    case Expr::Kind::ArraySet:
    case Expr::Kind::ArrayLen:
    case Expr::Kind::Fold:
    case Expr::Kind::SpecFold: {
      // The operands evaluate left to right into an Operands frame.
      const Expr *Sub[prims::MaxOperands] = {};
      prims::operands(E, Sub);
      Frame F;
      F.K = Frame::Kind::Operands;
      F.E = E;
      F.Env = Env;
      T.Stack.push_back(std::move(F));
      T.Ctl = Control::eval(Sub[0], Env);
      return;
    }
    case Expr::Kind::Let: {
      Frame F;
      F.K = Frame::Kind::LetInit;
      F.E = E;
      F.Env = Env;
      T.Stack.push_back(std::move(F));
      T.Ctl = Control::eval(cast<Let>(E)->init(), Env);
      return;
    }
    case Expr::Kind::Spec: {
      // Evaluation context `spec ep eg E`: the consumer first.
      Frame F;
      F.K = Frame::Kind::SpecConsumer;
      F.E = E;
      F.Env = Env;
      T.Stack.push_back(std::move(F));
      T.Ctl = Control::eval(cast<Spec>(E)->consumer(), Env);
      return;
    }
    }
    sp_unreachable("unknown expression kind");
  }

  //===--------------------------------------------------------------------===//
  // Returning a value into the top frame
  //===--------------------------------------------------------------------===//

  void onReturn(MachineThread &T, Value V) {
    if (T.Stack.empty()) {
      T.St = MachineThread::Status::Done;
      T.Result = std::move(V);
      return;
    }
    Frame &F = T.Stack.back();
    switch (F.K) {
    case Frame::Kind::CallCallee: {
      const auto *C = cast<Call>(F.E);
      if (C->args().empty()) {
        Value Fn = std::move(V);
        T.Stack.pop_back();
        beginMultiApply(T, std::move(Fn), {}, C);
        return;
      }
      F.K = Frame::Kind::CallArgs;
      F.V[0] = std::move(V);
      F.Idx = 0;
      T.Ctl = Control::eval(C->args()[0], F.Env);
      return;
    }
    case Frame::Kind::CallArgs: {
      const auto *C = cast<Call>(F.E);
      F.Vals.push_back(std::move(V));
      if (F.Vals.size() < C->args().size()) {
        T.Ctl = Control::eval(C->args()[F.Vals.size()], F.Env);
        return;
      }
      Value Fn = std::move(F.V[0]);
      std::vector<Value> Args = std::move(F.Vals);
      T.Stack.pop_back();
      beginMultiApply(T, std::move(Fn), std::move(Args), C);
      return;
    }
    case Frame::Kind::SeqNext: {
      const Expr *Second = F.E;
      EnvPtr Env = F.Env;
      T.Stack.pop_back();
      T.Ctl = Control::eval(Second, Env);
      return;
    }
    case Frame::Kind::IfCond: {
      const auto *I = cast<If>(F.E);
      EnvPtr Env = F.Env;
      T.Stack.pop_back();
      if (!V.isInt()) {
        failThread(T, I->cond(), prims::IfNotInt);
        return;
      }
      T.Ctl =
          Control::eval(V.asInt() != 0 ? I->thenExpr() : I->elseExpr(), Env);
      return;
    }
    case Frame::Kind::Operands: {
      const Expr *Sub[prims::MaxOperands];
      const unsigned N = prims::operands(F.E, Sub);
      F.V[F.Idx++] = std::move(V);
      if (F.Idx < N) {
        T.Ctl = Control::eval(Sub[F.Idx], F.Env);
        return;
      }
      Frame Done = std::move(F);
      T.Stack.pop_back();
      applyOperands(T, Done.E, Done.V);
      return;
    }
    case Frame::Kind::LetInit: {
      const auto *L = cast<Let>(F.E);
      EnvPtr Env = F.Env;
      T.Stack.pop_back();
      T.Ctl =
          Control::eval(L->body(), EnvNode::bind(Env, L->var(), std::move(V)));
      return;
    }
    case Frame::Kind::FoldLoop: {
      // V is the accumulator after the previous iteration.
      if (F.Range.empty()) {
        T.Stack.pop_back();
        T.Ctl = Control::ret(std::move(V));
        return;
      }
      const int64_t I = F.Range.pop();
      Value Fn = F.V[0];
      beginMultiApply(T, std::move(Fn), {Value(I), std::move(V)}, F.E);
      return;
    }
    case Frame::Kind::SpecConsumer: {
      // SPEC-APPLY: V is the consumer value vc.
      const auto *S = cast<Spec>(F.E);
      EnvPtr Env = F.Env;
      Value Vc = std::move(V);
      T.Stack.pop_back();
      uint64_t Tp = spawn(Control::eval(S->producer(), Env),
                          /*Speculative=*/false);
      uint64_t Tg = spawn(Control::eval(S->guess(), Env),
                          /*Speculative=*/true);
      uint64_t Tc = spawn(Control::startApply(Vc, {ArgSpec::wait(Tg)}),
                          /*Speculative=*/true);
      Frame Check;
      Check.K = Frame::Kind::Check;
      Check.E = F.E;
      Check.T1 = Tp;
      Check.T2 = Tg;
      Check.T3 = Tc;
      Check.V[0] = std::move(Vc);
      Check.Phase = 1; // the consumer value is already known
      T.Stack.push_back(std::move(Check));
      T.Ctl = Control::wait(Tp);
      return;
    }
    case Frame::Kind::MultiApply: {
      std::vector<Value> Vals = std::move(F.Vals);
      size_t Idx = F.Idx;
      const Expr *At = F.E;
      T.Stack.pop_back();
      continueMultiApply(T, std::move(V), std::move(Vals), Idx, At);
      return;
    }
    case Frame::Kind::ApplyArgs: {
      F.Vals.push_back(std::move(V));
      continueApplyArgs(T);
      return;
    }
    case Frame::Kind::Check:
      onCheckReturn(T, std::move(V));
      return;
    }
    sp_unreachable("unknown frame kind");
  }

  /// The CHECK rule's state machine. Phases: 0 = the consumer value is
  /// being computed in this thread (iterate's `(vf vl)`), 1 = waiting for
  /// the producer, 2 = waiting for the predictor.
  void onCheckReturn(MachineThread &T, Value V) {
    Frame &F = T.Stack.back();
    switch (F.Phase) {
    case 0:
      F.V[0] = std::move(V); // vc
      F.Phase = 1;
      T.Ctl = Control::wait(F.T1);
      return;
    case 1: {
      F.V[1] = std::move(V); // vp
      if (Opts.EagerProducerAbort &&
          Threads[F.T2]->St == MachineThread::Status::Running) {
        // Section 3.3: the producer finished before the predictor — there
        // is no point continuing the speculation.
        Value Vc = std::move(F.V[0]);
        Value Vp = std::move(F.V[1]);
        uint64_t Tg = F.T2, Tc = F.T3;
        const Expr *At = F.E;
        T.Stack.pop_back();
        cancelThread(Tg);
        cancelThread(Tc);
        beginMultiApply(T, std::move(Vc), {std::move(Vp)}, At);
        return;
      }
      F.Phase = 2;
      T.Ctl = Control::wait(F.T2);
      return;
    }
    case 2: {
      Value Vg = std::move(V);
      Value Vc = std::move(F.V[0]);
      Value Vp = std::move(F.V[1]);
      uint64_t Tc = F.T3;
      const Expr *At = F.E;
      T.Stack.pop_back();
      ++Out.Predictions;
      if (predictionEquals(Vp, Vg)) {
        T.Ctl = Control::wait(Tc);
        return;
      }
      ++Out.Mispredictions;
      // `cancel tc; vc xp` (fused into this step; see the header note).
      cancelThread(Tc);
      beginMultiApply(T, std::move(Vc), {std::move(Vp)}, At);
      return;
    }
    default:
      sp_unreachable("bad check phase");
    }
  }

  //===--------------------------------------------------------------------===//
  // Application machinery
  //===--------------------------------------------------------------------===//

  /// Applies \p Fn to \p Vals curried, starting at index 0.
  void beginMultiApply(MachineThread &T, Value Fn, std::vector<Value> Vals,
                       const Expr *At) {
    // Zero-argument direct call of a nullary function.
    if (Vals.empty()) {
      if (const auto *FV = std::get_if<FunVal>(&Fn.V);
          FV && FV->Fn->Params.empty()) {
        T.Ctl = Control::eval(FV->Fn->Body, nullptr);
        return;
      }
      T.Ctl = Control::ret(std::move(Fn));
      return;
    }
    continueMultiApply(T, std::move(Fn), std::move(Vals), 0, At);
  }

  void continueMultiApply(MachineThread &T, Value Cur,
                          std::vector<Value> Vals, size_t Idx,
                          const Expr *At) {
    while (Idx < Vals.size()) {
      Value Arg = std::move(Vals[Idx]);
      ++Idx;
      if (const auto *C = std::get_if<Closure>(&Cur.V)) {
        EnvPtr Env = EnvNode::bind(C->Env, C->Fn->param(), std::move(Arg));
        const Expr *Body = C->Fn->body();
        pushMultiApplyRest(T, std::move(Vals), Idx, At);
        T.Ctl = Control::eval(Body, Env);
        return;
      }
      if (const auto *FV = std::get_if<FunVal>(&Cur.V)) {
        std::vector<Value> Partial =
            FV->Partial ? *FV->Partial : std::vector<Value>();
        Partial.push_back(std::move(Arg));
        if (Partial.size() < FV->Fn->Params.size()) {
          Cur = Value(FunVal{FV->Fn, std::make_shared<const std::vector<Value>>(
                                         std::move(Partial))});
          continue;
        }
        EnvPtr Env;
        const FunDef *Def = FV->Fn;
        for (size_t I = 0; I < Partial.size(); ++I)
          Env = EnvNode::bind(Env, Def->Params[I], std::move(Partial[I]));
        pushMultiApplyRest(T, std::move(Vals), Idx, At);
        T.Ctl = Control::eval(Def->Body, Env);
        return;
      }
      failThread(T, At, prims::NotCallable);
      return;
    }
    T.Ctl = Control::ret(std::move(Cur));
  }

  void pushMultiApplyRest(MachineThread &T, std::vector<Value> Vals,
                          size_t Idx, const Expr *At) {
    if (Idx >= Vals.size())
      return; // nothing left; the body's value is the result
    Frame F;
    F.K = Frame::Kind::MultiApply;
    F.E = At;
    F.Vals = std::move(Vals);
    F.Idx = Idx;
    T.Stack.push_back(std::move(F));
  }

  /// Advances an ApplyArgs frame (machine-level application with waits).
  /// The frame is the top of the stack.
  void continueApplyArgs(MachineThread &T) {
    Frame &F = T.Stack.back();
    while (F.Idx < F.Specs.size() && !F.Specs[F.Idx].IsWait)
      F.Vals.push_back(F.Specs[F.Idx++].V);
    if (F.Idx < F.Specs.size()) {
      uint64_t Tid = F.Specs[F.Idx].Tid;
      ++F.Idx;
      T.Ctl = Control::wait(Tid);
      return; // the waited value re-enters through onReturn(ApplyArgs)
    }
    Value Fn = std::move(F.V[0]);
    std::vector<Value> Vals = std::move(F.Vals);
    const Expr *At = F.E;
    T.Stack.pop_back();
    beginMultiApply(T, std::move(Fn), std::move(Vals), At);
  }

  /// Acts on \p E once its operands \p Ops (prims::operands) are
  /// evaluated: a primitive, or the start of a fold or specfold loop.
  void applyOperands(MachineThread &T, const Expr *E, Value *Ops) {
    if (!isa<Fold, SpecFold>(E)) {
      Value Out;
      if (prims::apply(H, E, Ops, Out, T.Err))
        T.Ctl = Control::ret(std::move(Out));
      else
        T.St = MachineThread::Status::Failed;
      return;
    }
    // fn, init (fold) or guess (specfold), lo, hi.
    prims::InclusiveRange R;
    if (!prims::foldRange(E, Ops[2], Ops[3], R, T.Err)) {
      T.St = MachineThread::Status::Failed;
      return;
    }
    if (R.empty()) {
      // FOLD-1: the initial accumulator; specfold's is g(l) (matches
      // NONSPEC-ITERATE).
      if (isa<Fold>(E))
        T.Ctl = Control::ret(std::move(Ops[1]));
      else
        beginMultiApply(T, std::move(Ops[1]), {std::move(Ops[2])}, E);
      return;
    }
    const int64_t Lo = R.pop();
    if (isa<Fold>(E)) {
      // FOLD-2 via the FoldLoop frame.
      Frame F;
      F.K = Frame::Kind::FoldLoop;
      F.E = E;
      F.V[0] = Ops[0];
      F.Range = R;
      T.Stack.push_back(std::move(F));
      beginMultiApply(T, std::move(Ops[0]), {Value(Lo), std::move(Ops[1])},
                      E);
      return;
    }
    // SPEC-ITERATE-1: the first iteration is non-speculative in its input
    // (g(l) is the definition of the initial value).
    uint64_t Tg =
        spawn(Control::startApply(Ops[1], {ArgSpec::val(Value(Lo))}),
              /*Speculative=*/true);
    uint64_t Tb = spawn(Control::startApply(Ops[0], {ArgSpec::val(Value(Lo)),
                                                     ArgSpec::wait(Tg)}),
                        /*Speculative=*/true);
    T.Ctl = Control::auxFold(std::move(Ops[0]), std::move(Ops[1]), R, Tb);
  }

  const Program &P;
  MachineOptions Opts;
  Scheduler Sched;
  SpecRunOutcome Out;
  Heap H;
  std::vector<std::unique_ptr<MachineThread>> Threads;
  /// The Tids of the threads that may be runnable, ascending, and of
  /// the blocked threads whose wait target has stopped since the last
  /// step.
  std::vector<uint64_t> Live, Woken;
  std::vector<SchedCandidate> Candidates;
};

} // namespace

SpecRunOutcome specpar::interp::runSpeculative(const Program &P,
                                               const MachineOptions &Opts) {
  return Machine(P, Opts).run();
}
