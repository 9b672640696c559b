//===- analysis/AbstractInterp.cpp - Abstract evaluator ---------------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/AbstractInterp.h"

#include "support/Casting.h"
#include "support/StringUtils.h"
#include "support/Unreachable.h"

using namespace specpar;
using namespace specpar::analysis;
using namespace specpar::lang;

static AbsValue intOrUnitTop() {
  AbsValue V = AbsValue::ofInt(SymInterval::full());
  V.MaybeUnit = true;
  return V;
}

void AbstractInterpreter::run() {
  AbsHeap H;
  Effects Eff;
  eval(P.Main, AbsEnv(), H, Eff);
  Report.HeapGraphDot = renderHeapDot(H);
}

/// Renders the final abstract heap as graphviz (the paper's Figure 5
/// presentation: one node per allocation site, double-bordered when a
/// summary node, with points-to edges for stored references and dotted
/// edges to integer-content annotations).
std::string AbstractInterpreter::renderHeapDot(const AbsHeap &H) const {
  std::string Dot = "digraph abstract_heap {\n  node [shape=box];\n";
  auto NodeId = [](const AbsNode *N) {
    return formatString("n%p", static_cast<const void *>(N));
  };
  for (AbsNode *N : Nodes.allNodes()) {
    Dot += formatString("  %s [label=\"%s\"%s];\n", NodeId(N).c_str(),
                        N->str().c_str(),
                        N->Single ? "" : ", peripheries=2");
    auto It = H.Contents.find(N);
    if (It == H.Contents.end())
      continue;
    const AbsValue &V = It->second;
    for (const AbsNode *Target : V.Cells)
      Dot += formatString("  %s -> %s;\n", NodeId(N).c_str(),
                          NodeId(Target).c_str());
    for (const AbsNode *Target : V.Arrays)
      Dot += formatString("  %s -> %s;\n", NodeId(N).c_str(),
                          NodeId(Target).c_str());
    if (!V.Ints.isEmpty() && !V.Top)
      Dot += formatString("  %s_v [label=\"%s\", shape=plaintext];\n  "
                          "%s -> %s_v [style=dotted];\n",
                          NodeId(N).c_str(), V.Ints.str().c_str(),
                          NodeId(N).c_str(), NodeId(N).c_str());
  }
  Dot += "}\n";
  return Dot;
}

bool AbstractInterpreter::outOfBudget(Effects &Eff) {
  if (++Report.AbstractSteps <= Opts.MaxAbstractSteps)
    return false;
  Report.BudgetExceeded = true;
  Eff.setUniversal();
  return true;
}

void AbstractInterpreter::reportSite(const Expr *Site, bool Safe,
                                     std::string Condition,
                                     std::string Explanation) {
  if (SiteIndex.count(Site))
    return; // first (most precise) context wins
  SiteIndex.emplace(Site, Report.Sites.size());
  SiteReport R;
  R.Site = Site;
  R.Safe = Safe;
  R.FailedCondition = std::move(Condition);
  R.Explanation = std::move(Explanation);
  R.ProducerEffects = std::move(PendingProducerEffects);
  R.ConsumerEffects = std::move(PendingConsumerEffects);
  PendingProducerEffects.clear();
  PendingConsumerEffects.clear();
  Report.Sites.push_back(std::move(R));
}

void AbstractInterpreter::checkConditions(const Expr *Site,
                                          const Effects &Producer,
                                          const Effects &SpecConsumer,
                                          const Effects &Reexec) {
  // Stash the effect sets on whatever verdict this site gets.
  PendingProducerEffects = Producer.str();
  PendingConsumerEffects = SpecConsumer.str();
  ConditionVerdict V = checkRollbackConditions(Producer, SpecConsumer, Reexec);
  reportSite(Site, V.safe(), V.FailedCondition, V.Explanation);
}

//===----------------------------------------------------------------------===//
// Application
//===----------------------------------------------------------------------===//

AbsValue AbstractInterpreter::apply(const AbsValue &Fn,
                                    const std::vector<AbsValue> &Args,
                                    AbsHeap &H, Effects &Eff,
                                    const Expr *At) {
  if (Args.empty()) {
    // A zero-argument call of a nullary named function runs its body;
    // other function members are left as values.
    bool AnyNullary = false;
    for (const AbsFun &F : Fn.Funs)
      AnyNullary |= F.Fun && F.Fun->Params.empty() && F.AppliedArgs == 0;
    if (!AnyNullary)
      return Fn;
    AbsValue R = Fn;
    R.Funs.clear();
    for (const AbsFun &F : Fn.Funs) {
      if (F.Fun && F.Fun->Params.empty() && F.AppliedArgs == 0)
        R = AbsValue::join(R, eval(F.Fun->Body, AbsEnv(), H, Eff));
      else
        R.Funs.insert(F);
    }
    return R;
  }
  if (Fn.Top) {
    Eff.setUniversal();
    // An unknown function may scribble on everything it can reach.
    for (AbsNode *N : Nodes.allNodes())
      H.Contents[N] = AbsValue::top();
    return AbsValue::top();
  }
  if (Fn.Funs.empty())
    return AbsValue(); // bottom: a runtime type error path
  if (ApplyDepth >= Opts.MaxApplyDepth) {
    Eff.setUniversal();
    return AbsValue::top();
  }
  ++ApplyDepth;
  AbsValue Result;
  AbsHeap HOut;
  Effects EffAcc;
  bool First = true;
  for (const AbsFun &F : Fn.Funs) {
    AbsHeap HF = H;
    Effects EF;
    AbsValue R = applyOneFun(F, Args, HF, EF, At);
    Result = AbsValue::join(Result, R);
    HOut = First ? HF : AbsHeap::join(HOut, HF);
    EffAcc = First ? EF : Effects::joinBranches(EffAcc, EF);
    First = false;
  }
  --ApplyDepth;
  H = std::move(HOut);
  Eff.sequence(EffAcc);
  return Result;
}

AbsValue AbstractInterpreter::applyOneFun(const AbsFun &F,
                                          const std::vector<AbsValue> &Args,
                                          AbsHeap &H, Effects &Eff,
                                          const Expr *At) {
  if (F.Lam) {
    AbsEnv Env = LambdaEnvs[F.Lam]; // captured (0-CFA joined) environment
    // Bind straight through a nest of lambdas (`\i a. ...` applied to two
    // arguments): this avoids materializing the intermediate closure,
    // whose 0-CFA environment would otherwise join the symbolic and
    // concrete passes' bindings into +/-infinity.
    const Lambda *Cur = F.Lam;
    size_t Idx = 0;
    Env[Cur->param()] = Args[Idx++];
    const Expr *Body = Cur->body();
    while (Idx < Args.size()) {
      const auto *Inner = dyn_cast<Lambda>(Body);
      if (!Inner)
        break;
      Env[Inner->param()] = Args[Idx++];
      Body = Inner->body();
    }
    AbsValue R = eval(Body, Env, H, Eff);
    if (Idx == Args.size())
      return R;
    return apply(R, std::vector<AbsValue>(Args.begin() + Idx, Args.end()), H,
                 Eff, At);
  }
  const FunDef *Def = F.Fun;
  size_t Arity = Def->Params.size();
  size_t Have = F.AppliedArgs + Args.size();
  if (Have < Arity) {
    // Still partial: earlier argument values are dropped (rebound as top
    // at saturation) — named functions are almost always fully applied.
    AbsValue V;
    V.Funs.insert(AbsFun{nullptr, Def, F.AppliedArgs + Args.size()});
    return V;
  }
  AbsEnv Env;
  for (size_t I = 0; I < F.AppliedArgs; ++I)
    Env[Def->Params[I]] = AbsValue::top();
  size_t Used = Arity - F.AppliedArgs;
  for (size_t I = 0; I < Used; ++I)
    Env[Def->Params[F.AppliedArgs + I]] = Args[I];
  AbsValue R = eval(Def->Body, Env, H, Eff);
  if (Used == Args.size())
    return R;
  return apply(R, std::vector<AbsValue>(Args.begin() + Used, Args.end()), H,
               Eff, At);
}

//===----------------------------------------------------------------------===//
// Loops
//===----------------------------------------------------------------------===//

/// Derives the loop-level must-writes of a fold: when the (unique) body,
/// analyzed at a symbolic index p, must-writes points linear in p with
/// coefficient +/-1 (or constant), the whole loop must-writes the swept
/// range — the under-approximate interval extension of the paper's
/// Section 5 ("computing must information"). Requires a provably
/// non-empty loop.
static MustSet deriveLoopMustWrites(const Effects &BodyAtSym,
                                    const lang::Binding *IndexVar,
                                    const SymInterval &LoI,
                                    const SymInterval &HiI) {
  MustSet Out;
  if (LoI.isEmpty() || HiI.isEmpty())
    return Out;
  // Worst-case concrete bounds: the loop certainly covers
  // [max(lo), min(hi)] index values.
  const SymExpr &LoWorst = LoI.hi();
  const SymExpr &HiWorst = HiI.lo();
  std::optional<int64_t> Diff = LoWorst.differenceFrom(HiWorst);
  if (!Diff || *Diff > 0)
    return Out; // possibly empty loop: no must-writes survive
  for (const auto &[N, Intervals] : BodyAtSym.MustWrite.Map) {
    if (!N->Single)
      continue;
    for (const SymInterval &I : Intervals) {
      if (!I.isPoint())
        continue;
      std::optional<int64_t> C = I.lo().coefficientOf(IndexVar);
      if (!C)
        continue;
      if (*C == 0) {
        Out.add(N, I); // written every iteration at a fixed place
      } else if (*C == 1 || *C == -1) {
        std::optional<SymExpr> AtLo = I.lo().substitute(IndexVar, LoWorst);
        std::optional<SymExpr> AtHi = I.lo().substitute(IndexVar, HiWorst);
        if (!AtLo || !AtHi)
          continue; // overflowed: no must-range survives
        if (*C == -1)
          std::swap(AtLo, AtHi);
        Out.add(N, SymInterval::of(*AtLo, *AtHi));
      }
      // |coefficient| >= 2 leaves gaps: not a contiguous must-range.
    }
  }
  return Out;
}

/// Substitutes the loop-index variable by its value range in an interval:
/// each bound moves to the extreme of the range matching its coefficient
/// sign (sound hull over all iterations).
static SymInterval substituteRange(const SymInterval &I,
                                   const lang::Binding *Var,
                                   const SymInterval &Range) {
  if (I.isEmpty() || Range.isEmpty())
    return I;
  auto SubBound = [&](const SymExpr &E, bool IsLow) -> std::optional<SymExpr> {
    std::optional<int64_t> C = E.coefficientOf(Var);
    if (!C || *C == 0)
      return E;
    bool UseRangeLo = (*C > 0) == IsLow;
    return E.substitute(Var, UseRangeLo ? Range.lo() : Range.hi());
  };
  std::optional<SymExpr> Lo = SubBound(I.lo(), true);
  std::optional<SymExpr> Hi = SubBound(I.hi(), false);
  if (!Lo || !Hi)
    return SymInterval::full();
  return SymInterval::of(std::move(*Lo), std::move(*Hi));
}

static AccessSet substituteRange(const AccessSet &A,
                                 const lang::Binding *Var,
                                 const SymInterval &Range) {
  AccessSet Out;
  Out.Universal = A.Universal;
  for (const auto &[N, I] : A.Map)
    Out.add(N, substituteRange(I, Var, Range));
  return Out;
}

AbsValue AbstractInterpreter::evalLoop(const Expr *At, const AbsValue &Fn,
                                       AbsValue Acc, const AbsValue &Lo,
                                       const AbsValue &Hi, AbsHeap &H,
                                       Effects &Eff) {
  // A provably empty loop contributes nothing (FOLD-1).
  if (!Lo.Ints.isEmpty() && !Hi.Ints.isEmpty() && !Lo.Top && !Hi.Top) {
    std::optional<int64_t> D = Hi.Ints.hi().isFinite() && Lo.Ints.lo().isFinite()
                                   ? Hi.Ints.hi().differenceFrom(Lo.Ints.lo())
                                   : std::nullopt;
    if (D && *D < 0)
      return Acc;
  }

  SymInterval Index =
      (Lo.Ints.isEmpty() || Hi.Ints.isEmpty())
          ? SymInterval::full()
          : SymInterval::join(Lo.Ints, Hi.Ints);

  // When the body is a unique function, its effects are extracted from
  // per-iteration passes at a *symbolic* index (per-iteration precision:
  // reads after the iteration's own must-writes stay internal, and the
  // paper's must-interval synthesis applies); the index variable is
  // substituted by the whole range at the end. Otherwise the hull-level
  // effects of the fixpoint are used directly.
  const Binding *IndexVar = nullptr;
  if (!Fn.Top && Fn.Funs.size() == 1) {
    const AbsFun &F = *Fn.Funs.begin();
    if (F.Lam)
      IndexVar = F.Lam->param();
    else if (F.Fun && F.AppliedArgs == 0 && !F.Fun->Params.empty())
      IndexVar = F.Fun->Params[0];
  }
  Effects SymAll;
  bool SymFirst = true;
  auto SymbolicPass = [&]() {
    if (!IndexVar)
      return;
    AbsHeap HSym = H;
    Effects ESym;
    AbsValue ISym =
        AbsValue::ofInt(SymInterval::point(SymExpr::variable(IndexVar)));
    apply(Fn, {ISym, intOrUnitTop()}, HSym, ESym, At);
    if (SymFirst) {
      SymAll = ESym;
      SymFirst = false;
    } else {
      SymAll.MayRead.addAll(ESym.MayRead);
      SymAll.MayWrite.addAll(ESym.MayWrite);
      SymAll.MustWrite = MustSet::meet(SymAll.MustWrite, ESym.MustWrite);
    }
  };

  auto EmitLoopEffects = [&]() {
    if (!IndexVar) {
      // Hull effects were already sequenced round by round.
      return;
    }
    Effects LoopEff;
    LoopEff.MayRead = substituteRange(SymAll.MayRead, IndexVar, Index);
    LoopEff.MayWrite = substituteRange(SymAll.MayWrite, IndexVar, Index);
    LoopEff.MustWrite = deriveLoopMustWrites(SymAll, IndexVar, Lo.Ints,
                                             Hi.Ints);
    Eff.sequence(LoopEff);
  };

  for (unsigned Round = 0;; ++Round) {
    SymbolicPass();
    AbsHeap HPrev = H;
    AbsValue AccPrev = Acc;
    Effects BodyEff;
    AbsValue Out =
        apply(Fn, {AbsValue::ofInt(Index), Acc}, H, BodyEff, At);
    if (!IndexVar) {
      // Per-iteration must-writes are not loop must-writes; drop them.
      BodyEff.MustWrite.Map.clear();
      Eff.sequence(BodyEff);
    }
    Acc = AbsValue::join(Acc, Out);
    H = AbsHeap::join(HPrev, H);
    if (Acc == AccPrev && H == HPrev) {
      EmitLoopEffects();
      return Acc;
    }
    if (Round >= Opts.MaxFixpointRounds) {
      // Widen: integer contents escalate to full intervals.
      auto Widen = [](AbsValue &V) {
        if (!V.Ints.isEmpty())
          V.Ints = SymInterval::full();
      };
      Widen(Acc);
      for (auto &[Node, V] : H.Contents)
        Widen(V);
      // One stabilizing pass for the node/function sets.
      SymbolicPass();
      Effects Ignored;
      AbsHeap H2 = H;
      AbsValue Out2 =
          apply(Fn, {AbsValue::ofInt(Index), Acc}, H2, Ignored, At);
      if (!IndexVar) {
        Ignored.MustWrite.Map.clear();
        Eff.sequence(Ignored);
      }
      Acc = AbsValue::join(Acc, Out2);
      auto WidenAll = [&Widen](AbsHeap &HH) {
        for (auto &[Node, V] : HH.Contents)
          Widen(V);
      };
      H = AbsHeap::join(H, H2);
      WidenAll(H);
      Widen(Acc);
      EmitLoopEffects();
      return Acc;
    }
  }
}

//===----------------------------------------------------------------------===//
// Speculation sites
//===----------------------------------------------------------------------===//

AbsValue AbstractInterpreter::evalSpecSite(const Spec *S, const AbsEnv &Env,
                                           AbsHeap &H, Effects &Eff) {
  // Evaluation context: the consumer expression evaluates first, in the
  // surrounding computation.
  AbsValue C = eval(S->consumer(), Env, H, Eff);
  uint64_t PreEpoch = ++EpochCounter;

  // Producer against the pre-state.
  AbsHeap HP = H;
  Effects Ep;
  AbsValue PV = eval(S->producer(), Env, HP, Ep);

  // Predictor then speculative consumer against the pre-state. The
  // consumer argument covers both the predicted value and the producer's
  // (re-execution) value.
  AbsHeap HC = H;
  Effects Ecg;
  eval(S->guess(), Env, HC, Ecg);
  AbsValue Arg = AbsValue::join(PV, intOrUnitTop());
  Effects Ea;
  AbsValue RV = apply(C, {Arg}, HC, Ea, S);

  Effects SpecConsumer = Ecg;
  SpecConsumer.sequence(Ea);

  checkConditions(S, Ep.restrictToPreExisting(PreEpoch),
                  SpecConsumer.restrictToPreExisting(PreEpoch),
                  Ea.restrictToPreExisting(PreEpoch));

  // Continue the surrounding analysis with both computations' states.
  H = AbsHeap::join(HP, HC);
  Eff.sequence(Ep);
  Eff.sequence(SpecConsumer);
  return RV;
}

AbsValue AbstractInterpreter::evalSpecFoldSite(const SpecFold *S,
                                               const AbsEnv &Env, AbsHeap &H,
                                               Effects &Eff) {
  AbsValue Fn = eval(S->fn(), Env, H, Eff);
  AbsValue Guess = eval(S->guess(), Env, H, Eff);
  AbsValue Lo = eval(S->lo(), Env, H, Eff);
  AbsValue Hi = eval(S->hi(), Env, H, Eff);
  uint64_t PreEpoch = ++EpochCounter;

  // --- Condition analysis at a symbolic iteration index ---------------
  // One function value is required to name the index variable.
  const Binding *IndexVar = nullptr;
  if (!Fn.Top && Fn.Funs.size() == 1) {
    const AbsFun &F = *Fn.Funs.begin();
    if (F.Lam)
      IndexVar = F.Lam->param();
    else if (F.Fun && F.AppliedArgs == 0 && F.Fun->Params.size() >= 1)
      IndexVar = F.Fun->Params[0];
  }
  if (!IndexVar) {
    reportSite(S, false, "imprecision",
               "cannot identify a unique loop body function for the "
               "symbolic index analysis");
  } else {
    SymExpr IVar = SymExpr::variable(IndexVar);
    // i + 1 has constant 1 and coefficient 1: it cannot overflow.
    SymExpr INext = *SymExpr::add(IVar, SymExpr::constant(1));
    AbsValue ISym = AbsValue::ofInt(SymInterval::point(IVar));
    AbsValue INextSym = AbsValue::ofInt(SymInterval::point(INext));

    // Body of iteration i (producer role).
    AbsHeap HB = H;
    Effects Eb;
    apply(Fn, {ISym, intOrUnitTop()}, HB, Eb, S);
    Effects EbPre = Eb.restrictToPreExisting(PreEpoch);

    // Iteration i+1: predictor g(i+1), then the body (speculative
    // consumer); the re-execution is the body alone.
    AbsHeap HG = H;
    Effects Eg;
    apply(Guess, {INextSym}, HG, Eg, S);
    Effects EbNext = EbPre.substitute(IndexVar, INext);
    Effects SpecConsumer = Eg.restrictToPreExisting(PreEpoch);
    SpecConsumer.sequence(EbNext);

    checkConditions(S, EbPre, SpecConsumer, EbNext);
  }

  // --- Overall effect for the surrounding analysis --------------------
  // The speculative semantics evaluates the predictor at every index and
  // the body over the whole range; the non-speculative one evaluates
  // g(lo) then folds. Cover both.
  SymInterval IndexHull = (Lo.Ints.isEmpty() || Hi.Ints.isEmpty())
                              ? SymInterval::full()
                              : SymInterval::join(Lo.Ints, Hi.Ints);
  Effects Eg2;
  AbsValue Init = apply(Guess, {AbsValue::ofInt(IndexHull)}, H, Eg2, S);
  Eg2.MustWrite.Map.clear(); // predictor runs are speculative
  Eff.sequence(Eg2);
  return evalLoop(S, Fn, Init, Lo, Hi, H, Eff);
}

//===----------------------------------------------------------------------===//
// The evaluator
//===----------------------------------------------------------------------===//

AbsValue AbstractInterpreter::eval(const Expr *E, const AbsEnv &Env,
                                   AbsHeap &H, Effects &Eff) {
  if (outOfBudget(Eff))
    return AbsValue::top();
  switch (E->kind()) {
  case Expr::Kind::IntLit:
    return AbsValue::ofInt(
        SymInterval::point(SymExpr::constant(cast<IntLit>(E)->value())));
  case Expr::Kind::UnitLit:
    return AbsValue::ofUnit();
  case Expr::Kind::VarRef: {
    const auto *V = cast<VarRef>(E);
    if (const Binding *B = V->binding()) {
      auto It = Env.find(B);
      return It != Env.end() ? It->second : AbsValue::top();
    }
    AbsValue F;
    F.Funs.insert(AbsFun{nullptr, V->fun(), 0});
    return F;
  }
  case Expr::Kind::Lambda: {
    const auto *L = cast<Lambda>(E);
    // 0-CFA: join the creation environment into the lambda's global one.
    AbsEnv &Global = LambdaEnvs[L];
    for (const auto &[B, V] : Env) {
      auto It = Global.find(B);
      if (It == Global.end())
        Global.emplace(B, V);
      else
        It->second = AbsValue::join(It->second, V);
    }
    AbsValue F;
    F.Funs.insert(AbsFun{L, nullptr, 0});
    return F;
  }
  case Expr::Kind::Call: {
    const auto *C = cast<Call>(E);
    AbsValue Fn = eval(C->callee(), Env, H, Eff);
    std::vector<AbsValue> Args;
    Args.reserve(C->args().size());
    for (const Expr *A : C->args())
      Args.push_back(eval(A, Env, H, Eff));
    return apply(Fn, Args, H, Eff, E);
  }
  case Expr::Kind::Seq: {
    const auto *S = cast<Seq>(E);
    eval(S->first(), Env, H, Eff);
    return eval(S->second(), Env, H, Eff);
  }
  case Expr::Kind::If: {
    const auto *I = cast<If>(E);
    AbsValue Cond = eval(I->cond(), Env, H, Eff);
    // Constant conditions prune the dead branch.
    if (Cond.Ints.isPoint() && Cond.Ints.lo().isConstant() && !Cond.Top &&
        !Cond.MaybeUnit) {
      const Expr *Taken = Cond.Ints.lo().constantValue() != 0
                              ? I->thenExpr()
                              : I->elseExpr();
      return eval(Taken, Env, H, Eff);
    }
    AbsHeap HT = H, HE = H;
    Effects ET, EE;
    AbsValue VT = eval(I->thenExpr(), Env, HT, ET);
    AbsValue VE = eval(I->elseExpr(), Env, HE, EE);
    H = AbsHeap::join(HT, HE);
    Eff.sequence(Effects::joinBranches(ET, EE));
    return AbsValue::join(VT, VE);
  }
  case Expr::Kind::BinOp: {
    const auto *B = cast<BinOp>(E);
    AbsValue L = eval(B->lhs(), Env, H, Eff);
    AbsValue R = eval(B->rhs(), Env, H, Eff);
    const SymInterval &LI = L.Ints, &RI = R.Ints;
    if (LI.isEmpty() || RI.isEmpty())
      return AbsValue::ofInt((L.Top || R.Top) ? SymInterval::full()
                                              : SymInterval::empty());
    switch (B->op()) {
    case BinOpKind::Add:
      return AbsValue::ofInt(LI + RI);
    case BinOpKind::Sub:
      return AbsValue::ofInt(LI - RI);
    case BinOpKind::Mul:
      return AbsValue::ofInt(SymInterval::mul(LI, RI));
    case BinOpKind::Div:
    case BinOpKind::Mod: {
      if (LI.isPoint() && RI.isPoint() && LI.lo().isConstant() &&
          RI.lo().isConstant() && RI.lo().constantValue() != 0) {
        int64_t A = LI.lo().constantValue(), C = RI.lo().constantValue();
        if (!(A == INT64_MIN && C == -1))
          return AbsValue::ofInt(SymInterval::point(SymExpr::constant(
              B->op() == BinOpKind::Div ? A / C : A % C)));
      }
      return AbsValue::ofInt(SymInterval::full());
    }
    case BinOpKind::Lt:
    case BinOpKind::Le:
    case BinOpKind::Gt:
    case BinOpKind::Ge:
    case BinOpKind::EqEq:
    case BinOpKind::Ne: {
      // Decide comparisons with provable constant differences.
      if (LI.isPoint() && RI.isPoint()) {
        std::optional<int64_t> D = LI.lo().differenceFrom(RI.lo());
        if (D) {
          bool Val = false;
          switch (B->op()) {
          case BinOpKind::Lt:
            Val = *D < 0;
            break;
          case BinOpKind::Le:
            Val = *D <= 0;
            break;
          case BinOpKind::Gt:
            Val = *D > 0;
            break;
          case BinOpKind::Ge:
            Val = *D >= 0;
            break;
          case BinOpKind::EqEq:
            Val = *D == 0;
            break;
          case BinOpKind::Ne:
            Val = *D != 0;
            break;
          default:
            sp_unreachable("not a comparison");
          }
          return AbsValue::ofInt(
              SymInterval::point(SymExpr::constant(Val ? 1 : 0)));
        }
      }
      return AbsValue::ofInt(SymInterval::of(SymExpr::constant(0),
                                             SymExpr::constant(1)));
    }
    }
    sp_unreachable("unknown binop");
  }
  case Expr::Kind::NewCell: {
    AbsValue Init = eval(cast<NewCell>(E)->init(), Env, H, Eff);
    AbsNode *N = Nodes.nodeFor(E, /*IsArray=*/false, ++EpochCounter,
                               /*DemoteIfExisting=*/true);
    auto It = H.Contents.find(N);
    if (It == H.Contents.end())
      H.Contents.emplace(N, Init);
    else
      It->second = AbsValue::join(It->second, Init);
    AbsValue V;
    V.Cells.insert(N);
    return V;
  }
  case Expr::Kind::Assign: {
    const auto *A = cast<Assign>(E);
    AbsValue Cell = eval(A->cell(), Env, H, Eff);
    AbsValue V = eval(A->value(), Env, H, Eff);
    if (Cell.Top) {
      Eff.setUniversal();
      for (AbsNode *N : Nodes.allNodes())
        H.Contents[N] = AbsValue::top();
      return V;
    }
    bool Unique = Cell.Cells.size() == 1;
    for (AbsNode *N : Cell.Cells) {
      bool Strong = Unique && N->Single;
      Eff.write(N, SymInterval::point(SymExpr::constant(0)), Strong);
      auto It = H.Contents.find(N);
      if (Strong || It == H.Contents.end())
        H.Contents[N] = V;
      else
        It->second = AbsValue::join(It->second, V);
    }
    return V;
  }
  case Expr::Kind::Deref: {
    AbsValue Cell = eval(cast<Deref>(E)->cell(), Env, H, Eff);
    if (Cell.Top) {
      Eff.setUniversal();
      return AbsValue::top();
    }
    AbsValue R;
    for (AbsNode *N : Cell.Cells) {
      Eff.read(N, SymInterval::point(SymExpr::constant(0)));
      auto It = H.Contents.find(N);
      if (It != H.Contents.end())
        R = AbsValue::join(R, It->second);
    }
    return R;
  }
  case Expr::Kind::NewArray: {
    const auto *A = cast<NewArray>(E);
    eval(A->size(), Env, H, Eff);
    AbsValue Init = eval(A->init(), Env, H, Eff);
    AbsNode *N = Nodes.nodeFor(E, /*IsArray=*/true, ++EpochCounter,
                               /*DemoteIfExisting=*/true);
    auto It = H.Contents.find(N);
    if (It == H.Contents.end())
      H.Contents.emplace(N, Init);
    else
      It->second = AbsValue::join(It->second, Init);
    AbsValue V;
    V.Arrays.insert(N);
    return V;
  }
  case Expr::Kind::ArrayGet: {
    const auto *A = cast<ArrayGet>(E);
    AbsValue Arr = eval(A->array(), Env, H, Eff);
    AbsValue Idx = eval(A->index(), Env, H, Eff);
    if (Arr.Top) {
      Eff.setUniversal();
      return AbsValue::top();
    }
    SymInterval I = Idx.Ints.isEmpty() && Idx.Top ? SymInterval::full()
                                                  : Idx.Ints;
    if (I.isEmpty())
      I = SymInterval::full();
    AbsValue R;
    for (AbsNode *N : Arr.Arrays) {
      Eff.read(N, I);
      auto It = H.Contents.find(N);
      if (It != H.Contents.end())
        R = AbsValue::join(R, It->second);
    }
    return R;
  }
  case Expr::Kind::ArraySet: {
    const auto *A = cast<ArraySet>(E);
    AbsValue Arr = eval(A->array(), Env, H, Eff);
    AbsValue Idx = eval(A->index(), Env, H, Eff);
    AbsValue V = eval(A->value(), Env, H, Eff);
    if (Arr.Top) {
      Eff.setUniversal();
      for (AbsNode *N : Nodes.allNodes())
        H.Contents[N] = AbsValue::top();
      return V;
    }
    SymInterval I = Idx.Ints.isEmpty() && Idx.Top ? SymInterval::full()
                                                  : Idx.Ints;
    if (I.isEmpty())
      I = SymInterval::full();
    bool Unique = Arr.Arrays.size() == 1;
    for (AbsNode *N : Arr.Arrays) {
      // A must-write needs a unique single array and an exact index.
      Eff.write(N, I, Unique && N->Single && I.isPoint());
      auto It = H.Contents.find(N);
      if (It == H.Contents.end())
        H.Contents.emplace(N, V);
      else
        It->second = AbsValue::join(It->second, V); // element-summarized
    }
    return V;
  }
  case Expr::Kind::ArrayLen:
    eval(cast<ArrayLen>(E)->array(), Env, H, Eff);
    return AbsValue::ofInt(
        SymInterval::of(SymExpr::constant(0), SymExpr::posInf()));
  case Expr::Kind::Let: {
    const auto *L = cast<Let>(E);
    AbsValue Init = eval(L->init(), Env, H, Eff);
    AbsEnv Env2 = Env;
    Env2[L->var()] = Init;
    return eval(L->body(), Env2, H, Eff);
  }
  case Expr::Kind::Fold: {
    const auto *F = cast<Fold>(E);
    AbsValue Fn = eval(F->fn(), Env, H, Eff);
    AbsValue Init = eval(F->init(), Env, H, Eff);
    AbsValue Lo = eval(F->lo(), Env, H, Eff);
    AbsValue Hi = eval(F->hi(), Env, H, Eff);
    return evalLoop(E, Fn, Init, Lo, Hi, H, Eff);
  }
  case Expr::Kind::Spec:
    return evalSpecSite(cast<Spec>(E), Env, H, Eff);
  case Expr::Kind::SpecFold:
    return evalSpecFoldSite(cast<SpecFold>(E), Env, H, Eff);
  }
  sp_unreachable("unknown expression kind");
}
