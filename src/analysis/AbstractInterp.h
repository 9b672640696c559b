//===- analysis/AbstractInterp.h - Abstract evaluator -----------*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract interpreter behind the rollback-freedom checker: a
/// flow-sensitive evaluation of Speculate over the allocation-site heap
/// (analysis/AbstractHeap.h), symbolic intervals (analysis/SymExpr.h) and
/// effect triples (analysis/Effects.h).
///
/// Calls are analyzed by inlining (the language has no recursion; a depth
/// guard protects against self-application through lambdas); closure
/// environments are 0-CFA style, joined per lambda site. Loops (`fold`)
/// run to an abstract fixpoint with interval widening. At every
/// `spec`/`specfold` the evaluator performs the condition (a)-(e) checks
/// against effects computed on pre-state heap copies — for `specfold`
/// with the loop index as a symbolic variable, so that iteration i+1's
/// effects are iteration i's shifted by one.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_ANALYSIS_ABSTRACTINTERP_H
#define SPECPAR_ANALYSIS_ABSTRACTINTERP_H

#include "analysis/Effects.h"
#include "analysis/RollbackChecker.h"
#include "lang/Ast.h"

#include <map>

namespace specpar {
namespace analysis {

/// Runs the abstract interpretation of a whole program, filling \p Report
/// (site verdicts first-wins: the earliest — most precise — context
/// decides; each site's conditions are universally quantified over its
/// iterations already).
class AbstractInterpreter {
public:
  AbstractInterpreter(const lang::Program &P, const CheckerOptions &Opts,
                      AnalysisReport &Report)
      : P(P), Opts(Opts), Report(Report) {}

  void run();

private:
  /// Evaluates \p E into an abstract value, mutating \p H and recording
  /// into \p Eff.
  AbsValue eval(const lang::Expr *E, const AbsEnv &Env, AbsHeap &H,
                Effects &Eff);

  /// Applies \p Fn to \p Args (all at once, curried as needed).
  AbsValue apply(const AbsValue &Fn, const std::vector<AbsValue> &Args,
                 AbsHeap &H, Effects &Eff, const lang::Expr *At);
  AbsValue applyOneFun(const AbsFun &F, const std::vector<AbsValue> &Args,
                       AbsHeap &H, Effects &Eff, const lang::Expr *At);

  /// The abstract fold fixpoint (shared by fold and specfold's overall
  /// effect). Must-writes of the loop are dropped (sound).
  AbsValue evalLoop(const lang::Expr *At, const AbsValue &Fn,
                    AbsValue Acc, const AbsValue &Lo, const AbsValue &Hi,
                    AbsHeap &H, Effects &Eff);

  AbsValue evalSpecSite(const lang::Spec *S, const AbsEnv &Env, AbsHeap &H,
                        Effects &Eff);
  AbsValue evalSpecFoldSite(const lang::SpecFold *S, const AbsEnv &Env,
                            AbsHeap &H, Effects &Eff);

  /// Records a verdict for \p Site unless one exists (first wins).
  void reportSite(const lang::Expr *Site, bool Safe, std::string Condition,
                  std::string Explanation);

  /// Reports checkRollbackConditions' verdict on the producer/
  /// speculative-consumer/re-execution effect sets (already restricted to
  /// pre-existing nodes).
  void checkConditions(const lang::Expr *Site, const Effects &Producer,
                       const Effects &SpecConsumer, const Effects &Reexec);

  /// True (and poisons \p Eff / returns top) when out of budget.
  bool outOfBudget(Effects &Eff);

  /// Graphviz rendering of the final abstract heap (paper Figure 5).
  std::string renderHeapDot(const AbsHeap &H) const;

  const lang::Program &P;
  CheckerOptions Opts;
  AnalysisReport &Report;
  NodeTable Nodes;
  std::map<const lang::Lambda *, AbsEnv> LambdaEnvs;
  std::map<const lang::Expr *, size_t> SiteIndex; // first-wins registry
  uint64_t EpochCounter = 1;
  unsigned ApplyDepth = 0;
  std::string PendingProducerEffects, PendingConsumerEffects;
};

} // namespace analysis
} // namespace specpar

#endif // SPECPAR_ANALYSIS_ABSTRACTINTERP_H
