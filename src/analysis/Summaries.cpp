//===- analysis/Summaries.cpp - Declared effect summaries ------------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Summaries.h"

using namespace specpar;
using namespace specpar::analysis;

SummaryRegions::SummaryRegions()
    : Index(std::make_unique<lang::Binding>(lang::Binding{"i", 0})) {}

AbsNode *SummaryRegions::declare(std::string Name, bool IsArray) {
  auto N = std::make_unique<AbsNode>();
  N->Name = std::move(Name);
  N->IsArray = IsArray;
  Nodes.push_back(std::move(N));
  return Nodes.back().get();
}

SymExpr SummaryRegions::affine(int64_t A, int64_t B) const {
  // A coefficient times a lone variable, plus a constant: neither step
  // can overflow.
  return *SymExpr::add(
      *SymExpr::mul(SymExpr::constant(A), SymExpr::variable(index())),
      SymExpr::constant(B));
}

ConditionVerdict specpar::analysis::checkApplySummaries(
    const Effects &Producer, const Effects &Predictor,
    const Effects &Consumer) {
  Effects SpecConsumer = Predictor;
  SpecConsumer.sequence(Consumer);
  return checkRollbackConditions(Producer, SpecConsumer, Consumer);
}

ConditionVerdict
specpar::analysis::checkIterateSummaries(const IterateSummary &S) {
  // i + 1 has constant 1 and coefficient 1: it cannot overflow. A bound
  // that overflows under the shift widens to full() in the may-sets and
  // leaves the must-set (Effects::substitute).
  const lang::Binding *I = S.Regions.index();
  SymExpr Next = *SymExpr::add(SymExpr::variable(I), SymExpr::constant(1));
  Effects BodyNext = S.Body.substitute(I, Next);
  Effects SpecConsumer = S.Predictor.substitute(I, Next);
  SpecConsumer.sequence(BodyNext);
  return checkRollbackConditions(S.Body, SpecConsumer, BodyNext);
}
