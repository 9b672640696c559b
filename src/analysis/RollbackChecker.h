//===- analysis/RollbackChecker.h - Rollback-freedom checking ---*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static safety checker of the paper (Sections 3.2 and 5): verifies,
/// for every `spec`/`specfold` site of a Speculate program, the five
/// rollback-freedom conditions
///
///   (a) W(e_p) ∩ R(e_c e_g) = ∅
///   (b) R(e_p) ∩ W(e_c e_g) = ∅
///   (c) W(e_p) ∩ W(e_c e_g) = ∅
///   (d) R(e_c e_p) ∩ W(e_c e_g) = ∅
///   (e) W(e_c e_p) ⊇ W(e_c e_g)   (must-writes cover the may-writes)
///
/// over allocation-site abstract heaps with symbolic index intervals, and
/// for `specfold` with iteration i as the producer of iteration i+1
/// (effects symbolic in the loop index, shifted by one for the consumer).
///
/// A program that passes is rollback-free: every speculative execution is
/// equivalent to the non-speculative one without any runtime logging,
/// conflict detection or rollback (Theorem 1) — the property the
/// interpreter-level property tests exercise.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_ANALYSIS_ROLLBACKCHECKER_H
#define SPECPAR_ANALYSIS_ROLLBACKCHECKER_H

#include "lang/Ast.h"

#include <cstdint>
#include <string>
#include <vector>

namespace specpar {
namespace analysis {

/// Verdict for one speculation site.
struct SiteReport {
  const lang::Expr *Site = nullptr; // Spec or SpecFold node
  bool Safe = false;
  /// Which condition failed, (a)..(e) as ConditionVerdict names it, or
  /// "imprecision" when the abstraction could not analyze the site.
  std::string FailedCondition;
  std::string Explanation;
  /// Stringified effect sets used by the condition checks (diagnostics):
  /// producer R/W/mustW and speculative-consumer R/W/mustW.
  std::string ProducerEffects;
  std::string ConsumerEffects;

  std::string str() const;
};

/// Whole-program analysis result.
struct AnalysisReport {
  std::vector<SiteReport> Sites;
  /// Abstract evaluation steps performed.
  uint64_t AbstractSteps = 0;
  /// True when the step budget was exhausted (all unvisited sites are
  /// then conservatively unsafe).
  bool BudgetExceeded = false;
  /// Graphviz rendering of the final abstract heap (the paper's Figure 5
  /// shape: allocation-site nodes, single/summary bits, points-to edges).
  std::string HeapGraphDot;

  bool programSafe() const {
    for (const SiteReport &S : Sites)
      if (!S.Safe)
        return false;
    return !BudgetExceeded;
  }

  std::string str() const;
};

/// Analysis knobs.
struct CheckerOptions {
  uint64_t MaxAbstractSteps = 2000000;
  /// Inline-application depth guard (self-application diverges otherwise).
  unsigned MaxApplyDepth = 64;
  /// Abstract loop-fixpoint rounds before widening.
  unsigned MaxFixpointRounds = 8;
};

/// Checks rollback freedom for \p P.
AnalysisReport checkRollbackFreedom(const lang::Program &P,
                                    const CheckerOptions &Opts =
                                        CheckerOptions());

} // namespace analysis
} // namespace specpar

#endif // SPECPAR_ANALYSIS_ROLLBACKCHECKER_H
