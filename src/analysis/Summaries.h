//===- analysis/Summaries.h - Declared effect summaries ---------*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The summary front end of the rollback-freedom checker. C++ delegates
/// are not analyzed the way Speculate programs are (see DESIGN.md), so,
/// like the paper, which "manually provided summaries for BCL methods",
/// their author declares what each delegate reads before writing it, may
/// write, and certainly writes. A declaration lowers into the analysis'
/// own effect sets: a named region is an AbsNode, and an index `a*i + b`
/// over the iteration index i is a SymExpr. checkRollbackConditions
/// (analysis/Effects.h) then decides the site exactly as it decides a
/// Speculate `spec` or `specfold`.
///
/// Declare a delegate's reads before its writes: a read of a location
/// the delegate already certainly wrote is not a read of the initial
/// state, and Effects::read drops it.
///
/// Example, the speculative lexer's iterate site, abridged from
/// apps/SpeculativeLexing.cpp (which also declares the lexer's tables).
/// Sub-fragment i reads the immutable text and writes its part of the
/// chunk-local token list U, which the finalizer publishes
/// non-speculatively; the overlap predictor reads only the text:
///
///   IterateSummary S;
///   AbsNode *Text = S.Regions.array("text");
///   AbsNode *U = S.Regions.array("U");
///   S.Body.read(Text, SymInterval::full());
///   S.Body.write(U, S.Regions.slot(1, 0), /*Certain=*/true); // U[i]
///   S.Predictor.read(Text, SymInterval::full());
///   ConditionVerdict V = checkIterateSummaries(S);           // SAFE
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_ANALYSIS_SUMMARIES_H
#define SPECPAR_ANALYSIS_SUMMARIES_H

#include "analysis/Effects.h"

#include <memory>
#include <string>
#include <vector>

namespace specpar {
namespace analysis {

/// Owns the declared regions of one speculation site and the iteration
/// index i that their bounds are affine in.
class SummaryRegions {
public:
  SummaryRegions();

  /// Declares an indexed region (an array, a buffer).
  AbsNode *array(std::string Name) { return declare(std::move(Name), true); }
  /// Declares a scalar region; access it at cell().
  AbsNode *scalar(std::string Name) {
    return declare(std::move(Name), false);
  }

  /// The slot `a*i + b`.
  SymInterval slot(int64_t A, int64_t B) const {
    return SymInterval::point(affine(A, B));
  }
  /// The inclusive range [a0*i + b0, a1*i + b1].
  SymInterval range(int64_t A0, int64_t B0, int64_t A1, int64_t B1) const {
    return SymInterval::of(affine(A0, B0), affine(A1, B1));
  }
  /// The one location of a scalar region.
  static SymInterval cell() {
    return SymInterval::point(SymExpr::constant(0));
  }

  const lang::Binding *index() const { return Index.get(); }

private:
  AbsNode *declare(std::string Name, bool IsArray);
  SymExpr affine(int64_t A, int64_t B) const;

  std::unique_ptr<lang::Binding> Index;
  std::vector<std::unique_ptr<AbsNode>> Nodes;
};

/// The declared effects of one `Speculation::iterate` site: the body and
/// the predictor at iteration i.
struct IterateSummary {
  SummaryRegions Regions;
  Effects Body;
  Effects Predictor;
};

/// Checks a `Speculation::apply` site. The consumer's effects must cover
/// its behaviour on any input value, since the speculative run and the
/// re-execution share them.
ConditionVerdict checkApplySummaries(const Effects &Producer,
                                     const Effects &Predictor,
                                     const Effects &Consumer);

/// Checks an iterate site the way the checker does `specfold`: iteration
/// i is the producer of iteration i+1, whose speculative consumer is the
/// predictor then the body at i+1, and whose re-execution is the body.
ConditionVerdict checkIterateSummaries(const IterateSummary &S);

} // namespace analysis
} // namespace specpar

#endif // SPECPAR_ANALYSIS_SUMMARIES_H
