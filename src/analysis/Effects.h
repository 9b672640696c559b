//===- analysis/Effects.h - Read/write effect sets --------------*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The R / W / must-W sets of the rollback-freedom conditions (paper
/// Section 3.2):
///
///   R(e,H)  — locations of the initial heap read before they are written,
///   W(e,H)  — locations of the initial heap written (may, over-approx),
///   mustW   — locations certainly written on every path (under-approx;
///             only meaningful on single nodes).
///
/// An access is a (node, index-interval) pair; cells use the point
/// interval [0,0]. May-sets are hulls per node; the must-set keeps a list
/// of intervals per node so exact per-iteration points survive.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_ANALYSIS_EFFECTS_H
#define SPECPAR_ANALYSIS_EFFECTS_H

#include "analysis/AbstractHeap.h"

#include <functional>

namespace specpar {
namespace analysis {

/// An over-approximate access set: per node, the hull of accessed
/// indices. `Universal` poisons the set (unknown application).
struct AccessSet {
  std::map<AbsNode *, SymInterval> Map;
  bool Universal = false;

  void add(AbsNode *N, const SymInterval &I) {
    if (Universal)
      return;
    auto It = Map.find(N);
    if (It == Map.end())
      Map.emplace(N, I);
    else
      It->second = SymInterval::join(It->second, I);
  }
  void addAll(const AccessSet &O) {
    if (O.Universal)
      Universal = true;
    if (Universal) {
      Map.clear();
      return;
    }
    for (const auto &[N, I] : O.Map)
      add(N, I);
  }

  bool empty() const { return !Universal && Map.empty(); }

  /// Substitutes a symbolic variable in every interval.
  AccessSet substitute(const lang::Binding *Var, const SymExpr &Repl) const;

  std::string str() const;
};

/// An under-approximate write set: per node, a list of certainly-written
/// intervals.
struct MustSet {
  std::map<AbsNode *, std::vector<SymInterval>> Map;

  void add(AbsNode *N, const SymInterval &I) {
    if (I.isEmpty())
      return;
    Map[N].push_back(I);
  }

  /// Intersection of two must-sets (for branch joins): keeps intervals
  /// that appear (covered) on both sides.
  static MustSet meet(const MustSet &A, const MustSet &B);

  /// Is (N, I) covered by some interval in the set?
  bool covers(AbsNode *N, const SymInterval &I) const;

  AccessSet toAccessSet() const;

  std::string str() const;
};

/// The effect triple of one computation.
struct Effects {
  AccessSet MayRead;
  AccessSet MayWrite;
  MustSet MustWrite;

  /// Records a read of (N, I): dropped when already must-written (the
  /// "read before written" refinement of R).
  void read(AbsNode *N, const SymInterval &I) {
    if (MustWrite.covers(N, I))
      return;
    MayRead.add(N, I);
  }

  /// Records a write of (N, I); \p Certain marks writes on all paths to a
  /// single node with an exact interval.
  void write(AbsNode *N, const SymInterval &I, bool Certain) {
    MayWrite.add(N, I);
    if (Certain && N->Single)
      MustWrite.add(N, I);
  }

  /// Sequencing: this; Next. Next's reads of locations this must-wrote
  /// stay internal.
  void sequence(const Effects &Next);

  /// Branch join (if/else): may-union, must-intersection.
  static Effects joinBranches(const Effects &A, const Effects &B);

  /// Universal poison.
  void setUniversal() {
    MayRead.Universal = true;
    MayRead.Map.clear();
    MayWrite.Universal = true;
    MayWrite.Map.clear();
    MustWrite.Map.clear();
  }

  /// Substitutes a symbolic variable throughout.
  Effects substitute(const lang::Binding *Var, const SymExpr &Repl) const;

  /// Drops accesses to nodes born at or after \p Epoch (internal
  /// allocations of the analyzed computation).
  Effects restrictToPreExisting(uint64_t Epoch) const;

  std::string str() const;
};

/// A provable-emptiness check between two access sets; on overlap,
/// \p Why describes one witness.
bool provablyDisjoint(const AccessSet &A, const AccessSet &B,
                      std::string *Why);

/// Does \p Must cover every access in \p May? On failure \p Why explains.
bool provablyCovers(const MustSet &Must, const AccessSet &May,
                    std::string *Why);

/// The verdict of conditions (a)-(e) at one speculation site.
struct ConditionVerdict {
  std::string FailedCondition; // (a)..(e); empty when all five hold
  std::string Explanation;

  bool safe() const { return FailedCondition.empty(); }
};

/// Decides conditions (a)-(e) of paper Section 3.2 over the effects of
/// the producer, of the speculative consumer (predictor then consumer)
/// and of the consumer's re-execution, all restricted to pre-existing
/// locations. The Speculate checker and the declared C++ summaries
/// (analysis/Summaries.h) both lower into this one decision.
ConditionVerdict checkRollbackConditions(const Effects &Producer,
                                         const Effects &SpecConsumer,
                                         const Effects &Reexec);

} // namespace analysis
} // namespace specpar

#endif // SPECPAR_ANALYSIS_EFFECTS_H
