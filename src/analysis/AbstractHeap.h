//===- analysis/AbstractHeap.h - Allocation-site heap abstraction -*- C++ -*-=//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract heap of the rollback-freedom checker (paper Section 5):
/// all concrete locations sharing an allocation site are one abstract
/// node; each node carries a single/summary bit (needed for must-write
/// information) and a birth epoch that lets a speculation site
/// distinguish pre-existing locations from ones its computations allocate
/// internally.
///
/// Unlike the paper's C# analysis we analyze whole Speculate programs by
/// call-site inlining (the language has no recursion), so there are no
/// parameter placeholder nodes; see DESIGN.md Section 4.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_ANALYSIS_ABSTRACTHEAP_H
#define SPECPAR_ANALYSIS_ABSTRACTHEAP_H

#include "analysis/SymExpr.h"
#include "lang/Ast.h"

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace specpar {
namespace analysis {

/// An abstract heap object: all cells/arrays allocated at one site.
struct AbsNode {
  const lang::Expr *Site = nullptr; // NewCell or NewArray
  /// A declared region's name (analysis/Summaries.h); empty for the
  /// allocation sites of a Speculate program.
  std::string Name;
  bool IsArray = false;
  /// Single concrete object (allocated at most once in the analyzed
  /// execution) — required for strong updates and must-writes.
  bool Single = true;
  /// Monotone creation stamp; nodes born inside a speculative computation
  /// (epoch >= the site's epoch) are internal to it.
  uint64_t BirthEpoch = 0;

  std::string str() const;
};

/// An abstract function value.
struct AbsFun {
  const lang::Lambda *Lam = nullptr;  // exactly one of Lam/Fun is set
  const lang::FunDef *Fun = nullptr;
  /// Number of arguments already applied (named functions curry).
  size_t AppliedArgs = 0;

  friend bool operator<(const AbsFun &A, const AbsFun &B) {
    if (A.Lam != B.Lam)
      return A.Lam < B.Lam;
    if (A.Fun != B.Fun)
      return A.Fun < B.Fun;
    return A.AppliedArgs < B.AppliedArgs;
  }
  friend bool operator==(const AbsFun &A, const AbsFun &B) {
    return A.Lam == B.Lam && A.Fun == B.Fun &&
           A.AppliedArgs == B.AppliedArgs;
  }
};

/// An abstract value: any combination of integers (as a symbolic
/// interval), unit, references to cell/array nodes, and functions.
struct AbsValue {
  SymInterval Ints = SymInterval::empty();
  bool MaybeUnit = false;
  std::set<AbsNode *> Cells;
  std::set<AbsNode *> Arrays;
  std::set<AbsFun> Funs;
  /// Set when the value may be anything (unknown application results).
  bool Top = false;

  static AbsValue ofInt(SymInterval I) {
    AbsValue V;
    V.Ints = std::move(I);
    return V;
  }
  static AbsValue ofUnit() {
    AbsValue V;
    V.MaybeUnit = true;
    return V;
  }
  static AbsValue top() {
    AbsValue V;
    V.Top = true;
    V.Ints = SymInterval::full();
    return V;
  }

  bool isBottom() const {
    return !Top && !MaybeUnit && Ints.isEmpty() && Cells.empty() &&
           Arrays.empty() && Funs.empty();
  }

  static AbsValue join(const AbsValue &A, const AbsValue &B);

  friend bool operator==(const AbsValue &A, const AbsValue &B) {
    return A.Top == B.Top && A.MaybeUnit == B.MaybeUnit && A.Ints == B.Ints &&
           A.Cells == B.Cells && A.Arrays == B.Arrays && A.Funs == B.Funs;
  }

  std::string str() const;
};

/// Flow-sensitive abstract store: the contents of every known node.
/// Arrays are element-summarized (one abstract value for all slots).
struct AbsHeap {
  std::map<AbsNode *, AbsValue> Contents;

  static AbsHeap join(const AbsHeap &A, const AbsHeap &B);

  friend bool operator==(const AbsHeap &A, const AbsHeap &B) {
    return A.Contents == B.Contents;
  }
};

/// Owns the abstract nodes of one analysis run; interns them by site.
class NodeTable {
public:
  /// The node for \p Site; created on first use. Subsequent allocations at
  /// the same site demote it to a summary node (\p DemoteIfExisting).
  AbsNode *nodeFor(const lang::Expr *Site, bool IsArray, uint64_t Epoch,
                   bool DemoteIfExisting);

  /// All nodes created so far.
  const std::vector<AbsNode *> &allNodes() const { return Order; }

private:
  std::map<const lang::Expr *, std::unique_ptr<AbsNode>> Nodes;
  std::vector<AbsNode *> Order;
};

/// The abstract environment (lexical bindings to abstract values).
using AbsEnv = std::map<const lang::Binding *, AbsValue>;

} // namespace analysis
} // namespace specpar

#endif // SPECPAR_ANALYSIS_ABSTRACTHEAP_H
