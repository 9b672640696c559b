//===- analysis/SymExpr.h - Symbolic linear bounds and intervals -*- C++ -*-=//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The symbolic interval domain of the paper's range analysis (Section 5):
/// interval bounds are linear expressions over program variables (loop
/// indices and, transitively, anything bound to them), so an array access
/// `a[i]` inside the i-th iteration is described exactly as [i, i] and the
/// disjointness of iteration i's and iteration i+1's accesses is decidable
/// by constant-difference comparison.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_ANALYSIS_SYMEXPR_H
#define SPECPAR_ANALYSIS_SYMEXPR_H

#include "lang/Ast.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace specpar {
namespace analysis {

/// A linear expression c0 + sum(ci * vi) over analysis variables (language
/// bindings holding symbolic integers), or +/- infinity.
class SymExpr {
public:
  /// The constant \p C.
  static SymExpr constant(int64_t C) {
    SymExpr E;
    E.Const = C;
    return E;
  }
  /// The variable \p B.
  static SymExpr variable(const lang::Binding *B) {
    SymExpr E;
    E.Coeffs[B] = 1;
    return E;
  }
  static SymExpr posInf() {
    SymExpr E;
    E.K = Kind::PosInf;
    return E;
  }
  static SymExpr negInf() {
    SymExpr E;
    E.K = Kind::NegInf;
    return E;
  }

  SymExpr() = default;

  bool isPosInf() const { return K == Kind::PosInf; }
  bool isNegInf() const { return K == Kind::NegInf; }
  bool isFinite() const { return K == Kind::Finite; }
  bool isConstant() const { return isFinite() && Coeffs.empty(); }
  int64_t constantValue() const { return Const; }

  /// A + B and A - B. Nullopt when a constant or coefficient leaves
  /// int64: the language wraps on overflow, so no bound derived from the
  /// exact result would contain the value the program computes.
  static std::optional<SymExpr> add(const SymExpr &A, const SymExpr &B);
  static std::optional<SymExpr> sub(const SymExpr &A, const SymExpr &B);
  /// Multiplication by a constant expression; returns nullopt when neither
  /// side is constant (non-linear), when either side is infinite, or on
  /// overflow.
  static std::optional<SymExpr> mul(const SymExpr &A, const SymExpr &B);

  /// A - B if the difference is a known constant that fits int64, else
  /// nullopt. This is the comparability test behind all symbolic
  /// interval decisions.
  std::optional<int64_t> differenceFrom(const SymExpr &B) const;

  /// Substitutes \p Var := \p Replacement; nullopt on overflow.
  std::optional<SymExpr> substitute(const lang::Binding *Var,
                                    const SymExpr &Replacement) const;

  /// The coefficient of \p Var (0 when absent); nullopt for infinities.
  std::optional<int64_t> coefficientOf(const lang::Binding *Var) const {
    if (!isFinite())
      return std::nullopt;
    auto It = Coeffs.find(Var);
    return It == Coeffs.end() ? 0 : It->second;
  }

  friend bool operator==(const SymExpr &A, const SymExpr &B) {
    return A.K == B.K && (A.K != Kind::Finite ||
                          (A.Const == B.Const && A.Coeffs == B.Coeffs));
  }

  std::string str() const;

private:
  /// A + B, or A - B when \p Subtract, for finite A and B.
  static std::optional<SymExpr> combine(const SymExpr &A, const SymExpr &B,
                                        bool Subtract);

  enum class Kind { Finite, PosInf, NegInf } K = Kind::Finite;
  int64_t Const = 0;
  std::map<const lang::Binding *, int64_t> Coeffs;
};

/// An interval with symbolic bounds. Empty is canonical.
class SymInterval {
public:
  static SymInterval empty() { return SymInterval(); }
  static SymInterval full() {
    return SymInterval(SymExpr::negInf(), SymExpr::posInf());
  }
  static SymInterval point(const SymExpr &E) { return SymInterval(E, E); }
  static SymInterval of(SymExpr Lo, SymExpr Hi) {
    return SymInterval(std::move(Lo), std::move(Hi));
  }

  bool isEmpty() const { return Empty; }
  bool isPoint() const { return !Empty && Lo == Hi; }
  const SymExpr &lo() const { return Lo; }
  const SymExpr &hi() const { return Hi; }

  /// May the two intervals overlap? Conservative: true unless provably
  /// disjoint via constant bound differences.
  static bool mayOverlap(const SymInterval &A, const SymInterval &B);

  /// Does \p Outer provably contain \p Inner? Conservative: false unless
  /// provable.
  static bool mustContain(const SymInterval &Outer, const SymInterval &Inner);

  /// Convex hull; incomparable bounds widen to infinity.
  static SymInterval join(const SymInterval &A, const SymInterval &B);

  /// Pointwise addition and subtraction; full() when a bound overflows
  /// (the program's value may have wrapped anywhere).
  friend SymInterval operator+(const SymInterval &A, const SymInterval &B);
  friend SymInterval operator-(const SymInterval &A, const SymInterval &B);
  /// Multiplication; precise only when one side is a constant point,
  /// otherwise (or on overflow) full() (kept sound and simple).
  static SymInterval mul(const SymInterval &A, const SymInterval &B);

  /// Substitutes \p Var := \p Replacement in both bounds; nullopt when a
  /// bound overflows.
  std::optional<SymInterval> substitute(const lang::Binding *Var,
                                        const SymExpr &Replacement) const;

  friend bool operator==(const SymInterval &A, const SymInterval &B) {
    if (A.Empty || B.Empty)
      return A.Empty == B.Empty;
    return A.Lo == B.Lo && A.Hi == B.Hi;
  }

  std::string str() const;

private:
  SymInterval() : Empty(true) {}
  SymInterval(SymExpr Lo, SymExpr Hi)
      : Empty(false), Lo(std::move(Lo)), Hi(std::move(Hi)) {}

  bool Empty;
  SymExpr Lo, Hi;
};

SymInterval operator+(const SymInterval &A, const SymInterval &B);
SymInterval operator-(const SymInterval &A, const SymInterval &B);

} // namespace analysis
} // namespace specpar

#endif // SPECPAR_ANALYSIS_SYMEXPR_H
