//===- analysis/SymExpr.cpp - Symbolic linear bounds and intervals ---------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/SymExpr.h"

#include "support/StringUtils.h"

using namespace specpar;
using namespace specpar::analysis;

std::optional<SymExpr> SymExpr::combine(const SymExpr &A, const SymExpr &B,
                                        bool Subtract) {
  auto Step = [Subtract](int64_t &Acc, int64_t V) {
    return Subtract ? __builtin_sub_overflow(Acc, V, &Acc)
                    : __builtin_add_overflow(Acc, V, &Acc);
  };
  SymExpr R = A;
  if (Step(R.Const, B.Const))
    return std::nullopt;
  for (const auto &[Var, Coeff] : B.Coeffs) {
    int64_t &C = R.Coeffs[Var];
    if (Step(C, Coeff))
      return std::nullopt;
    if (C == 0)
      R.Coeffs.erase(Var);
  }
  return R;
}

std::optional<SymExpr> SymExpr::add(const SymExpr &A, const SymExpr &B) {
  if (A.isPosInf() || B.isPosInf())
    return posInf();
  if (A.isNegInf() || B.isNegInf())
    return negInf();
  return combine(A, B, /*Subtract=*/false);
}

std::optional<SymExpr> SymExpr::sub(const SymExpr &A, const SymExpr &B) {
  if (B.isPosInf())
    return negInf();
  if (B.isNegInf())
    return posInf();
  if (!A.isFinite())
    return A;
  return combine(A, B, /*Subtract=*/true);
}

std::optional<SymExpr> SymExpr::mul(const SymExpr &A, const SymExpr &B) {
  if (!A.isFinite() || !B.isFinite())
    return std::nullopt;
  const SymExpr *Scalar = nullptr, *Linear = nullptr;
  if (A.isConstant()) {
    Scalar = &A;
    Linear = &B;
  } else if (B.isConstant()) {
    Scalar = &B;
    Linear = &A;
  } else {
    return std::nullopt;
  }
  SymExpr R;
  int64_t K = Scalar->Const;
  if (__builtin_mul_overflow(Linear->Const, K, &R.Const))
    return std::nullopt;
  if (K != 0)
    for (const auto &[Var, Coeff] : Linear->Coeffs)
      if (__builtin_mul_overflow(Coeff, K, &R.Coeffs[Var]))
        return std::nullopt;
  return R;
}

std::optional<int64_t> SymExpr::differenceFrom(const SymExpr &B) const {
  if (!isFinite() || !B.isFinite())
    return std::nullopt;
  int64_t D;
  if (Coeffs != B.Coeffs || __builtin_sub_overflow(Const, B.Const, &D))
    return std::nullopt;
  return D;
}

std::optional<SymExpr>
SymExpr::substitute(const lang::Binding *Var,
                    const SymExpr &Replacement) const {
  if (!isFinite())
    return *this;
  auto It = Coeffs.find(Var);
  if (It == Coeffs.end())
    return *this;
  int64_t K = It->second;
  if (!Replacement.isFinite())
    return (K > 0) == Replacement.isPosInf() ? posInf() : negInf();
  SymExpr Rest = *this;
  Rest.Coeffs.erase(Var);
  std::optional<SymExpr> Scaled = mul(SymExpr::constant(K), Replacement);
  if (!Scaled)
    return std::nullopt;
  return add(Rest, *Scaled);
}

std::string SymExpr::str() const {
  if (isPosInf())
    return "+inf";
  if (isNegInf())
    return "-inf";
  std::string S;
  for (const auto &[Var, Coeff] : Coeffs) {
    if (!S.empty())
      S += " + ";
    if (Coeff == 1)
      S += Var->Name;
    else
      S += formatString("%lld*%s", static_cast<long long>(Coeff),
                        Var->Name.c_str());
  }
  if (Const != 0 || S.empty()) {
    if (!S.empty())
      S += " + ";
    S += std::to_string(Const);
  }
  return S;
}

//===----------------------------------------------------------------------===//
// SymInterval
//===----------------------------------------------------------------------===//

/// Is A provably <= B? (via constant difference, or infinities)
static bool provablyLe(const SymExpr &A, const SymExpr &B) {
  if (A.isNegInf() || B.isPosInf())
    return true;
  if (A.isPosInf())
    return B.isPosInf();
  if (B.isNegInf())
    return A.isNegInf();
  std::optional<int64_t> D = A.differenceFrom(B);
  return D && *D <= 0;
}

/// Is A provably < B?
static bool provablyLt(const SymExpr &A, const SymExpr &B) {
  if (A.isNegInf())
    return !B.isNegInf();
  if (B.isPosInf())
    return !A.isPosInf();
  if (A.isPosInf() || B.isNegInf())
    return false;
  std::optional<int64_t> D = A.differenceFrom(B);
  return D && *D < 0;
}

bool SymInterval::mayOverlap(const SymInterval &A, const SymInterval &B) {
  if (A.Empty || B.Empty)
    return false;
  // Disjoint iff A.hi < B.lo or B.hi < A.lo, provably.
  if (provablyLt(A.Hi, B.Lo) || provablyLt(B.Hi, A.Lo))
    return false;
  return true;
}

bool SymInterval::mustContain(const SymInterval &Outer,
                              const SymInterval &Inner) {
  if (Inner.Empty)
    return true;
  if (Outer.Empty)
    return false;
  return provablyLe(Outer.Lo, Inner.Lo) && provablyLe(Inner.Hi, Outer.Hi);
}

SymInterval SymInterval::join(const SymInterval &A, const SymInterval &B) {
  if (A.Empty)
    return B;
  if (B.Empty)
    return A;
  SymExpr Lo = provablyLe(A.Lo, B.Lo)
                   ? A.Lo
                   : (provablyLe(B.Lo, A.Lo) ? B.Lo : SymExpr::negInf());
  SymExpr Hi = provablyLe(B.Hi, A.Hi)
                   ? A.Hi
                   : (provablyLe(A.Hi, B.Hi) ? B.Hi : SymExpr::posInf());
  return SymInterval(std::move(Lo), std::move(Hi));
}

/// [Lo, Hi], or full() when either bound overflowed.
static SymInterval ofBounds(std::optional<SymExpr> Lo,
                            std::optional<SymExpr> Hi) {
  if (!Lo || !Hi)
    return SymInterval::full();
  return SymInterval::of(std::move(*Lo), std::move(*Hi));
}

SymInterval specpar::analysis::operator+(const SymInterval &A,
                                         const SymInterval &B) {
  if (A.isEmpty() || B.isEmpty())
    return SymInterval::empty();
  return ofBounds(SymExpr::add(A.lo(), B.lo()), SymExpr::add(A.hi(), B.hi()));
}

SymInterval specpar::analysis::operator-(const SymInterval &A,
                                         const SymInterval &B) {
  if (A.isEmpty() || B.isEmpty())
    return SymInterval::empty();
  return ofBounds(SymExpr::sub(A.lo(), B.hi()), SymExpr::sub(A.hi(), B.lo()));
}

SymInterval SymInterval::mul(const SymInterval &A, const SymInterval &B) {
  if (A.isEmpty() || B.isEmpty())
    return empty();
  // Precise only for point * point with a linear product; otherwise, if a
  // constant point scales an interval with a known sign, scale the bounds.
  if (A.isPoint() && B.isPoint()) {
    std::optional<SymExpr> P = SymExpr::mul(A.lo(), B.lo());
    if (P)
      return point(*P);
    return full();
  }
  auto ScaleByConst = [](const SymInterval &I, int64_t K) -> SymInterval {
    auto Scale = [K](const SymExpr &E) -> std::optional<SymExpr> {
      if (E.isFinite())
        return SymExpr::mul(E, SymExpr::constant(K));
      return (K >= 0) == E.isPosInf() ? SymExpr::posInf() : SymExpr::negInf();
    };
    std::optional<SymExpr> Lo = Scale(I.lo()), Hi = Scale(I.hi());
    if (K < 0)
      std::swap(Lo, Hi);
    return ofBounds(std::move(Lo), std::move(Hi));
  };
  if (A.isPoint() && A.lo().isConstant())
    return ScaleByConst(B, A.lo().constantValue());
  if (B.isPoint() && B.lo().isConstant())
    return ScaleByConst(A, B.lo().constantValue());
  return full();
}

std::optional<SymInterval>
SymInterval::substitute(const lang::Binding *Var,
                        const SymExpr &Replacement) const {
  if (Empty)
    return *this;
  std::optional<SymExpr> L = Lo.substitute(Var, Replacement);
  std::optional<SymExpr> H = Hi.substitute(Var, Replacement);
  if (!L || !H)
    return std::nullopt;
  return of(std::move(*L), std::move(*H));
}

std::string SymInterval::str() const {
  if (Empty)
    return "[]";
  return "[" + Lo.str() + ", " + Hi.str() + "]";
}
