//===- analysis/Effects.cpp - Read/write effect sets ------------------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Effects.h"

#include "support/StringUtils.h"

using namespace specpar;
using namespace specpar::analysis;

AccessSet AccessSet::substitute(const lang::Binding *Var,
                                const SymExpr &Repl) const {
  AccessSet R;
  R.Universal = Universal;
  for (const auto &[N, I] : Map)
    R.Map.emplace(N, I.substitute(Var, Repl).value_or(SymInterval::full()));
  return R;
}

std::string AccessSet::str() const {
  if (Universal)
    return "{*}";
  std::string S = "{";
  bool First = true;
  for (const auto &[N, I] : Map) {
    if (!First)
      S += ", ";
    First = false;
    S += N->str();
    if (N->IsArray)
      S += I.str();
  }
  return S + "}";
}

MustSet MustSet::meet(const MustSet &A, const MustSet &B) {
  MustSet R;
  for (const auto &[N, Intervals] : A.Map) {
    auto It = B.Map.find(N);
    if (It == B.Map.end())
      continue;
    // Keep A-intervals covered by some B-interval (and vice versa —
    // symmetric coverage keeps it a sound under-approximation).
    for (const SymInterval &I : Intervals)
      for (const SymInterval &J : It->second)
        if (SymInterval::mustContain(J, I)) {
          R.Map[N].push_back(I);
          break;
        }
  }
  return R;
}

bool MustSet::covers(AbsNode *N, const SymInterval &I) const {
  auto It = Map.find(N);
  if (It == Map.end())
    return false;
  for (const SymInterval &J : It->second)
    if (SymInterval::mustContain(J, I))
      return true;
  return false;
}

AccessSet MustSet::toAccessSet() const {
  AccessSet R;
  for (const auto &[N, Intervals] : Map)
    for (const SymInterval &I : Intervals)
      R.add(N, I);
  return R;
}

std::string MustSet::str() const {
  std::string S = "{";
  bool First = true;
  for (const auto &[N, Intervals] : Map)
    for (const SymInterval &I : Intervals) {
      if (!First)
        S += ", ";
      First = false;
      S += N->str();
      if (N->IsArray)
        S += I.str();
    }
  return S + "}";
}

void Effects::sequence(const Effects &Next) {
  // Reads of Next that this computation certainly already wrote are not
  // reads of the initial heap.
  if (Next.MayRead.Universal) {
    MayRead.Universal = true;
    MayRead.Map.clear();
  } else if (!MayRead.Universal) {
    for (const auto &[N, I] : Next.MayRead.Map)
      if (!MustWrite.covers(N, I))
        MayRead.add(N, I);
  }
  MayWrite.addAll(Next.MayWrite);
  for (const auto &[N, Intervals] : Next.MustWrite.Map)
    for (const SymInterval &I : Intervals)
      MustWrite.add(N, I);
}

Effects Effects::joinBranches(const Effects &A, const Effects &B) {
  Effects R;
  R.MayRead = A.MayRead;
  R.MayRead.addAll(B.MayRead);
  R.MayWrite = A.MayWrite;
  R.MayWrite.addAll(B.MayWrite);
  R.MustWrite = MustSet::meet(A.MustWrite, B.MustWrite);
  return R;
}

Effects Effects::substitute(const lang::Binding *Var,
                            const SymExpr &Repl) const {
  Effects R;
  R.MayRead = MayRead.substitute(Var, Repl);
  R.MayWrite = MayWrite.substitute(Var, Repl);
  // A must-write whose bound overflows is dropped (under-approximation).
  for (const auto &[N, Intervals] : MustWrite.Map)
    for (const SymInterval &I : Intervals)
      if (std::optional<SymInterval> S = I.substitute(Var, Repl))
        R.MustWrite.add(N, *S);
  return R;
}

Effects Effects::restrictToPreExisting(uint64_t Epoch) const {
  Effects R;
  auto Filter = [Epoch](const AccessSet &In) {
    AccessSet Out;
    Out.Universal = In.Universal;
    for (const auto &[N, I] : In.Map)
      if (N->BirthEpoch < Epoch)
        Out.add(N, I);
    return Out;
  };
  R.MayRead = Filter(MayRead);
  R.MayWrite = Filter(MayWrite);
  for (const auto &[N, Intervals] : MustWrite.Map) {
    if (N->BirthEpoch >= Epoch)
      continue;
    for (const SymInterval &I : Intervals)
      R.MustWrite.add(N, I);
  }
  return R;
}

std::string Effects::str() const {
  return "R=" + MayRead.str() + " W=" + MayWrite.str() +
         " mustW=" + MustWrite.str();
}

bool specpar::analysis::provablyDisjoint(const AccessSet &A,
                                         const AccessSet &B,
                                         std::string *Why) {
  if (A.empty() || B.empty())
    return true;
  if (A.Universal || B.Universal) {
    if (Why)
      *Why = "an unanalyzable application may touch any location";
    return false;
  }
  for (const auto &[N, I] : A.Map) {
    auto It = B.Map.find(N);
    if (It == B.Map.end())
      continue;
    if (!N->IsArray || SymInterval::mayOverlap(I, It->second)) {
      if (Why)
        *Why = formatString("%s%s overlaps %s%s", N->str().c_str(),
                            N->IsArray ? I.str().c_str() : "",
                            N->str().c_str(),
                            N->IsArray ? It->second.str().c_str() : "");
      return false;
    }
  }
  return true;
}

bool specpar::analysis::provablyCovers(const MustSet &Must,
                                       const AccessSet &May,
                                       std::string *Why) {
  if (May.Universal) {
    if (Why)
      *Why = "an unanalyzable application may write any location";
    return false;
  }
  for (const auto &[N, I] : May.Map) {
    SymInterval Need = N->IsArray ? I : SymInterval::point(SymExpr::constant(0));
    if (!Must.covers(N, Need)) {
      if (Why)
        *Why = formatString(
            "speculative write to %s%s is not certainly overwritten by the "
            "re-execution",
            N->str().c_str(), N->IsArray ? I.str().c_str() : "");
      return false;
    }
  }
  return true;
}

ConditionVerdict specpar::analysis::checkRollbackConditions(
    const Effects &Producer, const Effects &SpecConsumer,
    const Effects &Reexec) {
  std::string Why;
  if (!provablyDisjoint(Producer.MayWrite, SpecConsumer.MayRead, &Why))
    return {"(a)",
            "producer writes race with speculative-consumer reads: " + Why};
  if (!provablyDisjoint(Producer.MayRead, SpecConsumer.MayWrite, &Why))
    return {"(b)",
            "producer reads race with speculative-consumer writes: " + Why};
  if (!provablyDisjoint(Producer.MayWrite, SpecConsumer.MayWrite, &Why))
    return {"(c)",
            "producer and speculative consumer write the same state: " + Why};
  if (!provablyDisjoint(Reexec.MayRead, SpecConsumer.MayWrite, &Why))
    return {"(d)", "the consumer re-execution may read state the speculative "
                   "consumer wrote: " +
                       Why};
  if (!provablyCovers(Reexec.MustWrite, SpecConsumer.MayWrite, &Why))
    return {"(e)", Why};
  return {};
}
