//===- tests/analysis_effects_test.cpp - Effect-set unit tests -------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Effects.h"

#include <gtest/gtest.h>

#include <limits>

using namespace specpar;
using namespace specpar::analysis;

namespace {

/// Fixture with a few nodes and bindings to build effects from.
class EffectsTest : public ::testing::Test {
protected:
  EffectsTest() {
    Arr = Table.nodeFor(&ArrSite, /*IsArray=*/true, 1, false);
    Cell = Table.nodeFor(&CellSite, /*IsArray=*/false, 2, false);
    Late = Table.nodeFor(&LateSite, /*IsArray=*/false, 10, false);
  }

  SymInterval at(int64_t V) {
    return SymInterval::point(SymExpr::constant(V));
  }
  SymInterval atVar() { return SymInterval::point(SymExpr::variable(&I)); }

  // Real nodes: rendering an effect reads its allocation site's loc().
  lang::UnitLit ArrSite{{1, 1}}, CellSite{{2, 1}}, LateSite{{3, 1}};
  NodeTable Table;
  AbsNode *Arr, *Cell, *Late;
  lang::Binding I{"i", 0};
};

TEST_F(EffectsTest, ReadBeforeWriteRefinement) {
  Effects E;
  E.write(Cell, at(0), /*Certain=*/true);
  E.read(Cell, at(0)); // read after a must-write: internal
  EXPECT_TRUE(E.MayRead.empty());
  EXPECT_FALSE(E.MayWrite.empty());

  Effects F;
  F.read(Cell, at(0)); // read first: in R
  F.write(Cell, at(0), true);
  EXPECT_FALSE(F.MayRead.empty());
}

TEST_F(EffectsTest, UncertainWritesDoNotShadowReads) {
  Effects E;
  E.write(Cell, at(0), /*Certain=*/false);
  E.read(Cell, at(0));
  EXPECT_FALSE(E.MayRead.empty())
      << "a may-write cannot make later reads internal";
}

TEST_F(EffectsTest, SummaryNodesNeverMustWrite) {
  Arr->Single = false;
  Effects E;
  E.write(Arr, at(3), /*Certain=*/true);
  EXPECT_TRUE(E.MustWrite.Map.empty());
  EXPECT_FALSE(E.MayWrite.empty());
}

TEST_F(EffectsTest, SequenceComposesReadsAndMusts) {
  Effects A;
  A.write(Cell, at(0), true);
  Effects B;
  B.read(Cell, at(0));  // shadowed by A's must-write
  B.read(Arr, at(1));   // genuinely new
  B.write(Arr, at(2), true);
  A.sequence(B);
  EXPECT_EQ(A.MayRead.Map.count(Cell), 0u);
  EXPECT_EQ(A.MayRead.Map.count(Arr), 1u);
  EXPECT_TRUE(A.MustWrite.covers(Cell, at(0)));
  EXPECT_TRUE(A.MustWrite.covers(Arr, at(2)));
}

TEST_F(EffectsTest, BranchJoinMeetsMusts) {
  Effects Then;
  Then.write(Cell, at(0), true);
  Then.write(Arr, at(1), true);
  Effects Else;
  Else.write(Cell, at(0), true);
  Effects Joined = Effects::joinBranches(Then, Else);
  EXPECT_TRUE(Joined.MustWrite.covers(Cell, at(0)))
      << "written on both paths";
  EXPECT_FALSE(Joined.MustWrite.covers(Arr, at(1)))
      << "written on one path only";
  EXPECT_EQ(Joined.MayWrite.Map.count(Arr), 1u);
}

TEST_F(EffectsTest, RestrictToPreExistingDropsInternalNodes) {
  Effects E;
  E.read(Cell, at(0));  // birth epoch 2
  E.write(Late, at(0), true); // birth epoch 10
  Effects R = E.restrictToPreExisting(/*Epoch=*/5);
  EXPECT_EQ(R.MayRead.Map.count(Cell), 1u);
  EXPECT_EQ(R.MayWrite.Map.count(Late), 0u);
  EXPECT_FALSE(R.MustWrite.covers(Late, at(0)));
}

TEST_F(EffectsTest, UniversalPoisonsEverything) {
  Effects E;
  E.read(Cell, at(0));
  E.setUniversal();
  EXPECT_TRUE(E.MayRead.Universal);
  EXPECT_TRUE(E.MayWrite.Universal);
  EXPECT_TRUE(E.MustWrite.Map.empty());
  std::string Why;
  Effects Other;
  Other.read(Arr, at(7));
  EXPECT_FALSE(provablyDisjoint(E.MayWrite, Other.MayRead, &Why));
  EXPECT_FALSE(provablyCovers(E.MustWrite, Other.MayRead, &Why));
}

TEST_F(EffectsTest, DisjointnessUsesIntervalsOnArraysOnly) {
  Effects A, B;
  A.write(Arr, at(1), true);
  B.read(Arr, at(2));
  std::string Why;
  EXPECT_TRUE(provablyDisjoint(A.MayWrite, B.MayRead, &Why))
      << "distinct array slots are disjoint";
  Effects C, D;
  C.write(Cell, at(0), true);
  D.read(Cell, at(0));
  EXPECT_FALSE(provablyDisjoint(C.MayWrite, D.MayRead, &Why));
  EXPECT_NE(Why.find("cell"), std::string::npos);
}

TEST_F(EffectsTest, SubstituteShiftsSymbolicIntervals) {
  Effects E;
  E.write(Arr, atVar(), true);
  SymExpr Next = *SymExpr::add(SymExpr::variable(&I), SymExpr::constant(1));
  Effects Shifted = E.substitute(&I, Next);
  std::string Why;
  EXPECT_TRUE(provablyDisjoint(E.MayWrite, Shifted.MayWrite, &Why))
      << "arr[i] vs arr[i+1]";
  EXPECT_TRUE(Shifted.MustWrite.covers(Arr, SymInterval::point(Next)));
}

TEST_F(EffectsTest, MustSetCoverageIsPerInterval) {
  MustSet M;
  M.add(Arr, SymInterval::of(SymExpr::constant(0), SymExpr::constant(3)));
  M.add(Arr, SymInterval::of(SymExpr::constant(10), SymExpr::constant(12)));
  EXPECT_TRUE(M.covers(Arr, at(2)));
  EXPECT_TRUE(M.covers(Arr, at(11)));
  EXPECT_FALSE(M.covers(Arr, at(5)));
  EXPECT_FALSE(M.covers(Arr, SymInterval::of(SymExpr::constant(2),
                                             SymExpr::constant(11))))
      << "coverage is per-interval, not across the union";
}

TEST_F(EffectsTest, AccessSetHullsPerNode) {
  AccessSet S;
  S.add(Arr, at(1));
  S.add(Arr, at(5));
  ASSERT_EQ(S.Map.size(), 1u);
  EXPECT_TRUE(SymInterval::mustContain(S.Map.begin()->second, at(3)))
      << "per-node accesses keep a convex hull";
}

TEST_F(EffectsTest, SymExprOverflowGivesUpAndWidensToFull) {
  // The bounds the checker derives for `9223372036854775807 + 1` and
  // `(0 - 9223372036854775807 - 1) * 3`. The language wraps on overflow,
  // so a result that leaves int64 has no sound bound: SymExpr gives up
  // and the interval becomes full, never a wrapped constant or an
  // infinity on one side.
  const int64_t Max = std::numeric_limits<int64_t>::max();
  const int64_t Min = std::numeric_limits<int64_t>::min();
  auto K = [](int64_t V) { return SymExpr::constant(V); };
  EXPECT_FALSE(SymExpr::add(K(Max), K(1)));
  EXPECT_FALSE(SymExpr::mul(K(3), K(Min)));
  EXPECT_FALSE(SymExpr::sub(K(Min), K(1)));
  // Subtracting INT64_MIN is exact while the result still fits.
  std::optional<SymExpr> D = SymExpr::sub(K(-1), K(Min));
  ASSERT_TRUE(D && D->isConstant());
  EXPECT_EQ(D->constantValue(), Max);
  // Coefficients give up like constants.
  std::optional<SymExpr> Big = SymExpr::mul(K(Max), SymExpr::variable(&I));
  ASSERT_TRUE(Big);
  EXPECT_FALSE(SymExpr::add(*Big, SymExpr::variable(&I)));
  EXPECT_FALSE(K(Max).differenceFrom(K(-1)));

  EXPECT_EQ(at(Max) + at(1), SymInterval::full());
  EXPECT_EQ(at(Min) - at(1), SymInterval::full());
  EXPECT_EQ(SymInterval::mul(at(3), at(Min)), SymInterval::full());
  EXPECT_EQ(SymInterval::mul(SymInterval::of(K(0), K(Max)), at(2)),
            SymInterval::full());

  // a[(MAX + 1) - MAX] is a[1] at run time: it must conflict with a[1].
  AccessSet Wrapped, One;
  Wrapped.add(Arr, (at(Max) + at(1)) - at(Max));
  One.add(Arr, at(1));
  EXPECT_FALSE(provablyDisjoint(Wrapped, One, nullptr));

  // Shifting a[i + MAX] to iteration i+1 overflows: the may-write covers
  // the whole array and the must-write is dropped.
  Effects E;
  SymExpr IPlusMax = *SymExpr::add(SymExpr::variable(&I), K(Max));
  E.write(Arr, SymInterval::point(IPlusMax), /*Certain=*/true);
  ASSERT_FALSE(E.MustWrite.Map.empty());
  Effects Shifted =
      E.substitute(&I, *SymExpr::add(SymExpr::variable(&I), K(1)));
  EXPECT_EQ(Shifted.MayWrite.Map.at(Arr), SymInterval::full());
  EXPECT_TRUE(Shifted.MustWrite.Map.empty());
}

} // namespace
