//===- tests/analysis_test.cpp - Rollback-freedom checker tests ------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/RollbackChecker.h"
#include "analysis/SymExpr.h"
#include "interp/NonSpecEval.h"
#include "interp/SpecMachine.h"
#include "lang/Parser.h"
#include "trace/Equivalence.h"

#include <gtest/gtest.h>

using namespace specpar;
using namespace specpar::analysis;
using namespace specpar::lang;

namespace {

//===----------------------------------------------------------------------===//
// Symbolic expressions and intervals
//===----------------------------------------------------------------------===//

TEST(SymExpr, LinearAlgebra) {
  Binding I{"i", 0};
  SymExpr V = SymExpr::variable(&I);
  SymExpr E = *SymExpr::add(V, SymExpr::constant(3));
  EXPECT_EQ(E.str(), "i + 3");
  EXPECT_EQ(SymExpr::sub(E, V)->str(), "3");
  std::optional<SymExpr> M = SymExpr::mul(SymExpr::constant(2), E);
  ASSERT_TRUE(M);
  EXPECT_EQ(M->str(), "2*i + 6");
  EXPECT_FALSE(SymExpr::mul(V, V));
  std::optional<int64_t> D =
      SymExpr::add(V, SymExpr::constant(5))->differenceFrom(V);
  ASSERT_TRUE(D);
  EXPECT_EQ(*D, 5);
  Binding J{"j", 1};
  EXPECT_FALSE(V.differenceFrom(SymExpr::variable(&J)));
}

TEST(SymExpr, Substitution) {
  Binding I{"i", 0};
  SymExpr E = *SymExpr::add(SymExpr::variable(&I), SymExpr::constant(1));
  std::optional<SymExpr> S = E.substitute(&I, E);
  ASSERT_TRUE(S);
  EXPECT_EQ(S->str(), "i + 2");
  EXPECT_EQ(E.substitute(&I, SymExpr::constant(10))->str(), "11");
}

TEST(SymInterval, SymbolicDisjointness) {
  Binding I{"i", 0};
  SymExpr V = SymExpr::variable(&I);
  SymInterval At = SymInterval::point(V);
  SymInterval Next =
      SymInterval::point(*SymExpr::add(V, SymExpr::constant(1)));
  EXPECT_FALSE(SymInterval::mayOverlap(At, Next))
      << "[i,i] and [i+1,i+1] are provably disjoint";
  EXPECT_TRUE(SymInterval::mayOverlap(At, At));
  Binding J{"j", 1};
  SymInterval Other = SymInterval::point(SymExpr::variable(&J));
  EXPECT_TRUE(SymInterval::mayOverlap(At, Other))
      << "incomparable bounds must be conservative";
  EXPECT_TRUE(SymInterval::mustContain(SymInterval::full(), At));
  EXPECT_TRUE(SymInterval::mustContain(At, At));
  EXPECT_FALSE(SymInterval::mustContain(At, Next));
}

TEST(SymInterval, JoinWidensIncomparable) {
  Binding I{"i", 0}, J{"j", 1};
  SymInterval A = SymInterval::point(SymExpr::variable(&I));
  SymInterval B = SymInterval::point(SymExpr::variable(&J));
  SymInterval Joined = SymInterval::join(A, B);
  EXPECT_TRUE(Joined.lo().isNegInf());
  EXPECT_TRUE(Joined.hi().isPosInf());
  SymInterval C = SymInterval::point(
      *SymExpr::add(SymExpr::variable(&I), SymExpr::constant(2)));
  EXPECT_EQ(SymInterval::join(A, C).str(), "[i, i + 2]");
}

//===----------------------------------------------------------------------===//
// Checker verdicts
//===----------------------------------------------------------------------===//

AnalysisReport analyze(std::string_view Src) {
  auto R = parseProgram(Src);
  EXPECT_TRUE(bool(R)) << R.error() << "\nsource: " << Src;
  return checkRollbackFreedom(**R);
}

void expectSafe(std::string_view Src) {
  AnalysisReport R = analyze(Src);
  EXPECT_TRUE(R.programSafe()) << R.str() << "\nsource: " << Src;
}

void expectUnsafe(std::string_view Src, const char *Condition) {
  AnalysisReport R = analyze(Src);
  EXPECT_FALSE(R.programSafe()) << "source: " << Src;
  bool Found = false;
  for (const SiteReport &S : R.Sites)
    if (!S.Safe && S.FailedCondition == Condition)
      Found = true;
  EXPECT_TRUE(Found) << "expected a " << Condition << " violation;\n"
                     << R.str();
}

TEST(Checker, PureSpeculationIsSafe) {
  expectSafe("main = spec(40 + 2, 42, \\x. x * 2)");
  expectSafe("main = specfold(\\i a. a + i, \\i. 0, 1, 10)");
}

TEST(Checker, SlotWriteIdiomIsSafe) {
  // The paper's central positive example: iteration i writes only its own
  // slot; the re-execution certainly overwrites the speculative write.
  expectSafe("main = let arr = newarr(10, 0) in "
             "specfold(\\i a. (arr[i] := a + i; a + i), \\i. i, 0, 9)");
}

TEST(Checker, ReadOnlySharedInputIsSafe) {
  // Iterations read a shared input array and write disjoint output slots
  // (the MWIS forward pass shape).
  expectSafe("main = let w = newarr(100, 7) in "
             "let d = newarr(100, 0) in "
             "specfold(\\i a. (d[i] := w[i] - a; d[i]), \\i. 0, 0, 99)");
}

TEST(Checker, IterationLocalAllocationIsSafe) {
  // News inside the body are internal; scribbling on them is invisible.
  expectSafe("main = specfold(\\i a. (let t = new(a) in t := !t + i; !t), "
             "\\i. 0, 1, 8)");
}

TEST(Checker, ProducerConsumerDisjointStateIsSafe) {
  expectSafe("main = let out = newarr(4, 0) in "
             "let p = new(0) in "
             "spec((p := 5; !p), 5, \\x. out[1] := x * 2)");
}

TEST(Checker, SharedCounterViolatesA) {
  // c := !c + 1 in the loop body: iteration i writes the cell iteration
  // i+1 reads — the race conditions fire before (d) is even reached.
  expectUnsafe("main = let c = new(0) in "
               "specfold(\\i a. (c := !c + 1; a), \\i. 0, 1, 4)",
               "(a)");
}

TEST(Checker, PerSlotReadModifyWriteViolatesD) {
  // arr[i] := arr[i] + 1: iterations touch disjoint slots, so (a)-(c)
  // hold, but the re-execution of iteration i reads the slot its own
  // speculative run already incremented.
  expectUnsafe("main = let arr = newarr(10, 5) in "
               "specfold(\\i a. (arr[i] := arr[i] + 1; a), \\i. 0, 0, 9)",
               "(d)");
}

TEST(Checker, ProducerWritesConsumerReadsViolatesA) {
  expectUnsafe("main = let c = new(5) in spec((c := 9; 1), 1, \\x. !c + x)",
               "(a)");
}

TEST(Checker, ProducerReadsConsumerWritesViolatesB) {
  expectUnsafe("main = let c = new(5) in spec(!c, 5, \\x. c := x + 1)",
               "(b)");
}

TEST(Checker, BothWriteViolatesC) {
  // Writes to distinct locations reads nothing — make producer write-only
  // and consumer write-only on the same cell.
  expectUnsafe("main = let c = new(0) in "
               "spec((c := 1; 7), 7, \\x. (c := 2; ()))",
               "(c)");
}

TEST(Checker, ConditionalWriteViolatesE) {
  // The speculative consumer may write arr[i], but the re-execution is
  // not certain to overwrite it (a different accumulator may flip the
  // branch).
  expectUnsafe("main = let arr = newarr(10, 0) in "
               "specfold(\\i a. (if a > 0 then arr[i] := a else (); a + 1), "
               "\\i. 0 - 5, 0, 9)",
               "(e)");
}

TEST(Checker, NeighbourSlotWriteViolatesC) {
  // Iteration i writes arr[i] and arr[i+1]: adjacent iterations' write
  // sets overlap.
  expectUnsafe("main = let arr = newarr(20, 0) in "
               "specfold(\\i a. (arr[i] := a; arr[i + 1] := a; a), "
               "\\i. 0, 0, 18)",
               "(c)");
}

TEST(Checker, StridedWritesAreSafe) {
  // arr[2*i] never collides with arr[2*(i+1)] — linear-coefficient
  // disjointness.
  expectSafe("main = let arr = newarr(40, 0) in "
             "specfold(\\i a. (arr[2 * i] := a; a + 1), \\i. i, 0, 19)");
}

TEST(Checker, UnknownIndexViolates) {
  // Index depends on the accumulator (unknown): may collide across
  // iterations.
  AnalysisReport R = analyze(
      "main = let arr = newarr(10, 0) in "
      "specfold(\\i a. (arr[a % 10] := i; a + 1), \\i. i, 0, 9)");
  EXPECT_FALSE(R.programSafe());
}

TEST(Checker, InterproceduralSlotWriteIsSafe) {
  // The paper's SequentialLex shape: the body delegates to a function
  // that performs the slot write.
  expectSafe("fun store(arr, i, v) = arr[i] := v\n"
             "fun body(arr, i, a) = (store(arr, i, a + i); a + i)\n"
             "main = let out = newarr(16, 0) in "
             "specfold(\\i a. body(out, i, a), \\i. i, 0, 15)");
}

TEST(Checker, InterproceduralSharedCounterViolates) {
  AnalysisReport R =
      analyze("fun bump(c) = c := !c + 1\n"
              "main = let c = new(0) in "
              "specfold(\\i a. (bump(c); a), \\i. 0, 1, 4)");
  EXPECT_FALSE(R.programSafe()) << R.str();
}

TEST(Checker, GuessWithSideEffectsViolates) {
  // The predictor writes shared state: W(ec eg) includes it.
  expectUnsafe("main = let c = new(0) in "
               "spec(!c + 1, (c := 3; 3), \\x. x)",
               "(b)");
}

TEST(Checker, HeapGraphDotRendersNodesAndEdges) {
  AnalysisReport R = analyze(
      "main = let inner = new(5) in let outer = new(0) in "
      "outer := 1; let arr = newarr(3, 7) in len(arr)");
  EXPECT_NE(R.HeapGraphDot.find("digraph abstract_heap"), std::string::npos);
  EXPECT_NE(R.HeapGraphDot.find("cell@"), std::string::npos);
  EXPECT_NE(R.HeapGraphDot.find("arr@"), std::string::npos);
  EXPECT_NE(R.HeapGraphDot.find("}"), std::string::npos);
}

TEST(Checker, SummaryNodesRenderWithDoubleBorder) {
  // A cell allocated inside a loop becomes a summary node (peripheries=2
  // in the paper-Figure-5-style rendering).
  AnalysisReport R = analyze(
      "main = fold(\\i a. !new(i) + a, 0, 1, 5)");
  EXPECT_NE(R.HeapGraphDot.find("peripheries=2"), std::string::npos)
      << R.HeapGraphDot;
}

TEST(Checker, NonSpecProgramIsTriviallySafe) {
  AnalysisReport R = analyze("main = fold(\\i a. a + i, 0, 1, 10)");
  EXPECT_TRUE(R.programSafe());
  EXPECT_TRUE(R.Sites.empty());
}

TEST(Checker, UnreachableSiteIsVacuouslySafe) {
  AnalysisReport R = analyze("main = if 1 then 5 else "
                             "spec((new(0) := 1; 1), 1, \\x. x)");
  EXPECT_TRUE(R.programSafe()) << R.str();
  ASSERT_EQ(R.Sites.size(), 1u);
  EXPECT_EQ(R.Sites[0].Explanation, "unreachable");
}

TEST(Checker, SequentialPhasesBothChecked) {
  // Two specfolds in sequence (the MWIS two-phase shape): both sites get
  // verdicts, and a bad second phase is caught.
  AnalysisReport R = analyze(
      "main = let d = newarr(50, 0) in "
      "let t = newarr(50, 0) in "
      "specfold(\\i a. (d[i] := a + i; d[i]), \\i. 0, 0, 49); "
      "let c = new(0) in "
      "specfold(\\i a. (c := !c + d[i]; a), \\i. 0, 0, 49); !c");
  ASSERT_EQ(R.Sites.size(), 2u);
  EXPECT_FALSE(R.programSafe());
  int SafeCount = 0;
  for (const SiteReport &S : R.Sites)
    SafeCount += S.Safe ? 1 : 0;
  EXPECT_EQ(SafeCount, 1);
}

TEST(Checker, BudgetExhaustionIsConservative) {
  CheckerOptions Opts;
  Opts.MaxAbstractSteps = 10;
  auto R = parseProgram("main = let a = newarr(4, 0) in "
                        "specfold(\\i x. (a[i] := x; x), \\i. 0, 0, 3)");
  ASSERT_TRUE(bool(R));
  AnalysisReport Rep = checkRollbackFreedom(**R, Opts);
  EXPECT_TRUE(Rep.BudgetExceeded);
  EXPECT_FALSE(Rep.programSafe());
}

//===----------------------------------------------------------------------===//
// Theorem 1, empirically: checker-approved programs are equivalent under
// every explored schedule; checker rejection correlates with observable
// divergence for the unsafe examples above.
//===----------------------------------------------------------------------===//

class CheckedPrograms : public ::testing::TestWithParam<const char *> {};

TEST_P(CheckedPrograms, SafeVerdictImpliesObservedEquivalence) {
  auto PR = parseProgram(GetParam());
  ASSERT_TRUE(bool(PR)) << PR.error();
  const Program &P = **PR;
  AnalysisReport Rep = checkRollbackFreedom(P);
  ASSERT_TRUE(Rep.programSafe()) << Rep.str();
  interp::RunOutcome N = interp::runNonSpeculative(P);
  ASSERT_TRUE(N.ok());
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    interp::MachineOptions MO;
    MO.Seed = Seed;
    MO.EagerProducerAbort = Seed % 3 == 0; // the Section 3.3 fix preserves
                                           // the theorem too
    interp::SpecRunOutcome S = interp::runSpeculative(P, MO);
    ASSERT_TRUE(S.ok()) << S.statusStr();
    EXPECT_TRUE(tr::checkFinalStateEquivalent(N.Final, S.Final).ok())
        << "seed " << Seed;
    EXPECT_NE(tr::checkDependenceEquivalent(N.Trace, S.Trace).Status,
              tr::EquivStatus::NotEquivalent)
        << "seed " << Seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Programs, CheckedPrograms,
    ::testing::Values(
        "main = spec(6 * 7, 42, \\x. x - 2)",
        "main = let arr = newarr(8, 0) in "
        "specfold(\\i a. (arr[i] := a + i; a + i), \\i. i, 0, 7)",
        "fun store(arr, i, v) = arr[i] := v\n"
        "main = let out = newarr(6, 0) in "
        "specfold(\\i a. (store(out, i, a * 2); a + 1), \\i. i, 0, 5)",
        "main = let w = newarr(12, 3) in let d = newarr(12, 0) in "
        "specfold(\\i a. (d[i] := w[i] - a; d[i]), \\i. 0, 0, 11)"));

} // namespace
