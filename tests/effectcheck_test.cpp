//===- tests/effectcheck_test.cpp - Declared-summary checker tests ---------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Summaries.h"

#include <gtest/gtest.h>

#include <limits>

using namespace specpar;
using namespace specpar::analysis;

namespace {

//===----------------------------------------------------------------------===//
// Apply-site checks
//===----------------------------------------------------------------------===//

TEST(ApplySummaries, DisjointStateIsSafe) {
  SummaryRegions R;
  AbsNode *In = R.array("input"), *Out = R.scalar("output");
  Effects Producer, Predictor, Consumer; // a pure predictor
  Producer.read(In, SymInterval::full());
  Consumer.write(Out, SummaryRegions::cell(), /*Certain=*/true);
  ConditionVerdict V = checkApplySummaries(Producer, Predictor, Consumer);
  EXPECT_TRUE(V.safe()) << V.Explanation;
}

TEST(ApplySummaries, ProducerWritesConsumerReadsViolatesA) {
  SummaryRegions R;
  AbsNode *C = R.scalar("cell");
  Effects Producer, Consumer;
  Producer.write(C, SummaryRegions::cell(), /*Certain=*/false);
  Consumer.read(C, SummaryRegions::cell());
  ConditionVerdict V = checkApplySummaries(Producer, Effects(), Consumer);
  EXPECT_FALSE(V.safe());
  EXPECT_EQ(V.FailedCondition, "(a)");
  EXPECT_NE(V.Explanation.find("cell"), std::string::npos);
}

TEST(ApplySummaries, DistinctScalarsAreDisjoint) {
  // Two scalar regions never overlap; one overlaps itself.
  SummaryRegions R;
  AbsNode *A = R.scalar("a"), *B = R.scalar("b");
  Effects Producer, Consumer;
  Producer.write(A, SummaryRegions::cell(), /*Certain=*/true);
  Consumer.read(B, SummaryRegions::cell());
  ConditionVerdict V = checkApplySummaries(Producer, Effects(), Consumer);
  EXPECT_TRUE(V.safe()) << V.Explanation;
  Consumer.read(A, SummaryRegions::cell());
  V = checkApplySummaries(Producer, Effects(), Consumer);
  EXPECT_EQ(V.FailedCondition, "(a)") << V.Explanation;
  EXPECT_NE(V.Explanation.find("a overlaps a"), std::string::npos)
      << V.Explanation;
}

TEST(ApplySummaries, PredictorWritesViolate) {
  SummaryRegions R;
  AbsNode *C = R.scalar("cache");
  Effects Producer, Predictor;
  Producer.read(C, SummaryRegions::cell());
  Predictor.write(C, SummaryRegions::cell(), /*Certain=*/false);
  ConditionVerdict V = checkApplySummaries(Producer, Predictor, Effects());
  EXPECT_FALSE(V.safe());
  EXPECT_EQ(V.FailedCondition, "(b)");
}

TEST(ApplySummaries, UncoveredSpeculativeWriteViolatesE) {
  SummaryRegions R;
  AbsNode *Out = R.scalar("out");
  Effects Consumer;
  // Not certain: a conditional write.
  Consumer.write(Out, SummaryRegions::cell(), /*Certain=*/false);
  ConditionVerdict V = checkApplySummaries(Effects(), Effects(), Consumer);
  EXPECT_FALSE(V.safe());
  EXPECT_EQ(V.FailedCondition, "(e)");
}

//===----------------------------------------------------------------------===//
// Iterate-site checks
//===----------------------------------------------------------------------===//

TEST(IterateSummaries, LexerShapeIsSafe) {
  // Segment i reads input[Ki-Overlap .. Ki+K-1] (backtracking may re-read
  // before the segment) and writes tokens[Ki .. Ki+K-1] unconditionally.
  constexpr int64_t K = 4096, Overlap = 64;
  IterateSummary S;
  AbsNode *In = S.Regions.array("input"), *Toks = S.Regions.array("tokens");
  S.Body.read(In, S.Regions.range(K, -Overlap, K, K - 1));
  S.Body.write(Toks, S.Regions.range(K, 0, K, K - 1), /*Certain=*/true);
  S.Predictor.read(In, S.Regions.range(K, -Overlap, K, -1));
  ConditionVerdict V = checkIterateSummaries(S);
  EXPECT_TRUE(V.safe()) << V.Explanation;
}

TEST(IterateSummaries, MwisForwardShapeIsSafe) {
  constexpr int64_t K = 1024;
  IterateSummary S;
  AbsNode *W = S.Regions.array("weights"), *D = S.Regions.array("d");
  S.Body.read(W, S.Regions.range(K, 0, K, K - 1));
  S.Body.write(D, S.Regions.range(K, 0, K, K - 1), /*Certain=*/true);
  S.Predictor.read(W, S.Regions.range(K, -32, K, -1));
  ConditionVerdict V = checkIterateSummaries(S);
  EXPECT_TRUE(V.safe()) << V.Explanation;
}

TEST(IterateSummaries, SharedAccumulatorViolates) {
  IterateSummary S;
  AbsNode *Acc = S.Regions.scalar("total");
  S.Body.read(Acc, SummaryRegions::cell());
  S.Body.write(Acc, SummaryRegions::cell(), /*Certain=*/true);
  ConditionVerdict V = checkIterateSummaries(S);
  EXPECT_FALSE(V.safe());
  EXPECT_EQ(V.FailedCondition, "(a)");
}

TEST(IterateSummaries, NeighbourWriteViolatesC) {
  IterateSummary S;
  AbsNode *Out = S.Regions.array("out");
  // Writes out[i] and out[i+1].
  S.Body.write(Out, S.Regions.range(1, 0, 1, 1), /*Certain=*/true);
  ConditionVerdict V = checkIterateSummaries(S);
  EXPECT_FALSE(V.safe());
  EXPECT_EQ(V.FailedCondition, "(c)");
  EXPECT_NE(V.Explanation.find("out[i, i + 1] overlaps out[i + 1, i + 2]"),
            std::string::npos)
      << V.Explanation;
}

TEST(IterateSummaries, ConditionalSlotWriteViolatesE) {
  IterateSummary S;
  AbsNode *Out = S.Regions.array("out");
  // Not certain: the write is conditional on the (possibly wrong)
  // accumulator.
  S.Body.write(Out, S.Regions.slot(1, 0), /*Certain=*/false);
  ConditionVerdict V = checkIterateSummaries(S);
  EXPECT_FALSE(V.safe());
  EXPECT_EQ(V.FailedCondition, "(e)");
}

TEST(IterateSummaries, ReadModifyWriteOfOwnSlotViolatesD) {
  IterateSummary S;
  AbsNode *A = S.Regions.array("a");
  S.Body.read(A, S.Regions.slot(1, 0));
  S.Body.write(A, S.Regions.slot(1, 0), /*Certain=*/true);
  ConditionVerdict V = checkIterateSummaries(S);
  EXPECT_FALSE(V.safe());
  EXPECT_EQ(V.FailedCondition, "(d)");
}

TEST(IterateSummaries, StridedWritesSafe) {
  IterateSummary S;
  AbsNode *Out = S.Regions.array("out");
  S.Body.write(Out, S.Regions.slot(2, 0), /*Certain=*/true); // out[2i]
  ConditionVerdict V = checkIterateSummaries(S);
  EXPECT_TRUE(V.safe()) << V.Explanation;
}

TEST(IterateSummaries, SegmentWritesSafeButOneSlotBleedViolatesC) {
  // out[32i .. 32i+31] is disjoint from the next iteration's segment; a
  // one-slot bleed into the neighbour overlaps it.
  IterateSummary S;
  AbsNode *Out = S.Regions.array("out");
  S.Body.write(Out, S.Regions.range(32, 0, 32, 31), /*Certain=*/true);
  EXPECT_TRUE(checkIterateSummaries(S).safe());

  IterateSummary Bleed;
  AbsNode *BOut = Bleed.Regions.array("out");
  Bleed.Body.write(BOut, Bleed.Regions.range(32, 0, 32, 32), true);
  EXPECT_EQ(checkIterateSummaries(Bleed).FailedCondition, "(c)");
}

TEST(IterateSummaries, IncomparableStridesAreConservative) {
  // a[2i] and a[3i+4] (the read at i+1) have different coefficients, so
  // their disjointness is not decidable: the check must assume overlap.
  IterateSummary S;
  AbsNode *A = S.Regions.array("a");
  S.Body.read(A, S.Regions.slot(3, 1));
  S.Body.write(A, S.Regions.slot(2, 0), /*Certain=*/true);
  ConditionVerdict V = checkIterateSummaries(S);
  EXPECT_EQ(V.FailedCondition, "(a)") << V.Explanation;
}

TEST(IterateSummaries, MustWritesMustContainEverySpeculativeWrite) {
  // Maybe-writes inside a certainly-written segment are covered...
  IterateSummary Inner;
  AbsNode *A = Inner.Regions.array("a");
  Inner.Body.write(A, Inner.Regions.range(8, 2, 8, 5), /*Certain=*/false);
  Inner.Body.write(A, Inner.Regions.range(8, 0, 8, 7), /*Certain=*/true);
  EXPECT_TRUE(checkIterateSummaries(Inner).safe());

  // ...but a certain sub-range does not cover the whole segment...
  IterateSummary Outer;
  AbsNode *B = Outer.Regions.array("a");
  Outer.Body.write(B, Outer.Regions.range(8, 0, 8, 7), /*Certain=*/false);
  Outer.Body.write(B, Outer.Regions.range(8, 2, 8, 5), /*Certain=*/true);
  EXPECT_EQ(checkIterateSummaries(Outer).FailedCondition, "(e)");

  // ...and containment across different coefficients is not provable:
  // the hull of a[i] and a[8i .. 8i+7] widens, and no must-write covers
  // the widened write.
  SummaryRegions R;
  AbsNode *C = R.array("a");
  Effects Consumer;
  Consumer.write(C, R.slot(1, 0), /*Certain=*/false);
  Consumer.write(C, R.range(8, 0, 8, 7), /*Certain=*/true);
  EXPECT_EQ(checkApplySummaries(Effects(), Effects(), Consumer)
                .FailedCondition,
            "(e)");
}

TEST(IterateSummaries, OverflowingBoundIsConservative) {
  // out[2i + (INT64_MAX - 1)] at i+1 leaves int64. The shifted bound
  // widens to the whole region and the must-write is dropped, so the
  // verdict is conservative, and no arithmetic wraps (the ASan+UBSan
  // smoke runs this test).
  IterateSummary S;
  AbsNode *Out = S.Regions.array("out");
  const int64_t Max = std::numeric_limits<int64_t>::max();
  S.Body.write(Out, S.Regions.slot(2, Max - 1), /*Certain=*/true);
  ConditionVerdict V = checkIterateSummaries(S);
  EXPECT_FALSE(V.safe());
  EXPECT_EQ(V.FailedCondition, "(c)") << V.Explanation;
}

} // namespace
