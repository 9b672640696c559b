//===- tests/apps_test.cpp - End-to-end application tests ------------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Integration tests: the three paper benchmarks run end-to-end through
/// the speculation runtime (generate dataset -> speculative run ->
/// compare against the sequential baseline), across task counts, overlap
/// sizes (including adversarially tiny ones) and validation modes.
///
//===----------------------------------------------------------------------===//

#include "analysis/Summaries.h"
#include "apps/SpeculativeHuffman.h"
#include "apps/SpeculativeLexing.h"
#include "apps/SpeculativeMwis.h"
#include "runtime/FaultPlan.h"
#include "runtime/Telemetry.h"
#include "workloads/Datasets.h"
#include "workloads/SourceGen.h"

#include <gtest/gtest.h>

#include <sys/mman.h>

#include <memory>
#include <stdexcept>
#include <string>

using namespace specpar;
using namespace specpar::apps;
using namespace specpar::lexgen;
using namespace specpar::huffman;
using namespace specpar::workloads;

namespace {

struct AppCase {
  int NumTasks;
  int64_t Overlap;
  rt::ValidationMode Mode;
};

class AppSweep : public ::testing::TestWithParam<AppCase> {};

TEST_P(AppSweep, SpeculativeLexingMatchesSequential) {
  const AppCase &C = GetParam();
  for (Language L : AllLanguages) {
    Lexer LX = makeLexer(L);
    std::string Text = generateSource(L, 11, 20000);
    std::vector<Token> Seq = sequentialLex(LX, Text);
    rt::SpecExecutor Ex(3);
    rt::SpecConfig Cfg = rt::SpecConfig().mode(C.Mode).executor(Ex);
    LexRun Run = speculativeLex(LX, Text, C.NumTasks, C.Overlap, Cfg);
    EXPECT_EQ(Run.Tokens, Seq)
        << languageName(L) << " tasks=" << C.NumTasks
        << " overlap=" << C.Overlap;
    EXPECT_EQ(Run.Stats.Spec.Predictions, C.NumTasks - 1);
  }
}

TEST_P(AppSweep, SpeculativeHuffmanMatchesSequential) {
  const AppCase &C = GetParam();
  for (HuffmanFlavour F : AllHuffmanFlavours) {
    std::vector<uint8_t> Data = generateHuffmanData(F, 23, 40000);
    Encoded E = encode(Data);
    Decoder D(E.Code);
    BitReader In(E.Bytes, E.NumBits);
    rt::SpecExecutor Ex(3);
    rt::SpecConfig Cfg = rt::SpecConfig().mode(C.Mode).executor(Ex);
    HuffmanRun Run =
        speculativeDecode(D, In, C.NumTasks, C.Overlap * 8, Cfg);
    EXPECT_EQ(Run.Decoded, Data)
        << huffmanFlavourName(F) << " tasks=" << C.NumTasks
        << " overlap=" << C.Overlap;
  }
}

TEST_P(AppSweep, SpeculativeMwisMatchesSequential) {
  const AppCase &C = GetParam();
  for (int64_t MaxW : {int64_t(50), int64_t(5000)}) {
    std::vector<int64_t> W = generatePathGraph(31, 50000, MaxW);
    std::vector<int32_t> SeqMembers;
    int64_t SeqWeight = mwis::solveSequential(W, &SeqMembers);
    rt::SpecExecutor Ex(3);
    rt::SpecConfig Cfg = rt::SpecConfig().mode(C.Mode).executor(Ex);
    MwisRun Run = speculativeMwis(W, C.NumTasks, C.Overlap, Cfg);
    EXPECT_EQ(Run.Weight, SeqWeight) << "maxW=" << MaxW;
    EXPECT_EQ(Run.Members, SeqMembers) << "maxW=" << MaxW;
    EXPECT_EQ(Run.Members.capacity(), Run.Members.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AppSweep,
    ::testing::Values(AppCase{1, 64, rt::ValidationMode::Seq},
                      AppCase{4, 256, rt::ValidationMode::Seq},
                      AppCase{4, 0, rt::ValidationMode::Seq},
                      AppCase{4, 256, rt::ValidationMode::Par},
                      AppCase{4, 0, rt::ValidationMode::Par},
                      AppCase{16, 64, rt::ValidationMode::Seq},
                      AppCase{16, 2, rt::ValidationMode::Par}));

//===----------------------------------------------------------------------===//
// The moved-buffer finalize path: each finalizer moves its chunk's buffer
// aside, and one exact-size concatenation after the run builds the output
//===----------------------------------------------------------------------===//

/// A task count and whether the overlap predicts the chunk boundaries
/// (an accurate window) or mispredicts them (a zero window), so that the
/// validator re-executes chunks and publishes its own buffers.
struct FinalizeCase {
  int NumTasks;
  bool Accurate;
};

std::string finalizeCaseName(const ::testing::TestParamInfo<FinalizeCase> &I) {
  return "Tasks" + std::to_string(I.param.NumTasks) +
         (I.param.Accurate ? "Accurate" : "Mispredicting");
}

class FinalizePath : public ::testing::TestWithParam<FinalizeCase> {};

TEST_P(FinalizePath, LexOutputIsTheOracleAllocatedOnce) {
  const FinalizeCase &C = GetParam();
  Lexer LX = makeLexer(Language::C);
  std::string Text = generateSource(Language::C, 5, 30000);
  rt::SpecExecutor Ex(3);
  LexRun Run = speculativeLex(LX, Text, C.NumTasks, C.Accurate ? 2048 : 0,
                              rt::SpecConfig().executor(Ex));
  EXPECT_EQ(Run.Tokens, sequentialLex(LX, Text));
  EXPECT_EQ(Run.Tokens.capacity(), Run.Tokens.size());
  if (C.Accurate) {
    EXPECT_EQ(Run.Stats.Spec.Mispredictions, 0);
  } else if (C.NumTasks > 1) {
    EXPECT_GT(Run.Stats.Spec.Reexecutions, 0);
  }
}

TEST_P(FinalizePath, DecodeOutputIsTheOracleAllocatedOnce) {
  const FinalizeCase &C = GetParam();
  std::vector<uint8_t> Data =
      generateHuffmanData(HuffmanFlavour::Text, 13, 40000);
  Encoded E = encode(Data);
  Decoder D(E.Code);
  BitReader In(E.Bytes, E.NumBits);
  rt::SpecExecutor Ex(3);
  HuffmanRun Run =
      speculativeDecode(D, In, C.NumTasks, C.Accurate ? 512 * 8 : 0,
                        rt::SpecConfig().executor(Ex));
  EXPECT_EQ(Run.Decoded, Data);
  EXPECT_EQ(Run.Decoded.capacity(), Run.Decoded.size());
  if (C.Accurate) {
    EXPECT_EQ(Run.Stats.Spec.Mispredictions, 0);
  } else if (C.NumTasks > 1) {
    EXPECT_GT(Run.Stats.Spec.Reexecutions, 0);
  }
}

/// Checks a run traced under a plan that discards every correct
/// prediction and spuriously cancels attempts: each chunk after the first
/// is re-executed by the validator and none of its attempts is accepted,
/// so the buffer published is the re-execution's; and the finalizers run
/// once per chunk, in chunk order, each after its chunk's re-execution.
void expectReexecutedAndFinalizedInOrder(const rt::Tracer &Tr,
                                         int NumTasks) {
  std::vector<int64_t> Finalized;
  std::vector<bool> Reexecuted(static_cast<size_t>(NumTasks), false);
  for (const rt::SpecEvent &Ev : Tr.snapshot()) {
    const size_t Chunk = static_cast<size_t>(Ev.Index);
    switch (Ev.Kind) {
    case rt::SpecEventKind::Reexecute:
      Reexecuted[Chunk] = true;
      break;
    case rt::SpecEventKind::ValidateAccept:
      EXPECT_EQ(Ev.Index, 0) << "an attempt of a forced chunk was accepted";
      break;
    case rt::SpecEventKind::Finalize:
      EXPECT_TRUE(Ev.Index == 0 || Reexecuted[Chunk])
          << "chunk " << Ev.Index << " finalized before its re-execution";
      Finalized.push_back(Ev.Index);
      break;
    default:
      break;
    }
  }
  std::vector<int64_t> InOrder(static_cast<size_t>(NumTasks));
  for (int I = 0; I < NumTasks; ++I)
    InOrder[static_cast<size_t>(I)] = I;
  EXPECT_EQ(Finalized, InOrder);
}

rt::SpecConfig forcedReexecConfig(rt::SpecExecutor &Ex, rt::FaultPlan &Plan,
                                  rt::Tracer &Tr) {
  Plan.arm(rt::FaultSite::ForceMispredict, 1.0)
      .arm(rt::FaultSite::SpuriousCancel, 0.5);
  return rt::SpecConfig().executor(Ex).faults(&Plan).trace(&Tr);
}

TEST_P(FinalizePath, LexPublishesTheValidatorsReexecution) {
  const int NumTasks = GetParam().NumTasks;
  Lexer LX = makeLexer(Language::Java);
  std::string Text = generateSource(Language::Java, 7, 30000);
  rt::SpecExecutor Ex(3);
  rt::FaultPlan Plan(static_cast<uint64_t>(NumTasks));
  rt::Tracer Tr;
  LexRun Run = speculativeLex(LX, Text, NumTasks, 2048,
                              forcedReexecConfig(Ex, Plan, Tr));
  EXPECT_EQ(Run.Tokens, sequentialLex(LX, Text));
  EXPECT_EQ(Run.Tokens.capacity(), Run.Tokens.size());
  EXPECT_GE(Run.Stats.Spec.Reexecutions, NumTasks - 1);
  expectReexecutedAndFinalizedInOrder(Tr, NumTasks);
}

TEST_P(FinalizePath, DecodePublishesTheValidatorsReexecution) {
  const int NumTasks = GetParam().NumTasks;
  std::vector<uint8_t> Data =
      generateHuffmanData(HuffmanFlavour::Text, 17, 40000);
  Encoded E = encode(Data);
  Decoder D(E.Code);
  BitReader In(E.Bytes, E.NumBits);
  rt::SpecExecutor Ex(3);
  rt::FaultPlan Plan(static_cast<uint64_t>(NumTasks));
  rt::Tracer Tr;
  HuffmanRun Run = speculativeDecode(D, In, NumTasks, 512 * 8,
                                     forcedReexecConfig(Ex, Plan, Tr));
  EXPECT_EQ(Run.Decoded, Data);
  EXPECT_EQ(Run.Decoded.capacity(), Run.Decoded.size());
  EXPECT_GE(Run.Stats.Spec.Reexecutions, NumTasks - 1);
  expectReexecutedAndFinalizedInOrder(Tr, NumTasks);
}

INSTANTIATE_TEST_SUITE_P(
    Tasks, FinalizePath,
    ::testing::Values(FinalizeCase{1, true}, FinalizeCase{1, false},
                      FinalizeCase{2, true}, FinalizeCase{2, false},
                      FinalizeCase{3, true}, FinalizeCase{3, false},
                      FinalizeCase{4, true}, FinalizeCase{4, false},
                      FinalizeCase{7, true}, FinalizeCase{7, false},
                      FinalizeCase{16, true}, FinalizeCase{16, false}),
    finalizeCaseName);

/// Token offsets are 32-bit: a text one byte past their reach is refused
/// before any byte of it is read. The text is an untouched PROT_READ,
/// MAP_NORESERVE anonymous mapping, so it costs address space only.
TEST(AppsLexing, TextBeyond32BitOffsetsIsRefusedBeforeLexing) {
  const size_t Bytes = static_cast<size_t>(kMaxLexBytes) + 1;
  void *Map = mmap(nullptr, Bytes, PROT_READ,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ASSERT_NE(Map, MAP_FAILED) << "cannot reserve " << Bytes << " bytes";
  auto Unmap = [Bytes](void *P) { munmap(P, Bytes); };
  std::unique_ptr<void, decltype(Unmap)> Hold(Map, Unmap);
  std::string_view Text(static_cast<const char *>(Map), Bytes);
  Lexer LX = makeLexer(Language::C);
  EXPECT_THROW(LX.lexAll(Text), std::length_error);
  EXPECT_THROW(speculativeLex(LX, Text, 4, 64), std::length_error);
}

TEST(AppsLexing, ZeroOverlapMispredictsButStaysCorrect) {
  Lexer LX = makeLexer(Language::C);
  std::string Text = generateSource(Language::C, 3, 30000);
  LexRun Run = speculativeLex(LX, Text, 8, /*Overlap=*/0);
  EXPECT_EQ(Run.Tokens, sequentialLex(LX, Text));
  EXPECT_GT(Run.Stats.Spec.Mispredictions, 0)
      << "zero overlap cannot predict mid-token states";
}

TEST(AppsLexing, LargeOverlapEliminatesMispredictions) {
  Lexer LX = makeLexer(Language::Java);
  std::string Text = generateSource(Language::Java, 3, 30000);
  LexRun Run = speculativeLex(LX, Text, 8, /*Overlap=*/2048);
  EXPECT_EQ(Run.Stats.Spec.Mispredictions, 0)
      << "the paper's max-speedup configuration";
}

TEST(AppsLexing, AccuracyIsMonotoneInOverlap) {
  Lexer LX = makeLexer(Language::Latex);
  std::string Text = generateSource(Language::Latex, 9, 60000);
  double A16 = lexPredictionAccuracy(LX, Text, 16);
  double A64 = lexPredictionAccuracy(LX, Text, 64);
  double A256 = lexPredictionAccuracy(LX, Text, 256);
  EXPECT_LE(A16, A64 + 1e-9);
  EXPECT_LE(A64, A256 + 1e-9);
  EXPECT_GE(A256, 90.0);
}

TEST(AppsLexing, HtmlAccuracyStaysLowEvenAtLargeOverlap) {
  // The paper: HTML is the exception that never reaches 100%.
  Lexer LX = makeLexer(Language::Html);
  std::string Text = generateSource(Language::Html, 9, 60000);
  double A256 = lexPredictionAccuracy(LX, Text, 256);
  EXPECT_LT(A256, 90.0) << "long text-run tokens defeat the predictor";
}

TEST(AppsHuffman, LargeOverlapEliminatesMispredictions) {
  std::vector<uint8_t> Data =
      generateHuffmanData(HuffmanFlavour::Text, 5, 60000);
  Encoded E = encode(Data);
  Decoder D(E.Code);
  BitReader In(E.Bytes, E.NumBits);
  HuffmanRun Run = speculativeDecode(D, In, 8, /*OverlapBits=*/512 * 8);
  EXPECT_EQ(Run.Decoded, Data);
  EXPECT_LE(Run.Stats.Spec.Mispredictions, 1)
      << "a 512-byte overlap resynchronizes essentially every boundary";
}

TEST(AppsMwis, SingleTaskIsTheSequentialAlgorithm) {
  std::vector<int64_t> W = generatePathGraph(77, 10000, 50);
  MwisRun Run = speculativeMwis(W, 1, 0);
  std::vector<int32_t> SeqMembers;
  EXPECT_EQ(Run.Weight, mwis::solveSequential(W, &SeqMembers));
  EXPECT_EQ(Run.Members, SeqMembers);
  EXPECT_EQ(Run.ForwardStats.Mispredictions, 0);
}

/// Zero overlap predicts d = 0 and "not taken" at every boundary, so both
/// phases mispredict: rejected chunks' partial sums and member lists must
/// be discarded, and the re-executions must overwrite their sign bytes.
TEST(AppsMwis, BothPhasesMispredictAndStayCorrect) {
  for (int64_t MaxW : {int64_t(50), int64_t(5000)}) {
    std::vector<int64_t> W = generatePathGraph(41, 50000, MaxW);
    std::vector<int32_t> SeqMembers;
    int64_t SeqWeight = mwis::solveSequential(W, &SeqMembers);
    for (rt::ValidationMode Mode :
         {rt::ValidationMode::Seq, rt::ValidationMode::Par}) {
      rt::SpecExecutor Ex(3);
      rt::SpecConfig Cfg = rt::SpecConfig().mode(Mode).executor(Ex);
      MwisRun Run = speculativeMwis(W, 16, /*Overlap=*/0, Cfg);
      EXPECT_GT(Run.ForwardStats.Mispredictions, 0) << "maxW=" << MaxW;
      EXPECT_GT(Run.BackwardStats.Mispredictions, 0) << "maxW=" << MaxW;
      EXPECT_EQ(Run.Weight, SeqWeight) << "maxW=" << MaxW;
      EXPECT_EQ(Run.Members, SeqMembers) << "maxW=" << MaxW;
    }
  }
}

/// With fewer nodes than prediction points, early boundaries fall on node
/// 0, where the true carried value is the initial d = 0. An overlap that
/// covers every boundary's prefix predicts exactly.
TEST(AppsMwis, PredictionAccuracyWithFewerNodesThanPoints) {
  std::vector<int64_t> W = {4, 9, 2, 7, 5};
  EXPECT_EQ(mwisPredictionAccuracy(W, /*Overlap=*/8, /*NumPoints=*/32), 100.0);
}

//===----------------------------------------------------------------------===//
// Declared effect summaries
//===----------------------------------------------------------------------===//

TEST(AppSummaries, AllFourIterateSitesAreRollbackFree) {
  using Builder = analysis::IterateSummary (*)();
  for (Builder B : {lexSummary, decodeSummary, mwisForwardSummary,
                    mwisBackwardSummary}) {
    analysis::ConditionVerdict V = analysis::checkIterateSummaries(B());
    EXPECT_TRUE(V.safe()) << V.Explanation;
  }
}

TEST(AppSummaries, SharedAccumulatorInMwisForwardBodyViolatesA) {
  // Phase 1 with `Run.Weight += Sum` moved from the finalizer into the
  // body: iteration i's write of the shared total races with iteration
  // i+1's speculative read of it.
  analysis::IterateSummary S = mwisForwardSummary();
  analysis::AbsNode *Weight = S.Regions.scalar("Run.Weight");
  S.Body.read(Weight, analysis::SummaryRegions::cell());
  S.Body.write(Weight, analysis::SummaryRegions::cell(), /*Certain=*/true);
  analysis::ConditionVerdict V = analysis::checkIterateSummaries(S);
  EXPECT_EQ(V.FailedCondition, "(a)") << V.Explanation;
  EXPECT_NE(V.Explanation.find("Run.Weight"), std::string::npos)
      << V.Explanation;
}

TEST(AppsMwis, EmptyGraph) {
  MwisRun Run = speculativeMwis({}, 4, 8);
  EXPECT_EQ(Run.Weight, 0);
  EXPECT_TRUE(Run.Members.empty());
}

} // namespace
