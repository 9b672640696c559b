//===- tests/interp_semantics_test.cpp - Fine-grained semantics tests ------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Corner cases of the formal semantics that the agreement suite does not
/// pin down: evaluation-context order, the per-iteration predictor
/// evaluation of the speculative semantics (vs g(l)-only in the
/// non-speculative one), unit predictions encoding parallel composition
/// and do-all loops, and thread bookkeeping of the auxfold chain.
///
//===----------------------------------------------------------------------===//

#include "interp/NonSpecEval.h"
#include "interp/SpecMachine.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

using namespace specpar;
using namespace specpar::interp;

namespace {

std::unique_ptr<lang::Program> parse(std::string_view Src) {
  auto R = lang::parseProgram(Src);
  EXPECT_TRUE(bool(R)) << R.error() << "\nsource: " << Src;
  return R.take();
}

//===----------------------------------------------------------------------===//
// Evaluation-context order
//===----------------------------------------------------------------------===//

TEST(SemanticsOrder, SpecEvaluatesConsumerExpressionFirst) {
  // Context `spec ep eg E`: the consumer expression evaluates before the
  // producer starts, under BOTH semantics. The consumer expression writes
  // c := 1; the producer then writes c := 2 and reads it.
  auto P = parse("main = let c = new(0) in "
                 "spec((c := 2; !c), 2, (c := 1; \\x. x))");
  RunOutcome N = runNonSpeculative(*P);
  ASSERT_TRUE(N.ok());
  EXPECT_EQ(N.Result.asInt(), 2) << "consumer-expression effect precedes "
                                    "the producer";
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    MachineOptions MO;
    MO.Seed = Seed;
    SpecRunOutcome S = runSpeculative(*P, MO);
    ASSERT_TRUE(S.ok());
    EXPECT_EQ(S.Result.asInt(), 2) << "seed " << Seed;
  }
}

TEST(SemanticsOrder, SpecFoldEvaluatesOperandsLeftToRight) {
  // op4 context: f, g, lo, hi evaluate left to right; their side effects
  // happen once, in that order, under both semantics.
  auto P = parse("main = let c = new(0) in "
                 "specfold((c := !c * 10 + 1; \\i a. a), "
                 "(c := !c * 10 + 2; \\i. 0), "
                 "(c := !c * 10 + 3; 1), (c := !c * 10 + 4; 0)); !c");
  RunOutcome N = runNonSpeculative(*P);
  ASSERT_TRUE(N.ok());
  EXPECT_EQ(N.Result.asInt(), 1234);
  SpecRunOutcome S = runSpeculative(*P);
  ASSERT_TRUE(S.ok());
  EXPECT_EQ(S.Result.asInt(), 1234);
}

//===----------------------------------------------------------------------===//
// Predictor evaluation frequency: the observable difference between the
// two semantics (and why predictors must be effect-free for safety)
//===----------------------------------------------------------------------===//

TEST(SemanticsDifference, NonSpecEvaluatesPredictorOnceSpecPerIteration) {
  // g marks its slot. NONSPEC-ITERATE applies g once (at l); the
  // speculative rules spawn a tg thread per iteration, and every check
  // waits for its predictor, so all marks land before main finishes.
  // This program is deliberately unsafe — it pins the *semantics*.
  const char *Src =
      "main = let m = newarr(6, 0) in "
      "specfold(\\i a. a, \\i. (m[i] := 1; 0), 1, 5); "
      "fold(\\i s. s + m[i], 0, 0, 5)";
  auto P = parse(Src);
  RunOutcome N = runNonSpeculative(*P);
  ASSERT_TRUE(N.ok());
  EXPECT_EQ(N.Result.asInt(), 1) << "non-speculative semantics: g(l) only";

  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    MachineOptions MO;
    MO.Seed = Seed;
    SpecRunOutcome S = runSpeculative(*P, MO);
    ASSERT_TRUE(S.ok());
    EXPECT_EQ(S.Result.asInt(), 5)
        << "speculative semantics: one predictor thread per iteration";
  }
}

//===----------------------------------------------------------------------===//
// The paper's encodings: parallel composition and do-all loops via unit
// predictions
//===----------------------------------------------------------------------===//

TEST(Encodings, ParallelCompositionViaUnitPrediction) {
  // e1 || e2 == spec(e1, (), \u. e2): the unit prediction always
  // validates, so e2's speculative execution is always kept.
  auto P = parse("main = let a = new(0) in let b = new(0) in "
                 "spec((a := 21; ()), (), \\u. b := 21); !a + !b");
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    MachineOptions MO;
    MO.Seed = Seed;
    SpecRunOutcome S = runSpeculative(*P, MO);
    ASSERT_TRUE(S.ok()) << S.statusStr();
    EXPECT_EQ(S.Result.asInt(), 42);
    EXPECT_EQ(S.Mispredictions, 0u) << "unit == unit always";
  }
}

TEST(Encodings, DoAllLoopViaUnitCarriedValue) {
  // A loop with no carried dependence: carry unit, predict unit — every
  // iteration runs in parallel and always validates.
  auto P = parse("main = let out = newarr(8, 0) in "
                 "specfold(\\i u. (out[i] := i * i; ()), \\i. (), 0, 7); "
                 "fold(\\i s. s + out[i], 0, 0, 7)");
  RunOutcome N = runNonSpeculative(*P);
  ASSERT_TRUE(N.ok());
  EXPECT_EQ(N.Result.asInt(), 140);
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    MachineOptions MO;
    MO.Seed = Seed;
    SpecRunOutcome S = runSpeculative(*P, MO);
    ASSERT_TRUE(S.ok());
    EXPECT_EQ(S.Result.asInt(), 140);
    EXPECT_EQ(S.Mispredictions, 0u);
  }
}

TEST(Encodings, UnitVersusIntPredictionMismatches) {
  // A unit guess against an integer producer is simply a misprediction
  // (predictions compare under integer/unit equality).
  auto P = parse("main = spec(7, (), \\x. x)");
  SpecRunOutcome S = runSpeculative(*P);
  ASSERT_TRUE(S.ok());
  EXPECT_EQ(S.Result.asInt(), 7);
  EXPECT_EQ(S.Mispredictions, 1u);
}

//===----------------------------------------------------------------------===//
// Thread bookkeeping of the auxfold chain
//===----------------------------------------------------------------------===//

TEST(ThreadAccounting, SpecFoldSpawnsThreeThreadsPerSpeculativeIteration) {
  // Rules: SPEC-ITERATE-1 spawns tg+tb for the first iteration;
  // SPEC-ITERATE-2 spawns tg+tb+tc per remaining iteration.
  auto P = parse("main = specfold(\\i a. a + i, \\i. 0, 1, 6)");
  SpecRunOutcome S = runSpeculative(*P);
  ASSERT_TRUE(S.ok());
  EXPECT_EQ(S.ThreadsSpawned, 2u + 3u * 5u);
  EXPECT_EQ(S.Predictions, 5u);
}

TEST(ThreadAccounting, SpecSpawnsExactlyThree) {
  auto P = parse("main = spec(1, 1, \\x. x)");
  SpecRunOutcome S = runSpeculative(*P);
  ASSERT_TRUE(S.ok());
  EXPECT_EQ(S.ThreadsSpawned, 3u);
}

//===----------------------------------------------------------------------===//
// Cancellation and errors
//===----------------------------------------------------------------------===//

TEST(Cancellation, MispredictedIterationsAreCancelled) {
  auto P = parse("main = specfold(\\i a. a + 1, \\i. if i == 1 then 0 "
                 "else 100 + i, 1, 5)");
  MachineOptions MO;
  MO.Sched = SchedulerKind::RoundRobin;
  SpecRunOutcome S = runSpeculative(*P, MO);
  ASSERT_TRUE(S.ok());
  EXPECT_EQ(S.Result.asInt(), 5) << "five inclusive iterations from g(1)=0";
  EXPECT_EQ(S.Mispredictions, 4u);
  EXPECT_EQ(S.Cancellations, 4u);
}

TEST(Cancellation, ValidPathErrorStillSurfaces) {
  // The accumulator walks 0,1,2,3; iteration 4 sees a == 3 and divides by
  // zero with the CORRECT input, so the error must surface under every
  // schedule — whether the predictor was exact (the speculative run
  // itself fails) or useless (the re-execution fails).
  for (const char *Guess : {"i - 1", "if i == 1 then 0 else 0 - 9"}) {
    std::string Src = std::string("main = specfold(\\i a. if a == 3 then "
                                  "1 / 0 else a + 1, \\i. ") +
                      Guess + ", 1, 6)";
    auto P = parse(Src);
    RunOutcome N = runNonSpeculative(*P);
    EXPECT_EQ(N.St, RunOutcome::Status::Error) << Src;
    for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
      MachineOptions MO;
      MO.Seed = Seed;
      SpecRunOutcome S = runSpeculative(*P, MO);
      EXPECT_EQ(S.St, RunOutcome::Status::Error)
          << "seed " << Seed << " guess " << Guess;
    }
  }
}

//===----------------------------------------------------------------------===//
// Inclusive bounds up to INT64_MAX
//===----------------------------------------------------------------------===//

TEST(Bounds, FoldAndSpecFoldStopAtInt64Max) {
  // The loop index must stop at hi without computing hi + 1. The
  // budget is far above what these few iterations need; it only keeps a
  // wrapping index from running for the default 50M steps.
  const struct {
    const char *Src;
    int64_t Want;
  } Cases[] = {
      {"main = fold(\\i acc. acc + 1, 0, 9223372036854775806, "
       "9223372036854775807)",
       2},
      {"main = specfold(\\i acc. acc + 1, \\i. i - 9223372036854775806, "
       "9223372036854775806, 9223372036854775807)",
       2},
      {"main = fold(\\i acc. acc + 1, 0, 9223372036854775807, "
       "9223372036854775807)",
       1},
      {"main = specfold(\\i acc. acc + 1, \\i. i - 9223372036854775807, "
       "9223372036854775807, 9223372036854775807)",
       1},
  };
  for (const auto &Case : Cases) {
    auto P = parse(Case.Src);
    EvalOptions EO;
    EO.MaxSteps = 100000;
    RunOutcome N = runNonSpeculative(*P, EO);
    ASSERT_TRUE(N.ok()) << Case.Src << "\n" << N.statusStr();
    EXPECT_EQ(N.Result.asInt(), Case.Want) << Case.Src;
    for (SchedulerKind K : {SchedulerKind::Random, SchedulerKind::RoundRobin,
                            SchedulerKind::NonSpecPriority}) {
      MachineOptions MO;
      MO.Sched = K;
      MO.MaxSteps = 100000;
      SpecRunOutcome S = runSpeculative(*P, MO);
      ASSERT_TRUE(S.ok()) << Case.Src << "\n" << S.statusStr();
      EXPECT_EQ(S.Result.asInt(), Case.Want) << Case.Src;
    }
  }
}

TEST(Schedulers, LongSpecFoldCostsLinearSteps) {
  // Every speculative iteration spawns threads that finish, or wait on
  // a running thread, for most of the run; picking the next step must
  // not rescan them. 20000 iterations then take well under a second
  // (see the TIMEOUT in tests/CMakeLists.txt) and agree with
  // NonSpecEval.
  auto P = parse("main = specfold(\\i a. a + i, \\i. (i * (i - 1)) / 2, "
                 "1, 20000)");
  RunOutcome N = runNonSpeculative(*P, EvalOptions());
  ASSERT_TRUE(N.ok()) << N.statusStr();
  MachineOptions MO;
  MO.Sched = SchedulerKind::Random;
  MO.Seed = 1;
  SpecRunOutcome S = runSpeculative(*P, MO);
  ASSERT_TRUE(S.ok()) << S.statusStr();
  EXPECT_EQ(S.Result.asInt(), N.Result.asInt());
}

TEST(Schedulers, NonSpecPriorityStillExploresSpeculation) {
  // Priority scheduling must not starve speculative threads forever
  // (producers eventually block on waits, releasing them).
  auto P = parse("main = specfold(\\i a. a + i, \\i. (i * (i - 1)) / 2, "
                 "1, 12)");
  MachineOptions MO;
  MO.Sched = SchedulerKind::NonSpecPriority;
  SpecRunOutcome S = runSpeculative(*P, MO);
  ASSERT_TRUE(S.ok()) << S.statusStr();
  EXPECT_EQ(S.Result.asInt(), 78);
}

TEST(Schedulers, RoundRobinIsDeterministic) {
  auto P = parse("main = let out = newarr(6, 0) in "
                 "specfold(\\i a. (out[i] := a; a + i), \\i. 0, 0, 5)");
  MachineOptions MO;
  MO.Sched = SchedulerKind::RoundRobin;
  SpecRunOutcome A = runSpeculative(*P, MO);
  SpecRunOutcome B = runSpeculative(*P, MO);
  ASSERT_TRUE(A.ok() && B.ok());
  EXPECT_EQ(A.Steps, B.Steps);
  EXPECT_EQ(A.Trace.Events.size(), B.Trace.Events.size());
}

} // namespace
