//===- tests/compile_test.cpp - sp_compile lowering and execution ---------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Unit tests for the native-runtime compiler (src/compile/): expression
/// semantics must match the reference evaluator exactly (values, error
/// messages, error locations), closure conversion and partial
/// application must behave, the admission gate must refuse what the
/// rollback checker refuses with a structured reason, and the
/// `runSpeculate` facade must pick the right engine and report why.
///
//===----------------------------------------------------------------------===//

#include "compile/Compiler.h"
#include "compile/RunSpeculate.h"
#include "interp/NonSpecEval.h"
#include "interp/SpecMachine.h"
#include "lang/Parser.h"
#include "runtime/Speculation.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace specpar;
using compile::CompiledProgram;

namespace {

std::unique_ptr<lang::Program> parse(const std::string &Src) {
  auto R = lang::parseProgram(Src);
  EXPECT_TRUE(bool(R)) << Src << "\n" << (R ? "" : R.error());
  return R ? R.take() : nullptr;
}

std::shared_ptr<CompiledProgram> compileOk(const lang::Program &P) {
  compile::AdmissionReport Rep;
  auto C = compile::compileProgram(P, compile::CompileOptions(), &Rep);
  EXPECT_TRUE(bool(C)) << (C ? "" : C.error()) << "\n" << Rep.str();
  return C ? C.take() : nullptr;
}

CompiledProgram::Outcome runCompiled(const lang::Program &P,
                                     CompiledProgram::RunOptions Opts = {}) {
  auto C = compileOk(P);
  EXPECT_NE(C, nullptr);
  return C->run(Opts);
}

/// \p Got (from the engine named \p Engine) must report the reference
/// run's status, value, error message, and error location.
void expectSameOutcome(const interp::RunOutcome &Got,
                       const interp::RunOutcome &Ref, const std::string &Src,
                       const std::string &Engine) {
  ASSERT_EQ(Got.St, Ref.St) << Src << "\n"
                            << Engine << ": " << Got.statusStr()
                            << "\nreference: " << Ref.statusStr();
  if (Ref.St == interp::RunOutcome::Status::Done) {
    EXPECT_EQ(Got.Result.isInt(), Ref.Result.isInt()) << Src << "\n" << Engine;
    if (Ref.Result.isInt()) {
      EXPECT_EQ(Got.Result.asInt(), Ref.Result.asInt())
          << Src << "\n"
          << Engine;
    }
  } else if (Ref.St == interp::RunOutcome::Status::Error) {
    EXPECT_EQ(Got.Error.Message, Ref.Error.Message) << Src << "\n" << Engine;
    EXPECT_EQ(Got.Error.Loc.Line, Ref.Error.Loc.Line) << Src << "\n"
                                                      << Engine;
    EXPECT_EQ(Got.Error.Loc.Col, Ref.Error.Loc.Col) << Src << "\n" << Engine;
  }
}

/// The three engines — the non-speculative reference, the speculative
/// machine under seeded-random (seeds 1-3), round-robin and
/// nonspec-priority schedules, and the compiled tier — must agree on
/// status, value, error message, and error location. The cases are tiny;
/// the step budget only stops a wrapping loop well before the default
/// 50M.
void expectMatchesReference(const std::string &Src) {
  constexpr uint64_t Budget = 1000000;
  auto P = parse(Src);
  ASSERT_NE(P, nullptr);
  interp::EvalOptions EO;
  EO.MaxSteps = Budget;
  interp::RunOutcome N = interp::runNonSpeculative(*P, EO);
  CompiledProgram::RunOptions RO;
  RO.MaxSteps = Budget;
  CompiledProgram::Outcome C = runCompiled(*P, RO);
  if (N.St == interp::RunOutcome::Status::Done) {
    ASSERT_TRUE(C.ResultLowered) << Src;
  }
  expectSameOutcome(C.Run, N, Src, "compiled");
  struct Schedule {
    interp::SchedulerKind Kind;
    uint64_t Seed;
    const char *Name;
  };
  for (const Schedule &S : {Schedule{interp::SchedulerKind::Random, 1,
                                     "SpecMachine random seed 1"},
                            Schedule{interp::SchedulerKind::Random, 2,
                                     "SpecMachine random seed 2"},
                            Schedule{interp::SchedulerKind::Random, 3,
                                     "SpecMachine random seed 3"},
                            Schedule{interp::SchedulerKind::RoundRobin, 1,
                                     "SpecMachine round-robin"},
                            Schedule{interp::SchedulerKind::NonSpecPriority,
                                     1, "SpecMachine nonspec-priority"}}) {
    interp::MachineOptions MO;
    MO.Sched = S.Kind;
    MO.Seed = S.Seed;
    MO.MaxSteps = Budget;
    expectSameOutcome(interp::runSpeculative(*P, MO), N, Src, S.Name);
  }
}

int64_t runInt(const std::string &Src) {
  auto P = parse(Src);
  EXPECT_NE(P, nullptr);
  if (!P)
    return 0;
  CompiledProgram::Outcome C = runCompiled(*P);
  EXPECT_TRUE(C.Run.ok()) << Src << "\n"
                          << C.Run.statusStr() << ": "
                          << C.Run.Error.Message;
  EXPECT_TRUE(C.Run.Result.isInt()) << Src;
  return C.Run.Result.isInt() ? C.Run.Result.asInt() : 0;
}

// ---- Expression semantics: values ----------------------------------------

TEST(CompileSemantics, ArithmeticAndComparisons) {
  expectMatchesReference("main = 2 + 3 * 4 - 1");
  expectMatchesReference("main = 17 / 5 + 17 % 5");
  expectMatchesReference("main = (0 - 17) / 5");
  expectMatchesReference("main = (3 < 4) + (4 <= 4) + (5 > 4) + (4 >= 5) + "
                         "(2 == 2) + (2 != 2)");
  expectMatchesReference("main = 9223372036854775807 + 1");
  expectMatchesReference("main = (0 - 9223372036854775807 - 1) * 3");
}

TEST(CompileSemantics, LetSeqIfCellsArrays) {
  expectMatchesReference("main = let x = 10 in let y = x + 1 in x * y");
  expectMatchesReference("main = (1; 2; 3)");
  expectMatchesReference("main = if 2 > 1 then 10 else 20");
  expectMatchesReference("main = if 0 then 10 else 20");
  expectMatchesReference("main = let c = new(5) in (c := !c + 1; !c)");
  expectMatchesReference("main = let c = new(1) in (c := 9)");
  expectMatchesReference(
      "main = let a = newarr(4, 7) in (a[2] := a[0] + 1; a[2] + len(a))");
  expectMatchesReference("main = ()");
}

TEST(CompileSemantics, FoldInlinedAndGeneric) {
  // Literal lambda: the resolver marks it Inlined and the compiler
  // lowers it to an in-frame loop.
  expectMatchesReference("main = fold(\\i acc. acc + i, 0, 1, 100)");
  // Empty range returns the initial accumulator untouched.
  expectMatchesReference("main = fold(\\i acc. acc + i, 42, 5, 4)");
  // Single iteration, inclusive bounds.
  expectMatchesReference("main = fold(\\i acc. acc * i, 1, 7, 7)");
  // Non-literal fn position: falls back to the generic curried-call loop.
  expectMatchesReference("fun step(i, acc) = acc * 2 + i\n"
                         "main = fold(step, 0, 1, 10)");
  expectMatchesReference(
      "main = let f = \\i. \\acc. acc + i * i in fold(f, 0, 1, 10)");
}

TEST(CompileSemantics, FoldExtremeBounds) {
  // Bounds up to INT64_MAX are inclusive and the loop stops at hi without
  // computing hi + 1, on every engine.
  expectMatchesReference(
      "main = fold(\\i acc. acc + 1, 0, 9223372036854775805, "
      "9223372036854775806)");
  expectMatchesReference("main = fold(\\i acc. acc + 1, 0, "
                         "9223372036854775806, 9223372036854775807)");
  expectMatchesReference(
      "main = specfold(\\i acc. acc + 1, \\i. i - 9223372036854775806, "
      "9223372036854775806, 9223372036854775807)");
  expectMatchesReference("main = fold(\\i acc. acc + 1, 0, "
                         "9223372036854775807, 9223372036854775807)");
  expectMatchesReference(
      "main = specfold(\\i acc. acc + 1, \\i. i - 9223372036854775807, "
      "9223372036854775807, 9223372036854775807)");
  // A generic (non-inlined) fold body takes the same loop.
  expectMatchesReference("fun step(i, acc) = acc + 1\n"
                         "main = fold(step, 0, 9223372036854775806, "
                         "9223372036854775807)");
  const struct {
    const char *Src;
    int64_t Want;
  } Exact[] = {
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
  for (const auto &Case : Exact) {
    auto P = parse(Case.Src);
    ASSERT_NE(P, nullptr);
    CompiledProgram::Outcome C = runCompiled(*P);
    ASSERT_TRUE(C.Run.ok()) << Case.Src << "\n" << C.Run.Error.Message;
    EXPECT_EQ(C.Run.Result.asInt(), Case.Want) << Case.Src;
  }
}

// ---- Expression semantics: errors match the reference exactly ------------

TEST(CompileErrors, MatchReferenceMessagesAndLocations) {
  expectMatchesReference("main = 1 + ()");
  expectMatchesReference("main = 1 / 0");
  expectMatchesReference("main = 1 % 0");
  expectMatchesReference("main = (0 - 9223372036854775807 - 1) / (0 - 1)");
  expectMatchesReference("main = (0 - 9223372036854775807 - 1) % (0 - 1)");
  expectMatchesReference("main = if () then 1 else 2");
  expectMatchesReference("main = 3 := 4");
  expectMatchesReference("main = !7");
  expectMatchesReference("main = newarr(0 - 1, 0)");
  expectMatchesReference("main = let a = newarr(3, 0) in a[5]");
  expectMatchesReference("main = let a = newarr(3, 0) in a[0 - 1] := 1");
  expectMatchesReference("main = len(12)");
  expectMatchesReference("main = 5(6)");
  expectMatchesReference("main = fold(\\i acc. acc, (), 1, ())");
}

TEST(CompileErrors, EveryEngineRaisesTheSameIntegerAndBoundErrors) {
  expectMatchesReference("main = 7 % 0");
  expectMatchesReference("main = specfold(\\i acc. acc + 1, \\i. 0, (), 3)");
  // The bounds are checked before the predictor is applied to lo.
  expectMatchesReference("main = specfold(\\i acc. acc, \\i. i + 1, (), 3)");
  expectMatchesReference(
      "main = specfold(\\i acc. acc + 1 / (i - 2), \\i. 0, 1, 3)");
  auto P = parse("main = specfold(\\i acc. acc + 1 / (i - 2), \\i. 0, 1, 3)");
  ASSERT_NE(P, nullptr);
  interp::RunOutcome N = interp::runNonSpeculative(*P);
  EXPECT_EQ(N.Error.Message, "division by zero");
  EXPECT_EQ(N.Error.Loc.Line, 1);
  EXPECT_EQ(N.Error.Loc.Col, 33);
}

TEST(CompileLimits, EveryEngineReturnsTheSameHeapExhaustion) {
  // 2^62 slots exceed the shared heap limit before anything is
  // allocated; no engine may throw it out of its run function.
  expectMatchesReference("main = len(newarr(4611686018427387904, 0))");
  auto P = parse("main = len(newarr(4611686018427387904, 0))");
  ASSERT_NE(P, nullptr);
  interp::RunOutcome N = interp::runNonSpeculative(*P);
  ASSERT_EQ(N.St, interp::RunOutcome::Status::Error);
  EXPECT_EQ(N.Error.Message, "speculate heap exhausted");
  EXPECT_EQ(N.Error.Loc.Col, 12);
}

// ---- Closures, currying, partial application -----------------------------

TEST(CompileClosures, CaptureAndNesting) {
  EXPECT_EQ(runInt("main = let a = 5 in"
                   " let f = \\x. \\y. x + y + a in f(1)(2)"),
            8);
  // Capture chains through two lambda levels.
  EXPECT_EQ(runInt("main = let a = 100 in"
                   " let mk = \\x. \\y. \\z. a + x + y + z in mk(1)(2)(3)"),
            106);
  // A closure escaping its defining scope still sees its captures.
  EXPECT_EQ(runInt("fun adder(n) = \\x. x + n\n"
                   "main = let add5 = adder(5) in add5(10) + adder(1)(1)"),
            17);
}

TEST(CompileClosures, PartialAndOverApplication) {
  // Direct calls to top-level functions are exact-arity (the resolver
  // rejects anything else), but a function *value* applies curried:
  // under-application builds a partial application, over-application
  // applies the curried result.
  EXPECT_EQ(runInt("fun add3(a, b, c) = a + b + c\n"
                   "main = let g = add3 in let h = g(1, 2) in h(4)"),
            7);
  EXPECT_EQ(runInt("fun add3(a, b, c) = a + b + c\n"
                   "main = let g = add3 in g(1)(2)(3)"),
            6);
  EXPECT_EQ(runInt("main = (\\x. \\y. x + y)(1, 2)"), 3);
  EXPECT_EQ(runInt("fun pair(a) = \\b. a * 10 + b\n"
                   "main = let p = pair in p(3, 4)"),
            34);
  // Stacked partial applications concatenate their argument prefixes.
  EXPECT_EQ(runInt("fun add4(a, b, c, d) = a * 1000 + b * 100 + c * 10 + d\n"
                   "main = let g = add4 in g(1)(2)(3, 4)"),
            1234);
}

// ---- Speculation constructs ----------------------------------------------

TEST(CompileSpec, SpecfoldMatchesReferenceAndCountsPredictions) {
  auto P = parse("main = specfold(\\i acc. acc + i, "
                 "\\i. (i * (i - 1)) / 2, 1, 100)");
  ASSERT_NE(P, nullptr);
  rt::SpecExecutor Ex(4);
  CompiledProgram::RunOptions RO;
  RO.Config.executor(Ex);
  RO.ChunkSize = 8;
  CompiledProgram::Outcome C = runCompiled(*P, RO);
  ASSERT_TRUE(C.Run.ok()) << C.Run.Error.Message;
  EXPECT_EQ(C.Run.Result.asInt(), 5050);
  EXPECT_EQ(C.SpecSiteRuns, 1u);
  EXPECT_GT(C.Stats.Predictions, 0);
  EXPECT_EQ(C.Stats.Mispredictions, 0);
}

TEST(CompileSpec, SpecfoldMispredictionsStillCorrect) {
  auto P = parse("main = specfold(\\i acc. acc * 2 + i, "
                 "\\i. if i == 1 then 1 else 0 - 1, 1, 10)");
  ASSERT_NE(P, nullptr);
  rt::SpecExecutor Ex(4);
  CompiledProgram::RunOptions RO;
  RO.Config.executor(Ex);
  RO.ChunkSize = 2;
  CompiledProgram::Outcome C = runCompiled(*P, RO);
  ASSERT_TRUE(C.Run.ok()) << C.Run.Error.Message;
  EXPECT_EQ(C.Run.Result.asInt(), 3060);
  EXPECT_GT(C.Stats.Mispredictions + C.Stats.FailedPredictions, 0);
}

TEST(CompileSpec, SpecAppliesProducerPredictorConsumer) {
  EXPECT_EQ(runInt("fun work(n) = fold(\\i acc. acc + i, 0, 1, n)\n"
                   "main = spec(work(100), 5050, \\v. v + 1)"),
            5051);
  // Mispredicted guess: the consumer re-executes with the real value.
  auto P = parse("main = spec(41, 0, \\v. v + 1)");
  ASSERT_NE(P, nullptr);
  rt::SpecExecutor Ex(2);
  CompiledProgram::RunOptions RO;
  RO.Config.executor(Ex);
  CompiledProgram::Outcome C = runCompiled(*P, RO);
  ASSERT_TRUE(C.Run.ok()) << C.Run.Error.Message;
  EXPECT_EQ(C.Run.Result.asInt(), 42);
  EXPECT_GT(C.Stats.Mispredictions + C.Stats.FailedPredictions, 0);
}

TEST(CompileSpec, SpecfoldErrorInsideBodySurfacesAsOutcome) {
  auto P = parse("main = specfold(\\i acc. acc + 1 / (i - 5), "
                 "\\i. 0, 1, 10)");
  ASSERT_NE(P, nullptr);
  CompiledProgram::Outcome C = runCompiled(*P);
  ASSERT_EQ(C.Run.St, interp::RunOutcome::Status::Error);
  EXPECT_EQ(C.Run.Error.Message, "division by zero");
}

TEST(CompileSpec, ShieldAndAttemptBudgetAreStripped) {
  // shield()/attemptBudget() would arm siglongjmp containment, which is
  // incompatible with the compiled runtime (see Compiler.h); run() must
  // strip them and still complete normally.
  auto P = parse("main = specfold(\\i acc. acc + i, "
                 "\\i. (i * (i - 1)) / 2, 1, 64)");
  ASSERT_NE(P, nullptr);
  rt::SpecExecutor Ex(2);
  CompiledProgram::RunOptions RO;
  RO.Config.executor(Ex).shield(true).attemptBudget(
      std::chrono::milliseconds(1));
  CompiledProgram::Outcome C = runCompiled(*P, RO);
  ASSERT_TRUE(C.Run.ok()) << C.Run.Error.Message;
  EXPECT_EQ(C.Run.Result.asInt(), 2080);
}

TEST(CompileSpec, StatsSnapshotSinkIsFilled) {
  auto P = parse("main = specfold(\\i acc. acc + i, "
                 "\\i. (i * (i - 1)) / 2, 1, 100)");
  ASSERT_NE(P, nullptr);
  rt::stats::Snapshot Snap;
  rt::SpecExecutor Ex(2);
  CompiledProgram::RunOptions RO;
  RO.Config.executor(Ex).statsOut(&Snap);
  CompiledProgram::Outcome C = runCompiled(*P, RO);
  ASSERT_TRUE(C.Run.ok());
  EXPECT_GT(Snap.Spec.Tasks, 0);
}

TEST(CompileSpec, DeadlineThrowsSpecTimeout) {
  auto P = parse("main = specfold(\\i acc. acc + i, \\i. 0, 1, 100000)");
  ASSERT_NE(P, nullptr);
  auto C = compileOk(*P);
  ASSERT_NE(C, nullptr);
  rt::SpecExecutor Ex(2);
  CompiledProgram::RunOptions RO;
  RO.Config.executor(Ex).deadline(std::chrono::nanoseconds(1));
  EXPECT_THROW(C->run(RO), rt::SpecTimeoutError);
}

TEST(CompileSpec, MaximalDeadlineNeverExpires) {
  // The whole-run deadline saturates at "never", and so does every
  // site's remaining share of it.
  auto P = parse("main = specfold(\\i acc. acc + i, "
                 "\\i. (i * (i - 1)) / 2, 1, 100)");
  ASSERT_NE(P, nullptr);
  auto C = compileOk(*P);
  ASSERT_NE(C, nullptr);
  rt::SpecExecutor Ex(2);
  CompiledProgram::RunOptions RO;
  RO.Config.executor(Ex).deadline(std::chrono::nanoseconds::max());
  CompiledProgram::Outcome Out = C->run(RO);
  ASSERT_TRUE(Out.Run.ok()) << Out.Run.statusStr();
  EXPECT_EQ(Out.Run.Result.asInt(), 5050);
}

// ---- Resource limits ------------------------------------------------------

TEST(CompileLimits, StepBudgetYieldsStepLimitOutcome) {
  auto P = parse("main = fold(\\i acc. acc + 1, 0, 1, 100000000)");
  ASSERT_NE(P, nullptr);
  CompiledProgram::RunOptions RO;
  RO.MaxSteps = 10000;
  CompiledProgram::Outcome C = runCompiled(*P, RO);
  EXPECT_EQ(C.Run.St, interp::RunOutcome::Status::StepLimit);
  EXPECT_GT(C.Run.Steps, 0u);
}

TEST(CompileLimits, StepBudgetCrossesCallFrames) {
  // Fuel is drawn inside callee frames too: a generic fold driving a
  // closure exhausts the budget mid-call and still unwinds cleanly.
  auto P = parse("fun step(i, acc) = acc + i\n"
                 "main = let f = step in fold(f, 0, 1, 100000000)");
  ASSERT_NE(P, nullptr);
  CompiledProgram::RunOptions RO;
  RO.MaxSteps = 20000;
  CompiledProgram::Outcome C = runCompiled(*P, RO);
  EXPECT_EQ(C.Run.St, interp::RunOutcome::Status::StepLimit);
}

TEST(CompileLimits, BadChunkSizeThrows) {
  auto P = parse("main = 1");
  ASSERT_NE(P, nullptr);
  auto C = compileOk(*P);
  ASSERT_NE(C, nullptr);
  CompiledProgram::RunOptions RO;
  RO.ChunkSize = 0;
  EXPECT_THROW(C->run(RO), std::invalid_argument);
}

TEST(CompileLimits, HugeArrayAllocationIsAnError) {
  auto P = parse("main = len(newarr(4611686018427387904, 0))");
  ASSERT_NE(P, nullptr);
  CompiledProgram::Outcome C = runCompiled(*P);
  ASSERT_EQ(C.Run.St, interp::RunOutcome::Status::Error);
  EXPECT_EQ(C.Run.Error.Message, "speculate heap exhausted");
}

// ---- Admission gate -------------------------------------------------------

TEST(CompileAdmission, CheckerRejectionIsStructured) {
  auto P = parse("main =\n"
                 "  let c = new(0) in\n"
                 "  specfold(\\i acc. (c := !c + 1; acc), \\i. 0, 1, 8);\n"
                 "  !c");
  ASSERT_NE(P, nullptr);
  compile::AdmissionReport Rep;
  auto C = compile::compileProgram(*P, compile::CompileOptions(), &Rep);
  ASSERT_FALSE(bool(C));
  EXPECT_TRUE(Rep.CheckerRan);
  EXPECT_FALSE(Rep.CheckerAccepted);
  EXPECT_FALSE(Rep.Admitted);
  ASSERT_FALSE(Rep.UnsafeSites.empty());
  EXPECT_NE(Rep.WhyNot.find("rollback checker rejected"), std::string::npos)
      << Rep.WhyNot;
  EXPECT_NE(C.error().find("condition"), std::string::npos) << C.error();
}

TEST(CompileAdmission, RequireCheckerAcceptCanBeDisabled) {
  auto P = parse("main =\n"
                 "  let c = new(0) in\n"
                 "  specfold(\\i acc. (c := !c + 1; acc), \\i. 0, 1, 8);\n"
                 "  !c");
  ASSERT_NE(P, nullptr);
  compile::CompileOptions CO;
  CO.RequireCheckerAccept = false;
  compile::AdmissionReport Rep;
  auto C = compile::compileProgram(*P, CO, &Rep);
  ASSERT_TRUE(bool(C)) << C.error();
  EXPECT_TRUE(Rep.Admitted);
  EXPECT_FALSE(Rep.CheckerAccepted);
}

TEST(CompileAdmission, ReportRecordsLoweringDecisions) {
  auto P = parse("fun twice(f, x) = f(f(x))\n"
                 "main = let a = 1 in\n"
                 "  twice(\\x. x + a, 0) +\n"
                 "  fold(\\i acc. acc + i, 0, 1, 3) +\n"
                 "  specfold(\\i acc. acc + i, \\i. (i * (i - 1)) / 2, 1, 4)");
  ASSERT_NE(P, nullptr);
  compile::AdmissionReport Rep;
  auto C = compile::compileProgram(*P, compile::CompileOptions(), &Rep);
  ASSERT_TRUE(bool(C)) << C.error();
  EXPECT_TRUE(Rep.Admitted);
  EXPECT_EQ(Rep.SpecSites, 1u);
  EXPECT_GT(Rep.NodesLowered, 0u);
  EXPECT_TRUE(Rep.Unlowerable.empty());
  std::string Notes;
  for (const compile::NodeDiag &D : Rep.Notes)
    Notes += D.str() + "\n";
  EXPECT_NE(Notes.find("closure-converted"), std::string::npos) << Notes;
  EXPECT_NE(Notes.find("inlined"), std::string::npos) << Notes;
  EXPECT_NE(Notes.find("fused"), std::string::npos) << Notes;
  EXPECT_NE(Notes.find("Speculation::iterateChunked"), std::string::npos)
      << Notes;
  // The human rendering mentions the verdict.
  EXPECT_NE(Rep.str().find("admitted"), std::string::npos) << Rep.str();
}

// ---- The runSpeculate facade ---------------------------------------------

TEST(CompileFacade, SafeProgramTakesCompiledPath) {
  auto P = parse("main = specfold(\\i acc. acc + i, "
                 "\\i. (i * (i - 1)) / 2, 1, 100)");
  ASSERT_NE(P, nullptr);
  compile::SpeculatePlan Plan;
  rt::SpecExecutor Ex(4);
  Plan.Run.Config.executor(Ex);
  compile::SpeculateRun R = compile::runSpeculate(*P, Plan);
  EXPECT_EQ(R.PathTaken, compile::SpeculateRun::Path::Compiled);
  EXPECT_TRUE(R.WhyNotCompiled.empty()) << R.WhyNotCompiled;
  ASSERT_TRUE(R.Outcome.ok());
  EXPECT_EQ(R.Outcome.Result.asInt(), 5050);
  EXPECT_GT(R.Outcome.Predictions, 0u);
  EXPECT_EQ(R.SpecSiteRuns, 1u);
}

TEST(CompileFacade, RejectedProgramFallsBackToInterpreter) {
  auto P = parse("main =\n"
                 "  let c = new(0) in\n"
                 "  specfold(\\i acc. (c := !c + 1; acc), \\i. 0, 1, 8);\n"
                 "  !c");
  ASSERT_NE(P, nullptr);
  compile::SpeculatePlan Plan;
  Plan.Machine.Seed = 3;
  compile::SpeculateRun R = compile::runSpeculate(*P, Plan);
  EXPECT_EQ(R.PathTaken, compile::SpeculateRun::Path::Interpreter);
  EXPECT_FALSE(R.WhyNotCompiled.empty());
  EXPECT_TRUE(R.Admission.CheckerRan);
  EXPECT_FALSE(R.Admission.CheckerAccepted);
  // The fallback is exactly a reference SpecMachine run with the same
  // options.
  interp::MachineOptions MO;
  MO.Seed = 3;
  interp::SpecRunOutcome Ref = interp::runSpeculative(*P, MO);
  ASSERT_EQ(R.Outcome.St, Ref.St);
  ASSERT_TRUE(Ref.Result.isInt());
  EXPECT_EQ(R.Outcome.Result.asInt(), Ref.Result.asInt());
}

TEST(CompileFacade, NonPrimitiveResultRerunsInterpreted) {
  auto P = parse("main = \\x. x + 1");
  ASSERT_NE(P, nullptr);
  compile::SpeculateRun R = compile::runSpeculate(*P);
  EXPECT_EQ(R.PathTaken, compile::SpeculateRun::Path::Interpreter);
  EXPECT_NE(R.WhyNotCompiled.find("not a primitive"), std::string::npos)
      << R.WhyNotCompiled;
  EXPECT_TRUE(R.Outcome.ok());
}

TEST(CompileFacade, ForceInterpreterSkipsCompilation) {
  auto P = parse("main = 1 + 1");
  ASSERT_NE(P, nullptr);
  compile::SpeculatePlan Plan;
  Plan.ForceInterpreter = true;
  compile::SpeculateRun R = compile::runSpeculate(*P, Plan);
  EXPECT_EQ(R.PathTaken, compile::SpeculateRun::Path::Interpreter);
  EXPECT_NE(R.WhyNotCompiled.find("forced"), std::string::npos);
  EXPECT_FALSE(R.Admission.CheckerRan);
  EXPECT_EQ(R.Outcome.Result.asInt(), 2);
}

// ---- Thread-safety of a shared CompiledProgram ---------------------------

TEST(CompileConcurrency, OneProgramManyConcurrentRuns) {
  auto P = parse("main = specfold(\\i acc. acc + i, "
                 "\\i. (i * (i - 1)) / 2, 1, 200)");
  ASSERT_NE(P, nullptr);
  auto C = compileOk(*P);
  ASSERT_NE(C, nullptr);
  auto Ex = rt::SpecExecutor::create(4);
  std::vector<std::thread> Ts;
  std::atomic<int> Bad{0};
  for (int T = 0; T < 4; ++T)
    Ts.emplace_back([&] {
      for (int I = 0; I < 8; ++I) {
        CompiledProgram::RunOptions RO;
        RO.Config.executor(Ex);
        CompiledProgram::Outcome O = C->run(RO);
        if (!O.Run.ok() || !O.Run.Result.isInt() ||
            O.Run.Result.asInt() != 20100)
          ++Bad;
      }
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Bad.load(), 0);
}

} // namespace
