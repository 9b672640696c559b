//===- tests/compile_differential_test.cpp - interp vs compiled corpus ----===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Differential suite over the whole Speculate corpus (bench/speculate
/// and examples/speculate): every program runs under the non-speculative
/// reference evaluator, the seeded SpecMachine, and — when the admission
/// gate accepts it — the native compiler, and all engines must agree on
/// the final value. Programs the gate refuses must fall back to the
/// interpreter through the `runSpeculate` facade with a structured
/// reason naming the failing checker condition.
///
//===----------------------------------------------------------------------===//

#include "compile/Compiler.h"
#include "compile/RunSpeculate.h"
#include "interp/NonSpecEval.h"
#include "interp/SpecMachine.h"
#include "lang/Parser.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

using namespace specpar;
using compile::CompiledProgram;

namespace {

struct DiffCase {
  const char *Dir;
  const char *File;
  int64_t Expected;
  /// Whether the admission gate should accept the program.
  bool Admissible;
  /// Whether the program's predictor is intentionally wrong, so the
  /// native counters must show mispredictions.
  bool ExpectMispredictions;
};

std::unique_ptr<lang::Program> load(const DiffCase &C) {
  std::string Path = std::string(C.Dir) + "/" + C.File;
  std::string Source;
  EXPECT_TRUE(readFileToString(Path, Source)) << Path;
  auto R = lang::parseProgram(Source);
  EXPECT_TRUE(bool(R)) << C.File << ": " << R.error();
  return R ? R.take() : nullptr;
}

class CompiledCorpus : public ::testing::TestWithParam<DiffCase> {};

TEST_P(CompiledCorpus, AllEnginesAgree) {
  const DiffCase &C = GetParam();
  auto P = load(C);
  ASSERT_NE(P, nullptr);

  // Ground truth: the non-speculative reference evaluator.
  interp::RunOutcome N = interp::runNonSpeculative(*P);
  ASSERT_TRUE(N.ok()) << C.File << ": " << N.statusStr();
  ASSERT_TRUE(N.Result.isInt()) << C.File;
  ASSERT_EQ(N.Result.asInt(), C.Expected) << C.File;

  compile::AdmissionReport Rep;
  auto Compiled = compile::compileProgram(*P, compile::CompileOptions(), &Rep);
  ASSERT_EQ(bool(Compiled), C.Admissible)
      << C.File << "\n" << (Compiled ? Rep.str() : Compiled.error());

  if (!C.Admissible) {
    // The refusal must be structured: the checker ran, named the failing
    // site/condition, and the facade transparently runs the reference
    // SpecMachine instead — identically to a direct seeded run.
    EXPECT_TRUE(Rep.CheckerRan) << C.File;
    EXPECT_FALSE(Rep.CheckerAccepted) << C.File;
    ASSERT_FALSE(Rep.UnsafeSites.empty()) << C.File;
    EXPECT_FALSE(Rep.UnsafeSites[0].FailedCondition.empty()) << C.File;
    EXPECT_NE(Rep.WhyNot.find("rollback checker rejected"), std::string::npos)
        << Rep.WhyNot;
    EXPECT_NE(Rep.WhyNot.find("condition"), std::string::npos) << Rep.WhyNot;

    compile::SpeculatePlan Plan;
    Plan.Machine.Seed = 7;
    compile::SpeculateRun R = compile::runSpeculate(*P, Plan);
    EXPECT_EQ(R.PathTaken, compile::SpeculateRun::Path::Interpreter)
        << C.File;
    EXPECT_EQ(R.WhyNotCompiled, Rep.WhyNot) << C.File;
    interp::MachineOptions MO;
    MO.Seed = 7;
    interp::SpecRunOutcome Ref = interp::runSpeculative(*P, MO);
    ASSERT_EQ(R.Outcome.St, Ref.St) << C.File;
    ASSERT_TRUE(Ref.Result.isInt()) << C.File;
    EXPECT_EQ(R.Outcome.Result.asInt(), Ref.Result.asInt()) << C.File;
    EXPECT_EQ(R.Outcome.Steps, Ref.Steps) << C.File;
    return;
  }

  // Compiled runs must reproduce the reference value across thread
  // counts and chunk sizes (misprediction-visible semantics: hints never
  // change the result, only the counters).
  for (unsigned Threads : {1u, 4u}) {
    for (int64_t Chunk : {1, 8}) {
      rt::SpecExecutor Ex(Threads);
      CompiledProgram::RunOptions RO;
      RO.Config.executor(Ex);
      RO.ChunkSize = Chunk;
      CompiledProgram::Outcome O = (*Compiled)->run(RO);
      ASSERT_TRUE(O.Run.ok())
          << C.File << " threads=" << Threads << " chunk=" << Chunk << ": "
          << O.Run.statusStr() << " " << O.Run.Error.Message;
      ASSERT_TRUE(O.ResultLowered) << C.File;
      ASSERT_TRUE(O.Run.Result.isInt()) << C.File;
      EXPECT_EQ(O.Run.Result.asInt(), C.Expected)
          << C.File << " threads=" << Threads << " chunk=" << Chunk;
    }
  }

  // The facade picks the compiled path and maps the native counters.
  compile::SpeculatePlan Plan;
  rt::SpecExecutor Ex(4);
  Plan.Run.Config.executor(Ex);
  Plan.Run.ChunkSize = 4;
  compile::SpeculateRun R = compile::runSpeculate(*P, Plan);
  EXPECT_EQ(R.PathTaken, compile::SpeculateRun::Path::Compiled) << C.File;
  ASSERT_TRUE(R.Outcome.ok()) << C.File;
  EXPECT_EQ(R.Outcome.Result.asInt(), C.Expected) << C.File;
  if (C.ExpectMispredictions) {
    EXPECT_GT(R.Outcome.Mispredictions, 0u) << C.File;
  }

  // Seeded SpecMachine runs agree with both.
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    interp::MachineOptions MO;
    MO.Seed = Seed;
    interp::SpecRunOutcome S = interp::runSpeculative(*P, MO);
    ASSERT_TRUE(S.ok()) << C.File << " seed " << Seed;
    ASSERT_TRUE(S.Result.isInt()) << C.File;
    EXPECT_EQ(S.Result.asInt(), C.Expected) << C.File << " seed " << Seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CompiledCorpus,
    ::testing::Values(
        DiffCase{SPECPAR_EXAMPLES_DIR, "01_hello_spec.spec", 84, true, false},
        DiffCase{SPECPAR_EXAMPLES_DIR, "02_running_sum.spec", 5050, true,
                 false},
        DiffCase{SPECPAR_EXAMPLES_DIR, "03_mispredict.spec", 3060, true,
                 true},
        DiffCase{SPECPAR_EXAMPLES_DIR, "04_slot_writes.spec", 680, true,
                 false},
        DiffCase{SPECPAR_EXAMPLES_DIR, "05_unsafe_counter.spec", 8, false,
                 false},
        DiffCase{SPECPAR_EXAMPLES_DIR, "06_parallel_pair.spec",
                 5050 + 338350, true, false},
        DiffCase{SPECPAR_EXAMPLES_DIR, "07_do_all.spec", 10416, true, false},
        DiffCase{SPECPAR_SPEC_DIR, "huffman.spec", 150150, true, false},
        DiffCase{SPECPAR_SPEC_DIR, "lexing.spec", 54800600, true, false},
        DiffCase{SPECPAR_SPEC_DIR, "mwis.spec", 3241383697LL, true, false}),
    [](const ::testing::TestParamInfo<DiffCase> &I) {
      std::string Name = I.param.File;
      for (char &Ch : Name)
        if (Ch == '.' || Ch == '-')
          Ch = '_';
      return Name;
    });

// The unsafe example's checker verdict names condition (a) specifically:
// the producer's cell writes race with speculative-consumer reads.
TEST(CompiledCorpus5Unsafe, FailingConditionIsConditionA) {
  DiffCase C{SPECPAR_EXAMPLES_DIR, "05_unsafe_counter.spec", 8, false, false};
  auto P = load(C);
  ASSERT_NE(P, nullptr);
  compile::AdmissionReport Rep;
  auto Compiled = compile::compileProgram(*P, compile::CompileOptions(), &Rep);
  ASSERT_FALSE(bool(Compiled));
  ASSERT_FALSE(Rep.UnsafeSites.empty());
  EXPECT_EQ(Rep.UnsafeSites[0].FailedCondition, "(a)") << Rep.str();
}

// A specfold whose range ends near INT64_MAX: with chunk 8 a segment's
// nominal end lies past INT64_MAX, so the runtime must clip it without
// overflowing. Every prediction but the first is wrong.
TEST(CompiledNearInt64Max, SpecfoldAgreesWithTheReferenceEvaluator) {
  auto R = lang::parseProgram("main = specfold(\\i acc. acc + 1, \\i. 0, "
                              "9223372036854775800, 9223372036854775805)");
  ASSERT_TRUE(bool(R)) << R.error();
  std::unique_ptr<lang::Program> P = R.take();
  interp::RunOutcome N = interp::runNonSpeculative(*P);
  ASSERT_TRUE(N.ok()) << N.statusStr();
  ASSERT_EQ(N.Result.asInt(), 6);
  auto Compiled = compile::compileProgram(*P, compile::CompileOptions());
  ASSERT_TRUE(bool(Compiled)) << Compiled.error();
  for (unsigned Threads : {1u, 4u}) {
    for (int64_t Chunk : {1, 4, 8}) {
      rt::SpecExecutor Ex(Threads);
      CompiledProgram::RunOptions RO;
      RO.Config.executor(Ex);
      RO.ChunkSize = Chunk;
      CompiledProgram::Outcome O = (*Compiled)->run(RO);
      ASSERT_TRUE(O.Run.ok()) << "threads=" << Threads << " chunk=" << Chunk
                              << ": " << O.Run.statusStr();
      EXPECT_EQ(O.Run.Result.asInt(), 6)
          << "threads=" << Threads << " chunk=" << Chunk;
    }
  }
}

// The serving catalog's Spec program at its largest scale. Every chunk
// draws a fuel batch for its own evaluation context; each context must
// give back what it did not spend, or 2^17 chunks of 8 burn far more
// than the 50M-step budget the reference evaluator finishes within.
TEST(CompiledFuel, CatalogSpecfoldAtTwoToTheTwentyFitsTheStepBudget) {
  const int64_t N = int64_t(1) << 20;
  auto R = lang::parseProgram(
      "main = specfold(\\i acc. acc + i * i,\n"
      "                \\i. ((i - 1) * i * (2 * i - 1)) / 6,\n"
      "                1, " + std::to_string(N) + ")");
  ASSERT_TRUE(bool(R)) << R.error();
  std::unique_ptr<lang::Program> P = R.take();
  auto Compiled = compile::compileProgram(*P, compile::CompileOptions());
  ASSERT_TRUE(bool(Compiled)) << Compiled.error();
  rt::SpecExecutor Ex(1);
  CompiledProgram::RunOptions RO;
  RO.Config.executor(Ex);
  RO.ChunkSize = 8;
  CompiledProgram::Outcome O = (*Compiled)->run(RO);
  ASSERT_TRUE(O.Run.ok()) << O.Run.statusStr();
  EXPECT_EQ(O.Run.Result.asInt(), N * (N + 1) * (2 * N + 1) / 6);
  EXPECT_LT(O.Run.Steps, RO.MaxSteps);
}

} // namespace
