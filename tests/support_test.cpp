//===- tests/support_test.cpp - Support library unit tests ----------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Casting.h"
#include "support/CommandLine.h"
#include "support/Result.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

using namespace specpar;

namespace {

//===----------------------------------------------------------------------===//
// Casting
//===----------------------------------------------------------------------===//

struct Base {
  enum class Kind { A, B } K;
  explicit Base(Kind K) : K(K) {}
};
struct DerivedA : Base {
  DerivedA() : Base(Kind::A) {}
  static bool classof(const Base *B) { return B->K == Kind::A; }
};
struct DerivedB : Base {
  DerivedB() : Base(Kind::B) {}
  static bool classof(const Base *B) { return B->K == Kind::B; }
};

TEST(Casting, IsaCastDynCast) {
  DerivedA A;
  Base *B = &A;
  EXPECT_TRUE(isa<DerivedA>(B));
  EXPECT_FALSE(isa<DerivedB>(B));
  EXPECT_TRUE((isa<DerivedB, DerivedA>(B)));
  EXPECT_EQ(cast<DerivedA>(B), &A);
  EXPECT_EQ(dyn_cast<DerivedB>(B), nullptr);
  EXPECT_EQ(dyn_cast<DerivedA>(B), &A);
  Base *Null = nullptr;
  EXPECT_EQ(dyn_cast_if_present<DerivedA>(Null), nullptr);
}

//===----------------------------------------------------------------------===//
// Result
//===----------------------------------------------------------------------===//

Result<int> parsePositive(int V) {
  if (V <= 0)
    return ResultError("not positive");
  return V;
}

TEST(Result, SuccessAndError) {
  Result<int> Ok = parsePositive(5);
  ASSERT_TRUE(bool(Ok));
  EXPECT_EQ(*Ok, 5);
  Result<int> Bad = parsePositive(-1);
  ASSERT_FALSE(bool(Bad));
  EXPECT_EQ(Bad.error(), "not positive");
}

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(Rng, DeterministicAcrossInstances) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, RangesRespectBounds) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    EXPECT_LT(R.nextBelow(10), 10u);
    int64_t V = R.nextInRange(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Rng, SplitStreamsDiffer) {
  Rng A(9);
  Rng B = A.split();
  bool AnyDifferent = false;
  Rng A2(9);
  for (int I = 0; I < 10; ++I)
    AnyDifferent |= (A2.next() != B.next());
  EXPECT_TRUE(AnyDifferent);
}

//===----------------------------------------------------------------------===//
// Strings
//===----------------------------------------------------------------------===//

TEST(StringUtils, SplitJoinTrim) {
  std::vector<std::string> Parts = splitString("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(joinStrings(Parts, "-"), "a-b--c");
  EXPECT_EQ(trimString("  x y\t\n"), "x y");
  EXPECT_TRUE(startsWith("foobar", "foo"));
  EXPECT_FALSE(startsWith("fo", "foo"));
  EXPECT_EQ(formatString("%d-%s", 3, "x"), "3-x");
}

TEST(StringUtils, FileRoundTrip) {
  std::string Path = ::testing::TempDir() + "/specpar_support_test.txt";
  ASSERT_TRUE(writeStringToFile(Path, "hello\x00world"));
  std::string Back;
  ASSERT_TRUE(readFileToString(Path, Back));
  EXPECT_EQ(Back, "hello\x00world");
  EXPECT_FALSE(readFileToString("/nonexistent/none", Back));
}

//===----------------------------------------------------------------------===//
// ArgParser
//===----------------------------------------------------------------------===//

TEST(ArgParser, FlagsOptionsPositionals) {
  ArgParser Args("tool", "test tool");
  bool *Trace = Args.flag("trace", "show trace");
  int64_t *Seed = Args.intOption("seed", 7, "seed");
  std::string *Sched = Args.strOption("sched", "random", "scheduler");
  std::string *File = Args.positional("file", "input");
  std::string *Extra = Args.optionalPositional("extra", "none", "optional");
  const char *Argv[] = {"tool", "--trace", "--seed", "42",
                        "--sched=rr", "prog.spec"};
  ASSERT_TRUE(Args.parse(6, const_cast<char **>(Argv)));
  EXPECT_TRUE(*Trace);
  EXPECT_EQ(*Seed, 42);
  EXPECT_EQ(*Sched, "rr");
  EXPECT_EQ(*File, "prog.spec");
  EXPECT_EQ(*Extra, "none");
}

TEST(ArgParser, DefaultsSurviveEmptyArgv) {
  ArgParser Args("tool", "t");
  int64_t *Seed = Args.intOption("seed", 5, "s");
  const char *Argv[] = {"tool"};
  ASSERT_TRUE(Args.parse(1, const_cast<char **>(Argv)));
  EXPECT_EQ(*Seed, 5);
}

TEST(ArgParser, Failures) {
  {
    ArgParser Args("tool", "t");
    Args.intOption("seed", 0, "s");
    const char *Argv[] = {"tool", "--seed", "abc"};
    EXPECT_FALSE(Args.parse(3, const_cast<char **>(Argv)));
    EXPECT_FALSE(Args.helpRequested());
  }
  {
    ArgParser Args("tool", "t");
    const char *Argv[] = {"tool", "--nope"};
    EXPECT_FALSE(Args.parse(2, const_cast<char **>(Argv)));
  }
  {
    ArgParser Args("tool", "t");
    Args.positional("file", "f");
    const char *Argv[] = {"tool"};
    EXPECT_FALSE(Args.parse(1, const_cast<char **>(Argv)));
  }
  {
    ArgParser Args("tool", "t");
    const char *Argv[] = {"tool", "--help"};
    EXPECT_FALSE(Args.parse(2, const_cast<char **>(Argv)));
    EXPECT_TRUE(Args.helpRequested());
  }
}

TEST(ArgParser, IntOptionRangeIsInclusive) {
  // The ranges the speculate_repl and specd binaries declare.
  struct Bound {
    const char *Name;
    int64_t Min, Max;
  };
  const Bound Bounds[] = {{"threads", 0, 256},
                          {"shards", 0, 64},
                          {"threads-per-shard", 0, 256},
                          {"queue", 1, 1048576},
                          {"port", 0, 65535}};
  for (const Bound &B : Bounds) {
    auto Parses = [&B](int64_t V, int64_t *Out) {
      ArgParser Args("tool", "t");
      int64_t *Opt = Args.intOption(B.Name, B.Min, "o", B.Min, B.Max);
      const std::string Flag = std::string("--") + B.Name;
      const std::string Val = std::to_string(V);
      const char *Argv[] = {"tool", Flag.c_str(), Val.c_str()};
      const bool Ok = Args.parse(3, const_cast<char **>(Argv));
      EXPECT_FALSE(Args.helpRequested());
      *Out = *Opt;
      return Ok;
    };
    int64_t Got = 0;
    EXPECT_FALSE(Parses(B.Min - 1, &Got)) << B.Name;
    EXPECT_EQ(Got, B.Min) << "a rejected value leaves the default";
    EXPECT_TRUE(Parses(B.Min, &Got)) << B.Name;
    EXPECT_EQ(Got, B.Min);
    EXPECT_TRUE(Parses(B.Max, &Got)) << B.Name;
    EXPECT_EQ(Got, B.Max);
    EXPECT_FALSE(Parses(B.Max + 1, &Got)) << B.Name;
    EXPECT_EQ(Got, B.Min);
  }
}

TEST(ArgParser, IntOptionDefaultRangeIsAllOfInt64) {
  for (const char *V : {"-9223372036854775808", "9223372036854775807"}) {
    ArgParser Args("tool", "t");
    int64_t *Seed = Args.intOption("seed", 0, "s");
    const char *Argv[] = {"tool", "--seed", V};
    ASSERT_TRUE(Args.parse(3, const_cast<char **>(Argv))) << V;
    EXPECT_EQ(std::to_string(*Seed), V);
  }
  // Values past int64 and empty values are not integers.
  for (const char *V : {"9223372036854775808", ""}) {
    ArgParser Args("tool", "t");
    Args.intOption("seed", 0, "s");
    const char *Argv[] = {"tool", "--seed", V};
    EXPECT_FALSE(Args.parse(3, const_cast<char **>(Argv))) << V;
  }
}

TEST(ArgParser, HelpTextMentionsEverything) {
  ArgParser Args("tool", "does things");
  Args.flag("trace", "show trace");
  Args.intOption("seed", 1, "the seed");
  Args.positional("file", "the file");
  std::string H = Args.helpText();
  EXPECT_NE(H.find("usage: tool"), std::string::npos);
  EXPECT_NE(H.find("--trace"), std::string::npos);
  EXPECT_NE(H.find("--seed"), std::string::npos);
  EXPECT_NE(H.find("<file>"), std::string::npos);
  EXPECT_NE(H.find("default 1"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Timer / memory probes
//===----------------------------------------------------------------------===//

TEST(Timer, MonotoneElapsed) {
  Timer T;
  double E1 = T.elapsedSeconds();
  double E2 = T.elapsedSeconds();
  EXPECT_GE(E1, 0.0);
  EXPECT_GE(E2, E1);
  T.reset();
  EXPECT_GE(T.elapsedSeconds(), 0.0);
}

TEST(Timer, MemoryProbesReportSomething) {
  EXPECT_GT(peakMemoryKB(), 0u);
  EXPECT_GT(currentMemoryKB(), 0u);
}

} // namespace
