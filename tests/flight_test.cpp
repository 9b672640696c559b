//===- tests/flight_test.cpp - Flight recorder & causal tracing tests -----===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Tests for the runtime observability layer: the always-on
/// `rt::FlightRecorder` (retention window, atomic anomaly dumps, dump
/// rate-limiting), the `Tracer` addition it builds on (explicit per-ring
/// drop counters), and `TraceContext` stamping on recorded events.
///
//===----------------------------------------------------------------------===//

#include "runtime/FlightRecorder.h"
#include "runtime/Speculation.h"
#include "support/Json.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace specpar;
using namespace specpar::rt;
namespace fs = std::filesystem;

namespace {

/// A fresh scratch directory under the system temp dir, removed on
/// scope exit so test runs never accrete dump files.
struct ScratchDir {
  fs::path Path;
  explicit ScratchDir(const std::string &Tag) {
    Path = fs::temp_directory_path() /
           ("specpar-flight-test-" + Tag + "-" +
            std::to_string(static_cast<unsigned long long>(::getpid())));
    fs::remove_all(Path);
  }
  ~ScratchDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
};

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

//===----------------------------------------------------------------------===//
// Tracer additions
//===----------------------------------------------------------------------===//

TEST(Tracer, ExplicitDropCountersSurviveOverwrite) {
  Tracer T(/*RingCapacity=*/16);
  for (int I = 0; I < 40; ++I)
    T.record(SpecEventKind::Dispatch, I, /*AttemptId=*/1);
  EXPECT_EQ(T.recordedEvents(), 40u);
  EXPECT_EQ(T.droppedEvents(), 24u); // 40 recorded - 16 retained
  EXPECT_EQ(T.snapshot().size(), 16u);
  // The loss is visible to a human reader too, with a per-ring split.
  const std::string S = T.summary();
  EXPECT_NE(S.find("dropped=24"), std::string::npos) << S;
  EXPECT_NE(S.find("t0=24"), std::string::npos) << S;
}

TEST(Tracer, TraceContextIsStampedOnRuntimeEvents) {
  // Drive a real speculative run with a TraceContext set: every event
  // the runtime records must carry it.
  auto Ex = SpecExecutor::create(2);
  Tracer T;
  TraceContext Ctx{42, 2, 5};
  SpecConfig Cfg;
  Cfg.executor(Ex).trace(&T).traceContext(Ctx);
  auto R = Speculation::iterate<int64_t>(
      0, 64, [](int64_t I, int64_t A) { return A + I; },
      [](int64_t I) { return I * (I - 1) / 2; }, Cfg);
  EXPECT_EQ(R.Value, 64 * 63 / 2);
  std::vector<SpecEvent> Events = T.snapshot();
  ASSERT_FALSE(Events.empty());
  for (const SpecEvent &E : Events) {
    EXPECT_EQ(E.JobId, 42u);
    EXPECT_EQ(E.SpanId, 2u);
    EXPECT_EQ(E.Tenant, 5u);
  }
}

//===----------------------------------------------------------------------===//
// FlightRecorder
//===----------------------------------------------------------------------===//

TEST(FlightRecorder, RetentionWindowAgesOutOldEvents) {
  FlightRecorder::Options O;
  O.Retain = std::chrono::milliseconds(50);
  FlightRecorder FR(O);
  EXPECT_EQ(FR.windowSpan().count(), 0);
  FR.tracer().record(SpecEventKind::Dispatch, 0, 1);
  EXPECT_EQ(FR.recentEvents().size(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  // The quiet ring still holds the first event, but the window it is
  // reported over never reaches past Retain.
  EXPECT_EQ(FR.windowSpan().count(), 0);
  FR.tracer().record(SpecEventKind::Finish, 1, 1);
  // The first event fell out of the window; the fresh one remains.
  std::vector<SpecEvent> Recent = FR.recentEvents();
  ASSERT_EQ(Recent.size(), 1u);
  EXPECT_EQ(Recent[0].Kind, SpecEventKind::Finish);
  EXPECT_LE(FR.windowSpan(), O.Retain);
}

TEST(FlightRecorder, WindowCutsThroughWrappedRings) {
  FlightRecorder::Options O;
  O.RingCapacity = 16;
  O.Retain = std::chrono::milliseconds(50);
  FlightRecorder FR(O);
  // 20 old events wrap the 16-slot ring; 5 fresh ones follow, so the
  // window starts in the middle of the ring's retained slots.
  for (int I = 0; I < 20; ++I)
    FR.tracer().record(SpecEventKind::Dispatch, I, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  const uint64_t FreshFrom = FR.tracer().elapsedNs();
  for (int I = 0; I < 5; ++I)
    FR.tracer().record(SpecEventKind::Finish, I, 1);
  std::thread([&FR] { FR.tracer().record(SpecEventKind::Cancel, 9, 2); })
      .join();

  std::vector<SpecEvent> Recent = FR.recentEvents();
  ASSERT_EQ(Recent.size(), 6u);
  for (const SpecEvent &E : Recent)
    EXPECT_NE(E.Kind, SpecEventKind::Dispatch);
  EXPECT_TRUE(std::is_sorted(
      Recent.begin(), Recent.end(),
      [](const SpecEvent &A, const SpecEvent &B) { return A.Seq < B.Seq; }));
  size_t Visited = 0;
  FR.forEachRecentEvent([&Visited](const SpecEvent &) { ++Visited; });
  EXPECT_EQ(Visited, Recent.size());

  const std::chrono::nanoseconds Span = FR.windowSpan();
  const uint64_t Now = FR.tracer().elapsedNs();
  EXPECT_GT(Span.count(), 0);
  EXPECT_LE(static_cast<uint64_t>(Span.count()), Now - FreshFrom)
      << "the window reaches back to the oldest fresh event only";
}

TEST(FlightRecorder, DumpWritesValidChromeTraceAndSummary) {
  ScratchDir Dir("dump");
  FlightRecorder::Options O;
  O.DumpDir = Dir.Path.string();
  O.Label = "testshard";
  FlightRecorder FR(O);
  const uint64_t AId = FR.tracer().newAttemptId();
  FR.tracer().record(SpecEventKind::Start, 5, AId, TraceContext{9, 1});
  FR.tracer().record(SpecEventKind::Finish, 5, AId, TraceContext{9, 1});

  FlightRecorder::DumpResult D = FR.dump("unit-test", "why not");
  ASSERT_TRUE(D.Written);
  EXPECT_EQ(FR.dumpsWritten(), 1u);
  EXPECT_EQ(FR.dumpRequests(), 1u);

  const std::string Trace = slurp(D.TracePath);
  std::string Err;
  EXPECT_TRUE(validateJson(Trace, &Err)) << Err;
  // The attempt pair renders as one duration slice carrying the job id.
  EXPECT_NE(Trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Trace.find("\"job\":9"), std::string::npos);
  const std::string Summary = slurp(D.SummaryPath);
  EXPECT_NE(Summary.find("reason=unit-test"), std::string::npos);
  EXPECT_NE(Summary.find("why not"), std::string::npos);
  // No temp files left behind by the atomic write.
  for (const auto &Entry : fs::directory_iterator(Dir.Path))
    EXPECT_EQ(Entry.path().filename().string().find(".tmp."),
              std::string::npos);
}

TEST(FlightRecorder, UnfinishedAttemptSurvivesIntoTheDump) {
  // The event a quarantine post-mortem is about — a Start whose Finish
  // never came — must not vanish from the export.
  ScratchDir Dir("open");
  FlightRecorder::Options O;
  O.DumpDir = Dir.Path.string();
  FlightRecorder FR(O);
  FR.tracer().record(SpecEventKind::Start, 3, 77, TraceContext{4, 1});
  FlightRecorder::DumpResult D = FR.dump("wedged");
  ASSERT_TRUE(D.Written);
  const std::string Trace = slurp(D.TracePath);
  std::string Err;
  EXPECT_TRUE(validateJson(Trace, &Err)) << Err;
  EXPECT_NE(Trace.find("unfinished"), std::string::npos) << Trace;
  EXPECT_NE(Trace.find("\"job\":4"), std::string::npos);
}

TEST(FlightRecorder, MinDumpGapRateLimitsAndCountsSuppressions) {
  ScratchDir Dir("gap");
  FlightRecorder::Options O;
  O.DumpDir = Dir.Path.string();
  O.MinDumpGap = std::chrono::hours(1);
  FlightRecorder FR(O);
  FR.tracer().record(SpecEventKind::Dispatch, 0, 1);
  EXPECT_TRUE(FR.dump("first").Written);
  EXPECT_FALSE(FR.dump("second").Written);
  EXPECT_EQ(FR.dumpRequests(), 2u);
  EXPECT_EQ(FR.dumpsWritten(), 1u);
  EXPECT_EQ(FR.dumpsSuppressed(), 1u);
}

TEST(FlightRecorder, NoDumpDirMeansInMemoryOnly) {
  FlightRecorder FR; // default options: no DumpDir
  FR.tracer().record(SpecEventKind::Dispatch, 0, 1);
  FlightRecorder::DumpResult D = FR.dump("anomaly");
  EXPECT_FALSE(D.Written);
  EXPECT_EQ(FR.dumpRequests(), 1u);
  EXPECT_EQ(FR.dumpsWritten(), 0u);
  // The window is still serviceable for /debug/trace-style reads.
  EXPECT_EQ(FR.recentEvents().size(), 1u);
}

} // namespace
