//===- tests/robustness_test.cpp - Fault injection & fallback tests -------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The robustness layer: FaultPlan determinism, the exception contracts of
// user callbacks (predictor/comparator/finalizer), cooperative deadlines
// with SpecTimeoutError and the no-leaked-task drain guarantee, spurious
// cancellation safety, and the adaptive sequential fallback.
//
//===----------------------------------------------------------------------===//

#include "runtime/FaultPlan.h"
#include "runtime/Speculation.h"
#include "runtime/Telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace specpar;
using namespace specpar::rt;

namespace {

/// Sequential oracle for the iterate sum used throughout: Acc starts at 0
/// and each iteration adds I.
int64_t sumOracle(int64_t N) { return N * (N - 1) / 2; }

/// Exact predictor for the sum loop (all predictions correct).
int64_t sumPredict(int64_t I) { return I * (I - 1) / 2; }

int countEvents(const std::vector<SpecEvent> &Events, SpecEventKind K) {
  int C = 0;
  for (const SpecEvent &E : Events)
    C += E.Kind == K;
  return C;
}

//===----------------------------------------------------------------------===//
// FaultPlan
//===----------------------------------------------------------------------===//

TEST(FaultPlan, UnarmedSitesNeverFireButCountProbes) {
  FaultPlan Plan(42);
  for (int I = 0; I < 1000; ++I)
    EXPECT_FALSE(Plan.shouldFire(FaultSite::BodyThrow));
  EXPECT_EQ(Plan.probes(FaultSite::BodyThrow), 1000u);
  EXPECT_EQ(Plan.fired(FaultSite::BodyThrow), 0u);
  EXPECT_EQ(Plan.totalFired(), 0u);
}

TEST(FaultPlan, DecisionSequenceIsDeterministicPerSeed) {
  auto Draw = [](uint64_t Seed, int N) {
    FaultPlan Plan(Seed);
    Plan.arm(FaultSite::BodyThrow, 0.3);
    std::vector<bool> Out;
    for (int I = 0; I < N; ++I)
      Out.push_back(Plan.shouldFire(FaultSite::BodyThrow));
    return Out;
  };
  EXPECT_EQ(Draw(7, 500), Draw(7, 500));
  EXPECT_NE(Draw(7, 500), Draw(8, 500));
}

TEST(FaultPlan, ArmingOneSiteNeverShiftsAnotherSitesSequence) {
  // Site sequences are independent: probing BodyThrow between the
  // ComparatorThrow probes, armed or not, must not change what the
  // ComparatorThrow probes decide.
  auto DrawCmp = [](bool AlsoArmBody) {
    FaultPlan Plan(99);
    Plan.arm(FaultSite::ComparatorThrow, 0.4);
    if (AlsoArmBody)
      Plan.arm(FaultSite::BodyThrow, 0.9);
    std::vector<bool> Out;
    for (int I = 0; I < 200; ++I) {
      Plan.shouldFire(FaultSite::BodyThrow); // interleaved probes
      Out.push_back(Plan.shouldFire(FaultSite::ComparatorThrow));
    }
    return Out;
  };
  EXPECT_EQ(DrawCmp(false), DrawCmp(true));
}

TEST(FaultPlan, FiringRateTracksProbability) {
  FaultPlan Plan(123);
  Plan.arm(FaultSite::SpuriousCancel, 0.25);
  const int N = 20000;
  int Fired = 0;
  for (int I = 0; I < N; ++I)
    Fired += Plan.shouldFire(FaultSite::SpuriousCancel);
  EXPECT_NEAR(static_cast<double>(Fired) / N, 0.25, 0.02);
  EXPECT_EQ(Plan.fired(FaultSite::SpuriousCancel),
            static_cast<uint64_t>(Fired));
}

TEST(FaultPlan, MaybeThrowCarriesSiteAndProbe) {
  FaultPlan Plan(5);
  Plan.arm(FaultSite::PredictorThrow, 1.0);
  try {
    Plan.maybeThrow(FaultSite::PredictorThrow);
    FAIL() << "expected SpecFaultError";
  } catch (const SpecFaultError &E) {
    EXPECT_EQ(E.Site, FaultSite::PredictorThrow);
    EXPECT_EQ(E.Probe, 1u);
    EXPECT_NE(std::string(E.what()).find("predictor-throw"),
              std::string::npos);
  }
}

TEST(FaultPlan, StrNamesSeedAndArmedSites) {
  FaultPlan Plan(77);
  Plan.arm(FaultSite::ForceMispredict, 0.5);
  Plan.shouldFire(FaultSite::ForceMispredict);
  std::string S = Plan.str();
  EXPECT_NE(S.find("77"), std::string::npos);
  EXPECT_NE(S.find("force-mispredict"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Comparator exception contract (satellite: a throwing user equality is a
// failed prediction, never a propagated error)
//===----------------------------------------------------------------------===//

TEST(Iterate, ThrowingUserComparatorIsFailedPredictionNotError) {
  const int64_t N = 12;
  struct ThrowingEq {
    bool operator()(int64_t, int64_t) const {
      throw std::runtime_error("user comparator failure");
    }
  };
  SpeculationStats Stats;
  int64_t Value = 0;
  ASSERT_NO_THROW({
    SpecExecutor Ex(2);
    auto R = Speculation::iterate<int64_t>(
        0, N, [](int64_t I, int64_t A) { return A + I; }, sumPredict,
        SpecConfig().executor(Ex), ThrowingEq{});
    Value = R.Value;
    Stats = R.Stats;
  });
  EXPECT_EQ(Value, sumOracle(N));
  // Every prediction point after the first resolved without a usable
  // comparison, and nothing counted as a misprediction.
  EXPECT_EQ(Stats.Predictions, N - 1);
  EXPECT_EQ(Stats.FailedPredictions, N - 1);
  EXPECT_EQ(Stats.Mispredictions, 0);
  // The pessimistic path re-executes every iteration in order.
  EXPECT_EQ(Stats.Reexecutions, N);
}

TEST(Iterate, InjectedComparatorThrowNeverPropagates) {
  const int64_t N = 16;
  FaultPlan Plan(2024);
  Plan.arm(FaultSite::ComparatorThrow, 1.0);
  SpecExecutor Ex(2);
  auto R = Speculation::iterate<int64_t>(
      0, N, [](int64_t I, int64_t A) { return A + I; }, sumPredict,
      SpecConfig().executor(Ex).faults(&Plan));
  EXPECT_EQ(R.Value, sumOracle(N));
  EXPECT_EQ(R.Stats.FailedPredictions, N - 1);
  EXPECT_EQ(R.Stats.Mispredictions, 0);
  EXPECT_GT(Plan.fired(FaultSite::ComparatorThrow), 0u);
}

TEST(Apply, ThrowingUserComparatorIsFailedPredictionNotError) {
  struct ThrowingEq {
    bool operator()(int, int) const { throw std::runtime_error("cmp"); }
  };
  std::atomic<int> Consumed{-1};
  SpecResult<void> R;
  ASSERT_NO_THROW({
    SpecExecutor Ex(2);
    R = Speculation::apply<int>(
        /*Producer=*/[] { return 41; },
        /*Predictor=*/[] { return 41; },
        /*Consumer=*/[&Consumed](int V) { Consumed = V; },
        SpecConfig().executor(Ex), ThrowingEq{});
  });
  // The re-execution delivered the *produced* value.
  EXPECT_EQ(Consumed.load(), 41);
  EXPECT_EQ(R.Stats.FailedPredictions, 1);
  EXPECT_EQ(R.Stats.Mispredictions, 0);
  EXPECT_EQ(R.Stats.Reexecutions, 1);
}

//===----------------------------------------------------------------------===//
// Predictor / body fault injection
//===----------------------------------------------------------------------===//

TEST(Iterate, InjectedPredictorThrowIsFailedPrediction) {
  const int64_t N = 10;
  FaultPlan Plan(31);
  Plan.arm(FaultSite::PredictorThrow, 1.0);
  SpecExecutor Ex(2);
  auto R = Speculation::iterate<int64_t>(
      0, N, [](int64_t I, int64_t A) { return A + I; }, sumPredict,
      SpecConfig().executor(Ex).faults(&Plan));
  EXPECT_EQ(R.Value, sumOracle(N));
  // Every speculative prediction failed, so only iteration 0 (whose
  // initial value is non-speculative) dispatched an attempt.
  EXPECT_EQ(R.Stats.Tasks, 1);
  EXPECT_EQ(R.Stats.FailedPredictions, N - 1);
  EXPECT_EQ(R.Stats.Reexecutions, N - 1);
}

TEST(Iterate, InjectedBodyThrowPropagatesWithStatsOut) {
  const int64_t N = 8;
  FaultPlan Plan(7);
  Plan.arm(FaultSite::BodyThrow, 1.0);
  stats::Snapshot Snap;
  SpecExecutor Ex(2);
  EXPECT_THROW(
      Speculation::iterate<int64_t>(
          0, N, [](int64_t I, int64_t A) { return A + I; }, sumPredict,
          SpecConfig().executor(Ex).faults(&Plan).statsOut(&Snap)),
      SpecFaultError);
  // statsOut() published the partial statistics despite the throw.
  EXPECT_GE(Snap.Spec.Tasks, 1);
}

//===----------------------------------------------------------------------===//
// Spurious cancellation
//===----------------------------------------------------------------------===//

TEST(Iterate, SpuriousCancellationNeverCorruptsTheResult) {
  const int64_t N = 64;
  for (uint64_t Seed : {1u, 2u, 3u}) {
    FaultPlan Plan(Seed);
    Plan.arm(FaultSite::SpuriousCancel, 0.5);
    SpecExecutor Ex(4);
    auto R = Speculation::iterate<int64_t>(
        0, N,
        [](int64_t I, int64_t A) {
          // Bail with a *garbage* value when cancellation is observed:
          // the validator must still never accept it.
          if (currentTaskCancelled())
            return int64_t(-999999);
          return A + I;
        },
        sumPredict, SpecConfig().executor(Ex).faults(&Plan));
    EXPECT_EQ(R.Value, sumOracle(N)) << "seed " << Seed;
  }
}

TEST(Apply, SpuriousCancellationReexecutesWithProducedValue) {
  FaultPlan Plan(11);
  Plan.arm(FaultSite::SpuriousCancel, 1.0);
  std::atomic<int> Sum{0};
  std::atomic<int> Runs{0};
  SpecExecutor Ex(2);
  auto R = Speculation::apply<int>(
      /*Producer=*/[] { return 10; },
      /*Predictor=*/[] { return 10; },
      /*Consumer=*/
      [&](int V) {
        ++Runs;
        Sum += V;
      },
      SpecConfig().executor(Ex).faults(&Plan));
  // The speculative consumer was cancelled before it ran; the validated
  // path re-executed exactly once with the real value.
  EXPECT_EQ(Runs.load(), 1);
  EXPECT_EQ(Sum.load(), 10);
  EXPECT_EQ(R.Stats.Reexecutions, 1);
}

//===----------------------------------------------------------------------===//
// Cooperative deadlines
//===----------------------------------------------------------------------===//

TEST(Iterate, DeadlineThrowsSpecTimeoutErrorAndLeaksNoTask) {
  const int64_t N = 4;
  SpecExecutor Ex(2);
  Tracer Tr;
  stats::Snapshot Snap;
  std::atomic<int> BodiesStarted{0};
  auto SlowBody = [&BodiesStarted](int64_t I, int64_t A) {
    ++BodiesStarted;
    // ~100ms of work unless cancellation (here: the deadline) is
    // observed.
    for (int Step = 0; Step < 20; ++Step) {
      if (currentTaskCancelled())
        return int64_t(-1);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return A + I;
  };
  try {
    Speculation::iterate<int64_t>(
        0, N, SlowBody, sumPredict,
        SpecConfig()
            .executor(Ex)
            .deadline(std::chrono::milliseconds(25))
            .trace(&Tr)
            .statsOut(&Snap));
    FAIL() << "expected SpecTimeoutError";
  } catch (const SpecTimeoutError &E) {
    EXPECT_EQ(E.Budget, std::chrono::nanoseconds(
                            std::chrono::milliseconds(25)));
  }
  // The drain guarantee: by the time the exception propagated, every
  // submitted task has retired — the executor is already idle, so
  // waitIdle() returns immediately and destruction has nothing to join
  // but the workers.
  Ex.waitIdle();
  EXPECT_GT(BodiesStarted.load(), 0);
  EXPECT_GE(Snap.Spec.Tasks, 1); // statsOut survived the throw
  EXPECT_GE(countEvents(Tr.snapshot(), SpecEventKind::Timeout), 1);
}

TEST(Iterate, NoDeadlineByDefault) {
  SpecExecutor Ex(2);
  auto R = Speculation::iterate<int64_t>(
      0, 16, [](int64_t I, int64_t A) { return A + I; }, sumPredict,
      SpecConfig().executor(Ex));
  EXPECT_EQ(R.Value, sumOracle(16));
}

TEST(Apply, DeadlineThrowsSpecTimeoutError) {
  SpecExecutor Ex(2);
  EXPECT_THROW(
      Speculation::apply<int>(
          /*Producer=*/[] { return 1; },
          /*Predictor=*/
          [] {
            // A predictor that blows straight through the budget (it has
            // no cancellation to poll — the run must time out at the
            // validator's wait instead).
            std::this_thread::sleep_for(std::chrono::milliseconds(80));
            return 1;
          },
          /*Consumer=*/[](int) {},
          SpecConfig().executor(Ex).deadline(std::chrono::milliseconds(10))),
      SpecTimeoutError);
  Ex.waitIdle();
}

TEST(Apply, DeadlineExpiredAtCheckStepThrowsSpecTimeoutError) {
  // The producer alone overruns the budget. As in iterate's validation,
  // the check step must report the timeout: neither accept the finished
  // speculative consumer (correct guess) nor re-execute it once the
  // budget is gone (wrong guess).
  SpecExecutor Ex(2);
  for (int Guess : {1, 2}) {
    Tracer Tr;
    stats::Snapshot Snap;
    std::atomic<int> SawProduced{0};
    EXPECT_THROW(
        Speculation::apply<int>(
            /*Producer=*/
            [] {
              std::this_thread::sleep_for(std::chrono::milliseconds(30));
              return 1;
            },
            /*Predictor=*/[Guess] { return Guess; },
            /*Consumer=*/
            [&SawProduced, Guess](int V) {
              if (V == 1 && Guess != 1)
                ++SawProduced;
            },
            SpecConfig()
                .executor(Ex)
                .deadline(std::chrono::milliseconds(5))
                .trace(&Tr)
                .statsOut(&Snap)),
        SpecTimeoutError)
        << "guess " << Guess;
    // The speculative task was drained before the throw.
    Ex.waitIdle();
    EXPECT_EQ(SawProduced.load(), 0) << "guess " << Guess;
    EXPECT_EQ(Snap.Spec.Reexecutions, 0) << "guess " << Guess;
    EXPECT_EQ(countEvents(Tr.snapshot(), SpecEventKind::Timeout), 1)
        << "guess " << Guess;
    EXPECT_EQ(countEvents(Tr.snapshot(), SpecEventKind::ValidateAccept), 0)
        << "guess " << Guess;
  }
}

//===----------------------------------------------------------------------===//
// Adaptive sequential fallback (degradation)
//===----------------------------------------------------------------------===//

TEST(Iterate, ForcedMispredictionStormDegradesWithCorrectResult) {
  const int64_t N = 32;
  FaultPlan Plan(555);
  Plan.arm(FaultSite::ForceMispredict, 1.0);
  Tracer Tr;
  SpecExecutor Ex(2);
  auto R = Speculation::iterate<int64_t>(
      0, N, [](int64_t I, int64_t A) { return A + I; }, sumPredict,
      SpecConfig().executor(Ex).faults(&Plan).degrade(0.5, 4).trace(&Tr));
  EXPECT_EQ(R.Value, sumOracle(N));
  // Every boundary before the trip was a forced misprediction; once the
  // window (4) saturated past rate 0.5 the run degraded and executed the
  // rest in order, exactly once each.
  EXPECT_GT(R.Stats.Mispredictions, 0);
  EXPECT_GT(R.Stats.DegradedChunks, 0);
  EXPECT_GE(R.Stats.DegradedChunks, N - 8);
  auto Events = Tr.snapshot();
  EXPECT_EQ(countEvents(Events, SpecEventKind::Degrade),
            static_cast<int>(R.Stats.DegradedChunks));
  // Every slot but the accepted first one resolved as exactly one of
  // re-execution (pre-trip forced mispredictions) or degraded in-order
  // execution — a degraded chunk is never also re-executed.
  EXPECT_EQ(R.Stats.Reexecutions + R.Stats.DegradedChunks, N - 1);
}

TEST(Iterate, ForcedMispredictionsWithoutDegradeStayCorrect) {
  const int64_t N = 16;
  FaultPlan Plan(9);
  Plan.arm(FaultSite::ForceMispredict, 1.0);
  SpecExecutor Ex(2);
  auto R = Speculation::iterate<int64_t>(
      0, N, [](int64_t I, int64_t A) { return A + I; }, sumPredict,
      SpecConfig().executor(Ex).faults(&Plan));
  EXPECT_EQ(R.Value, sumOracle(N));
  EXPECT_EQ(R.Stats.Mispredictions, N - 1);
  EXPECT_EQ(R.Stats.Reexecutions, N - 1);
  EXPECT_EQ(R.Stats.DegradedChunks, 0);
}

TEST(Iterate, DegradeIsOffByDefault) {
  // A maximally mispredicting run without degrade() never degrades.
  const int64_t N = 24;
  SpecExecutor Ex(2);
  auto R = Speculation::iterate<int64_t>(
      0, N, [](int64_t I, int64_t A) { return A + I; },
      [](int64_t I) { return I == 0 ? int64_t(0) : int64_t(-1); },
      SpecConfig().executor(Ex));
  EXPECT_EQ(R.Value, sumOracle(N));
  EXPECT_EQ(R.Stats.DegradedChunks, 0);
  EXPECT_EQ(R.Stats.Mispredictions, N - 1);
}

TEST(IterateChunked, DegradeAfterAutotuneResizeReconcilesWithTrace) {
  // Autotune and degrade interact: the all-bad first wave makes the
  // autotuner halve the chunk, then the widened degrade window trips
  // *after* the resize — so the degraded tail runs on the dynamic grid,
  // not the configured one. The accounting contract under test:
  // DegradedChunks counts dynamic segments, 1:1 with Degrade trace
  // events, and FinalChunk reports the segmentation the run ended on
  // (the last Autotune event's size — resizes stop at the trip).
  const int64_t N = 600, Chunk = 16;
  Tracer Tr;
  SpecExecutor Ex(2);
  auto R = Speculation::iterateChunked<int64_t>(
      0, N, Chunk, [](int64_t I, int64_t A) { return A + I; },
      [](int64_t I) { return I == 0 ? int64_t(0) : int64_t(-7); },
      SpecConfig()
          .executor(Ex)
          .autotune(/*TargetMicros=*/1000)
          .degrade(/*MaxBadRate=*/0.5, /*Window=*/24)
          .trace(&Tr));
  EXPECT_EQ(R.Value, sumOracle(N));
  auto Events = Tr.snapshot();
  // The window (24) outlasts one 8-segment wave, so at least one
  // autotune adjustment lands before the trip.
  ASSERT_GE(countEvents(Events, SpecEventKind::Autotune), 1);
  EXPECT_GT(R.Stats.DegradedChunks, 0);
  EXPECT_EQ(countEvents(Events, SpecEventKind::Degrade),
            static_cast<int>(R.Stats.DegradedChunks));
  // FinalChunk is the dynamic chunk size, i.e. the last resize's value.
  int64_t LastResize = Chunk;
  for (const SpecEvent &E : Events)
    if (E.Kind == SpecEventKind::Autotune)
      LastResize = E.Index;
  EXPECT_EQ(R.Stats.FinalChunk, LastResize);
  EXPECT_LT(R.Stats.FinalChunk, Chunk); // the all-bad wave halved it
}

TEST(Iterate, DegradeTripsOnRealMispredictionsToo) {
  // No fault plan at all: a predictor that is simply wrong everywhere
  // trips the monitor the same way.
  const int64_t N = 20;
  Tracer Tr;
  SpecExecutor Ex(2);
  auto R = Speculation::iterate<int64_t>(
      0, N, [](int64_t I, int64_t A) { return A + I; },
      [](int64_t I) { return I == 0 ? int64_t(0) : int64_t(-7); },
      SpecConfig().executor(Ex).degrade(0.0, 2).trace(&Tr));
  EXPECT_EQ(R.Value, sumOracle(N));
  EXPECT_GT(R.Stats.DegradedChunks, 0);
  EXPECT_GE(countEvents(Tr.snapshot(), SpecEventKind::Degrade), 1);
}

//===----------------------------------------------------------------------===//
// Finalizer exception contract (satellite: later finalizers must not run,
// attempts drained, stats still published)
//===----------------------------------------------------------------------===//

TEST(Iterate, ThrowingFinalizerSkipsLaterFinalizersAndDrains) {
  const int64_t N = 8;
  SpecExecutor Ex(2);
  stats::Snapshot Snap;
  std::vector<int64_t> Finalized;
  EXPECT_THROW(
      (Speculation::iterateLocal<int64_t, int64_t>(
          0, N, /*Init=*/[] { return int64_t(0); },
          /*Body=*/
          [](int64_t I, int64_t &L, int64_t A) {
            L = I;
            return A + I;
          },
          sumPredict,
          /*Finalize=*/
          [&Finalized](int64_t I, int64_t &) {
            if (I == 2)
              throw std::runtime_error("finalizer failure at 2");
            Finalized.push_back(I);
          },
          SpecConfig().executor(Ex).statsOut(&Snap))),
      std::runtime_error);
  // Finalizers ran in order up to (not including) the throwing one, and
  // never after it.
  EXPECT_EQ(Finalized, (std::vector<int64_t>{0, 1}));
  // Every attempt was cancelled and drained before the throw propagated.
  Ex.waitIdle();
  // Statistics still reached the out-param.
  EXPECT_GE(Snap.Spec.Tasks, N);
}

TEST(Iterate, ThrowingFinalizerStillFillsSnapshotSink) {
  // Throw-safe stats publication on an explicit executor (the deprecated
  // SpeculationStats* sink is gone; the Snapshot sink owns this
  // contract on every executor-resolution path).
  const int64_t N = 6;
  stats::Snapshot Snap;
  SpecExecutor Ex(2);
  SpecConfig Cfg = SpecConfig().executor(Ex).statsOut(&Snap);
  EXPECT_THROW(
      (Speculation::iterateLocal<int64_t, int64_t>(
          0, N, [] { return int64_t(0); },
          [](int64_t I, int64_t &L, int64_t A) {
            L = I;
            return A + I;
          },
          sumPredict,
          [](int64_t I, int64_t &) {
            if (I == 1)
              throw std::runtime_error("finalizer failure");
          },
          Cfg)),
      std::runtime_error);
  // The out-param sees the stats even though the run threw.
  EXPECT_GE(Snap.Spec.Tasks, N);
}

//===----------------------------------------------------------------------===//
// Executor under fault plans (satellite: destruction drains delayed tasks)
//===----------------------------------------------------------------------===//

TEST(Executor, DestructionDrainsTasksDelayedByFaultPlan) {
  FaultPlan Plan(13);
  Plan.arm(FaultSite::DelayTaskStart, 1.0);
  Plan.arm(FaultSite::JitterWakeup, 1.0);
  Plan.delayRange(std::chrono::microseconds(200),
                  std::chrono::microseconds(2000));
  std::atomic<int> Count{0};
  {
    SpecExecutor Ex(2);
    Ex.injectFaults(&Plan);
    for (int I = 0; I < 40; ++I)
      Ex.submit([&Count] { ++Count; });
    // Destroy immediately: the drain contract must hold even while every
    // task start is artificially delayed and wakeups are jittered.
  }
  EXPECT_EQ(Count.load(), 40);
  EXPECT_GT(Plan.fired(FaultSite::DelayTaskStart), 0u);
}

TEST(Iterate, RunsCorrectlyUnderExecutorTimingFaults) {
  const int64_t N = 24;
  FaultPlan Plan(17);
  Plan.arm(FaultSite::DelayTaskStart, 0.5);
  Plan.arm(FaultSite::JitterWakeup, 0.5);
  Plan.delayRange(std::chrono::microseconds(50),
                  std::chrono::microseconds(500));
  auto ExecutorSitesFired = [&Plan] {
    return Plan.fired(FaultSite::DelayTaskStart) +
           Plan.fired(FaultSite::JitterWakeup);
  };
  SpecExecutor Ex(2);
  const SpecConfig Cfg =
      SpecConfig().executor(Ex).faults(&Plan).mode(ValidationMode::Par);
  auto Run = [&Cfg] {
    return Speculation::iterate<int64_t>(
        0, N, [](int64_t I, int64_t A) { return A + I; }, sumPredict, Cfg);
  };
  // faults() arms only the Speculation-level sites: the executor's
  // timing sites stay quiet until the executor itself is armed.
  EXPECT_EQ(Run().Value, sumOracle(N));
  EXPECT_EQ(Ex.injectedFaults(), nullptr);
  EXPECT_EQ(ExecutorSitesFired(), 0u);
  Ex.injectFaults(&Plan);
  auto R = Run();
  EXPECT_EQ(R.Value, sumOracle(N));
  EXPECT_GT(ExecutorSitesFired(), 0u);
  EXPECT_GT(Plan.totalFired(), 0u);
}

//===----------------------------------------------------------------------===//
// Combined pressure
//===----------------------------------------------------------------------===//

//===----------------------------------------------------------------------===//
// Crash containment (signal shield + runaway watchdog)
//===----------------------------------------------------------------------===//

TEST(Shield, InjectedCrashIsContainedAndReexecuted) {
  const int64_t N = 64, Chunk = 8;
  FaultPlan Plan(404);
  Plan.arm(FaultSite::CrashInBody, 1.0);
  Tracer Tr;
  SpecExecutor Ex(2);
  auto R = Speculation::iterateChunked<int64_t>(
      0, N, Chunk, [](int64_t I, int64_t A) { return A + I; }, sumPredict,
      SpecConfig().executor(Ex).faults(&Plan).shield().trace(&Tr));
  // Every speculative attempt crashed; every chunk was re-executed
  // authoritatively and the result is still exact.
  EXPECT_EQ(R.Value, sumOracle(N));
  EXPECT_GT(R.Stats.ContainedCrashes, 0);
  EXPECT_EQ(R.Stats.Reexecutions, N / Chunk);
  EXPECT_EQ(countEvents(Tr.snapshot(), SpecEventKind::CrashContained),
            static_cast<int>(R.Stats.ContainedCrashes));
  EXPECT_NE(R.Stats.str().find("contained-crashes="), std::string::npos);
  EXPECT_GT(Plan.fired(FaultSite::CrashInBody), 0u);
}

#if !defined(SPECPAR_SANITIZED)
TEST(Shield, RealNullDereferenceIsContained) {
  // Not an injected fault: the body really dereferences a null pointer
  // whenever it runs on a mispredicted (negative) input. The shield must
  // turn the hardware fault into a discarded attempt. Sanitizer builds
  // skip this: UBSan/ASan intercept the bad load before it ever becomes
  // a SIGSEGV (the injected-crash tests still run there — they raise()
  // the signal directly). A mispredicted attempt the validator cancels
  // before any thread claims it never runs, so iteration 0's body waits
  // (at most 10 s) until a worker has started one on garbage input.
  const int64_t N = 24;
  std::atomic<int64_t> Sink{0};
  std::atomic<bool> GarbageStarted{false};
  SpecExecutor Ex(2);
  auto R = Speculation::iterate<int64_t>(
      0, N,
      [&Sink, &GarbageStarted](int64_t I, int64_t A) {
        if (I == 0) {
          const auto Until =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (!GarbageStarted.load() &&
                 std::chrono::steady_clock::now() < Until)
            std::this_thread::yield();
        }
        if (A < 0)
          GarbageStarted = true;
        const int64_t *P = A < 0 ? nullptr : &I;
        Sink += *P; // crashes on garbage input
        return A + I;
      },
      // Mispredict everywhere (except the non-speculative start) with a
      // value that sends the body through the null pointer.
      [](int64_t I) { return I == 0 ? int64_t(0) : int64_t(-1); },
      SpecConfig().executor(Ex).shield());
  EXPECT_EQ(R.Value, sumOracle(N));
  EXPECT_GT(R.Stats.ContainedCrashes, 0);
}
#endif // !SPECPAR_SANITIZED

TEST(Shield, OffByDefaultNeverProbesCrashSites) {
  const int64_t N = 16;
  FaultPlan Plan(7);
  Plan.arm(FaultSite::CrashInBody, 1.0);
  Plan.arm(FaultSite::RunawayBody, 1.0);
  SpecExecutor Ex(2);
  auto R = Speculation::iterate<int64_t>(
      0, N, [](int64_t I, int64_t A) { return A + I; }, sumPredict,
      SpecConfig().executor(Ex).faults(&Plan));
  // Without shield()/attemptBudget() the crash sites are never even
  // probed: unshielded code must not raise signals at itself.
  EXPECT_EQ(R.Value, sumOracle(N));
  EXPECT_EQ(Plan.probes(FaultSite::CrashInBody), 0u);
  EXPECT_EQ(Plan.probes(FaultSite::RunawayBody), 0u);
  EXPECT_EQ(R.Stats.ContainedCrashes, 0);
}

TEST(Shield, ArmedButIdleShieldChangesNothing) {
  const int64_t N = 48;
  SpecExecutor Ex(2);
  auto R = Speculation::iterate<int64_t>(
      0, N, [](int64_t I, int64_t A) { return A + I; }, sumPredict,
      SpecConfig().executor(Ex).shield());
  EXPECT_EQ(R.Value, sumOracle(N));
  EXPECT_EQ(R.Stats.ContainedCrashes, 0);
  EXPECT_EQ(R.Stats.RunawayCancels, 0);
  EXPECT_EQ(R.Stats.Mispredictions, 0);
}

TEST(Shield, RunawayBodyIsForciblyAbandoned) {
  // The injected runaway spins without ever polling cancellation; only
  // the watchdog's forced abandonment (SIGURG + longjmp) can reclaim
  // the worker. The 500ms cap is a safety net so a broken watchdog
  // still lets the test finish (and fail on the counters).
  const int64_t N = 8;
  FaultPlan Plan(21);
  Plan.arm(FaultSite::RunawayBody, 1.0);
  Plan.runawayCap(std::chrono::milliseconds(500));
  Tracer Tr;
  SpecExecutor Ex(2);
  auto R = Speculation::iterate<int64_t>(
      0, N, [](int64_t I, int64_t A) { return A + I; }, sumPredict,
      SpecConfig()
          .executor(Ex)
          .faults(&Plan)
          .attemptBudget(std::chrono::milliseconds(10))
          .trace(&Tr));
  EXPECT_EQ(R.Value, sumOracle(N));
  EXPECT_GT(R.Stats.RunawayCancels, 0);
  // Forced abandonment is also a containment (the attempt was discarded
  // via the shield's longjmp).
  EXPECT_GT(R.Stats.ContainedCrashes, 0);
  EXPECT_GE(countEvents(Tr.snapshot(), SpecEventKind::RunawayCancel), 1);
}

TEST(Shield, PollingBodyOverBudgetBailsCooperatively) {
  // A body that *does* poll sees the attempt budget through the same
  // cooperative deadline as everything else and bails long before the
  // watchdog would escalate to SIGURG — no containment, just a
  // discarded attempt and an authoritative re-execution.
  const int64_t N = 4;
  std::atomic<int> Bailed{0};
  SpecExecutor Ex(2);
  auto R = Speculation::iterate<int64_t>(
      0, N,
      [&Bailed](int64_t I, int64_t A) {
        for (int Step = 0; Step < 40; ++Step) {
          if (currentTaskCancelled()) {
            ++Bailed;
            return int64_t(-1); // garbage; must never be accepted
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return A + I;
      },
      sumPredict,
      SpecConfig().executor(Ex).attemptBudget(std::chrono::milliseconds(10)));
  EXPECT_EQ(R.Value, sumOracle(N));
  EXPECT_GT(Bailed.load(), 0);
  EXPECT_GT(R.Stats.RunawayCancels, 0);
  EXPECT_EQ(R.Stats.ContainedCrashes, 0);
}

TEST(Shield, ApplyContainsConsumerCrash) {
  FaultPlan Plan(88);
  Plan.arm(FaultSite::CrashInBody, 1.0);
  std::atomic<int> Runs{0};
  std::atomic<int> Sum{0};
  SpecExecutor Ex(2);
  auto R = Speculation::apply<int>(
      /*Producer=*/[] { return 5; },
      /*Predictor=*/[] { return 5; },
      /*Consumer=*/
      [&](int V) {
        ++Runs;
        Sum += V;
      },
      SpecConfig().executor(Ex).faults(&Plan).shield());
  // The injected crash fired before the speculative consumer's body, so
  // only the validated re-execution's side effects landed.
  EXPECT_EQ(Runs.load(), 1);
  EXPECT_EQ(Sum.load(), 5);
  EXPECT_EQ(R.Stats.ContainedCrashes, 1);
  EXPECT_EQ(R.Stats.Reexecutions, 1);
}

TEST(Shield, ApplyRunawayConsumerIsAbandoned) {
  // The speculative consumer runs past its attempt budget, polls, and
  // bails cooperatively: the same runaway rule as iterate's attempts
  // counts it, nothing is contained, and the validated re-execution
  // (not under any budget) delivers the produced value.
  std::atomic<int> Bailed{0};
  std::atomic<int> Completed{-1};
  SpecExecutor Ex(2);
  auto R = Speculation::apply<int>(
      /*Producer=*/[] { return 5; },
      /*Predictor=*/[] { return 5; },
      /*Consumer=*/
      [&](int V) {
        for (int Step = 0; Step < 20; ++Step) {
          if (currentTaskCancelled()) {
            ++Bailed;
            return;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        Completed = V;
      },
      SpecConfig().executor(Ex).attemptBudget(std::chrono::milliseconds(10)));
  EXPECT_EQ(Completed.load(), 5);
  EXPECT_EQ(Bailed.load(), 1);
  EXPECT_GE(R.Stats.RunawayCancels, 1);
  EXPECT_EQ(R.Stats.ContainedCrashes, 0);
  EXPECT_EQ(R.Stats.Reexecutions, 1);
}

TEST(Shield, ContainedCrashesSurviveMixedChaos) {
  // Crash containment composed with every other fault class: the result
  // must stay exact whatever the interleaving.
  const int64_t N = 120, Chunk = 8;
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    FaultPlan Plan(Seed * 77);
    Plan.arm(FaultSite::CrashInBody, 0.2);
    Plan.arm(FaultSite::ForceMispredict, 0.3);
    Plan.arm(FaultSite::SpuriousCancel, 0.3);
    Plan.arm(FaultSite::ComparatorThrow, 0.1);
    SpecExecutor Ex(4);
    auto R = Speculation::iterateChunked<int64_t>(
        0, N, Chunk,
        [](int64_t I, int64_t A) {
          if (currentTaskCancelled())
            return int64_t(-1);
          return A + I;
        },
        sumPredict,
        SpecConfig().executor(Ex).faults(&Plan).shield().degrade(0.9, 6));
    EXPECT_EQ(R.Value, sumOracle(N)) << "seed " << Seed * 77;
  }
}

TEST(Shield, ThrowingBodyDisarmsShieldOnUnwind) {
  installSignalShield();
  // With an armed budget, a body that throws unwinds straight through
  // the armed region. The shield must disarm and drop the deadline on
  // that path: a slot left Armed=1 keeps a jmp_buf into the destroyed
  // shieldedCall frame, and the watchdog would siglongjmp into it at
  // budget + grace.
  bool Threw = false;
  try {
    shieldedCall(/*BudgetNs=*/2 * 1000 * 1000, [] {
      throw std::runtime_error("body threw");
    });
  } catch (const std::runtime_error &E) {
    Threw = std::string(E.what()) == "body threw";
  }
  EXPECT_TRUE(Threw);
  detail::ShieldSlot *S = detail::peekShieldSlot();
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->Armed.load(), 0u);
  EXPECT_EQ(S->DeadlineNs.load(), 0);
  // Outlive budget + escalation grace: a stale armed slot would receive
  // the watchdog's SIGURG about now and corrupt the stack.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // The shield still contains the next attempt on this thread.
  ShieldOutcome SO = shieldedCall(0, [] { raise(SIGFPE); });
  EXPECT_EQ(SO.Fault, ContainedFault::Fpe);
}

TEST(Shield, StaleInnerGenerationSigurgDoesNotAbandonOuter) {
  installSignalShield();
  uint64_t InnerGen = 0;
  ShieldOutcome Outer = shieldedCall(0, [&] {
    detail::ShieldSlot *S = detail::myShieldSlot();
    shieldedCall(0, [&] {
      InnerGen = S->ArmGen.load(std::memory_order_relaxed);
    });
    // Simulate the watchdog's forced abandonment of the (already
    // finished) nested attempt arriving late, after the outer frame
    // re-armed. Re-arming takes a fresh generation, so the stale
    // SIGURG must fail the AbandonGen == ArmGen check and be ignored
    // instead of abandoning the outer attempt.
    S->AbandonGen.store(InnerGen, std::memory_order_relaxed);
    raise(SIGURG);
  });
  EXPECT_EQ(Outer.Fault, ContainedFault::None);
}

TEST(Shield, UserBodyThrowUnderShieldAndBudgetStaysSafe) {
  // End-to-end through the engine: a user body that throws inside a
  // shielded, budgeted attempt must surface normally at the join, and
  // the unwound worker slot must not stay armed for the watchdog — the
  // process has to survive well past budget + grace and later shielded
  // runs on the same workers must still work.
  SpecExecutor Ex(2);
  EXPECT_THROW(
      Speculation::iterateChunked<int64_t>(
          0, 16, 8,
          [](int64_t, int64_t) -> int64_t {
            throw std::runtime_error("user body failure");
          },
          sumPredict,
          SpecConfig().executor(Ex).shield().attemptBudget(
              std::chrono::milliseconds(5))),
      std::runtime_error);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  auto R = Speculation::iterateChunked<int64_t>(
      0, 64, 8, [](int64_t I, int64_t A) { return A + I; }, sumPredict,
      SpecConfig().executor(Ex).shield());
  EXPECT_EQ(R.Value, sumOracle(64));
}

TEST(Iterate, ChunkedRunSurvivesMixedScheduleFaults) {
  // Schedule faults only (no injected throws): the result must be exact.
  const int64_t N = 200, Chunk = 10;
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    FaultPlan Plan(Seed * 1000);
    Plan.arm(FaultSite::ForceMispredict, 0.3);
    Plan.arm(FaultSite::SpuriousCancel, 0.3);
    Plan.arm(FaultSite::DelayTaskStart, 0.2);
    Plan.arm(FaultSite::JitterWakeup, 0.2);
    Plan.delayRange(std::chrono::microseconds(20),
                    std::chrono::microseconds(200));
    SpecExecutor Ex(4);
    Ex.injectFaults(&Plan);
    auto R = Speculation::iterateChunked<int64_t>(
        0, N, Chunk,
        [](int64_t I, int64_t A) {
          if (currentTaskCancelled())
            return int64_t(-1);
          return A + I;
        },
        sumPredict, SpecConfig().executor(Ex).faults(&Plan).degrade(0.9, 6));
    EXPECT_EQ(R.Value, sumOracle(N)) << "seed " << Seed * 1000;
  }
}

} // namespace
