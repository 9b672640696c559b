//===- tests/runtime_test.cpp - Speculation runtime tests -----------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Speculation.h"
#include "runtime/Telemetry.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

using namespace specpar;
using namespace specpar::rt;

namespace {

//===----------------------------------------------------------------------===//
// SpecExecutor
//===----------------------------------------------------------------------===//

TEST(Executor, RunsEveryTask) {
  SpecExecutor Ex(4);
  std::atomic<int> Count{0};
  for (int I = 0; I < 100; ++I)
    Ex.submit([&Count] { ++Count; });
  Ex.waitIdle();
  EXPECT_EQ(Count.load(), 100);
}

TEST(Executor, DestructorDrainsQueue) {
  std::atomic<int> Count{0};
  {
    SpecExecutor Ex(2);
    for (int I = 0; I < 50; ++I)
      Ex.submit([&Count] { ++Count; });
  }
  EXPECT_EQ(Count.load(), 50);
}

TEST(Executor, ZeroThreadsMeansHardwareConcurrency) {
  unsigned HW = std::thread::hardware_concurrency();
  EXPECT_EQ(SpecExecutor::defaultThreads(), HW == 0 ? 1u : HW);
  SpecExecutor Ex(0);
  EXPECT_EQ(Ex.numThreads(), SpecExecutor::defaultThreads());
  EXPECT_GE(Ex.numThreads(), 1u);
}

TEST(Executor, DefaultShardIsSharedAndHardwareWide) {
  const std::shared_ptr<SpecExecutor> &A = SpecExecutor::defaultShard();
  const std::shared_ptr<SpecExecutor> &B = SpecExecutor::defaultShard();
  ASSERT_TRUE(A);
  EXPECT_EQ(A.get(), B.get());
  EXPECT_EQ(A->numThreads(), SpecExecutor::defaultThreads());
  // Default-configured runs resolve to exactly this shard.
  EXPECT_EQ(SpecConfig().resolvedExecutor().get(), A.get());
}

TEST(Executor, CreateReturnsOwningHandle) {
  std::shared_ptr<SpecExecutor> Ex = SpecExecutor::create(2);
  ASSERT_TRUE(Ex);
  EXPECT_EQ(Ex->numThreads(), 2u);
  EXPECT_NE(Ex.get(), SpecExecutor::defaultShard().get());
  // The config shares ownership: the executor survives the caller
  // dropping its handle as long as a config (or queued job holding one)
  // still names it.
  SpecConfig Cfg = SpecConfig().executor(Ex);
  std::weak_ptr<SpecExecutor> Watch = Ex;
  Ex.reset();
  EXPECT_FALSE(Watch.expired());
  EXPECT_EQ(Cfg.resolvedExecutor().get(), Watch.lock().get());
  Cfg = SpecConfig();
  EXPECT_TRUE(Watch.expired());
}

TEST(Executor, TransientConfigResolvesToNoPersistentExecutor) {
  EXPECT_EQ(SpecConfig().threads(3).resolvedExecutor(), nullptr);
}

TEST(Executor, TasksSubmittedFromWorkersRun) {
  SpecExecutor Ex(2);
  std::atomic<int> Count{0};
  for (int I = 0; I < 8; ++I)
    Ex.submit([&] {
      ++Count;
      for (int J = 0; J < 4; ++J)
        Ex.submit([&Count] { ++Count; });
    });
  Ex.waitIdle();
  EXPECT_EQ(Count.load(), 8 * 5);
}

//===----------------------------------------------------------------------===//
// Executor isolation: shards must not bleed statistics or fault plans
// into each other — the invariant the multi-tenant serving layer's
// per-shard accounting rests on.
//===----------------------------------------------------------------------===//

TEST(ExecutorIsolation, ConcurrentRunsDoNotBleedStats) {
  std::shared_ptr<SpecExecutor> A = SpecExecutor::create(2);
  std::shared_ptr<SpecExecutor> B = SpecExecutor::create(2);
  const ExecutorStats ABefore = A->stats();
  const ExecutorStats BBefore = B->stats();

  // Shard A runs with perfect predictions, shard B with every prediction
  // past the first forced wrong — concurrently, from two driver threads.
  stats::Snapshot SnapA, SnapB;
  std::thread DriveA([&] {
    Speculation::iterate<int64_t>(
        0, 64, [](int64_t, int64_t Acc) { return Acc + 1; },
        [](int64_t I) { return I; },
        SpecConfig().executor(A).statsOut(&SnapA));
  });
  std::thread DriveB([&] {
    Speculation::iterate<int64_t>(
        0, 64, [](int64_t, int64_t Acc) { return Acc + 1; },
        [](int64_t I) { return I == 0 ? int64_t(0) : int64_t(-1); },
        SpecConfig().executor(B).statsOut(&SnapB));
  });
  DriveA.join();
  DriveB.join();

  // Speculation counters stay per-run: A saw no mispredictions, B
  // mispredicted every boundary.
  EXPECT_EQ(SnapA.Spec.Mispredictions, 0);
  EXPECT_EQ(SnapB.Spec.Mispredictions, 63);

  // Executor activity stays per-shard: each shard's submit delta is its
  // own run's task count — nothing leaked across.
  const ExecutorStats ADelta = A->stats() - ABefore;
  const ExecutorStats BDelta = B->stats() - BBefore;
  EXPECT_EQ(ADelta.Submits, static_cast<uint64_t>(SnapA.Spec.Tasks));
  EXPECT_EQ(BDelta.Submits, static_cast<uint64_t>(SnapB.Spec.Tasks));
  EXPECT_EQ(ADelta.Submits, static_cast<uint64_t>(SnapA.Exec.Submits));
  EXPECT_EQ(BDelta.Submits, static_cast<uint64_t>(SnapB.Exec.Submits));
}

TEST(ExecutorIsolation, FaultPlansStayOnTheirShard) {
  std::shared_ptr<SpecExecutor> A = SpecExecutor::create(2);
  std::shared_ptr<SpecExecutor> B = SpecExecutor::create(2);
  FaultPlan Plan(/*Seed=*/7);
  Plan.arm(FaultSite::ForceMispredict, 1.0);
  A->injectFaults(&Plan);
  EXPECT_EQ(A->injectedFaults(), &Plan);
  // Arming shard A must not arm shard B…
  EXPECT_EQ(B->injectedFaults(), nullptr);
  // …and a run on B with a perfect predictor stays fault-free.
  stats::Snapshot Snap;
  auto R = Speculation::iterate<int64_t>(
      0, 32, [](int64_t, int64_t Acc) { return Acc + 1; },
      [](int64_t I) { return I; }, SpecConfig().executor(B).statsOut(&Snap));
  EXPECT_EQ(R.Value, 32);
  EXPECT_EQ(Snap.Spec.Mispredictions, 0);
  EXPECT_EQ(Snap.Spec.FailedPredictions, 0);
  A->injectFaults(nullptr);
}

TEST(ExecutorIsolation, SnapshotSinkAttributesTransientExecutorActivity) {
  // threads(N > 0) without executor(): the run creates a transient
  // executor; the snapshot's Exec half still reports its activity.
  stats::Snapshot Snap;
  auto R = Speculation::iterate<int64_t>(
      0, 16, [](int64_t, int64_t Acc) { return Acc + 1; },
      [](int64_t I) { return I; }, SpecConfig().threads(2).statsOut(&Snap));
  EXPECT_EQ(R.Value, 16);
  EXPECT_EQ(Snap.Spec.Tasks, 16);
  EXPECT_EQ(Snap.Exec.Submits, static_cast<uint64_t>(Snap.Spec.Tasks));
}

//===----------------------------------------------------------------------===//
// Speculation::apply
//===----------------------------------------------------------------------===//

TEST(Apply, CorrectPredictionRunsConsumerOnce) {
  std::atomic<int> ConsumerRuns{0};
  std::atomic<int> Seen{0};
  SpecResult<void> R = Speculation::apply<int>([] { return 42; },
                                               [] { return 42; },
                                               [&](int V) {
                                                 ++ConsumerRuns;
                                                 Seen = V;
                                               });
  EXPECT_EQ(ConsumerRuns.load(), 1);
  EXPECT_EQ(Seen.load(), 42);
  EXPECT_EQ(R.Stats.Mispredictions, 0);
}

TEST(Apply, MispredictionReexecutesConsumerWithCorrectValue) {
  std::atomic<int> LastSeen{-1};
  SpecResult<void> R = Speculation::apply<int>(
      [] { return 7; }, [] { return 99; }, [&](int V) { LastSeen = V; });
  // The final (validated) consumer execution uses the produced value.
  EXPECT_EQ(LastSeen.load(), 7);
  EXPECT_EQ(R.Stats.Mispredictions, 1);
  EXPECT_EQ(R.Stats.Reexecutions, 1);
}

TEST(Apply, ProducerExceptionPropagates) {
  EXPECT_THROW(Speculation::apply<int>(
                   []() -> int { throw std::runtime_error("producer"); },
                   [] { return 0; }, [](int) {}),
               std::runtime_error);
}

TEST(Apply, ValidConsumerExceptionPropagates) {
  EXPECT_THROW(Speculation::apply<int>([] { return 1; }, [] { return 1; },
                                       [](int) {
                                         throw std::runtime_error("consumer");
                                       }),
               std::runtime_error);
}

TEST(Apply, MispredictedConsumerExceptionIsSuppressed) {
  std::atomic<int> ValidRuns{0};
  // The speculative consumer (input 99) throws; the re-execution (input 7)
  // succeeds. The paper's library "hides all exceptions from code that was
  // speculatively executed with the wrong values".
  EXPECT_NO_THROW(Speculation::apply<int>([] { return 7; },
                                          [] { return 99; },
                                          [&](int V) {
                                            if (V == 99)
                                              throw std::runtime_error("bad");
                                            ++ValidRuns;
                                          }));
  EXPECT_EQ(ValidRuns.load(), 1);
}

TEST(Apply, PredictorExceptionFallsBackToNonSpeculative) {
  std::atomic<int> Seen{0};
  EXPECT_NO_THROW(Speculation::apply<int>(
      [] { return 5; }, []() -> int { throw std::runtime_error("pred"); },
      [&](int V) { Seen = V; }));
  EXPECT_EQ(Seen.load(), 5);
}

TEST(Apply, CorrectPredictionCountsOnePredictionPoint) {
  SpecResult<void> R = Speculation::apply<int>(
      [] { return 42; }, [] { return 42; }, [](int) {});
  EXPECT_EQ(R.Stats.Predictions, 1);
  EXPECT_EQ(R.Stats.FailedPredictions, 0);
  EXPECT_EQ(R.Stats.Mispredictions, 0);
}

TEST(Apply, MispredictionIsNotAFailedPrediction) {
  // A real guess existed and was compared: that is a misprediction, never
  // a failed prediction.
  SpecResult<void> R = Speculation::apply<int>(
      [] { return 7; }, [] { return 99; }, [](int) {});
  EXPECT_EQ(R.Stats.Predictions, 1);
  EXPECT_EQ(R.Stats.Mispredictions, 1);
  EXPECT_EQ(R.Stats.FailedPredictions, 0);
}

TEST(Apply, ThrowingPredictorCountsFailedPredictionNotMisprediction) {
  // The predictor never produced a guess, so nothing was compared: the
  // prediction point resolved without a guess (failed), and the consumer
  // ran once non-speculatively (one re-execution).
  SpecResult<void> R = Speculation::apply<int>(
      [] { return 5; }, []() -> int { throw std::runtime_error("pred"); },
      [](int) {});
  EXPECT_EQ(R.Stats.Predictions, 1);
  EXPECT_EQ(R.Stats.FailedPredictions, 1);
  EXPECT_EQ(R.Stats.Mispredictions, 0);
  EXPECT_EQ(R.Stats.Reexecutions, 1);
}

TEST(Apply, ProducerExceptionCountsNoPredictionPoint) {
  // The check step never ran, so no prediction point was resolved; the
  // snapshot sink still publishes what was gathered before the throw.
  stats::Snapshot Snap;
  EXPECT_THROW(Speculation::apply<int>(
                   []() -> int { throw std::runtime_error("producer"); },
                   [] { return 0; }, [](int) {},
                   SpecConfig().threads(2).statsOut(&Snap)),
               std::runtime_error);
  EXPECT_EQ(Snap.Spec.Tasks, 1);
  EXPECT_EQ(Snap.Spec.Predictions, 0);
  EXPECT_EQ(Snap.Spec.FailedPredictions, 0);
}

TEST(Apply, EagerProducerAbortGoesNonSpeculative) {
  // A predictor far slower than the producer: with the Section 3.3 fix
  // enabled, apply() aborts the speculation instead of waiting for it.
  std::atomic<int> Seen{0};
  std::atomic<bool> PredictorCancelled{false};
  SpecResult<void> R = Speculation::apply<int>(
      [] { return 7; },
      [&PredictorCancelled]() -> int {
        // Busy predictor that honours cooperative cancellation.
        for (int Spin = 0; Spin < 200000000; ++Spin)
          if (currentTaskCancelled()) {
            PredictorCancelled = true;
            return -1;
          }
        return 7;
      },
      [&Seen](int V) { Seen = V; }, SpecConfig().eagerProducerAbort());
  EXPECT_EQ(Seen.load(), 7);
  // Every resolution path is a resolved prediction point, including the
  // eager abort (which resolves without a guess).
  EXPECT_EQ(R.Stats.Predictions, 1);
  // Either the producer truly beat the predictor (the common case: one
  // re-execution, predictor observed the cancel) or the predictor
  // finished first and normal validation ran; both must be correct.
  if (R.Stats.Reexecutions > 0) {
    EXPECT_TRUE(PredictorCancelled.load());
    EXPECT_EQ(R.Stats.FailedPredictions, 1);
    EXPECT_EQ(R.Stats.Mispredictions, 0);
  }
}

TEST(Apply, EagerProducerAbortOnSharedExecutor) {
  // The same Section 3.3 semantics must hold when the run shares a
  // persistent executor instead of spawning a transient one.
  SpecExecutor Ex(2);
  SpecConfig Cfg = SpecConfig().executor(Ex).eagerProducerAbort();
  for (int Round = 0; Round < 3; ++Round) {
    std::atomic<int> Seen{0};
    std::atomic<bool> PredictorCancelled{false};
    SpecResult<void> R = Speculation::apply<int>(
        [] { return 7; },
        [&PredictorCancelled]() -> int {
          for (int Spin = 0; Spin < 200000000; ++Spin)
            if (currentTaskCancelled()) {
              PredictorCancelled = true;
              return -1;
            }
          return 7;
        },
        [&Seen](int V) { Seen = V; }, Cfg);
    EXPECT_EQ(Seen.load(), 7);
    if (R.Stats.Reexecutions > 0) {
      EXPECT_TRUE(PredictorCancelled.load());
    }
  }
  // Exception semantics are unchanged on a shared executor.
  EXPECT_THROW(Speculation::apply<int>(
                   []() -> int { throw std::runtime_error("producer"); },
                   [] { return 0; }, [](int) {}, Cfg),
               std::runtime_error);
  EXPECT_THROW(Speculation::apply<int>([] { return 1; }, [] { return 1; },
                                       [](int) {
                                         throw std::runtime_error("consumer");
                                       },
                                       Cfg),
               std::runtime_error);
}

TEST(Apply, UnitEncodingOfParallelComposition) {
  // The paper: e1 || e2 is spec with a unit prediction. Model unit as a
  // trivially-equal int.
  std::atomic<bool> ProducerRan{false}, ConsumerRan{false};
  Speculation::apply<int>(
      [&] {
        ProducerRan = true;
        return 0;
      },
      [] { return 0; },
      [&](int) { ConsumerRan = true; });
  EXPECT_TRUE(ProducerRan.load());
  EXPECT_TRUE(ConsumerRan.load());
}

//===----------------------------------------------------------------------===//
// Speculation::iterate
//===----------------------------------------------------------------------===//

/// Reference semantics: acc = pred(Low); for i: acc = body(i, acc).
template <typename BodyFn, typename PredFn>
int64_t sequentialFold(int64_t Low, int64_t High, BodyFn Body, PredFn Pred) {
  int64_t Acc = Pred(Low);
  for (int64_t I = Low; I < High; ++I)
    Acc = Body(I, Acc);
  return Acc;
}

TEST(Iterate, EmptyRangeReturnsInitialValue) {
  auto R = Speculation::iterate<int64_t>(
      5, 5, [](int64_t, int64_t A) { return A + 1; },
      [](int64_t) { return int64_t(123); });
  EXPECT_EQ(R.Value, 123);
  EXPECT_EQ(R.Stats.Tasks, 0);
}

TEST(Iterate, SingleIteration) {
  auto R = Speculation::iterate<int64_t>(
      0, 1, [](int64_t I, int64_t A) { return A + I + 10; },
      [](int64_t) { return int64_t(5); });
  EXPECT_EQ(R.Value, 15);
}

struct IterateCase {
  ValidationMode Mode;
  unsigned Threads;
  double PredictorAccuracy; // probability a prediction is correct
};

class IterateModes : public ::testing::TestWithParam<IterateCase> {};

TEST_P(IterateModes, MatchesSequentialFoldUnderAnyPredictor) {
  const IterateCase &C = GetParam();
  Rng R(0xABC ^ C.Threads ^ unsigned(C.PredictorAccuracy * 100));
  for (int Trial = 0; Trial < 8; ++Trial) {
    int64_t N = 1 + static_cast<int64_t>(R.nextBelow(40));
    // A nontrivial fold: acc' = acc * 31 + i (mod small prime).
    auto Body = [](int64_t I, int64_t A) { return (A * 31 + I) % 100003; };
    auto Truth = sequentialFold(0, N, Body, [](int64_t) { return int64_t(1); });

    // Predictor: correct with the configured probability, else garbage.
    std::vector<int64_t> TruthAt(static_cast<size_t>(N) + 1);
    TruthAt[0] = 1;
    for (int64_t I = 0; I < N; ++I)
      TruthAt[static_cast<size_t>(I) + 1] = Body(I, TruthAt[static_cast<size_t>(I)]);
    Rng PredRng(R.next());
    std::vector<int64_t> Predicted(static_cast<size_t>(N));
    for (int64_t I = 0; I < N; ++I)
      Predicted[static_cast<size_t>(I)] =
          (I == 0 || PredRng.nextBool(C.PredictorAccuracy))
              ? TruthAt[static_cast<size_t>(I)]
              : PredRng.nextInRange(0, 100002);

    auto Got = Speculation::iterate<int64_t>(
        0, N, Body,
        [&Predicted](int64_t I) { return Predicted[static_cast<size_t>(I)]; },
        SpecConfig().mode(C.Mode).threads(C.Threads));
    EXPECT_EQ(Got.Value, Truth) << "N=" << N;
    EXPECT_EQ(Got.Stats.Predictions, N - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IterateModes,
    ::testing::Values(IterateCase{ValidationMode::Seq, 1, 1.0},
                      IterateCase{ValidationMode::Seq, 4, 1.0},
                      IterateCase{ValidationMode::Seq, 4, 0.5},
                      IterateCase{ValidationMode::Seq, 2, 0.0},
                      IterateCase{ValidationMode::Par, 1, 1.0},
                      IterateCase{ValidationMode::Par, 4, 1.0},
                      IterateCase{ValidationMode::Par, 4, 0.5},
                      IterateCase{ValidationMode::Par, 2, 0.0}));

TEST(Iterate, PerfectPredictionReportsNoMispredictions) {
  // Truth: acc_i = i(i+1)/2 starting at 0.
  auto Pred = [](int64_t I) { return I * (I - 1) / 2; };
  auto R = Speculation::iterate<int64_t>(
      1, 20, [](int64_t I, int64_t A) { return A + I; }, Pred,
      SpecConfig().threads(4));
  EXPECT_EQ(R.Value, 190);
  EXPECT_EQ(R.Stats.Mispredictions, 0);
  EXPECT_EQ(R.Stats.Reexecutions, 0);
  EXPECT_EQ(R.Stats.Tasks, 19);
}

TEST(Iterate, AllWrongPredictionsStillCorrectAndCountsReexecutions) {
  auto R = Speculation::iterate<int64_t>(
      0, 10, [](int64_t, int64_t A) { return A + 1; },
      [](int64_t I) { return I == 0 ? int64_t(0) : int64_t(-999); });
  EXPECT_EQ(R.Value, 10);
  EXPECT_EQ(R.Stats.Mispredictions, 9);
  EXPECT_EQ(R.Stats.Reexecutions, 9);
}

TEST(Iterate, SequentialExceptionSemantics) {
  // Iteration 3 (valid) throws; its exception must surface even though
  // later iterations were speculatively executed.
  std::atomic<int> BodiesRun{0};
  try {
    Speculation::iterate<int64_t>(
        0, 10,
        [&BodiesRun](int64_t I, int64_t A) {
          ++BodiesRun;
          if (I == 3)
            throw std::runtime_error("iteration 3");
          return A + 1;
        },
        [](int64_t I) { return I; }, SpecConfig().threads(4));
    FAIL() << "expected an exception";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "iteration 3");
  }
}

TEST(Iterate, MispredictedIterationExceptionSuppressed) {
  // Iteration 2's *speculative* run (wrong input 777) throws; the valid
  // re-execution succeeds, so no exception escapes.
  auto R = Speculation::iterate<int64_t>(
      0, 5,
      [](int64_t, int64_t A) {
        if (A == 777)
          throw std::runtime_error("speculative garbage");
        return A + 1;
      },
      [](int64_t I) { return I == 2 ? int64_t(777) : I; },
      SpecConfig().threads(4));
  EXPECT_EQ(R.Value, 5);
}

TEST(Iterate, CustomEqualityRelaxesValidation) {
  // Equality modulo 10: predictions that differ by a multiple of 10 from
  // the true value are accepted (the paper's relaxed-Equals use case).
  // With a body that only depends on the input mod 10, this is safe.
  auto EqMod10 = [](int64_t A, int64_t B) { return A % 10 == B % 10; };
  auto R = Speculation::iterate<int64_t>(
      0, 6, [](int64_t, int64_t A) { return (A + 3) % 10; },
      [](int64_t I) { return (3 * I) % 10 + 10 * I; }, SpecConfig(), EqMod10);
  EXPECT_EQ(R.Value % 10, (6 * 3) % 10);
  EXPECT_EQ(R.Stats.Mispredictions, 0) << "all predictions correct modulo 10";
}

TEST(Iterate, CooperativeCancellationIsVisibleToBodies) {
  // A mispredicted long-running body observes cancellation and exits
  // early. The premise is that the body is *running* when the validator
  // cancels it, so iteration 1's body waits (at most 10 s) until the
  // mispredicted iteration 2 has started on a worker: the validator
  // reaches iteration 2 only after iteration 1 is done.
  std::atomic<bool> SawCancel{false};
  std::atomic<bool> WrongStarted{false};
  Speculation::iterate<int64_t>(
      0, 3,
      [&SawCancel, &WrongStarted](int64_t I, int64_t A) {
        if (I == 1) {
          const auto Until =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (!WrongStarted.load() &&
                 std::chrono::steady_clock::now() < Until)
            std::this_thread::yield();
        }
        if (I == 2 && A == 555) {
          WrongStarted = true;
          // Wrong-input speculative run: spin until cancelled.
          for (int Spin = 0; Spin < 100000000; ++Spin) {
            if (currentTaskCancelled()) {
              SawCancel = true;
              break;
            }
          }
          return int64_t(-1);
        }
        return A + 1;
      },
      [](int64_t I) { return I == 2 ? int64_t(555) : I; },
      SpecConfig().threads(2));
  EXPECT_TRUE(SawCancel.load());
}

TEST(Iterate, SharedExecutorCanBeReused) {
  SpecExecutor Ex(3);
  SpecConfig Cfg = SpecConfig().executor(Ex);
  for (int Round = 0; Round < 5; ++Round) {
    auto R = Speculation::iterate<int64_t>(
        0, 8, [](int64_t I, int64_t A) { return A + I; },
        [](int64_t I) { return I * (I - 1) / 2; }, Cfg);
    EXPECT_EQ(R.Value, 28);
  }
}

TEST(Iterate, OwnedExecutorHandleCanBeReused) {
  // An owned shard handle serves any number of runs without rebuilding
  // workers between them.
  std::shared_ptr<SpecExecutor> Ex = SpecExecutor::create(3);
  SpecConfig Cfg = SpecConfig().executor(Ex);
  for (int Round = 0; Round < 5; ++Round) {
    auto R = Speculation::iterate<int64_t>(
        0, 8, [](int64_t I, int64_t A) { return A + I; },
        [](int64_t I) { return I * (I - 1) / 2; }, Cfg);
    EXPECT_EQ(R.Value, 28);
  }
}

TEST(Iterate, SharedSlotWritesFinalValuesAreValidOnesUnderParMode) {
  // The quiescence guarantee: even with wrong predictions, Par-mode
  // chaining, and garbage attempts writing the same slots, the final
  // array contents come from executions with correct inputs.
  Rng R(4242);
  for (int Trial = 0; Trial < 10; ++Trial) {
    const int64_t N = 12;
    std::vector<int64_t> Out(static_cast<size_t>(N), -1);
    uint64_t Salt = R.next() % 1000;
    auto Body = [&Out, Salt](int64_t I, int64_t A) {
      int64_t V = (A * 7 + I + static_cast<int64_t>(Salt)) % 10007;
      Out[static_cast<size_t>(I)] = V; // the rollback-free slot write
      return V;
    };
    Rng PredRng(R.next());
    std::vector<int64_t> Pred(static_cast<size_t>(N));
    for (int64_t I = 0; I < N; ++I)
      Pred[static_cast<size_t>(I)] =
          I == 0 ? 1 : PredRng.nextInRange(0, 10006);
    auto Got = Speculation::iterate<int64_t>(
        0, N, Body,
        [&Pred](int64_t I) { return Pred[static_cast<size_t>(I)]; },
        SpecConfig().mode(ValidationMode::Par).threads(4));
    // Sequential reference.
    std::vector<int64_t> Ref(static_cast<size_t>(N));
    int64_t A = 1;
    for (int64_t I = 0; I < N; ++I) {
      A = (A * 7 + I + static_cast<int64_t>(Salt)) % 10007;
      Ref[static_cast<size_t>(I)] = A;
    }
    EXPECT_EQ(Got.Value, Ref.back());
    EXPECT_EQ(Out, Ref) << "slot contents must come from valid executions";
  }
}

//===----------------------------------------------------------------------===//
// Nested speculation on a shared executor (the former deadlock)
//===----------------------------------------------------------------------===//

TEST(Nested, IterateInsideIterateOnOneSharedExecutorCompletes) {
  // Regression: on the old fixed FIFO pool this deadlocked — the outer
  // bodies occupied every worker while their inner runs' attempts sat
  // queued forever. Each inner validator runs its own unclaimed
  // attempts itself.
  SpecExecutor Ex(2);
  SpecConfig Cfg = SpecConfig().executor(Ex);
  auto R = Speculation::iterate<int64_t>(
      0, 6,
      [&](int64_t I, int64_t Acc) {
        auto Inner = Speculation::iterate<int64_t>(
            0, 5, [I](int64_t J, int64_t A) { return A + I * J; },
            [I](int64_t J) { return I * J * (J - 1) / 2; }, Cfg);
        return Acc + Inner.Value;
      },
      [](int64_t I) {
        // Closed form of the outer accumulator: sum_{k<I} 10k.
        return 10 * I * (I - 1) / 2;
      },
      Cfg);
  EXPECT_EQ(R.Value, 150);
}

TEST(Nested, IterateInsideIterateOnSingleWorkerExecutorCompletes) {
  // The worst case: one worker serves both nesting levels, so every inner
  // attempt *must* be run by the inner validator that waits on it.
  SpecExecutor Ex(1);
  SpecConfig Cfg = SpecConfig().executor(Ex);
  auto R = Speculation::iterate<int64_t>(
      0, 6,
      [&](int64_t I, int64_t Acc) {
        auto Inner = Speculation::iterate<int64_t>(
            0, 5, [I](int64_t J, int64_t A) { return A + I * J; },
            [I](int64_t J) { return I * J * (J - 1) / 2; }, Cfg);
        return Acc + Inner.Value;
      },
      [](int64_t I) { return 10 * I * (I - 1) / 2; }, Cfg);
  EXPECT_EQ(R.Value, 150);
}

TEST(Nested, MispredictedNestedRunsOnSharedExecutorStayCorrect) {
  // Nesting plus forced mispredictions at both levels and Par-mode
  // chaining — the stress combination for the claim protocol.
  SpecExecutor Ex(2);
  SpecConfig Cfg =
      SpecConfig().executor(Ex).mode(ValidationMode::Par);
  auto R = Speculation::iterate<int64_t>(
      0, 5,
      [&](int64_t, int64_t Acc) {
        auto Inner = Speculation::iterate<int64_t>(
            0, 4, [](int64_t, int64_t A) { return A + 1; },
            [](int64_t J) { return J == 0 ? int64_t(0) : int64_t(-9); },
            Cfg);
        return Acc + Inner.Value; // always +4
      },
      [](int64_t I) { return I == 0 ? int64_t(0) : int64_t(-7); }, Cfg);
  EXPECT_EQ(R.Value, 20);
}

TEST(Nested, NestedRunsOnDefaultShardByDefault) {
  // Default-configured runs share SpecExecutor::defaultShard(); nesting
  // them must complete regardless of the machine's core count.
  auto R = Speculation::iterate<int64_t>(
      0, 4,
      [](int64_t I, int64_t Acc) {
        auto Inner = Speculation::iterate<int64_t>(
            0, 3, [I](int64_t J, int64_t A) { return A + I + J; },
            [I](int64_t J) { return I * J + J * (J - 1) / 2; });
        return Acc + Inner.Value;
      },
      [](int64_t I) { return 3 * I * (I - 1) / 2 + 3 * I; });
  // Inner(I) = 3I + 3; sum over I<4 = 3*6 + 12 = 30... computed: each
  // inner = sum_{J<3}(I+J) = 3I + 3.
  EXPECT_EQ(R.Value, 3 * 6 + 4 * 3);
}

TEST(Nested, ApplyInsideIterateOnSharedExecutorCompletes) {
  SpecExecutor Ex(2);
  SpecConfig Cfg = SpecConfig().executor(Ex);
  auto R = Speculation::iterate<int64_t>(
      0, 6,
      [&](int64_t I, int64_t Acc) {
        int64_t Got = 0;
        Speculation::apply<int64_t>(
            [I] { return I * 2; }, [I] { return I * 2; },
            [&Got](int64_t V) { Got = V; }, Cfg);
        return Acc + Got;
      },
      [](int64_t I) { return I * (I - 1); }, Cfg);
  EXPECT_EQ(R.Value, 30);
}

TEST(Nested, ApplyInsideIterateOnSingleWorkerExecutorCompletes) {
  // One worker serves both levels: an apply() waiting on its speculative
  // attempt must run it itself when no worker has started it. Odd
  // iterations mispredict, so re-executions happen nested too.
  SpecExecutor Ex(1);
  SpecConfig Cfg = SpecConfig().executor(Ex);
  auto R = Speculation::iterate<int64_t>(
      0, 6,
      [&](int64_t I, int64_t Acc) {
        std::atomic<int64_t> Got{-1};
        Speculation::apply<int64_t>(
            [I] { return I * 2; }, [I] { return I % 2 ? I : I * 2; },
            [&Got](int64_t V) { Got = V; }, Cfg);
        return Acc + Got.load();
      },
      [](int64_t I) { return I * (I - 1); }, Cfg);
  EXPECT_EQ(R.Value, 30);
}

TEST(Nested, ApplyInsideApplyOnSingleWorkerExecutorCompletes) {
  // Both the outer producer and the outer consumer run an inner apply()
  // on the same one-worker executor; the outer guess is wrong, so the
  // consumer (and its inner apply) also re-executes on the caller.
  SpecExecutor Ex(1);
  SpecConfig Cfg = SpecConfig().executor(Ex);
  auto Inner = [&Cfg](int64_t X, int64_t Guess) {
    std::atomic<int64_t> Got{-1};
    Speculation::apply<int64_t>([X] { return X + 1; },
                                [Guess] { return Guess; },
                                [&Got](int64_t V) { Got = V; }, Cfg);
    return Got.load();
  };
  std::atomic<int64_t> Seen{-1};
  SpecResult<void> R = Speculation::apply<int64_t>(
      [&Inner] { return Inner(10, 11); }, [] { return int64_t(0); },
      [&Inner, &Seen](int64_t V) { Seen = Inner(V, -1); }, Cfg);
  EXPECT_EQ(Seen.load(), 12);
  EXPECT_EQ(R.Stats.Mispredictions, 1);
  EXPECT_EQ(R.Stats.Reexecutions, 1);
}

//===----------------------------------------------------------------------===//
// The claim protocol: a waiting thread runs only the attempts it awaits
//===----------------------------------------------------------------------===//

TEST(Claim, WaitingValidatorRunsOnlyTheSlotItAwaits) {
  // Every body that runs on the calling (validating) thread must belong
  // to the iteration the validator currently awaits: the finalizers mark
  // its progress, and iteration I is awaited once I iterations are
  // finalized. DelayTaskStart holds popped tasks back, so the validator
  // often finds attempts nobody has claimed yet.
  FaultPlan Plan(/*Seed=*/11);
  Plan.arm(FaultSite::DelayTaskStart, 0.5)
      .delayRange(std::chrono::microseconds(20),
                  std::chrono::microseconds(200));
  SpecExecutor Ex(2);
  Ex.injectFaults(&Plan);
  const std::thread::id Caller = std::this_thread::get_id();
  const int64_t N = 64;
  for (ValidationMode Mode : {ValidationMode::Seq, ValidationMode::Par}) {
    std::atomic<int64_t> Finalized{0};
    // (iteration, iterations finalized) per body run on the caller; only
    // the caller appends.
    std::vector<std::pair<int64_t, int64_t>> OnCaller;
    auto R = Speculation::iterateLocal<int64_t, int>(
        0, N, [] { return 0; },
        [&](int64_t I, int &, int64_t A) {
          if (std::this_thread::get_id() == Caller)
            OnCaller.emplace_back(I, Finalized.load());
          volatile uint64_t Sink = 0;
          for (int K = 0; K < 2000; ++K)
            Sink = Sink + static_cast<uint64_t>(K);
          return A + I;
        },
        // Every third prediction is wrong.
        [](int64_t I) { return I % 3 == 2 ? int64_t(-1) : I * (I - 1) / 2; },
        [&Finalized](int64_t I, int &) { Finalized.store(I + 1); },
        SpecConfig().executor(Ex).mode(Mode));
    EXPECT_EQ(R.Value, N * (N - 1) / 2);
    for (const auto &[I, Progress] : OnCaller)
      EXPECT_EQ(I, Progress) << "mode " << int(Mode) << ": the validator ran "
                             << "iteration " << I << " while awaiting "
                             << Progress;
  }
  Ex.injectFaults(nullptr);
}

TEST(Claim, RunsCompleteWhileTheOnlyWorkerIsHeld) {
  // Liveness without helping: the executor's only worker is held in a
  // gate task for the whole run, so no worker ever pops the runs' tasks;
  // the waiting caller claims and runs each attempt itself.
  SpecExecutor Ex(1);
  std::atomic<bool> Held{false}, Release{false};
  Ex.submit([&Held, &Release] {
    Held = true;
    while (!Release.load())
      std::this_thread::yield();
  });
  const auto Until =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!Held.load() && std::chrono::steady_clock::now() < Until)
    std::this_thread::yield();
  ASSERT_TRUE(Held.load());

  const int64_t N = 200;
  for (ValidationMode Mode : {ValidationMode::Seq, ValidationMode::Par}) {
    auto R = Speculation::iterateChunked<int64_t>(
        0, N, 8, [](int64_t I, int64_t A) { return A + I; },
        [](int64_t I) { return I % 16 == 8 ? int64_t(-1) : I * (I - 1) / 2; },
        SpecConfig().executor(Ex).mode(Mode));
    EXPECT_EQ(R.Value, N * (N - 1) / 2) << "mode " << int(Mode);
  }
  for (int Guess : {7, 8}) {
    int Seen = 0;
    SpecResult<void> R = Speculation::apply<int>(
        [] { return 7; }, [Guess] { return Guess; },
        [&Seen](int V) { Seen = V; }, SpecConfig().executor(Ex));
    EXPECT_EQ(Seen, 7) << "guess " << Guess;
    EXPECT_EQ(R.Stats.Predictions, 1);
    EXPECT_EQ(R.Stats.Reexecutions, Guess == 7 ? 0 : 1);
  }
  Release = true;
  Ex.waitIdle();
}

//===----------------------------------------------------------------------===//
// Speculation::iterateChunked
//===----------------------------------------------------------------------===//

TEST(IterateChunked, MatchesSequentialFoldWithPerfectChunkPredictions) {
  // acc' = acc + i starting at 0: truth entering i is i(i-1)/2.
  auto Body = [](int64_t I, int64_t A) { return A + I; };
  auto Pred = [](int64_t I) { return I * (I - 1) / 2; };
  auto R = Speculation::iterateChunked<int64_t>(0, 40, 8, Body, Pred,
                                                SpecConfig().threads(4));
  EXPECT_EQ(R.Value, 40 * 39 / 2);
  // Chunk-granular stats: 5 chunks, one prediction per boundary.
  EXPECT_EQ(R.Stats.Tasks, 5);
  EXPECT_EQ(R.Stats.Predictions, 4);
  EXPECT_EQ(R.Stats.Mispredictions, 0);
  EXPECT_EQ(R.Stats.Reexecutions, 0);
}

TEST(IterateChunked, ForcedMispredictionsStillCorrect) {
  // Garbage predictions at every chunk boundary: every chunk past the
  // first re-executes, and the result still matches the sequential fold.
  auto Body = [](int64_t I, int64_t A) { return (A * 31 + I) % 100003; };
  auto Pred = [](int64_t I) { return I == 0 ? int64_t(1) : int64_t(-7); };
  int64_t Truth = sequentialFold(0, 37, Body, Pred);
  for (ValidationMode Mode : {ValidationMode::Seq, ValidationMode::Par}) {
    auto R = Speculation::iterateChunked<int64_t>(
        0, 37, 5, Body, Pred, SpecConfig().threads(4).mode(Mode));
    EXPECT_EQ(R.Value, Truth);
    EXPECT_GE(R.Stats.Tasks, 8); // ceil(37/5) = 8 chunks (Par may chain more)
    EXPECT_EQ(R.Stats.Predictions, 7);
    EXPECT_EQ(R.Stats.Mispredictions, 7);
    EXPECT_GE(R.Stats.Reexecutions, Mode == ValidationMode::Seq ? 7 : 0);
  }
}

TEST(IterateChunked, ChunkSizeLargerThanRangeIsOneTask) {
  auto R = Speculation::iterateChunked<int64_t>(
      3, 9, 100, [](int64_t I, int64_t A) { return A + I; },
      [](int64_t) { return int64_t(0); });
  EXPECT_EQ(R.Value, 3 + 4 + 5 + 6 + 7 + 8);
  EXPECT_EQ(R.Stats.Tasks, 1);
  EXPECT_EQ(R.Stats.Predictions, 0);
}

TEST(IterateChunked, EmptyRangeReturnsInitialValue) {
  auto R = Speculation::iterateChunked<int64_t>(
      5, 5, 4, [](int64_t, int64_t A) { return A + 1; },
      [](int64_t) { return int64_t(77); });
  EXPECT_EQ(R.Value, 77);
  EXPECT_EQ(R.Stats.Tasks, 0);
}

TEST(IterateChunked, RandomizedAgainstSequentialFold) {
  Rng R(0xC0FFEE);
  for (int Trial = 0; Trial < 12; ++Trial) {
    int64_t N = 1 + static_cast<int64_t>(R.nextBelow(70));
    int64_t ChunkSize = 1 + static_cast<int64_t>(R.nextBelow(9));
    uint64_t Salt = R.next() % 997;
    auto Body = [Salt](int64_t I, int64_t A) {
      int64_t X = A ^ (I * 2654435761u);
      X = (X % 2 == 0) ? X / 2 + static_cast<int64_t>(Salt) : 3 * X + 1;
      return X % 1000003;
    };
    auto Pred = [&](int64_t I) {
      return I == 0 ? int64_t(7) : static_cast<int64_t>((I * Salt) % 1000003);
    };
    int64_t Truth = sequentialFold(0, N, Body, Pred);
    auto Got = Speculation::iterateChunked<int64_t>(
        0, N, ChunkSize, Body, Pred,
        SpecConfig()
            .threads(1 + static_cast<unsigned>(R.nextBelow(4)))
            .mode(R.nextBool(0.5) ? ValidationMode::Seq
                                  : ValidationMode::Par));
    EXPECT_EQ(Got.Value, Truth) << "N=" << N << " ChunkSize=" << ChunkSize;
  }
}

TEST(IterateChunkedLocal, FinalizersRunPerChunkInOrder) {
  // Chunk locals accumulate per-iteration products; finalizers must fire
  // once per chunk, in chunk order, with the validated local state.
  std::vector<int64_t> PublishedChunks;
  std::vector<int64_t> Published;
  auto R = Speculation::iterateChunkedLocal<int64_t, std::vector<int64_t>>(
      0, 10, 4, [] { return std::vector<int64_t>(); },
      [](int64_t I, std::vector<int64_t> &Local, int64_t In) {
        Local.push_back(I * 100 + In);
        return In + 1;
      },
      [](int64_t I) { return (I % 8 == 4) ? int64_t(-5) : I; },
      [&](int64_t Chunk, std::vector<int64_t> &Local) {
        PublishedChunks.push_back(Chunk);
        for (int64_t V : Local)
          Published.push_back(V);
      },
      SpecConfig().threads(3));
  EXPECT_EQ(R.Value, 10);
  EXPECT_EQ(PublishedChunks, (std::vector<int64_t>{0, 1, 2}));
  ASSERT_EQ(Published.size(), 10u);
  for (int64_t I = 0; I < 10; ++I)
    EXPECT_EQ(Published[static_cast<size_t>(I)], I * 100 + I)
        << "finalized local state must come from the validated execution";
}

//===----------------------------------------------------------------------===//
// Speculation::iterateLocal
//===----------------------------------------------------------------------===//

TEST(IterateLocal, FinalizersRunInOrderExactlyOncePerIteration) {
  std::vector<int64_t> Published;
  // Each iteration computes locally; only validated locals get published.
  // Predictions for odd iterations are wrong, forcing re-executions.
  auto R = Speculation::iterateLocal<int64_t, std::vector<int64_t>>(
      0, 12, [] { return std::vector<int64_t>(); },
      [](int64_t I, std::vector<int64_t> &Local, int64_t In) {
        Local.push_back(I * 100 + In);
        return In + 1;
      },
      [](int64_t I) { return (I % 2 == 1) ? int64_t(-5) : I; },
      [&Published](int64_t, std::vector<int64_t> &Local) {
        for (int64_t V : Local)
          Published.push_back(V);
      },
      SpecConfig().threads(4));
  EXPECT_EQ(R.Value, 12);
  ASSERT_EQ(Published.size(), 12u);
  for (int64_t I = 0; I < 12; ++I)
    EXPECT_EQ(Published[static_cast<size_t>(I)], I * 100 + I)
        << "finalized local state must come from the validated execution";
}

TEST(Iterate, NestedSpeculationWithTransientPools) {
  // Nested iterate with each level on its own transient executor (the
  // pre-SpecExecutor workaround) must keep working.
  auto R = Speculation::iterate<int64_t>(
      0, 6,
      [](int64_t I, int64_t Acc) {
        auto Inner = Speculation::iterate<int64_t>(
            0, 5, [I](int64_t J, int64_t A) { return A + I * J; },
            [I](int64_t J) { return I * J * (J - 1) / 2; },
            SpecConfig().threads(2));
        return Acc + Inner.Value;
      },
      [](int64_t I) {
        // Closed form of the outer accumulator: sum_{k<I} 10k.
        return 10 * I * (I - 1) / 2;
      },
      SpecConfig().threads(2));
  EXPECT_EQ(R.Value, 150);
}

TEST(IterateLocal, FinalizerExceptionPropagates) {
  EXPECT_THROW(
      (Speculation::iterateLocal<int64_t, int>(
          0, 4, [] { return 0; },
          [](int64_t, int &, int64_t In) { return In + 1; },
          [](int64_t I) { return I; },
          [](int64_t I, int &) {
            if (I == 1)
              throw std::runtime_error("finalizer");
          })),
      std::runtime_error);
}

//===----------------------------------------------------------------------===//
// Removal tests: the one-release deprecated forwards (sharedExecutor(),
// the SpeculationStats* stats sink, SpecExecutor::process(), the
// ThreadPool shim) are gone. The replacements must cover everything the
// forwards did — ownership-conveying executor resolution and throw-safe
// stats publication through stats::Snapshot.
//===----------------------------------------------------------------------===//

TEST(RemovedForwards, ResolvedExecutorConveysOwnership) {
  // resolvedExecutor() replaced sharedExecutor(): same resolution order,
  // but the handle names the ownership a raw pointer could not.
  EXPECT_EQ(SpecConfig().resolvedExecutor(), SpecExecutor::defaultShard());
  EXPECT_EQ(SpecConfig().threads(3).resolvedExecutor(), nullptr);
  std::shared_ptr<SpecExecutor> Ex = SpecExecutor::create(2);
  EXPECT_EQ(SpecConfig().executor(Ex).resolvedExecutor(), Ex);
  // The returned handle keeps the executor alive on its own.
  std::shared_ptr<SpecExecutor> Held =
      SpecConfig().executor(Ex).resolvedExecutor();
  Ex.reset();
  EXPECT_GE(Held->numThreads(), 1u);
}

TEST(RemovedForwards, SnapshotSinkFillsOnSuccess) {
  stats::Snapshot Snap;
  auto R = Speculation::iterate<int64_t>(
      0, 8, [](int64_t I, int64_t A) { return A + I; },
      [](int64_t I) { return I * (I - 1) / 2; },
      SpecConfig().threads(2).statsOut(&Snap));
  EXPECT_EQ(R.Value, 28);
  EXPECT_EQ(Snap.Spec.Tasks, 8);
  EXPECT_EQ(Snap.Spec.Predictions, 7);
  EXPECT_EQ(Snap.Spec.Mispredictions, 0);
}

TEST(RemovedForwards, SnapshotSinkFillsOnThrow) {
  // A correct prediction whose validated consumer throws: the exception
  // propagates, but the stats gathered before the throw must still reach
  // the snapshot sink — the throw-safety the removed SpeculationStats*
  // sink used to provide.
  stats::Snapshot Snap;
  SpecConfig Cfg;
  Cfg.statsOut(&Snap);
  EXPECT_THROW(Speculation::apply<int>([] { return 1; }, [] { return 1; },
                                       [](int) {
                                         throw std::runtime_error("consumer");
                                       },
                                       Cfg),
               std::runtime_error);
  EXPECT_EQ(Snap.Spec.Tasks, 1);
  EXPECT_EQ(Snap.Spec.Predictions, 1);
  EXPECT_EQ(Snap.Spec.Mispredictions, 0);
  EXPECT_EQ(Snap.Spec.FailedPredictions, 0);
}

//===----------------------------------------------------------------------===//
// Argument validation
//===----------------------------------------------------------------------===//

TEST(IterateChunked, NonPositiveChunkSizeThrows) {
  auto Body = [](int64_t I, int64_t A) { return A + I; };
  auto Pred = [](int64_t) { return int64_t(0); };
  for (int64_t Bad : {int64_t(0), int64_t(-1), int64_t(-100)}) {
    EXPECT_THROW(Speculation::iterateChunked<int64_t>(0, 10, Bad, Body, Pred),
                 std::invalid_argument);
    EXPECT_THROW(
        (Speculation::iterateChunkedLocal<int64_t, int>(
            0, 10, Bad, [] { return 0; },
            [](int64_t I, int &, int64_t A) { return A + I; }, Pred,
            [](int64_t, int &) {})),
        std::invalid_argument);
  }
}

//===----------------------------------------------------------------------===//
// Executor statistics
//===----------------------------------------------------------------------===//

TEST(Executor, StatsAccountForEveryTask) {
  SpecExecutor Ex(2);
  ExecutorStats Before = Ex.stats();
  std::atomic<int> Ran{0};
  const int N = 64;
  for (int I = 0; I < N; ++I)
    Ex.submit([&Ran] { ++Ran; });
  Ex.waitIdle();
  EXPECT_EQ(Ran.load(), N);
  ExecutorStats D = Ex.stats() - Before;
  // Every submitted task ran, and every task that ran was submitted.
  EXPECT_EQ(D.Submits, static_cast<uint64_t>(Ran.load()));
  EXPECT_GE(D.PeakQueueDepth, 1u);
}

TEST(Executor, StatsStringNamesEveryCounter) {
  ExecutorStats S;
  S.Submits = 1;
  std::string Str = S.str();
  for (const char *Key : {"submits=", "peak-queue=", "parks="})
    EXPECT_NE(Str.find(Key), std::string::npos) << Key;
  // The executor never steals or helps; those fields stay out of str().
  for (const char *Key : {"steals=", "help-runs="})
    EXPECT_EQ(Str.find(Key), std::string::npos) << Key;
}

//===----------------------------------------------------------------------===//
// Telemetry
//===----------------------------------------------------------------------===//

/// Events of \p Kind in \p Events, keyed by attempt id.
std::map<uint64_t, std::vector<SpecEvent>>
eventsByAttempt(const std::vector<SpecEvent> &Events) {
  std::map<uint64_t, std::vector<SpecEvent>> ByAttempt;
  for (const SpecEvent &E : Events)
    if (E.AttemptId != 0)
      ByAttempt[E.AttemptId].push_back(E);
  return ByAttempt;
}

uint64_t countKind(const std::vector<SpecEvent> &Events, SpecEventKind Kind,
                   int64_t Index) {
  uint64_t N = 0;
  for (const SpecEvent &E : Events)
    if (E.Kind == Kind && E.Index == Index)
      ++N;
  return N;
}

TEST(Telemetry, ApplyRecordsTheAttemptLifecycle) {
  Tracer Tr;
  Speculation::apply<int>([] { return 7; }, [] { return 99; }, [](int) {},
                          SpecConfig().trace(&Tr));
  std::vector<SpecEvent> Ev = Tr.snapshot();
  EXPECT_EQ(countKind(Ev, SpecEventKind::Dispatch, 0), 1u);
  EXPECT_EQ(countKind(Ev, SpecEventKind::Mispredict, 0), 1u);
  EXPECT_EQ(countKind(Ev, SpecEventKind::Reexecute, 0), 1u);
  EXPECT_EQ(countKind(Ev, SpecEventKind::Finalize, 0), 1u);
  EXPECT_EQ(countKind(Ev, SpecEventKind::ValidateAccept, 0), 0u);
}

TEST(Telemetry, EventsOrderDispatchStartFinishPerAttempt) {
  // Forced mispredictions in both validation modes: every attempt that
  // started must show dispatch < start < finish in the process-wide
  // sequence order, and every chunk resolves as exactly one of
  // validate-accept or re-execute, with exactly one finalize.
  const int64_t N = 48, ChunkSize = 8, Chunks = N / ChunkSize;
  auto Body = [](int64_t I, int64_t A) { return A + I; };
  auto Pred = [](int64_t I) { return I == 0 ? int64_t(0) : int64_t(-1); };
  for (ValidationMode Mode : {ValidationMode::Seq, ValidationMode::Par}) {
    Tracer Tr;
    auto R = Speculation::iterateChunked<int64_t>(
        0, N, ChunkSize, Body, Pred,
        SpecConfig().threads(3).mode(Mode).trace(&Tr));
    EXPECT_EQ(R.Value, N * (N - 1) / 2);
    std::vector<SpecEvent> Ev = Tr.snapshot();
    EXPECT_EQ(Tr.droppedEvents(), 0u);

    for (const auto &Entry : eventsByAttempt(Ev)) {
      const std::vector<SpecEvent> &A = Entry.second;
      uint64_t DispatchSeq = 0, StartSeq = 0, FinishSeq = 0;
      bool HasDispatch = false, HasStart = false, HasFinish = false;
      for (const SpecEvent &E : A) {
        if (E.Kind == SpecEventKind::Dispatch) {
          DispatchSeq = E.Seq;
          HasDispatch = true;
        } else if (E.Kind == SpecEventKind::Start) {
          StartSeq = E.Seq;
          HasStart = true;
        } else if (E.Kind == SpecEventKind::Finish) {
          FinishSeq = E.Seq;
          HasFinish = true;
        }
      }
      EXPECT_TRUE(HasDispatch) << "attempt " << Entry.first;
      if (HasStart) {
        EXPECT_LT(DispatchSeq, StartSeq) << "attempt " << Entry.first;
        ASSERT_TRUE(HasFinish) << "attempt " << Entry.first;
        EXPECT_LT(StartSeq, FinishSeq) << "attempt " << Entry.first;
      }
    }

    for (int64_t C = 0; C < Chunks; ++C) {
      EXPECT_EQ(countKind(Ev, SpecEventKind::ValidateAccept, C) +
                    countKind(Ev, SpecEventKind::Reexecute, C),
                1u)
          << "mode " << int(Mode) << " chunk " << C
          << ": accept xor re-execute";
      EXPECT_EQ(countKind(Ev, SpecEventKind::Finalize, C), 1u)
          << "mode " << int(Mode) << " chunk " << C;
      EXPECT_GE(countKind(Ev, SpecEventKind::Dispatch, C), 1u)
          << "mode " << int(Mode) << " chunk " << C;
    }
    // Chunk 0's input is the known initial value; every later chunk's
    // prediction was forced wrong, so the validator flags exactly one
    // misprediction per chunk. In Seq mode that always re-executes; in
    // Par mode an accepted corrective chain may resolve it instead (the
    // accept-xor-re-execute invariant above covers both).
    EXPECT_EQ(countKind(Ev, SpecEventKind::ValidateAccept, 0), 1u);
    for (int64_t C = 1; C < Chunks; ++C) {
      EXPECT_EQ(countKind(Ev, SpecEventKind::Mispredict, C), 1u)
          << "mode " << int(Mode) << " chunk " << C;
      if (Mode == ValidationMode::Seq) {
        EXPECT_EQ(countKind(Ev, SpecEventKind::Reexecute, C), 1u)
            << "chunk " << C;
      }
    }
  }
}

TEST(Telemetry, PerfectPredictionsAcceptEveryChunk) {
  Tracer Tr;
  auto R = Speculation::iterateChunked<int64_t>(
      0, 40, 8, [](int64_t I, int64_t A) { return A + I; },
      [](int64_t I) { return I * (I - 1) / 2; },
      SpecConfig().threads(4).trace(&Tr));
  EXPECT_EQ(R.Value, 40 * 39 / 2);
  std::vector<SpecEvent> Ev = Tr.snapshot();
  for (int64_t C = 0; C < 5; ++C) {
    EXPECT_EQ(countKind(Ev, SpecEventKind::ValidateAccept, C), 1u);
    EXPECT_EQ(countKind(Ev, SpecEventKind::Reexecute, C), 0u);
    EXPECT_EQ(countKind(Ev, SpecEventKind::Mispredict, C), 0u);
  }
}

TEST(Telemetry, SnapshotIsTotallyOrderedBySeq) {
  Tracer Tr;
  Speculation::iterate<int64_t>(
      0, 24, [](int64_t I, int64_t A) { return A + I; },
      [](int64_t I) { return I % 3 == 0 ? int64_t(-1) : I * (I - 1) / 2; },
      SpecConfig().threads(4).trace(&Tr));
  std::vector<SpecEvent> Ev = Tr.snapshot();
  ASSERT_FALSE(Ev.empty());
  for (size_t I = 1; I < Ev.size(); ++I)
    EXPECT_LT(Ev[I - 1].Seq, Ev[I].Seq);
}

TEST(Telemetry, TinyRingOverwritesAndReportsDrops) {
  // 16 is the smallest ring the tracer allows; the calling thread records
  // at least three events per apply(), so 16 rounds must overflow it.
  Tracer Tr(/*RingCapacity=*/16);
  for (int Round = 0; Round < 16; ++Round)
    Speculation::apply<int>([] { return 1; }, [] { return 1; }, [](int) {},
                            SpecConfig().trace(&Tr));
  EXPECT_GT(Tr.droppedEvents(), 0u);
  std::vector<SpecEvent> Ev = Tr.snapshot();
  EXPECT_FALSE(Ev.empty());
  // Each surviving ring retains at most its capacity.
  std::map<uint32_t, uint64_t> PerThread;
  for (const SpecEvent &E : Ev)
    ++PerThread[E.ThreadId];
  for (const auto &Entry : PerThread)
    EXPECT_LE(Entry.second, 16u);
}

TEST(Telemetry, ChromeTraceIsWellFormed) {
  Tracer Tr;
  Speculation::iterateChunked<int64_t>(
      0, 32, 8, [](int64_t I, int64_t A) { return A + I; },
      [](int64_t I) { return I == 0 ? int64_t(0) : int64_t(-1); },
      SpecConfig().threads(2).trace(&Tr));
  std::ostringstream OS;
  Tr.writeChromeTrace(OS);
  std::string Json = OS.str();
  ASSERT_FALSE(Json.empty());
  EXPECT_EQ(Json.front(), '[');
  EXPECT_EQ(Json[Json.find_last_not_of(" \n")], ']');
  for (const char *Needle :
       {"\"ph\"", "\"ts\"", "\"pid\"", "\"tid\"", "dispatch",
        "validate-accept", "re-execute", "mispredict"})
    EXPECT_NE(Json.find(Needle), std::string::npos) << Needle;
  // Quick structural sanity: braces balance.
  int64_t Depth = 0;
  for (char C : Json) {
    if (C == '{')
      ++Depth;
    else if (C == '}')
      --Depth;
    EXPECT_GE(Depth, 0);
  }
  EXPECT_EQ(Depth, 0);
}

TEST(Telemetry, SummaryNamesEventKinds) {
  Tracer Tr;
  Speculation::apply<int>([] { return 7; }, [] { return 99; }, [](int) {},
                          SpecConfig().trace(&Tr));
  std::string S = Tr.summary();
  for (const char *Needle : {"dispatch=", "mispredict=", "re-execute="})
    EXPECT_NE(S.find(Needle), std::string::npos) << S;
}

/// Property sweep across seeds: a fold with data-dependent control flow,
/// a half-accurate predictor, random thread counts and both modes.
class IterateFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IterateFuzz, AgreesWithSequentialFold) {
  Rng R(GetParam());
  for (int Trial = 0; Trial < 10; ++Trial) {
    int64_t N = 1 + static_cast<int64_t>(R.nextBelow(60));
    uint64_t Salt = R.next() % 997;
    auto Body = [Salt](int64_t I, int64_t A) {
      int64_t X = A ^ (I * 2654435761u);
      X = (X % 2 == 0) ? X / 2 + static_cast<int64_t>(Salt) : 3 * X + 1;
      return X % 1000003;
    };
    auto Pred = [&](int64_t I) {
      return I == 0 ? int64_t(7) : static_cast<int64_t>((I * Salt) % 1000003);
    };
    int64_t Truth = sequentialFold(0, N, Body, Pred);
    SpecConfig Cfg =
        SpecConfig()
            .mode(R.nextBool(0.5) ? ValidationMode::Seq : ValidationMode::Par)
            .threads(1 + static_cast<unsigned>(R.nextBelow(6)));
    EXPECT_EQ(Speculation::iterate<int64_t>(0, N, Body, Pred, Cfg).Value,
              Truth);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IterateFuzz,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

} // namespace
