//===- tests/hotpath_test.cpp - Lock-free hot path stress tests -----------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Stress and contract tests for the hot path: the executor's one task
// queue under a burst past its ring capacity from workers and external
// threads at once, TaskRef's small-buffer allocation contract, the
// adaptive chunk autotuner, and — the headline perf contract — zero
// steady-state heap allocations per chunk in a speculative run (global
// operator new/delete counting hooks).
//
// Runs under -DSPECPAR_SANITIZE=thread and address (the sanitize-smoke
// CTest label): the queue and eventcount memory orders are chosen to be
// TSan-provable, and this binary is the proof obligation.
//
//===----------------------------------------------------------------------===//

#include "runtime/EventCount.h"
#include "runtime/SpecExecutor.h"
#include "runtime/Speculation.h"
#include "runtime/TaskRef.h"
#include "runtime/Telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

using namespace specpar::rt;

//===----------------------------------------------------------------------===//
// Global allocation counting hooks. Counting is off by default (gtest and
// the runtime may allocate freely); tests turn it on around a window and
// read the delta. Thread-safe: any thread's allocation counts.
//===----------------------------------------------------------------------===//

namespace {
std::atomic<bool> GCountAllocs{false};
std::atomic<int64_t> GAllocCount{0};

void *countedAlloc(std::size_t Size) {
  if (GCountAllocs.load(std::memory_order_relaxed))
    GAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (Size == 0)
    Size = 1;
  if (void *P = std::malloc(Size))
    return P;
  throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

namespace {

int64_t allocsSinceMark(int64_t Mark) {
  return GAllocCount.load(std::memory_order_relaxed) - Mark;
}

//===----------------------------------------------------------------------===//
// TaskRef
//===----------------------------------------------------------------------===//

TEST(TaskRef, SmallCapturesAreInlineAndAllocationFree) {
  int64_t A = 0, B = 0;
  int64_t *PA = &A, *PB = &B;
  const int64_t Mark = GAllocCount.load();
  GCountAllocs.store(true);
  {
    TaskRef T([PA, PB] {
      *PA = 1;
      *PB = 2;
    });
    TaskRef T2(std::move(T));
    T2.run();
  }
  GCountAllocs.store(false);
  EXPECT_EQ(allocsSinceMark(Mark), 0);
  EXPECT_EQ(A, 1);
  EXPECT_EQ(B, 2);
}

TEST(TaskRef, OversizedCapturesFallBackToOneHeapAllocation) {
  struct Big {
    char Pad[96];
  };
  Big Payload{};
  Payload.Pad[0] = 7;
  std::atomic<int> Ran{0};
  const int64_t Mark = GAllocCount.load();
  GCountAllocs.store(true);
  {
    TaskRef T([Payload, &Ran] { Ran += Payload.Pad[0]; });
    T.run();
  }
  GCountAllocs.store(false);
  EXPECT_EQ(allocsSinceMark(Mark), 1);
  EXPECT_EQ(Ran.load(), 7);
}

//===----------------------------------------------------------------------===//
// Executor queue
//===----------------------------------------------------------------------===//

// One task submits a burst from a worker while two external threads
// submit theirs, and every burst task holds its worker until all 8000
// are queued, so the 1024-task ring overflows into its deque from both
// sides. Checks full conservation (every task runs exactly once) and
// that every submit is counted.
TEST(ExecutorQueue, BurstPastRingCapacityRunsEveryTaskOnce) {
  SpecExecutor Ex(4);
  const ExecutorStats Before = Ex.stats();
  const int FromWorker = 4000, PerThread = 2000, Threads = 2;
  const int N = FromWorker + Threads * PerThread;
  std::vector<std::atomic<int>> Seen(static_cast<size_t>(N));
  for (auto &S : Seen)
    S.store(0, std::memory_order_relaxed);
  std::atomic<int> Queued{0};

  auto Submit = [&](int I) {
    Ex.submit([&Seen, &Queued, I, N] {
      while (Queued.load(std::memory_order_acquire) < N)
        std::this_thread::yield();
      Seen[static_cast<size_t>(I)].fetch_add(1, std::memory_order_relaxed);
    });
    Queued.fetch_add(1, std::memory_order_release);
  };

  Ex.submit([&Submit, FromWorker] {
    for (int I = 0; I < FromWorker; ++I)
      Submit(I);
  });
  std::vector<std::thread> Submitters;
  for (int T = 0; T < Threads; ++T)
    Submitters.emplace_back([&Submit, T, FromWorker, PerThread] {
      for (int I = 0; I < PerThread; ++I)
        Submit(FromWorker + T * PerThread + I);
    });
  for (std::thread &T : Submitters)
    T.join();
  Ex.waitIdle();

  for (int I = 0; I < N; ++I)
    ASSERT_EQ(Seen[static_cast<size_t>(I)].load(), 1) << "task " << I;
  const ExecutorStats D = Ex.stats() - Before;
  // N burst tasks + the task that submitted the worker-side burst.
  EXPECT_EQ(D.Submits, static_cast<uint64_t>(N) + 1);
  // The burst tasks cannot finish before all N are queued, so the queue
  // held far more than the ring's 1024.
  EXPECT_GT(D.PeakQueueDepth, 1024u);
  EXPECT_EQ(D.Steals, 0u);
  EXPECT_EQ(D.HelpRuns, 0u);
}

//===----------------------------------------------------------------------===//
// Zero steady-state allocations per chunk
//===----------------------------------------------------------------------===//

// The headline contract of the pooled attempt lifecycle: once a run is in
// steady state (pools warmed, executor rings allocated), iterating 10^4+
// chunks performs zero heap allocations — attempts recycle through the
// per-run pool, thunks fit TaskRef's inline storage, and the executor's
// preallocated task ring recirculates.
TEST(ZeroAlloc, SteadyStateChunkIterationDoesNotTouchTheHeap) {
  SpecExecutor Ex(2);
  const int64_t N = 20000;

  auto RunOnce = [&] {
    return Speculation::iterateChunked<int64_t>(
        0, N, /*ChunkSize=*/4,
        [](int64_t I, int64_t Acc) { return Acc + I; },
        [](int64_t I) { return I * (I - 1) / 2; },
        SpecConfig().executor(Ex));
  };
  // Warm-up run: slab allocations, ring growth, lazy libc init.
  const SpecResult<int64_t> Warm = RunOnce();
  EXPECT_EQ(Warm.Value, N * (N - 1) / 2);

  // Measured run: count allocations over the middle 60% of the
  // iteration space (the engine's own setup/teardown sits outside the
  // window).
  const int64_t Mark = GAllocCount.load();
  auto R = Speculation::iterateChunked<int64_t>(
      0, N, /*ChunkSize=*/4,
      [N](int64_t I, int64_t Acc) {
        if (I == N / 5)
          GCountAllocs.store(true, std::memory_order_relaxed);
        if (I == (4 * N) / 5)
          GCountAllocs.store(false, std::memory_order_relaxed);
        return Acc + I;
      },
      [](int64_t I) { return I * (I - 1) / 2; }, SpecConfig().executor(Ex));
  GCountAllocs.store(false, std::memory_order_relaxed);
  EXPECT_EQ(R.Value, N * (N - 1) / 2);
  EXPECT_EQ(R.Stats.Tasks, N / 4);
  EXPECT_EQ(allocsSinceMark(Mark), 0)
      << "steady-state chunk iteration allocated";
}

//===----------------------------------------------------------------------===//
// Autotuner
//===----------------------------------------------------------------------===//

TEST(Autotune, GrowsChunksWhenBodiesUndershootTheTarget) {
  Tracer Tr;
  const int64_t N = 8000;
  // Trivial bodies against a 10ms target: every wave undershoots, so the
  // controller doubles the chunk until its ceiling; the result must stay
  // exact and at least one Autotune event must fire.
  auto R = Speculation::iterateChunked<int64_t>(
      0, N, /*ChunkSize=*/1,
      [](int64_t I, int64_t Acc) { return Acc + I; },
      [](int64_t I) { return I * (I - 1) / 2; },
      SpecConfig().threads(2).autotune(/*TargetChunkMicros=*/10000).trace(
          &Tr));
  EXPECT_EQ(R.Value, N * (N - 1) / 2);
  int64_t AutotuneEvents = 0;
  int64_t LastSize = 1;
  for (const SpecEvent &E : Tr.snapshot())
    if (E.Kind == SpecEventKind::Autotune) {
      ++AutotuneEvents;
      EXPECT_GT(E.Index, LastSize) << "undershoot must only grow the chunk";
      LastSize = E.Index;
    }
  EXPECT_GE(AutotuneEvents, 1);
  // Fewer, larger segments: far fewer tasks than one per initial chunk.
  EXPECT_LT(R.Stats.Tasks, N / 2);
  EXPECT_GT(R.Stats.Tasks, 0);
}

TEST(Autotune, OffByDefaultKeepsTheFixedChunkGrid) {
  const int64_t N = 640;
  auto R = Speculation::iterateChunked<int64_t>(
      0, N, /*ChunkSize=*/8, [](int64_t I, int64_t Acc) { return Acc + I; },
      [](int64_t I) { return I * (I - 1) / 2; }, SpecConfig().threads(2));
  EXPECT_EQ(R.Value, N * (N - 1) / 2);
  // Exactly one task per fixed chunk and one prediction per boundary.
  EXPECT_EQ(R.Stats.Tasks, N / 8);
  EXPECT_EQ(R.Stats.Predictions, N / 8 - 1);
  EXPECT_EQ(R.Stats.Mispredictions, 0);
}

TEST(Autotune, NeverAppliesToPlainIterate) {
  Tracer Tr;
  const int64_t N = 200;
  auto R = Speculation::iterate<int64_t>(
      0, N, [](int64_t I, int64_t Acc) { return Acc + I; },
      [](int64_t I) { return I * (I - 1) / 2; },
      SpecConfig().threads(2).autotune(10000).trace(&Tr));
  EXPECT_EQ(R.Value, N * (N - 1) / 2);
  for (const SpecEvent &E : Tr.snapshot())
    EXPECT_NE(E.Kind, SpecEventKind::Autotune);
  // Per-iteration granularity is preserved.
  EXPECT_EQ(R.Stats.Predictions, N - 1);
}

TEST(Autotune, ShrinksChunksUnderSustainedMisprediction) {
  // Every boundary mispredicts, so the run degenerates into thousands of
  // re-executed chunk-1 segments — size the per-thread event rings so the
  // early (shrinking) Autotune events survive until snapshot().
  Tracer Tr(1 << 18);
  const int64_t N = 4096;
  // A predictor that is wrong at every boundary: bad-rate 100% per wave,
  // so the controller halves (already at the floor of 1 here — use a
  // larger initial chunk to observe shrinking).
  auto R = Speculation::iterateChunked<int64_t>(
      0, N, /*ChunkSize=*/64,
      [](int64_t, int64_t Acc) { return Acc + 1; }, [](int64_t) {
        return static_cast<int64_t>(-1); // always wrong (true acc is >= 0)
      },
      SpecConfig().threads(2).autotune(/*TargetChunkMicros=*/1).trace(&Tr));
  EXPECT_EQ(R.Value, -1 + N); // Predictor(0) = -1 seeds the fold
  bool SawShrink = false;
  int64_t Prev = 64;
  for (const SpecEvent &E : Tr.snapshot())
    if (E.Kind == SpecEventKind::Autotune) {
      if (E.Index < Prev)
        SawShrink = true;
      Prev = E.Index;
    }
  EXPECT_TRUE(SawShrink);
}

//===----------------------------------------------------------------------===//
// EventCount
//===----------------------------------------------------------------------===//

TEST(EventCount, WakesParkedWaiter) {
  EventCount EC;
  std::atomic<bool> Flag{false};
  std::thread Waiter([&] {
    while (!Flag.load(std::memory_order_seq_cst)) {
      const uint64_t Ticket = EC.prepareWait();
      if (Flag.load(std::memory_order_seq_cst)) {
        EC.cancelWait();
        return;
      }
      EC.wait(Ticket);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Flag.store(true, std::memory_order_seq_cst);
  EC.notifyAll();
  Waiter.join();
  SUCCEED();
}

TEST(EventCount, TimedWaitReturnsWithoutNotify) {
  EventCount EC;
  const uint64_t Ticket = EC.prepareWait();
  const auto T0 = std::chrono::steady_clock::now();
  const bool Notified = EC.waitFor(Ticket, std::chrono::milliseconds(20));
  EXPECT_FALSE(Notified);
  EXPECT_GE(std::chrono::steady_clock::now() - T0,
            std::chrono::milliseconds(15));
}

} // namespace
