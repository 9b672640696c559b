//===- runtime/SpecExecutor.h - One-queue task executor ---------*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A persistent pool of workers draining one FIFO task queue, the
/// substrate under the speculation runtime (the role .NET's Task Parallel
/// Library plays for the paper's C# library). The runtime asks it for one
/// thing: run this task somewhere. `apply` submits one task per run; an
/// iterate run keeps at most one drain task per worker queued, each
/// running its wave's unclaimed attempts (runtime/SpecEngine.h).
///
/// Design:
///  * one queue: every submit — from a worker or any other thread — puts
///    its `TaskRef` by value into a preallocated ring of 1024 tasks under
///    one mutex, with a deque absorbing the (rare) overflow, so submit
///    never blocks and allocates nothing in steady state; workers pop
///    from the same ring in FIFO order;
///  * tasks are `TaskRef` (move-only, 48-byte inline storage): the
///    runtime's thunks fit it and never touch the heap; oversized
///    captures fall back to one allocation inside TaskRef;
///  * idle workers park on an `EventCount`, so submit's wake-up is a
///    single seq_cst load when every worker is busy;
///  * no helping: a thread waiting on speculative work never runs queued
///    tasks. It claims and runs an attempt it waits on itself when no
///    worker has, which is what makes *nested* speculation on one shared
///    executor deadlock-free without per-worker deques or stealing;
///  * destruction drains the queue (every submitted task runs) and joins
///    the workers.
///
/// The queue and eventcount paths are exercised concurrently from every
/// thread, so builds with `-DSPECPAR_SANITIZE=thread` run `runtime_test`
/// and `hotpath_test` under TSan (the `sanitize-smoke` CTest label).
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_RUNTIME_SPECEXECUTOR_H
#define SPECPAR_RUNTIME_SPECEXECUTOR_H

#include "runtime/EventCount.h"
#include "runtime/TaskRef.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace specpar {
namespace rt {

class FaultPlan;

/// A point-in-time snapshot of an executor's activity counters
/// (monotonically increasing since construction, except PeakQueueDepth
/// which is a high-water mark). Subtract two snapshots to attribute
/// activity to one span of work.
struct ExecutorStats {
  /// Tasks submitted (from workers and external threads alike).
  uint64_t Submits = 0;
  /// Never incremented: the executor has one queue and no helping, so
  /// nothing steals or runs a task inline. The fields remain only because
  /// the benchmark harness (perfbench/specbench.cpp) reads them; `str()`,
  /// the operators below and specd's /metrics skip them.
  uint64_t Steals = 0;
  uint64_t HelpRuns = 0;
  /// The largest number of submitted-but-unfinished tasks observed.
  uint64_t PeakQueueDepth = 0;
  /// Times a worker actually parked on the eventcount (a low count on a
  /// busy run means the wake-free submit fast path is doing its job).
  uint64_t EventcountParks = 0;

  /// Counter-wise difference (PeakQueueDepth keeps this snapshot's value —
  /// a high-water mark has no meaningful delta).
  ExecutorStats operator-(const ExecutorStats &Base) const;

  /// Counter-wise accumulation of another span's delta into this one
  /// (PeakQueueDepth keeps the max of the two high-water marks). This is
  /// how per-run `stats::Snapshot`s aggregate into per-shard/per-tenant
  /// totals.
  ExecutorStats &operator+=(const ExecutorStats &O) {
    Submits += O.Submits;
    PeakQueueDepth = PeakQueueDepth > O.PeakQueueDepth ? PeakQueueDepth
                                                       : O.PeakQueueDepth;
    EventcountParks += O.EventcountParks;
    return *this;
  }

  std::string str() const;
};

/// A persistent pool of worker threads sharing one FIFO task queue.
///
/// Tasks must not throw (the speculation runtime catches user exceptions
/// before they reach the executor).
class SpecExecutor {
public:
  /// Creates an executor with \p NumThreads workers. `0` means "one worker
  /// per hardware thread" (`std::thread::hardware_concurrency()`, at
  /// least one).
  explicit SpecExecutor(unsigned NumThreads = 0);

  /// Drains every queued task, then joins the workers.
  ~SpecExecutor();

  SpecExecutor(const SpecExecutor &) = delete;
  SpecExecutor &operator=(const SpecExecutor &) = delete;

  /// Enqueues \p Task at the back of the queue; never blocks. The
  /// callable must be passed as an rvalue — the submission path is
  /// move-only end-to-end (see TaskRef).
  template <typename F> void submit(F &&Task) {
    submitRef(TaskRef(std::forward<F>(Task)));
  }

  /// Blocks until every task submitted so far has finished. It parks
  /// rather than running queued tasks, so it must not be called from one
  /// of this executor's own tasks: on a one-worker executor that waits
  /// forever on itself.
  void waitIdle();

  unsigned numThreads() const {
    return static_cast<unsigned>(Workers.size());
  }

  /// A consistent-enough snapshot of the activity counters (each counter
  /// is read atomically; the set is not fenced against in-flight tasks).
  ExecutorStats stats() const;

  /// Installs \p Plan as this executor's fault-injection plan (nullptr to
  /// remove). Arms the executor-level sites: `DelayTaskStart` sleeps a
  /// jittered delay before a popped task runs, `JitterWakeup` sleeps
  /// around the submit/wake and pre-park paths to widen race windows. The
  /// plan must outlive every task submitted while it is installed; with
  /// none installed (the default) each site is a single pointer test.
  /// Faults never drop work: every submitted task still runs, including
  /// through destruction's drain.
  void injectFaults(FaultPlan *Plan) {
    Faults.store(Plan, std::memory_order_release);
  }
  FaultPlan *injectedFaults() const {
    return Faults.load(std::memory_order_acquire);
  }

  /// The number of workers `NumThreads == 0` resolves to: one per
  /// hardware thread, at least one.
  static unsigned defaultThreads();

  /// Creates a reference-counted executor shard with \p NumThreads
  /// workers (`0` = `defaultThreads()`). The handle *is* the ownership:
  /// anything that must outlive its runs — a `SpecConfig`, a serving
  /// shard, a bench — holds a copy, and the executor drains and joins
  /// when the last copy drops. This is the explicit-ownership
  /// counterpart of the old implicit `process()` singleton.
  static std::shared_ptr<SpecExecutor> create(unsigned NumThreads = 0);

  /// The process's default shard: a lazily created, reference-counted
  /// executor with `defaultThreads()` workers. `SpecConfig` resolves to
  /// it when no explicit executor is set, so one-off runs share a single
  /// hardware-wide pool — but the ownership is nameable: callers that
  /// care hold the handle. Nested speculative runs on one executor are
  /// deadlock-free, so every speculative run of a process can go through
  /// this one shard.
  static const std::shared_ptr<SpecExecutor> &defaultShard();

private:
  void submitRef(TaskRef Task);
  void workerLoop();
  bool tryPop(TaskRef &Out);
  void runTask(TaskRef &Task);

  std::vector<std::thread> Workers;

  /// The task queue: a preallocated ring of TaskRef under one mutex, with
  /// a deque absorbing overflow so submit never blocks. The queue, the
  /// pending count and each eventcount start their own cache lines: every
  /// submit and pop writes the queue, every submit and finish writes
  /// Pending, and every park writes WorkEC's waiter count. Packed
  /// together they measurably slowed served specd jobs (perfbench
  /// serve-apps op_p50_ms/op_p90_ms).
  struct TaskQueue {
    std::mutex M;
    std::vector<TaskRef> Ring;
    std::size_t Head = 0;
    std::size_t Count = 0;
    std::deque<TaskRef> Overflow;
  };
  alignas(64) TaskQueue Queue;

  /// Activity counters behind stats(). Relaxed atomics: they are
  /// statistics, not synchronization.
  std::atomic<uint64_t> SubmitCount{0};
  std::atomic<uint64_t> PeakQueue{0};
  std::atomic<uint64_t> ParkCount{0};

  /// Fault-injection plan for the executor-level sites (null = off).
  std::atomic<FaultPlan *> Faults{nullptr};

  /// Submitted-but-unfinished tasks. seq_cst: participates in the
  /// eventcount Dekker protocols (worker exit, waitIdle).
  alignas(64) std::atomic<int64_t> Pending{0};
  std::atomic<bool> Stop{false};

  /// Workers park here when the queue is empty…
  alignas(64) EventCount WorkEC;
  /// …and waitIdle() parks here until Pending reaches zero.
  alignas(64) EventCount IdleEC;
};

} // namespace rt
} // namespace specpar

#endif // SPECPAR_RUNTIME_SPECEXECUTOR_H
