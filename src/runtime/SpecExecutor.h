//===- runtime/SpecExecutor.h - Work-stealing task executor -----*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A persistent work-stealing task executor, the substrate under the
/// speculation runtime (the role .NET's Task Parallel Library plays for
/// the paper's C# library).
///
/// Design:
///  * one Chase–Lev lock-free deque per worker: the owning worker pushes
///    and pops LIFO (depth-first locality for chained corrective
///    attempts) with no atomic RMW on the fast path; other threads steal
///    FIFO with one CAS. Deques hold pointers to pooled `TaskSlot`s so a
///    worker-side submit is slot-from-cache + two plain stores + one
///    seq_cst store — no lock, no heap allocation;
///  * external submitters (typically the speculation validator) enqueue
///    into a fixed-capacity injection ring of `TaskRef` by value under a
///    single uncontended mutex — preallocated, so no steady-state
///    allocation there either; a deque absorbs the (rare) overflow;
///  * tasks are `TaskRef` (move-only, 48-byte inline storage): the
///    runtime's attempt thunks capture two pointers and never touch the
///    heap; oversized captures fall back to one allocation inside
///    TaskRef;
///  * idle workers park on an `EventCount`, so submit's wake-up is a
///    single seq_cst load when every worker is busy — the old protocol
///    took a second mutex and `notify_all` on every submit *and* every
///    completion;
///  * **helping**: any thread — worker or not — can call
///    `tryRunOneTask()` to execute one queued task inline, and `waitIdle()`
///    does so while it waits. The speculation runtime does not: a run
///    waiting on an attempt claims and runs that attempt itself when no
///    worker has started it (runtime/Speculation.h), which is what makes
///    *nested* speculation on one shared executor deadlock-free;
///  * destruction drains the queues (every submitted task runs) and joins
///    the workers.
///
/// The lock-free paths are exercised concurrently from every thread, so
/// builds with `-DSPECPAR_SANITIZE=thread` run `runtime_test` and the
/// steal-storm stress tests under TSan (the `sanitize-smoke` CTest
/// label); the Chase–Lev memory orders are chosen to be TSan-provable
/// (see ChaseLevDeque.h).
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_RUNTIME_SPECEXECUTOR_H
#define SPECPAR_RUNTIME_SPECEXECUTOR_H

#include "runtime/ChaseLevDeque.h"
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
  /// Tasks a worker popped from its own deque (LIFO fast path).
  uint64_t OwnPops = 0;
  /// Tasks popped from the injection ring (external submissions).
  uint64_t InjectionPops = 0;
  /// Tasks stolen from another worker's deque.
  uint64_t Steals = 0;
  /// Tasks executed inline through `tryRunOneTask()`, by `waitIdle()` or a
  /// direct caller. Speculative runs never help (they claim their own
  /// attempts instead), so they contribute 0.
  uint64_t HelpRuns = 0;
  /// The largest number of submitted-but-unfinished tasks observed.
  uint64_t PeakQueueDepth = 0;
  /// Times a worker actually parked on the eventcount (a low count on a
  /// busy run means the wake-free submit fast path is doing its job).
  uint64_t EventcountParks = 0;
  /// Batched refills of a worker's local task-slot cache from the global
  /// pool (steady state: zero — slots recirculate through the caches).
  uint64_t SlotPoolRefills = 0;

  /// Counter-wise difference (PeakQueueDepth keeps this snapshot's value —
  /// a high-water mark has no meaningful delta).
  ExecutorStats operator-(const ExecutorStats &Base) const;

  /// Counter-wise accumulation of another span's delta into this one
  /// (PeakQueueDepth keeps the max of the two high-water marks). This is
  /// how per-run `stats::Snapshot`s aggregate into per-shard/per-tenant
  /// totals.
  ExecutorStats &operator+=(const ExecutorStats &O) {
    Submits += O.Submits;
    OwnPops += O.OwnPops;
    InjectionPops += O.InjectionPops;
    Steals += O.Steals;
    HelpRuns += O.HelpRuns;
    PeakQueueDepth = PeakQueueDepth > O.PeakQueueDepth ? PeakQueueDepth
                                                       : O.PeakQueueDepth;
    EventcountParks += O.EventcountParks;
    SlotPoolRefills += O.SlotPoolRefills;
    return *this;
  }

  std::string str() const;
};

/// A persistent pool of worker threads with per-worker stealing deques.
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

  /// Enqueues \p Task; never blocks. Called from a worker of this
  /// executor, the task goes to that worker's own lock-free deque (LIFO);
  /// called from any other thread it goes to the injection ring (FIFO).
  /// The callable must be passed as an rvalue — the submission path is
  /// move-only end-to-end (see TaskRef).
  template <typename F> void submit(F &&Task) {
    submitRef(TaskRef(std::forward<F>(Task)));
  }

  /// Runs one queued task inline on the calling thread, if any is
  /// available: the calling worker's own deque first, then the injection
  /// ring, then steals from other workers. Returns false if every queue
  /// was empty. Safe to call from any thread.
  bool tryRunOneTask();

  /// Blocks until every task submitted so far has finished. Helps (runs
  /// queued tasks inline) while waiting.
  void waitIdle();

  /// True iff the calling thread is one of *this* executor's workers.
  bool onWorkerThread() const;

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
  /// it when neither an explicit executor nor `threads(N > 0)` is set,
  /// so one-off runs still share a single hardware-wide pool — but the
  /// ownership is now nameable: callers that care hold the handle.
  /// Because nested speculative runs on one executor are deadlock-free,
  /// a long-lived process can route every speculative run through this
  /// one shard instead of spawning transient pools.
  static const std::shared_ptr<SpecExecutor> &defaultShard();

private:
  /// A pooled task container: deques carry `TaskSlot*`, so a cell is
  /// pointer-sized (what Chase–Lev wants) while the TaskRef payload lives
  /// in recycled, stable storage.
  struct TaskSlot {
    TaskRef Task;
  };

  /// Per-worker state, cache-line separated: the lock-free deque plus an
  /// owner-only cache of free slots (refilled/flushed in batches against
  /// the global pool so the mutex is off the per-task path).
  struct alignas(64) Worker {
    ChaseLevDeque<TaskSlot *> Deque;
    std::vector<TaskSlot *> SlotCache;
  };

  void submitRef(TaskRef Task);
  void workerLoop(unsigned WorkerIdx);
  /// Pops a task for \p WorkerIdx (own LIFO, injection FIFO, steal FIFO);
  /// ~0u means "not a worker": injection then steal only.
  bool popTask(unsigned WorkerIdx, TaskRef &Out);
  void runTask(TaskRef &Task);

  TaskSlot *acquireSlot(unsigned WorkerIdx);
  void releaseSlot(TaskSlot *Slot);

  std::vector<std::unique_ptr<Worker>> WorkerStates;
  std::vector<std::thread> Workers;

  /// Global slot pool: slabs own the memory; Free holds recyclable slots.
  /// Touched only for batched cache refills/flushes and by non-worker
  /// helpers returning a stolen slot.
  struct SlotPool {
    std::mutex M;
    std::vector<TaskSlot *> Free;
    std::vector<std::unique_ptr<TaskSlot[]>> Slabs;
  };
  SlotPool Pool;

  /// External submissions: a preallocated ring of TaskRef under one
  /// mutex (uncontended in the common one-validator case), with a deque
  /// absorbing overflow so submit never blocks.
  struct InjectionQueue {
    std::mutex M;
    std::vector<TaskRef> Ring;
    std::size_t Head = 0;
    std::size_t Count = 0;
    std::deque<TaskRef> Overflow;
  };
  InjectionQueue Injection;
  bool tryPopInjection(TaskRef &Out);

  /// Activity counters behind stats(). Relaxed atomics: they are
  /// statistics, not synchronization.
  std::atomic<uint64_t> SubmitCount{0};
  std::atomic<uint64_t> OwnPopCount{0};
  std::atomic<uint64_t> InjectionPopCount{0};
  std::atomic<uint64_t> StealCount{0};
  std::atomic<uint64_t> HelpRunCount{0};
  std::atomic<uint64_t> PeakQueue{0};
  std::atomic<uint64_t> ParkCount{0};
  std::atomic<uint64_t> RefillCount{0};

  /// Fault-injection plan for the executor-level sites (null = off).
  std::atomic<FaultPlan *> Faults{nullptr};

  /// Submitted-but-unfinished tasks. seq_cst: participates in the
  /// eventcount Dekker protocols (worker exit, waitIdle).
  std::atomic<int64_t> Pending{0};
  std::atomic<bool> Stop{false};

  /// Workers park here when every queue is empty…
  EventCount WorkEC;
  /// …and waitIdle() parks here until Pending reaches zero.
  EventCount IdleEC;
};

} // namespace rt
} // namespace specpar

#endif // SPECPAR_RUNTIME_SPECEXECUTOR_H
