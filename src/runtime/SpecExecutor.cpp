//===- runtime/SpecExecutor.cpp - One-queue task executor -----------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/SpecExecutor.h"

#include "runtime/FaultPlan.h"
#include "support/StringUtils.h"

#include <chrono>

using namespace specpar;
using namespace specpar::rt;

namespace {

/// Task ring capacity; overflow (a burst far wider than this) falls back
/// to a deque, still under the same single mutex.
constexpr std::size_t kQueueCapacity = 1024;

/// Timed-park cap for idle workers: the eventcount protocol alone should
/// never lose a wakeup, but the executor's liveness must not hinge on
/// that proof holding under every FaultPlan jitter schedule.
constexpr std::chrono::milliseconds kWorkerParkCap(50);

} // namespace

ExecutorStats ExecutorStats::operator-(const ExecutorStats &Base) const {
  ExecutorStats D;
  D.Submits = Submits - Base.Submits;
  D.PeakQueueDepth = PeakQueueDepth;
  D.EventcountParks = EventcountParks - Base.EventcountParks;
  return D;
}

std::string ExecutorStats::str() const {
  return formatString("submits=%llu peak-queue=%llu parks=%llu",
                      static_cast<unsigned long long>(Submits),
                      static_cast<unsigned long long>(PeakQueueDepth),
                      static_cast<unsigned long long>(EventcountParks));
}

unsigned SpecExecutor::defaultThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

std::shared_ptr<SpecExecutor> SpecExecutor::create(unsigned NumThreads) {
  return std::make_shared<SpecExecutor>(NumThreads);
}

const std::shared_ptr<SpecExecutor> &SpecExecutor::defaultShard() {
  // A function-local static shared_ptr: the shard is created on first
  // use and kept alive through static destruction for any late holders
  // of a copied handle.
  static const std::shared_ptr<SpecExecutor> Shard =
      std::make_shared<SpecExecutor>(0);
  return Shard;
}


SpecExecutor::SpecExecutor(unsigned NumThreads) {
  if (NumThreads == 0)
    NumThreads = defaultThreads();
  Queue.Ring.resize(kQueueCapacity);
  Workers.reserve(NumThreads);
  for (unsigned I = 0; I < NumThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

SpecExecutor::~SpecExecutor() {
  Stop.store(true, std::memory_order_seq_cst);
  WorkEC.notifyAll();
  for (std::thread &W : Workers)
    W.join();
}

void SpecExecutor::submitRef(TaskRef Task) {
  // Count the task as pending *before* it becomes poppable, so waitIdle
  // and worker-exit never observe an enqueued-but-uncounted task.
  int64_t P = Pending.fetch_add(1, std::memory_order_seq_cst) + 1;
  uint64_t Depth = static_cast<uint64_t>(P);
  uint64_t Cur = PeakQueue.load(std::memory_order_relaxed);
  while (Depth > Cur &&
         !PeakQueue.compare_exchange_weak(Cur, Depth,
                                          std::memory_order_relaxed))
    ;

  {
    std::lock_guard<std::mutex> Lock(Queue.M);
    if (Queue.Count < Queue.Ring.size()) {
      Queue.Ring[(Queue.Head + Queue.Count) % Queue.Ring.size()] =
          std::move(Task);
      ++Queue.Count;
    } else {
      Queue.Overflow.push_back(std::move(Task));
    }
  }
  SubmitCount.fetch_add(1, std::memory_order_relaxed);

  // Injection site: stall between enqueue and wakeup, widening the window
  // in which sleeping workers could miss this submission (the eventcount
  // re-check protocol plus the timed park must absorb it).
  if (FaultPlan *Plan = Faults.load(std::memory_order_acquire))
    Plan->maybeDelay(FaultSite::JitterWakeup);
  WorkEC.notifyOne();
}

ExecutorStats SpecExecutor::stats() const {
  ExecutorStats S;
  S.Submits = SubmitCount.load(std::memory_order_relaxed);
  S.PeakQueueDepth = PeakQueue.load(std::memory_order_relaxed);
  S.EventcountParks = ParkCount.load(std::memory_order_relaxed);
  return S;
}

bool SpecExecutor::tryPop(TaskRef &Out) {
  std::lock_guard<std::mutex> Lock(Queue.M);
  if (Queue.Count == 0)
    return false;
  Out = std::move(Queue.Ring[Queue.Head]);
  Queue.Head = (Queue.Head + 1) % Queue.Ring.size();
  --Queue.Count;
  if (!Queue.Overflow.empty()) {
    Queue.Ring[(Queue.Head + Queue.Count) % Queue.Ring.size()] =
        std::move(Queue.Overflow.front());
    Queue.Overflow.pop_front();
    ++Queue.Count;
  }
  return true;
}

void SpecExecutor::runTask(TaskRef &Task) {
  // Injection site: a popped task's start is delayed, as a preempted or
  // descheduled worker would delay it.
  if (FaultPlan *Plan = Faults.load(std::memory_order_acquire))
    Plan->maybeDelay(FaultSite::DelayTaskStart);
  Task.run();
  Task = TaskRef(); // release captures before signalling completion
  if (Pending.fetch_sub(1, std::memory_order_seq_cst) == 1) {
    IdleEC.notifyAll();
    WorkEC.notifyAll(); // shutting-down workers re-check Pending == 0
  }
}

void SpecExecutor::waitIdle() {
  for (;;) {
    if (Pending.load(std::memory_order_seq_cst) == 0)
      return;
    uint64_t Ticket = IdleEC.prepareWait();
    if (Pending.load(std::memory_order_seq_cst) == 0) {
      IdleEC.cancelWait();
      return;
    }
    IdleEC.waitFor(Ticket, kWorkerParkCap);
  }
}

void SpecExecutor::workerLoop() {
  for (;;) {
    TaskRef Task;
    if (tryPop(Task)) {
      runTask(Task);
      continue;
    }
    // Exit only when shutting down AND nothing is pending: queued tasks
    // always run, and a still-running task may submit more.
    if (Stop.load(std::memory_order_seq_cst) &&
        Pending.load(std::memory_order_seq_cst) == 0)
      return;
    // Injection site: dawdle between the empty scan and going to sleep —
    // a submit can land right here, and the registered-waiter re-check
    // below is what keeps the worker from sleeping through it.
    if (FaultPlan *Plan = Faults.load(std::memory_order_acquire))
      Plan->maybeDelay(FaultSite::JitterWakeup);
    uint64_t Ticket = WorkEC.prepareWait();
    if (tryPop(Task)) {
      WorkEC.cancelWait();
      runTask(Task);
      continue;
    }
    if (Stop.load(std::memory_order_seq_cst) &&
        Pending.load(std::memory_order_seq_cst) == 0) {
      WorkEC.cancelWait();
      return;
    }
    ParkCount.fetch_add(1, std::memory_order_relaxed);
    WorkEC.waitFor(Ticket, kWorkerParkCap);
  }
}
