//===- serving/Shard.h - One executor shard of specd ------------*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One shard of the specd serving layer: an owned `rt::SpecExecutor`
/// (one core group), a bounded admission queue, and a dispatch thread
/// that turns queued jobs into chunked speculative runs on that
/// executor. Shards are fully isolated from each other — each owns its
/// executor handle via the explicit `SpecExecutor::create()` API, so
/// stats, fault plans, and queue backlog never bleed across shards (the
/// property tests/serving_test.cpp pins down).
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_SERVING_SHARD_H
#define SPECPAR_SERVING_SHARD_H

#include "runtime/FlightRecorder.h"
#include "runtime/ProfileStore.h"
#include "runtime/Speculation.h"
#include "serving/Job.h"
#include "serving/Metrics.h"
#include "serving/TenantPolicy.h"

#include <array>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

namespace specpar {
namespace serving {

/// Server-side state of one registered tenant: its policy, its trace
/// id, and the aggregates the metrics endpoint renders. Shared by every
/// shard a tenant's jobs land on; `record()` serializes updates.
struct TenantState {
  TenantState(TenantPolicy P, uint32_t Id)
      : Policy(std::move(P)), Id(Id),
        Profile(Policy.ProfileGuided ? std::make_unique<rt::ProfileStore>()
                                     : nullptr) {
    // Warm from disk when persistence is configured; a missing or
    // corrupt file loads as cold, never as a registration failure.
    if (Profile && !Policy.ProfilePath.empty())
      Profile->load(Policy.ProfilePath);
  }

  ~TenantState() {
    if (Profile && !Policy.ProfilePath.empty())
      Profile->save(Policy.ProfilePath);
  }

  const TenantPolicy Policy;
  /// Dense nonzero id stamped on every trace event of the tenant's jobs
  /// (`rt::TraceContext::Tenant`).
  const uint32_t Id;
  /// The tenant's profile store (null unless `Policy.ProfileGuided`).
  /// Shared by every shard the tenant's jobs land on — the store is
  /// internally synchronized.
  const std::unique_ptr<rt::ProfileStore> Profile;

  /// Folds one finished (or rejected) job into the aggregates.
  void record(const JobResult &R) {
    std::lock_guard<std::mutex> Lock(M);
    Totals += R.Stats;
    ++Outcomes[static_cast<size_t>(R.Outcome)];
    Latency.observe(std::chrono::duration<double>(R.Latency).count());
  }

  /// Thread-safe copies for the metrics renderer.
  rt::stats::Snapshot totals() const {
    std::lock_guard<std::mutex> Lock(M);
    return Totals;
  }
  std::array<uint64_t, 4> outcomes() const {
    std::lock_guard<std::mutex> Lock(M);
    return Outcomes;
  }
  LatencyHistogram latency() const {
    std::lock_guard<std::mutex> Lock(M);
    return Latency;
  }

  /// Retries the server has scheduled for this tenant's jobs.
  std::atomic<uint64_t> Retries{0};

  /// One circuit breaker per shard for this tenant (see
  /// `TenantPolicy::BreakerThreshold`). Sized by the server at
  /// registration; guarded by `BreakerM`.
  struct Breaker {
    int Consecutive = 0;   ///< Failed attempts since the last success.
    uint8_t State = 0;     ///< 0 closed, 1 open, 2 half-open.
    std::chrono::steady_clock::time_point OpenedAt{};
    uint64_t Trips = 0;    ///< Closed/half-open -> open transitions.
  };
  mutable std::mutex BreakerM;
  std::vector<Breaker> Breakers;

private:
  mutable std::mutex M;
  rt::stats::Snapshot Totals;
  std::array<uint64_t, 4> Outcomes{}; ///< Indexed by JobOutcome.
  LatencyHistogram Latency;
};

/// An admitted job waiting on (or running on) a shard.
struct Ticket {
  Job Work;
  TenantState *Tenant = nullptr;
  std::promise<JobResult> Promise;
  std::chrono::steady_clock::time_point Enqueued;
  /// 1-based execution attempt this ticket represents; retries
  /// re-admit the same ticket with the next attempt number.
  int Attempt = 1;
  /// Absolute expiry of the job's *total* deadline budget (epoch-zero
  /// when the tenant has no deadline). Every attempt — first or retry —
  /// runs under whatever remains, never a fresh full deadline.
  std::chrono::steady_clock::time_point AbsDeadline{};
  /// Causal trace identity: TraceId minted once at admission, SpanId
  /// re-stamped per execution attempt (= Attempt), so every runtime
  /// event of every attempt of this job carries the same TraceId.
  rt::TraceContext Ctx;
};

class Shard {
public:
  /// Called with each finished ticket + result; the server layer records
  /// it and decides retry vs terminal resolution of the promise.
  using CompletionFn = std::function<void(Ticket &&, JobResult &&)>;

  /// \p NumThreads workers back this shard's executor; \p QueueCapacity
  /// bounds the admission queue (enqueue() refuses beyond it).
  /// \p FlightOpts configures the shard's always-on flight recorder
  /// (dump dir, retention, dump-file label). \p OnComplete receives every
  /// job the shard finishes or rejects.
  Shard(unsigned Index, unsigned NumThreads, size_t QueueCapacity,
        const WorkloadCatalog &Catalog, rt::FlightRecorder::Options FlightOpts,
        CompletionFn OnComplete);

  /// Stops the dispatch thread; queued-but-unstarted tickets are
  /// resolved as Rejected so no future is ever broken.
  ~Shard();

  Shard(const Shard &) = delete;
  Shard &operator=(const Shard &) = delete;

  /// Admits \p T (false when the queue is full, the shard is stopping,
  /// or the shard is quarantined; \p T is left intact so the caller can
  /// reject or re-route it).
  bool enqueue(Ticket &&T);

  /// Queued + running jobs — the admission policy's load signal.
  uint64_t load() const;

  /// Jobs currently waiting in the queue.
  size_t queueDepth() const;

  /// Jobs this shard has finished (any outcome).
  uint64_t completedJobs() const;

  /// Blocks until the queue is empty and no job is running.
  void drain();

  /// Stops accepting work, finishes the job in flight, rejects the rest.
  void stop();

  /// Health watchdog surface. `busySinceNs()` is the steady-clock
  /// timestamp (ns) at which the currently running job started, 0 when
  /// the dispatcher is idle — a large, non-zero age means the
  /// dispatcher is stuck inside one job. The quarantine flag gates
  /// admission (enqueue refuses) and shard selection; the server's
  /// health watchdog sets it and drains the backlog via takeQueued().
  int64_t busySinceNs() const {
    return BusySinceNs.load(std::memory_order_acquire);
  }
  bool quarantined() const {
    return Quarantined.load(std::memory_order_acquire);
  }
  void setQuarantined(bool Q) {
    Quarantined.store(Q, std::memory_order_release);
  }

  /// Removes and returns every queued-but-unstarted ticket (the job in
  /// flight, if any, is not touched). Used to re-dispatch a quarantined
  /// shard's backlog to healthy shards.
  std::vector<Ticket> takeQueued();

  unsigned index() const { return Index; }
  const std::shared_ptr<rt::SpecExecutor> &executor() const { return Ex; }
  rt::ExecutorStats executorStats() const { return Ex->stats(); }

  /// The shard's always-on flight recorder: the only trace sink of every
  /// job this shard runs, retaining the recent-event window that anomaly
  /// dumps, `/debug/trace` and the per-tenant metrics read.
  rt::FlightRecorder &flight() { return Flight; }
  const rt::FlightRecorder &flight() const { return Flight; }

private:
  void dispatchLoop();
  void finish(Ticket &&T, JobResult &&R);
  JobResult runJob(const Job &Work, TenantState &Tenant,
                   std::chrono::steady_clock::time_point AbsDeadline,
                   rt::TraceContext Ctx);

  const unsigned Index;
  const size_t QueueCapacity;
  const WorkloadCatalog &Catalog;
  const std::shared_ptr<rt::SpecExecutor> Ex;
  rt::FlightRecorder Flight;

  mutable std::mutex M;
  std::condition_variable QueueCV; ///< Signals the dispatch thread.
  std::condition_variable IdleCV;  ///< Signals drain() waiters.
  std::deque<Ticket> Queue;
  bool Busy = false;     ///< A job is between pop and promise-fulfil.
  bool Stopping = false; ///< No further admissions; loop exits when idle.
  uint64_t Completed = 0;
  const CompletionFn Completion;

  std::atomic<int64_t> BusySinceNs{0}; ///< Progress heartbeat.
  std::atomic<bool> Quarantined{false};

  std::thread Dispatcher; ///< Last member: joins before state dies.
};

} // namespace serving
} // namespace specpar

#endif // SPECPAR_SERVING_SHARD_H
