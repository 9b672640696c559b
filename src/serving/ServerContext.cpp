//===- serving/ServerContext.cpp - The specd multi-tenant server ----------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "serving/ServerContext.h"

#include "runtime/Telemetry.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <algorithm>
#include <array>
#include <thread>

namespace specpar {
namespace serving {

const char *serverHealthName(ServerHealth H) {
  switch (H) {
  case ServerHealth::Ok:
    return "ok";
  case ServerHealth::Draining:
    return "draining";
  case ServerHealth::Degraded:
    return "degraded";
  }
  return "?";
}

ServerContext::ServerContext(const ServerOptions &O)
    : Opts(O), Catalog(O.WorkloadScale),
      Quarantines(std::max(1u, O.NumShards)) {
  const unsigned NumShards = std::max(1u, O.NumShards);
  unsigned PerShard = O.ThreadsPerShard;
  if (PerShard == 0)
    PerShard = std::max(1u, std::thread::hardware_concurrency() / NumShards);
  rt::FlightRecorder::Options FlightOpts;
  FlightOpts.DumpDir = O.FlightDir;
  FlightOpts.Retain = O.FlightRetain;
  FlightOpts.MinDumpGap = O.FlightMinDumpGap;
  Shards.reserve(NumShards);
  for (unsigned I = 0; I < NumShards; ++I) {
    FlightOpts.Label = "shard" + std::to_string(I);
    Shards.push_back(std::make_unique<Shard>(
        I, PerShard, O.QueueCapacity, Catalog, FlightOpts,
        [this](Ticket &&T, JobResult &&R) {
          onJobFinished(std::move(T), std::move(R));
        }));
  }
  RetryThread = std::thread([this] { retryLoop(); });
  HealthThread = std::thread([this] { healthLoop(); });
}

ServerContext::~ServerContext() { shutdown(); }

void ServerContext::registerTenant(TenantPolicy P) {
  std::lock_guard<std::mutex> Lock(TenantsM);
  std::unique_ptr<TenantState> &Slot = Tenants[P.Name];
  // Tenants are never removed, so a new name's id is the map size. A
  // re-registered tenant keeps its id: events its jobs left in the
  // flight rings still count for it.
  const uint32_t Id =
      Slot ? Slot->Id : static_cast<uint32_t>(Tenants.size());
  Slot = std::make_unique<TenantState>(std::move(P), Id);
  Slot->Breakers.resize(Shards.size());
}

TenantState *ServerContext::tenant(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(TenantsM);
  auto It = Tenants.find(Name);
  return It == Tenants.end() ? nullptr : It->second.get();
}

bool ServerContext::breakerAllows(TenantState *TS, unsigned ShardIdx) {
  if (TS->Policy.BreakerThreshold <= 0)
    return true;
  std::lock_guard<std::mutex> Lock(TS->BreakerM);
  if (ShardIdx >= TS->Breakers.size())
    return true;
  TenantState::Breaker &B = TS->Breakers[ShardIdx];
  if (B.State != 1)
    return true;
  if (std::chrono::steady_clock::now() - B.OpenedAt >=
      TS->Policy.BreakerResetAfter) {
    // Reset timer elapsed: half-open. The next job probes the shard;
    // success closes the breaker, failure re-opens it immediately.
    B.State = 2;
    return true;
  }
  return false;
}

bool ServerContext::breakerRecord(TenantState *TS, unsigned ShardIdx,
                                  bool Success) {
  if (TS->Policy.BreakerThreshold <= 0)
    return false;
  std::lock_guard<std::mutex> Lock(TS->BreakerM);
  if (ShardIdx >= TS->Breakers.size())
    return false;
  TenantState::Breaker &B = TS->Breakers[ShardIdx];
  if (Success) {
    B.Consecutive = 0;
    B.State = 0;
    return false;
  }
  ++B.Consecutive;
  if (B.State == 2 || B.Consecutive >= TS->Policy.BreakerThreshold) {
    bool Opened = B.State != 1;
    if (Opened)
      ++B.Trips;
    B.State = 1;
    B.OpenedAt = std::chrono::steady_clock::now();
    B.Consecutive = 0;
    return Opened;
  }
  return false;
}

void ServerContext::flightDump(unsigned ShardIdx, const std::string &Reason,
                               const std::string &Detail) {
  if (ShardIdx < Shards.size())
    Shards[ShardIdx]->flight().dump(Reason, Detail);
}

Shard *ServerContext::pickShardFor(TenantState *TS, const Shard *Exclude) {
  std::vector<Shard *> Admissible;
  Admissible.reserve(Shards.size());
  for (auto &S : Shards) {
    if (S.get() == Exclude || S->quarantined())
      continue;
    if (!breakerAllows(TS, S->index()))
      continue;
    Admissible.push_back(S.get());
  }
  if (Admissible.empty())
    return nullptr;
  if (Opts.Admission == AdmissionPolicy::RoundRobin)
    return Admissible[NextShard.fetch_add(1, std::memory_order_relaxed) %
                      Admissible.size()];
  Shard *Best = Admissible[0];
  uint64_t BestLoad = Best->load();
  for (size_t I = 1; I < Admissible.size(); ++I) {
    uint64_t L = Admissible[I]->load();
    if (L < BestLoad) {
      Best = Admissible[I];
      BestLoad = L;
    }
  }
  return Best;
}

std::future<JobResult> ServerContext::submit(const std::string &Tenant,
                                             Job Work) {
  TenantState *TS = tenant(Tenant);
  uint64_t MintedTraceId = 0;
  auto RejectNow = [&](const char *Why) {
    std::promise<JobResult> P;
    JobResult R;
    R.Outcome = JobOutcome::Rejected;
    R.Error = Why;
    R.TraceId = MintedTraceId;
    if (TS)
      TS->record(R);
    P.set_value(std::move(R));
    return P.get_future();
  };
  if (!TS)
    return RejectNow("unknown tenant");
  if (Down.load(std::memory_order_acquire))
    return RejectNow("server shut down");

  Ticket T;
  T.Work = std::move(Work);
  T.Tenant = TS;
  T.Enqueued = std::chrono::steady_clock::now();
  if (TS->Policy.Deadline.count() > 0)
    T.AbsDeadline = deadlineAfter(T.Enqueued, TS->Policy.Deadline);
  // Mint the job's causal identity at admission: one TraceId for its
  // whole life, SpanId 1 for this first execution attempt.
  MintedTraceId = NextTraceId.fetch_add(1, std::memory_order_relaxed) + 1;
  T.Ctx = {MintedTraceId, 1, TS->Id};
  std::future<JobResult> F = T.Promise.get_future();
  Shard *S = pickShardFor(TS);
  if (!S)
    return RejectNow("no admissible shard (quarantined or circuit open)");
  // Count the job in flight before the enqueue: the completion path
  // may run (and decrement) before this thread resumes. The /statusz
  // registry entry follows the same rule — registered before enqueue,
  // erased by resolveTerminal (possibly before this thread resumes).
  {
    std::lock_guard<std::mutex> Lock(JobsM);
    InFlightJobs[MintedTraceId] = {TS->Policy.Name, T.Work.Kind, T.Enqueued,
                                   T.Attempt};
  }
  InFlight.fetch_add(1, std::memory_order_relaxed);
  if (!S->enqueue(std::move(T))) {
    {
      std::lock_guard<std::mutex> Lock(RetryM);
      InFlight.fetch_sub(1, std::memory_order_relaxed);
    }
    RetryCV.notify_all();
    {
      std::lock_guard<std::mutex> Lock(JobsM);
      InFlightJobs.erase(MintedTraceId);
    }
    return RejectNow("shard queue full");
  }
  return F;
}

void ServerContext::onJobFinished(Ticket &&T, JobResult &&R) {
  TenantState *TS = T.Tenant;
  const bool Failure = R.Outcome == JobOutcome::TimedOut ||
                       R.Outcome == JobOutcome::Faulted;
  if (R.Executed) {
    // The attempt actually ran on R.Shard — feed the breaker. Results
    // produced without running a body (shutdown rejects, a deadline
    // that was exhausted while the job sat queued or in backoff) say
    // nothing about shard health and must not trip its breaker.
    const bool BreakerOpened = breakerRecord(TS, R.Shard, !Failure);
    // Anomalies snapshot the executing shard's flight recorder while
    // the interesting window is still in its rings. Rate-limited per
    // shard, so a burst costs one dump.
    if (BreakerOpened)
      flightDump(R.Shard, "breaker-open",
                 "tenant " + TS->Policy.Name + " opened its breaker, trace " +
                     std::to_string(T.Ctx.TraceId));
    else if (R.Stats.Spec.ContainedCrashes > 0)
      flightDump(R.Shard, "contained-crash",
                 "job trace " + std::to_string(T.Ctx.TraceId) + " contained " +
                     std::to_string(R.Stats.Spec.ContainedCrashes) +
                     " crash(es)");
    else if (R.Stats.Spec.RunawayCancels > 0)
      flightDump(R.Shard, "runaway",
                 "job trace " + std::to_string(T.Ctx.TraceId) +
                     " abandoned runaway attempt(s)");
    else if (R.Outcome == JobOutcome::TimedOut)
      flightDump(R.Shard, "job-timeout",
                 "job trace " + std::to_string(T.Ctx.TraceId) +
                     " expired its deadline");
  }
  if (Failure && T.Attempt <= TS->Policy.MaxRetries &&
      !Down.load(std::memory_order_acquire)) {
    // Exponential backoff, capped at 1 s (or the base when larger), plus
    // up to 25% jitter so synchronized failures don't re-converge on the
    // same instant.
    const int64_t Base = std::max<int64_t>(0, TS->Policy.RetryBackoff.count());
    const int64_t Cap = std::max<int64_t>(
        Base, std::chrono::nanoseconds(std::chrono::seconds(1)).count());
    int64_t Backoff = Base;
    for (int I = 1; I < T.Attempt && Backoff < Cap; ++I)
      Backoff *= 2;
    Backoff = std::min(Backoff, Cap);
    std::unique_lock<std::mutex> Lock(RetryM);
    if (Backoff > 0)
      Backoff += static_cast<int64_t>(
          JitterRng() % (static_cast<uint64_t>(Backoff) / 4 + 1));
    const auto NotBefore =
        std::chrono::steady_clock::now() + std::chrono::nanoseconds(Backoff);
    // Retry only while the backoff still leaves budget to run in; a
    // deadline-less job always qualifies.
    if (T.AbsDeadline == std::chrono::steady_clock::time_point{} ||
        NotBefore < T.AbsDeadline) {
      ++T.Attempt;
      // Same TraceId, next span: the retry's events stay correlated to
      // the job but distinguishable from the failed attempt's.
      T.Ctx.SpanId = static_cast<uint32_t>(T.Attempt);
      {
        std::lock_guard<std::mutex> JobsLock(JobsM);
        auto It = InFlightJobs.find(T.Ctx.TraceId);
        if (It != InFlightJobs.end())
          It->second.Attempt = T.Attempt;
      }
      TS->Retries.fetch_add(1, std::memory_order_relaxed);
      RetryQueue.push_back({std::move(T), std::move(R), NotBefore});
      Lock.unlock();
      RetryCV.notify_all();
      return;
    }
    Lock.unlock();
  }
  resolveTerminal(std::move(T), std::move(R));
}

void ServerContext::resolveTerminal(Ticket &&T, JobResult &&R) {
  // Record before releasing the in-flight slot so drain() returning
  // implies the aggregates already include this job.
  R.TraceId = T.Ctx.TraceId;
  T.Tenant->record(R);
  {
    std::lock_guard<std::mutex> Lock(JobsM);
    InFlightJobs.erase(T.Ctx.TraceId);
  }
  {
    std::lock_guard<std::mutex> Lock(RetryM);
    InFlight.fetch_sub(1, std::memory_order_relaxed);
  }
  RetryCV.notify_all();
  T.Promise.set_value(std::move(R));
}

void ServerContext::retryLoop() {
  std::unique_lock<std::mutex> Lock(RetryM);
  for (;;) {
    if (RetryQueue.empty()) {
      if (RetryStop)
        return;
      RetryCV.wait(Lock);
      continue;
    }
    size_t Best = 0;
    for (size_t I = 1; I < RetryQueue.size(); ++I)
      if (RetryQueue[I].NotBefore < RetryQueue[Best].NotBefore)
        Best = I;
    // Shutdown flushes pending backoffs immediately: the job resolves
    // with its last real failure rather than sleeping out the backoff.
    const bool Flush =
        RetryStop || Down.load(std::memory_order_acquire);
    // Copy the deadline out of the vector before waiting: wait_until
    // re-reads its time_point argument after dropping the lock, and a
    // concurrent push_back may have reallocated the queue under it.
    const std::chrono::steady_clock::time_point Until =
        RetryQueue[Best].NotBefore;
    if (!Flush && Until > std::chrono::steady_clock::now()) {
      RetryCV.wait_until(Lock, Until);
      continue;
    }
    RetryEntry E = std::move(RetryQueue[Best]);
    RetryQueue.erase(RetryQueue.begin() +
                     static_cast<std::ptrdiff_t>(Best));
    Lock.unlock();
    Shard *S = Flush ? nullptr : pickShardFor(E.T.Tenant);
    if (!S || !S->enqueue(std::move(E.T)))
      // No admissible shard (or it filled up between pick and enqueue):
      // terminal, with the last attempt's real result.
      resolveTerminal(std::move(E.T), std::move(E.LastResult));
    Lock.lock();
  }
}

void ServerContext::healthLoop() {
  while (!HealthStop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(Opts.HealthPeriod);
    const int64_t Now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    size_t Healthy = 0;
    for (auto &S : Shards)
      Healthy += S->quarantined() ? 0 : 1;
    for (size_t I = 0; I < Shards.size(); ++I) {
      Shard &S = *Shards[I];
      const int64_t BusySince = S.busySinceNs();
      if (!S.quarantined()) {
        if (BusySince != 0 && Now - BusySince > Opts.StuckAfter.count() &&
            Healthy > 1) {
          // Dispatcher stuck inside one job past the threshold:
          // quarantine the shard and re-dispatch its backlog so queued
          // jobs don't starve behind the stuck one. The LAST healthy
          // shard is never quarantined — the watchdog cannot tell
          // stuck from slow, and shedding every shard turns a slow
          // server into a dead one.
          --Healthy;
          S.setQuarantined(true);
          Quarantines[I].fetch_add(1, std::memory_order_relaxed);
          // Post-mortem while the stuck window is still in the rings:
          // what was the shard doing in the run-up to the quarantine?
          flightDump(static_cast<unsigned>(I), "quarantine",
                     "dispatcher stuck for " +
                         std::to_string((Now - BusySince) / 1000000) + " ms");
          for (Ticket &T : S.takeQueued()) {
            Shard *Target = pickShardFor(T.Tenant, &S);
            if (Target && Target->enqueue(std::move(T)))
              continue;
            JobResult R;
            R.Outcome = JobOutcome::Rejected;
            R.Shard = S.index();
            R.Error = "shard quarantined; no healthy shard available";
            R.Attempts = T.Attempt - 1;
            R.Latency = std::chrono::steady_clock::now() - T.Enqueued;
            resolveTerminal(std::move(T), std::move(R));
          }
        }
      } else if (BusySince == 0) {
        // The stuck job finished — the dispatcher is live again, so the
        // shard rejoins the admissible set.
        S.setQuarantined(false);
      }
    }
  }
}

ServerHealth ServerContext::health() const {
  if (Down.load(std::memory_order_acquire))
    return ServerHealth::Draining;
  for (auto &S : Shards)
    if (S->quarantined())
      return ServerHealth::Degraded;
  return ServerHealth::Ok;
}

void ServerContext::drain() {
  std::unique_lock<std::mutex> Lock(RetryM);
  RetryCV.wait(Lock, [this] {
    return InFlight.load(std::memory_order_relaxed) == 0;
  });
}

void ServerContext::shutdown() {
  if (Down.exchange(true, std::memory_order_acq_rel))
    return;
  // Wake the retry thread so pending backoffs flush instead of
  // sleeping; then wait out everything in flight.
  RetryCV.notify_all();
  drain();
  {
    std::lock_guard<std::mutex> Lock(RetryM);
    RetryStop = true;
  }
  RetryCV.notify_all();
  HealthStop.store(true, std::memory_order_release);
  if (RetryThread.joinable())
    RetryThread.join();
  if (HealthThread.joinable())
    HealthThread.join();
  for (auto &S : Shards)
    S->drain();
  for (auto &S : Shards)
    S->stop();
}

std::string ServerContext::metricsText() const {
  PrometheusWriter W;

  W.family("specd_shards", "Executor shards this server runs.", "gauge");
  W.sample("specd_shards", {}, static_cast<uint64_t>(Shards.size()));

  W.family("specd_queue_depth", "Jobs waiting in a shard's admission queue.",
           "gauge");
  for (auto &S : Shards)
    W.sample("specd_queue_depth",
             {{"shard", std::to_string(S->index())}},
             static_cast<uint64_t>(S->queueDepth()));

  W.family("specd_jobs_completed_total",
           "Jobs a shard has finished (any outcome).", "counter");
  for (auto &S : Shards)
    W.sample("specd_jobs_completed_total",
             {{"shard", std::to_string(S->index())}}, S->completedJobs());

  // Shard executor substrate counters, straight from ExecutorStats.
  struct ExecField {
    const char *Name;
    const char *Help;
    uint64_t rt::ExecutorStats::*Member;
  };
  static const ExecField ExecFields[] = {
      {"specd_executor_submits_total", "Tasks submitted to the executor.",
       &rt::ExecutorStats::Submits},
      {"specd_executor_eventcount_parks_total", "Worker park operations.",
       &rt::ExecutorStats::EventcountParks},
  };
  for (const ExecField &F : ExecFields) {
    W.family(F.Name, F.Help, "counter");
    for (auto &S : Shards)
      W.sample(F.Name, {{"shard", std::to_string(S->index())}},
               S->executorStats().*F.Member);
  }
  W.family("specd_executor_peak_queue_depth",
           "High-water mark of submitted-but-unfinished executor tasks.",
           "gauge");
  for (auto &S : Shards)
    W.sample("specd_executor_peak_queue_depth",
             {{"shard", std::to_string(S->index())}},
             S->executorStats().PeakQueueDepth);

  // Per-tenant aggregates. Snapshot the registry under its lock, then
  // render from the node-stable states without it.
  std::vector<TenantState *> States;
  {
    std::lock_guard<std::mutex> Lock(TenantsM);
    for (auto &KV : Tenants)
      States.push_back(KV.second.get());
  }

  W.family("specd_jobs_total", "Jobs per tenant and terminal outcome.",
           "counter");
  for (TenantState *TS : States) {
    auto Outcomes = TS->outcomes();
    for (size_t O = 0; O < Outcomes.size(); ++O)
      W.sample("specd_jobs_total",
               {{"tenant", TS->Policy.Name},
                {"outcome", jobOutcomeName(static_cast<JobOutcome>(O))}},
               Outcomes[O]);
  }

  struct SpecField {
    const char *Name;
    const char *Help;
    int64_t rt::SpeculationStats::*Member;
  };
  static const SpecField SpecFields[] = {
      {"specd_spec_tasks_total",
       "Speculative attempts dispatched (not executor submits).",
       &rt::SpeculationStats::Tasks},
      {"specd_spec_predictions_total", "Resolved prediction points.",
       &rt::SpeculationStats::Predictions},
      {"specd_spec_mispredictions_total", "Wrong predicted values.",
       &rt::SpeculationStats::Mispredictions},
      {"specd_spec_failed_predictions_total",
       "Prediction points resolved without a usable guess.",
       &rt::SpeculationStats::FailedPredictions},
      {"specd_spec_reexecutions_total", "Validator re-executions.",
       &rt::SpeculationStats::Reexecutions},
      {"specd_spec_degraded_chunks_total",
       "Dynamic segments run sequentially by the adaptive fallback.",
       &rt::SpeculationStats::DegradedChunks},
      {"specd_spec_profile_seeds_total",
       "Runs that started warm from a per-site profile.",
       &rt::SpeculationStats::ProfileSeeds},
      {"specd_spec_predictor_switches_total",
       "Online predictor switches after degrade-monitor trips.",
       &rt::SpeculationStats::PredictorSwitches},
      {"specd_spec_contained_crashes_total",
       "Speculative attempts whose hardware fault (SIGSEGV/SIGBUS/"
       "SIGFPE) the signal shield contained.",
       &rt::SpeculationStats::ContainedCrashes},
      {"specd_spec_runaway_cancels_total",
       "Over-budget attempts cancelled or forcibly abandoned by the "
       "runaway watchdog.",
       &rt::SpeculationStats::RunawayCancels},
  };
  for (const SpecField &F : SpecFields) {
    W.family(F.Name, F.Help, "counter");
    for (TenantState *TS : States)
      W.sample(F.Name, {{"tenant", TS->Policy.Name}},
               static_cast<uint64_t>(
                   std::max<int64_t>(0, TS->totals().Spec.*F.Member)));
  }

  // Resilience: retries, circuit breakers, and shard health.
  W.family("specd_retries_total",
           "Retry attempts scheduled for failed jobs per tenant.",
           "counter");
  for (TenantState *TS : States)
    W.sample("specd_retries_total", {{"tenant", TS->Policy.Name}},
             TS->Retries.load(std::memory_order_relaxed));

  bool AnyBreaker = false;
  for (TenantState *TS : States)
    AnyBreaker = AnyBreaker || TS->Policy.BreakerThreshold > 0;
  if (AnyBreaker) {
    W.family("specd_breaker_state",
             "Circuit state per tenant and shard: 0 closed, 1 open, "
             "2 half-open.",
             "gauge");
    for (TenantState *TS : States) {
      if (TS->Policy.BreakerThreshold <= 0)
        continue;
      std::lock_guard<std::mutex> Lock(TS->BreakerM);
      for (size_t I = 0; I < TS->Breakers.size(); ++I)
        W.sample("specd_breaker_state",
                 {{"tenant", TS->Policy.Name}, {"shard", std::to_string(I)}},
                 static_cast<uint64_t>(TS->Breakers[I].State));
    }
    W.family("specd_breaker_trips_total",
             "Times a tenant's breaker opened against a shard.",
             "counter");
    for (TenantState *TS : States) {
      if (TS->Policy.BreakerThreshold <= 0)
        continue;
      std::lock_guard<std::mutex> Lock(TS->BreakerM);
      for (size_t I = 0; I < TS->Breakers.size(); ++I)
        W.sample("specd_breaker_trips_total",
                 {{"tenant", TS->Policy.Name}, {"shard", std::to_string(I)}},
                 TS->Breakers[I].Trips);
    }
  }

  W.family("specd_shard_quarantines_total",
           "Times the health watchdog quarantined a shard for a stuck "
           "dispatcher.",
           "counter");
  for (auto &S : Shards)
    W.sample("specd_shard_quarantines_total",
             {{"shard", std::to_string(S->index())}},
             Quarantines[S->index()].load(std::memory_order_relaxed));
  W.family("specd_shard_healthy",
           "1 while the shard accepts work, 0 while quarantined.",
           "gauge");
  for (auto &S : Shards)
    W.sample("specd_shard_healthy", {{"shard", std::to_string(S->index())}},
             static_cast<uint64_t>(S->quarantined() ? 0 : 1));

  // Profile-store coverage for tenants running profile-guided: how many
  // distinct sites (tenant/kind pairs) have accumulated history.
  bool AnyProfile = false;
  for (TenantState *TS : States)
    AnyProfile = AnyProfile || TS->Profile != nullptr;
  if (AnyProfile) {
    W.family("specd_profile_sites",
             "Call sites with recorded profile history per tenant.", "gauge");
    for (TenantState *TS : States) {
      if (!TS->Profile)
        continue;
      W.sample("specd_profile_sites", {{"tenant", TS->Policy.Name}},
               static_cast<uint64_t>(TS->Profile->size()));
    }
  }

  W.family("specd_tenant_executor_submits_total",
           "Executor submits attributed to a tenant's runs (per-run "
           "deltas summed).",
           "counter");
  for (TenantState *TS : States)
    W.sample("specd_tenant_executor_submits_total",
             {{"tenant", TS->Policy.Name}}, TS->totals().Exec.Submits);

  W.family("specd_request_latency_seconds",
           "Enqueue-to-completion job latency.", "histogram");
  for (TenantState *TS : States)
    W.histogram("specd_request_latency_seconds",
                {{"tenant", TS->Policy.Name}}, TS->latency());

  // Per-tenant event counts, attributed at read time from the shards'
  // retained windows. A gauge: the count falls as rings overwrite and
  // the window slides.
  std::vector<std::array<uint64_t, rt::NumSpecEventKinds>> ByTenant(
      States.size() + 1);
  for (auto &S : Shards)
    S->flight().forEachRecentEvent([&ByTenant](const rt::SpecEvent &E) {
      if (E.Tenant < ByTenant.size())
        ++ByTenant[E.Tenant][static_cast<size_t>(E.Kind)];
    });
  W.family("specd_trace_events_total",
           "Spec-trace events retained in the shard flight recorders, per "
           "tenant and kind.",
           "gauge");
  for (TenantState *TS : States)
    for (size_t K = 0; K < rt::NumSpecEventKinds; ++K)
      if (uint64_t N = ByTenant[TS->Id][K])
        W.sample("specd_trace_events_total",
                 {{"tenant", TS->Policy.Name},
                  {"kind", rt::specEventKindName(rt::SpecEventKind(K))}},
                 N);

  // Ring-overwrite loss is a first-class signal: a nonzero rate means
  // the retained window is shorter than the rings advertise.
  W.family("specd_trace_dropped_events_total",
           "Trace events lost to ring overwrite, per shard flight "
           "recorder.",
           "counter");
  for (auto &S : Shards)
    W.sample("specd_trace_dropped_events_total",
             {{"shard", std::to_string(S->index())}},
             S->flight().tracer().droppedEvents());

  W.family("specd_flight_dump_requests_total",
           "Anomaly dump requests per shard flight recorder (written + "
           "rate-limited/suppressed).",
           "counter");
  for (auto &S : Shards)
    W.sample("specd_flight_dump_requests_total",
             {{"shard", std::to_string(S->index())}},
             S->flight().dumpRequests());
  W.family("specd_flight_dumps_written_total",
           "Post-mortem flight dumps written per shard.", "counter");
  for (auto &S : Shards)
    W.sample("specd_flight_dumps_written_total",
             {{"shard", std::to_string(S->index())}},
             S->flight().dumpsWritten());

  return std::move(W).str();
}

std::string ServerContext::statusJson() const {
  const auto Now = std::chrono::steady_clock::now();
  const int64_t NowNs =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Now.time_since_epoch())
          .count();
  std::string J = "{\"health\":";
  appendJsonString(J, serverHealthName(health()));

  J += ",\"shards\":[";
  for (size_t I = 0; I < Shards.size(); ++I) {
    const Shard &S = *Shards[I];
    const int64_t BusySince = S.busySinceNs();
    const rt::FlightRecorder &FR = S.flight();
    if (I)
      J += ",";
    J += formatString(
        "{\"index\":%u,\"healthy\":%s,\"queue_depth\":%zu,\"load\":%llu,"
        "\"completed\":%llu,\"quarantines\":%llu,\"busy_ms\":%.1f,"
        "\"flight\":{\"recorded\":%llu,\"dropped\":%llu,"
        "\"window_ms\":%.1f,\"dump_requests\":%llu,"
        "\"dumps_written\":%llu}}",
        S.index(), S.quarantined() ? "false" : "true", S.queueDepth(),
        static_cast<unsigned long long>(S.load()),
        static_cast<unsigned long long>(S.completedJobs()),
        static_cast<unsigned long long>(shardQuarantines(S.index())),
        BusySince ? static_cast<double>(NowNs - BusySince) / 1e6 : 0.0,
        static_cast<unsigned long long>(FR.tracer().recordedEvents()),
        static_cast<unsigned long long>(FR.tracer().droppedEvents()),
        std::chrono::duration<double, std::milli>(FR.windowSpan()).count(),
        static_cast<unsigned long long>(FR.dumpRequests()),
        static_cast<unsigned long long>(FR.dumpsWritten()));
  }
  J += "]";

  std::vector<TenantState *> States;
  {
    std::lock_guard<std::mutex> Lock(TenantsM);
    for (auto &KV : Tenants)
      States.push_back(KV.second.get());
  }
  J += ",\"tenants\":[";
  for (size_t I = 0; I < States.size(); ++I) {
    TenantState *TS = States[I];
    if (I)
      J += ",";
    J += "{\"name\":";
    appendJsonString(J, TS->Policy.Name);
    auto Outcomes = TS->outcomes();
    J += ",\"outcomes\":{";
    for (size_t O = 0; O < Outcomes.size(); ++O)
      J += formatString(
          "%s\"%s\":%llu", O ? "," : "",
          jobOutcomeName(static_cast<JobOutcome>(O)),
          static_cast<unsigned long long>(Outcomes[O]));
    J += formatString("},\"retries\":%llu",
                      static_cast<unsigned long long>(
                          TS->Retries.load(std::memory_order_relaxed)));
    if (TS->Policy.BreakerThreshold > 0) {
      J += ",\"breakers\":[";
      std::lock_guard<std::mutex> Lock(TS->BreakerM);
      for (size_t B = 0; B < TS->Breakers.size(); ++B)
        J += formatString(
            "%s{\"shard\":%zu,\"state\":%u,\"trips\":%llu}", B ? "," : "", B,
            static_cast<unsigned>(TS->Breakers[B].State),
            static_cast<unsigned long long>(TS->Breakers[B].Trips));
      J += "]";
    }
    if (TS->Profile) {
      J += ",\"profile_sites\":[";
      std::vector<std::string> Sites = TS->Profile->sites();
      for (size_t P = 0; P < Sites.size(); ++P) {
        rt::SiteProfile SP = TS->Profile->site(Sites[P]);
        if (P)
          J += ",";
        J += "{\"site\":";
        appendJsonString(J, Sites[P]);
        J += formatString(
            ",\"runs\":%lld,\"chunk\":%lld,\"degrade_trips\":%lld,"
            "\"predictor_switches\":%lld}",
            static_cast<long long>(SP.Runs),
            static_cast<long long>(SP.ChunkSize),
            static_cast<long long>(SP.DegradeTrips),
            static_cast<long long>(SP.PredictorSwitches));
      }
      J += "]";
    }
    J += "}";
  }
  J += "]";

  J += ",\"in_flight\":[";
  {
    std::lock_guard<std::mutex> Lock(JobsM);
    bool First = true;
    for (const auto &KV : InFlightJobs) {
      if (!First)
        J += ",";
      First = false;
      J += formatString("{\"trace_id\":%llu,\"tenant\":",
                        static_cast<unsigned long long>(KV.first));
      appendJsonString(J, KV.second.Tenant);
      J += formatString(
          ",\"kind\":\"%s\",\"attempt\":%d,\"age_ms\":%.1f}",
          jobKindName(KV.second.Kind), KV.second.Attempt,
          std::chrono::duration<double, std::milli>(Now - KV.second.Enqueued)
              .count());
    }
  }
  J += "]}";
  return J;
}

bool ServerContext::traceJson(uint64_t TraceId, std::string &Out) const {
  // One span per execution attempt; the shard whose recorder retained
  // the span's events is the shard that ran it. Timestamps are each
  // recorder's own clock (ns since that recorder's construction) —
  // comparable within a span, not across shards.
  struct SpanAcc {
    unsigned ShardIdx = 0;
    std::vector<rt::SpecEvent> Events;
  };
  std::map<uint32_t, SpanAcc> Spans;
  for (const auto &S : Shards)
    for (const rt::SpecEvent &E : S->flight().recentEvents()) {
      if (E.JobId != TraceId)
        continue;
      SpanAcc &A = Spans[E.SpanId];
      if (A.Events.empty())
        A.ShardIdx = S->index();
      A.Events.push_back(E);
    }
  if (Spans.empty())
    return false;

  auto EventJson = [](const rt::SpecEvent &E) {
    return formatString(
        "{\"ts_us\":%.3f,\"kind\":\"%s\",\"index\":%lld,\"thread\":%u}",
        static_cast<double>(E.TimeNs) / 1e3, rt::specEventKindName(E.Kind),
        static_cast<long long>(E.Index), E.ThreadId);
  };

  std::string J = formatString("{\"trace_id\":%llu,\"spans\":[",
                               static_cast<unsigned long long>(TraceId));
  bool FirstSpan = true;
  for (const auto &KV : Spans) {
    const SpanAcc &A = KV.second;
    if (!FirstSpan)
      J += ",";
    FirstSpan = false;
    J += formatString(
        "{\"span\":%u,\"shard\":%u,\"events\":%zu,\"first_ts_us\":%.3f,"
        "\"last_ts_us\":%.3f",
        KV.first, A.ShardIdx, A.Events.size(),
        static_cast<double>(A.Events.front().TimeNs) / 1e3,
        static_cast<double>(A.Events.back().TimeNs) / 1e3);
    // Attempt sub-spans (AttemptId 0 = run-level events: degrade,
    // autotune, timeout...). Ordered map keeps dispatch order — attempt
    // ids are minted monotonically per shard recorder.
    std::map<uint64_t, std::vector<const rt::SpecEvent *>> ByAttempt;
    for (const rt::SpecEvent &E : A.Events)
      ByAttempt[E.AttemptId].push_back(&E);
    J += ",\"run_events\":[";
    bool First = true;
    for (const rt::SpecEvent *E : ByAttempt[0]) {
      if (!First)
        J += ",";
      First = false;
      J += EventJson(*E);
    }
    J += "],\"attempts\":[";
    bool FirstAttempt = true;
    for (const auto &AKV : ByAttempt) {
      if (AKV.first == 0)
        continue;
      if (!FirstAttempt)
        J += ",";
      FirstAttempt = false;
      J += formatString("{\"attempt\":%llu,\"events\":[",
                        static_cast<unsigned long long>(AKV.first));
      bool FirstEv = true;
      for (const rt::SpecEvent *E : AKV.second) {
        if (!FirstEv)
          J += ",";
        FirstEv = false;
        J += EventJson(*E);
      }
      J += "]}";
    }
    J += "]}";
  }
  J += "]}";
  Out = std::move(J);
  return true;
}

} // namespace serving
} // namespace specpar
