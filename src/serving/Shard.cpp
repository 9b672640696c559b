//===- serving/Shard.cpp - One executor shard of specd --------------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "serving/Shard.h"

#include "apps/SpeculativeHuffman.h"
#include "apps/SpeculativeLexing.h"
#include "apps/SpeculativeMwis.h"
#include "compile/Compiler.h"

#include <stdexcept>

namespace specpar {
namespace serving {

const char *jobKindName(JobKind K) {
  switch (K) {
  case JobKind::Lex:
    return "lex";
  case JobKind::Decode:
    return "decode";
  case JobKind::Mwis:
    return "mwis";
  case JobKind::Spec:
    return "spec";
  case JobKind::Callable:
    return "callable";
  }
  return "?";
}

const char *jobOutcomeName(JobOutcome O) {
  switch (O) {
  case JobOutcome::Ok:
    return "ok";
  case JobOutcome::TimedOut:
    return "timed_out";
  case JobOutcome::Faulted:
    return "faulted";
  case JobOutcome::Rejected:
    return "rejected";
  }
  return "?";
}

Shard::Shard(unsigned Index, unsigned NumThreads, size_t QueueCapacity,
             const WorkloadCatalog &Catalog,
             rt::FlightRecorder::Options FlightOpts, CompletionFn OnComplete)
    : Index(Index), QueueCapacity(QueueCapacity), Catalog(Catalog),
      Ex(rt::SpecExecutor::create(NumThreads)),
      Flight(std::move(FlightOpts)), Completion(std::move(OnComplete)),
      Dispatcher([this] { dispatchLoop(); }) {}

Shard::~Shard() {
  stop();
  if (Dispatcher.joinable())
    Dispatcher.join();
}

bool Shard::enqueue(Ticket &&T) {
  {
    std::lock_guard<std::mutex> Lock(M);
    if (Stopping || quarantined() || Queue.size() >= QueueCapacity)
      return false;
    Queue.push_back(std::move(T));
  }
  QueueCV.notify_one();
  return true;
}

std::vector<Ticket> Shard::takeQueued() {
  std::vector<Ticket> Out;
  std::lock_guard<std::mutex> Lock(M);
  Out.reserve(Queue.size());
  while (!Queue.empty()) {
    Out.push_back(std::move(Queue.front()));
    Queue.pop_front();
  }
  return Out;
}

uint64_t Shard::load() const {
  std::lock_guard<std::mutex> Lock(M);
  return Queue.size() + (Busy ? 1 : 0);
}

size_t Shard::queueDepth() const {
  std::lock_guard<std::mutex> Lock(M);
  return Queue.size();
}

uint64_t Shard::completedJobs() const {
  std::lock_guard<std::mutex> Lock(M);
  return Completed;
}

void Shard::drain() {
  std::unique_lock<std::mutex> Lock(M);
  IdleCV.wait(Lock, [this] { return Queue.empty() && !Busy; });
}

void Shard::stop() {
  {
    std::lock_guard<std::mutex> Lock(M);
    Stopping = true;
  }
  QueueCV.notify_all();
}

void Shard::dispatchLoop() {
  for (;;) {
    Ticket T;
    {
      std::unique_lock<std::mutex> Lock(M);
      QueueCV.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty()) {
        // Stopping with nothing queued: loop is done.
        IdleCV.notify_all();
        return;
      }
      T = std::move(Queue.front());
      Queue.pop_front();
      if (Stopping) {
        // Reject without running — shutdown finishes the in-flight job
        // but does not start new ones.
        JobResult R;
        R.Outcome = JobOutcome::Rejected;
        R.Shard = Index;
        R.Error = "server shutting down";
        R.Attempts = T.Attempt - 1; // this attempt never ran
        R.Latency = std::chrono::steady_clock::now() - T.Enqueued;
        ++Completed;
        Lock.unlock();
        finish(std::move(T), std::move(R));
        continue;
      }
      Busy = true;
    }
    BusySinceNs.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now().time_since_epoch())
                          .count(),
                      std::memory_order_release);

    JobResult R = runJob(T.Work, *T.Tenant, T.AbsDeadline, T.Ctx);
    R.Shard = Index;
    // Attempts counts executions that actually ran a body; a job whose
    // budget expired before dispatch didn't use this attempt.
    R.Attempts = R.Executed ? T.Attempt : T.Attempt - 1;
    R.Latency = std::chrono::steady_clock::now() - T.Enqueued;

    BusySinceNs.store(0, std::memory_order_release);
    {
      std::lock_guard<std::mutex> Lock(M);
      Busy = false;
      ++Completed;
    }
    IdleCV.notify_all();
    // Fulfil after the bookkeeping so a drain() returning implies the
    // shard counters already include this job.
    finish(std::move(T), std::move(R));
  }
}

void Shard::finish(Ticket &&T, JobResult &&R) {
  // Every result answers "which TraceId was this?" — including the
  // stopping-reject path that never reached runJob.
  R.TraceId = T.Ctx.TraceId;
  Completion(std::move(T), std::move(R));
}

JobResult Shard::runJob(const Job &Work, TenantState &Tenant,
                        std::chrono::steady_clock::time_point AbsDeadline,
                        rt::TraceContext Ctx) {
  JobResult R;
  rt::Tracer &FlightTr = Flight.tracer();
  // Bracket the whole job with a Start/Finish pair of its own (Index =
  // job kind), so even a job that never drives the speculation runtime
  // (a sleeping callable, a pre-dispatch deadline expiry) leaves a span
  // `/debug/trace` can find, and the job renders as one duration slice
  // around its attempts in the Chrome dump.
  struct JobMarker {
    rt::Tracer &Tr;
    int64_t Kind;
    uint64_t AId;
    rt::TraceContext Ctx;
    ~JobMarker() { Tr.record(rt::SpecEventKind::Finish, Kind, AId, Ctx); }
  } Marker{FlightTr, static_cast<int64_t>(Work.Kind), FlightTr.newAttemptId(),
           Ctx};
  FlightTr.record(rt::SpecEventKind::Start, Marker.Kind, Marker.AId, Ctx);
  rt::SpecConfig Cfg = Tenant.Policy.toConfig(Ex, &FlightTr);
  Cfg.traceContext(Ctx);
  if (Tenant.Profile)
    // Key the profile per job kind: lex and decode converge to very
    // different chunk sizes, so they must not share a site.
    Cfg.profile(Tenant.Profile.get())
        .profileSite(Tenant.Policy.Name + "/" + jobKindName(Work.Kind));
  if (AbsDeadline != std::chrono::steady_clock::time_point{}) {
    // Every attempt runs under the job's *remaining* budget — queueing,
    // earlier attempts, and retry backoff all consume it. A fresh full
    // deadline per retry would let a flapping job hold its shard for
    // MaxRetries times the tenant's promise.
    const auto Remaining = AbsDeadline - std::chrono::steady_clock::now();
    if (Remaining <= std::chrono::nanoseconds::zero()) {
      // The budget ran out while the job sat in the queue (or in retry
      // backoff) — nothing executed, so this says nothing about the
      // shard's health. Executed stays false: the server layer must
      // not feed this result to the shard's circuit breaker, else a
      // tight-deadline tenant under queueing pressure trips breakers
      // against perfectly healthy shards.
      R.Outcome = JobOutcome::TimedOut;
      R.Error = "deadline budget exhausted before dispatch";
      return R;
    }
    Cfg.deadline(std::chrono::duration_cast<std::chrono::nanoseconds>(
        Remaining));
  }
  const int NumTasks = Tenant.Policy.NumTasks;
  R.Executed = true;
  try {
    switch (Work.Kind) {
    case JobKind::Lex: {
      apps::LexRun Run =
          apps::speculativeLex(Catalog.Lex, Catalog.Text, NumTasks,
                               /*Overlap=*/64, Cfg);
      R.Stats = Run.Stats;
      R.Value = static_cast<int64_t>(Run.Tokens.size());
      if (R.Value != Catalog.LexOracleTokens)
        throw std::runtime_error("lex output mismatch vs oracle");
      break;
    }
    case JobKind::Decode: {
      apps::HuffmanRun Run =
          apps::speculativeDecode(Catalog.Dec, Catalog.Bits, NumTasks,
                                  /*OverlapBits=*/64 * 8, Cfg);
      R.Stats = Run.Stats;
      R.Value = static_cast<int64_t>(Run.Decoded.size());
      if (Run.Decoded != Catalog.HuffOracle)
        throw std::runtime_error("decode output mismatch vs oracle");
      break;
    }
    case JobKind::Mwis: {
      apps::MwisRun Run = apps::speculativeMwis(Catalog.Weights, NumTasks,
                                                /*Overlap=*/32, Cfg);
      R.Stats = Run.Stats;
      R.Value = Run.Weight;
      if (Run.Weight != Catalog.MwisOracleWeight)
        throw std::runtime_error("mwis weight mismatch vs oracle");
      if (Run.Members != Catalog.MwisOracleMembers)
        throw std::runtime_error("mwis members mismatch vs oracle");
      break;
    }
    case JobKind::Spec: {
      // The catalog's Speculate program, compiled once at server start
      // onto the native runtime. The tenant's lowered config carries
      // straight through — executor, deadline, tracer, profile — so a
      // compiled-language job is governed and measured exactly like the
      // hand-written apps (shield/attemptBudget are stripped by the
      // compiled path by design; see compile/Compiler.h).
      compile::CompiledProgram::RunOptions RO;
      RO.Config = Cfg;
      RO.Config.statsOut(&R.Stats);
      compile::CompiledProgram::Outcome Run = Catalog.SpecProgram->run(RO);
      if (!Run.Run.ok())
        throw std::runtime_error("spec program run failed: " +
                                 Run.Run.statusStr());
      R.Value = Run.Run.Result.asInt();
      if (R.Value != Catalog.SpecOracle)
        throw std::runtime_error("spec program result mismatch vs oracle");
      break;
    }
    case JobKind::Callable: {
      // The callable drives the runtime itself; the snapshot sink
      // catches whatever it runs under this config (it may override).
      Cfg.statsOut(&R.Stats);
      R.Value = Work.Fn ? Work.Fn(Cfg) : 0;
      break;
    }
    }
    R.Outcome = JobOutcome::Ok;
  } catch (const rt::SpecTimeoutError &E) {
    R.Outcome = JobOutcome::TimedOut;
    R.Error = E.what();
  } catch (const rt::SpecFaultError &E) {
    // Injected fault: surface the site and probe index so the failure
    // is reproducible from the serving log alone (same seed, same
    // site, same probe).
    R.Outcome = JobOutcome::Faulted;
    R.Error = E.what();
    R.FaultSiteName = rt::faultSiteName(E.Site);
    R.FaultProbe = E.Probe;
  } catch (const std::exception &E) {
    R.Outcome = JobOutcome::Faulted;
    R.Error = E.what();
  }
  return R;
}

} // namespace serving
} // namespace specpar
