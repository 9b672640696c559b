//===- serving/specd_main.cpp - The specd server binary -------------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `specd` — speculation as a service. Starts a `ServerContext` with
/// the requested shard layout, registers tenants, and serves metrics on
/// a loopback HTTP port.
///
/// Three modes:
///  * default — start, print the metrics URL, serve until stdin closes
///    (EOF) so the process is script- and supervisor-friendly;
///  * `--smoke` — the self-contained CI exercise: start, register three
///    tenants (one with a deadline), submit a burst of app + callable
///    jobs, scrape /metrics over the real socket, verify
///    outcomes and exposition-format sanity, shut down cleanly, print
///    PASS/FAIL. The `serving-smoke` ctest label runs exactly this;
///  * `--chaos-smoke` — the same shape under injected chaos: one tenant
///    crashes speculative attempts (shield contains them), one throws
///    and retries, and a wedged job gets its shard quarantined by the
///    health watchdog. PASS requires every admitted job to resolve
///    (Ok/TimedOut/Faulted — never lost, never rejected), /healthz to
///    report degraded while the shard is out, /metrics to show nonzero
///    contained crashes, retries, and quarantines, the quarantine to
///    leave a valid Chrome-trace flight dump under --flight-dir, and
///    /statusz + /debug/trace to serve the span tree of an executed
///    job by the TraceId its JobResult reported.
///
//===----------------------------------------------------------------------===//

#include "serving/HttpMetricsServer.h"
#include "serving/ServerContext.h"
#include "support/CommandLine.h"
#include "support/Json.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace specpar;
using namespace specpar::serving;

namespace {

/// The --smoke burst: submit \p JobsPerTenant jobs for every registered
/// tenant, wait for all futures, and tally outcomes.
int runSmoke(ServerContext &Ctx, HttpMetricsServer &Http, int JobsPerTenant) {
  // All four catalog kinds, including the compiled Speculate program,
  // so the smoke's metrics scrape covers the native-compile path too.
  const JobKind Kinds[] = {JobKind::Lex, JobKind::Decode, JobKind::Mwis,
                           JobKind::Spec};
  std::vector<std::future<JobResult>> Futures;
  for (const char *Tenant : {"batch", "latency", "traced"})
    for (int I = 0; I < JobsPerTenant; ++I) {
      Job J;
      J.Kind = Kinds[I % 4];
      Futures.push_back(Ctx.submit(Tenant, std::move(J)));
    }
  // A callable job: user code driving the runtime through the served
  // config (the executor handle it carries is the shard's).
  Futures.push_back(Ctx.submit("batch", Job::callable([](const rt::SpecConfig &Cfg) {
    auto R = rt::Speculation::iterate<int64_t>(
        0, 16, [](int64_t I, int64_t A) { return A + I; },
        [](int64_t I) { return I * (I - 1) / 2; }, Cfg);
    return R.Value;
  })));

  int Ok = 0, TimedOut = 0, Faulted = 0, Rejected = 0;
  for (auto &F : Futures) {
    JobResult R = F.get();
    switch (R.Outcome) {
    case JobOutcome::Ok:
      ++Ok;
      break;
    case JobOutcome::TimedOut:
      ++TimedOut;
      break;
    case JobOutcome::Faulted:
      ++Faulted;
      std::fprintf(stderr, "specd --smoke: faulted job: %s\n",
                   R.Error.c_str());
      break;
    case JobOutcome::Rejected:
      ++Rejected;
      break;
    }
  }
  std::printf("specd --smoke: ok=%d timed_out=%d faulted=%d rejected=%d\n",
              Ok, TimedOut, Faulted, Rejected);

  // Scrape over the real socket and sanity-check the exposition text.
  std::string Resp = HttpMetricsServer::get(Http.port(), "/metrics");
  bool HttpOk = Resp.rfind("HTTP/1.1 200", 0) == 0;
  bool HasJobs = Resp.find("specd_jobs_total{") != std::string::npos;
  bool HasHist =
      Resp.find("specd_request_latency_seconds_bucket{") != std::string::npos;
  bool HasTrace =
      Resp.find("specd_trace_events_total{") != std::string::npos;
  std::printf("specd --smoke: scrape http=%d jobs=%d hist=%d trace=%d "
              "(%zu bytes)\n",
              HttpOk, HasJobs, HasHist, HasTrace, Resp.size());

  // Faults are hard failures (oracle mismatch or unexpected throw);
  // timeouts are only expected for the deadline tenant, rejects only
  // under queue overflow — the smoke queue is deep enough for neither
  // on the happy path, but a timed-out latency-tenant job is legal.
  if (Faulted > 0 || Rejected > 0 || !HttpOk || !HasJobs || !HasHist ||
      !HasTrace) {
    std::printf("specd --smoke: FAIL\n");
    return 1;
  }
  std::printf("specd --smoke: PASS\n");
  return 0;
}

/// The body of an `HttpMetricsServer::get` response (everything past the
/// header terminator), empty when malformed.
std::string httpBody(const std::string &Resp) {
  const size_t At = Resp.find("\r\n\r\n");
  return At == std::string::npos ? std::string() : Resp.substr(At + 4);
}

/// Polls \p Dir for up to ~2s until a flight dump pair appears, then
/// validates the Chrome-trace JSON. Returns true when at least one dump
/// exists and every `.trace.json` in the dir parses as valid JSON.
bool checkFlightDumps(const std::string &Dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> Traces;
  for (int Spin = 0; Spin < 200; ++Spin) {
    Traces.clear();
    std::error_code EC;
    for (const auto &Entry : fs::directory_iterator(Dir, EC)) {
      const std::string Name = Entry.path().filename().string();
      if (Name.size() > 11 &&
          Name.compare(Name.size() - 11, 11, ".trace.json") == 0)
        Traces.push_back(Entry.path().string());
    }
    if (!Traces.empty())
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (Traces.empty()) {
    std::fprintf(stderr, "specd --chaos-smoke: no flight dump in %s\n",
                 Dir.c_str());
    return false;
  }
  for (const std::string &Path : Traces) {
    std::ifstream In(Path);
    std::stringstream SS;
    SS << In.rdbuf();
    std::string Err;
    if (!validateJson(SS.str(), &Err)) {
      std::fprintf(stderr, "specd --chaos-smoke: invalid dump %s: %s\n",
                   Path.c_str(), Err.c_str());
      return false;
    }
  }
  std::printf("specd --chaos-smoke: %zu valid flight dump(s) in %s\n",
              Traces.size(), Dir.c_str());
  return true;
}

/// The --chaos-smoke exercise. The tenants and fault plans are set up
/// by main(); this drives the traffic and verdicts.
int runChaosSmoke(ServerContext &Ctx, HttpMetricsServer &Http,
                  int JobsPerTenant, const std::string &FlightDir) {
  // Wedge one shard: a job that sleeps far past the watchdog's
  // StuckAfter. The health loop must quarantine the shard, re-dispatch
  // its backlog, and reinstate it once the sleep ends.
  auto Blocked =
      Ctx.submit("blocker", Job::callable([](const rt::SpecConfig &) {
        std::this_thread::sleep_for(std::chrono::milliseconds(800));
        return int64_t(1);
      }));
  for (int Spin = 0; Spin < 500; ++Spin) {
    bool AnyBusy = false;
    for (unsigned I = 0; I < Ctx.numShards(); ++I)
      AnyBusy = AnyBusy || Ctx.shard(I).busySinceNs() != 0;
    if (AnyBusy)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The burst: crashing and flaky tenants, all three app kinds. Round
  // robin queues half of it behind the wedged job.
  const JobKind Kinds[] = {JobKind::Lex, JobKind::Decode, JobKind::Mwis};
  std::vector<std::future<JobResult>> Futures;
  for (const char *Tenant : {"crashy", "flaky"})
    for (int I = 0; I < JobsPerTenant; ++I) {
      Job J;
      J.Kind = Kinds[I % 3];
      Futures.push_back(Ctx.submit(Tenant, std::move(J)));
    }
  const size_t Submitted = Futures.size() + 1; // + the blocker

  // While the blocker holds its shard, /healthz must go degraded (503).
  bool SawDegraded = false;
  for (int Spin = 0; Spin < 300 && !SawDegraded; ++Spin) {
    std::string Resp = HttpMetricsServer::get(Http.port(), "/healthz");
    SawDegraded = Resp.rfind("HTTP/1.1 503", 0) == 0 &&
                  Resp.find("degraded") != std::string::npos;
    if (!SawDegraded)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Every admitted job must resolve — lost futures hang right here.
  int Ok = 0, TimedOut = 0, Faulted = 0, Rejected = 0;
  uint64_t TracedJobId = 0; // TraceId of some job that actually executed
  auto Tally = [&](JobResult R) {
    if (R.Executed && R.TraceId != 0)
      TracedJobId = R.TraceId;
    switch (R.Outcome) {
    case JobOutcome::Ok:
      ++Ok;
      break;
    case JobOutcome::TimedOut:
      ++TimedOut;
      break;
    case JobOutcome::Faulted:
      ++Faulted;
      break;
    case JobOutcome::Rejected:
      ++Rejected;
      std::fprintf(stderr, "specd --chaos-smoke: rejected job: %s\n",
                   R.Error.c_str());
      break;
    }
  };
  for (auto &F : Futures)
    Tally(F.get());
  Tally(Blocked.get());
  std::printf("specd --chaos-smoke: submitted=%zu ok=%d timed_out=%d "
              "faulted=%d rejected=%d\n",
              Submitted, Ok, TimedOut, Faulted, Rejected);

  std::string Resp = HttpMetricsServer::get(Http.port(), "/metrics");
  bool HttpOk = Resp.rfind("HTTP/1.1 200", 0) == 0;
  auto Nonzero = [&Resp](const std::string &Family) {
    // Any sample of the family with a value other than a bare 0.
    size_t At = 0;
    while ((At = Resp.find(Family, At)) != std::string::npos) {
      size_t Eol = Resp.find('\n', At);
      std::string Line = Resp.substr(At, Eol - At);
      At = Eol;
      if (Line.rfind("# ", 0) == 0)
        continue;
      size_t Sp = Line.rfind(' ');
      if (Sp != std::string::npos && Line.substr(Sp + 1) != "0")
        return true;
    }
    return false;
  };
  const bool HasCrashes = Nonzero("specd_spec_contained_crashes_total");
  const bool HasRetries = Nonzero("specd_retries_total");
  const bool HasQuarantines = Nonzero("specd_shard_quarantines_total");
  std::printf("specd --chaos-smoke: scrape http=%d contained_crashes=%d "
              "retries=%d quarantines=%d degraded_healthz=%d\n",
              HttpOk, HasCrashes, HasRetries, HasQuarantines, SawDegraded);

  // The quarantine above must have produced a post-mortem flight dump,
  // and it must be well-formed Chrome-trace JSON.
  const bool DumpOk = checkFlightDumps(FlightDir);

  // Live introspection: /statusz must be valid JSON naming the chaos
  // tenants, and the span tree of an executed job must be retrievable
  // by the TraceId its JobResult reported while an unknown id 404s.
  std::string StatusErr;
  const std::string StatusResp =
      HttpMetricsServer::get(Http.port(), "/statusz");
  const std::string StatusBody = httpBody(StatusResp);
  const bool StatusOk = StatusResp.rfind("HTTP/1.1 200", 0) == 0 &&
                        validateJson(StatusBody, &StatusErr) &&
                        StatusBody.find("\"crashy\"") != std::string::npos &&
                        StatusBody.find("\"shards\"") != std::string::npos;
  if (!StatusOk)
    std::fprintf(stderr, "specd --chaos-smoke: bad /statusz: %s\n",
                 StatusErr.empty() ? "missing fields" : StatusErr.c_str());

  std::string TraceErr;
  const std::string TraceResp = HttpMetricsServer::get(
      Http.port(), "/debug/trace?id=" + std::to_string(TracedJobId));
  const std::string TraceBody = httpBody(TraceResp);
  const bool TraceOk =
      TracedJobId != 0 && TraceResp.rfind("HTTP/1.1 200", 0) == 0 &&
      validateJson(TraceBody, &TraceErr) &&
      TraceBody.find("\"trace_id\":" + std::to_string(TracedJobId)) !=
          std::string::npos &&
      TraceBody.find("\"spans\"") != std::string::npos;
  if (!TraceOk)
    std::fprintf(stderr, "specd --chaos-smoke: bad /debug/trace for id %llu\n",
                 static_cast<unsigned long long>(TracedJobId));
  const bool Trace404 =
      HttpMetricsServer::get(Http.port(), "/debug/trace?id=999999999")
          .rfind("HTTP/1.1 404", 0) == 0;
  std::printf("specd --chaos-smoke: flight_dump=%d statusz=%d trace=%d "
              "trace_404=%d\n",
              DumpOk, StatusOk, TraceOk, Trace404);

  if (static_cast<size_t>(Ok + TimedOut + Faulted + Rejected) != Submitted ||
      Rejected > 0 || !HttpOk || !HasCrashes || !HasRetries ||
      !HasQuarantines || !SawDegraded || !DumpOk || !StatusOk || !TraceOk ||
      !Trace404) {
    std::printf("specd --chaos-smoke: FAIL\n");
    return 1;
  }
  std::printf("specd --chaos-smoke: PASS\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParser Args("specd",
                 "Multi-tenant speculation server over sharded executors");
  int64_t *Shards = Args.intOption("shards", 2, "executor shards", 0, 64);
  int64_t *Threads =
      Args.intOption("threads-per-shard", 0,
                     "workers per shard (0: divide hardware evenly)", 0, 256);
  int64_t *Port =
      Args.intOption("port", 0, "metrics port (0: ephemeral)", 0, 65535);
  int64_t *Queue =
      Args.intOption("queue", 256, "per-shard queue capacity", 1, 1 << 20);
  int64_t *Scale =
      Args.intOption("scale", 1 << 16, "workload catalog scale (bytes)");
  bool *RoundRobin =
      Args.flag("round-robin", "round-robin admission (default: least-loaded)");
  bool *Smoke = Args.flag("smoke", "run the self-contained smoke exercise");
  bool *ChaosSmoke = Args.flag(
      "chaos-smoke", "run the smoke exercise under injected faults");
  int64_t *SmokeJobs =
      Args.intOption("smoke-jobs", 9, "jobs per tenant in --smoke");
  std::string *FlightDir = Args.strOption(
      "flight-dir", "",
      "directory for flight-recorder anomaly dumps (empty: in-memory only; "
      "--chaos-smoke defaults it to specd-flight-dumps)");
  if (!Args.parse(Argc, Argv))
    return Args.helpRequested() ? 0 : 2;

  ServerOptions Opts;
  Opts.NumShards = static_cast<unsigned>(*Shards);
  Opts.ThreadsPerShard = static_cast<unsigned>(*Threads);
  Opts.QueueCapacity = static_cast<size_t>(*Queue);
  Opts.Admission = *RoundRobin ? AdmissionPolicy::RoundRobin
                               : AdmissionPolicy::LeastLoaded;
  Opts.WorkloadScale = *Scale;
  if (*ChaosSmoke) {
    // Chaos wants the watchdog to catch the wedged job well inside the
    // exercise, and round-robin so some burst jobs queue behind it. It
    // also asserts on the anomaly dumps, so it always writes them.
    Opts.Admission = AdmissionPolicy::RoundRobin;
    Opts.StuckAfter = std::chrono::milliseconds(80);
    Opts.HealthPeriod = std::chrono::milliseconds(10);
    if (FlightDir->empty())
      *FlightDir = "specd-flight-dumps";
    // The smoke induces several anomalies back to back; don't let the
    // rate limiter swallow the one the verdict looks for.
    Opts.FlightMinDumpGap = std::chrono::milliseconds(0);
  }
  Opts.FlightDir = *FlightDir;

  // Fault plans for --chaos-smoke; declared before the context so they
  // outlive every job that probes them.
  rt::FaultPlan CrashPlan(0x5eed);
  CrashPlan.arm(rt::FaultSite::CrashInBody, 0.3)
      .arm(rt::FaultSite::RunawayBody, 0.05)
      .runawayCap(std::chrono::milliseconds(200));
  rt::FaultPlan ThrowPlan(0xfee1);
  ThrowPlan.arm(rt::FaultSite::BodyThrow, 0.4);

  ServerContext Ctx(Opts);

  // Default tenants. Real deployments would register via an admin
  // surface; specd ships a baseline so it is useful out of the box.
  TenantPolicy Batch;
  Batch.Name = "batch";
  Batch.NumTasks = 8;
  Ctx.registerTenant(Batch);

  TenantPolicy Latency;
  Latency.Name = "latency";
  Latency.NumTasks = 4;
  Latency.Deadline = std::chrono::milliseconds(250);
  Latency.DegradeMaxBadRate = 0.5;
  Ctx.registerTenant(Latency);

  TenantPolicy Traced;
  Traced.Name = "traced";
  Traced.NumTasks = 4;
  Ctx.registerTenant(Traced);

  if (*ChaosSmoke) {
    // Crashing speculative attempts: the per-thread shield contains
    // them and the attempt re-executes; the watchdog time-boxes runaway
    // bodies under a fixed attempt budget.
    TenantPolicy Crashy;
    Crashy.Name = "crashy";
    Crashy.NumTasks = 8;
    Crashy.Faults = &CrashPlan;
    Crashy.AttemptBudget = std::chrono::milliseconds(20);
    Crashy.MaxRetries = 2;
    Crashy.RetryBackoff = std::chrono::milliseconds(2);
    Ctx.registerTenant(Crashy);

    // Thrown injected faults surface as Faulted jobs and go through
    // the retry path (backoff, remaining-deadline budget).
    TenantPolicy Flaky;
    Flaky.Name = "flaky";
    Flaky.NumTasks = 4;
    Flaky.Faults = &ThrowPlan;
    Flaky.MaxRetries = 3;
    Flaky.RetryBackoff = std::chrono::milliseconds(2);
    Ctx.registerTenant(Flaky);

    TenantPolicy Blocker;
    Blocker.Name = "blocker";
    Ctx.registerTenant(Blocker);
  }

  HttpMetricsServer Http(Ctx, static_cast<uint16_t>(*Port));
  std::printf("specd: %lld shard(s), metrics on "
              "http://127.0.0.1:%u/metrics\n",
              static_cast<long long>(*Shards), Http.port());

  if (*Smoke || *ChaosSmoke) {
    int Rc = *ChaosSmoke ? runChaosSmoke(Ctx, Http,
                                         static_cast<int>(*SmokeJobs),
                                         *FlightDir)
                         : runSmoke(Ctx, Http, static_cast<int>(*SmokeJobs));
    Ctx.shutdown();
    return Rc;
  }

  // Serve until stdin closes.
  std::printf("specd: serving; close stdin (ctrl-d) to stop\n");
  std::fflush(stdout);
  int C;
  while ((C = std::getchar()) != EOF)
    ;
  Ctx.shutdown();
  std::printf("specd: drained, bye\n");
  return 0;
}
