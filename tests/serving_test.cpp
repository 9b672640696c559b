//===- tests/serving_test.cpp - specd serving-layer tests -----------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Tests for the speculation-as-a-service layer: admission placement,
/// per-tenant policy enforcement (deadlines), executor-shard isolation,
/// Prometheus exposition-format validity of the metrics endpoint (with a
/// real HTTP scrape), and shutdown resolving every future.
///
//===----------------------------------------------------------------------===//

#include "serving/HttpMetricsServer.h"
#include "serving/ServerContext.h"
#include "support/Json.h"

#include "gtest/gtest.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace specpar;
using namespace specpar::serving;

namespace {

/// A tiny server for tests: small catalog so construction stays fast.
ServerOptions testOptions(unsigned Shards,
                          AdmissionPolicy A = AdmissionPolicy::RoundRobin) {
  ServerOptions O;
  O.NumShards = Shards;
  O.ThreadsPerShard = 2;
  O.QueueCapacity = 64;
  O.Admission = A;
  O.WorkloadScale = 16384;
  return O;
}

TenantPolicy basicTenant(const std::string &Name) {
  TenantPolicy P;
  P.Name = Name;
  P.NumTasks = 4;
  return P;
}

//===----------------------------------------------------------------------===//
// Admission
//===----------------------------------------------------------------------===//

TEST(Admission, RoundRobinSpreadsJobsAcrossShards) {
  ServerContext Ctx(testOptions(2, AdmissionPolicy::RoundRobin));
  Ctx.registerTenant(basicTenant("t"));
  std::vector<std::future<JobResult>> Fs;
  for (int I = 0; I < 8; ++I)
    Fs.push_back(Ctx.submit("t", Job::lex()));
  std::set<unsigned> ShardsSeen;
  for (auto &F : Fs) {
    JobResult R = F.get();
    EXPECT_EQ(R.Outcome, JobOutcome::Ok) << R.Error;
    ShardsSeen.insert(R.Shard);
  }
  // Strict alternation: both shards executed jobs.
  EXPECT_EQ(ShardsSeen.size(), 2u);
  EXPECT_EQ(Ctx.shard(0).completedJobs() + Ctx.shard(1).completedJobs(), 8u);
}

TEST(Admission, UnknownTenantIsRejectedImmediately) {
  ServerContext Ctx(testOptions(1));
  JobResult R = Ctx.submit("nobody", Job::lex()).get();
  EXPECT_EQ(R.Outcome, JobOutcome::Rejected);
  EXPECT_EQ(R.Error, "unknown tenant");
}

TEST(Admission, FullQueueRejectsInsteadOfBlocking) {
  ServerOptions O = testOptions(1);
  O.QueueCapacity = 2;
  ServerContext Ctx(O);
  Ctx.registerTenant(basicTenant("t"));

  // Occupy the dispatch thread with a slow callable, then overfill the
  // (capacity-2) queue: at least one later submission must bounce.
  std::promise<void> Release;
  std::shared_future<void> Gate = Release.get_future().share();
  auto Slow = Ctx.submit("t", Job::callable([Gate](const rt::SpecConfig &) {
    Gate.wait();
    return int64_t(1);
  }));
  std::vector<std::future<JobResult>> Rest;
  for (int I = 0; I < 6; ++I)
    Rest.push_back(Ctx.submit("t", Job::lex()));
  Release.set_value();

  int Rejected = 0;
  for (auto &F : Rest)
    if (F.get().Outcome == JobOutcome::Rejected)
      ++Rejected;
  EXPECT_GE(Rejected, 1);
  EXPECT_EQ(Slow.get().Value, 1);
}

TEST(Admission, LeastLoadedAvoidsTheBusyShard) {
  ServerContext Ctx(testOptions(2, AdmissionPolicy::LeastLoaded));
  Ctx.registerTenant(basicTenant("t"));

  // Pin shard of first job by blocking it; subsequent jobs must land on
  // the other shard while the first is busy.
  std::promise<void> Release;
  std::shared_future<void> Gate = Release.get_future().share();
  auto Blocked = Ctx.submit("t", Job::callable([Gate](const rt::SpecConfig &) {
    Gate.wait();
    return int64_t(0);
  }));
  // Give the dispatch thread a moment to pick the blocker up so its
  // shard reports load.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // One at a time, completing each before the next: at every submit the
  // blocked shard has load 1 and the other is idle, so least-loaded must
  // always choose the idle one (no tie to fall back on).
  std::set<unsigned> ShardsSeen;
  for (int I = 0; I < 4; ++I)
    ShardsSeen.insert(Ctx.submit("t", Job::lex()).get().Shard);
  Release.set_value();
  unsigned BlockedShard = Blocked.get().Shard;

  EXPECT_EQ(ShardsSeen.size(), 1u);
  EXPECT_NE(*ShardsSeen.begin(), BlockedShard);
}

//===----------------------------------------------------------------------===//
// Per-tenant policy enforcement
//===----------------------------------------------------------------------===//

TEST(Policy, DeadlineTenantTimesOutSlowJobs) {
  ServerContext Ctx(testOptions(1));
  TenantPolicy P = basicTenant("impatient");
  P.Deadline = std::chrono::milliseconds(20);
  Ctx.registerTenant(P);

  JobResult R =
      Ctx.submit("impatient", Job::callable([](const rt::SpecConfig &Cfg) {
        // A run whose bodies poll cancellation but need ~1s of sleep:
        // must abort via the tenant's deadline long before that.
        auto Out = rt::Speculation::iterate<int64_t>(
            0, 8,
            [](int64_t I, int64_t A) {
              for (int S = 0; S < 20; ++S) {
                if (rt::currentTaskCancelled())
                  return int64_t(-1);
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
              }
              return A + I;
            },
            [](int64_t I) { return I * (I - 1) / 2; }, Cfg);
        return Out.Value;
      })).get();
  EXPECT_EQ(R.Outcome, JobOutcome::TimedOut);

  // The same job under a tenant with no deadline completes.
  Ctx.registerTenant(basicTenant("patient"));
  JobResult R2 = Ctx.submit("patient", Job::lex()).get();
  EXPECT_EQ(R2.Outcome, JobOutcome::Ok) << R2.Error;
}

TEST(Policy, StatsAggregateAcrossJobs) {
  ServerContext Ctx(testOptions(1));
  Ctx.registerTenant(basicTenant("t"));
  for (int I = 0; I < 3; ++I)
    EXPECT_EQ(Ctx.submit("t", Job::mwis()).get().Outcome, JobOutcome::Ok);
  TenantState *TS = Ctx.tenant("t");
  ASSERT_NE(TS, nullptr);
  rt::stats::Snapshot Totals = TS->totals();
  EXPECT_GT(Totals.Spec.Tasks, 0);
  EXPECT_GT(Totals.Exec.Submits, 0u);
  auto Outcomes = TS->outcomes();
  EXPECT_EQ(Outcomes[static_cast<size_t>(JobOutcome::Ok)], 3u);
  EXPECT_EQ(TS->latency().count(), 3u);
}

TEST(Policy, LoweringAlwaysShieldsAndKeepsDefaultDegradeWindow) {
  TenantPolicy P;
  const rt::SpecConfig Default = P.toConfig(nullptr, nullptr);
  EXPECT_TRUE(Default.shield());
  EXPECT_LT(Default.degradeThreshold(), 0.0);
  EXPECT_EQ(Default.attemptBudget().count(), 0);

  P.DegradeMaxBadRate = 0.5;
  const rt::SpecConfig Degrading = P.toConfig(nullptr, nullptr);
  EXPECT_EQ(Degrading.degradeThreshold(), 0.5);
  EXPECT_EQ(Degrading.degradeWindow(), 8);
  EXPECT_TRUE(Degrading.shield());

  TenantPolicy B;
  B.AttemptBudget = std::chrono::milliseconds(20);
  const rt::SpecConfig Budgeted = B.toConfig(nullptr, nullptr);
  EXPECT_EQ(Budgeted.attemptBudget(), std::chrono::milliseconds(20));
  EXPECT_TRUE(Budgeted.shield());
}

TEST(Policy, SpecJobRunsTheCompiledProgramAgainstTheOracle) {
  ServerContext Ctx(testOptions(1));
  Ctx.registerTenant(basicTenant("t"));

  // The catalog compiled its Speculate program once at construction.
  ASSERT_NE(Ctx.catalog().SpecProgram, nullptr);
  EXPECT_FALSE(Ctx.catalog().SpecSource.empty());

  JobResult R = Ctx.submit("t", Job::spec()).get();
  ASSERT_EQ(R.Outcome, JobOutcome::Ok) << R.Error;
  EXPECT_EQ(R.Value, Ctx.catalog().SpecOracle);
  // The job really went through the native speculation runtime on the
  // shard's executor: speculative tasks ran, and the closed-form
  // predictor means every prediction validated.
  EXPECT_GT(R.Stats.Spec.Tasks, 0);
  EXPECT_GT(R.Stats.Spec.Predictions, 0);
  EXPECT_EQ(R.Stats.Spec.Mispredictions, 0);
  EXPECT_GT(R.Stats.Exec.Submits, 0u);

  // And it folds into the tenant aggregates like every other kind.
  TenantState *TS = Ctx.tenant("t");
  ASSERT_NE(TS, nullptr);
  EXPECT_GT(TS->totals().Spec.Predictions, 0);
  EXPECT_EQ(TS->outcomes()[static_cast<size_t>(JobOutcome::Ok)], 1u);
}

// At the catalog's largest scale the Spec program folds 2^20 iterations
// in chunks of 8: it fits the compiled step budget only when each chunk's
// evaluation context returns the fuel it did not spend.
TEST(Policy, SpecJobAtTheLargestScaleFitsTheStepBudget) {
  ServerOptions O = testOptions(1);
  O.WorkloadScale = int64_t(1) << 20;
  ServerContext Ctx(O);
  Ctx.registerTenant(basicTenant("t"));
  JobResult R = Ctx.submit("t", Job::spec()).get();
  ASSERT_EQ(R.Outcome, JobOutcome::Ok) << R.Error;
  EXPECT_EQ(R.Value, Ctx.catalog().SpecOracle);
}

//===----------------------------------------------------------------------===//
// Executor-shard isolation
//===----------------------------------------------------------------------===//

TEST(Isolation, ShardsOwnDistinctExecutorsAndStatsDoNotBleed) {
  ServerContext Ctx(testOptions(2, AdmissionPolicy::RoundRobin));
  Ctx.registerTenant(basicTenant("t"));
  ASSERT_NE(Ctx.shard(0).executor().get(), Ctx.shard(1).executor().get());
  // Neither shard executor is the process default shard.
  EXPECT_NE(Ctx.shard(0).executor().get(),
            rt::SpecExecutor::defaultShard().get());

  rt::ExecutorStats Before0 = Ctx.shard(0).executorStats();
  rt::ExecutorStats Before1 = Ctx.shard(1).executorStats();

  // Round-robin: job 0 -> shard 0, job 1 -> shard 1, job 2 -> shard 0...
  // Run one job and check only its shard's executor moved.
  JobResult R = Ctx.submit("t", Job::lex()).get();
  ASSERT_EQ(R.Outcome, JobOutcome::Ok) << R.Error;
  Ctx.drain();

  rt::ExecutorStats D0 = Ctx.shard(0).executorStats() - Before0;
  rt::ExecutorStats D1 = Ctx.shard(1).executorStats() - Before1;
  rt::ExecutorStats &Ran = R.Shard == 0 ? D0 : D1;
  rt::ExecutorStats &Idle = R.Shard == 0 ? D1 : D0;
  EXPECT_GT(Ran.Submits, 0u);
  EXPECT_EQ(Idle.Submits, 0u);
  // The per-run snapshot attributed exactly the running shard's delta.
  EXPECT_EQ(R.Stats.Exec.Submits, Ran.Submits);
}

TEST(Isolation, FaultPlanOnForeignExecutorDoesNotReachShards) {
  // Arm a fault plan on an unrelated executor: jobs served by the
  // context must never observe it.
  ServerContext Ctx(testOptions(1));
  Ctx.registerTenant(basicTenant("t"));
  std::shared_ptr<rt::SpecExecutor> Foreign = rt::SpecExecutor::create(2);
  rt::FaultPlan Plan(99);
  Plan.arm(rt::FaultSite::BodyThrow, 1.0);
  Foreign->injectFaults(&Plan);
  EXPECT_EQ(Ctx.shard(0).executor()->injectedFaults(), nullptr);
  EXPECT_EQ(Ctx.submit("t", Job::lex()).get().Outcome, JobOutcome::Ok);
  Foreign->injectFaults(nullptr);
}

//===----------------------------------------------------------------------===//
// Prometheus exposition format
//===----------------------------------------------------------------------===//

/// A strict parser for the exposition text format: every non-empty line
/// is `# HELP`, `# TYPE`, or a sample `name{labels} value`; TYPE lines
/// name a valid type and appear at most once per family; every sample's
/// family has a preceding TYPE. Histogram series are checked
/// semantically: per label set, `le` bounds strictly increase, the
/// cumulative bucket values are monotone non-decreasing, the series ends
/// at `le="+Inf"`, and that bucket equals the `_count` sample exactly.
void verifyPrometheusText(const std::string &Text) {
  std::set<std::string> TypedFamilies;
  std::istringstream In(Text);
  std::string Line;
  int Samples = 0;
  struct BucketSeries {
    std::vector<std::pair<std::string, double>> Buckets; ///< (le, value)
  };
  std::map<std::string, BucketSeries> Series; ///< family|labels-sans-le
  std::map<std::string, double> Counts;       ///< family|labels
  auto FamilyOf = [](const std::string &Metric) {
    // _bucket/_sum/_count series belong to their histogram family.
    for (const char *Suffix : {"_bucket", "_sum", "_count"}) {
      size_t L = std::string(Suffix).size();
      if (Metric.size() > L &&
          Metric.compare(Metric.size() - L, L, Suffix) == 0)
        return Metric.substr(0, Metric.size() - L);
    }
    return Metric;
  };
  auto EndsWith = [](const std::string &S, const std::string &Suffix) {
    return S.size() >= Suffix.size() &&
           S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
  };
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    if (Line.rfind("# TYPE ", 0) == 0) {
      std::istringstream LS(Line.substr(7));
      std::string Name, Type;
      LS >> Name >> Type;
      EXPECT_TRUE(Type == "counter" || Type == "gauge" ||
                  Type == "histogram" || Type == "summary")
          << Line;
      EXPECT_TRUE(TypedFamilies.insert(Name).second)
          << "duplicate TYPE for " << Name;
      continue;
    }
    if (Line.rfind("# HELP ", 0) == 0 || Line[0] == '#')
      continue;
    // Sample line: metric name [{labels}] SP value.
    size_t NameEnd = Line.find_first_of("{ ");
    ASSERT_NE(NameEnd, std::string::npos) << Line;
    std::string Metric = Line.substr(0, NameEnd);
    for (char C : Metric)
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
                  C == ':')
          << Line;
    EXPECT_TRUE(TypedFamilies.count(FamilyOf(Metric)))
        << "sample before TYPE: " << Line;
    std::string LabelText;
    if (Line[NameEnd] == '{') {
      size_t Close = Line.find('}', NameEnd);
      ASSERT_NE(Close, std::string::npos) << Line;
      // Labels: k="v" pairs, comma-separated, quotes balanced.
      LabelText = Line.substr(NameEnd + 1, Close - NameEnd - 1);
      EXPECT_EQ(std::count(LabelText.begin(), LabelText.end(), '"') % 2, 0)
          << Line;
      NameEnd = Close + 1;
    }
    ASSERT_EQ(Line[NameEnd], ' ') << Line;
    std::string Value = Line.substr(NameEnd + 1);
    ASSERT_FALSE(Value.empty()) << Line;
    size_t Pos = 0;
    double V = std::stod(Value, &Pos); // throws on a malformed number
    EXPECT_EQ(Pos, Value.size()) << Line;
    if (EndsWith(Metric, "_bucket")) {
      // Peel the `le` label (the writer appends it last) so buckets of
      // one series share a key.
      size_t LeAt = LabelText.find("le=\"");
      ASSERT_NE(LeAt, std::string::npos) << Line;
      size_t LeEnd = LabelText.find('"', LeAt + 4);
      ASSERT_NE(LeEnd, std::string::npos) << Line;
      std::string Le = LabelText.substr(LeAt + 4, LeEnd - LeAt - 4);
      std::string Rest = LabelText.substr(0, LeAt);
      if (!Rest.empty() && Rest.back() == ',')
        Rest.pop_back();
      Series[FamilyOf(Metric) + "|" + Rest].Buckets.emplace_back(Le, V);
    } else if (EndsWith(Metric, "_count")) {
      Counts[FamilyOf(Metric) + "|" + LabelText] = V;
    }
    ++Samples;
  }
  EXPECT_GT(Samples, 0);
  // Histogram semantics, per series.
  for (const auto &KV : Series) {
    const auto &B = KV.second.Buckets;
    ASSERT_FALSE(B.empty()) << KV.first;
    EXPECT_EQ(B.back().first, "+Inf") << KV.first;
    double PrevBound = -1, PrevValue = -1;
    for (size_t I = 0; I < B.size(); ++I) {
      if (B[I].first != "+Inf") {
        size_t Pos = 0;
        double Bound = std::stod(B[I].first, &Pos);
        EXPECT_EQ(Pos, B[I].first.size()) << "unparsable le: " << B[I].first;
        EXPECT_GT(Bound, PrevBound) << "le bounds not increasing: " << KV.first;
        PrevBound = Bound;
      } else {
        EXPECT_EQ(I, B.size() - 1) << "+Inf not last: " << KV.first;
      }
      EXPECT_GE(B[I].second, PrevValue)
          << "cumulative buckets decreased: " << KV.first;
      PrevValue = B[I].second;
    }
    // The +Inf bucket IS the count, exactly.
    auto CountIt = Counts.find(KV.first);
    ASSERT_NE(CountIt, Counts.end()) << "no _count for " << KV.first;
    EXPECT_EQ(B.back().second, CountIt->second) << KV.first;
  }
}

TEST(Metrics, ExpositionTextParses) {
  ServerContext Ctx(testOptions(2));
  Ctx.registerTenant(basicTenant("alpha"));
  Ctx.registerTenant(basicTenant("beta"));
  std::vector<std::future<JobResult>> Fs;
  for (int I = 0; I < 4; ++I) {
    Fs.push_back(Ctx.submit("alpha", Job::lex()));
    Fs.push_back(Ctx.submit("beta", Job::decode()));
  }
  for (auto &F : Fs)
    EXPECT_EQ(F.get().Outcome, JobOutcome::Ok);
  Ctx.drain();

  std::string Text = Ctx.metricsText();
  verifyPrometheusText(Text);

  // Golden spot-checks on content, not just format.
  EXPECT_NE(Text.find("specd_shards 2"), std::string::npos);
  EXPECT_NE(
      Text.find("specd_jobs_total{tenant=\"alpha\",outcome=\"ok\"} 4"),
      std::string::npos);
  EXPECT_NE(Text.find("specd_trace_events_total{tenant=\"beta\""),
            std::string::npos);
  EXPECT_NE(Text.find("specd_request_latency_seconds_bucket{tenant=\"alpha\""
                      ",le=\"+Inf\"} 4"),
            std::string::npos);
  // Per-tenant executor attribution is present and positive.
  EXPECT_NE(Text.find("specd_tenant_executor_submits_total{tenant=\"alpha\"}"),
            std::string::npos);
}

TEST(Metrics, HttpEndpointServesMetricsAnd404s) {
  ServerContext Ctx(testOptions(1));
  Ctx.registerTenant(basicTenant("t"));
  EXPECT_EQ(Ctx.submit("t", Job::mwis()).get().Outcome, JobOutcome::Ok);
  HttpMetricsServer Http(Ctx, /*Port=*/0);
  ASSERT_GT(Http.port(), 0);

  std::string Resp = HttpMetricsServer::get(Http.port(), "/metrics");
  ASSERT_TRUE(Resp.rfind("HTTP/1.1 200", 0) == 0) << Resp.substr(0, 80);
  EXPECT_NE(Resp.find("text/plain; version=0.0.4"), std::string::npos);
  size_t BodyAt = Resp.find("\r\n\r\n");
  ASSERT_NE(BodyAt, std::string::npos);
  verifyPrometheusText(Resp.substr(BodyAt + 4));

  std::string Missing = HttpMetricsServer::get(Http.port(), "/nope");
  EXPECT_TRUE(Missing.rfind("HTTP/1.1 404", 0) == 0);
  Http.stop();
}

TEST(Metrics, LargeBodyScrapesIntactOverRealSocket) {
  // A fleet of tenants inflates /metrics far past the socket send
  // buffer: the server's writeAll must survive short writes, or the
  // scrape arrives truncated. (This is the regression test for the
  // send()-short-write bug.)
  ServerContext Ctx(testOptions(1));
  for (int I = 0; I < 150; ++I)
    Ctx.registerTenant(basicTenant(
        "tenant-with-a-deliberately-long-metric-label-" + std::to_string(I)));
  EXPECT_EQ(Ctx.submit("tenant-with-a-deliberately-long-metric-label-0",
                       Job::lex())
                .get()
                .Outcome,
            JobOutcome::Ok);
  ASSERT_GT(Ctx.metricsText().size(), 64u * 1024u);

  HttpMetricsServer Http(Ctx, /*Port=*/0);
  std::string Resp = HttpMetricsServer::get(Http.port(), "/metrics");
  ASSERT_TRUE(Resp.rfind("HTTP/1.1 200", 0) == 0) << Resp.substr(0, 80);
  size_t BodyAt = Resp.find("\r\n\r\n");
  ASSERT_NE(BodyAt, std::string::npos);
  std::string Body = Resp.substr(BodyAt + 4);
  EXPECT_GT(Body.size(), 64u * 1024u);

  // The declared Content-Length matches what actually arrived.
  size_t ClAt = Resp.find("Content-Length: ");
  ASSERT_NE(ClAt, std::string::npos);
  size_t ClEnd = Resp.find("\r\n", ClAt);
  EXPECT_EQ(std::stoull(Resp.substr(ClAt + 16, ClEnd - ClAt - 16)),
            Body.size());
  verifyPrometheusText(Body);
  Http.stop();
}

//===----------------------------------------------------------------------===//
// Profile-guided tenants
//===----------------------------------------------------------------------===//

TEST(Policy, ProfileGuidedTenantWarmsAcrossJobs) {
  ServerContext Ctx(testOptions(1));
  TenantPolicy P = basicTenant("warm");
  P.NumTasks = 16;
  P.ProfileGuided = true;
  P.AutotuneTargetMicros = 500;
  Ctx.registerTenant(P);

  // Job 1 is cold; jobs 2+ seed from what it recorded.
  for (int I = 0; I < 3; ++I)
    EXPECT_EQ(Ctx.submit("warm", Job::lex()).get().Outcome, JobOutcome::Ok);
  TenantState *TS = Ctx.tenant("warm");
  ASSERT_NE(TS, nullptr);
  ASSERT_NE(TS->Profile, nullptr);
  EXPECT_EQ(TS->Profile->site("warm/lex").Runs, 3);
  EXPECT_GT(TS->Profile->seedChunk("warm/lex"), 0);
  EXPECT_GE(TS->totals().Spec.ProfileSeeds, 1);

  // Sites are keyed per job kind: a decode job must not inherit lex's
  // converged chunk.
  EXPECT_EQ(Ctx.submit("warm", Job::decode()).get().Outcome, JobOutcome::Ok);
  EXPECT_EQ(TS->Profile->site("warm/decode").Runs, 1);
  EXPECT_EQ(TS->Profile->size(), 2u);

  // Both the seed counter and the coverage gauge are exported.
  std::string Text = Ctx.metricsText();
  verifyPrometheusText(Text);
  EXPECT_NE(Text.find("specd_spec_profile_seeds_total{tenant=\"warm\"}"),
            std::string::npos);
  EXPECT_NE(Text.find("specd_profile_sites{tenant=\"warm\"} 2"),
            std::string::npos);
}

TEST(Policy, ProfilePersistsAcrossServerRestarts) {
  const std::string Path = testing::TempDir() + "specd_profile_test_" +
                           std::to_string(::getpid()) + ".json";
  std::remove(Path.c_str());
  TenantPolicy P = basicTenant("durable");
  P.NumTasks = 16;
  P.ProfileGuided = true;
  P.AutotuneTargetMicros = 500;
  P.ProfilePath = Path;

  int64_t RecordedRuns = 0;
  {
    ServerContext Ctx(testOptions(1));
    Ctx.registerTenant(P);
    EXPECT_EQ(Ctx.submit("durable", Job::mwis()).get().Outcome, JobOutcome::Ok);
    RecordedRuns = Ctx.tenant("durable")->Profile->site("durable/mwis").Runs;
    EXPECT_GE(RecordedRuns, 1);
  } // ~TenantState saves the profile

  {
    ServerContext Ctx(testOptions(1));
    Ctx.registerTenant(P); // loads the saved profile
    TenantState *TS = Ctx.tenant("durable");
    ASSERT_NE(TS, nullptr);
    ASSERT_NE(TS->Profile, nullptr);
    EXPECT_EQ(TS->Profile->site("durable/mwis").Runs, RecordedRuns);
    // The very first job of the new process starts warm.
    EXPECT_EQ(Ctx.submit("durable", Job::mwis()).get().Outcome, JobOutcome::Ok);
    EXPECT_GE(TS->totals().Spec.ProfileSeeds, 1);
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Resilience: retries, breakers, quarantine, crash containment
//===----------------------------------------------------------------------===//

TEST(Resilience, FailedJobRetriesWithBackoffUntilSuccess) {
  ServerContext Ctx(testOptions(1));
  TenantPolicy P = basicTenant("flaky");
  P.MaxRetries = 3;
  P.RetryBackoff = std::chrono::milliseconds(2);
  Ctx.registerTenant(P);

  auto Calls = std::make_shared<std::atomic<int>>(0);
  JobResult R =
      Ctx.submit("flaky", Job::callable([Calls](const rt::SpecConfig &) {
        if (Calls->fetch_add(1) < 2)
          throw std::runtime_error("transient");
        return int64_t(42);
      })).get();
  EXPECT_EQ(R.Outcome, JobOutcome::Ok) << R.Error;
  EXPECT_EQ(R.Value, 42);
  EXPECT_EQ(R.Attempts, 3);
  EXPECT_EQ(Calls->load(), 3);
  TenantState *TS = Ctx.tenant("flaky");
  ASSERT_NE(TS, nullptr);
  EXPECT_EQ(TS->Retries.load(), 2u);
  // Only the terminal outcome lands in the per-tenant job aggregates.
  EXPECT_EQ(TS->outcomes()[static_cast<size_t>(JobOutcome::Ok)], 1u);
  EXPECT_EQ(TS->outcomes()[static_cast<size_t>(JobOutcome::Faulted)], 0u);

  std::string Text = Ctx.metricsText();
  verifyPrometheusText(Text);
  EXPECT_NE(Text.find("specd_retries_total{tenant=\"flaky\"} 2"),
            std::string::npos);

  // A job that exhausts every retry resolves with its real last failure.
  JobResult Dead =
      Ctx.submit("flaky", Job::callable([](const rt::SpecConfig &) -> int64_t {
        throw std::runtime_error("permanent");
      })).get();
  EXPECT_EQ(Dead.Outcome, JobOutcome::Faulted);
  EXPECT_EQ(Dead.Attempts, 1 + P.MaxRetries);
  EXPECT_EQ(Dead.Error, "permanent");
}

TEST(Resilience, RetryRunsUnderRemainingDeadlineNotAFreshOne) {
  // The deadline × degrade × retry interaction: the first attempt times
  // out, the retry must run under what is LEFT of the job's budget —
  // queueing, the failed attempt, and the backoff all consumed it — not
  // a fresh full deadline.
  ServerContext Ctx(testOptions(1));
  TenantPolicy P = basicTenant("budgeted");
  P.Deadline = std::chrono::milliseconds(300);
  P.DegradeMaxBadRate = 0.5; // degrade armed alongside the deadline
  P.MaxRetries = 2;
  P.RetryBackoff = std::chrono::milliseconds(5);
  Ctx.registerTenant(P);

  auto SeenDeadlines =
      std::make_shared<std::vector<std::chrono::nanoseconds>>();
  auto Mx = std::make_shared<std::mutex>();
  JobResult R = Ctx.submit(
      "budgeted", Job::callable([SeenDeadlines, Mx](const rt::SpecConfig &Cfg) {
        {
          std::lock_guard<std::mutex> Lock(*Mx);
          SeenDeadlines->push_back(Cfg.deadline());
        }
        if (SeenDeadlines->size() == 1) {
          // First attempt: burn 60 ms of budget, then time out.
          std::this_thread::sleep_for(std::chrono::milliseconds(60));
          throw rt::SpecTimeoutError(Cfg.deadline());
        }
        return int64_t(7);
      })).get();

  ASSERT_EQ(R.Outcome, JobOutcome::Ok) << R.Error;
  EXPECT_EQ(R.Attempts, 2);
  ASSERT_EQ(SeenDeadlines->size(), 2u);
  const auto First = (*SeenDeadlines)[0];
  const auto Second = (*SeenDeadlines)[1];
  // First attempt: essentially the whole budget (only queueing shaved).
  EXPECT_GT(First, std::chrono::milliseconds(200));
  EXPECT_LE(First, std::chrono::milliseconds(300));
  // Retry: the 60 ms sleep and the 5 ms backoff are gone from it.
  EXPECT_LT(Second, First - std::chrono::milliseconds(50));
  EXPECT_GT(Second, std::chrono::nanoseconds::zero());

  // A budget that can't fit another attempt stops retrying: terminal
  // TimedOut, not MaxRetries timeouts back to back.
  TenantPolicy Tight = basicTenant("tight");
  Tight.Deadline = std::chrono::milliseconds(50);
  Tight.MaxRetries = 5;
  Tight.RetryBackoff = std::chrono::milliseconds(30);
  Ctx.registerTenant(Tight);
  JobResult T =
      Ctx.submit("tight", Job::callable([](const rt::SpecConfig &Cfg) -> int64_t {
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
        throw rt::SpecTimeoutError(Cfg.deadline());
      })).get();
  EXPECT_EQ(T.Outcome, JobOutcome::TimedOut);
  EXPECT_LE(T.Attempts, 2);
}

TEST(Resilience, BreakerOpensShedsAndHalfOpenRecloses) {
  ServerContext Ctx(testOptions(1));
  TenantPolicy P = basicTenant("breaker");
  P.BreakerThreshold = 2;
  P.BreakerResetAfter = std::chrono::milliseconds(100);
  Ctx.registerTenant(P);

  auto Fail = [] {
    return Job::callable([](const rt::SpecConfig &) -> int64_t {
      throw std::runtime_error("boom");
    });
  };
  // Two consecutive failures trip the (threshold-2) breaker.
  EXPECT_EQ(Ctx.submit("breaker", Fail()).get().Outcome, JobOutcome::Faulted);
  EXPECT_EQ(Ctx.submit("breaker", Fail()).get().Outcome, JobOutcome::Faulted);

  // Open: the only shard is shed, so submission is rejected outright.
  JobResult Shed = Ctx.submit("breaker", Job::lex()).get();
  EXPECT_EQ(Shed.Outcome, JobOutcome::Rejected);
  EXPECT_NE(Shed.Error.find("circuit"), std::string::npos) << Shed.Error;

  std::string Text = Ctx.metricsText();
  verifyPrometheusText(Text);
  EXPECT_NE(
      Text.find("specd_breaker_state{tenant=\"breaker\",shard=\"0\"} 1"),
      std::string::npos);
  EXPECT_NE(
      Text.find("specd_breaker_trips_total{tenant=\"breaker\",shard=\"0\"} 1"),
      std::string::npos);

  // After the reset window the breaker half-opens; a succeeding probe
  // closes it and traffic flows again.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(Ctx.submit("breaker", Job::lex()).get().Outcome, JobOutcome::Ok);
  EXPECT_EQ(Ctx.submit("breaker", Job::lex()).get().Outcome, JobOutcome::Ok);
  EXPECT_NE(Ctx.metricsText().find(
                "specd_breaker_state{tenant=\"breaker\",shard=\"0\"} 0"),
            std::string::npos);

  // Other tenants never shared the pain: breakers are per tenant.
  Ctx.registerTenant(basicTenant("bystander"));
  EXPECT_EQ(Ctx.submit("bystander", Job::lex()).get().Outcome, JobOutcome::Ok);
}

TEST(Resilience, QueueExpiredDeadlineDoesNotTripBreaker) {
  // A job whose total deadline runs out while it sits in the queue never
  // executed on the shard — the resulting TimedOut says nothing about
  // shard health and must not feed the circuit breaker, else a
  // tight-deadline tenant under queueing pressure sheds perfectly
  // healthy shards.
  ServerContext Ctx(testOptions(1));
  Ctx.registerTenant(basicTenant("blocker"));
  TenantPolicy P = basicTenant("tightq");
  P.Deadline = std::chrono::milliseconds(20);
  P.BreakerThreshold = 1;                        // any counted failure trips
  P.BreakerResetAfter = std::chrono::minutes(1); // and stays open
  Ctx.registerTenant(P);

  // Hold the only dispatcher long enough for the tight deadline to
  // expire in the queue behind this job.
  auto Running = std::make_shared<std::promise<void>>();
  std::future<void> Started = Running->get_future();
  auto Blocker =
      Ctx.submit("blocker", Job::callable([Running](const rt::SpecConfig &) {
        Running->set_value();
        std::this_thread::sleep_for(std::chrono::milliseconds(80));
        return int64_t(1);
      }));
  Started.wait();

  JobResult Expired = Ctx.submit("tightq", Job::mwis()).get();
  EXPECT_EQ(Expired.Outcome, JobOutcome::TimedOut);
  EXPECT_FALSE(Expired.Executed);
  EXPECT_EQ(Expired.Attempts, 0); // no attempt body ever ran
  EXPECT_EQ(Blocker.get().Outcome, JobOutcome::Ok);

  // The shard never misbehaved, so the tenant must still be admitted.
  JobResult After =
      Ctx.submit("tightq", Job::callable([](const rt::SpecConfig &) {
        return int64_t(5);
      })).get();
  EXPECT_EQ(After.Outcome, JobOutcome::Ok) << After.Error;
  EXPECT_EQ(After.Value, 5);
  std::string Text = Ctx.metricsText();
  verifyPrometheusText(Text);
  EXPECT_NE(Text.find("specd_breaker_state{tenant=\"tightq\",shard=\"0\"} 0"),
            std::string::npos);
}

TEST(Resilience, StuckShardIsQuarantinedAndBacklogRedispatched) {
  ServerOptions O = testOptions(2, AdmissionPolicy::RoundRobin);
  O.StuckAfter = std::chrono::milliseconds(50);
  O.HealthPeriod = std::chrono::milliseconds(10);
  ServerContext Ctx(O);
  Ctx.registerTenant(basicTenant("t"));

  // Wedge one dispatcher inside a job that never finishes on its own.
  std::promise<void> Release;
  std::shared_future<void> Gate = Release.get_future().share();
  auto Blocked = Ctx.submit("t", Job::callable([Gate](const rt::SpecConfig &) {
    Gate.wait();
    return int64_t(1);
  }));
  // Wait until a dispatcher actually picked the blocker up.
  unsigned Stuck = Ctx.numShards();
  for (int Spin = 0; Spin < 200 && Stuck == Ctx.numShards(); ++Spin) {
    for (unsigned I = 0; I < Ctx.numShards(); ++I)
      if (Ctx.shard(I).busySinceNs() != 0)
        Stuck = I;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_LT(Stuck, Ctx.numShards());

  // Round-robin admission queues half of these behind the stuck job.
  std::vector<std::future<JobResult>> Fs;
  for (int I = 0; I < 8; ++I)
    Fs.push_back(Ctx.submit("t", Job::lex()));

  // Every queued job completes on the healthy shard — the watchdog
  // quarantined the stuck one and re-dispatched its backlog — while the
  // blocker is still wedged.
  for (auto &F : Fs) {
    JobResult R = F.get();
    EXPECT_EQ(R.Outcome, JobOutcome::Ok) << R.Error;
    EXPECT_NE(R.Shard, Stuck);
  }
  EXPECT_GE(Ctx.shardQuarantines(Stuck), 1u);
  EXPECT_EQ(Ctx.health(), ServerHealth::Degraded);
  std::string Text = Ctx.metricsText();
  verifyPrometheusText(Text);
  EXPECT_NE(Text.find("specd_shard_quarantines_total{shard=\"" +
                      std::to_string(Stuck) + "\"} 1"),
            std::string::npos);
  EXPECT_NE(Text.find("specd_shard_healthy{shard=\"" +
                      std::to_string(Stuck) + "\"} 0"),
            std::string::npos);

  // Unwedge: the blocked job still completes (nothing was lost), and
  // the shard is reinstated once its dispatcher makes progress.
  Release.set_value();
  EXPECT_EQ(Blocked.get().Outcome, JobOutcome::Ok);
  for (int Spin = 0; Spin < 500 && Ctx.health() != ServerHealth::Ok; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(Ctx.health(), ServerHealth::Ok);
}

TEST(Resilience, InjectedFaultErrorCarriesSiteAndProbe) {
  rt::FaultPlan Plan(7); // outlives the context below
  Plan.arm(rt::FaultSite::BodyThrow, 1.0);
  ServerContext Ctx(testOptions(1));
  TenantPolicy P = basicTenant("chaos");
  P.Faults = &Plan;
  Ctx.registerTenant(P);

  JobResult R = Ctx.submit("chaos", Job::lex()).get();
  EXPECT_EQ(R.Outcome, JobOutcome::Faulted);
  EXPECT_EQ(R.FaultSiteName, "body-throw");
  EXPECT_GE(R.FaultProbe, 1u);
  // The human-readable error alone reproduces the failure.
  EXPECT_NE(R.Error.find("body-throw"), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("probe"), std::string::npos) << R.Error;
}

TEST(Resilience, ShieldContainsCrashingTenantJobs) {
  rt::FaultPlan Plan(11);
  Plan.arm(rt::FaultSite::CrashInBody, 0.5);
  ServerContext Ctx(testOptions(1));
  TenantPolicy P = basicTenant("crashy"); // Shield defaults on
  P.Faults = &Plan;
  Ctx.registerTenant(P);

  // Crashing speculative attempts are contained and re-executed; the
  // job still produces the oracle-checked answer and the process (and
  // every other tenant) survives.
  JobResult R = Ctx.submit("crashy", Job::lex()).get();
  EXPECT_EQ(R.Outcome, JobOutcome::Ok) << R.Error;
  EXPECT_GT(R.Stats.Spec.ContainedCrashes, 0);

  std::string Text = Ctx.metricsText();
  verifyPrometheusText(Text);
  EXPECT_NE(Text.find("specd_spec_contained_crashes_total{tenant=\"crashy\"}"),
            std::string::npos);
  EXPECT_EQ(Text.find("specd_spec_contained_crashes_total{tenant=\"crashy\"} 0"),
            std::string::npos);
}

TEST(Health, HealthzReportsOkDegradedAndDraining) {
  ServerContext Ctx(testOptions(2));
  Ctx.registerTenant(basicTenant("t"));
  HttpMetricsServer Http(Ctx, /*Port=*/0);

  std::string Resp = HttpMetricsServer::get(Http.port(), "/healthz");
  EXPECT_TRUE(Resp.rfind("HTTP/1.1 200", 0) == 0) << Resp.substr(0, 80);
  EXPECT_NE(Resp.find("ok\n"), std::string::npos);

  // A quarantined shard degrades the server: 503 so load balancers
  // route away, body says why.
  Ctx.shard(1).setQuarantined(true);
  Resp = HttpMetricsServer::get(Http.port(), "/healthz");
  EXPECT_TRUE(Resp.rfind("HTTP/1.1 503", 0) == 0) << Resp.substr(0, 80);
  EXPECT_NE(Resp.find("degraded\n"), std::string::npos);
  Ctx.shard(1).setQuarantined(false);

  Ctx.shutdown();
  Resp = HttpMetricsServer::get(Http.port(), "/healthz");
  EXPECT_TRUE(Resp.rfind("HTTP/1.1 200", 0) == 0) << Resp.substr(0, 80);
  EXPECT_NE(Resp.find("draining\n"), std::string::npos);
  Http.stop();
}

TEST(Health, SilentClientDoesNotWedgeTheEndpoint) {
  // A client that connects and never sends a request must not hold the
  // single accept thread: /healthz still answers and stop() returns.
  // Both run on std::async so a wedged server fails the test instead of
  // hanging it; closing the silent client afterwards releases either.
  ServerContext Ctx(testOptions(1));
  HttpMetricsServer Http(Ctx, /*Port=*/0);
  int Silent = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(Silent, 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Http.port());
  ASSERT_EQ(::connect(Silent, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)),
            0);

  const auto Limit = std::chrono::seconds(5);
  auto Health = std::async(std::launch::async, [&Http] {
    return HttpMetricsServer::get(Http.port(), "/healthz");
  });
  const bool Answered = Health.wait_for(Limit) == std::future_status::ready;
  auto Stopped = std::async(std::launch::async, [&Http] { Http.stop(); });
  const bool StopReturned =
      Stopped.wait_for(Limit) == std::future_status::ready;
  ::close(Silent);
  const std::string Resp = Health.get();
  Stopped.get();

  EXPECT_TRUE(Answered) << "/healthz blocked behind a silent client";
  EXPECT_TRUE(Resp.rfind("HTTP/1.1 200", 0) == 0) << Resp.substr(0, 80);
  EXPECT_TRUE(StopReturned) << "stop() blocked behind a silent client";
}

//===----------------------------------------------------------------------===//
// Causal tracing & live introspection
//===----------------------------------------------------------------------===//

TEST(Tracing, JobResultCarriesTheMintedTraceId) {
  ServerContext Ctx(testOptions(1));
  Ctx.registerTenant(basicTenant("t"));
  JobResult A = Ctx.submit("t", Job::lex()).get();
  JobResult B = Ctx.submit("t", Job::mwis()).get();
  EXPECT_NE(A.TraceId, 0u);
  EXPECT_NE(B.TraceId, 0u);
  EXPECT_NE(A.TraceId, B.TraceId);
  // Even a rejected-at-admission job gets an id (it was admitted far
  // enough to mint one); only unknown tenants get none.
  EXPECT_EQ(Ctx.submit("nobody", Job::lex()).get().TraceId, 0u);
}

TEST(Tracing, RetriedJobSpansTwoShardsUnderOneTraceId) {
  // Attempt 1 fails on its shard and opens that shard's breaker
  // (threshold 1), so the retry must hop to the other shard. The trace
  // tree then has two spans — one per execution attempt — on two
  // different shards, all under the one TraceId the JobResult reports.
  ServerContext Ctx(testOptions(2));
  TenantPolicy P = basicTenant("hop");
  P.MaxRetries = 2;
  P.RetryBackoff = std::chrono::milliseconds(2);
  P.BreakerThreshold = 1;
  P.BreakerResetAfter = std::chrono::seconds(30);
  Ctx.registerTenant(P);

  auto Calls = std::make_shared<std::atomic<int>>(0);
  JobResult R =
      Ctx.submit("hop", Job::callable([Calls](const rt::SpecConfig &Cfg) {
        // Run a real speculative loop so runtime events (not just the
        // job markers) carry the trace context.
        auto Run = rt::Speculation::iterate<int64_t>(
            0, 32, [](int64_t I, int64_t A) { return A + I; },
            [](int64_t I) { return I * (I - 1) / 2; }, Cfg);
        if (Calls->fetch_add(1) == 0)
          throw std::runtime_error("transient");
        return Run.Value;
      })).get();
  ASSERT_EQ(R.Outcome, JobOutcome::Ok) << R.Error;
  EXPECT_EQ(R.Attempts, 2);
  ASSERT_NE(R.TraceId, 0u);

  std::string J;
  ASSERT_TRUE(Ctx.traceJson(R.TraceId, J));
  std::string Err;
  EXPECT_TRUE(validateJson(J, &Err)) << Err << "\n" << J;
  EXPECT_NE(J.find("\"trace_id\":" + std::to_string(R.TraceId)),
            std::string::npos);
  // One span per attempt...
  EXPECT_NE(J.find("\"span\":1"), std::string::npos) << J;
  EXPECT_NE(J.find("\"span\":2"), std::string::npos) << J;
  // ...retained by two different shards' recorders.
  EXPECT_NE(J.find("\"shard\":0"), std::string::npos) << J;
  EXPECT_NE(J.find("\"shard\":1"), std::string::npos) << J;

  // The same tree over the wire.
  HttpMetricsServer Http(Ctx, /*Port=*/0);
  std::string Resp = HttpMetricsServer::get(
      Http.port(), "/debug/trace?id=" + std::to_string(R.TraceId));
  ASSERT_TRUE(Resp.rfind("HTTP/1.1 200", 0) == 0) << Resp.substr(0, 80);
  EXPECT_NE(Resp.find("application/json"), std::string::npos);
  EXPECT_NE(Resp.find("\"trace_id\":" + std::to_string(R.TraceId)),
            std::string::npos);
  Http.stop();
}

TEST(Tracing, DebugTraceAnswers404ForUnknownAnd400ForBadIds) {
  ServerContext Ctx(testOptions(1));
  Ctx.registerTenant(basicTenant("t"));
  HttpMetricsServer Http(Ctx, /*Port=*/0);
  // Never-minted id: 404, not an empty 200 — an operator must be able
  // to tell "evicted/unknown" from "job with no events".
  EXPECT_TRUE(HttpMetricsServer::get(Http.port(), "/debug/trace?id=987654321")
                  .rfind("HTTP/1.1 404", 0) == 0);
  // Missing or malformed id: 400.
  EXPECT_TRUE(HttpMetricsServer::get(Http.port(), "/debug/trace")
                  .rfind("HTTP/1.1 400", 0) == 0);
  EXPECT_TRUE(HttpMetricsServer::get(Http.port(), "/debug/trace?id=abc")
                  .rfind("HTTP/1.1 400", 0) == 0);
  EXPECT_TRUE(HttpMetricsServer::get(Http.port(), "/debug/trace?id=12junk")
                  .rfind("HTTP/1.1 400", 0) == 0);
  Http.stop();
}

TEST(Tracing, StatuszParsesAndReconcilesWithMetrics) {
  ServerContext Ctx(testOptions(2));
  Ctx.registerTenant(basicTenant("alpha"));
  Ctx.registerTenant(basicTenant("beta"));
  std::vector<std::future<JobResult>> Fs;
  for (int I = 0; I < 4; ++I) {
    Fs.push_back(Ctx.submit("alpha", Job::lex()));
    Fs.push_back(Ctx.submit("beta", Job::decode()));
  }
  for (auto &F : Fs)
    EXPECT_EQ(F.get().Outcome, JobOutcome::Ok);
  Ctx.drain();

  HttpMetricsServer Http(Ctx, /*Port=*/0);
  std::string Resp = HttpMetricsServer::get(Http.port(), "/statusz");
  ASSERT_TRUE(Resp.rfind("HTTP/1.1 200", 0) == 0) << Resp.substr(0, 80);
  EXPECT_NE(Resp.find("application/json"), std::string::npos);
  size_t BodyAt = Resp.find("\r\n\r\n");
  ASSERT_NE(BodyAt, std::string::npos);
  const std::string Body = Resp.substr(BodyAt + 4);
  std::string Err;
  ASSERT_TRUE(validateJson(Body, &Err)) << Err << "\n" << Body;

  // Structure: both shards, both tenants, no in-flight job after drain.
  EXPECT_NE(Body.find("\"health\":\"ok\""), std::string::npos);
  EXPECT_NE(Body.find("\"index\":0"), std::string::npos);
  EXPECT_NE(Body.find("\"index\":1"), std::string::npos);
  EXPECT_NE(Body.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(Body.find("\"name\":\"beta\""), std::string::npos);
  EXPECT_NE(Body.find("\"in_flight\":[]"), std::string::npos) << Body;

  // Reconciliation: the outcome tallies /statusz reports must match
  // what /metrics exposes for the same tenants.
  const std::string Metrics = Ctx.metricsText();
  EXPECT_NE(Metrics.find(
                "specd_jobs_total{tenant=\"alpha\",outcome=\"ok\"} 4"),
            std::string::npos);
  EXPECT_NE(Body.find("\"ok\":4"), std::string::npos) << Body;
  // And the flight drop counter family exists (zero on this tiny run).
  EXPECT_NE(Metrics.find("specd_trace_dropped_events_total"),
            std::string::npos);
  // Each shard reports how far back its retained window really reaches.
  const double RetainMs =
      std::chrono::duration<double, std::milli>(testOptions(2).FlightRetain)
          .count();
  int Windows = 0;
  for (size_t At = Body.find("\"window_ms\":"); At != std::string::npos;
       At = Body.find("\"window_ms\":", At + 1)) {
    const double Ms = std::stod(Body.substr(At + 12));
    EXPECT_GE(Ms, 0.0) << Body;
    EXPECT_LE(Ms, RetainMs) << Body;
    ++Windows;
  }
  EXPECT_EQ(Windows, 2) << Body;
  Http.stop();
}

TEST(Tracing, EachEventIsRecordedOnceAndAttributedToItsTenant) {
  // Two tenants on one shard share its flight recorder; the per-tenant
  // metric must partition that one window, event for event.
  ServerContext Ctx(testOptions(1));
  Ctx.registerTenant(basicTenant("a"));
  Ctx.registerTenant(basicTenant("b"));
  std::vector<std::pair<std::string, std::future<JobResult>>> Fs;
  for (int I = 0; I < 3; ++I) {
    Fs.emplace_back("a", Ctx.submit("a", Job::lex()));
    Fs.emplace_back("b", Ctx.submit("b", Job::decode()));
  }
  std::map<uint64_t, std::string> TenantOf; // TraceId -> tenant name
  for (auto &[Name, F] : Fs) {
    JobResult R = F.get();
    ASSERT_EQ(R.Outcome, JobOutcome::Ok) << R.Error;
    TenantOf[R.TraceId] = Name;
  }
  Ctx.drain();
  EXPECT_NE(Ctx.tenant("a")->Id, 0u);
  EXPECT_NE(Ctx.tenant("a")->Id, Ctx.tenant("b")->Id);

  std::map<std::string, uint64_t> Retained;
  for (const rt::SpecEvent &E : Ctx.shard(0).flight().recentEvents()) {
    auto It = TenantOf.find(E.JobId);
    ASSERT_NE(It, TenantOf.end()) << "event of no job, trace " << E.JobId;
    EXPECT_EQ(E.Tenant, Ctx.tenant(It->second)->Id) << "trace " << E.JobId;
    ++Retained[It->second];
  }

  const std::string Text = Ctx.metricsText();
  for (const std::string Name : {"a", "b"}) {
    const std::string Prefix =
        "specd_trace_events_total{tenant=\"" + Name + "\",";
    uint64_t Sum = 0;
    std::istringstream In(Text);
    for (std::string Line; std::getline(In, Line);)
      if (Line.rfind(Prefix, 0) == 0)
        Sum += std::stoull(Line.substr(Line.rfind(' ') + 1));
    EXPECT_GT(Retained[Name], 0u) << Name;
    EXPECT_EQ(Sum, Retained[Name]) << Name << "\n" << Text;
  }
}

TEST(Tracing, FlightWindowEvictionTurnsTraceInto404) {
  // A trace is servable only while the recorders retain its events; a
  // tiny retention window ages it out and the endpoint 404s.
  ServerOptions O = testOptions(1);
  O.FlightRetain = std::chrono::milliseconds(40);
  ServerContext Ctx(O);
  Ctx.registerTenant(basicTenant("t"));
  JobResult R = Ctx.submit("t", Job::lex()).get();
  ASSERT_EQ(R.Outcome, JobOutcome::Ok) << R.Error;
  std::string J;
  EXPECT_TRUE(Ctx.traceJson(R.TraceId, J));
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_FALSE(Ctx.traceJson(R.TraceId, J));
}

//===----------------------------------------------------------------------===//
// Shutdown
//===----------------------------------------------------------------------===//

TEST(Shutdown, EveryFutureResolves) {
  std::vector<std::future<JobResult>> Fs;
  {
    ServerContext Ctx(testOptions(2));
    Ctx.registerTenant(basicTenant("t"));
    for (int I = 0; I < 12; ++I)
      Fs.push_back(Ctx.submit("t", Job::lex()));
    Ctx.shutdown();
    // Post-shutdown submissions reject rather than hang.
    JobResult Late = Ctx.submit("t", Job::lex()).get();
    EXPECT_EQ(Late.Outcome, JobOutcome::Rejected);
  } // destructor: second shutdown is a no-op
  for (auto &F : Fs) {
    ASSERT_EQ(F.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    JobResult R = F.get();
    // Graceful shutdown drains first: everything admitted completes.
    EXPECT_EQ(R.Outcome, JobOutcome::Ok) << R.Error;
  }
}

} // namespace
