//===- bench/robustness_overhead.cpp - Cost of the robustness hooks -------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Measures what the robustness layer costs when it is *not* in use, and
/// records it in `BENCH_robustness.json`.
///
/// Two configurations of the same chunked iterate() run:
///  * off   — no FaultPlan, no deadline, no degrade monitor (the default
///            configuration every existing caller gets);
///  * armed — a zero-probability FaultPlan installed, a far-future
///            deadline armed, the degrade monitor watching with a
///            threshold it can never trip, the signal shield +
///            attempt-budget watchdog armed around every attempt with a
///            budget that never expires, and an idle flight recorder's
///            tracer installed (every event pays its ring append; no
///            anomaly, so no dump I/O) — the specd serving posture.
/// The off->armed delta is a *conservative upper bound* on the cost the
/// disabled hooks add to a build without them: disabled hooks are single
/// pointer tests, while armed-but-idle hooks additionally pay atomic
/// probe counters, deterministic hashing, and deadline clock checks at
/// every site. Two granularities are measured, min-of-repeats each:
///  * an empty body isolates the absolute per-chunk hook cost in
///    nanoseconds (recorded in the JSON so future PRs can track it);
///  * a realistic body (~tens of microseconds per chunk, still well
///    below the per-chunk work of the three paper apps) supplies the
///    denominator for the relative claim: the harness asserts that the
///    per-chunk armed-but-idle hook cost — hence a fortiori the
///    disabled-hook cost — stays under --max-overhead-pct (default 2%)
///    of a realistic chunk's work. All timings are process CPU time,
///    min-of-repeats, off/armed interleaved (see cpuSeconds()).
///
//===----------------------------------------------------------------------===//

#include "runtime/FaultPlan.h"
#include "runtime/FlightRecorder.h"
#include "runtime/Speculation.h"
#include "support/CommandLine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <ctime>
#include <string>

using namespace specpar;

namespace {

/// Busy-work sink: \p Spin rounds of a SplitMix64-style mix, forced via
/// a relaxed atomic store so the optimizer cannot delete it (attempts on
/// different threads — including the validator, which runs its own
/// unclaimed attempts — store concurrently). The carried value stays 0
/// so the trivial predictor is always correct and the run exercises the
/// accept path, not re-execution.
std::atomic<uint64_t> SpinSink;
void spinWork(int64_t I, int64_t Spin) {
  uint64_t Z = static_cast<uint64_t>(I) + 0x9e3779b97f4a7c15ULL;
  for (int64_t K = 0; K < Spin; ++K) {
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  }
  SpinSink.store(Z, std::memory_order_relaxed);
}

/// Process CPU seconds (all threads). The hook cost is CPU work, and on
/// small shared hosts wall clock wobbles with scheduler preemption far
/// above the 2% we want to resolve; CPU time measures exactly the
/// quantity under test.
double cpuSeconds() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  timespec TS;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &TS);
  return static_cast<double>(TS.tv_sec) + static_cast<double>(TS.tv_nsec) * 1e-9;
#else
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
#endif
}

/// CPU seconds for one chunked run under \p Cfg (N=2000 iterations in
/// 250 chunks of 8, \p Spin mix rounds per iteration).
double runCpuSeconds(const rt::SpecConfig &Cfg, int64_t Spin) {
  const int64_t N = 2000, ChunkSize = 8;
  double C0 = cpuSeconds();
  rt::SpecResult<int64_t> Res = rt::Speculation::iterateChunked<int64_t>(
      0, N, ChunkSize,
      [Spin](int64_t I, int64_t A) {
        if (Spin > 0)
          spinWork(I, Spin);
        return A;
      },
      [](int64_t) { return int64_t(0); }, Cfg);
  (void)Res;
  return cpuSeconds() - C0;
}

/// Min-of-\p Repeats for both configs, interleaved A/B so slow drift
/// (frequency scaling, noisy neighbours) cancels between the two.
void minInterleaved(const rt::SpecConfig &CfgA, const rt::SpecConfig &CfgB,
                    int64_t Spin, int Repeats, double &BestA, double &BestB) {
  BestA = BestB = -1;
  for (int R = 0; R < Repeats; ++R) {
    double A = runCpuSeconds(CfgA, Spin);
    double B = runCpuSeconds(CfgB, Spin);
    if (BestA < 0 || A < BestA)
      BestA = A;
    if (BestB < 0 || B < BestB)
      BestB = B;
  }
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParser Args("robustness_overhead",
                 "Disabled-hook overhead check");
  int64_t *Repeats = Args.intOption("repeats", 9, "min-of-N repeats");
  int64_t *MaxPct =
      Args.intOption("max-overhead-pct", 2, "fail above this overhead");
  std::string *Out = Args.strOption("out", "BENCH_robustness.json",
                                    "JSON output path (empty: skip)");
  if (!Args.parse(Argc, Argv))
    return Args.helpRequested() ? 0 : 2;

  // --- Hook overhead: off vs armed-but-idle ------------------------------
  std::shared_ptr<rt::SpecExecutor> Ex = rt::SpecExecutor::defaultShard();
  rt::SpecConfig Off = rt::SpecConfig().executor(Ex);

  rt::FaultPlan Idle(/*Seed=*/1); // every site at probability 0
  for (rt::FaultSite S :
       {rt::FaultSite::PredictorThrow, rt::FaultSite::BodyThrow,
        rt::FaultSite::ComparatorThrow, rt::FaultSite::ForceMispredict,
        rt::FaultSite::SpuriousCancel, rt::FaultSite::DelayTaskStart,
        rt::FaultSite::JitterWakeup, rt::FaultSite::CrashInBody,
        rt::FaultSite::RunawayBody})
    Idle.arm(S, 0.0);
  // The shield arms per attempt (a sigsetjmp plus a handful of relaxed
  // stores) and the attempt-budget watchdog is live but its 24 h budget
  // never expires — both idle, both inside the measured delta. The
  // flight recorder is armed-but-idle the same way specd runs it: its
  // tracer records every lifecycle event into the per-thread rings, but
  // no anomaly fires, so no dump I/O happens. Its per-event ring append
  // is the single largest armed-idle cost and must fit the same gate.
  rt::FlightRecorder Flight;
  rt::SpecConfig Armed = rt::SpecConfig()
                             .executor(Ex)
                             .faults(&Idle)
                             .deadline(std::chrono::hours(24))
                             .degrade(/*MaxBadRate=*/1.0, /*Window=*/8)
                             .shield()
                             .attemptBudget(std::chrono::hours(24))
                             .trace(&Flight.tracer());

  const int Reps = static_cast<int>(*Repeats);
  // ~3000 mix rounds ~= a few tens of microseconds per 8-iteration
  // chunk; the paper apps' chunks (lexing 10k+ chars, decoding 10k+
  // bits) are far heavier, so the relative bound below is conservative.
  const int64_t RealisticSpin = 3000;

  // Warm both paths (thread pool spin-up, first-touch of the plan).
  runCpuSeconds(Off, 0);
  runCpuSeconds(Armed, 0);
  double OffTrivial, ArmedTrivial, OffReal, ArmedReal;
  minInterleaved(Off, Armed, 0, Reps, OffTrivial, ArmedTrivial);
  const double HookNsPerChunk = (ArmedTrivial - OffTrivial) / 250.0 * 1e9;
  minInterleaved(Off, Armed, RealisticSpin, Reps, OffReal, ArmedReal);
  // The asserted number: per-chunk hook cost (resolved on the empty-body
  // runs, where it is ~25% of the run and far above scheduler noise)
  // relative to a realistic chunk's work. A direct A/B at realistic
  // granularity cannot resolve 2% on a small shared host — the ~0.15%
  // true delta drowns in schedule-dependent claim/wait CPU — so that
  // pair is reported for tracking only.
  const double RealChunkSec = OffReal / 250.0;
  const double OverheadPct =
      std::max(0.0, HookNsPerChunk) * 1e-9 / RealChunkSec * 100.0;

  std::printf("=== robustness hook overhead (chunked iterate, 250 "
              "chunks, CPU time, min of %d) ===\n",
              Reps);
  std::printf("empty body:      off %8.1f us  armed-idle %8.1f us  "
              "(%+.0f ns/chunk absolute hook cost)\n",
              OffTrivial * 1e6, ArmedTrivial * 1e6, HookNsPerChunk);
  std::printf("realistic body:  off %8.1f us  armed-idle %8.1f us\n",
              OffReal * 1e6, ArmedReal * 1e6);
  std::printf("hook cost vs realistic chunk (%.1f us): %5.2f %% "
              "(budget %lld%%)\n\n",
              RealChunkSec * 1e6, OverheadPct,
              static_cast<long long>(*MaxPct));

  if (!Out->empty()) {
    std::FILE *F = std::fopen(Out->c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", Out->c_str());
      return 1;
    }
    std::fprintf(F, "{\n  \"hook_overhead\": {\n");
    std::fprintf(F, "    \"empty_body_off_cpu_us\": %.3f,\n",
                 OffTrivial * 1e6);
    std::fprintf(F, "    \"empty_body_armed_idle_cpu_us\": %.3f,\n",
                 ArmedTrivial * 1e6);
    std::fprintf(F, "    \"armed_idle_hook_ns_per_chunk\": %.1f,\n",
                 HookNsPerChunk);
    std::fprintf(F, "    \"realistic_body_off_cpu_us\": %.3f,\n",
                 OffReal * 1e6);
    std::fprintf(F, "    \"realistic_body_armed_idle_cpu_us\": %.3f,\n",
                 ArmedReal * 1e6);
    std::fprintf(F, "    \"hook_pct_of_realistic_chunk\": %.3f,\n",
                 OverheadPct);
    std::fprintf(F, "    \"budget_pct\": %lld\n  }\n}\n",
                 static_cast<long long>(*MaxPct));
    std::fclose(F);
    std::printf("wrote %s\n", Out->c_str());
  }

  if (OverheadPct > static_cast<double>(*MaxPct)) {
    std::fprintf(stderr,
                 "robustness_overhead: armed-but-idle hook cost is %.2f%% "
                 "of a realistic chunk (budget %lld%%)\n",
                 OverheadPct, static_cast<long long>(*MaxPct));
    return 1;
  }
  std::printf("robustness_overhead: PASS\n");
  return 0;
}
