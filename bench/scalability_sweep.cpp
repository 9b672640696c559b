//===- bench/scalability_sweep.cpp - Runtime hot-path scalability ---------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Measures the speculation runtime's *per-attempt overhead* — the cost of
/// dispatching, executing, validating, and retiring one chunk attempt when
/// the chunk body itself is empty — across a thread sweep (1, 2, 4, 8 and
/// 2x hardware concurrency) and a chunk-size sweep. This is the number the
/// paper's Section 6 says must stay far below the work per prediction
/// point for speculation to pay off, and the regression gate for executor
/// and attempt-lifecycle changes.
///
/// One measurement per configuration, wall clock, over --repeats runs
/// (default 11) after a warm-up run:
///  * per_attempt_ns — iterateChunked with an empty body over NumChunks
///    chunks, perfect predictor, divided by NumChunks. Includes submit,
///    wakeup, steal/pop, attempt state publication, validator quiesce,
///    and recycling. Reported as the median and the p10/p90 of the
///    repeats (bench/RealCores.h's `quantile`), so one lucky or unlucky
///    run moves neither.
/// The steady-state allocation criterion is asserted by hotpath_test
/// (operator-new hook), not here.
///
/// Output: a JSON report (default BENCH_scalability.json) recording the
/// host (nproc, CPU model). When --baseline-json FILE is given, that
/// file's entire contents are embedded under "baseline_pre_change" so the
/// pre-change numbers recorded in the same PR travel with the
/// post-change ones.
///
/// --smoke runs a reduced sweep as a CI sanity gate (the bench must run to
/// completion; perf numbers on shared CI boxes are informational).
///
//===----------------------------------------------------------------------===//

#include "RealCores.h"
#include "support/CommandLine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace specpar;

namespace {

double wallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One empty-body chunked run: NumChunks chunks of ChunkSize iterations,
/// always-correct predictor (carried value stays 0), so the run exercises
/// the dispatch -> execute -> accept fast path only.
double runOnce(rt::SpecExecutor &Ex, int64_t NumChunks, int64_t ChunkSize) {
  rt::SpecConfig Cfg = rt::SpecConfig().executor(Ex);
  const int64_t N = NumChunks * ChunkSize;
  double T0 = wallSeconds();
  auto R = rt::Speculation::iterateChunked<int64_t>(
      0, N, ChunkSize, [](int64_t, int64_t A) { return A; },
      [](int64_t) { return int64_t(0); }, Cfg);
  double T1 = wallSeconds();
  if (R.Value != 0)
    std::abort();
  return T1 - T0;
}

struct Row {
  unsigned Threads;
  int64_t ChunkSize;
  int64_t NumChunks;
  double MedianNs, P10Ns, P90Ns;
};

Row measure(unsigned Threads, int64_t NumChunks, int64_t ChunkSize,
            int Repeats) {
  rt::SpecExecutor Ex(Threads);
  runOnce(Ex, NumChunks, ChunkSize); // warm-up: worker spin-up, first touch
  std::vector<double> PerAttemptNs;
  for (int R = 0; R < Repeats; ++R)
    PerAttemptNs.push_back(runOnce(Ex, NumChunks, ChunkSize) /
                           static_cast<double>(NumChunks) * 1e9);
  return {Threads, ChunkSize, NumChunks, bench::median(PerAttemptNs),
          bench::quantile(PerAttemptNs, 0.1),
          bench::quantile(PerAttemptNs, 0.9)};
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParser Args("scalability_sweep",
                 "Per-attempt runtime overhead across threads x chunk size");
  bool *Smoke = Args.flag("smoke", "reduced sweep for CI smoke runs");
  int64_t *Repeats =
      Args.intOption("repeats", 11, "timed runs per configuration");
  int64_t *Chunks = Args.intOption("chunks", 512, "chunks per run");
  std::string *Out = Args.strOption("out", "BENCH_scalability.json",
                                    "JSON output path (empty: skip)");
  std::string *BaselineJson = Args.strOption(
      "baseline-json", "",
      "embed this file verbatim as baseline_pre_change in the report");
  if (!Args.parse(Argc, Argv))
    return Args.helpRequested() ? 0 : 2;

  const int Reps = static_cast<int>(*Smoke ? std::min<int64_t>(*Repeats, 3)
                                           : *Repeats);
  const int64_t NumChunks = *Smoke ? std::min<int64_t>(*Chunks, 128) : *Chunks;

  std::vector<unsigned> ThreadSweep = {1, 2, 4, 8};
  unsigned TwoXHw = 2 * rt::SpecExecutor::defaultThreads();
  if (std::find(ThreadSweep.begin(), ThreadSweep.end(), TwoXHw) ==
      ThreadSweep.end())
    ThreadSweep.push_back(TwoXHw);
  std::vector<int64_t> ChunkSizes = {1, 8, 64};
  if (*Smoke) {
    ThreadSweep = {1, 2, 8};
    ChunkSizes = {8};
  }

  const unsigned Nproc = std::thread::hardware_concurrency();
  const std::string Cpu = bench::cpuModel();
  std::vector<Row> Rows;
  std::printf("=== per-attempt overhead (empty body, %lld chunks, wall "
              "median [p10, p90] of %d; %u CPUs, %s) ===\n",
              static_cast<long long>(NumChunks), Reps, Nproc, Cpu.c_str());
  std::printf("%8s %10s %12s %12s %12s\n", "threads", "chunk-size",
              "median ns", "p10 ns", "p90 ns");
  for (unsigned T : ThreadSweep)
    for (int64_t C : ChunkSizes) {
      Row R = measure(T, NumChunks, C, Reps);
      Rows.push_back(R);
      std::printf("%8u %10lld %12.0f %12.0f %12.0f\n", R.Threads,
                  static_cast<long long>(R.ChunkSize), R.MedianNs, R.P10Ns,
                  R.P90Ns);
    }

  // The headline number: median per-attempt overhead at 8 threads, chunk
  // size 8 (the configuration the apps' default granularity uses).
  double At8 = -1;
  for (const Row &R : Rows)
    if (R.Threads == 8 && R.ChunkSize == 8)
      At8 = R.MedianNs;

  if (!Out->empty()) {
    std::FILE *F = std::fopen(Out->c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", Out->c_str());
      return 1;
    }
    std::string CpuJson;
    appendJsonString(CpuJson, Cpu);
    std::fprintf(F, "{\n  \"host\": {\"nproc\": %u, \"cpu_model\": %s},\n",
                 Nproc, CpuJson.c_str());
    std::fprintf(F, "  \"config\": {\"chunks\": %lld, \"repeats\": %d, "
                 "\"smoke\": %s, \"statistic\": \"wall ns per attempt, "
                 "median [p10, p90] over repeats\"},\n",
                 static_cast<long long>(NumChunks), Reps,
                 *Smoke ? "true" : "false");
    std::fprintf(F, "  \"per_attempt_ns\": [\n");
    for (size_t I = 0; I < Rows.size(); ++I)
      std::fprintf(F,
                   "    {\"threads\": %u, \"chunk_size\": %lld, "
                   "\"median\": %.1f, \"p10\": %.1f, \"p90\": %.1f}%s\n",
                   Rows[I].Threads,
                   static_cast<long long>(Rows[I].ChunkSize), Rows[I].MedianNs,
                   Rows[I].P10Ns, Rows[I].P90Ns,
                   I + 1 == Rows.size() ? "" : ",");
    std::fprintf(F, "  ],\n");
    std::fprintf(F, "  \"per_attempt_ns_8threads_chunk8\": %.1f", At8);
    if (!BaselineJson->empty()) {
      std::FILE *B = std::fopen(BaselineJson->c_str(), "r");
      if (B) {
        std::fprintf(F, ",\n  \"baseline_pre_change\": ");
        char Buf[4096];
        size_t Got;
        std::string All;
        while ((Got = std::fread(Buf, 1, sizeof(Buf), B)) > 0)
          All.append(Buf, Got);
        std::fclose(B);
        while (!All.empty() && (All.back() == '\n' || All.back() == ' '))
          All.pop_back();
        std::fputs(All.c_str(), F);
      } else {
        std::fprintf(stderr, "warning: cannot read %s\n",
                     BaselineJson->c_str());
      }
    }
    std::fprintf(F, "\n}\n");
    std::fclose(F);
    std::printf("wrote %s\n", Out->c_str());
  }
  std::printf("scalability_sweep: PASS\n");
  return 0;
}
