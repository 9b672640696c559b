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
///    wakeup, pop, attempt state publication, validator quiesce,
///    and recycling. Reported as the median and the p10/p90 of the
///    repeats (bench/RealCores.h's `quantile`), so one lucky or unlucky
///    run moves neither.
///  * body_cost — the same run at chunk 1 with a body that spins 0, 1, 5
///    or 20 us per chunk, as a speedup over the ideal sequential time
///    (NumChunks x body, no runtime at all). The break-even body of a
///    worker count is the smallest body on that axis whose speedup
///    reaches 1 (-1: none does). An empty body races the waking workers
///    rather than measuring a cost, so the body axis, not the empty-body
///    rows, says what a chunk must cost to pay for its attempt.
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

/// One chunked run: NumChunks chunks of ChunkSize iterations whose last
/// iteration spins \p BodyUs microseconds, always-correct predictor
/// (carried value stays 0), so the run exercises the dispatch -> execute
/// -> accept fast path only.
double runOnce(rt::SpecExecutor &Ex, int64_t NumChunks, int64_t ChunkSize,
               int64_t BodyUs) {
  rt::SpecConfig Cfg = rt::SpecConfig().executor(Ex);
  const int64_t N = NumChunks * ChunkSize;
  double T0 = wallSeconds();
  auto R = rt::Speculation::iterateChunked<int64_t>(
      0, N, ChunkSize,
      [ChunkSize, BodyUs](int64_t I, int64_t A) {
        if (BodyUs > 0 && I % ChunkSize == ChunkSize - 1) {
          const auto End = std::chrono::steady_clock::now() +
                           std::chrono::microseconds(BodyUs);
          while (std::chrono::steady_clock::now() < End) {
          }
        }
        return A;
      },
      [](int64_t) { return int64_t(0); }, Cfg);
  double T1 = wallSeconds();
  if (R.Value != 0)
    std::abort();
  return T1 - T0;
}

struct Row {
  unsigned Threads;
  int64_t ChunkSize;
  int64_t BodyUs;
  double MedianNs, P10Ns, P90Ns;
  /// Ideal sequential time over the median wall time (0 for no body).
  double Speedup;
};

Row measure(unsigned Threads, int64_t NumChunks, int64_t ChunkSize,
            int64_t BodyUs, int Repeats) {
  rt::SpecExecutor Ex(Threads);
  // warm-up: worker spin-up, first touch
  runOnce(Ex, NumChunks, ChunkSize, BodyUs);
  std::vector<double> PerAttemptNs;
  for (int R = 0; R < Repeats; ++R)
    PerAttemptNs.push_back(runOnce(Ex, NumChunks, ChunkSize, BodyUs) /
                           static_cast<double>(NumChunks) * 1e9);
  const double Median = bench::median(PerAttemptNs);
  return {Threads,
          ChunkSize,
          BodyUs,
          Median,
          bench::quantile(PerAttemptNs, 0.1),
          bench::quantile(PerAttemptNs, 0.9),
          static_cast<double>(BodyUs) * 1e3 / Median};
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
  const std::vector<int64_t> BodyCostsUs = {0, 1, 5, 20};
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
      Row R = measure(T, NumChunks, C, 0, Reps);
      Rows.push_back(R);
      std::printf("%8u %10lld %12.0f %12.0f %12.0f\n", R.Threads,
                  static_cast<long long>(R.ChunkSize), R.MedianNs, R.P10Ns,
                  R.P90Ns);
    }

  std::printf("=== body cost (chunk 1, speedup over the ideal sequential "
              "time; break-even = smallest body reaching 1.0x) ===\n");
  std::printf("%8s %8s %12s %9s\n", "threads", "body us", "median ns",
              "speedup");
  std::vector<Row> BodyRows;
  std::vector<int64_t> BreakEvenUs;
  for (unsigned T : ThreadSweep) {
    int64_t BreakEven = -1;
    for (int64_t B : BodyCostsUs) {
      Row R = measure(T, NumChunks, 1, B, Reps);
      BodyRows.push_back(R);
      if (B > 0 && BreakEven < 0 && R.Speedup >= 1.0)
        BreakEven = B;
      std::printf("%8u %8lld %12.0f %8.2fx\n", R.Threads,
                  static_cast<long long>(B), R.MedianNs, R.Speedup);
    }
    BreakEvenUs.push_back(BreakEven);
    std::printf("%8u break-even body: %lld us\n", T,
                static_cast<long long>(BreakEven));
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
    std::fprintf(F, "  \"body_cost\": [\n");
    for (size_t I = 0; I < BodyRows.size(); ++I)
      std::fprintf(F,
                   "    {\"threads\": %u, \"body_us\": %lld, \"median_ns\": "
                   "%.1f, \"p10_ns\": %.1f, \"p90_ns\": %.1f, "
                   "\"speedup\": %.3f}%s\n",
                   BodyRows[I].Threads,
                   static_cast<long long>(BodyRows[I].BodyUs),
                   BodyRows[I].MedianNs, BodyRows[I].P10Ns, BodyRows[I].P90Ns,
                   BodyRows[I].Speedup, I + 1 == BodyRows.size() ? "" : ",");
    std::fprintf(F, "  ],\n  \"break_even_body_us\": {");
    for (size_t I = 0; I < ThreadSweep.size(); ++I)
      std::fprintf(F, "%s\"%u\": %lld", I ? ", " : "", ThreadSweep[I],
                   static_cast<long long>(BreakEvenUs[I]));
    std::fprintf(F, "},\n");
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
