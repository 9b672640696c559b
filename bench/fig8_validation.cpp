//===- bench/fig8_validation.cpp - Paper Figure 8 -------------------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates Figure 8, "Variation in scalability of benchmarks with the
/// type of speculation validation — sequential or parallel": for one
/// dataset per benchmark, the speedup under Seq and Par validation, at a
/// small ("min") and a large ("max") overlap, across thread counts.
///
/// Each thread count runs on that many pinned cores, with 4 tasks per
/// thread so that parallel validation has re-dispatch opportunities;
/// every cell is the median of 11 repeats in each of 5 processes
/// (bench/RealCores.h), every timed run is checked against the
/// sequential output, and the cells go to BENCH_validation.json.
///
/// Expected shape (paper): the two modes perform equally well in many
/// cases, but Seq validation wins with 4 threads and a good predictor —
/// the overhead of creating extra validation/corrective tasks outweighs
/// the benefit of parallel validation.
///
//===----------------------------------------------------------------------===//

#include "RealCores.h"

#include "runtime/Telemetry.h"
#include "support/CommandLine.h"
#include "workloads/Datasets.h"
#include "workloads/SourceGen.h"

#include <cstdio>
#include <string>

using namespace specpar;
using namespace specpar::bench;
using namespace specpar::lexgen;
using namespace specpar::huffman;
using namespace specpar::workloads;

/// Runs the real runtime under both validation modes with the tracer
/// attached: once with perfect predictions (every chunk validates and is
/// accepted) and once with every prediction past the first chunk forced
/// wrong (every such chunk is cancelled/mispredicted and re-executed), so
/// the trace shows the complete attempt lifecycle — dispatch, start,
/// finish, validate-accept, mispredict, re-execute, finalize — for every
/// chunk in both Seq and Par validation.
static void runTracedValidation(rt::Tracer &Tr) {
  const int64_t N = 64, ChunkSize = 8;
  for (rt::ValidationMode Mode :
       {rt::ValidationMode::Seq, rt::ValidationMode::Par}) {
    rt::SpecConfig Cfg = rt::SpecConfig()
                             .executor(rt::SpecExecutor::defaultShard())
                             .mode(Mode)
                             .trace(&Tr);
    for (bool ForceMiss : {false, true}) {
      rt::Speculation::iterateChunked<int64_t>(
          0, N, ChunkSize, [](int64_t, int64_t Carry) { return Carry + 1; },
          [ForceMiss](int64_t I) {
            return !ForceMiss || I == 0 ? I : int64_t(-1);
          },
          Cfg);
    }
  }
}

int main(int Argc, char **Argv) {
  ArgParser Args("fig8_validation",
                 "Figure 8: seq vs par validation speedup");
  std::string *TraceOut = Args.strOption(
      "trace-out", "",
      "write a Chrome trace_event JSON of real speculative runs (both "
      "validation modes, with and without forced mispredictions) to FILE");
  if (!Args.parse(Argc, Argv))
    return Args.helpRequested() ? 0 : 2;

  const CoreSet Cores;
  Grid G;
  G.Threads = Cores.paperThreads();
  G.TasksPerThread = 4;
  G.Modes = {rt::ValidationMode::Seq, rt::ValidationMode::Par};

  // Overlaps are {min, max}.
  const std::vector<Row> Rows = {
      {"lex/Java", {8, 2048},
       [&](const Row &R, std::vector<Sample> &Out) {
         std::string Text = generateSource(Language::Java, 42, 2000000);
         return lexCells(Cores, G, R.Name, R.Overlaps,
                         makeLexer(Language::Java), Text, Out);
       }},
      {"huffman/text", {2, 512},
       [&](const Row &R, std::vector<Sample> &Out) {
         return decodeCells(
             Cores, G, R.Name, R.Overlaps,
             encode(generateHuffmanData(HuffmanFlavour::Text, 7, 4000000)),
             Out);
       }},
      {"mwis/uni-50", {2, 128},
       [&](const Row &R, std::vector<Sample> &Out) {
         return mwisCells(Cores, G, R.Name, R.Overlaps,
                          generatePathGraph(3, 4000000, 50), Out);
       }}};

  std::printf("=== Figure 8: seq vs par validation (speedup, seq/par), %u "
              "pinned cores, median of %d repeats x %d processes ===\n\n",
              Cores.size(), kRepeats, kProcesses);
  std::vector<Cell> Cells = sampleProcesses(Rows);
  if (Cells.empty())
    return 1;

  std::printf("%-26s %13s %13s %13s\n", "benchmark (overlap)", "1 thr",
              "2 thr", "4 thr");
  for (const Row &R : Rows)
    for (size_t I = 0; I < R.Overlaps.size(); ++I) {
      std::string Label = R.Name + (I == 0 ? " (min)" : " (max)");
      std::printf("%-26s", Label.c_str());
      for (unsigned P : {1u, 2u, 4u}) {
        const Cell *Seq = findCell(Cells, R.Name, "seq", R.Overlaps[I], P);
        const Cell *Par = findCell(Cells, R.Name, "par", R.Overlaps[I], P);
        if (Seq && Par)
          std::printf("   %5.2f/%-5.2f", median(Seq->Speedups),
                      median(Par->Speedups));
        else
          std::printf(" %13s", "n/a");
      }
      std::printf("\n");
    }
  std::printf("\n(medians over processes of per-process speedups; "
              "spread and mispredictions in BENCH_validation.json)\n");
  if (!writeSpeedupJson("BENCH_validation.json", "fig8_validation", Cores,
                        Cells))
    return 1;

  if (!TraceOut->empty()) {
    rt::Tracer Tr;
    runTracedValidation(Tr);
    if (!Tr.writeChromeTrace(*TraceOut)) {
      std::fprintf(stderr, "error: cannot write trace to '%s'\n",
                   TraceOut->c_str());
      return 1;
    }
    std::printf("\n%s\nwrote Chrome trace to %s (load in Perfetto or "
                "chrome://tracing)\n",
                Tr.summary().c_str(), TraceOut->c_str());
  }
  return 0;
}
