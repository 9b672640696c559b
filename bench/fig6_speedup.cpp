//===- bench/fig6_speedup.cpp - Paper Figure 6 ----------------------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates Figure 6, "Variation in scalability of the three benchmark
/// programs with number of threads, data sets and prediction quality":
/// for every benchmark/dataset pair, the wall-clock speedup at 1/2/4
/// threads (those the host has) with a large overlap ("max speedup",
/// mispredictions eliminated) and a minimal overlap ("min speedup"),
/// one task per thread.
///
/// Each thread count runs on that many pinned cores; every cell is the
/// median of 11 repeats in each of 5 processes (bench/RealCores.h), and
/// every timed run is checked against the sequential output. The
/// per-process speedups, their median, p10 and p90, and the median
/// mispredictions go to BENCH_speedup.json.
///
/// Expected shape (paper): near-linear scaling with large overlaps
/// (e.g. Latex lexing ~4x at 4 threads); with small overlaps anywhere
/// from no speedup (Huffman/media) to near-linear (Java lexing).
///
//===----------------------------------------------------------------------===//

#include "RealCores.h"

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

int main(int Argc, char **Argv) {
  ArgParser Args("fig6_speedup",
                 "Figure 6: speedup vs threads, on pinned real cores");
  if (!Args.parse(Argc, Argv))
    return Args.helpRequested() ? 0 : 2;

  const CoreSet Cores;
  Grid G;
  G.Threads = Cores.paperThreads();

  // Overlaps are {max, min}.
  std::vector<Row> Rows;
  for (Language L : AllLanguages)
    Rows.push_back({std::string("lex/") + languageName(L), {2048, 8},
                    [&, L](const Row &R, std::vector<Sample> &Out) {
                      std::string Text = generateSource(L, 42, 2000000);
                      return lexCells(Cores, G, R.Name, R.Overlaps,
                                      makeLexer(L), Text, Out);
                    }});
  for (HuffmanFlavour F : AllHuffmanFlavours)
    Rows.push_back({std::string("huffman/") + huffmanFlavourName(F), {512, 2},
                    [&, F](const Row &R, std::vector<Sample> &Out) {
                      return decodeCells(
                          Cores, G, R.Name, R.Overlaps,
                          encode(generateHuffmanData(F, 7, 4000000)), Out);
                    }});
  for (int64_t MaxW : {50, 5000})
    Rows.push_back({"mwis/uni-" + std::to_string(MaxW), {128, 2},
                    [&, MaxW](const Row &R, std::vector<Sample> &Out) {
                      return mwisCells(Cores, G, R.Name, R.Overlaps,
                                       generatePathGraph(3, 4000000, MaxW),
                                       Out);
                    }});

  std::printf("=== Figure 6: speedup vs threads (max overlap / min "
              "overlap), %u pinned cores, median of %d repeats x %d "
              "processes ===\n\n",
              Cores.size(), kRepeats, kProcesses);
  std::vector<Cell> Cells = sampleProcesses(Rows);
  if (Cells.empty())
    return 1;

  std::printf("%-22s %11s %11s %11s\n", "benchmark/dataset", "1 thr",
              "2 thr", "4 thr");
  for (const Row &Rw : Rows) {
    std::printf("%-22s", Rw.Name.c_str());
    for (unsigned P : {1u, 2u, 4u}) {
      const Cell *Max = findCell(Cells, Rw.Name, "seq", Rw.Overlaps[0], P);
      const Cell *Min = findCell(Cells, Rw.Name, "seq", Rw.Overlaps[1], P);
      if (Max && Min)
        std::printf("   %4.2f/%-4.2f", median(Max->Speedups),
                    median(Min->Speedups));
      else
        std::printf(" %11s", "n/a");
    }
    std::printf("\n");
  }
  std::printf("\n(medians over processes of per-process speedups; "
              "spread and mispredictions in BENCH_speedup.json)\n");
  return writeSpeedupJson("BENCH_speedup.json", "fig6_speedup", Cores, Cells)
             ? 0
             : 1;
}
