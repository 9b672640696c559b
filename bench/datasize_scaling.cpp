//===- bench/datasize_scaling.cpp - Section 6 "Dataset size" --------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates the paper's dataset-size experiment (Section 6, "Dataset
/// size"): Huffman decoding speedup across input sizes (the paper used
/// 10-50 MB; we sweep 1-8 MB to fit the container). The paper observed
/// that "speedups do not vary significantly within the data size
/// intervals", with a small average drop attributed to the memory
/// subsystem.
///
/// The speedup is measured at 4 threads on 4 pinned cores (fewer if the
/// host has fewer), max overlap, as the median of 11 repeats in each of
/// 5 processes (bench/RealCores.h); every timed decode is checked against
/// the input, and the cells go to BENCH_datasize.json.
///
//===----------------------------------------------------------------------===//

#include "RealCores.h"

#include "runtime/Telemetry.h"
#include "support/CommandLine.h"
#include "workloads/Datasets.h"

#include <cstdio>

using namespace specpar;
using namespace specpar::apps;
using namespace specpar::bench;
using namespace specpar::huffman;
using namespace specpar::workloads;

int main(int Argc, char **Argv) {
  ArgParser Args("datasize_scaling",
                 "dataset-size scaling for Huffman decoding");
  std::string *TraceOut = Args.strOption(
      "trace-out", "",
      "write a Chrome trace_event JSON of one untimed speculative decode "
      "per size to FILE");
  if (!Args.parse(Argc, Argv))
    return Args.helpRequested() ? 0 : 2;

  const int64_t OverlapBytes = 512;
  const CoreSet Cores;
  Grid G;
  G.Threads = {Cores.paperThreads().back()};
  const unsigned P = G.Threads[0];
  const size_t Sizes[] = {1, 2, 4, 8};

  std::vector<Row> Rows;
  for (size_t MB : Sizes)
    Rows.push_back({"huffman/text-" + std::to_string(MB) + "MB",
                    {OverlapBytes},
                    [&, MB](const Row &R, std::vector<Sample> &Out) {
                      return decodeCells(
                          Cores, G, R.Name, R.Overlaps,
                          encode(generateHuffmanData(HuffmanFlavour::Text, 7,
                                                     MB * 1000000)),
                          Out);
                    }});

  std::printf("=== Dataset-size scaling (Huffman/text, %u threads on "
              "pinned cores, max overlap, median of %d repeats x %d "
              "processes) ===\n\n",
              P, kRepeats, kProcesses);
  std::vector<Cell> Cells = sampleProcesses(Rows);
  if (Cells.empty())
    return 1;

  std::printf("%10s %15s %12s %9s %15s %14s\n", "size (MB)",
              "seq decode (ms)", "ns per byte", "speedup", "p10-p90",
              "mispredictions");
  for (size_t I = 0; I < Cells.size(); ++I) {
    const Cell &C = Cells[I];
    const double Seq = median(C.SeqSeconds);
    std::printf("%10zu %15.2f %12.2f %9.2f %7.2f-%-7.2f %14.0f\n",
                Sizes[I], Seq * 1e3, Seq * 1e9 / double(Sizes[I] * 1000000),
                median(C.Speedups), quantile(C.Speedups, 0.1),
                quantile(C.Speedups, 0.9), median(C.Mispredictions));
  }
  std::printf("\n(paper: speedups do not vary significantly with size; a "
              "small drop from memory effects)\n");
  if (!writeSpeedupJson("BENCH_datasize.json", "datasize_scaling", Cores,
                        Cells))
    return 1;

  if (!TraceOut->empty()) {
    rt::Tracer Tr;
    rt::SpecConfig Cfg = rt::SpecConfig().executor(Cores.executor(P));
    Cfg.trace(&Tr);
    for (size_t MB : Sizes) {
      std::vector<uint8_t> Data =
          generateHuffmanData(HuffmanFlavour::Text, 7, MB * 1000000);
      Encoded E = encode(Data);
      Decoder D(E.Code);
      BitReader In(E.Bytes, E.NumBits);
      if (speculativeDecode(D, In, static_cast<int>(P), OverlapBytes * 8, Cfg)
              .Decoded != Data) {
        std::fprintf(stderr, "MISMATCH: traced decode of %zu MB\n", MB);
        return 1;
      }
    }
    if (!Tr.writeChromeTrace(*TraceOut)) {
      std::fprintf(stderr, "error: cannot write trace to '%s'\n",
                   TraceOut->c_str());
      return 1;
    }
    std::printf("\n%s\nwrote Chrome trace to %s\n", Tr.summary().c_str(),
                TraceOut->c_str());
  }
  return 0;
}
