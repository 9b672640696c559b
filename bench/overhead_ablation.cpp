//===- bench/overhead_ablation.cpp - Library-overhead ablation ------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Ablation for the paper's observation that "there are a small number of
/// cases where speedup is marginally less than 1 — the runtime overheads
/// introduced by our library are negligible": real wall-clock of the
/// speculative implementations against the plain sequential ones, each
/// the median of 11 repeats. The whole run is pinned to one CPU, and the
/// speculative runs get a one-worker executor on that CPU
/// (bench/RealCores.h): the validating caller runs its own unclaimed
/// attempts, so an unpinned one-worker executor would use a second core and the ratio
/// would be a parallel speedup, not the library's overhead.
///
//===----------------------------------------------------------------------===//

#include "RealCores.h"

#include "runtime/Telemetry.h"
#include "support/CommandLine.h"
#include "workloads/Datasets.h"
#include "workloads/SourceGen.h"

#include <cstdio>

using namespace specpar;
using namespace specpar::apps;
using namespace specpar::bench;
using namespace specpar::lexgen;
using namespace specpar::huffman;
using namespace specpar::workloads;

int main(int Argc, char **Argv) {
  ArgParser Args("overhead_ablation",
                 "library-overhead ablation vs sequential baselines");
  std::string *TraceOut = Args.strOption(
      "trace-out", "",
      "write a Chrome trace_event JSON of the speculative runs to FILE "
      "(adds tracing overhead to the measured ratios)");
  if (!Args.parse(Argc, Argv))
    return Args.helpRequested() ? 0 : 2;

  std::printf("=== Library-overhead ablation (real wall clock, pinned to "
              "one CPU, 1-worker executor) ===\n\n");
  std::printf("%-18s %14s %16s %10s\n", "benchmark", "sequential (ms)",
              "speculative (ms)", "ratio");

  // All speculative runs share one persistent single-worker executor on
  // the one CPU the caller is pinned to, so the measured overhead
  // excludes pool spawns — the deployment mode a long-lived runtime
  // would use — and no run gains from a second core. With no
  // --trace-out the trace sink stays null and the runtime's tracing
  // hooks cost one pointer test per event site.
  rt::Tracer Tr;
  rt::SpecConfig Cfg;
  Cfg.executor(CoreSet().executor(1));
  if (!TraceOut->empty())
    Cfg.trace(&Tr);

  {
    Lexer LX = makeLexer(Language::Java);
    std::string Text = generateSource(Language::Java, 42, 2000000);
    double Seq = medianSeconds([&] { return sequentialLex(LX, Text); });
    double Spec = medianSeconds(
        [&] { return speculativeLex(LX, Text, 4, 2048, Cfg); });
    std::printf("%-18s %14.2f %16.2f %10.3f\n", "lex/Java", Seq * 1e3,
                Spec * 1e3, Seq / Spec);
  }
  {
    Encoded E =
        encode(generateHuffmanData(HuffmanFlavour::Text, 7, 4000000));
    Decoder D(E.Code);
    BitReader In(E.Bytes, E.NumBits);
    double Seq =
        medianSeconds([&] { return D.decodeAll(In, E.NumSymbols); });
    double Spec = medianSeconds(
        [&] { return speculativeDecode(D, In, 4, 512 * 8, Cfg); });
    std::printf("%-18s %14.2f %16.2f %10.3f\n", "huffman/text", Seq * 1e3,
                Spec * 1e3, Seq / Spec);
  }
  {
    std::vector<int64_t> W = generatePathGraph(3, 4000000, 50);
    // The same two-phase algorithm (including member extraction) the
    // speculative version runs, so the ratio isolates the speculation
    // machinery.
    double Seq = medianSeconds([&] {
      std::vector<int32_t> Members;
      mwis::solveTwoPhase(W, &Members);
      return Members;
    });
    double Spec =
        medianSeconds([&] { return speculativeMwis(W, 4, 128, Cfg); });
    std::printf("%-18s %14.2f %16.2f %10.3f\n", "mwis/uni-50", Seq * 1e3,
                Spec * 1e3, Seq / Spec);
  }

  std::printf("\n(paper: such ratios are 'marginally less than 1' — the "
              "library overhead is negligible; on one CPU the parallel "
              "upside is necessarily absent)\n");

  if (!TraceOut->empty()) {
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
