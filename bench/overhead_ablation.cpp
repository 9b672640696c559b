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
/// the median of 11 repeats, and the heap traffic (global operator new
/// calls and bytes) of one speculative run.
///
/// Each benchmark runs in its own process, fork()ed from this one
/// (`runInChild`, bench/RealCores.h), so that no benchmark inherits the
/// allocator state another left behind: glibc raises its mmap threshold
/// to the size of the largest mmapped buffer freed, so one benchmark's
/// freed output would otherwise change whether the next one's big
/// buffers come from fresh, page-faulting mmaps. Each process is pinned
/// to one CPU, and the speculative runs get a one-worker executor on
/// that CPU: the validating caller runs its own unclaimed attempts, so
/// an unpinned one-worker executor would use a second core and the ratio
/// would be a parallel speedup, not the library's overhead.
///
//===----------------------------------------------------------------------===//

#include "RealCores.h"

#include "runtime/Telemetry.h"
#include "support/AllocCounter.h"
#include "support/CommandLine.h"
#include "workloads/Datasets.h"
#include "workloads/SourceGen.h"

#include <algorithm>
#include <cstdio>

using namespace specpar;
using namespace specpar::apps;
using namespace specpar::bench;
using namespace specpar::lexgen;
using namespace specpar::huffman;
using namespace specpar::workloads;

namespace {

/// What one benchmark's process measured.
struct Measured {
  double SeqSeconds = 0, SpecSeconds = 0;
  /// The heap traffic of one speculative run.
  AllocCounts SpecAllocs;
};

/// Times `Seq()` and `Spec()`, checks every speculative output (the
/// `Output` member of what `Spec()` returns) against the sequential
/// one, and counts the allocations of one more, untimed, speculative
/// run. Returns nothing on a mismatch.
template <class SeqFn, class SpecFn, class OutputMember>
std::optional<Measured> measure(SeqFn &&Seq, SpecFn &&Spec,
                                OutputMember Output) {
  Measured M;
  const auto Oracle = Seq();
  M.SeqSeconds = medianSeconds(Seq);
  bool Matches = true;
  M.SpecSeconds = medianSeconds(
      Spec, [&](const auto &Run) { Matches &= Run.*Output == Oracle; });
  const AllocCounts Before = allocCounts();
  setAllocCounting(true);
  auto Run = Spec();
  setAllocCounting(false);
  M.SpecAllocs = allocCounts() - Before;
  if (!Matches || !(Run.*Output == Oracle))
    return std::nullopt;
  return M;
}

/// One benchmark: its name, and how its process measures it.
struct Bench {
  const char *Name;
  std::function<std::optional<Measured>(const rt::SpecConfig &)> Measure;
};

} // namespace

int main(int Argc, char **Argv) {
  ArgParser Args("overhead_ablation",
                 "library-overhead ablation vs sequential baselines");
  std::string *TraceOut = Args.strOption(
      "trace-out", "",
      "write a Chrome trace_event JSON of each benchmark's speculative "
      "runs to FILE.<benchmark>.json, with '-' for the '/' in the name "
      "(adds tracing overhead to the measured ratios)");
  if (!Args.parse(Argc, Argv))
    return Args.helpRequested() ? 0 : 2;

  const std::vector<Bench> Benches = {
      {"lex/Java",
       [](const rt::SpecConfig &Cfg) {
         Lexer LX = makeLexer(Language::Java);
         std::string Text = generateSource(Language::Java, 42, 2000000);
         return measure([&] { return sequentialLex(LX, Text); },
                        [&] { return speculativeLex(LX, Text, 4, 2048, Cfg); },
                        &LexRun::Tokens);
       }},
      {"huffman/text",
       [](const rt::SpecConfig &Cfg) {
         Encoded E =
             encode(generateHuffmanData(HuffmanFlavour::Text, 7, 4000000));
         Decoder D(E.Code);
         BitReader In(E.Bytes, E.NumBits);
         return measure(
             [&] { return D.decodeAll(In, E.NumSymbols); },
             [&] { return speculativeDecode(D, In, 4, 512 * 8, Cfg); },
             &HuffmanRun::Decoded);
       }},
      {"mwis/uni-50",
       [](const rt::SpecConfig &Cfg) {
         std::vector<int64_t> W = generatePathGraph(3, 4000000, 50);
         // The same two-phase algorithm (including member extraction)
         // the speculative version runs, so the ratio isolates the
         // speculation machinery.
         return measure(
             [&] {
               std::vector<int32_t> Members;
               mwis::solveTwoPhase(W, &Members);
               return Members;
             },
             [&] { return speculativeMwis(W, 4, 128, Cfg); },
             &MwisRun::Members);
       }},
  };

  std::printf("=== Library-overhead ablation (real wall clock, pinned to "
              "one CPU, 1-worker executor, one process per benchmark) "
              "===\n\n");
  std::printf("%-14s %14s %16s %8s %14s %14s\n", "benchmark",
              "sequential (ms)", "speculative (ms)", "ratio",
              "new calls/run", "new MB/run");
  bool Ok = true;
  for (const Bench &B : Benches) {
    std::optional<std::string> Out = runInChild([&](std::FILE *W) {
      // The benchmark's speculative runs share one persistent
      // single-worker executor on the one CPU this process is pinned
      // to, so the measured overhead excludes pool spawns and no run
      // gains from a second core. With no --trace-out the trace sink
      // stays null and the runtime's tracing hooks cost one pointer
      // test per event site.
      rt::Tracer Tr;
      rt::SpecConfig Cfg;
      Cfg.executor(CoreSet().executor(1));
      if (!TraceOut->empty())
        Cfg.trace(&Tr);
      std::optional<Measured> M = B.Measure(Cfg);
      if (!M) {
        std::fprintf(stderr, "MISMATCH: %s\n", B.Name);
        return false;
      }
      std::fprintf(W, "%.17g %.17g %lld %lld\n", M->SeqSeconds,
                   M->SpecSeconds, static_cast<long long>(M->SpecAllocs.Calls),
                   static_cast<long long>(M->SpecAllocs.Bytes));
      if (TraceOut->empty())
        return true;
      std::string Name = B.Name;
      std::replace(Name.begin(), Name.end(), '/', '-');
      const std::string Path = *TraceOut + "." + Name + ".json";
      if (!Tr.writeChromeTrace(Path)) {
        std::fprintf(stderr, "error: cannot write trace to '%s'\n",
                     Path.c_str());
        return false;
      }
      std::printf("%s: %s\nwrote Chrome trace to %s\n", B.Name,
                  Tr.summary().c_str(), Path.c_str());
      return true;
    });
    Measured M;
    long long Calls = 0, Bytes = 0;
    if (!Out || std::sscanf(Out->c_str(), "%lg %lg %lld %lld", &M.SeqSeconds,
                            &M.SpecSeconds, &Calls, &Bytes) != 4) {
      std::fprintf(stderr, "error: the %s process failed\n", B.Name);
      Ok = false;
      continue;
    }
    std::printf("%-14s %14.2f %16.2f %8.3f %14lld %14.2f\n", B.Name,
                M.SeqSeconds * 1e3, M.SpecSeconds * 1e3,
                M.SeqSeconds / M.SpecSeconds, Calls,
                static_cast<double>(Bytes) / (1 << 20));
  }

  std::printf("\n(paper: such ratios are 'marginally less than 1' — the "
              "library overhead is negligible; on one CPU the parallel "
              "upside is necessarily absent)\n");
  return Ok ? 0 : 1;
}
