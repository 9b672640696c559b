//===- examples/speculative_lexing.cpp - Paper Figure 4, runnable ---------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The paper's flagship scenario (Figure 4): lift a sequential range
/// lexer to a speculatively parallel one. Generates a source file for a
/// chosen language, lexes it sequentially and speculatively with several
/// overlap sizes, and prints token counts, prediction accuracy, and
/// runtime statistics.
///
///   speculative_lexing [c|java|html|latex] [bytes]
///
//===----------------------------------------------------------------------===//

#include "apps/SpeculativeLexing.h"
#include "lexgen/Languages.h"
#include "support/Timer.h"
#include "workloads/SourceGen.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace specpar;
using namespace specpar::apps;
using namespace specpar::lexgen;

int main(int Argc, char **Argv) {
  Language Lang = Language::Latex;
  if (Argc > 1) {
    std::string A = Argv[1];
    Lang = A == "c"      ? Language::C
           : A == "java" ? Language::Java
           : A == "html" ? Language::Html
                         : Language::Latex;
  }
  size_t Bytes = Argc > 2 ? std::strtoull(Argv[2], nullptr, 10) : 200000;

  std::printf("generating %zu bytes of %s...\n", Bytes, languageName(Lang));
  std::string Text = workloads::generateSource(Lang, 42, Bytes);
  Lexer LX = makeLexer(Lang);
  std::printf("lexer FSM: %u DFA states, %zu rules\n", LX.numDfaStates(),
              LX.rules().size());

  Timer T;
  std::vector<Token> Seq = sequentialLex(LX, Text);
  double SeqSeconds = T.elapsedSeconds();
  std::printf("sequential: %zu tokens in %.3f ms\n\n", Seq.size(),
              SeqSeconds * 1e3);

  const int NumTasks = 8;
  // Hold the default shard's handle and name it explicitly: the run's
  // executor activity (submits, parks, queue pressure) lands in
  // Run.Stats.Exec, and the ownership is visible at the call site.
  std::shared_ptr<rt::SpecExecutor> Shard = rt::SpecExecutor::defaultShard();
  for (int64_t Overlap : {0, 16, 64, 256, 1024}) {
    rt::SpecConfig Cfg = rt::SpecConfig().executor(Shard);
    T.reset();
    LexRun Run = speculativeLex(LX, Text, NumTasks, Overlap, Cfg);
    double Seconds = T.elapsedSeconds();
    double Accuracy = lexPredictionAccuracy(LX, Text, Overlap);
    bool Match = Run.Tokens == Seq;
    std::printf("overlap %5lld: accuracy %5.1f%%  %s  tokens %s  "
                "(%.3f ms)\n"
                "              executor: %s\n",
                static_cast<long long>(Overlap), Accuracy,
                Run.Stats.Spec.str().c_str(), Match ? "match" : "MISMATCH",
                Seconds * 1e3, Run.Stats.Exec.str().c_str());
    if (!Match)
      return 1;
  }
  std::printf("\nall speculative runs produced the sequential token "
              "stream.\n");
  return 0;
}
