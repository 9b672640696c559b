//===- apps/SpeculativeLexing.cpp - The paper's lexing benchmark -----------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "apps/SpeculativeLexing.h"

#include "analysis/Summaries.h"
#include "apps/ChunkParts.h"

using namespace specpar;
using namespace specpar::apps;
using namespace specpar::lexgen;

std::vector<Token> specpar::apps::sequentialLex(const Lexer &L,
                                                std::string_view Text) {
  return L.lexAll(Text);
}

LexRun specpar::apps::speculativeLex(const Lexer &L, std::string_view Text,
                                     int NumTasks, int64_t Overlap,
                                     const rt::SpecConfig &Cfg) {
  checkLexInputSize(Text);
  LexRun Run;
  const int64_t N = static_cast<int64_t>(Text.size());
  if (NumTasks <= 0 || N == 0) {
    Run.Tokens = sequentialLex(L, Text);
    return Run;
  }
  // Iterate at sub-fragment granularity and speculate per chunk of
  // kLexChunkSize sub-fragments: one prediction per chunk (= per task, at
  // the same boundaries N*t/NumTasks a task-per-segment split would use,
  // since floor(N*(t*K)/(NumTasks*K)) == floor(N*t/NumTasks)), with the
  // chunk's sub-ranges lexed sequentially inside the attempt. lexRange
  // composes (lexRange(a,b) then lexRange(b,c) == lexRange(a,c)), so the
  // output is identical to the per-segment formulation.
  const int64_t NumSub = static_cast<int64_t>(NumTasks) * kLexChunkSize;
  auto Bound = [&](int64_t I) { return N * I / NumSub; };

  // The snapshot sink fills Run.Stats.Spec and attributes the resolved
  // executor's activity delta to Run.Stats.Exec.
  rt::SpecConfig RunCfg = Cfg;
  RunCfg.statsOut(&Run.Stats);

  ChunkParts<Token> Parts;
  rt::SpecResult<LexState> R =
      rt::Speculation::iterateChunkedLocal<LexState, std::vector<Token>>(
          0, NumSub, kLexChunkSize,
          /*Init=*/[] { return std::vector<Token>(); },
          /*Body=*/
          [&](int64_t I, std::vector<Token> &Local, LexState In) {
            // Cooperative cancellation between sub-fragments: an attempt
            // that observed cancellation is never accepted, so bailing
            // with the unprocessed state is safe and stops wasted work.
            if (rt::currentTaskCancelled())
              return In;
            return L.lexRange(Text, Bound(I), Bound(I + 1), In, &Local);
          },
          /*Predictor=*/
          [&](int64_t I) {
            if (I == 0)
              return L.initialState(0);
            return L.predictStateAt(Text, Bound(I), Overlap);
          },
          /*Finalize=*/
          [&Parts](int64_t, std::vector<Token> &Local) {
            Parts.take(std::move(Local));
          },
          RunCfg);

  // The trailing in-flight token of the final segment is the last part.
  std::vector<Token> Tail;
  L.finishLex(Text, R.Value, &Tail);
  Parts.take(std::move(Tail));
  Run.Tokens = Parts.concat();
  return Run;
}

analysis::IterateSummary specpar::apps::lexSummary() {
  // Sub-fragment i reads the text and the lexer's tables, neither written
  // during a run, and appends its tokens to the chunk-local list U. Init
  // gives every attempt a fresh U, so sub-fragment i's part of it is a
  // slot U[i] that no other attempt sees, written on every path; the
  // finalizer publishes it non-speculatively. The overlap predictor
  // reads only the text and the tables.
  analysis::IterateSummary S;
  analysis::AbsNode *Text = S.Regions.array("text");
  analysis::AbsNode *Tables = S.Regions.array("lexer tables");
  analysis::AbsNode *U = S.Regions.array("U");
  for (analysis::Effects *E : {&S.Body, &S.Predictor}) {
    E->read(Text, analysis::SymInterval::full());
    E->read(Tables, analysis::SymInterval::full());
  }
  S.Body.write(U, S.Regions.slot(1, 0), /*Certain=*/true);
  return S;
}

double specpar::apps::lexPredictionAccuracy(const Lexer &L,
                                            std::string_view Text,
                                            int64_t Overlap, int NumPoints) {
  const int64_t N = static_cast<int64_t>(Text.size());
  if (NumPoints <= 1 || N == 0)
    return 100.0;
  int Correct = 0, Total = 0;
  LexState Truth = L.initialState(0);
  int64_t Done = 0;
  for (int I = 1; I < NumPoints; ++I) {
    int64_t Boundary = N * I / NumPoints;
    Truth = L.lexRange(Text, Done, Boundary, Truth, nullptr);
    Done = Boundary;
    LexState Pred = L.predictStateAt(Text, Boundary, Overlap);
    ++Total;
    if (Pred == Truth)
      ++Correct;
  }
  return 100.0 * Correct / Total;
}
