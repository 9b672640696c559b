//===- apps/SpeculativeLexing.h - The paper's lexing benchmark --*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The speculative parallel lexer of the paper's Figure 4, built on the
/// specpar runtime: the input is split into NumTasks segments, each lexed
/// speculatively from an overlap-predicted LexState; per-task token
/// collections are published by validated finalizers, exactly the
/// initializer/finalizer Iterate variant of the paper's API. Each
/// finalizer moves its task's token buffer aside (apps/ChunkParts.h), and
/// after the run one exact-size concatenation of the 12-byte tokens
/// builds `LexRun::Tokens`.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_APPS_SPECULATIVELEXING_H
#define SPECPAR_APPS_SPECULATIVELEXING_H

#include "lexgen/Lexer.h"
#include "runtime/Speculation.h"

#include <string_view>
#include <vector>

namespace specpar {
namespace analysis {
struct IterateSummary; // analysis/Summaries.h
} // namespace analysis
namespace apps {

/// Output of a (speculative) lexing run.
struct LexRun {
  std::vector<lexgen::Token> Tokens;
  /// The run's unified statistics: `Stats.Spec` is the speculation
  /// counters, `Stats.Exec` the executor activity across exactly this
  /// run (a delta of the resolved executor's counters).
  rt::stats::Snapshot Stats;
};

/// Lexes \p Text sequentially (the baseline).
std::vector<lexgen::Token> sequentialLex(const lexgen::Lexer &L,
                                         std::string_view Text);

/// Lexes \p Text speculatively with \p NumTasks chunked speculation tasks
/// and an \p Overlap-byte predictor. Each task covers a chunk of
/// sub-fragments (`kLexChunkSize` per task) iterated sequentially inside
/// one speculative attempt — segment-granularity speculation on the
/// executor \p Cfg resolves to (the process's default shard unless the
/// caller names one with `SpecConfig::executor()`). Throws
/// std::length_error, before lexing, when \p Text is longer than
/// lexgen::kMaxLexBytes.
LexRun speculativeLex(const lexgen::Lexer &L, std::string_view Text,
                      int NumTasks, int64_t Overlap,
                      const rt::SpecConfig &Cfg = rt::SpecConfig());

/// Sub-fragments per speculative lexing chunk — the *initial*
/// granularity. With `SpecConfig::autotune()` armed the runtime re-sizes
/// chunks between scheduling waves; without it this is the fixed grid.
inline constexpr int64_t kLexChunkSize = 8;

/// The declared effects of speculativeLex's iterate site, for
/// analysis::checkIterateSummaries. Built only on request: a run never
/// builds or checks them.
analysis::IterateSummary lexSummary();

/// Prediction accuracy of the overlap predictor at \p NumPoints equally
/// spaced boundaries (the paper's Figure 7 methodology), in percent.
double lexPredictionAccuracy(const lexgen::Lexer &L, std::string_view Text,
                             int64_t Overlap, int NumPoints = 32);

} // namespace apps
} // namespace specpar

#endif // SPECPAR_APPS_SPECULATIVELEXING_H
