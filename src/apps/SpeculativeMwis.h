//===- apps/SpeculativeMwis.h - Speculative MWIS ---------------*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's two-phase speculative MWIS benchmark on the specpar
/// runtime: a forward DP pass carrying the single-integer d value and a
/// backward member-emission pass carrying the "next node taken" bit, both
/// over NumTasks segments with overlap predictors (see mwis/Mwis.h).
/// Both phases use the initializer/finalizer iteration form: accepted
/// phase-1 chunks publish their partial weights, accepted phase-2 chunks
/// their member lists, so no serial pass over the nodes follows.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_APPS_SPECULATIVEMWIS_H
#define SPECPAR_APPS_SPECULATIVEMWIS_H

#include "mwis/Mwis.h"
#include "runtime/Speculation.h"

#include <vector>

namespace specpar {
namespace analysis {
struct IterateSummary; // analysis/Summaries.h
} // namespace analysis
namespace apps {

/// Output of a (speculative) MWIS run.
struct MwisRun {
  int64_t Weight = 0;
  std::vector<int32_t> Members;
  /// Per-phase speculation counters.
  rt::SpeculationStats ForwardStats;
  rt::SpeculationStats BackwardStats;
  /// The whole two-phase run's unified statistics: `Stats.Spec` is the
  /// two phases' counters summed, `Stats.Exec` the executor activity
  /// across exactly this run (a delta of the resolved executor's
  /// counters).
  rt::stats::Snapshot Stats;
};

/// Solves MWIS speculatively with \p NumTasks chunked speculation tasks
/// per phase (each chunk covers `kMwisChunkSize` node sub-segments,
/// processed sequentially inside one attempt) and an \p Overlap-node
/// predictor window.
MwisRun speculativeMwis(const std::vector<int64_t> &Weights, int NumTasks,
                        int64_t Overlap,
                        const rt::SpecConfig &Cfg = rt::SpecConfig());

/// Node sub-segments per speculative MWIS chunk — the *initial*
/// granularity. With `SpecConfig::autotune()` armed the runtime re-sizes
/// chunks between scheduling waves; without it this is the fixed grid.
inline constexpr int64_t kMwisChunkSize = 8;

/// The declared effects of speculativeMwis's two iterate sites (phase 1,
/// the forward pass, and phase 2, the backward pass), for
/// analysis::checkIterateSummaries. Built only on request: a run never
/// builds or checks them.
analysis::IterateSummary mwisForwardSummary();
analysis::IterateSummary mwisBackwardSummary();

/// Phase-1 prediction accuracy at \p NumPoints boundaries, in percent.
double mwisPredictionAccuracy(const std::vector<int64_t> &Weights,
                              int64_t Overlap, int NumPoints = 32);

} // namespace apps
} // namespace specpar

#endif // SPECPAR_APPS_SPECULATIVEMWIS_H
