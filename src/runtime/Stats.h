//===- runtime/Stats.h - Unified run-statistics surface ---------*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unified statistics surface for speculative runs:
///
///  * `SpeculationStats` — the speculation layer's counters (tasks,
///    predictions, mispredictions, re-executions, degraded chunks), at
///    iteration or chunk granularity depending on the entry point;
///  * `ExecutorStats` (runtime/SpecExecutor.h) — the executor substrate's
///    activity counters (submits, peak queue depth, parks);
///  * `stats::Snapshot` — the two paired for one span of work.
///
/// `SpecConfig::statsOut(stats::Snapshot *)` fills one snapshot per run:
/// the `Spec` half on every exit path (success and throws alike), the
/// `Exec` half as a delta of the resolved executor's counters across the
/// run. Snapshots accumulate with `+=`, which is how per-run statistics
/// aggregate into the per-shard and per-tenant totals the serving layer's
/// metrics endpoint renders (src/serving/Metrics.h).
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_RUNTIME_STATS_H
#define SPECPAR_RUNTIME_STATS_H

#include "runtime/SpecExecutor.h"

#include <cstdint>
#include <string>

namespace specpar {
namespace rt {

/// Counters reported by a speculative run. For chunked iteration the
/// counters are at chunk granularity: one task and (after the first chunk)
/// one validated prediction per chunk.
struct SpeculationStats {
  /// Speculative attempts dispatched (initial and chained), whichever
  /// thread ran them. Not executor submits: an iterate wave hands its
  /// attempts to at most one drain task per worker (ExecutorStats).
  int64_t Tasks = 0;
  /// Resolved prediction points: iteration boundaries after the first,
  /// plus every apply() resolution — including eager producer aborts and
  /// throwing predictors, where no guess was available to compare.
  int64_t Predictions = 0;
  /// Prediction points whose predicted value differed from the true one.
  /// Only counted when a guess actually existed; see FailedPredictions.
  int64_t Mispredictions = 0;
  /// Prediction points resolved without a usable guess: the predictor
  /// threw, the equality comparator threw while validating, or an eager
  /// producer abort cancelled the predictor before it produced one.
  /// Disjoint from Mispredictions (nothing was reliably compared).
  int64_t FailedPredictions = 0;
  /// Consumer/iteration re-executions performed by the validator itself.
  int64_t Reexecutions = 0;
  /// Segments executed in-order by the adaptive sequential fallback after
  /// the degrade monitor tripped (SpecConfig::degrade()). Disjoint from
  /// Reexecutions: a degraded segment runs exactly once, non-speculatively.
  /// With the autotuner armed these are *dynamic* segments — the
  /// boundaries the run was actually using when it degraded (FinalChunk
  /// wide, except a possibly-short tail), not fixed `ChunkSize` grid
  /// cells. Each one matches exactly one `SpecEventKind::Degrade` trace
  /// event.
  int64_t DegradedChunks = 0;
  /// Runs whose initial chunk size and/or predictor choice was seeded
  /// from a warm `ProfileStore` site (SpecConfig::profile()).
  int64_t ProfileSeeds = 0;
  /// Online predictor-candidate switches performed when the degrade
  /// monitor tripped but a better candidate was available
  /// (`SpecEventKind::PredictorSwitch`).
  int64_t PredictorSwitches = 0;
  /// Speculative attempts whose body crashed (SIGSEGV/SIGBUS/SIGFPE) or
  /// was force-abandoned by the runaway watchdog, contained by the
  /// signal shield (SpecConfig::shield()) and recovered by discarding
  /// the attempt and re-executing non-speculatively
  /// (`SpecEventKind::CrashContained`).
  int64_t ContainedCrashes = 0;
  /// Speculative attempts the runaway watchdog had to escalate past
  /// their per-attempt budget (SpecConfig::attemptBudget()): cooperative
  /// cancels that the body honoured plus forced abandonments
  /// (`SpecEventKind::RunawayCancel`; forced ones also count into
  /// ContainedCrashes).
  int64_t RunawayCancels = 0;
  /// The chunk size the run ended on — the segmentation actually in use
  /// after any autotune resizes (equal to the configured ChunkSize when
  /// the autotuner is off; 1 for plain iterate; 0 for apply() and runs
  /// that never reached the engine). Unlike every other field this is a
  /// *last-value*, not a monotone total: `+=` keeps the most recent
  /// nonzero value rather than summing.
  int64_t FinalChunk = 0;

  /// Counter-wise accumulation (monotone totals, except FinalChunk which
  /// keeps the most recent nonzero observation).
  SpeculationStats &operator+=(const SpeculationStats &O) {
    Tasks += O.Tasks;
    Predictions += O.Predictions;
    Mispredictions += O.Mispredictions;
    FailedPredictions += O.FailedPredictions;
    Reexecutions += O.Reexecutions;
    DegradedChunks += O.DegradedChunks;
    ProfileSeeds += O.ProfileSeeds;
    PredictorSwitches += O.PredictorSwitches;
    ContainedCrashes += O.ContainedCrashes;
    RunawayCancels += O.RunawayCancels;
    if (O.FinalChunk)
      FinalChunk = O.FinalChunk;
    return *this;
  }

  std::string str() const;
};

namespace stats {

/// One span's worth of statistics: what the speculation layer did and
/// what executor activity it drove. `Exec` is a *delta* (the resolved
/// executor's counters across exactly this span), so snapshots from runs
/// sharing one executor attribute activity without double counting.
struct Snapshot {
  SpeculationStats Spec;
  ExecutorStats Exec;

  /// Accumulates another span into this one (counter-wise; the Exec
  /// high-water mark keeps the max).
  Snapshot &operator+=(const Snapshot &O) {
    Spec += O.Spec;
    Exec += O.Exec;
    return *this;
  }

  std::string str() const { return Spec.str() + " | " + Exec.str(); }
};

} // namespace stats
} // namespace rt
} // namespace specpar

#endif // SPECPAR_RUNTIME_STATS_H
