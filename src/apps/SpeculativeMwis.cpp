//===- apps/SpeculativeMwis.cpp - Speculative MWIS --------------------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "apps/SpeculativeMwis.h"

#include "analysis/Summaries.h"
#include "apps/ChunkParts.h"

#include <memory>

using namespace specpar;
using namespace specpar::apps;
using namespace specpar::mwis;

MwisRun specpar::apps::speculativeMwis(const std::vector<int64_t> &Weights,
                                       int NumTasks, int64_t Overlap,
                                       const rt::SpecConfig &Cfg) {
  MwisRun Run;
  const int64_t N = static_cast<int64_t>(Weights.size());
  if (N == 0)
    return Run;
  if (NumTasks <= 0)
    NumTasks = 1;

  // One sign byte per node, Positive[i] = d[i] > 0, written by phase 1
  // and read by phase 2. It is not zero-filled: phase 1 returns normally
  // only once an accepted attempt (or the validator's re-execution) has
  // run every sub-segment, and each sub-segment writes all its slots; a
  // deadline throws SpecTimeoutError out of phase 1 before phase 2 reads
  // a byte. (If this run is nested in an attempt that gets cancelled, a
  // poll below can leave slots unwritten, but that attempt's output is
  // refused, and backwardSegment stays in bounds whatever the bytes hold.)
  auto Positive =
      std::make_unique_for_overwrite<uint8_t[]>(static_cast<size_t>(N));

  // Sub-segment granularity: each chunk = one task's worth of
  // kMwisChunkSize node sub-segments processed sequentially inside one
  // speculative attempt. Chunk boundaries coincide with the N*t/NumTasks
  // node boundaries of a task-per-segment split, and both segment
  // functions compose over adjacent (possibly empty) ranges, so results
  // are identical.
  const int64_t NumSub = static_cast<int64_t>(NumTasks) * kMwisChunkSize;
  auto Bound = [&](int64_t I) { return N * I / NumSub; };

  // One snapshot per phase; their sum (counters plus per-phase executor
  // deltas) is the run's unified statistics.
  rt::stats::Snapshot FwdSnap, BwdSnap;
  rt::SpecConfig FwdCfg = Cfg;
  FwdCfg.statsOut(&FwdSnap);
  rt::SpecConfig BwdCfg = Cfg;
  BwdCfg.statsOut(&BwdSnap);

  // Phase 1: forward d-recurrence over sub-segments. A chunk's local is
  // its positive-part sum; the accepted chunks' sums add up to the
  // optimum. Re-executions overwrite their own sign slots, and a rejected
  // attempt's sum is discarded with it.
  rt::SpecResult<int64_t> Fwd =
      rt::Speculation::iterateChunkedLocal<int64_t, int64_t>(
          0, NumSub, kMwisChunkSize,
          /*Init=*/[] { return int64_t(0); },
          /*Body=*/
          [&](int64_t I, int64_t &Sum, int64_t DIn) {
            // Cooperative cancellation between node sub-segments; a
            // cancelled attempt's output is never accepted.
            if (rt::currentTaskCancelled())
              return DIn;
            return forwardSegment(Weights, Bound(I), Bound(I + 1), DIn,
                                  Positive.get(), Sum);
          },
          /*Predictor=*/
          [&](int64_t I) {
            return I == 0 ? int64_t(0)
                          : predictForward(Weights, Bound(I), Overlap);
          },
          /*Finalize=*/[&Run](int64_t, int64_t &Sum) { Run.Weight += Sum; },
          FwdCfg);
  Run.ForwardStats = Fwd.Stats;

  // Phase 2: backward membership emission; sub-iteration I handles the
  // sub-segment counted from the top so the carried bit flows downwards.
  // A chunk's local is its members in descending order, so the accepted
  // chunks, in the order they are finalized, list the set top-down.
  ChunkParts<int32_t> Chunks;
  rt::SpecResult<int64_t> Bwd =
      rt::Speculation::iterateChunkedLocal<int64_t, std::vector<int32_t>>(
          0, NumSub, kMwisChunkSize,
          /*Init=*/[] { return std::vector<int32_t>(); },
          /*Body=*/
          [&](int64_t I, std::vector<int32_t> &Local, int64_t NextTaken) {
            if (rt::currentTaskCancelled())
              return NextTaken;
            int64_t Seg = NumSub - 1 - I;
            return static_cast<int64_t>(
                backwardSegment(Positive.get(), Bound(Seg), Bound(Seg + 1),
                                NextTaken != 0, Local));
          },
          /*Predictor=*/
          [&](int64_t I) {
            if (I == 0)
              return int64_t(0); // no node above the top segment
            return static_cast<int64_t>(
                predictBackward(Positive.get(), Bound(NumSub - I), Overlap,
                                N));
          },
          /*Finalize=*/
          [&Chunks](int64_t, std::vector<int32_t> &Local) {
            Chunks.take(std::move(Local));
          },
          BwdCfg);
  Run.BackwardStats = Bwd.Stats;

  // The one serial pass over the members: the chunks in reverse order,
  // each reversed, are the set in ascending node order.
  Run.Members = Chunks.concatReversed();

  Run.Stats = FwdSnap;
  Run.Stats += BwdSnap;
  return Run;
}

analysis::IterateSummary specpar::apps::mwisForwardSummary() {
  // Sub-segment i reads the weights, never written during a run, writes
  // the sign bytes of its own nodes on every path, and adds to the
  // chunk-local sum U (fresh per attempt, so its part is a slot U[i];
  // the finalizer adds U to Run.Weight). Its bytes are
  // Positive[Bound(i) .. Bound(i+1) - 1], and Bound(i) = N*i/NumSub is
  // not affine in i; but the sub-segments partition the nodes, so
  // Positive is declared with one slot per sub-segment, and slot(i) is
  // exact for every N. The predictor reads only the weights.
  analysis::IterateSummary S;
  analysis::AbsNode *Weights = S.Regions.array("weights");
  analysis::AbsNode *Positive = S.Regions.array("Positive");
  analysis::AbsNode *U = S.Regions.array("U");
  S.Body.read(Weights, analysis::SymInterval::full());
  S.Body.write(Positive, S.Regions.slot(1, 0), /*Certain=*/true);
  S.Body.write(U, S.Regions.slot(1, 0), /*Certain=*/true);
  S.Predictor.read(Weights, analysis::SymInterval::full());
  return S;
}

analysis::IterateSummary specpar::apps::mwisBackwardSummary() {
  // Phase 2 reads the sign bytes phase 1 wrote, which nothing writes
  // once phase 1 has returned, and collects its members in the
  // chunk-local list U: a slot U[i] per sub-segment, published by the
  // finalizer. The predictor reads only the sign bytes.
  analysis::IterateSummary S;
  analysis::AbsNode *Positive = S.Regions.array("Positive");
  analysis::AbsNode *U = S.Regions.array("U");
  S.Body.read(Positive, analysis::SymInterval::full());
  S.Body.write(U, S.Regions.slot(1, 0), /*Certain=*/true);
  S.Predictor.read(Positive, analysis::SymInterval::full());
  return S;
}

double specpar::apps::mwisPredictionAccuracy(
    const std::vector<int64_t> &Weights, int64_t Overlap, int NumPoints) {
  const int64_t N = static_cast<int64_t>(Weights.size());
  if (NumPoints <= 1 || N == 0)
    return 100.0;
  // The true d at each boundary: chain the forward pass from one
  // boundary to the next. The sign bytes and sum are not needed.
  auto Positive =
      std::make_unique_for_overwrite<uint8_t[]>(static_cast<size_t>(N));
  int64_t Truth = 0, Done = 0, Sum = 0;
  int Correct = 0, Total = 0;
  for (int I = 1; I < NumPoints; ++I) {
    int64_t Boundary = N * I / NumPoints;
    Truth =
        forwardSegment(Weights, Done, Boundary, Truth, Positive.get(), Sum);
    Done = Boundary;
    ++Total;
    if (predictForward(Weights, Boundary, Overlap) == Truth)
      ++Correct;
  }
  return 100.0 * Correct / Total;
}
