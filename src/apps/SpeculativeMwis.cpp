//===- apps/SpeculativeMwis.cpp - Speculative MWIS --------------------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "apps/SpeculativeMwis.h"

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

  std::vector<int64_t> D(Weights.size());
  std::vector<uint8_t> Taken(Weights.size());

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

  // Phase 1: forward d-recurrence over sub-segments.
  rt::SpecResult<int64_t> Fwd = rt::Speculation::iterateChunked<int64_t>(
      0, NumSub, kMwisChunkSize,
      [&](int64_t I, int64_t DIn) {
        // Cooperative cancellation between node sub-segments; a cancelled
        // attempt's output is never accepted.
        if (rt::currentTaskCancelled())
          return DIn;
        return forwardSegment(Weights, Bound(I), Bound(I + 1), DIn, D);
      },
      [&](int64_t I) {
        return I == 0 ? int64_t(0)
                      : predictForward(Weights, Bound(I), Overlap);
      },
      FwdCfg);
  Run.ForwardStats = Fwd.Stats;

  // Phase 2: backward membership emission; sub-iteration I handles the
  // sub-segment counted from the top so the carried bit flows downwards.
  rt::SpecResult<int64_t> Bwd = rt::Speculation::iterateChunked<int64_t>(
      0, NumSub, kMwisChunkSize,
      [&](int64_t I, int64_t NextTaken) {
        if (rt::currentTaskCancelled())
          return NextTaken;
        int64_t Seg = NumSub - 1 - I;
        return static_cast<int64_t>(backwardSegment(
            D, Bound(Seg), Bound(Seg + 1), NextTaken != 0, Taken));
      },
      [&](int64_t I) {
        if (I == 0)
          return int64_t(0); // no node above the top segment
        return static_cast<int64_t>(
            predictBackward(D, Bound(NumSub - I), Overlap, N));
      },
      BwdCfg);
  Run.BackwardStats = Bwd.Stats;

  Run.Weight = weightFromD(D);
  Run.Members = membersFromTaken(Taken);
  Run.Stats = FwdSnap;
  Run.Stats += BwdSnap;
  return Run;
}

double specpar::apps::mwisPredictionAccuracy(
    const std::vector<int64_t> &Weights, int64_t Overlap, int NumPoints) {
  const int64_t N = static_cast<int64_t>(Weights.size());
  if (NumPoints <= 1 || N == 0)
    return 100.0;
  std::vector<int64_t> D(Weights.size());
  forwardSegment(Weights, 0, N, 0, D);
  int Correct = 0, Total = 0;
  for (int I = 1; I < NumPoints; ++I) {
    int64_t Boundary = N * I / NumPoints;
    ++Total;
    if (predictForward(Weights, Boundary, Overlap) == D[Boundary - 1])
      ++Correct;
  }
  return 100.0 * Correct / Total;
}
