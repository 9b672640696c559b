//===- examples/speculative_mwis.cpp - Two-phase speculative MWIS ---------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The paper's dynamic-programming benchmark: maximum-weight independent
/// set of a path graph, in two speculative phases (forward d-recurrence,
/// backward member emission).
///
///   speculative_mwis [maxWeight] [nodes]
///
//===----------------------------------------------------------------------===//

#include "apps/SpeculativeMwis.h"
#include "support/Timer.h"
#include "workloads/Datasets.h"

#include <cstdio>
#include <cstdlib>

using namespace specpar;
using namespace specpar::apps;
using namespace specpar::workloads;

int main(int Argc, char **Argv) {
  int64_t MaxW = Argc > 1 ? std::strtoll(Argv[1], nullptr, 10) : 50;
  size_t Nodes = Argc > 2 ? std::strtoull(Argv[2], nullptr, 10) : 2000000;

  std::printf("path graph: %zu nodes, weights uniform in [0, %lld] "
              "(the paper's uni-%lld dataset)\n",
              Nodes, static_cast<long long>(MaxW),
              static_cast<long long>(MaxW));
  std::vector<int64_t> W = generatePathGraph(3, Nodes, MaxW);

  Timer T;
  std::vector<int32_t> SeqMembers;
  int64_t SeqWeight = mwis::solveSequential(W, &SeqMembers);
  std::printf("sequential DP: weight %lld, %zu members, %.3f ms\n\n",
              static_cast<long long>(SeqWeight), SeqMembers.size(),
              T.elapsedMillis());

  const int NumTasks = 8;
  // Name the default shard explicitly: the run's executor activity
  // (submits, parks, queue pressure) lands in Run.Stats.Exec.
  std::shared_ptr<rt::SpecExecutor> Shard = rt::SpecExecutor::defaultShard();
  for (int64_t Overlap : {0, 8, 16, 32, 128}) {
    rt::SpecConfig Cfg = rt::SpecConfig().executor(Shard);
    T.reset();
    MwisRun Run = speculativeMwis(W, NumTasks, Overlap, Cfg);
    double Seconds = T.elapsedSeconds();
    double Accuracy = mwisPredictionAccuracy(W, Overlap);
    bool Match = Run.Weight == SeqWeight && Run.Members == SeqMembers;
    std::printf("overlap %4lld: accuracy %5.1f%%  fwd[%s]  bwd[%s]  %s  "
                "(%.3f ms)\n"
                "              executor: %s\n",
                static_cast<long long>(Overlap), Accuracy,
                Run.ForwardStats.str().c_str(),
                Run.BackwardStats.str().c_str(),
                Match ? "match" : "MISMATCH", Seconds * 1e3,
                Run.Stats.Exec.str().c_str());
    if (!Match)
      return 1;
  }
  std::printf("\nall speculative runs found the optimal independent "
              "set.\n");
  return 0;
}
