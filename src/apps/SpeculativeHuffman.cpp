//===- apps/SpeculativeHuffman.cpp - Speculative Huffman decoding ----------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "apps/SpeculativeHuffman.h"

#include "analysis/Summaries.h"
#include "apps/ChunkParts.h"

using namespace specpar;
using namespace specpar::apps;
using namespace specpar::huffman;

HuffmanRun specpar::apps::speculativeDecode(const Decoder &D,
                                            const BitReader &In,
                                            int NumTasks, int64_t OverlapBits,
                                            const rt::SpecConfig &Cfg) {
  HuffmanRun Run;
  const int64_t NumBits = In.numBits();
  if (NumTasks <= 0 || NumBits == 0)
    return Run;

  // Sub-segment granularity: one speculative chunk per task, kHuffChunkSize
  // bit sub-segments decoded sequentially inside it. Chunk boundaries land
  // on the same NumBits*t/NumTasks bit positions as a task-per-segment
  // split, and decodeRange chains (a decode that overruns a sub-boundary
  // resumes past it; an empty range decodes nothing), so the output is
  // identical.
  const int64_t NumSub = static_cast<int64_t>(NumTasks) * kHuffChunkSize;
  auto Bound = [&](int64_t I) { return NumBits * I / NumSub; };

  // The snapshot sink fills Run.Stats.Spec and attributes the resolved
  // executor's activity delta to Run.Stats.Exec.
  rt::SpecConfig RunCfg = Cfg;
  RunCfg.statsOut(&Run.Stats);

  ChunkParts<uint8_t> Parts;
  rt::Speculation::iterateChunkedLocal<int64_t, std::vector<uint8_t>>(
          0, NumSub, kHuffChunkSize,
          /*Init=*/[] { return std::vector<uint8_t>(); },
          /*Body=*/
          [&](int64_t I, std::vector<uint8_t> &Local, int64_t StartBit) {
            if (StartBit < 0)
              return int64_t(-1); // garbage input from a desynchronized chain
            // Cooperative cancellation between bit sub-segments; a
            // cancelled attempt's output is never accepted.
            if (rt::currentTaskCancelled())
              return StartBit;
            int64_t SegEnd = I + 1 == NumSub ? NumBits : Bound(I + 1);
            return D.decodeRange(In, StartBit, SegEnd, &Local);
          },
          /*Predictor=*/
          [&](int64_t I) {
            if (I == 0)
              return int64_t(0);
            return D.predictSyncPoint(In, Bound(I), OverlapBits);
          },
          /*Finalize=*/
          [&Parts](int64_t, std::vector<uint8_t> &Local) {
            Parts.take(std::move(Local));
          },
          RunCfg);
  Run.Decoded = Parts.concat();

  return Run;
}

analysis::IterateSummary specpar::apps::decodeSummary() {
  // Bit sub-segment i reads the stream and the decoder's tables, neither
  // written during a run, and appends its bytes to the chunk-local
  // buffer U: a fresh one per attempt (Init), so sub-segment i's part is
  // a slot U[i] written on every path, published by the finalizer. The
  // sync-point predictor reads only the stream and the tables.
  analysis::IterateSummary S;
  analysis::AbsNode *Bits = S.Regions.array("bits");
  analysis::AbsNode *Tables = S.Regions.array("decoder tables");
  analysis::AbsNode *U = S.Regions.array("U");
  for (analysis::Effects *E : {&S.Body, &S.Predictor}) {
    E->read(Bits, analysis::SymInterval::full());
    E->read(Tables, analysis::SymInterval::full());
  }
  S.Body.write(U, S.Regions.slot(1, 0), /*Certain=*/true);
  return S;
}

double specpar::apps::huffmanPredictionAccuracy(const Decoder &D,
                                                const BitReader &In,
                                                int64_t OverlapBits,
                                                int NumPoints) {
  const int64_t NumBits = In.numBits();
  if (NumPoints <= 1 || NumBits == 0)
    return 100.0;
  int Correct = 0, Total = 0;
  int64_t Truth = 0;
  for (int I = 1; I < NumPoints; ++I) {
    int64_t Boundary = NumBits * I / NumPoints;
    // The true sync point: continue the sequential decode to Boundary.
    if (Truth < Boundary)
      Truth = D.decodeRange(In, Truth, Boundary, nullptr);
    ++Total;
    if (D.predictSyncPoint(In, Boundary, OverlapBits) == Truth)
      ++Correct;
  }
  return 100.0 * Correct / Total;
}
