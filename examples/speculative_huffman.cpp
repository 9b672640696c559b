//===- examples/speculative_huffman.cpp - Segmented Huffman decode --------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Speculative Huffman decoding over the paper's three dataset flavours:
/// encode a generated dataset, split the bit stream into segments, and
/// decode the segments in parallel with overlap-predicted
/// synchronization points.
///
///   speculative_huffman [media|rawdata|text] [bytes]
///
//===----------------------------------------------------------------------===//

#include "apps/SpeculativeHuffman.h"
#include "support/Timer.h"
#include "workloads/Datasets.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace specpar;
using namespace specpar::apps;
using namespace specpar::huffman;
using namespace specpar::workloads;

int main(int Argc, char **Argv) {
  HuffmanFlavour Flavour = HuffmanFlavour::Text;
  if (Argc > 1) {
    std::string A = Argv[1];
    Flavour = A == "media"     ? HuffmanFlavour::Media
              : A == "rawdata" ? HuffmanFlavour::RawData
                               : HuffmanFlavour::Text;
  }
  size_t Bytes = Argc > 2 ? std::strtoull(Argv[2], nullptr, 10) : 500000;

  std::printf("generating %zu bytes of %s data...\n", Bytes,
              huffmanFlavourName(Flavour));
  std::vector<uint8_t> Data = generateHuffmanData(Flavour, 7, Bytes);
  Encoded E = encode(Data);
  std::printf("encoded: %lld bits (%.2f bits/symbol, max code %u bits)\n",
              static_cast<long long>(E.NumBits),
              double(E.NumBits) / double(Data.size()),
              E.Code.maxCodeLength());

  Decoder D(E.Code);
  BitReader In(E.Bytes, E.NumBits);

  Timer T;
  std::vector<uint8_t> Seq = D.decodeAll(In, E.NumSymbols);
  std::printf("sequential decode: %.3f ms, round-trip %s\n\n",
              T.elapsedMillis(), Seq == Data ? "ok" : "BROKEN");

  const int NumTasks = 8;
  // Name the default shard explicitly: the run's executor activity
  // (submits, parks, queue pressure) lands in Run.Stats.Exec.
  std::shared_ptr<rt::SpecExecutor> Shard = rt::SpecExecutor::defaultShard();
  for (int64_t OverlapBytes : {2, 4, 8, 16, 64, 512}) {
    rt::SpecConfig Cfg = rt::SpecConfig().executor(Shard);
    T.reset();
    HuffmanRun Run = speculativeDecode(D, In, NumTasks, OverlapBytes * 8,
                                       Cfg);
    double Seconds = T.elapsedSeconds();
    double Accuracy = huffmanPredictionAccuracy(D, In, OverlapBytes * 8);
    bool Match = Run.Decoded == Data;
    std::printf("overlap %4lld B: accuracy %5.1f%%  %s  output %s  "
                "(%.3f ms)\n"
                "              executor: %s\n",
                static_cast<long long>(OverlapBytes), Accuracy,
                Run.Stats.Spec.str().c_str(), Match ? "match" : "MISMATCH",
                Seconds * 1e3, Run.Stats.Exec.str().c_str());
    if (!Match)
      return 1;
  }
  std::printf("\nall speculative decodes reproduced the input exactly.\n");
  return 0;
}
