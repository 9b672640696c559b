//===- apps/SpeculativeHuffman.h - Speculative Huffman decoding -*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Segmented speculative Huffman decoding (paper Section 6): the bit
/// stream is split into NumTasks segments; the loop-carried value is the
/// bit position of the first codeword of the next segment, predicted by
/// overlap decoding (Huffman self-synchronization).
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_APPS_SPECULATIVEHUFFMAN_H
#define SPECPAR_APPS_SPECULATIVEHUFFMAN_H

#include "huffman/Huffman.h"
#include "runtime/Speculation.h"

#include <vector>

namespace specpar {
namespace analysis {
struct IterateSummary; // analysis/Summaries.h
} // namespace analysis
namespace apps {

/// Output of a (speculative) decode run.
struct HuffmanRun {
  std::vector<uint8_t> Decoded;
  /// The run's unified statistics: `Stats.Spec` is the speculation
  /// counters, `Stats.Exec` the executor activity across exactly this
  /// run (a delta of the resolved executor's counters).
  rt::stats::Snapshot Stats;
};

/// Decodes the whole stream speculatively with \p NumTasks chunked
/// speculation tasks (each covering `kHuffChunkSize` bit sub-segments,
/// decoded sequentially inside one attempt) and an \p OverlapBits
/// predictor window.
HuffmanRun speculativeDecode(const huffman::Decoder &D,
                             const huffman::BitReader &In, int NumTasks,
                             int64_t OverlapBits,
                             const rt::SpecConfig &Cfg = rt::SpecConfig());

/// Bit sub-segments per speculative decoding chunk — the *initial*
/// granularity. With `SpecConfig::autotune()` armed the runtime re-sizes
/// chunks between scheduling waves; without it this is the fixed grid.
inline constexpr int64_t kHuffChunkSize = 8;

/// The declared effects of speculativeDecode's iterate site, for
/// analysis::checkIterateSummaries. Built only on request: a run never
/// builds or checks them.
analysis::IterateSummary decodeSummary();

/// Prediction accuracy of the sync-point predictor at \p NumPoints
/// boundaries, in percent (Figure 7 methodology).
double huffmanPredictionAccuracy(const huffman::Decoder &D,
                                 const huffman::BitReader &In,
                                 int64_t OverlapBits, int NumPoints = 32);

} // namespace apps
} // namespace specpar

#endif // SPECPAR_APPS_SPECULATIVEHUFFMAN_H
