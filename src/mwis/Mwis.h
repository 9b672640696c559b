//===- mwis/Mwis.h - Max-weight independent set on path graphs --*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Maximum-weight independent set (MWIS) of a path graph — the paper's
/// third benchmark. The standard DP is
///
///   include[i] = w[i] + exclude[i-1]
///   exclude[i] = max(include[i-1], exclude[i-1])
///
/// whose loop-carried state is the pair (include, exclude). Defining
/// d[i] = include[i] - exclude[i] collapses the carried state to a single
/// integer:
///
///   d[i] = w[i] - max(d[i-1], 0),          d[-1] = 0
///
/// and the optimum equals sum_i max(d[i], 0). This is the value the
/// speculative iteration predicts (the paper predicts "whether the pair of
/// nodes immediately preceding the current segment will be part of the
/// MWIS", which is exactly the sign information carried by d).
///
/// Only the sign of d[i] is needed after the forward pass, so phase 1
/// carries the full int64 d but stores one sign byte per node,
/// Positive[i] = d[i] > 0, and adds its segment's positive parts
/// max(d[i], 0) to a partial sum; the partial sums of all segments add up
/// to the optimum.
///
/// The second phase walks the path backwards over the sign bytes,
/// appending the chosen nodes in descending order; its carried state is
/// the boolean "was node i+1 taken", again predicted by an overlap walk.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_MWIS_MWIS_H
#define SPECPAR_MWIS_MWIS_H

#include <cstdint>
#include <vector>

namespace specpar {
namespace mwis {

/// Reference solver: classic include/exclude DP plus backtracking.
/// Returns the optimal weight and fills \p Members (ascending node ids)
/// if non-null. O(n) time, O(n) space.
int64_t solveSequential(const std::vector<int64_t> &Weights,
                        std::vector<int32_t> *Members);

/// Phase-1 segment body: computes d[i] for i in [From, To) given the
/// carried value \p DIn = d[From-1] (0 for the first segment), storing
/// the sign byte `d[i] > 0` into \p Positive[i] and adding max(d[i], 0)
/// to \p PositiveSum. Returns d[To-1] (\p DIn for an empty segment).
///
/// Writes only the slots [From, To) of Positive — the disjoint-slot write
/// pattern that rollback freedom condition (e) licenses.
int64_t forwardSegment(const std::vector<int64_t> &Weights, int64_t From,
                       int64_t To, int64_t DIn, uint8_t *Positive,
                       int64_t &PositiveSum);

/// Phase-1 overlap predictor: predicts d[Boundary-1] by running the d
/// recurrence over the \p Overlap nodes before \p Boundary from d = 0.
int64_t predictForward(const std::vector<int64_t> &Weights, int64_t Boundary,
                       int64_t Overlap);

/// Phase-2 segment body: walks nodes [From, To) *backwards* (To > From)
/// deciding membership from the sign bytes. \p NextTaken says whether
/// node To was taken (false for the last segment, i.e. To == n). Appends
/// the taken nodes of the range to \p Members in descending order.
/// Returns whether node From was taken (the carried value for the segment
/// below).
bool backwardSegment(const uint8_t *Positive, int64_t From, int64_t To,
                     bool NextTaken, std::vector<int32_t> &Members);

/// Phase-2 overlap predictor: predicts whether node \p Boundary is taken
/// by walking backwards over the \p Overlap nodes above it, assuming the
/// node just past the window is not taken.
bool predictBackward(const uint8_t *Positive, int64_t Boundary,
                     int64_t Overlap, int64_t NumNodes);

/// Full sequential two-phase solver built from the segment primitives
/// (single segment each). Used to cross-check the segmented formulation
/// against solveSequential.
int64_t solveTwoPhase(const std::vector<int64_t> &Weights,
                      std::vector<int32_t> *Members);

} // namespace mwis
} // namespace specpar

#endif // SPECPAR_MWIS_MWIS_H
