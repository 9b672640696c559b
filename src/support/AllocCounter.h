//===- support/AllocCounter.h - Counting global operator new ----*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counts the calls of the global `operator new` and the bytes they ask
/// for, for tests and benches that pin or report a code path's heap
/// traffic. The counting replacements of the global `operator new` and
/// `operator delete` live in AllocCounter.cpp, which only the programs
/// that link the `sp_alloc_counter` object library get; every other
/// program keeps the standard ones.
///
/// Counting is off by default (test frameworks and setup may allocate
/// freely): turn it on around a window and read the difference of two
/// `allocCounts()`. Any thread's allocation counts while it is on.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_SUPPORT_ALLOCCOUNTER_H
#define SPECPAR_SUPPORT_ALLOCCOUNTER_H

#include <cstdint>

namespace specpar {

/// Calls of the global operator new, and the bytes they requested.
struct AllocCounts {
  int64_t Calls = 0;
  int64_t Bytes = 0;

  friend AllocCounts operator-(AllocCounts A, AllocCounts B) {
    return AllocCounts{A.Calls - B.Calls, A.Bytes - B.Bytes};
  }
};

/// Starts (\p On) or stops counting.
void setAllocCounting(bool On);

/// The totals counted so far.
AllocCounts allocCounts();

} // namespace specpar

#endif // SPECPAR_SUPPORT_ALLOCCOUNTER_H
