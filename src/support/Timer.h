//===- support/Timer.h - Wall-clock timing + memory probes ------*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wall-clock stopwatch, deadline arithmetic and a /proc-based
/// peak-memory probe. The stopwatch and the probe stand in for the
/// paper's ptime / DateTime / PeakVirtualMemorySize64 measurements.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_SUPPORT_TIMER_H
#define SPECPAR_SUPPORT_TIMER_H

#include <chrono>
#include <cstdint>

namespace specpar {

/// A simple wall-clock stopwatch.
class Timer {
public:
  Timer() : Start(Clock::now()) {}

  /// Restarts the stopwatch.
  void reset() { Start = Clock::now(); }

  /// Elapsed seconds since construction or the last reset().
  double elapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }

  /// Elapsed milliseconds since construction or the last reset().
  double elapsedMillis() const { return elapsedSeconds() * 1e3; }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start;
};

/// The time point \p Budget after \p Now, saturated at time_point::max()
/// (no deadline) where the sum would overflow the clock, as it does for
/// a "never" budget such as nanoseconds::max().
template <typename Rep, typename Period>
std::chrono::steady_clock::time_point
deadlineAfter(std::chrono::steady_clock::time_point Now,
              std::chrono::duration<Rep, Period> Budget) {
  using Clock = std::chrono::steady_clock;
  // Compared in Budget's own unit: converting Budget to the clock's
  // finer one could overflow by itself.
  const auto Room = std::chrono::duration_cast<decltype(Budget)>(
      Clock::time_point::max() - Now);
  return Budget < Room ? Now + Budget : Clock::time_point::max();
}

/// Returns the process peak resident set size (VmHWM) in kilobytes, or 0 if
/// it cannot be determined (non-Linux platforms).
uint64_t peakMemoryKB();

/// Returns the current resident set size (VmRSS) in kilobytes, or 0 if it
/// cannot be determined.
uint64_t currentMemoryKB();

} // namespace specpar

#endif // SPECPAR_SUPPORT_TIMER_H
