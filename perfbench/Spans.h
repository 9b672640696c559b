//===- perfbench/Spans.h - In-memory spans around layer calls ---*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own tracing: a span (name, start, end, parent, op id) is
/// recorded around every call the harness makes into a specpar layer. Spans
/// stay in memory and are written out as JSON lines when the run ends. A
/// span's self time is its duration minus the part of it that its children
/// cover; a layer's self time is the sum over spans whose name starts with
/// "<layer>.".
///
/// A disabled log records nothing and every call is a single branch, so the
/// untraced runs that give the end-to-end metrics pay (almost) nothing.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_PERFBENCH_SPANS_H
#define SPECPAR_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the first call in this process (one time base for every
/// span, thread and phase).
int64_t nowNs();

struct Span {
  const char *Name = ""; ///< Static string: "<layer>.<what>".
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int32_t Parent = -1; ///< Index into the log, -1 for a root.
  uint64_t Op = 0;     ///< Op id shared by every span of one op.
};

class SpanLog {
public:
  explicit SpanLog(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// Records a finished span; returns its index (-1 when disabled).
  int32_t add(const char *Name, int64_t StartNs, int64_t EndNs,
              int32_t Parent, uint64_t Op);

  /// Opens a span ending at close(); returns its index (-1 when disabled).
  int32_t open(const char *Name, int32_t Parent, uint64_t Op);
  void close(int32_t Idx);

  /// Self time per layer (name prefix before the first '.') summed over
  /// every span whose root span is named \p RootName, in nanoseconds, plus
  /// the number of such roots. The root's own self time is filed under
  /// the root's layer.
  std::map<std::string, int64_t> layerSelfNs(const std::string &RootName,
                                             uint64_t *NumRoots) const;

  /// Total duration of spans named exactly \p Name, in nanoseconds.
  int64_t totalNs(const std::string &Name) const;

  /// Writes one JSON object per line:
  /// {"id":..,"name":..,"op":..,"parent":..,"start_ns":..,"end_ns":..}.
  bool write(const std::string &Path) const;

private:
  const bool Enabled;
  mutable std::mutex M;
  std::vector<Span> Spans;
};

/// Opens a span in the constructor and closes it in the destructor.
class SpanScope {
public:
  SpanScope(SpanLog &Log, const char *Name, int32_t Parent, uint64_t Op)
      : Log(Log), Idx(Log.open(Name, Parent, Op)) {}
  ~SpanScope() { Log.close(Idx); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

  int32_t index() const { return Idx; }

private:
  SpanLog &Log;
  const int32_t Idx;
};

} // namespace perfbench

#endif // SPECPAR_PERFBENCH_SPANS_H
