//===- runtime/FlightRecorder.h - Always-on post-mortem tracing -*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flight recorder for speculative runs: an always-armed `rt::Tracer`
/// whose bounded per-thread rings continuously retain the most recent
/// attempt-lifecycle / degrade / crash / runaway events, plus a `dump()`
/// entry point that — when an anomaly fires (shard quarantine, breaker
/// open, contained crash, runaway abandonment, job timeout) — snapshots
/// the retained window into a post-mortem pair of files:
///
///  * `<dir>/flight-<label>-<seq>-<reason>.trace.json` — Chrome
///    trace_event JSON of the retained events (chrome://tracing,
///    Perfetto), and
///  * `<dir>/flight-<label>-<seq>-<reason>.txt` — a human summary
///    (reason, detail, per-kind counts, the event tail).
///
/// Both are written atomically (unique temp file + `rename()`, the
/// `ProfileStore::save` discipline) so a collector tailing the dump
/// directory never reads a torn file. Dumps are rate-limited
/// (`Options::MinDumpGap`) because anomalies arrive in bursts — one
/// quarantine storm should produce one dump, not hundreds; suppressed
/// requests are counted, not lost silently.
///
/// Cost model: "always-on" means the tracer is recording (every event
/// pays one ring append); "idle" means no anomaly and hence no dump I/O.
/// The armed-but-idle configuration is measured by the
/// `robustness_overhead` bench and shares its <2% gate with the fault /
/// shield / watchdog hooks.
///
/// The serving layer keeps one recorder per shard as the only sink of
/// the jobs that shard runs; per-tenant views are derived from the
/// retained window when it is read (`SpecEvent::Tenant`), so every event
/// is recorded exactly once.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_RUNTIME_FLIGHTRECORDER_H
#define SPECPAR_RUNTIME_FLIGHTRECORDER_H

#include "runtime/Telemetry.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace specpar {
namespace rt {

/// See the file comment. One recorder per fault domain (specd: one per
/// shard); thread-safe throughout.
class FlightRecorder {
public:
  struct Options {
    /// Per-thread ring capacity of the underlying tracer, in events.
    size_t RingCapacity = 1 << 12;
    /// How far back `recentEvents()` / `dump()` reach. Events older than
    /// this are considered evicted even if a quiet ring still holds them.
    std::chrono::nanoseconds Retain = std::chrono::seconds(30);
    /// Where dumps go. Empty disables dump I/O entirely (events are
    /// still retained and `recentEvents()` still serves them).
    std::string DumpDir;
    /// Minimum spacing between two written dumps; requests inside the
    /// gap are counted as suppressed.
    std::chrono::nanoseconds MinDumpGap = std::chrono::seconds(2);
    /// Names this recorder in dump filenames (e.g. "shard0").
    std::string Label = "flight";
  };

  FlightRecorder(); ///< Default options (in-memory only, no dump dir).
  explicit FlightRecorder(Options O);

  FlightRecorder(const FlightRecorder &) = delete;
  FlightRecorder &operator=(const FlightRecorder &) = delete;

  /// The always-armed sink. Install with `SpecConfig::trace()`.
  Tracer &tracer() { return T; }
  const Tracer &tracer() const { return T; }

  const Options &options() const { return Opts; }

  /// The retained window: every ring-held event newer than
  /// `Options::Retain`, in Seq order.
  std::vector<SpecEvent> recentEvents() const;

  /// Calls \p Fn on each event of the retained window, in no particular
  /// order, without copying the window (see `Tracer::forEachEvent`).
  void forEachRecentEvent(
      const std::function<void(const SpecEvent &)> &Fn) const;

  /// How far back the retained window really reaches: the age of its
  /// oldest event (zero when empty), at most `Options::Retain`. Busy rings
  /// overwrite long before `Retain` elapses.
  std::chrono::nanoseconds windowSpan() const;

  /// What one `dump()` produced.
  struct DumpResult {
    bool Written = false;    ///< False: no dir configured, rate-limited,
                             ///< or I/O failure.
    std::string TracePath;   ///< Chrome trace JSON (when Written).
    std::string SummaryPath; ///< Human summary (when Written).
  };

  /// Snapshots the retained window to the dump directory, tagged with a
  /// short \p Reason slug ("quarantine", "breaker-open", ...) and a
  /// free-form \p Detail line for the human summary. Rate-limited;
  /// never throws — a dump that cannot be written is dropped (and
  /// counted), post-mortem evidence must not take the server down.
  DumpResult dump(const std::string &Reason, const std::string &Detail = "");

  /// Dump requests seen / dumps written / requests suppressed by the
  /// rate limit or I/O failure.
  uint64_t dumpRequests() const {
    return Requests.load(std::memory_order_relaxed);
  }
  uint64_t dumpsWritten() const {
    return Written.load(std::memory_order_relaxed);
  }
  uint64_t dumpsSuppressed() const {
    return dumpRequests() - dumpsWritten();
  }

private:
  /// The oldest TimeNs still inside the window at tracer time \p NowNs.
  uint64_t cutoffNs(uint64_t NowNs) const;

  const Options Opts;
  Tracer T;

  /// Serializes dump I/O; the rate-limit stamp lives under it too.
  std::mutex DumpM;
  uint64_t LastDumpNs = 0; ///< tracer-clock time of the last written dump.
  uint64_t DumpSeq = 0;    ///< Monotonic dump number, part of filenames.

  std::atomic<uint64_t> Requests{0};
  std::atomic<uint64_t> Written{0};
};

} // namespace rt
} // namespace specpar

#endif // SPECPAR_RUNTIME_FLIGHTRECORDER_H
