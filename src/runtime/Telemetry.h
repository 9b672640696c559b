//===- runtime/Telemetry.h - Speculation event tracing ----------*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer of the speculation runtime: a `Tracer` sink
/// records the full attempt lifecycle of a speculative run — dispatch,
/// start, finish, cancel, Par-mode corrective chaining, validate-accept,
/// misprediction, re-execution, finalize — with monotonic timestamps,
/// iteration/chunk indices, and per-attempt ids.
///
/// Design constraints (and how they are met):
///  * **Zero cost when off.** The runtime holds a plain `Tracer *` from
///    `SpecConfig::trace()`; with no sink installed every instrumentation
///    site is a single pointer test. No allocation, no atomics, no locks.
///  * **Lock-minimal when on.** Each recording thread owns a private
///    fixed-capacity event ring; `record()` takes only that ring's own
///    mutex, which is uncontended except while a concurrent `snapshot()`
///    drains it. The global registry lock is taken once per
///    (thread, tracer) pair, not per event. TSan-clean by construction
///    (every ring access is under its mutex).
///  * **Bounded memory.** Rings overwrite their oldest entries when full;
///    each overwrite bumps that ring's explicit drop counter, so the loss
///    is never silent: `droppedEvents()` totals it and `summary()` breaks
///    it down per ring.
///
/// Causal correlation: serving-layer jobs mint a `TraceContext`
/// (TraceId + SpanId + Tenant) at admission; the runtime stamps it onto
/// every event it records for that run (`SpecEvent::JobId`/`SpanId`/
/// `Tenant`), so one job's full story — every speculative attempt,
/// validation, re-execution, across retries on different shards — can be
/// reassembled from the retained rings afterwards, and per-tenant views
/// are derived from the same rings when they are read.
///
/// Exporters: `summary()` renders per-kind counts for humans;
/// `writeChromeTrace()` emits the Chrome `trace_event` JSON array format,
/// loadable in `chrome://tracing` and Perfetto, with one timeline row per
/// recording thread and one duration slice per attempt (start→finish)
/// plus instant markers for the validator-side events. The same exporter
/// is available as the free function `writeChromeTraceEvents()` for any
/// externally filtered event set (the flight recorder's retained window).
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_RUNTIME_TELEMETRY_H
#define SPECPAR_RUNTIME_TELEMETRY_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

namespace specpar {
namespace rt {

/// One step of a speculative attempt's (or the validator's) lifecycle.
enum class SpecEventKind : uint8_t {
  /// An attempt was created and submitted to the executor.
  Dispatch,
  /// An attempt's body began executing on some thread.
  Start,
  /// An attempt completed (successfully, with an error, or skipped).
  Finish,
  /// A still-running attempt was cancelled (wrong input, or run teardown).
  Cancel,
  /// Par-mode corrective chaining: an attempt's speculative output
  /// contradicted the next slot's prediction, so a corrective attempt for
  /// that slot was created. The event's Index/AttemptId identify the new
  /// corrective attempt.
  Chain,
  /// The validator accepted an attempt's execution as the valid one.
  ValidateAccept,
  /// A validated prediction point whose guess differed from the truth.
  Mispredict,
  /// The validator re-executed an iteration/chunk with the correct input.
  Reexecute,
  /// A validated finalizer ran for this iteration/chunk.
  Finalize,
  /// The adaptive fallback monitor tripped: the run stopped speculating
  /// and degraded to in-order sequential execution from this chunk on.
  Degrade,
  /// The run's cooperative deadline expired; in-flight attempts were
  /// cancelled and drained and SpecTimeoutError was thrown.
  Timeout,
  /// The adaptive chunk autotuner re-sized the effective chunk between
  /// scheduling waves (SpecConfig::autotune()). Index carries the *new*
  /// chunk size; AttemptId is 0 — a run-level decision.
  Autotune,
  /// A warm `ProfileStore` seeded the run (SpecConfig::profile()). Index
  /// carries the seeded initial chunk size (0 when only the predictor
  /// choice was seeded); AttemptId carries the starting predictor
  /// candidate (0 = user, 1 = last-value, 2 = stride).
  ProfileSeed,
  /// The degrade monitor tripped but a better predictor candidate was
  /// available, so the run switched predictors online instead of falling
  /// back to sequential execution. Index carries the new candidate id.
  PredictorSwitch,
  /// The signal shield contained a hardware fault (or a forced runaway
  /// abandonment) inside a speculative attempt's body; the attempt was
  /// discarded and the chunk re-executed non-speculatively. AttemptId
  /// identifies the crashed attempt; Index is its chunk index.
  CrashContained,
  /// The runaway watchdog escalated an attempt past its per-attempt
  /// budget (SpecConfig::attemptBudget()): cooperative cancel, or — if
  /// the body never polled — forced abandonment (which additionally
  /// records a CrashContained event).
  RunawayCancel,
};

/// Number of `SpecEventKind` values.
constexpr size_t NumSpecEventKinds =
    static_cast<size_t>(SpecEventKind::RunawayCancel) + 1;

/// Stable lowercase name of \p K (e.g. "validate-accept").
const char *specEventKindName(SpecEventKind K);

/// Causal correlation for one serving-layer job execution. `TraceId`
/// identifies the job across its whole life (minted once at admission and
/// returned in `JobResult`); `SpanId` identifies one execution attempt of
/// that job (1 for the first dispatch, 2 for the first retry, ...), so a
/// retried job's runs on different shards remain distinguishable under
/// the one TraceId. `Tenant` is the serving layer's dense id of the
/// job's tenant. A zero TraceId means "no job context" and a zero Tenant
/// "no tenant" — direct runtime users that never set one record plain
/// events.
struct TraceContext {
  uint64_t TraceId = 0;
  uint32_t SpanId = 0;
  uint32_t Tenant = 0;
};
// Passed by value to every record(); Tenant fits in the padding after
// SpanId.
static_assert(sizeof(TraceContext) == 16, "TraceContext grew");

/// One recorded event. `Seq` is a process-wide monotonic sequence number
/// (total order across threads — two events never share one); `TimeNs` is
/// nanoseconds since the tracer's construction on the steady clock.
struct SpecEvent {
  uint64_t Seq = 0;
  uint64_t TimeNs = 0;
  uint64_t AttemptId = 0; ///< 0 for validator-side events with no attempt.
  uint64_t JobId = 0;     ///< TraceContext::TraceId (0 = no job context).
  int64_t Index = 0;      ///< Iteration or chunk index.
  uint32_t SpanId = 0;    ///< TraceContext::SpanId (execution attempt #).
  uint32_t ThreadId = 0;  ///< Dense per-tracer id of the recording thread.
  SpecEventKind Kind = SpecEventKind::Dispatch;
  uint32_t Tenant = 0;    ///< TraceContext::Tenant (0 = no tenant).
};
// Every traced event is one ring append of this struct; the tenant id
// must fit in the padding after Kind.
static_assert(sizeof(SpecEvent) == 56, "SpecEvent grew");

/// Writes \p Events in the Chrome trace_event JSON array format (one row
/// per recording thread; attempt start→finish pairs as duration slices,
/// everything else as instants). Loadable in chrome://tracing and
/// Perfetto. \p Events must be in Seq order (as `Tracer::snapshot()`
/// returns them).
void writeChromeTraceEvents(std::ostream &OS,
                            const std::vector<SpecEvent> &Events);

/// An event sink for speculative runs. Install one with
/// `SpecConfig::trace(&T)`; after the run, `snapshot()` / `summary()` /
/// `writeChromeTrace()` expose what happened. One tracer may observe many
/// runs (events accumulate); it must outlive every run it is attached to.
class Tracer {
public:
  /// \p RingCapacity is the per-thread ring size in events (clamped to a
  /// floor of 16); when a thread records more than that between snapshots
  /// the oldest are overwritten.
  explicit Tracer(size_t RingCapacity = 1 << 14);
  ~Tracer();

  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// A fresh nonzero attempt id, unique within this tracer.
  uint64_t newAttemptId() {
    return NextAttemptId.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Records one event on the calling thread's ring, stamped with \p Ctx
  /// (the defaulted empty context leaves JobId/SpanId/Tenant zero).
  void record(SpecEventKind Kind, int64_t Index, uint64_t AttemptId,
              TraceContext Ctx = {});

  /// All retained events from every thread with TimeNs >= \p SinceNs, in
  /// Seq order. Safe to call concurrently with record(); events recorded
  /// while the snapshot runs may or may not be included.
  std::vector<SpecEvent> snapshot(uint64_t SinceNs = 0) const;

  /// Calls \p Fn on every retained event with TimeNs >= \p SinceNs, ring
  /// by ring under that ring's lock: no copy, no Seq order. \p Fn must
  /// not record into this tracer.
  void forEachEvent(uint64_t SinceNs,
                    const std::function<void(const SpecEvent &)> &Fn) const;

  /// TimeNs of the oldest retained event with TimeNs >= \p SinceNs;
  /// nullopt when there is none. One binary search per ring.
  std::optional<uint64_t> oldestEventNs(uint64_t SinceNs) const;

  /// Events lost to ring overwrite so far (sum of the per-ring explicit
  /// drop counters).
  uint64_t droppedEvents() const;

  /// Total events ever recorded (including ones since overwritten).
  uint64_t recordedEvents() const;

  /// Nanoseconds elapsed since this tracer's construction — the clock
  /// `SpecEvent::TimeNs` is measured on, so callers can age events.
  uint64_t elapsedNs() const { return nowNs(); }

  /// Human-readable per-kind counts plus thread/drop totals.
  std::string summary() const;

  /// Writes the Chrome trace_event JSON array format (one row per
  /// recording thread; attempts as duration slices, validator events as
  /// instants). Loadable in chrome://tracing and Perfetto.
  void writeChromeTrace(std::ostream &OS) const;

  /// Convenience: writeChromeTrace() into \p Path. False on I/O failure.
  bool writeChromeTrace(const std::string &Path) const;

private:
  struct Ring {
    mutable std::mutex M;
    std::vector<SpecEvent> Slots; ///< Fixed capacity, overwritten cyclically.
    uint64_t Recorded = 0;        ///< Total events ever recorded here.
    uint64_t Dropped = 0;         ///< Events overwritten before a snapshot.
    std::thread::id Owner;
    uint32_t ThreadId = 0;

    /// The logical index (slot = index % capacity) of the first retained
    /// event with TimeNs >= \p SinceNs, or Recorded if none. Caller holds
    /// M.
    uint64_t firstSince(uint64_t SinceNs) const;
  };

  /// The calling thread's ring (registered on first use).
  Ring &myRing();
  uint64_t nowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Epoch)
            .count());
  }

  const std::chrono::steady_clock::time_point Epoch;
  const size_t Capacity;
  /// Distinguishes this tracer from any other ever constructed, so the
  /// per-thread ring cache can never resolve to a dead tracer's ring.
  const uint64_t Serial;

  mutable std::mutex RegistryM;
  std::vector<std::unique_ptr<Ring>> Rings;

  std::atomic<uint64_t> NextAttemptId{0};
  std::atomic<uint64_t> NextSeq{0};
};

} // namespace rt
} // namespace specpar

#endif // SPECPAR_RUNTIME_TELEMETRY_H
