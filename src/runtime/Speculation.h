//===- runtime/Speculation.h - Programmable value speculation ---*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The C++ analogue of the paper's C# Speculation library (Section 4,
/// Figure 3):
///
///  * `Speculation::apply`    — speculative composition (`spec p g c`)
///  * `Speculation::iterate`  — speculative iteration (`specfold f g l u`),
///    in the plain form and the local initializer/finalizer form, with
///    sequential (`Seq`) and parallel (`Par`) validation modes;
///  * `Speculation::iterateChunked` / `iterateChunkedLocal` — segmented
///    speculative iteration: iterations are grouped into chunks, the
///    loop-carried value is predicted once per *chunk*, and the chunk's
///    iterations run sequentially inside one speculative attempt, so the
///    per-task overhead amortizes over the chunk (the way the paper's
///    segment experiments assume).
///
/// This header is the API: the configuration and result types and the
/// five entry points. The engine behind them — the attempt lifecycle
/// `apply` and `iterate` share, apply's check step and the iterate wave
/// engine — lives in runtime/SpecEngine.h, which this header includes.
///
/// Calls are configured with a fluent `SpecConfig` and return a
/// `SpecResult<T>` carrying the value and the run's `SpeculationStats`:
///
///   auto R = Speculation::iterate<int64_t>(0, N, Body, Predictor,
///                SpecConfig().executor(Ex).mode(ValidationMode::Par));
///   use(R.Value, R.Stats);
///
/// By default runs execute on the process's default executor shard
/// (`SpecExecutor::defaultShard()`). A thread waiting on an attempt runs
/// it itself if no worker has claimed it yet, which makes *nested*
/// speculation on one shared executor deadlock-free. Callers that care
/// about placement, worker count or lifetime name their executor
/// explicitly — `SpecConfig::executor(SpecExecutor::create(N))` — and the
/// config shares ownership of the handle.
///
/// Semantics mirror the paper:
///  * the prediction function g is indexed by the iteration and g(Low) is
///    the (non-speculative) initial value of the loop-carried state;
///  * predictions are validated with a user-overridable equality;
///  * mispredicted iterations are re-executed with the correct input — no
///    rollback of side effects, which is exactly what the rollback-freedom
///    conditions (Section 3.2) license. The validator quiesces each
///    iteration's attempts before accepting or re-executing, and attempts
///    of one iteration never run concurrently with each other, so for
///    condition-(a)-(e) programs the accepted execution's writes are the
///    final writes and runs are free of data races (ThreadSanitizer-clean);
///  * sequential exception semantics: the exception of the first *valid*
///    iteration propagates; exceptions of code speculatively executed with
///    wrong inputs are suppressed;
///  * cancellation is cooperative (like the paper's TPL-based
///    implementation): speculative bodies may poll
///    `currentTaskCancelled()` to stop early once invalidated.
///
/// Exception contracts of the user callbacks:
///  * a throwing *predictor* at a speculative prediction point is a
///    *failed prediction* (`SpeculationStats::FailedPredictions`): no
///    attempt is dispatched for that point and the validator executes it
///    in order. `Predictor(Low)` — the non-speculative initial value —
///    propagates;
///  * a throwing *equality comparator* never propagates from a
///    speculative validation path: the comparison is treated
///    pessimistically (prediction failed / inputs differ), the affected
///    iteration is re-executed with the correct input, and the prediction
///    point counts under `FailedPredictions`;
///  * a throwing *body* propagates only from the first valid iteration
///    (sequential semantics); a throwing *finalizer* propagates after
///    in-flight attempts are cancelled and drained, and no later
///    finalizer runs.
///
/// Robustness (this header + runtime/FaultPlan.h):
///  * `SpecConfig::faults(&Plan)` installs a seeded deterministic
///    `FaultPlan` whose named sites (predictor/body/comparator throws,
///    forced mispredictions, spurious cancellations) exercise the
///    contracts above from inside the runtime; with none installed every
///    site is a single pointer test, mirroring the tracer;
///  * `SpecConfig::deadline(budget)` arms a cooperative deadline: bodies
///    observe it through `currentTaskCancelled()`, and the run throws
///    `SpecTimeoutError` after cancelling and draining every in-flight
///    attempt — no task is ever leaked. Under rollback freedom the
///    abandoned partial work is unobservable (validated finalizers that
///    already ran stay run);
///  * `SpecConfig::degrade(rate, window)` arms the adaptive sequential
///    fallback: when the misprediction/failure rate over a sliding window
///    of prediction points exceeds `rate`, the run stops speculating,
///    cancels in-flight attempts, and executes the remaining segments
///    in-order on the calling thread (`SpeculationStats::DegradedChunks`,
///    `SpecEventKind::Degrade`) — each remaining segment executes exactly
///    once, never speculatively plus again. With profile-guided
///    prediction armed, a trip first tries to *switch predictor
///    candidates* (see below) and only degrades when no better candidate
///    exists;
///  * `SpecConfig::statsOut(&Snap)` publishes the run's statistics — a
///    `stats::Snapshot` pairing the speculation counters with the
///    resolved executor's activity delta — even when the run throws
///    (timeout, user exception, injected fault).
///
/// Observability: `SpecConfig::trace(&Tracer)` installs an event sink
/// (runtime/Telemetry.h) that records the whole attempt lifecycle —
/// dispatch, start, finish, cancel, Par-mode chaining, validate-accept,
/// misprediction, re-execution, finalize, degrade, timeout — exportable
/// as a Chrome trace_event timeline. With no sink installed every
/// instrumentation site is a single pointer test.
///
/// Profile-guided prediction (runtime/ProfileStore.h):
/// `SpecConfig::profile(&Store).profileSite("lex.main")` attaches the run
/// to a persistent per-call-site profile. A *warm* site seeds the
/// autotuner's initial chunk size from the previously converged value and
/// starts with the historically best predictor candidate — the caller's
/// predictor, last-value, or (for arithmetic T) stride — traced as
/// `SpecEventKind::ProfileSeed` and counted in
/// `SpeculationStats::ProfileSeeds`. During the run all candidates are
/// shadow-tallied at each validated prediction point, and a degrade-
/// monitor trip switches to a better candidate online
/// (`SpecEventKind::PredictorSwitch`) before surrendering to sequential
/// execution. At run end the observations fold back into the store; the
/// caller persists it with `ProfileStore::save()`.
///
/// Executor ownership is explicit: `SpecConfig::executor()` takes a
/// reference-counted `std::shared_ptr<SpecExecutor>` (or a borrowed
/// reference the caller guarantees outlives the run); with none set, the
/// run resolves to the process's default shard,
/// `SpecExecutor::defaultShard()`. The pre-redesign `Options` overloads
/// and the one-release deprecated forwards (`sharedExecutor()`, the
/// `SpeculationStats*` stats sink) are gone — see docs/runtime-api.md for
/// the migration table.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_RUNTIME_SPECULATION_H
#define SPECPAR_RUNTIME_SPECULATION_H

#include "runtime/FaultPlan.h"
#include "runtime/ProfileStore.h"
#include "runtime/SpecExecutor.h"
#include "runtime/Stats.h"
#include "runtime/Telemetry.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

namespace specpar {
namespace rt {

/// How speculative iterations are validated (paper Section 4).
/// `Seq`: iterations are validated strictly in order by the calling thread.
/// `Par`: as soon as iteration i-1 completes *speculatively*, iteration i is
/// re-dispatched with i-1's speculative output if that output contradicts
/// the prediction — validation work overlaps with speculation.
enum class ValidationMode { Seq, Par };

/// Thrown by a speculative run whose `SpecConfig::deadline()` expired.
/// By the time it propagates every in-flight attempt has been cancelled
/// and drained — the run leaks no task. Deadlines are cooperative:
/// expiration is observed at the runtime's own wait/validation points and
/// by bodies polling `currentTaskCancelled()`; a body that never polls
/// can overrun its budget.
class SpecTimeoutError : public std::runtime_error {
public:
  explicit SpecTimeoutError(std::chrono::nanoseconds Budget)
      : std::runtime_error(
            "speculative run exceeded its deadline (" +
            std::to_string(std::chrono::duration_cast<std::chrono::milliseconds>(
                               Budget)
                               .count()) +
            " ms budget)"),
        Budget(Budget) {}
  /// The configured budget (SpecConfig::deadline()), not the overrun.
  const std::chrono::nanoseconds Budget;
};

/// The result of a speculative run: the computed value plus the run's
/// statistics.
template <typename T> struct SpecResult {
  T Value;
  SpeculationStats Stats;
};

/// apply() acts by side effect, so its result is statistics only.
template <> struct SpecResult<void> { SpeculationStats Stats; };

/// Fluent configuration for a speculative run.
///
///   SpecConfig().mode(ValidationMode::Par).executor(Shard)
///
/// Executor resolution:
///  1. an explicit `executor(...)` wins — either an owning
///     `std::shared_ptr<SpecExecutor>` handle (the config shares
///     ownership, so the executor outlives every run configured with it)
///     or a borrowed `SpecExecutor &` the caller keeps alive;
///  2. otherwise the run uses the process's default shard,
///     `SpecExecutor::defaultShard()`, which has exactly
///     `std::thread::hardware_concurrency()` workers.
class SpecConfig {
public:
  SpecConfig() = default;

  /// Validation mode for iterate()/iterateChunked().
  SpecConfig &mode(ValidationMode M) {
    Mode = M;
    return *this;
  }
  /// Runs on \p E instead of the default-shard executor.
  /// The config shares ownership of the handle: the executor cannot be
  /// destroyed out from under a run (or a queued job holding a copy of
  /// this config). Sharing one executor between concurrent and *nested*
  /// runs is safe: a run waiting on one of its attempts runs it itself
  /// when no worker has claimed it.
  SpecConfig &executor(std::shared_ptr<SpecExecutor> E) {
    Ex = std::move(E);
    return *this;
  }
  /// Borrowing overload: runs on \p E without taking ownership. The
  /// caller guarantees \p E outlives every run configured with this
  /// config (the typical case: a stack-owned executor in a test or
  /// bench).
  SpecConfig &executor(SpecExecutor &E) {
    // Aliasing handle: shares no control block, never deletes.
    Ex = std::shared_ptr<SpecExecutor>(std::shared_ptr<void>(), &E);
    return *this;
  }
  /// apply() only — the paper's Section 3.3 termination fix: when the
  /// producer finishes before the predictor has produced a guess, abort
  /// the speculation (cancel predictor + speculative consumer) and run
  /// the consumer with the real value instead of waiting.
  SpecConfig &eagerProducerAbort(bool B = true) {
    EagerAbort = B;
    return *this;
  }
  /// Installs \p T as the run's event sink: the runtime records the full
  /// attempt lifecycle (dispatch/start/finish/cancel/chain/validate/
  /// mispredict/re-execute/finalize/degrade/timeout) into it. The tracer
  /// must outlive the run. With no sink (the default) tracing costs one
  /// pointer test per instrumentation site — nothing is allocated or
  /// synchronized.
  SpecConfig &trace(Tracer *T) {
    TraceSink = T;
    return *this;
  }
  /// Installs \p P as the run's fault-injection plan for the
  /// Speculation-level sites (throws, forced mispredictions, spurious
  /// cancellations — see runtime/FaultPlan.h). The plan must outlive the
  /// run. The executor's timing sites are never armed from here: other
  /// runs may share the executor, so arm it yourself with
  /// `SpecExecutor::injectFaults()` if desired. With no plan (the
  /// default) every site is a single pointer test.
  SpecConfig &faults(FaultPlan *P) {
    FaultSink = P;
    return *this;
  }
  /// Arms a cooperative deadline: the run may spend at most \p Budget
  /// from the moment it starts. Speculative bodies observe expiry through
  /// `currentTaskCancelled()`; the validator observes it at every wait
  /// and chunk boundary, then cancels and drains all in-flight attempts
  /// and throws `SpecTimeoutError`. `0` (the default) means no deadline.
  /// Nested runs inherit the tighter of their own and the enclosing
  /// attempt's deadline.
  SpecConfig &deadline(std::chrono::nanoseconds Budget) {
    Deadline = Budget;
    return *this;
  }
  /// Arms the adaptive sequential fallback: over a sliding window of the
  /// last \p Window prediction points, if the fraction that resolved
  /// badly (mispredicted or failed) exceeds \p MaxBadRate, the run stops
  /// dispatching speculation, cancels what is in flight, and executes the
  /// remaining iterations/chunks in order on the calling thread. Each
  /// degraded segment runs exactly once (counted in
  /// `SpeculationStats::DegradedChunks`, traced as `Degrade`; with the
  /// autotuner armed these are segments of the *dynamic* grid in use at
  /// the trip, FinalChunk wide). A negative
  /// \p MaxBadRate (the default) disables the monitor; `degrade(0.0)`
  /// degrades on the first bad window. With profile-guided prediction
  /// armed (profile()/profileSite()), a trip switches to a better
  /// predictor candidate when one exists instead of degrading.
  SpecConfig &degrade(double MaxBadRate, int Window = 8) {
    DegradeThresh = MaxBadRate;
    DegradeWin = Window < 1 ? 1 : Window;
    return *this;
  }
  /// Publishes the run's statistics into \p S when the run ends — on
  /// success *and* on every throwing path (user exception, injected
  /// fault, SpecTimeoutError), where the SpecResult carrying them never
  /// materializes. The snapshot's `Spec` half is the run's speculation
  /// counters; its `Exec` half is the resolved executor's activity delta
  /// across exactly this run. \p S must outlive the run.
  SpecConfig &statsOut(stats::Snapshot *S) {
    SnapSink = S;
    return *this;
  }
  /// Attaches the run to \p P, the persistent profile-guided prediction
  /// store (runtime/ProfileStore.h). Takes effect only together with a
  /// non-empty `profileSite()`: the pair (store, site) is what seeds the
  /// initial chunk size and predictor candidate on a warm site, enables
  /// online predictor switching at degrade trips, and receives the run's
  /// observations when it ends. \p P must outlive the run; it is touched
  /// once at run start and once at run end, never per wave.
  SpecConfig &profile(ProfileStore *P) {
    Prof = P;
    return *this;
  }
  /// Names the call site in the profile store — any stable string the
  /// caller picks ("lex.main", "tenantA/mwis"). Runs configured with the
  /// same site share one learning curve.
  SpecConfig &profileSite(std::string S) {
    Site = std::move(S);
    return *this;
  }
  /// Arms the adaptive chunk autotuner for the *chunked* iteration forms:
  /// ChunkSize becomes the initial granularity and the runtime re-sizes
  /// chunks between scheduling waves, aiming at chunk bodies of roughly
  /// \p TargetChunkMicros each — it doubles the chunk when bodies run
  /// much shorter than the target (dispatch overhead dominating), halves
  /// it when they run much longer (lost parallelism / stale predictions)
  /// or when more than half of a wave's prediction points resolve badly
  /// (smaller chunks re-validate sooner). Resizes are traced as
  /// `SpecEventKind::Autotune` with the new chunk size as the index.
  /// `0` (the default) disables the autotuner: chunk boundaries are then
  /// exactly the fixed `[Low + c*ChunkSize, ...)` grid, and per-chunk
  /// statistics keep their fixed-grid meaning. With autotuning on, chunk
  /// ordinals (finalizer indices, telemetry indices, stats granularity)
  /// follow the *dynamic* segmentation — in particular
  /// `SpeculationStats::DegradedChunks` counts the dynamic segments the
  /// sequential fallback actually executed (each matching one `Degrade`
  /// trace event), and `SpeculationStats::FinalChunk` reports the chunk
  /// size those segments were cut at (the last `Autotune` resize, or the
  /// initial/seeded size when none fired). Plain (unchunked) iterate()
  /// is never autotuned — its per-iteration init/finalize contract fixes
  /// the granularity. Negative targets clamp to 0, and targets past
  /// `INT64_MAX / 1000` to that value, so the target in nanoseconds
  /// always fits an int64.
  SpecConfig &autotune(int64_t TargetChunkMicros) {
    AutotuneUs = TargetChunkMicros < 0 ? 0
                 : TargetChunkMicros > INT64_MAX / 1000
                     ? INT64_MAX / 1000
                     : TargetChunkMicros;
    return *this;
  }
  /// Arms the per-thread signal shield around *speculative* attempt
  /// bodies: a SIGSEGV/SIGBUS/SIGFPE raised while a speculative attempt
  /// runs is contained (`siglongjmp` out of the body), the attempt is
  /// discarded like a misprediction, and the chunk re-executes
  /// non-speculatively (`SpeculationStats::ContainedCrashes`,
  /// `SpecEventKind::CrashContained`). The authoritative re-execution
  /// and degraded sequential paths keep default crash semantics — a
  /// crash there is a real bug. Destructors of locals in the crashed
  /// body's skipped frames do not run; bodies that own resources across
  /// a crash-prone region should not opt in. Implied by attemptBudget().
  SpecConfig &shield(bool B = true) {
    ShieldOn = B;
    return *this;
  }
  /// Time-boxes each speculative attempt to \p Budget: past it, the
  /// runaway watchdog first sets the attempt's cooperative cancel flag
  /// (bodies polling `currentTaskCancelled()` bail normally), then — if
  /// the body is still running a grace period later — forces
  /// abandonment via the shield (`SpecEventKind::RunawayCancel`,
  /// `SpeculationStats::RunawayCancels`). Implies shield(). `0` (the
  /// default) disarms the watchdog.
  SpecConfig &attemptBudget(std::chrono::nanoseconds Budget) {
    BudgetNs = Budget.count() < 0 ? 0 : Budget.count();
    return *this;
  }
  /// Stamps every trace event this run records with \p Ctx (see
  /// `rt::TraceContext`): the serving layer mints one per admitted job so
  /// the job's attempts remain reassemblable — across retries and shards
  /// — from the retained rings. The default zero context stamps nothing.
  SpecConfig &traceContext(TraceContext Ctx) {
    TraceCtx = Ctx;
    return *this;
  }

  ValidationMode mode() const { return Mode; }
  /// The explicitly configured executor (nullptr when none was set).
  SpecExecutor *executor() const { return Ex.get(); }
  bool eagerProducerAbort() const { return EagerAbort; }
  Tracer *trace() const { return TraceSink; }
  FaultPlan *faults() const { return FaultSink; }
  std::chrono::nanoseconds deadline() const { return Deadline; }
  double degradeThreshold() const { return DegradeThresh; }
  int degradeWindow() const { return DegradeWin; }
  stats::Snapshot *statsSnapshotOut() const { return SnapSink; }
  int64_t autotuneTargetMicros() const { return AutotuneUs; }
  ProfileStore *profile() const { return Prof; }
  const std::string &profileSite() const { return Site; }
  /// True when the signal shield is armed — explicitly, or implied by a
  /// per-attempt budget (the watchdog's forced abandonment needs it).
  bool shield() const { return ShieldOn || BudgetNs > 0; }
  std::chrono::nanoseconds attemptBudget() const {
    return std::chrono::nanoseconds(BudgetNs);
  }
  TraceContext traceContext() const { return TraceCtx; }

  /// The executor this config resolves to — the explicit one, or the
  /// process's default shard; never empty. The returned handle shares
  /// ownership (a borrowed executor's handle shares none), so it stays
  /// valid for as long as the caller holds it.
  std::shared_ptr<SpecExecutor> resolvedExecutor() const {
    return Ex ? Ex : SpecExecutor::defaultShard();
  }

private:
  ValidationMode Mode = ValidationMode::Seq;
  std::shared_ptr<SpecExecutor> Ex;
  bool EagerAbort = false;
  Tracer *TraceSink = nullptr;
  FaultPlan *FaultSink = nullptr;
  std::chrono::nanoseconds Deadline{0};
  double DegradeThresh = -1.0;
  int DegradeWin = 8;
  stats::Snapshot *SnapSink = nullptr;
  int64_t AutotuneUs = 0;
  ProfileStore *Prof = nullptr;
  std::string Site;
  bool ShieldOn = false;
  int64_t BudgetNs = 0;
  TraceContext TraceCtx;
};

/// True if the speculative task running on this thread has been cancelled
/// (its prediction was invalidated, the run is tearing down, or the run's
/// cooperative deadline expired). Long-running bodies should poll this —
/// the paper's cooperative-cancellation contract. Chunked bodies may poll
/// it between iterations of a chunk. A body that returns early after
/// observing `true` is never accepted by the validator, so bailing with a
/// partial value is always safe.
bool currentTaskCancelled();

} // namespace rt
} // namespace specpar

// The engine behind the entry points below; it needs the types above.
#include "runtime/SpecEngine.h"

namespace specpar {
namespace rt {

/// The speculation API (paper Figure 3).
class Speculation {
public:
  /// Speculative composition: computes `Consumer(Producer())`, overlapping
  /// the producer with a speculative run of `Consumer(Predictor())`.
  ///
  /// \returns the run's statistics; the consumer acts by side effect (like
  /// the paper's `Action<T> consumer`). On misprediction the consumer is
  /// simply re-executed with the correct value (no rollback). Exceptions:
  /// the producer's exception propagates; the consumer's exception
  /// propagates only from the validated run.
  template <typename T, typename ProducerFn, typename PredictorFn,
            typename ConsumerFn, typename Eq = std::equal_to<T>>
  static SpecResult<void> apply(ProducerFn &&Producer, PredictorFn &&Predictor,
                                ConsumerFn &&Consumer,
                                const SpecConfig &Cfg = SpecConfig(),
                                Eq Equal = Eq()) {
    return detail::applyImpl<T>(Producer, Predictor, Consumer, Cfg, Equal);
  }

  /// Speculative iteration over [Low, High): computes
  ///
  ///   T Acc = Predictor(Low);
  ///   for (int64_t I = Low; I < High; ++I) Acc = Body(I, Acc);
  ///   return {Acc, Stats};
  ///
  /// with all iterations launched speculatively on predicted inputs
  /// (`Predictor(I)` is the predicted loop-carried value *entering*
  /// iteration I).
  ///
  /// Prediction functions are invoked on the calling thread before
  /// speculation begins; they are assumed cheap relative to iteration
  /// bodies (overlap window << segment size), as in the paper.
  template <typename T, typename BodyFn, typename PredictorFn,
            typename Eq = std::equal_to<T>>
  static SpecResult<T> iterate(int64_t Low, int64_t High, BodyFn &&Body,
                               PredictorFn &&Predictor,
                               const SpecConfig &Cfg = SpecConfig(),
                               Eq Equal = Eq()) {
    struct NoLocal {};
    return iterateLocal<T, NoLocal>(
        Low, High, [] { return NoLocal{}; },
        [&Body](int64_t I, NoLocal &, T In) {
          return Body(I, std::move(In));
        },
        std::forward<PredictorFn>(Predictor), [](int64_t, NoLocal &) {},
        Cfg, Equal);
  }

  /// The initializer/finalizer variant (paper Figure 3, the second
  /// Iterate overload): each iteration gets fresh local state `U` from
  /// \p Init, the body computes into it, and \p Finalize publishes it.
  /// Finalizers run exactly once per iteration, in iteration order, on the
  /// calling thread, and only for validated executions — the supported
  /// idiom for iterations whose writes would otherwise violate rollback
  /// freedom. A throwing finalizer aborts the run: later finalizers never
  /// run, in-flight attempts are cancelled and drained, then the
  /// exception propagates (statistics still reach statsOut()).
  template <typename T, typename U, typename InitFn, typename BodyFn,
            typename PredictorFn, typename FinalFn,
            typename Eq = std::equal_to<T>>
  static SpecResult<T> iterateLocal(int64_t Low, int64_t High, InitFn &&Init,
                                    BodyFn &&Body, PredictorFn &&Predictor,
                                    FinalFn &&Finalize,
                                    const SpecConfig &Cfg = SpecConfig(),
                                    Eq Equal = Eq()) {
    // Plain iteration is chunk-size-1 segmented iteration indexed from
    // Low; the init/finalize-per-iteration contract pins the
    // granularity, so the autotuner never applies here.
    return detail::iterateImpl<T, U>(Low, High, /*Chunk=*/1, /*IdxBase=*/Low,
                                     /*AutotuneTargetNs=*/0, Init, Body,
                                     Predictor, Finalize, Cfg, Equal);
  }

  /// Chunked speculative iteration: like iterate(), but iterations are
  /// grouped into chunks of \p ChunkSize consecutive iterations. The
  /// loop-carried value is predicted once per chunk (`Predictor(I)` at the
  /// chunk's first iteration I) and each chunk runs its iterations
  /// sequentially inside a single speculative attempt, so per-task
  /// dispatch/validation overhead amortizes over ChunkSize iterations —
  /// the segment-granularity speculation of the paper's evaluation.
  ///
  /// Statistics are at chunk granularity (one task per chunk, one
  /// validated prediction per chunk boundary). Long chunk bodies may poll
  /// `currentTaskCancelled()` between iterations.
  ///
  /// \throws std::invalid_argument when `ChunkSize <= 0`, in every build
  /// mode (both chunked forms).
  template <typename T, typename BodyFn, typename PredictorFn,
            typename Eq = std::equal_to<T>>
  static SpecResult<T> iterateChunked(int64_t Low, int64_t High,
                                      int64_t ChunkSize, BodyFn &&Body,
                                      PredictorFn &&Predictor,
                                      const SpecConfig &Cfg = SpecConfig(),
                                      Eq Equal = Eq()) {
    struct NoLocal {};
    return iterateChunkedLocal<T, NoLocal>(
        Low, High, ChunkSize, [] { return NoLocal{}; },
        [&Body](int64_t I, NoLocal &, T In) {
          return Body(I, std::move(In));
        },
        std::forward<PredictorFn>(Predictor), [](int64_t, NoLocal &) {},
        Cfg, Equal);
  }

  /// The initializer/finalizer form of chunked iteration: \p Init runs
  /// once per chunk *attempt*, the chunk's iterations fill the local
  /// state, and \p Finalize publishes it once per chunk, in chunk order,
  /// on the calling thread, only for validated executions. \p Finalize
  /// receives the chunk index (chunk c covers iterations
  /// [Low + c*ChunkSize, min(High, Low + (c+1)*ChunkSize))).
  template <typename T, typename U, typename InitFn, typename BodyFn,
            typename PredictorFn, typename FinalFn,
            typename Eq = std::equal_to<T>>
  static SpecResult<T>
  iterateChunkedLocal(int64_t Low, int64_t High, int64_t ChunkSize,
                      InitFn &&Init, BodyFn &&Body, PredictorFn &&Predictor,
                      FinalFn &&Finalize, const SpecConfig &Cfg = SpecConfig(),
                      Eq Equal = Eq()) {
    // A non-positive chunk size is a contract violation in every build
    // mode — previously an assert that release builds silently clamped.
    if (ChunkSize <= 0)
      throw std::invalid_argument(
          "Speculation::iterateChunked: ChunkSize must be positive, got " +
          std::to_string(ChunkSize));
    // The engine segments [Low, High) itself: with the autotuner off the
    // segment grid is exactly the fixed [Low + c*ChunkSize, ...) chunks;
    // with it on, ChunkSize is the initial granularity. Indices reported
    // to finalizers/telemetry are segment ordinals.
    return detail::iterateImpl<T, U>(
        Low, High, ChunkSize, /*IdxBase=*/0,
        /*AutotuneTargetNs=*/Cfg.autotuneTargetMicros() * 1000, Init, Body,
        Predictor, Finalize, Cfg, Equal);
  }
};

} // namespace rt
} // namespace specpar

#endif // SPECPAR_RUNTIME_SPECULATION_H
