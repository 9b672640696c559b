//===- runtime/SpecEngine.h - The engine behind Speculation -----*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The speculation engine behind the entry points of runtime/Speculation.h,
/// which includes this header after the API types it needs. Include
/// runtime/Speculation.h, not this header.
///
/// `apply` and `iterate` share one attempt lifecycle: an attempt is run
/// by whichever thread claims it first — a worker running a task of its
/// run, or the thread waiting on it — under its cancel scope, fault
/// probes and optional shield (`runSpeculativeBody`); it publishes with
/// one seq_cst Done RMW on its claim word in the run's `SegRunSync`. On
/// top of it sit `applyImpl` (one `spec`, one task) and `SegEngine` (the
/// wave engine under every iterate form, at most one drain task per
/// worker and wave, not one per attempt), which resolve each prediction
/// point with one check step (rule CHECK), `checkPrediction`.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_RUNTIME_SPECENGINE_H
#define SPECPAR_RUNTIME_SPECENGINE_H

#ifndef SPECPAR_RUNTIME_SPECULATION_H
#error "runtime/SpecEngine.h is internal: include runtime/Speculation.h"
#endif

#include "runtime/EventCount.h"
#include "runtime/FaultPlan.h"
#include "runtime/ProfileStore.h"
#include "runtime/SignalShield.h"
#include "runtime/SpecExecutor.h"
#include "runtime/Stats.h"
#include "runtime/Telemetry.h"
#include "support/Timer.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace specpar {
namespace rt {
namespace detail {
/// The cancellation context of the speculative task running on this
/// thread: its cancel flag, the enclosing run's cooperative deadline
/// (time_point::max() = none; nested scopes keep the tighter one), and
/// where `currentTaskCancelled()` records that the running attempt
/// *observed* cancellation (and may therefore have bailed with partial
/// output — the validator refuses to accept such attempts).
struct CancelContext {
  const std::atomic<bool> *Flag = nullptr;
  std::chrono::steady_clock::time_point Deadline =
      std::chrono::steady_clock::time_point::max();
  std::atomic<bool> *Observed = nullptr;
};

/// The calling thread's cancellation context. Out-of-line over a
/// function-local `thread_local` rather than an extern TLS variable:
/// GCC's UBSan mis-instruments the cross-TU TLS wrapper of the latter
/// (bogus null-pointer reports on every access from inlined header
/// code), and the accessor keeps the hot sites to one call.
CancelContext &cancelContext();

/// RAII: marks the current thread as running the attempt whose cancel
/// flag is \p Flag, under \p Deadline, recording observed cancellation
/// in \p Observed. The flag lives in the attempt, which the run
/// guarantees outlives the scope.
class CancelScope {
public:
  CancelScope(const std::atomic<bool> *Flag,
              std::chrono::steady_clock::time_point Deadline,
              std::atomic<bool> *Observed)
      : Saved(cancelContext()) {
    CancelContext &C = cancelContext();
    C.Flag = Flag;
    // An enclosing run's deadline stays binding inside a nested run.
    C.Deadline = std::min(Saved.Deadline, Deadline);
    C.Observed = Observed;
  }
  ~CancelScope() { cancelContext() = Saved; }

private:
  CancelContext Saved;
};

/// The part of a speculative attempt that every run form shares: its
/// identity, its cancellation state and what its body left behind. The
/// attempt's claim word (SegRunSync) decides who runs it and carries its
/// Done bit, the publication point: every plain field is written before
/// the seq_cst Done RMW and read by the validating thread only after it
/// loads Done.
struct AttemptCore {
  /// Telemetry attempt id (0 when no tracer is installed).
  uint64_t TraceId = 0;
  /// The index reported to telemetry (and, for iterate, finalizers): the
  /// iteration index for plain iterate, the segment ordinal for the
  /// chunked forms, 0 for apply.
  int64_t UserIdx = 0;
  /// The body's exception, if it threw.
  std::exception_ptr Err;
  /// The signal shield contained a crash (or forced runaway abandonment)
  /// in this attempt's body. A crashed attempt is never acceptable, but
  /// it *does* participate in iterate's last-finisher selection: if it
  /// finished last, its partial writes landed last, so the validator
  /// must re-execute the segment to make the authoritative writes final.
  bool Crashed = false;
  /// Cooperative cancellation flag.
  std::atomic<bool> CancelFlag{false};
  /// Set by `currentTaskCancelled()` when the body observed cancellation
  /// mid-run: its output may be a partial bail-out value and must never
  /// be accepted.
  std::atomic<bool> ObservedCancel{false};
};

/// One speculative execution of a wave segment with a given input.
/// Attempts are preallocated per run, attempts 2K and 2K+1 for wave slot
/// K, and reset in place wave after wave — the steady-state attempt
/// lifecycle does not touch the heap. An attempt reads its segment's
/// bounds from the wave plan, which stays fixed until the wave has
/// quiesced.
template <typename T, typename U> struct SegAttempt : AttemptCore {
  std::optional<T> In;
  std::optional<T> Out;
  std::optional<U> Local;
  /// Body wall time in ns, measured only when the autotuner is armed.
  int64_t BodyNs = 0;
  /// The attempt's claim word in the run's SegRunSync.
  uint32_t Idx = 0;
};

/// apply()'s one speculative attempt: the predictor, then the consumer
/// on its guess, as one task running concurrently with the producer.
template <typename T> struct ApplyAttempt : AttemptCore {
  /// The predictor's guess (disengaged when it threw), published by
  /// the seq_cst `GuessReady` store before the consumer starts.
  std::optional<T> Guess;
  std::atomic<bool> GuessReady{false};
};

/// Synchronisation of one speculative run (an iterate engine run or one
/// apply()), in one refcounted block: the run holds a reference and so
/// does every task it submits, so a task popped after its attempts were
/// claimed, recycled into a later wave, or after its run returned still
/// finds their claim words here, fails to claim, and returns.
///
/// An attempt is run by whichever thread claims it first: a worker
/// running a task of its run, or a thread waiting on it. A waiting thread
/// runs only the attempts it waits for and otherwise parks on the
/// eventcount, so no wait depends on the executor draining other work.
/// An attempt's claim word packs its wave generation (bits 32-63), the
/// index + 1 of a corrective parked on it (bits 2-31; 0 = none), Done
/// (bit 1) and Claimed (bit 0). The generation alone decides membership:
/// an iterate attempt belongs to the current wave, in slot I/2, iff its
/// word carries that wave's generation.
struct SegRunSync {
  explicit SegRunSync(size_t Attempts) : Words(Attempts) {}

  static constexpr uint64_t Claimed = 1, Done = 2;

  /// Arms attempt \p I for wave \p Gen: unclaimed, not Done, nothing
  /// parked. A release store after the attempt's fields, so a claim that
  /// sees \p Gen also sees the attempt.
  void reset(uint32_t I, uint32_t Gen) {
    Words[I].V.store(uint64_t(Gen) << 32, std::memory_order_release);
  }

  /// Claims attempt \p I of wave \p Gen for the calling thread.
  /// Invariant 1: an attempt's body runs at most once, on the thread
  /// whose claim succeeded — at most one claim per generation succeeds.
  /// Invariant 4: a slot's second attempt (odd \p I) is claimable only
  /// once attempt I-1 is Done. I's word, reset after I-1's, shows \p Gen
  /// first, so the read of I-1's word sees this wave's, never older.
  bool claim(uint32_t I, uint32_t Gen) {
    uint64_t W = Words[I].V.load(std::memory_order_seq_cst);
    do {
      if ((W >> 32) != Gen || (W & Claimed) || (I % 2 && !done(I - 1)))
        return false;
    } while (!Words[I].V.compare_exchange_weak(W, W | Claimed,
                                               std::memory_order_seq_cst));
    return true;
  }

  bool done(uint32_t I) const {
    return Words[I].V.load(std::memory_order_seq_cst) & Done;
  }

  /// Whether attempt \p I was reset for wave \p Gen, and then, by the
  /// acquire, its fields are visible.
  bool inWave(uint32_t I, uint32_t Gen) const {
    return (Words[I].V.load(std::memory_order_acquire) >> 32) == Gen;
  }

  /// Publishes attempt \p I, claimed by the caller, as Done and wakes the
  /// run's waiters. Returns the index + 1 of the corrective parked on it
  /// (0 = none), which the caller may now claim.
  uint32_t finish(uint32_t I) {
    const uint64_t Old = Words[I].V.fetch_or(Done, std::memory_order_seq_cst);
    EC.notifyAll();
    return static_cast<uint32_t>(Old) >> 2;
  }

  /// Parks corrective \p C on its predecessor \p P, whose runner claims it
  /// right after finish(P). Returns false when P is already Done: C is
  /// claimable now.
  bool park(uint32_t P, uint32_t C) {
    uint64_t W = Words[P].V.load(std::memory_order_seq_cst);
    do {
      if (W & Done)
        return false;
    } while (!Words[P].V.compare_exchange_weak(
        W, W | (uint64_t(C) + 1) << 2, std::memory_order_seq_cst));
    return true;
  }

  /// Waits until \p Ready() holds, parking on the eventcount between
  /// checks. \p Ready may claim an attempt for the caller to run
  /// (returning true). The 500 us park cap bounds every wait, also
  /// against state changes no notify covers. Returns false once
  /// \p Deadline passes with \p Ready() still false (time_point::max() =
  /// no deadline). \p Ready must read state its writer stores seq_cst
  /// before notifying.
  template <typename ReadyFn>
  bool waitUntil(ReadyFn Ready,
                 std::chrono::steady_clock::time_point Deadline =
                     std::chrono::steady_clock::time_point::max()) {
    const bool HasDeadline =
        Deadline != std::chrono::steady_clock::time_point::max();
    while (!Ready()) {
      if (HasDeadline && std::chrono::steady_clock::now() >= Deadline)
        return false;
      const uint64_t Ticket = EC.prepareWait();
      if (Ready()) {
        EC.cancelWait();
        return true;
      }
      EC.waitFor(Ticket, std::chrono::microseconds(500));
    }
    return true;
  }

  /// Merges the counters workers kept here into \p Stats. Called once
  /// every attempt of the run is Done.
  void mergeInto(SpeculationStats &Stats) const {
    Stats.Tasks += ChainedTasks.load(std::memory_order_relaxed);
    Stats.ContainedCrashes += ContainedCrashes.load(std::memory_order_relaxed);
    Stats.RunawayCancels += RunawayCancels.load(std::memory_order_relaxed);
  }

  EventCount EC;
  /// One claim word per cache line: neighbouring attempts are claimed
  /// and finished by different threads.
  struct alignas(64) Word {
    std::atomic<uint64_t> V{0};
  };
  std::vector<Word> Words;
  /// The wave drain tasks walk (generation in bits 32-63, attempt count
  /// in bits 0-31), published once its attempts are reset; the drain
  /// tasks submitted and not yet started, and when the last one was (ns).
  std::atomic<uint64_t> CurrentWave{0};
  std::atomic<int64_t> QueuedDrains{0}, SubmitNs{0};
  /// A drain task ran an attempt for longer than it waited to start
  /// since the validator last looked: waking the workers paid.
  std::atomic<bool> WakePaid{true};
  /// Attempts dispatched by Par-mode chainers. Workers must not touch the
  /// run's (non-atomic) SpeculationStats, so they count here and the
  /// validator merges before the run returns.
  std::atomic<int64_t> ChainedTasks{0};
  /// Shield containments and watchdog escalations, counted by workers
  /// (same rule as ChainedTasks: never the non-atomic stats) and merged
  /// by the validator before the run returns.
  std::atomic<int64_t> ContainedCrashes{0};
  std::atomic<int64_t> RunawayCancels{0};
};

/// The run-wide settings every speculative body of a run executes under.
struct BodyEnv {
  FaultPlan *FP;
  Tracer *Tr;
  TraceContext Ctx;
  /// The run's cooperative deadline (time_point::max() = none).
  std::chrono::steady_clock::time_point Deadline;
  /// SpecConfig::shield(): run bodies inside the signal shield.
  bool Shield;
  /// The per-attempt budget in ns (0 = none); only used under the shield.
  int64_t BudgetNs;

  /// Records a \p K event at index \p Idx for attempt \p Id (0 = a
  /// run-level event) when the run is traced.
  void trace(SpecEventKind K, int64_t Idx, uint64_t Id = 0) const {
    if (Tr)
      Tr->record(K, Idx, Id, Ctx);
  }
};

/// The absolute deadline of a run starting now (time_point::max() when
/// the config has none).
inline std::chrono::steady_clock::time_point
resolveDeadline(const SpecConfig &Cfg) {
  if (Cfg.deadline() <= std::chrono::nanoseconds::zero())
    return std::chrono::steady_clock::time_point::max();
  return deadlineAfter(std::chrono::steady_clock::now(), Cfg.deadline());
}

/// The settings of a run under \p Cfg starting now.
inline BodyEnv bodyEnv(const SpecConfig &Cfg) {
  return {Cfg.faults(),         Cfg.trace(),  Cfg.traceContext(),
          resolveDeadline(Cfg), Cfg.shield(), Cfg.attemptBudget().count()};
}

/// The executor a run under \p Cfg uses: the configured one, else the
/// default shard.
inline SpecExecutor &resolveExecutor(const SpecConfig &Cfg) {
  return Cfg.executor() ? *Cfg.executor() : *SpecExecutor::defaultShard();
}

/// Runs one speculative body — the step of the attempt lifecycle that
/// apply() and the iterate engine share. \p RunBody executes under the
/// attempt's cancel scope, after the BodyThrow probe; its exception
/// lands in A.Err. With the shield armed it runs inside shieldedCall,
/// after the CrashInBody and RunawayBody probes, with the budget folded
/// into the cooperative deadline so polling bodies bail on their own
/// (the watchdog only ever force-abandons bodies that never poll). A
/// contained fault sets A.Crashed and cancels the attempt — the caller
/// must drop whatever partial output escaped — and counts in
/// Run.ContainedCrashes; a body that ran past its budget, abandoned or
/// bailing, counts in Run.RunawayCancels.
template <typename RunFn>
void runSpeculativeBody(AttemptCore &A, SegRunSync &Run, const BodyEnv &Env,
                        RunFn &&RunBody) {
  using Clock = std::chrono::steady_clock;
  CancelScope Scope(&A.CancelFlag, Env.Deadline, &A.ObservedCancel);
  try {
    if (Env.FP)
      Env.FP->maybeThrow(FaultSite::BodyThrow);
    if (!Env.Shield) {
      RunBody();
      return;
    }
    Clock::time_point BudgetDeadline = Clock::time_point::max();
    if (Env.BudgetNs > 0)
      BudgetDeadline =
          deadlineAfter(Clock::now(), std::chrono::nanoseconds(Env.BudgetNs));
    CancelScope BudgetScope(&A.CancelFlag, BudgetDeadline, &A.ObservedCancel);
    CancelContext SavedCC = cancelContext();
    // Crash/runaway probes fire only here — inside the shield, before the
    // body constructs anything, so an injected fault's longjmp skips no
    // constructed locals.
    ShieldOutcome SO = shieldedCall(Env.BudgetNs, [&] {
      if (Env.FP) {
        Env.FP->maybeCrash(FaultSite::CrashInBody);
        Env.FP->maybeRunaway(FaultSite::RunawayBody);
      }
      RunBody();
    });
    if (SO.Fault != ContainedFault::None) {
      // The longjmp skipped every frame between the fault and the shield
      // (no destructors ran there), including any nested CancelScope:
      // restore the thread's cancel context by hand.
      cancelContext() = SavedCC;
      A.Crashed = true;
      A.CancelFlag.store(true, std::memory_order_seq_cst);
      Run.ContainedCrashes.fetch_add(1, std::memory_order_relaxed);
      Env.trace(SpecEventKind::CrashContained, A.UserIdx, A.TraceId);
    }
    const bool BudgetExpired =
        Env.BudgetNs > 0 && Clock::now() >= BudgetDeadline;
    if (SO.Fault == ContainedFault::Runaway ||
        (BudgetExpired && (SO.WatchdogCancelled ||
                           A.ObservedCancel.load(std::memory_order_relaxed)))) {
      Run.RunawayCancels.fetch_add(1, std::memory_order_relaxed);
      Env.trace(SpecEventKind::RunawayCancel, A.UserIdx, A.TraceId);
    }
  } catch (...) {
    A.Err = std::current_exception();
  }
}

/// Fills the config's `stats::Snapshot` sink (when set) on every exit
/// of a run, throws included: its `Spec` half with the run's statistics
/// and, given the run's executor, its `Exec` half with that executor's
/// activity across the run. Destroyed once every attempt of the run is
/// Done, so the delta covers the run's work.
class SnapshotGuard {
public:
  SnapshotGuard(const SpeculationStats &Spec, const SpecConfig &Cfg,
                SpecExecutor *Ex)
      : Spec(Spec), Snap(Cfg.statsSnapshotOut()), Ex(Snap ? Ex : nullptr) {
    if (this->Ex)
      Before = Ex->stats();
  }
  SnapshotGuard(const SnapshotGuard &) = delete;
  SnapshotGuard &operator=(const SnapshotGuard &) = delete;
  ~SnapshotGuard() {
    if (Snap)
      Snap->Spec = Spec;
    if (Ex)
      Snap->Exec = Ex->stats() - Before;
  }

private:
  const SpeculationStats &Spec;
  stats::Snapshot *const Snap;
  SpecExecutor *const Ex;
  ExecutorStats Before{};
};

/// Predictor candidate ids for profile-guided prediction. `User` is the
/// caller's own predictor; `Last` predicts the most recently validated
/// loop-carried value; `Stride` linearly extrapolates the last two
/// validated values (arithmetic T only). The ids are what ProfileSeed /
/// PredictorSwitch trace events and the ProfileStore's candidate names
/// refer to.
enum PredictorCandidate : int {
  CandUser = 0,
  CandLast = 1,
  CandStride = 2,
  NumCandidates = 3,
};

/// The stable ProfileStore keys of the candidates, by id.
inline constexpr const char *CandidateNames[NumCandidates] = {"user", "last",
                                                              "stride"};

/// The id of the candidate named \p Name; -1 for unknown names (a cold
/// site or a profile written by a build with different candidates).
inline int candidateId(const std::string &Name) {
  for (int C = 0; C < NumCandidates; ++C)
    if (Name == CandidateNames[C])
      return C;
  return -1;
}

/// Calls the user comparator under the ComparatorThrow injection site,
/// swallowing any exception: a throwing comparator yields "not equal"
/// (the pessimistic answer — the validator then re-executes) and sets
/// \p Threw so callers can account the prediction point as failed. User
/// comparator exceptions therefore never propagate from a speculative
/// validation path.
template <typename Eq, typename T>
bool guardedEqual(Eq &Equal, FaultPlan *FP, const T &A, const T &B,
                  bool &Threw) {
  try {
    if (FP)
      FP->maybeThrow(FaultSite::ComparatorThrow);
    return Equal(A, B);
  } catch (...) {
    Threw = true;
    return false;
  }
}

/// How the check step resolved a prediction point.
enum class Prediction {
  Hit,        ///< the guess equals the actual value
  Miss,       ///< a reliable comparison found them different
  ForcedMiss, ///< equal, but an injected ForceMispredict discarded it
  Failed,     ///< no guess, or the comparator threw
};

/// The check step (rule CHECK) at one prediction point, shared by
/// apply() and the iterate engine: counts the point in \p Stats and
/// compares \p Guess with \p Actual. Nothing reliably compared — no
/// guess, a throwing comparator — is a failed prediction, never a
/// misprediction. A misprediction records a Mispredict event at \p Idx
/// for attempt \p Id.
template <typename T, typename Eq>
Prediction checkPrediction(const std::optional<T> &Guess, const T &Actual,
                           Eq &Equal, const BodyEnv &Env, int64_t Idx,
                           uint64_t Id, SpeculationStats &Stats) {
  ++Stats.Predictions;
  bool Threw = false;
  const bool Same =
      Guess && guardedEqual(Equal, Env.FP, *Guess, Actual, Threw);
  // Injection site: discard a correct guess, forcing the full
  // misprediction/re-execution machinery.
  if (Same && !(Env.FP && Env.FP->shouldFire(FaultSite::ForceMispredict)))
    return Prediction::Hit;
  if (!Guess || Threw) {
    ++Stats.FailedPredictions;
    return Prediction::Failed;
  }
  ++Stats.Mispredictions;
  Env.trace(SpecEventKind::Mispredict, Idx, Id);
  return Same ? Prediction::ForcedMiss : Prediction::Miss;
}

/// apply()'s engine. One speculative attempt runs the predictor and then
/// the consumer on its guess, concurrently with the producer (rule
/// SPEC-APPLY); the check step (rule CHECK) then accepts that attempt or
/// re-executes the consumer with the produced value. Every exit —
/// accept, re-execution, producer exception, timeout — goes through one
/// cancel → quiesce → resolve path. The statistics reach statsOut() on
/// every exit, throws included.
template <typename T, typename ProducerFn, typename PredictorFn,
          typename ConsumerFn, typename Eq>
SpecResult<void> applyImpl(ProducerFn &Producer, PredictorFn &Predictor,
                           ConsumerFn &Consumer, const SpecConfig &Cfg,
                           Eq &Equal) {
  SpecResult<void> Result;
  SpeculationStats &Stats = Result.Stats;
  // Nested speculation inside a shielded body: this coordination code
  // is authoritative, so a crash here must not be contained (it would
  // longjmp past a live run other threads still reference).
  ShieldPause PauseOuter;
  SpecExecutor &Ex = resolveExecutor(Cfg);
  SnapshotGuard Guard(Stats, Cfg, &Ex);
  const BodyEnv Env = bodyEnv(Cfg);
  if (Env.Shield)
    installSignalShield();

  // The task touches A, Env and the callables only after it claims the
  // attempt, and this frame returns only once the attempt is Done.
  const auto RunRef = std::make_shared<SegRunSync>(1);
  SegRunSync &Run = *RunRef;
  ApplyAttempt<T> A;
  A.TraceId = Env.Tr ? Env.Tr->newAttemptId() : 0;
  ++Stats.Tasks;
  Env.trace(SpecEventKind::Dispatch, 0, A.TraceId);
  // The attempt, run by whichever thread claims it: the predictor, then
  // the consumer on its guess.
  auto RunAttempt = [&A, &Run, &Env, &Predictor, &Consumer] {
    Env.trace(SpecEventKind::Start, 0, A.TraceId);
    std::optional<T> G;
    {
      // Under the attempt's cancellation too: eager producer abort
      // (Section 3.3) stops a predictor that polls.
      CancelScope Scope(&A.CancelFlag, Env.Deadline,
                                &A.ObservedCancel);
      try {
        if (Env.FP)
          Env.FP->maybeThrow(FaultSite::PredictorThrow);
        G.emplace(Predictor());
      } catch (...) {
        // A failing predictor leaves no guess: a failed prediction,
        // resolved by the check step's re-execution.
      }
    }
    A.Guess = G;
    A.GuessReady.store(true, std::memory_order_seq_cst);
    Run.EC.notifyAll();
    // Injection site: trip the attempt's cancellation flag for no
    // reason, right between guess publication and the consumer's
    // decision to run.
    if (Env.FP && Env.FP->shouldFire(FaultSite::SpuriousCancel))
      A.CancelFlag.store(true, std::memory_order_seq_cst);
    // Invariant 5: a consumer cancelled before it starts never runs.
    if (G && !A.CancelFlag.load(std::memory_order_seq_cst))
      runSpeculativeBody(A, Run, Env, [&] { Consumer(*G); });
    Env.trace(SpecEventKind::Finish, 0, A.TraceId);
    Run.finish(0); // Done: the caller's frame may be gone after this
  };
  Ex.submit([RunRef, &RunAttempt] {
    // Invariant 3: popped after the caller claimed the attempt, the
    // task touches only *RunRef, which it keeps alive.
    if (RunRef->claim(0, 0))
      RunAttempt();
  });

  std::optional<T> Produced;
  std::exception_ptr ProducerErr;
  try {
    Produced = Producer();
  } catch (...) {
    ProducerErr = std::current_exception();
  }

  // The check step: compare the guess with the product. A producer
  // exception skips it — nothing the speculation did is observable
  // under rollback freedom, and its exception (if any) is suppressed.
  bool Accept = false;
  bool TimedOut = false;
  if (!ProducerErr) {
    // Section 3.3: with eager producer abort, a producer that beat the
    // predictor leaves speculation nothing to pay off, so go
    // non-speculative — a prediction point resolved without a guess.
    const bool Eager = Cfg.eagerProducerAbort() &&
                       !A.GuessReady.load(std::memory_order_seq_cst);
    const std::optional<T> NoGuess;
    if (!Eager && !Run.waitUntil(
                      [&] {
                        // Invariant 6: an attempt no worker has started
                        // runs right here, exactly as a worker would run
                        // it, before the check.
                        if (Run.claim(0, 0))
                          RunAttempt();
                        return A.GuessReady.load(std::memory_order_seq_cst);
                      },
                      Env.Deadline)) {
      TimedOut = true;
    } else if (checkPrediction(Eager ? NoGuess : A.Guess, *Produced, Equal,
                               Env, 0, A.TraceId,
                               Stats) == Prediction::Hit) {
      TimedOut = !Run.waitUntil([&Run] { return Run.done(0); },
                                Env.Deadline);
      // Accept only a consumer that ran to completion, was never
      // cancelled (a contained crash cancels) and never *observed*
      // cancellation — a spuriously cancelled or deadline-bailed
      // consumer may have acted partially.
      Accept = !TimedOut && !A.CancelFlag.load(std::memory_order_seq_cst) &&
               !A.ObservedCancel.load(std::memory_order_relaxed);
    }
  }

  // Rule CHECK's `cancel tc`, then quiesce: the speculative consumer
  // retires before anything below runs, so a re-execution's writes
  // land last.
  if (!Accept) {
    if (Env.Tr && !Run.done(0) &&
        !A.CancelFlag.load(std::memory_order_acquire))
      Env.trace(SpecEventKind::Cancel, 0, A.TraceId);
    A.CancelFlag.store(true, std::memory_order_seq_cst);
  }
  // Retract the attempt if it is still unclaimed (cancelled, its
  // consumer never runs), else wait for its runner — never under the
  // deadline.
  if (Run.claim(0, 0))
    RunAttempt();
  Run.waitUntil([&Run] { return Run.done(0); });
  Run.mergeInto(Stats);
  if (ProducerErr)
    std::rethrow_exception(ProducerErr);
  // Like the iterate engine's validation: a spent budget is reported,
  // never accepted past or spent on an authoritative re-execution.
  if (TimedOut || std::chrono::steady_clock::now() >= Env.Deadline) {
    Env.trace(SpecEventKind::Timeout, 0);
    throw SpecTimeoutError(Cfg.deadline());
  }
  if (Accept) {
    Env.trace(SpecEventKind::ValidateAccept, 0, A.TraceId);
    if (A.Err)
      std::rethrow_exception(A.Err);
  } else {
    // The consumer re-executes with the real value (rule CHECK's
    // `vc xp`) on this thread, as authoritative code.
    ++Stats.Reexecutions;
    Env.trace(SpecEventKind::Reexecute, 0);
    Consumer(*Produced);
  }
  Env.trace(SpecEventKind::Finalize, 0);
  return Result;
}

/// The engine under every iterate flavour: *wave-based* speculative
/// iteration over segments of [Low, High).
///
/// The iteration space is consumed in waves of up to
/// `W = max(8, 4 * workers)` segments. Per wave the validator (the
/// calling thread) plans the segment boundaries, computes the
/// predictions (on the calling thread, in segment order, so FaultPlan
/// probe sequences stay deterministic), dispatches one attempt per
/// usable prediction, and validates the wave's segments strictly in
/// order. Attempts are preallocated — slot K owns attempts 2K and 2K+1,
/// its initial dispatch and Par-mode correctives — and reset in place
/// for the next wave: together with the executor's TaskRef pooling the
/// steady-state cost of a segment is zero heap allocations.
///
/// Synchronisation is lock-free on the hot path. An attempt is run by
/// whichever thread claims it first (SegRunSync): a worker running one
/// of the wave's drain tasks (at most one per worker, each claiming in
/// segment order), or the validator waiting on its slot. The runner
/// publishes with one seq_cst Done RMW on the attempt's claim word,
/// which also wakes parked waiters. The validator runs only the
/// unclaimed attempts of the slot it waits on and otherwise parks, so
/// nested runs stay deadlock-free without draining the executor.
///
/// The claim words alone describe a slot. Attempt I is in the current
/// wave iff its word carries the wave's generation, stored after the
/// attempt's fields. Only one thread at a time chains into slot NK: its
/// correctives come only from slot NK-1's two attempts, which invariant
/// 4 serialises. And since invariant 4 starts attempt 2K+1 only once
/// 2K is Done, the slot's last finisher is its higher-indexed attempt
/// that executed.
///
/// Waves also cap in-flight speculation, and between waves the autotuner
/// may re-size `CurChunk` (chunked forms only) from the measured body
/// times and the wave's misprediction rate.
///
/// Reported indices (finalizers, telemetry) are `IdxBase` plus the
/// segment ordinal: the plain forms run at chunk 1 with `IdxBase = Low`,
/// so they report iteration indices; the chunked forms report ordinals.
///
/// \p Stats is filled in place (it survives throws via the caller's
/// SnapshotGuard). Only the validator touches it; workers count
/// chained dispatches in SegRunSync::ChainedTasks, merged before run()
/// returns.
template <typename T, typename U, typename InitFn, typename BodyFn,
          typename PredictorFn, typename FinalFn, typename Eq>
class SegEngine {
  using Attempt = SegAttempt<T, U>;
  using Clock = std::chrono::steady_clock;

public:
  SegEngine(int64_t Low, int64_t High, int64_t ChunkInit, int64_t IdxBase,
            int64_t AutotuneTargetNs, InitFn &Init, BodyFn &Body,
            PredictorFn &Predictor, FinalFn &Finalize, const SpecConfig &Cfg,
            SpecExecutor &Ex, Eq &Equal, SpeculationStats &Stats)
      : Low(Low), High(High), CurChunk(ChunkInit), IdxBase(IdxBase),
        AutoTargetNs(AutotuneTargetNs),
        Init(Init), Body(Body), Predictor(Predictor), Finalize(Finalize),
        Ex(Ex), Equal(Equal), Stats(Stats), Mode(Cfg.mode()),
        Env(bodyEnv(Cfg)), CfgDeadline(Cfg.deadline()),
        HasDeadline(Env.Deadline != Clock::time_point::max()),
        DegradeThresh(Cfg.degradeThreshold()),
        DegradeWin(Cfg.degradeThreshold() >= 0 ? Cfg.degradeWindow() : 0),
        Prof(Cfg.profile()), SiteName(&Cfg.profileSite()),
        ProfOn(Prof != nullptr && !SiteName->empty()),
        W(std::max<int64_t>(8, 4 * static_cast<int64_t>(Ex.numThreads()))),
        MeasureBody(AutotuneTargetNs > 0),
        Run(std::make_shared<SegRunSync>(static_cast<size_t>(2 * W))),
        AttemptStore(static_cast<size_t>(2 * W)),
        WavePred(static_cast<size_t>(W)),
        WaveB(static_cast<size_t>(W)), WaveE(static_cast<size_t>(W)),
        WaveUser(static_cast<size_t>(W)),
        WaveCand(ProfOn ? static_cast<size_t>(W) : 0) {
    for (int64_t I = 0; I < 2 * W; ++I)
      AttemptStore[static_cast<size_t>(I)].Idx = static_cast<uint32_t>(I);
    // Autotune ceiling: never grow a chunk past the size that would
    // leave fewer than two segments per worker (no overlap left to
    // speculate with), and never below the caller's initial size as a
    // ceiling. The span of an int64 range only fits a uint64.
    const uint64_t PerPair =
        (static_cast<uint64_t>(High) - static_cast<uint64_t>(Low)) /
        std::max<uint64_t>(1, 2 * static_cast<uint64_t>(Ex.numThreads()));
    MaxChunk = std::max<int64_t>(
        CurChunk, static_cast<int64_t>(std::min<uint64_t>(
                      PerPair, std::numeric_limits<int64_t>::max())));
  }

  SegEngine(const SegEngine &) = delete;
  SegEngine &operator=(const SegEngine &) = delete;

  T run() {
    // Nested run inside a shielded body: the validator loop here is
    // authoritative coordination — a crash in it must not be contained
    // by the *outer* attempt's shield (the longjmp would skip past
    // this live engine while workers still reference it). Attempts
    // this run dispatches re-arm their own shields in runAttempt.
    ShieldPause PauseOuter;
    if (Env.Shield)
      installSignalShield();
    if (ProfOn)
      profileSeed();
    // The non-speculative initial value of the loop-carried state; its
    // exception propagates (speculative prediction points swallow
    // theirs into "failed prediction" instead — see planWave).
    T Correct = Predictor(Low);
    // Sliding window of prediction-point outcomes feeding the degrade
    // monitor (1 = mispredicted or failed).
    std::vector<char> WinBuf(static_cast<size_t>(DegradeWin), 0);
    int WinCount = 0, WinPos = 0, WinBad = 0;
    int64_t NextB = Low;  // first iteration not yet planned
    int64_t NextOrd = 0;  // its segment ordinal
    bool FirstSegment = true;

    while (NextB < High && !TimedOut && !FirstValidErr) {
      if (Degraded) {
        // Adaptive sequential fallback: the remaining segments run
        // in order on this thread, exactly once, never dispatched.
        const int64_t B = NextB;
        const int64_t UI = IdxBase + NextOrd;
        NextB = segmentEnd(B);
        ++NextOrd;
        if (HasDeadline && Clock::now() >= Env.Deadline) {
          TimedOut = true;
          TimeoutIdx = UI;
          break;
        }
        ++Stats.DegradedChunks;
        Env.trace(SpecEventKind::Degrade, UI);
        int64_t SegNs = 0;
        if (!runSegment(B, NextB, UI, Correct, SegNs))
          break;
        continue;
      }

      planWave(NextB, NextOrd, FirstSegment, Correct);
      dispatchWave();

      // Validate the wave's segments strictly in order (the chain of
      // `check` threads in the formal semantics).
      for (int64_t K = 0; K < WaveCount && !TimedOut && !FirstValidErr;
           ++K) {
        const int64_t UI = WaveUser[static_cast<size_t>(K)];
        if (HasDeadline && Clock::now() >= Env.Deadline) {
          TimedOut = true;
          TimeoutIdx = UI;
          break;
        }
        if (DegradeWin > 0 && WinCount == DegradeWin &&
            WinBad > DegradeThresh * DegradeWin) {
          // The window is saturated with bad prediction points:
          // speculation is burning work. With a profile attached, first
          // try to switch to a candidate predictor that has been
          // hitting where the active one misses — the "deoptimize to a
          // better guess" move; each candidate gets at most one shot
          // per run, so a hopeless site still converges to sequential.
          ++RunDegradeTrips;
          const int Next = ProfOn ? pickSwitchCandidate() : -1;
          if (Next >= 0) {
            ActiveCand = Next;
            CandTried[static_cast<size_t>(Next)] = true;
            ++Stats.PredictorSwitches;
            Env.trace(SpecEventKind::PredictorSwitch, Next);
            // Fresh window: the new candidate drives the *next* wave's
            // predictions, and it deserves a full window before the
            // monitor may trip again.
            std::fill(WinBuf.begin(), WinBuf.end(), 0);
            WinCount = WinPos = WinBad = 0;
          } else {
            // No better candidate: retire the rest of the wave (segments
            // beyond it were never dispatched), so the in-order writes
            // land last, and rewind to this segment. The fallback at the
            // top of the loop runs it and every later one.
            Degraded = true;
            TimedOut = !drainWave(K, Env.Deadline);
            NextB = WaveB[static_cast<size_t>(K)];
            NextOrd = WaveOrd0 + K;
            break;
          }
        }

        const int64_t GlobalOrd = WaveOrd0 + K;
        if (ProfOn) {
          // `Correct` here is the true value *entering* this segment:
          // shadow-score every candidate's prediction against it
          // (internal accounting — no fault-plan probes, and a
          // throwing comparator just skips the sample), then feed the
          // observation to the stride extrapolator.
          if (GlobalOrd > 0) {
            const auto &CP = WaveCand[static_cast<size_t>(K)];
            for (int C = 0; C < NumCandidates; ++C) {
              if (!CP[static_cast<size_t>(C)])
                continue;
              bool Th = false;
              if (guardedEqual(Equal, nullptr, *CP[static_cast<size_t>(C)],
                               Correct, Th))
                ++CandHits[static_cast<size_t>(C)];
              else if (!Th)
                ++CandMiss[static_cast<size_t>(C)];
            }
          }
          observe(WaveB[static_cast<size_t>(K)], Correct);
        }
        // The first segment's input is the run's initial value, not a
        // prediction. A bad prediction point re-executes below (a
        // missing prediction dispatched nothing).
        const Prediction Check =
            GlobalOrd > 0 ? checkPrediction(WavePred[static_cast<size_t>(K)],
                                            Correct, Equal, Env, UI, 0, Stats)
                          : Prediction::Hit;
        const bool SlotBad = Check != Prediction::Hit;
        const bool ForceReexec = Check == Prediction::ForcedMiss;

        // Cancel attempts whose input is already known wrong, then
        // quiesce the slot. (Membership is final: chains into this
        // slot originate from the previous slot, which was quiesced
        // before we advanced, and each chain's reset happens-before its
        // chainer's Done.) An attempt is acceptable only if it ran
        // with the correct input, finished last in its slot (only then
        // are its writes the final ones), and was neither
        // cancelled nor *observed* cancellation — a spuriously
        // cancelled or deadline-bailed body may have returned a
        // partial value. Otherwise the validator re-executes, making
        // its own writes final (condition (e)'s re-execution).
        cancelSlot(K, UI, ForceReexec ? nullptr : &Correct);
        if (!quiesceSlot(K, Env.Deadline)) {
          TimedOut = true;
          TimeoutIdx = UI;
          break;
        }
        if (DegradeWin > 0 && GlobalOrd > 0) {
          if (WinCount == DegradeWin)
            WinBad -= WinBuf[static_cast<size_t>(WinPos)];
          else
            ++WinCount;
          WinBuf[static_cast<size_t>(WinPos)] = SlotBad ? 1 : 0;
          WinBad += SlotBad ? 1 : 0;
          WinPos = (WinPos + 1) % DegradeWin;
        }

        Attempt *Match = acceptableAttempt(K, ForceReexec, Correct);
        int64_t SegNs = 0;
        if (Match) {
          Env.trace(SpecEventKind::ValidateAccept, UI, Match->TraceId);
          if (Match->Err) {
            FirstValidErr = Match->Err;
            break;
          }
          Correct = *Match->Out;
          SegNs = Match->BodyNs;
          U L = std::move(*Match->Local);
          if (!finalizeSegment(UI, L))
            break;
        } else {
          // Misprediction (or a stale valid run that was overwritten
          // by a later garbage attempt): re-execute on the validator
          // thread (rule CHECK's consumer re-execution). The slot is
          // quiescent, so this execution's writes land last.
          if (HasDeadline && Clock::now() >= Env.Deadline) {
            // Don't start an authoritative chunk we already have no
            // budget for — the timeout path below reports instead.
            TimedOut = true;
            TimeoutIdx = UI;
            break;
          }
          ++Stats.Reexecutions;
          Env.trace(SpecEventKind::Reexecute, UI);
          if (!runSegment(WaveB[static_cast<size_t>(K)],
                          WaveE[static_cast<size_t>(K)], UI, Correct,
                          SegNs))
            break;
        }
        if (MeasureBody) {
          WaveNs += SegNs;
          ++WaveMeasured;
          if (GlobalOrd > 0) {
            ++WaveBoundaries;
            WaveBad += SlotBad ? 1 : 0;
          }
        }
      }

      if (TimedOut || FirstValidErr)
        break; // the drain below retires whatever is still in flight
      if (!Degraded)
        autotuneAdjust();
    }

    // A run that stopped mid-wave (timeout, exception) retires whatever
    // speculation is still in flight, not under the deadline; every
    // other exit has quiesced the whole wave. Once every attempt is Done
    // the run is over: its queued drain tasks fail their claims and
    // touch only the claim block.
    if (TimedOut || FirstValidErr)
      drainWave(0, Clock::time_point::max());
    Run->mergeInto(Stats);
    // The segmentation the run actually ended on — after any autotune
    // resizes and regardless of how the run exits. DegradedChunks (and
    // chunk ordinals generally) count segments of *this* dynamic grid,
    // not the configured fixed grid.
    Stats.FinalChunk = CurChunk;
    if (ProfOn)
      profileRecord();
    if (TimedOut) {
      Env.trace(SpecEventKind::Timeout, TimeoutIdx);
      throw SpecTimeoutError(CfgDeadline);
    }
    if (FirstValidErr)
      std::rethrow_exception(FirstValidErr);
    return Correct;
  }

private:
  //===---------------- wave planning and dispatch --------------------===//

  /// Plans up to W segments starting at \p NextB: boundaries, user
  /// indices, and predictions. Predictions are computed here on the
  /// calling thread, in segment order — a throwing predictor (or an
  /// injected PredictorThrow) leaves the prediction disengaged, a
  /// *failed* prediction point with no attempt dispatched.
  void planWave(int64_t &NextB, int64_t &NextOrd, bool &FirstSegment,
                const T &Correct) {
    WaveOrd0 = NextOrd;
    WaveCount = 0;
    int64_t B = NextB;
    while (WaveCount < W && B < High) {
      const size_t K = static_cast<size_t>(WaveCount);
      const int64_t E = segmentEnd(B);
      WaveB[K] = B;
      WaveE[K] = E;
      WaveUser[K] = IdxBase + NextOrd;
      if (FirstSegment) {
        // The run's first segment consumes the non-speculative initial
        // value — no speculation about its input, no prediction point.
        WavePred[K].emplace(Correct);
        if (ProfOn)
          for (auto &CP : WaveCand[K])
            CP.reset();
        FirstSegment = false;
      } else if (!ProfOn) {
        WavePred[K].reset();
        try {
          if (Env.FP)
            Env.FP->maybeThrow(FaultSite::PredictorThrow);
          WavePred[K].emplace(Predictor(B));
        } catch (...) {
        }
      } else {
        // Profile-guided: compute *every* candidate's prediction (the
        // user predictor is assumed cheap relative to bodies — it was
        // already called here per segment), dispatch on the active
        // one, shadow-score the rest at validation. `Correct` is the
        // last validated value — exactly what the last-value
        // candidate predicts for every segment of this wave.
        auto &CP = WaveCand[K];
        for (auto &C : CP)
          C.reset();
        try {
          if (Env.FP)
            Env.FP->maybeThrow(FaultSite::PredictorThrow);
          CP[CandUser].emplace(Predictor(B));
        } catch (...) {
        }
        CP[CandLast].emplace(Correct);
        stridePredict(B, CP[CandStride]);
        WavePred[K] = CP[static_cast<size_t>(ActiveCand)];
      }
      ++NextOrd;
      ++WaveCount;
      B = E;
    }
    NextB = B;
  }

  /// The end of the segment starting at \p B < High: CurChunk iterations
  /// on, clipped to High. The distance to High is taken as a uint64, the
  /// only type that holds every int64 distance.
  int64_t segmentEnd(int64_t B) const {
    const uint64_t Left = static_cast<uint64_t>(High) - static_cast<uint64_t>(B);
    return Left <= static_cast<uint64_t>(CurChunk) ? High : B + CurChunk;
  }

  /// Installs slot K's first attempt (attempt 2K) for each usable
  /// prediction, then submits drain tasks for them. Two passes: every
  /// slot must be fully initialised before the first task runs, because
  /// an early finisher may immediately chain into a later slot.
  void dispatchWave() {
    // A new claim generation: tasks still queued from earlier waves
    // can no longer claim the attempts reset for this one, and no
    // attempt of an earlier wave is a member of this one's slots.
    ++Wave;
    int64_t Dispatched = 0;
    for (int64_t K = 0; K < WaveCount; ++K) {
      if (!WavePred[static_cast<size_t>(K)])
        continue;
      Attempt *A = &AttemptStore[static_cast<size_t>(2 * K)];
      resetAttempt(A, K, *WavePred[static_cast<size_t>(K)]);
      ++Dispatched;
      Env.trace(SpecEventKind::Dispatch, A->UserIdx, A->TraceId);
    }
    Stats.Tasks += Dispatched;
    Run->CurrentWave.store(uint64_t(Wave) << 32 | uint64_t(2 * WaveCount),
                           std::memory_order_release);
    // Wake every worker only while waking pays (WakePaid); otherwise one
    // drain task picks up what the validator does not run itself.
    submitDrains(Run->WakePaid.exchange(false) ? Dispatched : 1);
  }

  void resetAttempt(Attempt *A, int64_t K, const T &In) {
    A->In.emplace(In);
    A->Out.reset();
    A->Local.reset();
    A->Err = nullptr;
    A->UserIdx = WaveUser[static_cast<size_t>(K)];
    A->BodyNs = 0;
    A->Crashed = false;
    A->CancelFlag.store(false, std::memory_order_relaxed);
    A->ObservedCancel.store(false, std::memory_order_relaxed);
    A->TraceId = Env.Tr ? Env.Tr->newAttemptId() : 0;
    Run->reset(A->Idx, Wave);
  }

  //===---------------- attempts: claim, run, publish -------------------===//

  /// Submits up to \p N drain tasks, keeping at most one per worker
  /// queued (the validator runs what workers do not claim). A drain task
  /// walks the current wave in segment order, running each attempt it
  /// claims, until a walk claims nothing, so a queued task stays useful
  /// while its run lasts; it reports whether an attempt outlasted its own
  /// wait to start (WakePaid). Its thunk fits TaskRef's inline storage.
  void submitDrains(int64_t N) {
    std::atomic<int64_t> &Queued = Run->QueuedDrains;
    N = std::min(N, static_cast<int64_t>(Ex.numThreads()) -
                        Queued.load(std::memory_order_relaxed));
    if (N > 0)
      Run->SubmitNs.store(nowNs(), std::memory_order_relaxed);
    for (; N > 0; --N) {
      Queued.fetch_add(1, std::memory_order_relaxed);
      Ex.submit([RunRef = Run, this] {
        SegRunSync &Sync = *RunRef;
        Sync.QueuedDrains.fetch_sub(1, std::memory_order_relaxed);
        const int64_t Waited =
            nowNs() - Sync.SubmitNs.load(std::memory_order_relaxed);
        // Invariant 3: a claim fails once its attempt was claimed
        // elsewhere or its wave is over, and until one succeeds the task
        // touches only *RunRef, which it keeps alive — never this
        // engine, which may be gone.
        for (bool Ran = true; Ran;) {
          Ran = false;
          const uint64_t Cur = Sync.CurrentWave.load(std::memory_order_acquire);
          for (uint32_t I = 0; I < static_cast<uint32_t>(Cur); ++I)
            if (Sync.claim(I, static_cast<uint32_t>(Cur >> 32))) {
              const int64_t T0 = nowNs();
              runClaimed(&AttemptStore[I]);
              if (nowNs() - T0 > Waited)
                Sync.WakePaid.store(true, std::memory_order_relaxed);
              Ran = true;
            }
        }
      });
    }
  }

  static int64_t nowNs() {
    return std::chrono::nanoseconds(Clock::now().time_since_epoch()).count();
  }

  /// Runs \p A, claimed by the calling thread, and then each corrective
  /// its finish hands over.
  void runClaimed(Attempt *A) {
    while (A)
      A = runAttempt(A);
  }

  /// Runs one attempt the calling thread has claimed, then (in Par mode)
  /// chains a corrective attempt for the next slot if our output
  /// contradicts its prediction, and publishes Done. Returns the
  /// corrective parked on \p A, claimed for the caller to run next, or
  /// nullptr.
  Attempt *runAttempt(Attempt *A) {
    // Invariant 5: an attempt cancelled before anyone claimed it never
    // runs its body — that is how the validator retracts the attempts
    // it cancels (misprediction, degrade, teardown) and then claims. One
    // cancelled after its claim still runs and may observe the flag,
    // as the cooperative-cancellation contract requires.
    const bool Skip = A->CancelFlag.load(std::memory_order_seq_cst);
    // Injection site: trip this attempt's cancellation flag even
    // though its input may be perfectly valid. The validator's
    // not-cancelled acceptance check turns this into a re-execution,
    // never a wrong result.
    if (!Skip && Env.FP && Env.FP->shouldFire(FaultSite::SpuriousCancel))
      A->CancelFlag.store(true, std::memory_order_seq_cst);
    Env.trace(SpecEventKind::Start, A->UserIdx, A->TraceId);
    const size_t K = A->Idx / 2;
    std::optional<T> Out;
    std::optional<U> Local;
    if (!Skip) {
      runSpeculativeBody(*A, *Run, Env, [&] {
        // Copy: In stays for the validator's comparisons.
        auto [Acc, L] = runBody(WaveB[K], WaveE[K], *A->In, A->BodyNs);
        Out.emplace(std::move(Acc));
        Local.emplace(std::move(L));
      });
      if (A->Crashed) {
        // Drop whatever partial state escaped the contained body.
        Out.reset();
        Local.reset();
      }
    }
    // Parallel validation: if the next slot's prediction contradicts
    // our (speculative) output, append a corrective attempt for it
    // before publishing our own completion — the validator's quiesce
    // of our slot then happens-after the append, so it always sees
    // final slot membership.
    Attempt *Chained = nullptr;
    if (Mode == ValidationMode::Par && Out &&
        static_cast<int64_t>(K) + 1 < WaveCount &&
        !A->CancelFlag.load(std::memory_order_seq_cst) &&
        !A->ObservedCancel.load(std::memory_order_relaxed))
      Chained = tryChain(K + 1, *Out);
    // Publish: every plain field first (the runner already wrote Err
    // and Crashed), and every trace event, then Done.
    A->Out = std::move(Out);
    A->Local = std::move(Local);
    Env.trace(SpecEventKind::Finish, A->UserIdx, A->TraceId);
    if (Chained) {
      Env.trace(SpecEventKind::Chain, Chained->UserIdx, Chained->TraceId);
      Env.trace(SpecEventKind::Dispatch, Chained->UserIdx, Chained->TraceId);
    }
    SegRunSync &Sync = *Run;
    // Invariant 4: a corrective is claimable only once its predecessor
    // is Done. Without a predecessor (an even attempt), or with one
    // already Done, a drain task is submitted for it now; otherwise it
    // parks on the predecessor's claim word, and the predecessor's
    // runner claims it right after publishing Done.
    if (Chained && (Chained->Idx % 2 == 0 ||
                    !Sync.park(Chained->Idx - 1, Chained->Idx)))
      submitDrains(1);
    const uint32_t Gen = Wave;
    // Done. From here on the validator may accept and recycle A, or
    // end the run: this thread touches only Sync (its caller keeps it
    // alive), unless it claims the parked corrective, which keeps the
    // run going until that corrective is Done.
    const uint32_t Parked = Sync.finish(A->Idx);
    if (Parked && Sync.claim(Parked - 1, Gen))
      return &AttemptStore[Parked - 1];
    return nullptr;
  }

  /// Appends a corrective attempt with input \p OutVal to slot \p NK if
  /// no equivalent attempt (or prediction) exists there: the slot's
  /// first attempt not in this wave, or none when both are. The caller
  /// is the only thread chaining into NK, and the attempt joins the
  /// slot when its reset stores the wave's generation.
  Attempt *tryChain(int64_t NK, const T &OutVal) {
    bool CmpThrew = false;
    bool Exists =
        WavePred[static_cast<size_t>(NK)] &&
        guardedEqual(Equal, Env.FP, *WavePred[static_cast<size_t>(NK)],
                     OutVal, CmpThrew);
    Attempt *Free = nullptr;
    for (uint32_t I = 2 * NK; I < 2 * NK + 2 && !Exists; ++I) {
      if (!Run->inWave(I, Wave))
        Free = Free ? Free : &AttemptStore[I];
      else
        Exists = guardedEqual(Equal, Env.FP, *AttemptStore[I].In, OutVal,
                              CmpThrew);
    }
    // Don't chain on an unreliable comparison: a throwing comparator
    // must never trigger extra speculation.
    if (Exists || CmpThrew || !Free)
      return nullptr;
    resetAttempt(Free, NK, OutVal);
    Run->ChainedTasks.fetch_add(1, std::memory_order_relaxed);
    return Free;
  }

  //===---------------- validator-side helpers -------------------------===//

  /// Cancels slot \p K's attempts: all of them, or, given \p Correct,
  /// those whose input is already known wrong (telemetry: a Cancel
  /// event per attempt that was neither done nor already cancelled).
  void cancelSlot(int64_t K, int64_t UI, const T *Correct = nullptr) {
    for (uint32_t I = 2 * K; I < 2 * K + 2; ++I) {
      if (!Run->inWave(I, Wave))
        continue;
      Attempt &A = AttemptStore[I];
      bool InCmpThrew = false;
      if (Correct && guardedEqual(Equal, Env.FP, *A.In, *Correct, InCmpThrew))
        continue;
      if (Env.Tr && !Run->done(I) &&
          !A.CancelFlag.load(std::memory_order_acquire))
        Env.trace(SpecEventKind::Cancel, UI, A.TraceId);
      A.CancelFlag.store(true, std::memory_order_seq_cst);
    }
  }

  /// One scan of slot \p K by the validator waiting on it: sets
  /// \p AllDone when every attempt is Done, and otherwise claims and
  /// returns the first attempt of the slot that is unclaimed and
  /// claimable (invariant 4: its predecessor, if any, is Done), or
  /// nullptr when every pending attempt is running on another thread
  /// or parked on one that is. Drain tasks claim the same way.
  Attempt *claimInSlot(int64_t K, bool &AllDone) {
    AllDone = true;
    for (uint32_t I = 2 * K; I < 2 * K + 2; ++I) {
      if (!Run->inWave(I, Wave) || Run->done(I))
        continue;
      AllDone = false;
      if (Run->claim(I, Wave))
        return &AttemptStore[I];
    }
    return nullptr;
  }

  /// Waits until every attempt in slot \p K is Done. Returns false if
  /// \p Until passed first. Invariant 2: the waiting thread runs only
  /// this slot's unclaimed attempts of its own run and otherwise parks
  /// on the run's eventcount; it never runs another slot's or another
  /// run's attempt and never pops an executor task.
  /// Deadlock freedom for nested runs is therefore local: every awaited
  /// attempt is Done, claimable right here, running on some thread, or
  /// parked on a predecessor that is one of these.
  bool quiesceSlot(int64_t K, Clock::time_point Until) {
    for (;;) {
      Attempt *Mine = nullptr;
      bool AllDone = false;
      if (!Run->waitUntil(
              [&] {
                Mine = claimInSlot(K, AllDone);
                return Mine || AllDone;
              },
              Until))
        return false;
      if (!Mine)
        return true;
      runClaimed(Mine);
    }
  }

  /// The attempt the validator may accept for slot \p K, or nullptr:
  /// the last attempt that actually executed (skipped correctives —
  /// cancelled during their pre-wait — wrote nothing and don't count),
  /// provided it ran with the correct input and was neither cancelled
  /// nor observed cancellation. The slot is quiesced when called.
  Attempt *acceptableAttempt(int64_t K, bool ForceReexec,
                             const T &Correct) {
    Attempt *LastReal = nullptr;
    // The last finisher is the higher index that executed. Crashed
    // attempts compete for that position (their partial writes may have
    // landed last, so the slot needs a re-execution) but are never
    // themselves acceptable.
    for (uint32_t I = 2 * K + 2; I-- > 2 * K && !LastReal;) {
      Attempt &A = AttemptStore[I];
      if (Run->inWave(I, Wave) && (A.Out || A.Err || A.Crashed))
        LastReal = &A;
    }
    if (!LastReal || ForceReexec || LastReal->Crashed ||
        LastReal->CancelFlag.load(std::memory_order_seq_cst) ||
        LastReal->ObservedCancel.load(std::memory_order_relaxed))
      return nullptr;
    bool MatchCmpThrew = false;
    if (!guardedEqual(Equal, Env.FP, *LastReal->In, Correct, MatchCmpThrew))
      return nullptr;
    return LastReal;
  }

  /// The one authoritative segment runner: executes segment [B, E)
  /// from \p Correct on the validator thread, advances \p Correct past
  /// it, and finalizes it. Used for a re-execution and for a degraded
  /// segment; deliberately *not* under a CancelScope of its own. One
  /// BodyThrow probe per segment. \p SegNs receives the body time when
  /// MeasureBody. Returns false when a body or finalizer exception
  /// aborts the run (recorded in FirstValidErr).
  bool runSegment(int64_t B, int64_t E, int64_t UI, T &Correct,
                  int64_t &SegNs) {
    try {
      if (Env.FP)
        Env.FP->maybeThrow(FaultSite::BodyThrow);
      auto [Acc, L] = runBody(B, E, std::move(Correct), SegNs);
      Correct = std::move(Acc);
      return finalizeSegment(UI, L);
    } catch (...) {
      FirstValidErr = std::current_exception();
      return false;
    }
  }

  /// The one segment body runner, for attempts and the validator alike:
  /// Init, then the body over [B, E) from \p Acc, timed into \p Ns when
  /// MeasureBody. Returns the segment's output and local state.
  std::pair<T, U> runBody(int64_t B, int64_t E, T Acc, int64_t &Ns) {
    U L = Init();
    Clock::time_point T0;
    if (MeasureBody)
      T0 = Clock::now();
    for (int64_t I = B; I < E; ++I)
      Acc = Body(I, L, std::move(Acc));
    if (MeasureBody)
      Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                T0)
               .count();
    return {std::move(Acc), std::move(L)};
  }

  /// Runs the user finalizer of validated segment \p UI; same return
  /// contract as runSegment().
  bool finalizeSegment(int64_t UI, U &L) {
    try {
      Finalize(UI, L);
      Env.trace(SpecEventKind::Finalize, UI);
    } catch (...) {
      FirstValidErr = std::current_exception();
      return false;
    }
    return true;
  }

  //===---------------- wave teardown / autotune -----------------------===//

  /// Retires the wave's slots from \p From on: cancels them all, then
  /// quiesces each in order, cancelling it again first (a corrective may
  /// have been chained into it after the first pass). The validator
  /// claims each slot's unclaimed attempts, which, cancelled, skip their
  /// bodies (invariant 5), and waits for those running elsewhere.
  /// Returns false, with TimeoutIdx set, when \p Until passes first.
  bool drainWave(int64_t From, Clock::time_point Until) {
    for (int64_t K = From; K < WaveCount; ++K)
      cancelSlot(K, WaveUser[static_cast<size_t>(K)]);
    for (int64_t K = From; K < WaveCount; ++K) {
      cancelSlot(K, WaveUser[static_cast<size_t>(K)]);
      if (!quiesceSlot(K, Until)) {
        TimeoutIdx = WaveUser[static_cast<size_t>(K)];
        return false;
      }
    }
    return true;
  }

  /// The adaptive chunk controller, run between waves: halve the chunk
  /// when the wave mispredicted badly (smaller chunks re-validate
  /// sooner) or when bodies overshoot the target (lost parallelism);
  /// double it when bodies run far under the target (per-attempt
  /// overhead dominating). A no-op unless MeasureBody timed the wave.
  void autotuneAdjust() {
    if (WaveMeasured == 0)
      return;
    const double AvgNs = static_cast<double>(WaveNs) / WaveMeasured;
    const double BadRate =
        WaveBoundaries > 0
            ? static_cast<double>(WaveBad) / WaveBoundaries
            : 0.0;
    int64_t NewChunk = CurChunk;
    if (BadRate > 0.5)
      NewChunk = CurChunk / 2;
    else if (AvgNs < static_cast<double>(AutoTargetNs) / 2)
      NewChunk = CurChunk <= MaxChunk / 2 ? CurChunk * 2 : MaxChunk;
    else if (AvgNs > static_cast<double>(AutoTargetNs) * 2)
      NewChunk = CurChunk / 2;
    NewChunk = std::max<int64_t>(1, std::min(NewChunk, MaxChunk));
    if (NewChunk != CurChunk) {
      CurChunk = NewChunk;
      // Telemetry: the event's index is the *new* chunk size, so a
      // trace shows the size trajectory. 0 attempt id: this is a
      // run-level decision, not tied to an attempt.
      Env.trace(SpecEventKind::Autotune, CurChunk);
    }
    WaveNs = 0;
    WaveMeasured = 0;
    WaveBad = 0;
    WaveBoundaries = 0;
  }

  //===---------------- profile-guided prediction ----------------------===//

  /// Warm-start from the profile store, called once at run start:
  /// seeds the initial chunk size from the site's converged value
  /// (autotuned chunked runs only) and the starting predictor
  /// candidate from historical hit rates. One ProfileSeed trace event
  /// and one ProfileSeeds count per warm run.
  void profileSeed() {
    int64_t SeededChunk = 0;
    if (AutoTargetNs > 0) {
      const int64_t SC = Prof->seedChunk(*SiteName);
      if (SC > 0) {
        CurChunk = std::min(std::max<int64_t>(1, SC), MaxChunk);
        SeededChunk = CurChunk;
      }
    }
    int BestId = candidateId(Prof->bestPredictor(*SiteName));
    // A stride recommendation is only honourable when T supports it.
    if (BestId == CandStride && !std::is_arithmetic_v<T>)
      BestId = -1;
    if (BestId >= 0)
      ActiveCand = BestId;
    CandTried[static_cast<size_t>(ActiveCand)] = true;
    if (SeededChunk > 0 || BestId >= 0) {
      ++Stats.ProfileSeeds;
      Env.trace(SpecEventKind::ProfileSeed, SeededChunk,
                static_cast<uint64_t>(ActiveCand));
    }
  }

  /// Feeds one validated (iteration index, loop-carried value)
  /// observation to the stride extrapolator (arithmetic T only).
  void observe([[maybe_unused]] int64_t Idx, [[maybe_unused]] const T &Val) {
    if constexpr (std::is_arithmetic_v<T>) {
      ObsIdx0 = ObsIdx1;
      ObsVal0 = ObsVal1;
      HaveTwoObs = HaveObs;
      ObsIdx1 = Idx;
      ObsVal1 = Val;
      HaveObs = true;
    }
  }

  /// The stride candidate's prediction for a segment starting at
  /// iteration \p B: linear extrapolation through the last two
  /// validated observations. Left disengaged until two observations at
  /// distinct indices exist (or always, for non-arithmetic T).
  void stridePredict([[maybe_unused]] int64_t B,
                     [[maybe_unused]] std::optional<T> &Out) {
    if constexpr (std::is_arithmetic_v<T>) {
      if (!HaveTwoObs || ObsIdx1 == ObsIdx0)
        return;
      const double Slope =
          (static_cast<double>(ObsVal1) - static_cast<double>(ObsVal0)) /
          static_cast<double>(ObsIdx1 - ObsIdx0);
      Out.emplace(static_cast<T>(
          static_cast<double>(ObsVal1) +
          Slope * static_cast<double>(B - ObsIdx1)));
    }
  }

  /// The candidate to switch to at a degrade trip, or -1 to degrade:
  /// the untried candidate with the best hit rate *this run*, provided
  /// it has enough samples to mean anything and is hitting a majority
  /// — switching to a coin flip would only defer the fallback.
  int pickSwitchCandidate() const {
    int Best = -1;
    double BestRate = 0.5;
    for (int C = 0; C < NumCandidates; ++C) {
      if (CandTried[static_cast<size_t>(C)])
        continue;
      const int64_t N = CandHits[static_cast<size_t>(C)] +
                        CandMiss[static_cast<size_t>(C)];
      if (N < 4)
        continue;
      const double Rate =
          static_cast<double>(CandHits[static_cast<size_t>(C)]) / N;
      if (Rate > BestRate) {
        BestRate = Rate;
        Best = C;
      }
    }
    return Best;
  }

  /// Folds the run's observations back into the store, called once at
  /// run end on every exit path (by then the counters are final).
  void profileRecord() {
    ProfileStore::RunObservation Obs;
    Obs.FinalChunk = AutoTargetNs > 0 ? CurChunk : 0;
    Obs.DegradeTrips = RunDegradeTrips;
    Obs.PredictorSwitches = Stats.PredictorSwitches;
    Obs.Predictions = Stats.Predictions;
    Obs.BadPredictions = Stats.Mispredictions + Stats.FailedPredictions;
    for (int C = 0; C < NumCandidates; ++C) {
      const int64_t H = CandHits[static_cast<size_t>(C)];
      const int64_t Ms = CandMiss[static_cast<size_t>(C)];
      if (H + Ms > 0)
        Obs.Predictors.emplace_back(CandidateNames[C],
                                    PredictorProfile{H, Ms});
    }
    Prof->recordRun(*SiteName, Obs);
  }

  //===---------------- state ------------------------------------------===//

  const int64_t Low, High;
  int64_t CurChunk;
  const int64_t IdxBase;
  const int64_t AutoTargetNs;
  InitFn &Init;
  BodyFn &Body;
  PredictorFn &Predictor;
  FinalFn &Finalize;
  SpecExecutor &Ex;
  Eq &Equal;
  SpeculationStats &Stats;
  const ValidationMode Mode;
  /// Fault plan, tracer and its job context (zero outside specd — see
  /// SpecConfig::traceContext()), deadline, shield and attempt budget:
  /// what every body of this run, attempt or validator, runs under.
  const BodyEnv Env;
  const std::chrono::nanoseconds CfgDeadline;
  const bool HasDeadline;
  const double DegradeThresh;
  const int DegradeWin;
  /// Profile-guided prediction (armed iff a store *and* a site name
  /// are configured; everything below is untouched otherwise).
  ProfileStore *const Prof;
  const std::string *const SiteName;
  const bool ProfOn;
  const int64_t W;
  /// Body timing feeds the chunk autotuner.
  const bool MeasureBody;
  int64_t MaxChunk = 1;

  /// Shared with the run's drain tasks (see SegRunSync).
  const std::shared_ptr<SegRunSync> Run;
  /// The current wave's claim generation: validator-written between
  /// waves, read by the wave's attempts before they are Done.
  uint32_t Wave = 0;
  /// 2W attempts: slot K owns attempts 2K and 2K+1.
  std::vector<Attempt> AttemptStore;

  /// Current wave plan: the validator writes it before it publishes the
  /// wave and leaves it untouched until the wave has quiesced, so
  /// attempts read their bounds here.
  std::vector<std::optional<T>> WavePred;
  std::vector<int64_t> WaveB, WaveE, WaveUser;
  /// Per-segment candidate predictions (profile-guided runs only;
  /// validator-only — workers never read the shadow candidates).
  std::vector<std::array<std::optional<T>, NumCandidates>>
      WaveCand;
  int64_t WaveCount = 0;
  int64_t WaveOrd0 = 0;

  /// Candidate accounting for this run (validator only). The stride
  /// extrapolator's observation storage collapses to a char when T is
  /// not arithmetic (the candidate is then never engaged).
  int ActiveCand = CandUser;
  std::array<bool, NumCandidates> CandTried{};
  std::array<int64_t, NumCandidates> CandHits{};
  std::array<int64_t, NumCandidates> CandMiss{};
  int64_t RunDegradeTrips = 0;
  bool HaveObs = false, HaveTwoObs = false;
  int64_t ObsIdx1 = 0, ObsIdx0 = 0;
  std::conditional_t<std::is_arithmetic_v<T>, T, char> ObsVal1{},
      ObsVal0{};

  /// Autotune accumulators (current wave).
  int64_t WaveNs = 0;
  int64_t WaveMeasured = 0;
  int64_t WaveBad = 0;
  int64_t WaveBoundaries = 0;

  /// Run outcome flags (validator only).
  bool Degraded = false;
  bool TimedOut = false;
  int64_t TimeoutIdx = 0;
  std::exception_ptr FirstValidErr;
};

/// The iterate forms' driver: runs [Low, High) on a SegEngine that
/// starts at chunk \p Chunk and reports indices from \p IdxBase. The
/// statistics reach statsOut() on every exit, throws included.
template <typename T, typename U, typename InitFn, typename BodyFn,
          typename PredictorFn, typename FinalFn, typename Eq>
SpecResult<T> iterateImpl(int64_t Low, int64_t High, int64_t Chunk,
                          int64_t IdxBase, int64_t AutotuneTargetNs,
                          InitFn &Init, BodyFn &Body, PredictorFn &Predictor,
                          FinalFn &Finalize, const SpecConfig &Cfg,
                          Eq &Equal) {
  SpecResult<T> Result;
  // An empty range runs nothing, on no executor.
  SpecExecutor *const Ex = High > Low ? &resolveExecutor(Cfg) : nullptr;
  SnapshotGuard Guard(Result.Stats, Cfg, Ex);
  if (!Ex) {
    Result.Value = Predictor(Low);
    return Result;
  }
  SegEngine<T, U, InitFn, BodyFn, PredictorFn, FinalFn, Eq> Engine(
      Low, High, Chunk, IdxBase, AutotuneTargetNs, Init, Body, Predictor,
      Finalize, Cfg, *Ex, Equal, Result.Stats);
  Result.Value = Engine.run();
  return Result;
}

} // namespace detail
} // namespace rt
} // namespace specpar

#endif // SPECPAR_RUNTIME_SPECENGINE_H
