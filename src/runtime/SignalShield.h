//===- runtime/SignalShield.h - Crash containment for attempts --*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-thread signal shield + runaway watchdog for speculative attempts.
///
/// A mispredicted attempt runs real C++ on a wrong input, so it can do
/// more than compute a wrong value: it can dereference garbage (SIGSEGV
/// / SIGBUS), divide by zero (SIGFPE), or spin forever without ever
/// polling cancellation. The shield turns the first class into a
/// contained, recoverable outcome (`ContainedFault::Segv/Bus/Fpe`) via
/// `sigsetjmp`/`siglongjmp`, and the watchdog turns the second into a
/// forced abandonment delivered as SIGURG and contained the same way
/// (`ContainedFault::Runaway`). Cooperative budget expiry needs no
/// watchdog involvement at all: the engine folds the attempt budget
/// into the attempt's cancellation deadline, so bodies that poll
/// `currentTaskCancelled()` bail on their own.
///
/// Scope and guarantees:
///  * The shield is armed only around the *speculative* execution of an
///    attempt body. The authoritative path (validator re-execution,
///    degraded sequential segments, plain sequential code) keeps
///    default crash semantics: a crash there is a real bug and should
///    die loudly.
///  * Containment longjmps out of the faulting frame. Destructors of
///    locals live in the skipped frames DO NOT RUN; the engine treats a
///    contained attempt exactly like a misprediction (discard, then
///    re-execute with the true value), never trusting any partial
///    state the attempt produced.
///  * Handlers are installed process-wide once (first shielded run),
///    chain to the previously installed disposition for unshielded
///    threads, and never uninstall. `sigsetjmp(buf, 0)` is used — no
///    per-arm sigprocmask syscall — with SA_NODEFER so the handler may
///    longjmp without leaving the signal blocked.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_RUNTIME_SIGNALSHIELD_H
#define SPECPAR_RUNTIME_SIGNALSHIELD_H

#include <atomic>
#include <chrono>
#include <csetjmp>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <pthread.h>

namespace specpar {
namespace rt {

/// What the shield caught, if anything.
enum class ContainedFault : uint8_t {
  None,    ///< Body ran to completion (it may still have thrown).
  Segv,    ///< SIGSEGV: wild read/write on mispredicted state.
  Bus,     ///< SIGBUS: misaligned / unmapped access.
  Fpe,     ///< SIGFPE: integer division by zero and friends.
  Runaway, ///< Forced abandonment by the watchdog (never polled).
};

const char *containedFaultName(ContainedFault F);

/// Result of one shielded call.
struct ShieldOutcome {
  ContainedFault Fault = ContainedFault::None;
  /// The watchdog observed this attempt past its budget before it
  /// finished. True for every Runaway fault, and also for bodies that
  /// polled, saw the expired budget deadline, and bailed cooperatively
  /// while the watchdog's grace period was running.
  bool WatchdogCancelled = false;
};

/// Installs the process-wide SIGSEGV/SIGBUS/SIGFPE/SIGURG handlers
/// (once; subsequent calls are no-ops). Called automatically by the
/// engine before the first shielded run; exposed for tests.
void installSignalShield();

namespace detail {

/// Per-thread shield state. Slots are owned by a leaked global registry
/// — never freed — so the watchdog thread may iterate them without
/// racing thread exit. A thread that dies leaves its slot disarmed
/// forever, which the watchdog skips in two loads.
struct ShieldSlot {
  sigjmp_buf Jmp;

  /// 1 while a shielded body is running on this thread. The handler
  /// longjmps only when set; the watchdog reads it first.
  std::atomic<uint32_t> Armed{0};

  /// Generation of the current arming. Incremented on every arm;
  /// never decremented. Lets the watchdog's SIGURG race harmlessly
  /// with re-arming: the handler abandons only when AbandonGen still
  /// matches the live generation.
  std::atomic<uint64_t> ArmGen{0};
  std::atomic<uint64_t> AbandonGen{0};

  /// Signal number captured by the handler for the longjmp receiver.
  std::atomic<int> Sig{0};

  /// Absolute deadline (steady_clock ns since epoch) for the current
  /// attempt; 0 = no budget, watchdog ignores the slot.
  std::atomic<int64_t> DeadlineNs{0};

  /// When the watchdog first observed the deadline expired — 0 until
  /// then. Starts the grace period before forced abandonment, and
  /// doubles as the re-kill throttle timestamp.
  std::atomic<int64_t> CancelAtNs{0};

  /// Target for pthread_kill at forced-abandonment time.
  pthread_t Thread{};
};

/// This thread's slot; registers it with the watchdog registry on first
/// use.
ShieldSlot *myShieldSlot();

/// This thread's slot if one was ever created here, else null. Never
/// allocates; safe on threads that never ran a shielded body.
ShieldSlot *peekShieldSlot();

/// Starts the watchdog thread (once). Only needed when budgets are in
/// use; pure crash shielding costs no extra thread.
void ensureWatchdog();

/// Unblocks the shield signals on this thread. Called on the
/// fault-landing path only: our own handlers run with SA_NODEFER, but
/// interposing runtimes (TSan wraps sigaction with its own trampoline
/// handler) may install the real kernel disposition without it, leaving
/// the faulting signal blocked after the longjmp — and a synchronous
/// fault delivered while blocked kills the process with SIG_DFL. One
/// pthread_sigmask per *contained fault* keeps the arm path
/// syscall-free.
void unblockShieldSignals();

/// Saved arming state for nesting (an attempt body that itself runs a
/// nested speculative run, whose waiting validator runs the nested
/// attempts on this thread).
struct ShieldFrame {
  sigjmp_buf Jmp;
  uint32_t Armed;
  int64_t DeadlineNs;
  int64_t CancelAtNs;
};

inline void saveFrame(ShieldSlot *S, ShieldFrame &F) {
  std::memcpy(&F.Jmp, &S->Jmp, sizeof(sigjmp_buf));
  F.Armed = S->Armed.load(std::memory_order_relaxed);
  F.DeadlineNs = S->DeadlineNs.load(std::memory_order_relaxed);
  F.CancelAtNs = S->CancelAtNs.load(std::memory_order_relaxed);
}

inline void restoreFrame(ShieldSlot *S, const ShieldFrame &F) {
  // Disarm first so the watchdog never observes the old deadline with
  // the new jmp_buf (or vice versa) mid-restore.
  S->Armed.store(0, std::memory_order_release);
  std::memcpy(&S->Jmp, &F.Jmp, sizeof(sigjmp_buf));
  S->DeadlineNs.store(F.DeadlineNs, std::memory_order_relaxed);
  S->CancelAtNs.store(F.CancelAtNs, std::memory_order_relaxed);
  if (F.Armed) {
    // Re-arming the outer frame takes a FRESH generation rather than
    // keeping (or restoring) the inner one: a delayed SIGURG the
    // watchdog aimed at the just-finished inner attempt must fail the
    // AbandonGen == ArmGen check instead of abandoning the outer
    // attempt, and restoring the outer generation would let the next
    // nested arm recompute the very value a stale AbandonGen still
    // holds. Monotonically bumping can collide with neither.
    S->ArmGen.fetch_add(1, std::memory_order_relaxed);
    S->Armed.store(1, std::memory_order_release);
  }
}

inline int64_t shieldNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace detail

/// Pauses this thread's armed shield for the lifetime of the object
/// and re-arms it on destruction. The engine uses this around nested
/// run coordination (validator loop, drains, degraded segments) that
/// executes *inside* a shielded outer body: coordination code is
/// authoritative — a crash there must not longjmp past a live nested
/// engine whose attempts other threads still reference. No-op on
/// threads with no armed shield.
class ShieldPause {
public:
  ShieldPause() : Slot(detail::peekShieldSlot()) {
    if (Slot && Slot->Armed.load(std::memory_order_relaxed)) {
      Resume = true;
      Slot->Armed.store(0, std::memory_order_release);
    }
  }
  ~ShieldPause() {
    if (Resume)
      Slot->Armed.store(1, std::memory_order_release);
  }
  ShieldPause(const ShieldPause &) = delete;
  ShieldPause &operator=(const ShieldPause &) = delete;

private:
  detail::ShieldSlot *Slot;
  bool Resume = false;
};

/// Runs \p F with the shield armed. \p BudgetNs > 0 additionally arms
/// the watchdog: once the deadline passes (the caller is expected to
/// have folded the same budget into the attempt's cooperative-cancel
/// deadline) and a grace period elapses with the body still running,
/// the watchdog forces abandonment via SIGURG. Exceptions from \p F
/// propagate normally — the shield only intercepts signals, and it
/// disarms and restores the outer frame before rethrowing. Must not
/// be called from a signal handler; ordinary nesting (attempt body ->
/// nested run's validator -> nested attempt) is supported via frame
/// save/restore.
template <typename Fn>
ShieldOutcome shieldedCall(int64_t BudgetNs, Fn &&F) {
  detail::ShieldSlot *S = detail::myShieldSlot();
  detail::ShieldFrame Saved;
  detail::saveFrame(S, Saved);

  const uint64_t Gen = S->ArmGen.load(std::memory_order_relaxed) + 1;
  if (BudgetNs > 0)
    detail::ensureWatchdog();

  ShieldOutcome Out;
  // sigsetjmp with savemask=0: no sigprocmask syscall per arm. Our
  // handlers run with SA_NODEFER; the landing path below unblocks the
  // shield signals anyway in case an interposing runtime's trampoline
  // dropped that flag.
  if (sigsetjmp(S->Jmp, 0) != 0) {
    // A contained signal landed. The handler already disarmed.
    detail::unblockShieldSignals();
    const int Sig = S->Sig.load(std::memory_order_relaxed);
    switch (Sig) {
    case SIGSEGV:
      Out.Fault = ContainedFault::Segv;
      break;
    case SIGBUS:
      Out.Fault = ContainedFault::Bus;
      break;
    case SIGFPE:
      Out.Fault = ContainedFault::Fpe;
      break;
    default:
      Out.Fault = ContainedFault::Runaway;
      break;
    }
    Out.WatchdogCancelled = S->CancelAtNs.load(std::memory_order_relaxed) != 0;
    detail::restoreFrame(S, Saved);
    return Out;
  }

  S->Sig.store(0, std::memory_order_relaxed);
  S->CancelAtNs.store(0, std::memory_order_relaxed);
  S->DeadlineNs.store(
      BudgetNs > 0 ? detail::shieldNowNs() + BudgetNs : 0,
      std::memory_order_relaxed);
  S->ArmGen.store(Gen, std::memory_order_relaxed);
  S->Armed.store(1, std::memory_order_release);

  try {
    F();
  } catch (...) {
    // A throwing body unwinds straight through the armed region (the
    // engine supports throwing bodies and catches outside this call).
    // Disarm and restore the saved frame before the exception escapes:
    // otherwise the slot stays Armed with a jmp_buf into this dead
    // frame — and, when a budget was set, a live deadline the watchdog
    // would escalate into a siglongjmp onto a destroyed stack.
    detail::restoreFrame(S, Saved);
    throw;
  }

  S->Armed.store(0, std::memory_order_release);
  Out.WatchdogCancelled = S->CancelAtNs.load(std::memory_order_relaxed) != 0;
  detail::restoreFrame(S, Saved);
  return Out;
}

} // namespace rt
} // namespace specpar

#endif // SPECPAR_RUNTIME_SIGNALSHIELD_H
