//===- runtime/FaultPlan.h - Deterministic fault injection ------*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded, deterministic fault injection for the speculation runtime.
///
/// A `FaultPlan` names a set of *injection sites* inside the runtime
/// (`FaultSite`) and, per site, a firing probability. The runtime probes
/// the plan at each site (`shouldFire`); the decision for the k-th probe
/// of a site is a pure function of (seed, site, k), so a plan replays the
/// same decision *sequence* per site on every run — under real
/// concurrency the thread interleaving still chooses which attempt draws
/// which decision, which is exactly the point: the same plan explores
/// many hostile schedules while each site's fault density stays fixed
/// and reproducible.
///
/// Faults come in two flavours:
///  * **throw faults** (`PredictorThrow`, `BodyThrow`, `ComparatorThrow`)
///    raise `SpecFaultError` from inside the runtime's call to the user
///    callback, exercising the exact try/catch paths a throwing user
///    callback would take;
///  * **schedule faults** (`ForceMispredict`, `SpuriousCancel`,
///    `DelayTaskStart`, `JitterWakeup`) perturb validation decisions and
///    executor timing without raising: a forced misprediction makes the
///    validator discard a correct attempt, a spurious cancel trips an
///    attempt's cooperative-cancellation flag for no reason, and the two
///    executor sites stretch race windows with jittered sleeps.
///
/// Wiring mirrors the tracer: `SpecConfig::faults(&Plan)` installs the
/// plan for one run's Speculation-level sites, and
/// `SpecExecutor::injectFaults(&Plan)` installs it for an executor's
/// task-timing sites. The two are independent: a run's plan never arms
/// its executor, which other runs may share. With no plan installed every
/// site is a single pointer test — nothing is allocated, hashed, or
/// synchronized.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_RUNTIME_FAULTPLAN_H
#define SPECPAR_RUNTIME_FAULTPLAN_H

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace specpar {
namespace rt {

/// A named injection site inside the runtime.
enum class FaultSite : uint8_t {
  /// Throw from the runtime's call to the user predictor (speculative
  /// prediction points only — never `Predictor(Low)`, whose value is the
  /// non-speculative initial state).
  PredictorThrow,
  /// Throw from the runtime's call to the user body / apply consumer.
  BodyThrow,
  /// Throw from the runtime's call to the user equality comparator.
  ComparatorThrow,
  /// Make the validator treat a (possibly correct) prediction as wrong,
  /// forcing the misprediction/re-execution path.
  ForceMispredict,
  /// Trip a random attempt's cooperative-cancellation flag even though
  /// its input is valid.
  SpuriousCancel,
  /// Sleep a jittered delay before an executor task starts running.
  DelayTaskStart,
  /// Jittered sleeps around executor submit/wake paths, widening the
  /// windows in which wakeups can be missed or reordered.
  JitterWakeup,
  /// Raise SIGSEGV from inside a *shielded* speculative body, exercising
  /// the signal-shield containment path (never probed unshielded: an
  /// uncontained crash would kill the process).
  CrashInBody,
  /// Spin inside a shielded speculative body without ever polling
  /// cancellation, exercising the runaway watchdog's cooperative-then-
  /// forced escalation. Capped by runawayCap() as a backstop.
  RunawayBody,
};
inline constexpr size_t NumFaultSites = 9;

/// Stable lowercase name of \p S (e.g. "comparator-throw").
const char *faultSiteName(FaultSite S);

/// The exception raised by throw-flavoured faults. Derives from
/// std::runtime_error so it travels the same paths as a throwing user
/// callback; catch it by type to distinguish injected faults from real
/// failures (the soak harness does).
class SpecFaultError : public std::runtime_error {
public:
  SpecFaultError(FaultSite Site, uint64_t Probe)
      : std::runtime_error(std::string("injected fault: ") +
                           faultSiteName(Site) + " (probe " +
                           std::to_string(Probe) + ")"),
        Site(Site), Probe(Probe) {}
  const FaultSite Site;
  /// Which probe of the site fired (1-based), for reproduction.
  const uint64_t Probe;
};

/// A seeded fault-injection plan. Thread-safe: any number of runtime
/// threads may probe it concurrently; per-site decisions are handed out
/// in a deterministic sequence (see file comment). A plan may be shared
/// by a run and its executor and must outlive both.
class FaultPlan {
public:
  explicit FaultPlan(uint64_t Seed) : Seed(Seed) {}

  FaultPlan(const FaultPlan &) = delete;
  FaultPlan &operator=(const FaultPlan &) = delete;

  /// Arms \p Site: each probe fires with probability \p Probability
  /// (clamped to [0, 1]). Returns *this for chaining.
  FaultPlan &arm(FaultSite Site, double Probability);

  /// Delay range for the sleeping sites (DelayTaskStart, JitterWakeup).
  /// Each firing sleeps a deterministic jitter in [\p Lo, \p Hi].
  FaultPlan &delayRange(std::chrono::microseconds Lo,
                        std::chrono::microseconds Hi);

  uint64_t seed() const { return Seed; }

  /// True iff this probe of \p Site fires. Advances the site's probe
  /// counter even when the site is unarmed, so arming one site never
  /// shifts another site's decision sequence.
  bool shouldFire(FaultSite Site);

  /// Probes \p Site; if it fires, throws SpecFaultError.
  void maybeThrow(FaultSite Site) {
    if (shouldFire(Site))
      throw SpecFaultError(Site,
                           Probes[static_cast<size_t>(Site)].load(
                               std::memory_order_relaxed));
  }

  /// Probes \p Site; if it fires, sleeps a jittered delay from the
  /// configured range. Returns true iff it slept.
  bool maybeDelay(FaultSite Site);

  /// Probes \p Site; if it fires, dereferences null — a genuine
  /// hardware SIGSEGV, not raise(), so the kernel delivers it exactly
  /// like a real wild access (sanitizer runtimes defer raise()d
  /// signals; the store is uninstrumented so they see the plain
  /// signal). Only ever call from inside a shielded region.
  void maybeCrash(FaultSite Site);

  /// Probes \p Site; if it fires, spins without polling cancellation
  /// until the runawayCap() wall-clock backstop expires. Returns true
  /// iff it spun. Only ever call from inside a shielded region; the
  /// watchdog is expected to abandon the spin long before the cap.
  bool maybeRunaway(FaultSite Site);

  /// Wall-clock backstop for maybeRunaway() spins (default 2 s): even
  /// with no watchdog armed, an injected runaway terminates.
  FaultPlan &runawayCap(std::chrono::milliseconds Cap);

  /// Total probes of \p Site so far.
  uint64_t probes(FaultSite Site) const {
    return Probes[static_cast<size_t>(Site)].load(std::memory_order_relaxed);
  }
  /// Probes of \p Site that fired so far.
  uint64_t fired(FaultSite Site) const {
    return Fired[static_cast<size_t>(Site)].load(std::memory_order_relaxed);
  }
  /// Sum of fired() over every site.
  uint64_t totalFired() const;

  /// One-line description: seed, armed sites with probabilities, and
  /// per-site fired/probe counts for sites that were probed.
  std::string str() const;

private:
  const uint64_t Seed;
  std::array<std::atomic<uint32_t>, NumFaultSites> Threshold{}; // p * 2^32
  std::array<std::atomic<uint64_t>, NumFaultSites> Probes{};
  std::array<std::atomic<uint64_t>, NumFaultSites> Fired{};
  std::atomic<int64_t> DelayLoUs{50};
  std::atomic<int64_t> DelayHiUs{500};
  std::atomic<int64_t> RunawayCapNs{2000 * 1000 * 1000LL};
};

} // namespace rt
} // namespace specpar

#endif // SPECPAR_RUNTIME_FAULTPLAN_H
