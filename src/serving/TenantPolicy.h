//===- serving/TenantPolicy.h - Per-tenant speculation policy ---*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-tenant knobs of the `specd` serving layer. A tenant is a named
/// client of the server; its policy says how much speculation its jobs
/// may use, how long they may run, and whether the runtime's adaptive
/// machinery is armed for them. The policy is the only thing a tenant
/// controls — which shard executes a job and which executor backs that
/// shard are the server's decisions.
///
/// `toConfig()` lowers a policy onto a concrete shard: it produces the
/// `rt::SpecConfig` a dispatch thread passes into the speculation
/// runtime, binding the shard's owned executor handle explicitly (the
/// serving layer never relies on the process-wide default shard).
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_SERVING_TENANTPOLICY_H
#define SPECPAR_SERVING_TENANTPOLICY_H

#include "runtime/FaultPlan.h"
#include "runtime/Speculation.h"

#include <chrono>
#include <memory>
#include <string>

namespace specpar {
namespace serving {

/// Admission-time and run-time policy for one tenant.
struct TenantPolicy {
  /// Tenant id; becomes the `tenant` label on every metric family.
  std::string Name = "default";

  /// Speculation tasks per job (the segment fan-out of each run).
  int NumTasks = 8;

  /// Validation mode for the tenant's runs.
  rt::ValidationMode Mode = rt::ValidationMode::Seq;

  /// Per-job wall-clock budget; zero means no deadline. Expiry surfaces
  /// as `JobOutcome::TimedOut`, never as a broken future.
  std::chrono::nanoseconds Deadline{0};

  /// Adaptive sequential fallback: when >= 0, the misprediction rate
  /// over the runtime's default 8-chunk window above which the run
  /// degrades to sequential execution. Negative disables the monitor.
  double DegradeMaxBadRate = -1.0;

  /// Chunk autotuner target, microseconds per chunk; zero disables.
  int64_t AutotuneTargetMicros = 0;

  /// When true the server owns a `rt::ProfileStore` for this tenant and
  /// arms profile-guided prediction on every run, keyed per job kind
  /// (`<tenant>/<kind>`): later runs of the same kind start with the
  /// converged chunk size and the historically best predictor, and a
  /// degrade trip first tries switching predictors before giving up on
  /// speculation. Seeds and switches are exported as
  /// `specd_spec_profile_seeds_total` / `specd_spec_predictor_switches_total`.
  bool ProfileGuided = false;

  /// Optional persistence for the tenant's profile store: loaded (best
  /// effort — a missing or corrupt file starts cold) when the tenant is
  /// registered, saved when the server context is destroyed. Empty keeps
  /// the profile in-memory only, warming runs within one server
  /// lifetime. Meaningful only with `ProfileGuided`.
  std::string ProfilePath;

  /// Per-attempt wall-clock budget; overrun attempts are cooperatively
  /// cancelled, then forcibly abandoned by the runaway watchdog. Zero
  /// leaves attempts unbudgeted.
  std::chrono::nanoseconds AttemptBudget{0};

  /// Retries for `Faulted`/`TimedOut` jobs: up to `MaxRetries`
  /// additional attempts, re-admitted after an exponential backoff with
  /// jitter (`RetryBackoff * 2^(attempt-1)`, capped at 1 s). A job with
  /// a `Deadline` retries only while backoff + dispatch still fit the
  /// *remaining* budget — each attempt runs under what is left, never a
  /// fresh full deadline. Zero (the default) resolves the first failure
  /// as terminal.
  int MaxRetries = 0;
  std::chrono::nanoseconds RetryBackoff{std::chrono::milliseconds(10)};

  /// Circuit breaker per tenant×shard: after `BreakerThreshold`
  /// *consecutive* failed attempts on one shard, that shard is shed for
  /// this tenant (submits fall through to other shards; if every shard
  /// is open the job is Rejected). The breaker half-opens
  /// `BreakerResetAfter` later: the next job probes the shard, success
  /// closes the breaker, failure re-opens it. Zero disables.
  int BreakerThreshold = 0;
  std::chrono::nanoseconds BreakerResetAfter{std::chrono::milliseconds(500)};

  /// Optional fault-injection plan lowered into every run of this
  /// tenant (chaos testing; must outlive the tenant's jobs).
  rt::FaultPlan *Faults = nullptr;

  /// Lowers this policy onto \p Shard's executor, always with the
  /// signal shield armed (a SIGSEGV/SIGBUS/SIGFPE in a *speculative*
  /// attempt body is contained and re-executed instead of killing the
  /// process and every other tenant on it). \p Tr is the shard's
  /// flight-recorder tracer (null runs untraced).
  rt::SpecConfig toConfig(std::shared_ptr<rt::SpecExecutor> Shard,
                          rt::Tracer *Tr) const {
    rt::SpecConfig Cfg = rt::SpecConfig().executor(std::move(Shard)).mode(Mode);
    if (Deadline.count() > 0)
      Cfg.deadline(Deadline);
    if (DegradeMaxBadRate >= 0)
      Cfg.degrade(DegradeMaxBadRate);
    if (AutotuneTargetMicros > 0)
      Cfg.autotune(AutotuneTargetMicros);
    Cfg.shield();
    if (AttemptBudget.count() > 0)
      Cfg.attemptBudget(AttemptBudget);
    if (Faults)
      Cfg.faults(Faults);
    if (Tr)
      Cfg.trace(Tr);
    return Cfg;
  }
};

} // namespace serving
} // namespace specpar

#endif // SPECPAR_SERVING_TENANTPOLICY_H
