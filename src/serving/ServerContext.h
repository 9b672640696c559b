//===- serving/ServerContext.h - The specd multi-tenant server --*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving front end over the speculation runtime: a
/// `ServerContext` owns N isolated executor shards (one `SpecExecutor`
/// per core group, held through the explicit-ownership
/// `SpecExecutor::create()` API), a tenant registry mapping names to
/// `TenantPolicy`s, and an admission policy that places each submitted
/// job on a shard. Results come back as futures; aggregates are
/// rendered on demand in Prometheus text format by `metricsText()`
/// (served over HTTP by serving/HttpMetricsServer.h).
///
/// Admission:
///  * RoundRobin    — shard (n++ % N); fair under uniform job cost.
///  * LeastLoaded   — the shard with the fewest queued+running jobs;
///                    better under heterogeneous tenants.
/// A full shard queue rejects the job (the future resolves immediately
/// with `JobOutcome::Rejected`) — backpressure is explicit, never a
/// blocked submit().
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_SERVING_SERVERCONTEXT_H
#define SPECPAR_SERVING_SERVERCONTEXT_H

#include "serving/Shard.h"

#include <atomic>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

namespace specpar {
namespace serving {

enum class AdmissionPolicy : uint8_t { RoundRobin, LeastLoaded };

/// What /healthz reports (see `ServerContext::health()`).
enum class ServerHealth : uint8_t {
  Ok,       ///< Every shard healthy, accepting work.
  Draining, ///< Shutdown in progress; no new admissions.
  Degraded, ///< At least one shard quarantined (503 on /healthz).
};

const char *serverHealthName(ServerHealth H);

struct ServerOptions {
  /// Executor shards. Each owns `ThreadsPerShard` workers.
  unsigned NumShards = 2;
  /// Workers per shard; 0 divides the hardware concurrency evenly
  /// across shards (floor 1).
  unsigned ThreadsPerShard = 0;
  /// Bounded per-shard admission queue.
  size_t QueueCapacity = 64;
  AdmissionPolicy Admission = AdmissionPolicy::LeastLoaded;
  /// Catalog dataset scale (bytes/symbols/nodes).
  int64_t WorkloadScale = 1 << 16;
  /// Shard-health watchdog (always running): a dispatcher that has been
  /// inside one job longer than `StuckAfter` is quarantined — admission
  /// stops, its queued jobs are re-dispatched to healthy shards — and
  /// reinstated once it makes progress again. `HealthPeriod` is the poll
  /// cadence.
  std::chrono::nanoseconds StuckAfter{std::chrono::milliseconds(500)};
  std::chrono::nanoseconds HealthPeriod{std::chrono::milliseconds(20)};
  /// Flight recorder (one per shard, always armed): where anomaly dumps
  /// go (empty = keep events in memory but write no dumps), how far back
  /// the retained window reaches, and the per-shard minimum spacing
  /// between written dumps. Per-thread rings keep the flight recorder's
  /// default capacity.
  std::string FlightDir;
  std::chrono::nanoseconds FlightRetain{std::chrono::seconds(30)};
  std::chrono::nanoseconds FlightMinDumpGap{std::chrono::seconds(2)};
};

class ServerContext {
public:
  explicit ServerContext(const ServerOptions &Opts);

  /// Graceful: drains every shard, then stops them.
  ~ServerContext();

  ServerContext(const ServerContext &) = delete;
  ServerContext &operator=(const ServerContext &) = delete;

  /// Registers (or replaces) \p P under its name and gives a new name
  /// the next dense tenant id (a replacement keeps the old one). Call
  /// before the tenant submits; replacement requires no job of the old
  /// policy in flight.
  void registerTenant(TenantPolicy P);

  /// Submits \p Work for \p Tenant. Always returns a valid future: an
  /// unknown tenant, a full shard queue, or a draining server resolve
  /// it immediately with `JobOutcome::Rejected`.
  std::future<JobResult> submit(const std::string &Tenant, Job Work);

  /// Blocks until every shard's queue is empty and idle.
  void drain();

  /// Drains, then stops every shard. Idempotent; the destructor calls
  /// it. After shutdown every submit() rejects.
  void shutdown();

  /// The whole server's state in Prometheus text exposition format
  /// (version 0.0.4).
  std::string metricsText() const;

  /// Live-introspection JSON for `GET /statusz`: per-shard health /
  /// backlog / flight-recorder state, per-tenant outcome tallies and
  /// breaker states, profile-store site summaries, and every in-flight
  /// job with its age, attempt, and TraceId.
  std::string statusJson() const;

  /// Reassembles the span tree of job \p TraceId from the shards'
  /// flight-recorder windows into \p Out (JSON). False when no retained
  /// event carries that id — evicted, never admitted, or unknown — in
  /// which case `/debug/trace` answers 404.
  bool traceJson(uint64_t TraceId, std::string &Out) const;

  unsigned numShards() const { return static_cast<unsigned>(Shards.size()); }
  Shard &shard(unsigned I) { return *Shards[I]; }
  const Shard &shard(unsigned I) const { return *Shards[I]; }
  const WorkloadCatalog &catalog() const { return Catalog; }

  /// The registered tenant's server-side state (null if unknown).
  /// Stable for the server's lifetime once registered.
  TenantState *tenant(const std::string &Name);

  /// Liveness summary for /healthz: Draining once shutdown started,
  /// Degraded while any shard is quarantined, Ok otherwise.
  ServerHealth health() const;

  /// Times shard \p I was quarantined by the health watchdog.
  uint64_t shardQuarantines(unsigned I) const {
    return Quarantines[I].load(std::memory_order_relaxed);
  }

private:
  /// Picks an admissible shard for \p TS — not quarantined, circuit
  /// breaker not open, not \p Exclude — or null when no shard
  /// qualifies. Applies the configured admission policy among the
  /// admissible ones.
  Shard *pickShardFor(TenantState *TS, const Shard *Exclude = nullptr);

  /// Shard completion hook: decides retry vs terminal resolution.
  void onJobFinished(Ticket &&T, JobResult &&R);
  /// Records, releases the in-flight slot, and fulfils the promise.
  void resolveTerminal(Ticket &&T, JobResult &&R);

  bool breakerAllows(TenantState *TS, unsigned ShardIdx);
  /// Returns true when this record *opened* the breaker (a closed or
  /// half-open breaker transitioned to open) — an anomaly worth a
  /// flight dump.
  bool breakerRecord(TenantState *TS, unsigned ShardIdx, bool Success);

  /// Requests a post-mortem dump from shard \p ShardIdx's flight
  /// recorder (no-op unless `ServerOptions::FlightDir` is set;
  /// rate-limited per shard).
  void flightDump(unsigned ShardIdx, const std::string &Reason,
                  const std::string &Detail);

  void retryLoop();
  void healthLoop();

  const ServerOptions Opts;
  const WorkloadCatalog Catalog;
  std::vector<std::unique_ptr<Shard>> Shards;

  mutable std::mutex TenantsM;
  /// node-stable map: TenantState addresses outlive rehashing.
  std::map<std::string, std::unique_ptr<TenantState>> Tenants;

  std::atomic<uint64_t> NextShard{0}; ///< RoundRobin cursor.
  std::atomic<uint64_t> NextTraceId{0}; ///< Causal trace ids, from 1.
  std::atomic<bool> Down{false};

  /// What /statusz reports about a job that was admitted but has not
  /// terminally resolved (queued, running, or waiting out retry
  /// backoff). Keyed by TraceId in `InFlightJobs`.
  struct InFlightJob {
    std::string Tenant;
    JobKind Kind = JobKind::Lex;
    std::chrono::steady_clock::time_point Enqueued;
    int Attempt = 1;
  };
  mutable std::mutex JobsM;
  std::map<uint64_t, InFlightJob> InFlightJobs;

  /// A failed job waiting out its backoff before re-admission.
  struct RetryEntry {
    Ticket T;
    JobResult LastResult; ///< Resolves the job if the retry can't run.
    std::chrono::steady_clock::time_point NotBefore;
  };
  mutable std::mutex RetryM;
  std::condition_variable RetryCV;
  std::vector<RetryEntry> RetryQueue;
  bool RetryStop = false;
  std::mt19937_64 JitterRng{0x5bd1e995u}; ///< Guarded by RetryM.
  /// Tickets admitted but not yet terminally resolved (queued, running,
  /// or awaiting retry). drain() waits for zero.
  std::atomic<int64_t> InFlight{0};

  std::vector<std::atomic<uint64_t>> Quarantines; ///< Per shard.
  std::atomic<bool> HealthStop{false};

  std::thread RetryThread, HealthThread;
};

} // namespace serving
} // namespace specpar

#endif // SPECPAR_SERVING_SERVERCONTEXT_H
