//===- serving/Job.h - specd job and result types ---------------*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unit of work `specd` serves. A job names one of the paper's three
/// applications (lexing, Huffman decoding, MWIS) to run against the
/// server's preloaded workload catalog, the catalog's Speculate program
/// (compiled onto the native runtime by src/compile/ at server start),
/// or carries an arbitrary callable that receives the shard-bound
/// `rt::SpecConfig` and runs its own speculative computation on it.
///
/// Results are value + unified `rt::stats::Snapshot` + latency, with the
/// outcome classified the way the runtime classifies aborts: a deadline
/// expiry is `TimedOut`, an injected/user fault is `Faulted`, a full
/// admission queue is `Rejected` (the job never ran).
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_SERVING_JOB_H
#define SPECPAR_SERVING_JOB_H

#include "huffman/Huffman.h"
#include "lexgen/Lexer.h"
#include "runtime/Stats.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace specpar {
namespace rt {
class SpecConfig;
} // namespace rt
namespace compile {
class CompiledProgram;
} // namespace compile
namespace serving {

/// What a job asks the server to run.
enum class JobKind : uint8_t {
  Lex,      ///< Speculative lexing over the catalog's source text.
  Decode,   ///< Speculative Huffman decoding of the catalog's bit stream.
  Mwis,     ///< Two-phase speculative MWIS over the catalog's path graph.
  Spec,     ///< The catalog's Speculate program via the native compiler.
  Callable, ///< A caller-supplied function run under the tenant's config.
};

const char *jobKindName(JobKind K);

struct Job {
  JobKind Kind = JobKind::Lex;
  /// For `Callable`: the work itself. Receives the fully lowered config
  /// (tenant policy bound to the admitting shard's executor) and returns
  /// an application-defined value surfaced as `JobResult::Value`.
  std::function<int64_t(const rt::SpecConfig &)> Fn;

  static Job lex() { return {JobKind::Lex, nullptr}; }
  static Job decode() { return {JobKind::Decode, nullptr}; }
  static Job mwis() { return {JobKind::Mwis, nullptr}; }
  static Job spec() { return {JobKind::Spec, nullptr}; }
  static Job callable(std::function<int64_t(const rt::SpecConfig &)> F) {
    return {JobKind::Callable, std::move(F)};
  }
};

/// Terminal state of a served job.
enum class JobOutcome : uint8_t {
  Ok,       ///< Completed; output verified against the catalog oracle.
  TimedOut, ///< The tenant's deadline expired (rt::SpecTimeoutError).
  Faulted,  ///< The run threw (rt::SpecFaultError or a user exception).
  Rejected, ///< Admission refused the job (queue full / unknown tenant /
            ///< server draining); it never reached an executor.
};

const char *jobOutcomeName(JobOutcome O);

struct JobResult {
  JobOutcome Outcome = JobOutcome::Rejected;
  /// Application value: token count (Lex), decoded bytes (Decode), total
  /// weight (Mwis), or the callable's return.
  int64_t Value = 0;
  /// The run's unified speculation + executor-delta statistics.
  rt::stats::Snapshot Stats;
  /// Enqueue-to-completion wall time (queueing included).
  std::chrono::nanoseconds Latency{0};
  /// Index of the shard that executed (or rejected) the job.
  unsigned Shard = 0;
  /// For Faulted/Rejected: what went wrong.
  std::string Error;
  /// Executions this result took: 1 for a first-attempt resolution, up
  /// to 1 + TenantPolicy::MaxRetries when retries ran. 0 when no
  /// attempt body ever ran — rejected at admission, or the deadline
  /// budget was exhausted before the first dispatch.
  int Attempts = 0;
  /// True when an attempt body actually ran on `Shard` to produce this
  /// result. False for admission/shutdown rejects and for jobs whose
  /// total deadline was exhausted while queued or in retry backoff —
  /// those say nothing about the shard's health, so the serving layer
  /// must not feed them to the per-tenant×shard circuit breaker.
  bool Executed = false;
  /// When the failure came from an injected `rt::SpecFaultError`: the
  /// firing site's stable name (e.g. "body-throw") and 1-based probe
  /// index, so a chaos-soak failure is reproducible from the serving
  /// log alone. Empty / 0 otherwise.
  std::string FaultSiteName;
  uint64_t FaultProbe = 0;
  /// The causal trace id minted for this job at admission. Every
  /// runtime event of every execution attempt (across retries and
  /// shards) carries it, so the job's full story is retrievable from
  /// `GET /debug/trace?id=<TraceId>` while it remains in the flight
  /// recorders' retained window. 0 only for unknown-tenant rejects
  /// (nothing was admitted, nothing can be traced).
  uint64_t TraceId = 0;
};

/// The datasets every app job runs against, built once at server start
/// so request handling never regenerates inputs. Oracles are the
/// sequential results; every speculative run is checked against them
/// (a mismatch is a server bug, reported as Faulted).
///
/// Non-copyable and non-movable: `Bits` aliases `Enc.Bytes`, so the
/// catalog is pinned where it was constructed.
class WorkloadCatalog {
public:
  /// Builds the catalog at roughly \p Scale bytes/symbols/nodes per
  /// dataset (clamped to a small floor so tiny smoke scales still
  /// exercise every app).
  explicit WorkloadCatalog(int64_t Scale, uint64_t Seed = 17);

  WorkloadCatalog(const WorkloadCatalog &) = delete;
  WorkloadCatalog &operator=(const WorkloadCatalog &) = delete;

  lexgen::Lexer Lex;
  std::string Text;
  int64_t LexOracleTokens = 0;

  huffman::Encoded Enc;
  huffman::Decoder Dec;
  huffman::BitReader Bits;
  std::vector<uint8_t> HuffOracle;

  std::vector<int64_t> Weights;
  int64_t MwisOracleWeight = 0;
  std::vector<int32_t> MwisOracleMembers;

  /// The Speculate program `JobKind::Spec` serves: a scale-sized
  /// sum-of-squares specfold with a closed-form predictor, compiled
  /// once at catalog build through src/compile/ so every Spec job runs
  /// on the native runtime under the tenant's config. The oracle is the
  /// reference interpreter's non-speculative result, cross-checked at
  /// construction against the closed form — a later speculative
  /// mismatch is therefore a server bug, reported as Faulted.
  std::string SpecSource;
  std::shared_ptr<const compile::CompiledProgram> SpecProgram;
  int64_t SpecOracle = 0;
};

} // namespace serving
} // namespace specpar

#endif // SPECPAR_SERVING_JOB_H
