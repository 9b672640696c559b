//===- compile/Compiler.h - Speculate -> native-runtime lowering -*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `sp_compile`: lowers resolved, checker-accepted Speculate programs
/// onto the native speculation runtime. Lambdas closure-convert to code
/// objects over flat slot-indexed frames (lang/Resolver.cpp assigns the
/// slots), arrays land on contiguous buffers and cells on a per-run
/// arena (compile/Runtime.h), literal `fold` bodies inline into the
/// enclosing frame as plain loops, and the speculation constructs map
/// onto the production entry points — `specfold` onto
/// `Speculation::iterateChunked` with the program's guess expression as
/// the chunk predictor, `spec` onto `Speculation::apply` — so the
/// executor, tracer, fault-injection, profile and stats plumbing all
/// apply to Speculate programs unchanged.
///
/// Admission gate: `compileProgram` runs the rollback-freedom checker
/// (analysis/RollbackChecker.h) and by default refuses programs it
/// rejects — the static proof is what makes lock-free native execution
/// of `spec`/`specfold` sound. Checker-rejected or structurally
/// non-lowerable programs report *why* (per site / per node) in the
/// AdmissionReport; callers that want transparent fallback to the
/// reference SpecMachine use `compile::runSpeculate`
/// (compile/RunSpeculate.h) instead of calling this directly.
///
/// Intentional config restriction: compiled spec sites strip
/// `SpecConfig::shield()` / `attemptBudget()`. The shield's containment
/// path `siglongjmp`s past destructors, which would corrupt the
/// compiled runtime's frame stacks and could abandon a thread holding
/// the run-heap mutex; compiled bodies are bounds-checked and
/// fuel-limited, so crashes cannot originate in them and runaways are
/// bounded by the step budget instead.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_COMPILE_COMPILER_H
#define SPECPAR_COMPILE_COMPILER_H

#include "analysis/RollbackChecker.h"
#include "interp/RunOutcome.h"
#include "lang/Ast.h"
#include "runtime/Speculation.h"
#include "support/Result.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace specpar {
namespace compile {

/// Compilation knobs.
struct CompileOptions {
  /// Admission-gate configuration, forwarded to the rollback checker.
  analysis::CheckerOptions Checker;
  /// When true (the default), a program the checker rejects does not
  /// compile — the returned error names the failing site and condition.
  /// Tests and the REPL may disable this to inspect the lowering of
  /// unsafe programs; *running* such a compiled program executes its
  /// speculation sites without the paper's safety proof.
  bool RequireCheckerAccept = true;
};

/// One per-node lowering diagnostic: the node kind, where it is, and
/// either why it cannot lower (AdmissionReport::Unlowerable) or what the
/// compiler did with it (AdmissionReport::Notes).
struct NodeDiag {
  std::string Kind;
  lang::SourceLoc Loc;
  std::string Detail;

  std::string str() const;
};

/// Everything the admission gate decided about one program: the checker
/// verdict (with the failing sites' reports when rejected) plus the
/// structural lowering diagnostics. `runSpeculate` surfaces this when it
/// falls back to the interpreter; the REPL's `:compile` command prints
/// it in full.
struct AdmissionReport {
  /// Checker verdict.
  bool CheckerRan = false;
  bool CheckerAccepted = false;
  bool CheckerBudgetExceeded = false;
  /// Site reports for every *unsafe* site (empty when accepted).
  std::vector<analysis::SiteReport> UnsafeSites;

  /// Structural reasons the program cannot lower (empty when it can).
  std::vector<NodeDiag> Unlowerable;
  /// Per-node lowering decisions: inlined folds, fused specfold bodies,
  /// closure conversions with capture counts, spec-site mappings.
  std::vector<NodeDiag> Notes;

  /// Final verdict and its one-line reason ("" when admitted).
  bool Admitted = false;
  std::string WhyNot;

  uint64_t SpecSites = 0;
  uint64_t NodesLowered = 0;

  /// Multi-line human rendering (verdict, reasons, notes).
  std::string str() const;
};

/// A Speculate program lowered onto the native runtime. Self-contained:
/// the source Program may be destroyed after compilation. Immutable and
/// safe to run from any number of threads concurrently.
class CompiledProgram {
public:
  struct RunOptions {
    /// Base configuration for every spec site of the run: executor,
    /// validation mode, tracer, faults, deadline, degrade,
    /// autotune, profile store/site (suffixed "#<site>" per static
    /// site). shield()/attemptBudget() are stripped — see file comment.
    /// The deadline, when set, is a whole-run budget: each site runs
    /// under the remaining portion.
    rt::SpecConfig Config;
    /// Chunk size for `specfold` sites (iterations per speculative
    /// attempt). With `Config.autotune()` armed this is the initial
    /// granularity.
    int64_t ChunkSize = 8;
    /// Step-budget analogue of the interpreters' MaxSteps: one fuel
    /// unit per compiled-node evaluation, drawn in batches by each
    /// participating thread, which returns what it leaves unspent.
    /// Exhaustion yields a StepLimit outcome.
    uint64_t MaxSteps = 50000000;
  };

  /// What a run produced. `Run` carries the shared outcome surface
  /// (status, value, steps); Steps are exact: the compiled nodes
  /// evaluated, one fuel unit each.
  struct Outcome {
    interp::RunOutcome Run;
    /// False when main's value has no interp::Value projection (a
    /// closure/function/reference result); Run.Result is unit then and
    /// callers needing full fidelity should rerun the interpreter.
    bool ResultLowered = true;
    /// Aggregated native speculation counters across every spec-site
    /// run, plus how many such runs executed.
    rt::SpeculationStats Stats;
    uint64_t SpecSiteRuns = 0;
  };

  /// Runs the program. Speculate-level errors (type errors, division by
  /// zero, bounds) and step-limit exhaustion come back as outcomes;
  /// environmental exceptions — rt::SpecTimeoutError, rt::SpecFaultError
  /// — propagate so callers classify them exactly like hand-written
  /// native runs. Throws std::invalid_argument when ChunkSize <= 0.
  Outcome run(const RunOptions &Opts) const;
  Outcome run() const;

  /// Static spec-site count (compile-time, not dynamic executions).
  uint64_t specSites() const;

  ~CompiledProgram();
  CompiledProgram(const CompiledProgram &) = delete;
  CompiledProgram &operator=(const CompiledProgram &) = delete;

  struct Impl;
  explicit CompiledProgram(std::unique_ptr<Impl> I);

private:
  std::unique_ptr<Impl> I;
};

/// Lowers \p P. On success the returned program is independent of \p P's
/// lifetime. On failure the Result's error is the one-line WhyNot; when
/// \p Report is non-null it receives the full admission report either
/// way.
Result<std::shared_ptr<CompiledProgram>>
compileProgram(const lang::Program &P,
               const CompileOptions &Opts = CompileOptions(),
               AdmissionReport *Report = nullptr);

} // namespace compile
} // namespace specpar

#endif // SPECPAR_COMPILE_COMPILER_H
