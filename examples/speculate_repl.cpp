//===- examples/speculate_repl.cpp - The whole Speculate pipeline ---------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Runs a .spec program through the entire Section 2-5 pipeline:
///
///   speculate_repl <file.spec> [--seed N] [--sched random|rr|prio]
///                  [--trace] [--no-spec] [--compile]
///
/// It parses and resolves the program, runs the rollback-freedom checker,
/// executes the non-speculative semantics, executes the speculative
/// semantics, and reports result agreement and final-state/dependence
/// equivalence. With --compile it additionally runs the program through
/// the native compiler's admission gate (src/compile/), prints the full
/// per-node lowering report, and times the compiled execution against
/// the interpreted one, on a `--threads N` executor (0: the default
/// shard).
///
//===----------------------------------------------------------------------===//

#include "analysis/RollbackChecker.h"
#include "compile/RunSpeculate.h"
#include "interp/NonSpecEval.h"
#include "interp/SpecMachine.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "runtime/SpecExecutor.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"
#include "support/Timer.h"
#include "trace/Equivalence.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace specpar;

int main(int Argc, char **Argv) {
  ArgParser Args("speculate_repl",
                 "Runs a .spec program through the full pipeline: parse, "
                 "rollback-freedom check, both semantics, equivalence.");
  std::string *Path = Args.positional("file.spec", "the program to run");
  int64_t *Seed = Args.intOption("seed", 1, "speculative scheduler seed");
  std::string *SchedName =
      Args.strOption("sched", "random", "scheduler: random|rr|prio");
  bool *ShowTracePtr = Args.flag("trace", "print the recorded traces");
  bool *ShowDotPtr =
      Args.flag("dot", "print the abstract heap graph (paper Figure 5)");
  bool *ShowStatePtr =
      Args.flag("state", "print the final heap state of each run");
  bool *NoSpecPtr = Args.flag("no-spec",
                              "stop after the non-speculative run");
  bool *CompilePtr = Args.flag(
      "compile", "run the native compiler's admission gate, print the "
                 "lowering report, and time compiled vs interpreted");
  int64_t *Threads =
      Args.intOption("threads", 4,
                     "compiled-path executor threads (0: default shard)", 0,
                     256);
  if (!Args.parse(Argc, Argv))
    return Args.helpRequested() ? 0 : 2;
  bool ShowTrace = *ShowTracePtr;
  bool ShowDot = *ShowDotPtr;
  bool RunSpec = !*NoSpecPtr;
  interp::SchedulerKind Sched =
      *SchedName == "rr"     ? interp::SchedulerKind::RoundRobin
      : *SchedName == "prio" ? interp::SchedulerKind::NonSpecPriority
                             : interp::SchedulerKind::Random;

  std::string Source;
  if (!readFileToString(*Path, Source)) {
    std::fprintf(stderr, "error: cannot read %s\n", Path->c_str());
    return 2;
  }
  auto PR = lang::parseProgram(Source);
  if (!PR) {
    std::fprintf(stderr, "parse error: %s\n", PR.error().c_str());
    return 1;
  }
  const lang::Program &P = **PR;
  std::printf("parsed %zu function(s), %lld AST nodes\n", P.Funs.size(),
              static_cast<long long>(lang::countNodes(P)));

  // Static rollback-freedom check (paper Section 5).
  Timer CheckTimer;
  analysis::AnalysisReport Report = analysis::checkRollbackFreedom(P);
  std::printf("--- static analysis (%.3f ms) ---\n%s",
              CheckTimer.elapsedMillis(), Report.str().c_str());
  for (const analysis::SiteReport &SR : Report.Sites)
    if (!SR.ProducerEffects.empty())
      std::printf("  at %d:%d  producer: %s\n            consumer: %s\n",
                  SR.Site->loc().Line, SR.Site->loc().Col,
                  SR.ProducerEffects.c_str(), SR.ConsumerEffects.c_str());
  if (ShowDot)
    std::printf("--- abstract heap graph (paper Figure 5) ---\n%s",
                Report.HeapGraphDot.c_str());

  // Non-speculative semantics (the specification).
  interp::RunOutcome N = interp::runNonSpeculative(P);
  if (!N.ok()) {
    std::printf("non-speculative run: %s\n", N.statusStr().c_str());
    return 1;
  }
  std::printf("--- non-speculative ---\nresult = %s, %llu steps, %zu "
              "interesting transitions\n",
              N.Result.str().c_str(),
              static_cast<unsigned long long>(N.Steps),
              N.Trace.Events.size());
  if (ShowTrace)
    std::printf("%s", N.Trace.str().c_str());
  if (*ShowStatePtr)
    std::printf("%s", N.Final.str().c_str());

  // The native compiler: admission verdict, per-node lowering report,
  // and an interpreted-vs-compiled timing comparison.
  if (*CompilePtr) {
    std::printf("--- native compilation (src/compile) ---\n");
    Timer CompileTimer;
    compile::AdmissionReport Rep;
    auto Compiled = compile::compileProgram(P, compile::CompileOptions(),
                                            &Rep);
    std::printf("%s(compiled in %.3f ms)\n", Rep.str().c_str(),
                CompileTimer.elapsedMillis());
    if (Compiled) {
      // Interpreted timing: one reference SpecMachine run.
      interp::MachineOptions MO;
      MO.Seed = static_cast<uint64_t>(*Seed);
      MO.Sched = Sched;
      Timer InterpTimer;
      interp::SpecRunOutcome SI = interp::runSpeculative(P, MO);
      double InterpMs = InterpTimer.elapsedMillis();
      // Compiled timing: same program on the native runtime.
      compile::CompiledProgram::RunOptions RO;
      if (*Threads > 0)
        RO.Config.executor(
            rt::SpecExecutor::create(static_cast<unsigned>(*Threads)));
      Timer RunTimer;
      compile::CompiledProgram::Outcome O = (*Compiled)->run(RO);
      double CompiledMs = RunTimer.elapsedMillis();
      if (!O.Run.ok()) {
        std::printf("compiled run: %s: %s\n", O.Run.statusStr().c_str(),
                    O.Run.Error.Message.c_str());
        return 1;
      }
      std::printf("compiled result = %s (%s the non-speculative result)\n",
                  O.Run.Result.str().c_str(),
                  O.Run.Result.isInt() && N.Result.isInt() &&
                          O.Run.Result.asInt() == N.Result.asInt()
                      ? "matches"
                      : "DOES NOT MATCH");
      std::printf("compiled: %.3f ms (~%llu steps), %lld tasks, %lld "
                  "predictions, %lld mispredictions, %lld re-executions\n",
                  CompiledMs,
                  static_cast<unsigned long long>(O.Run.Steps),
                  static_cast<long long>(O.Stats.Tasks),
                  static_cast<long long>(O.Stats.Predictions),
                  static_cast<long long>(O.Stats.Mispredictions),
                  static_cast<long long>(O.Stats.Reexecutions));
      std::printf("interpreted: %.3f ms (%llu steps)  ->  speedup %.1fx\n",
                  InterpMs, static_cast<unsigned long long>(SI.Steps),
                  CompiledMs > 0 ? InterpMs / CompiledMs : 0.0);
    } else {
      std::printf("falling back to the interpreter: %s\n",
                  Compiled.error().c_str());
    }
  }

  if (!RunSpec)
    return 0;

  // Speculative semantics.
  interp::MachineOptions MO;
  MO.Seed = static_cast<uint64_t>(*Seed);
  MO.Sched = Sched;
  interp::SpecRunOutcome S = interp::runSpeculative(P, MO);
  if (!S.ok()) {
    std::printf("speculative run: %s\n", S.statusStr().c_str());
    return 1;
  }
  std::printf("--- speculative (seed %llu) ---\n"
              "result = %s, %llu steps, %llu threads, %llu predictions, "
              "%llu mispredictions, %llu cancellations\n",
              static_cast<unsigned long long>(*Seed), S.Result.str().c_str(),
              static_cast<unsigned long long>(S.Steps),
              static_cast<unsigned long long>(S.ThreadsSpawned),
              static_cast<unsigned long long>(S.Predictions),
              static_cast<unsigned long long>(S.Mispredictions),
              static_cast<unsigned long long>(S.Cancellations));
  if (ShowTrace)
    std::printf("%s", S.Trace.str().c_str());
  if (*ShowStatePtr)
    std::printf("%s", S.Final.str().c_str());

  // Equivalence (paper Section 3.1).
  tr::EquivResult Fin = tr::checkFinalStateEquivalent(N.Final, S.Final);
  std::printf("final-state equivalent: %s%s\n", Fin.ok() ? "yes" : "NO",
              Fin.ok() ? "" : (" — " + Fin.Explanation).c_str());
  tr::EquivResult Dep = tr::checkDependenceEquivalent(N.Trace, S.Trace);
  const char *DepStr =
      Dep.Status == tr::EquivStatus::Equivalent
          ? "yes"
          : (Dep.Status == tr::EquivStatus::ResourceLimit ? "unknown (budget)"
                                                          : "NO");
  std::printf("dependence equivalent: %s%s\n", DepStr,
              Dep.ok() || Dep.Status == tr::EquivStatus::ResourceLimit
                  ? ""
                  : (" — " + Dep.Explanation).c_str());
  return Fin.ok() ? 0 : 1;
}
