//===- bench/soak_chaos.cpp - Randomized fault-injection soak -------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Chaos soak for the speculation runtime: runs the three paper
/// applications (lexing, Huffman decoding, MWIS) under many randomized
/// but seeded FaultPlans and checks every completed run against the
/// sequential oracle.
///
/// Each plan draws per-site firing probabilities, jitter delays, task
/// counts, validation mode, and sometimes a deadline and/or the adaptive
/// degrade fallback from a master-seeded Rng, so a failing plan index
/// reproduces exactly (re-run with the same --seed and --plans).
///
/// Outcome taxonomy per run:
///  * ok        — run completed; output must equal the sequential oracle
///                (any mismatch is a hard failure).
///  * fault     — an injected BodyThrow escaped as SpecFaultError. The
///                runtime contract is "a throwing body aborts the run
///                like sequential code would"; acceptable.
///  * timeout   — the armed deadline expired (SpecTimeoutError);
///                acceptable, but the executor must still be drained
///                (the per-plan executor's destructor enforces this).
/// Anything else that escapes — or a completed run whose output differs
/// from the oracle — fails the soak.
///
//===----------------------------------------------------------------------===//

#include "apps/SpeculativeHuffman.h"
#include "apps/SpeculativeLexing.h"
#include "apps/SpeculativeMwis.h"
#include "runtime/FaultPlan.h"
#include "runtime/SpecExecutor.h"
#include "runtime/Speculation.h"
#include "support/CommandLine.h"
#include "support/Rng.h"
#include "workloads/Datasets.h"
#include "workloads/SourceGen.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace specpar;
using namespace specpar::apps;
using namespace specpar::lexgen;
using namespace specpar::huffman;
using namespace specpar::workloads;

namespace {

struct Tally {
  int64_t Ok = 0;
  int64_t Faults = 0;
  int64_t Timeouts = 0;
  int64_t Degraded = 0; // completed runs that tripped the fallback
};

struct Failure {
  int64_t Plan;
  std::string App;
  std::string What;
};

/// One app run under a plan: invokes \p Run (which returns true iff the
/// output matched the oracle) and classifies the outcome.
template <typename Fn>
void runOne(int64_t PlanIdx, const char *App, Tally &T,
            std::vector<Failure> &Failures, Fn &&Run) {
  try {
    if (Run())
      ++T.Ok;
    else
      Failures.push_back({PlanIdx, App, "output != sequential oracle"});
  } catch (const rt::SpecFaultError &E) {
    // Injected throw faults surface exactly like a throwing user body.
    ++T.Faults;
    (void)E;
  } catch (const rt::SpecTimeoutError &) {
    ++T.Timeouts;
  } catch (const std::exception &E) {
    Failures.push_back({PlanIdx, App, std::string("unexpected: ") + E.what()});
  }
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParser Args("soak_chaos",
                 "Randomized fault-injection soak over the three apps");
  int64_t *Plans = Args.intOption("plans", 100, "number of fault plans");
  int64_t *Seed = Args.intOption("seed", 1, "master seed");
  int64_t *Verbose = Args.intOption("verbose", 0, "print every plan");
  if (!Args.parse(Argc, Argv))
    return Args.helpRequested() ? 0 : 2;

  // --- Small fixed datasets + sequential oracles, computed once. --------
  Lexer LX = makeLexer(Language::Java);
  std::string Text = generateSource(Language::Java, 7, 60000);
  std::vector<Token> LexOracle = sequentialLex(LX, Text);

  std::vector<uint8_t> HuffData =
      generateHuffmanData(HuffmanFlavour::Text, 11, 40000);
  Encoded Enc = encode(HuffData);
  Decoder Dec(Enc.Code);
  BitReader Bits(Enc.Bytes, Enc.NumBits);

  std::vector<int64_t> Weights = generatePathGraph(13, 30000, 1000);
  std::vector<int32_t> MwisMembers;
  int64_t MwisWeight = mwis::solveSequential(Weights, &MwisMembers);

  Rng Master(static_cast<uint64_t>(*Seed));
  Tally T;
  std::vector<Failure> Failures;
  uint64_t TotalInjected = 0;
  int64_t Contained = 0, Runaways = 0;

  for (int64_t P = 0; P < *Plans; ++P) {
    Rng R = Master.split();

    // Throw sites stay rare so most runs complete; schedule sites can be
    // dense — they must never affect outcomes, only schedules.
    rt::FaultPlan Plan(R.next());
    Plan.arm(rt::FaultSite::PredictorThrow, R.nextDouble() * 0.05)
        .arm(rt::FaultSite::BodyThrow, R.nextBool(0.5) ? R.nextDouble() * 0.01
                                                       : 0.0)
        .arm(rt::FaultSite::ComparatorThrow, R.nextDouble() * 0.10)
        .arm(rt::FaultSite::ForceMispredict, R.nextDouble() * 0.40)
        .arm(rt::FaultSite::SpuriousCancel, R.nextDouble() * 0.40)
        .arm(rt::FaultSite::DelayTaskStart, R.nextDouble() * 0.30)
        .arm(rt::FaultSite::JitterWakeup, R.nextDouble() * 0.20)
        .delayRange(std::chrono::microseconds(R.nextInRange(1, 20)),
                    std::chrono::microseconds(R.nextInRange(20, 200)));

    const int NumTasks = static_cast<int>(R.nextInRange(2, 8));
    const int Threads = static_cast<int>(R.nextInRange(1, 4));
    const rt::ValidationMode Mode =
        R.nextBool(0.5) ? rt::ValidationMode::Seq : rt::ValidationMode::Par;

    rt::SpecConfig Cfg = rt::SpecConfig().mode(Mode).faults(&Plan);
    // Half the plans run shielded, and only then arm the hardware-fault
    // and runaway sites: a crash with no shield kills the process — by
    // design — so unshielded plans must not probe them.
    if (R.nextBool(0.5)) {
      Cfg.shield().attemptBudget(std::chrono::milliseconds(5));
      Plan.arm(rt::FaultSite::CrashInBody, R.nextDouble() * 0.03)
          .arm(rt::FaultSite::RunawayBody, R.nextDouble() * 0.02)
          .runawayCap(std::chrono::milliseconds(20));
    }
    // Short enough that some deadlines really expire mid-run on these
    // ~1ms datasets (the timeout path is an acceptable abort below).
    if (R.nextBool(0.25))
      Cfg.deadline(std::chrono::microseconds(R.nextInRange(100, 8000)));
    bool Degrading = R.nextBool(0.33);
    if (Degrading)
      Cfg.degrade(0.3 + R.nextDouble() * 0.4,
                  static_cast<int>(R.nextInRange(4, 8)));
    // One executor per plan, declared after it: the plan also drives the
    // executor's timing sites, and the executor's destructor proves the
    // drain before the plan dies.
    rt::SpecExecutor Ex(static_cast<unsigned>(Threads));
    Ex.injectFaults(&Plan);
    Cfg.executor(Ex);

    if (*Verbose)
      std::printf("plan %3lld: tasks=%d threads=%d mode=%s %s\n",
                  static_cast<long long>(P), NumTasks, Threads,
                  Mode == rt::ValidationMode::Seq ? "seq" : "par",
                  Plan.str().c_str());

    int64_t DegradedBefore = 0;
    runOne(P, "lex", T, Failures, [&] {
      LexRun Run = speculativeLex(LX, Text, NumTasks, /*Overlap=*/64, Cfg);
      DegradedBefore += Run.Stats.Spec.DegradedChunks;
      Contained += Run.Stats.Spec.ContainedCrashes;
      Runaways += Run.Stats.Spec.RunawayCancels;
      return Run.Tokens == LexOracle;
    });
    runOne(P, "huffman", T, Failures, [&] {
      HuffmanRun Run =
          speculativeDecode(Dec, Bits, NumTasks, /*OverlapBits=*/64 * 8, Cfg);
      DegradedBefore += Run.Stats.Spec.DegradedChunks;
      Contained += Run.Stats.Spec.ContainedCrashes;
      Runaways += Run.Stats.Spec.RunawayCancels;
      return Run.Decoded == HuffData;
    });
    runOne(P, "mwis", T, Failures, [&] {
      MwisRun Run = speculativeMwis(Weights, NumTasks, /*Overlap=*/32, Cfg);
      DegradedBefore +=
          Run.ForwardStats.DegradedChunks + Run.BackwardStats.DegradedChunks;
      Contained += Run.Stats.Spec.ContainedCrashes;
      Runaways += Run.Stats.Spec.RunawayCancels;
      return Run.Weight == MwisWeight && Run.Members == MwisMembers;
    });
    if (DegradedBefore > 0)
      ++T.Degraded;
    TotalInjected += Plan.totalFired();
  }

  // --- Crash-containment soak: a fixed CrashInBody p=0.05, shielded. ----
  // No throw sites and no deadline, so EVERY run must complete and match
  // the sequential oracle: each injected hardware fault is contained and
  // its attempt re-executed. One escaped SIGSEGV kills the process — the
  // soak cannot even report the failure, which is the point.
  const int64_t CrashPlans = std::max<int64_t>(1, *Plans / 5);
  int64_t CrashOk = 0;
  for (int64_t P = 0; P < CrashPlans; ++P) {
    Rng R = Master.split();
    rt::FaultPlan Plan(R.next());
    Plan.arm(rt::FaultSite::CrashInBody, 0.05);
    const int NumTasks = static_cast<int>(R.nextInRange(2, 8));
    rt::SpecExecutor Ex(static_cast<unsigned>(R.nextInRange(1, 4)));
    Ex.injectFaults(&Plan);
    rt::SpecConfig Cfg = rt::SpecConfig().executor(Ex).faults(&Plan).shield();
    Tally CT; // crash-section runs land in their own tally
    runOne(-1 - P, "lex(crash)", CT, Failures, [&] {
      LexRun Run = speculativeLex(LX, Text, NumTasks, /*Overlap=*/64, Cfg);
      Contained += Run.Stats.Spec.ContainedCrashes;
      return Run.Tokens == LexOracle;
    });
    runOne(-1 - P, "huffman(crash)", CT, Failures, [&] {
      HuffmanRun Run =
          speculativeDecode(Dec, Bits, NumTasks, /*OverlapBits=*/64 * 8, Cfg);
      Contained += Run.Stats.Spec.ContainedCrashes;
      return Run.Decoded == HuffData;
    });
    runOne(-1 - P, "mwis(crash)", CT, Failures, [&] {
      MwisRun Run = speculativeMwis(Weights, NumTasks, /*Overlap=*/32, Cfg);
      Contained += Run.Stats.Spec.ContainedCrashes;
      return Run.Weight == MwisWeight && Run.Members == MwisMembers;
    });
    if (CT.Faults + CT.Timeouts > 0)
      Failures.push_back({-1 - P, "crash-section",
                          "abort escaped a plan arming only crash sites"});
    CrashOk += CT.Ok;
    TotalInjected += Plan.totalFired();
  }
  if (CrashOk != CrashPlans * 3)
    Failures.push_back(
        {-1, "crash-section", "not every shielded crash run completed"});

  std::printf("=== soak_chaos: %lld plans x 3 apps (+%lld crash plans) ===\n",
              static_cast<long long>(*Plans),
              static_cast<long long>(CrashPlans));
  std::printf("ok=%lld fault-aborts=%lld timeouts=%lld "
              "plans-with-degrade=%lld injected-faults=%llu "
              "contained-crashes=%lld runaway-cancels=%lld\n",
              static_cast<long long>(T.Ok), static_cast<long long>(T.Faults),
              static_cast<long long>(T.Timeouts),
              static_cast<long long>(T.Degraded),
              static_cast<unsigned long long>(TotalInjected),
              static_cast<long long>(Contained),
              static_cast<long long>(Runaways));

  for (const Failure &F : Failures)
    std::fprintf(stderr, "FAIL plan=%lld app=%s: %s\n",
                 static_cast<long long>(F.Plan), F.App.c_str(),
                 F.What.c_str());
  if (!Failures.empty()) {
    std::fprintf(stderr, "soak_chaos: %zu failure(s)\n", Failures.size());
    return 1;
  }
  // A soak where nothing ever completed would be vacuous — require that
  // the common case (throw sites rarely firing) still finishes runs.
  if (T.Ok < *Plans) {
    std::fprintf(stderr,
                 "soak_chaos: only %lld/%lld runs completed; plan "
                 "probabilities are mistuned\n",
                 static_cast<long long>(T.Ok),
                 static_cast<long long>(*Plans * 3));
    return 1;
  }
  std::printf("soak_chaos: PASS\n");
  return 0;
}
