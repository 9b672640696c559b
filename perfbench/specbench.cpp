//===- perfbench/specbench.cpp - specpar end-to-end benchmark -------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One harness for the three benchmark workloads. It drives specpar only
/// through public calls and times them from outside:
///
///  * apps-direct — a library user: one caller, closed loop, on one
///    explicit nproc-worker executor, calling the paper's three apps at
///    the Fig. 6 input sizes (plus a deliberately mispredicting decode)
///    and the compiled Speculate corpus, back to back;
///  * serve-apps  — specd as deployed (default ServerOptions and
///    TenantPolicy) serving Lex/Decode/Mwis catalog jobs: an open-loop
///    Poisson phase, then a closed-loop saturation phase;
///  * serve-spec  — the same server and phases, serving only the
///    catalog's compiled `specfold` (JobKind::Spec).
///
/// Every op's output is checked against a sequential oracle. With
/// `--trace 0` the last stdout line carries the end-to-end metrics; with
/// `--trace 1` the run records spans around every layer call, runs the
/// per-layer probes, and carries the per-layer metrics instead. run.py in
/// this directory builds the harness and checks its output.
///
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "analysis/RollbackChecker.h"
#include "apps/SpeculativeHuffman.h"
#include "apps/SpeculativeLexing.h"
#include "apps/SpeculativeMwis.h"
#include "compile/Compiler.h"
#include "interp/NonSpecEval.h"
#include "lang/Parser.h"
#include "lexgen/Languages.h"
#include "mwis/Mwis.h"
#include "runtime/Telemetry.h"
#include "serving/ServerContext.h"
#include "support/Rng.h"
#include "support/Timer.h"
#include "workloads/Datasets.h"
#include "workloads/SourceGen.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace specpar;
using perfbench::nowNs;
using perfbench::SpanLog;
using perfbench::SpanScope;
using serving::JobKind;
using serving::JobOutcome;
using serving::JobResult;

namespace {

//===----------------------------------------------------------------------===//
// Constants. Each is fixed here, never derived from a run.
//===----------------------------------------------------------------------===//

/// Open-loop arrival rates, fixed here and never derived from a run. The
/// parent commit sustained about 3,000 app jobs/s and about 100 Spec jobs/s
/// in the closed-loop phase on a 4-vCPU KVM guest, but under other tenants'
/// load the app rate fell to 1,400/s. Both rates sit far below that so the
/// open loop measures per-job latency rather than queueing: at 1,000 app
/// jobs/s a slowed host drove p50 from 0.9 to 6 ms, and at 1,800/s a 70 ms
/// stall filled the default 64-deep shard queues and jobs were rejected;
/// at 30 Spec jobs/s and above, Poisson bursts queued behind the 20+ ms
/// jobs and p90 spread by more than 15% across seeds.
constexpr double kServeAppsRate = 300.0; // jobs/s
constexpr double kServeSpecRate = 20.0;  // jobs/s
/// Share of the measured window spent in the open-loop phase; the rest is
/// the closed-loop saturation phase.
constexpr double kOpenShare = 0.6;

/// apps-direct inputs: the Fig. 6 sizes and predictor windows.
constexpr size_t kLexBytes = 2000000;
constexpr size_t kHuffSymbols = 4000000;
constexpr size_t kMwisNodes = 4000000;
constexpr int64_t kLexOverlap = 2048;
constexpr int64_t kDecodeOverlapBits = 512 * 8;
constexpr int64_t kMwisOverlap = 128;

/// The predictor windows specd's shards use for catalog jobs
/// (src/serving/Shard.cpp), for the per-layer probes of serve-*.
constexpr int64_t kServeLexOverlap = 64;
constexpr int64_t kServeDecodeOverlapBits = 64 * 8;
constexpr int64_t kServeMwisOverlap = 32;

/// apps-direct warm-up rounds inside each set-up.
constexpr int kWarmRounds = 1;

const char *const kCorpusNames[] = {"lexing", "huffman", "mwis"};

//===----------------------------------------------------------------------===//
// Small helpers.
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Smoke = false;
  std::string SpansOut;
};

/// Linear-interpolation quantile (NaN for an empty sample).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return std::nan("");
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}
double median(const std::vector<double> &V) { return quantile(V, 0.5); }
double mean(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return V.empty() ? 0 : S / static_cast<double>(V.size());
}
double msSince(int64_t StartNs) { return (nowNs() - StartNs) / 1e6; }
double ratio(double A, double B) { return B == 0 ? 0 : A / B; }

/// Named metrics in insertion order.
class Metrics {
public:
  void set(const std::string &Name, double Value, const std::string &Unit) {
    Entries.push_back({Name, Value, Unit});
  }
  std::string json() const {
    std::string S = "{";
    char Buf[64];
    for (size_t I = 0; I < Entries.size(); ++I) {
      std::snprintf(Buf, sizeof(Buf), "%.17g", Entries[I].Value);
      S += (I ? ", \"" : "\"") + Entries[I].Name + "\": {\"value\": " +
           (std::isfinite(Entries[I].Value) ? Buf : "null") +
           ", \"unit\": \"" + Entries[I].Unit + "\"}";
    }
    return S + "}";
  }
  void print() const {
    for (const auto &E : Entries)
      std::printf("  %-34s %14.6g %s\n", E.Name.c_str(), E.Value,
                  E.Unit.c_str());
  }

private:
  struct Entry {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Entry> Entries;
};

/// Op accounting: every measured op is attempted once; a non-Ok outcome
/// or a rejection fails it; a wrong output also fails it and makes the
/// whole run incorrect.
struct Tally {
  std::atomic<uint64_t> Attempted{0};
  std::atomic<uint64_t> Failed{0};
  std::atomic<uint64_t> Mismatches{0};
  std::mutex M;
  std::string FirstMismatch;

  void ok() { ++Attempted; }
  void failed() {
    ++Attempted;
    ++Failed;
  }
  void mismatch(const std::string &What) {
    ++Attempted;
    ++Failed;
    if (Mismatches++ == 0) {
      std::lock_guard<std::mutex> Lock(M);
      FirstMismatch = What;
    }
  }
  /// Checks outside the measured window: a mismatch still fails the run.
  void expect(bool Cond, const std::string &What) {
    if (!Cond && Mismatches++ == 0) {
      std::lock_guard<std::mutex> Lock(M);
      FirstMismatch = What;
    }
  }
};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    throw std::runtime_error("cannot read " + Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

//===----------------------------------------------------------------------===//
// Host probe: sustained load before timing, and a fixed spin kernel on 1
// and on nproc threads before and after the measured window.
//===----------------------------------------------------------------------===//

uint64_t spinKernel(uint64_t Iters, uint64_t X) {
  for (uint64_t I = 0; I < Iters; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
  }
  return X;
}

std::atomic<uint64_t> SpinSink{0};

/// Wall time of \p Threads threads each running the fixed spin kernel.
double spinMs(unsigned Threads) {
  constexpr uint64_t Iters = 12000000;
  const int64_t T0 = nowNs();
  std::vector<std::thread> Ts;
  for (unsigned I = 0; I < Threads; ++I)
    Ts.emplace_back(
        [I] { SpinSink += spinKernel(Iters, 88172645463325252ULL + I); });
  for (auto &T : Ts)
    T.join();
  return msSince(T0);
}

void warmHost(unsigned Threads, double Seconds) {
  const int64_t End = nowNs() + static_cast<int64_t>(Seconds * 1e9);
  std::vector<std::thread> Ts;
  for (unsigned I = 0; I < Threads; ++I)
    Ts.emplace_back([End, I] {
      uint64_t X = 1 + I;
      while (nowNs() < End)
        X = spinKernel(100000, X);
      SpinSink += X;
    });
  for (auto &T : Ts)
    T.join();
}

/// The host's (steal, total) CPU jiffies from /proc/stat; zeros where
/// unavailable.
std::pair<uint64_t, uint64_t> cpuJiffies() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  uint64_t V[8] = {}, Total = 0;
  In >> Cpu;
  for (uint64_t &X : V) {
    In >> X;
    Total += X;
  }
  if (!In)
    return {0, 0};
  return {V[7], Total};
}

struct HostProbe {
  std::vector<double> OneThreadMs, AllThreadsMs;
  std::vector<std::pair<uint64_t, uint64_t>> Jiffies;
  void sample(unsigned N) {
    Jiffies.push_back(cpuJiffies());
    for (int R = 0; R < 3; ++R) {
      OneThreadMs.push_back(spinMs(1));
      AllThreadsMs.push_back(spinMs(N));
    }
  }
  double spin1() const { return median(OneThreadMs); }
  double parallelCores(unsigned N) const {
    return N * median(OneThreadMs) / median(AllThreadsMs);
  }
  /// Share of CPU time the hypervisor stole between the first and the last
  /// sample: other tenants' load on a shared host.
  double stealRatio() const {
    return ratio(double(Jiffies.back().first - Jiffies.front().first),
                 double(Jiffies.back().second - Jiffies.front().second));
  }
};

/// One SCHED_IDLE busy loop per core while a workload is measured. Without
/// them cores go idle between sub-millisecond jobs or chunk hand-offs and
/// the guest halts its vCPUs; waking a halted vCPU costs a hypervisor round
/// trip whose latency follows other tenants' load. On a shared 4-vCPU KVM
/// guest that doubled served p50 latency and spread it by 40% across runs.
/// An idle-class thread yields its core the moment any other thread wakes.
class IdleSpinners {
public:
  explicit IdleSpinners(unsigned N) {
    for (unsigned I = 0; I < N; ++I)
      Threads.emplace_back([this] {
        sched_param P{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &P);
        while (!Stop.load(std::memory_order_relaxed))
          SpinSink += spinKernel(1000, 1);
      });
  }
  ~IdleSpinners() {
    Stop = true;
    for (auto &T : Threads)
      T.join();
  }
  IdleSpinners(const IdleSpinners &) = delete;
  IdleSpinners &operator=(const IdleSpinners &) = delete;

private:
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Threads;
};

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      const size_t C = Line.find(':');
      return C == std::string::npos ? Line : Line.substr(C + 2);
    }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// The compiled Speculate corpus (bench/speculate).
//===----------------------------------------------------------------------===//

struct CorpusProgram {
  std::string Name;
  std::unique_ptr<lang::Program> Ast;
  std::shared_ptr<compile::CompiledProgram> Compiled;
  std::string Oracle; ///< interp::runNonSpeculative's result.
};

/// Parses, checks, compiles and runs the reference interpreter on each
/// corpus program, each step under its own span.
std::vector<CorpusProgram> loadCorpus(SpanLog &Log, int32_t Parent) {
  std::vector<CorpusProgram> Out;
  for (const char *Name : kCorpusNames) {
    CorpusProgram P;
    P.Name = Name;
    const std::string Source =
        readFile(std::string(SPECPAR_SPEC_DIR) + "/" + Name + ".spec");
    {
      SpanScope S(Log, "lang.parse", Parent, 0);
      auto Parsed = lang::parseProgram(Source);
      if (!Parsed)
        throw std::runtime_error(P.Name + ".spec: " + Parsed.error());
      P.Ast = std::move(*Parsed);
    }
    {
      SpanScope S(Log, "analysis.check", Parent, 0);
      if (!analysis::checkRollbackFreedom(*P.Ast).programSafe())
        throw std::runtime_error(P.Name + ".spec: checker rejected it");
    }
    {
      SpanScope S(Log, "compile.lower", Parent, 0);
      auto Compiled = compile::compileProgram(*P.Ast);
      if (!Compiled)
        throw std::runtime_error(P.Name + ".spec: " + Compiled.error());
      P.Compiled = std::move(*Compiled);
    }
    {
      SpanScope S(Log, "interp.oracle", Parent, 0);
      interp::RunOutcome Ref = interp::runNonSpeculative(*P.Ast);
      if (!Ref.ok())
        throw std::runtime_error(P.Name + ".spec: " + Ref.statusStr());
      P.Oracle = Ref.Result.str();
    }
    Out.push_back(std::move(P));
  }
  return Out;
}

/// Runs one compiled corpus program and checks it against its oracle.
bool runCorpusProgram(const CorpusProgram &P, const rt::SpecConfig &Cfg) {
  compile::CompiledProgram::RunOptions RO;
  RO.Config = Cfg;
  compile::CompiledProgram::Outcome Out = P.Compiled->run(RO);
  return Out.Run.ok() && Out.ResultLowered && Out.Run.Result.str() == P.Oracle;
}

//===----------------------------------------------------------------------===//
// App inputs and their sequential oracles.
//===----------------------------------------------------------------------===//

/// One workload's inputs for the three apps, with the predictor settings
/// it runs them under.
struct AppSet {
  const lexgen::Lexer &Lex;
  std::string_view Text;
  const huffman::Decoder &Dec;
  const huffman::BitReader &Bits;
  int64_t NumSymbols;
  const std::vector<int64_t> &Weights;
  int NumTasks;
  int64_t LexOverlap, DecodeOverlapBits, MwisOverlap;
  /// The mispredicting decode's window (see missWindowBits()).
  int64_t MissOverlapBits;
};

/// The predictor window of the mispredicting decode: the smallest one
/// whose sync-point predictions miss at exactly ceil((NumTasks-1)/4) of
/// the NumTasks-1 chunk boundaries `speculativeDecode` validates, so at
/// least a quarter of its predictions miss and the share is the same for
/// every seed. Mirrors the app's boundary layout.
int64_t missWindowBits(const huffman::Decoder &D, const huffman::BitReader &In,
                       int NumTasks) {
  const int64_t NumBits = In.numBits();
  const int64_t NumSub = NumTasks * apps::kHuffChunkSize;
  std::vector<int64_t> Bounds, Truth;
  int64_t Pos = 0;
  for (int C = 1; C < NumTasks; ++C) {
    const int64_t B = NumBits * (C * apps::kHuffChunkSize) / NumSub;
    if (Pos < B)
      Pos = D.decodeRange(In, Pos, B, nullptr);
    Bounds.push_back(B);
    Truth.push_back(Pos);
  }
  const int Target = std::max(1, (NumTasks + 2) / 4);
  for (int64_t Ov = 0; Ov <= 4096; ++Ov) {
    int Miss = 0;
    for (size_t I = 0; I < Bounds.size(); ++I)
      Miss += D.predictSyncPoint(In, Bounds[I], Ov) != Truth[I];
    if (Miss == Target)
      return Ov;
  }
  return 0;
}

struct Oracles {
  std::vector<lexgen::Token> Tokens;
  std::vector<uint8_t> Decoded;
  int64_t Weight = 0;
  std::vector<int32_t> Members;
};

/// apps-direct's full-size inputs, generated from the workload seed.
struct AppsData {
  std::optional<lexgen::Lexer> Lex;
  std::string Text;
  huffman::Encoded Enc;
  std::unique_ptr<huffman::Decoder> Dec;
  std::unique_ptr<huffman::BitReader> Bits;
  std::vector<int64_t> Weights;
  int64_t MissOverlapBits = 0;
  Oracles Oracle;
  std::vector<CorpusProgram> Corpus;
  std::shared_ptr<rt::SpecExecutor> Ex;

  AppSet apps(int NumTasks) const {
    return AppSet{*Lex,         Text,    *Dec,
                  *Bits,        Enc.NumSymbols, Weights,
                  NumTasks,     kLexOverlap,    kDecodeOverlapBits,
                  kMwisOverlap, MissOverlapBits};
  }
};

//===----------------------------------------------------------------------===//
// Per-layer probes shared by every workload (traced runs only).
//===----------------------------------------------------------------------===//

double timeMs(const std::function<void()> &Fn) {
  const int64_t T0 = nowNs();
  Fn();
  return msSince(T0);
}

/// Median nproc-worker times of the four app calls, in ms.
struct AppTimes {
  double Lex = 0, Decode = 0, DecodeMiss = 0, Mwis = 0;
};

/// Sequential kernels, 1-worker runs, nproc-worker runs and the
/// mispredicting decode on \p A; fills the apps/lexgen/huffman/mwis
/// per-layer metrics. \p WN, when given, supplies the nproc-worker medians
/// (apps-direct measures them in its window).
void probeApps(const AppSet &A, int Reps, unsigned NProc,
               const std::optional<AppTimes> &WN, Metrics &Out,
               Tally &T) {
  Oracles O;
  std::vector<double> SeqLex, SeqDec, SeqMwis;
  for (int R = 0; R < Reps; ++R) {
    SeqLex.push_back(
        timeMs([&] { O.Tokens = apps::sequentialLex(A.Lex, A.Text); }));
    SeqDec.push_back(
        timeMs([&] { O.Decoded = A.Dec.decodeAll(A.Bits, A.NumSymbols); }));
    SeqMwis.push_back(timeMs([&] {
      O.Members.clear();
      O.Weight = mwis::solveSequential(A.Weights, &O.Members);
    }));
  }
  Out.set("lexgen.seq_ms", median(SeqLex), "ms");
  Out.set("huffman.seq_ms", median(SeqDec), "ms");
  Out.set("mwis.seq_ms", median(SeqMwis), "ms");

  auto One = rt::SpecExecutor::create(1);
  auto All = rt::SpecExecutor::create(NProc);
  struct Kind {
    const char *Name;
    std::vector<double> W1, WN;
    rt::stats::Snapshot Stats;
    int Runs = 0;
  } K[4] = {{"lex", {}, {}, {}, 0},
            {"decode", {}, {}, {}, 0},
            {"decode_miss", {}, {}, {}, 0},
            {"mwis", {}, {}, {}, 0}};
  for (int R = 0; R < Reps; ++R) {
    for (int W = 0; W < 2; ++W) {
      rt::SpecConfig Cfg = rt::SpecConfig().executor(W ? All : One);
      const bool Full = W == 1;
      int64_t T0 = nowNs();
      apps::LexRun L =
          apps::speculativeLex(A.Lex, A.Text, A.NumTasks, A.LexOverlap, Cfg);
      (Full ? K[0].WN : K[0].W1).push_back(msSince(T0));
      T.expect(L.Tokens == O.Tokens, "probe lex output");
      T0 = nowNs();
      apps::HuffmanRun D = apps::speculativeDecode(A.Dec, A.Bits, A.NumTasks,
                                                   A.DecodeOverlapBits, Cfg);
      (Full ? K[1].WN : K[1].W1).push_back(msSince(T0));
      T.expect(D.Decoded == O.Decoded, "probe decode output");
      if (Full) {
        T0 = nowNs();
        apps::HuffmanRun DM = apps::speculativeDecode(
            A.Dec, A.Bits, A.NumTasks, A.MissOverlapBits, Cfg);
        K[2].WN.push_back(msSince(T0));
        T.expect(DM.Decoded == O.Decoded, "probe mispredicting decode output");
        K[2].Stats += DM.Stats;
      }
      T0 = nowNs();
      apps::MwisRun M = apps::speculativeMwis(A.Weights, A.NumTasks,
                                              A.MwisOverlap, Cfg);
      (Full ? K[3].WN : K[3].W1).push_back(msSince(T0));
      T.expect(M.Weight == O.Weight && M.Members == O.Members,
               "probe mwis output");
      if (Full) {
        K[0].Stats += L.Stats;
        K[1].Stats += D.Stats;
        K[3].Stats += M.Stats;
        for (auto &Each : K)
          ++Each.Runs;
      }
    }
  }
  const double Seq[4] = {median(SeqLex), median(SeqDec), median(SeqDec),
                         median(SeqMwis)};
  const double Given[4] = {WN ? WN->Lex : 0, WN ? WN->Decode : 0,
                           WN ? WN->DecodeMiss : 0, WN ? WN->Mwis : 0};
  for (int I = 0; I < 4; ++I) {
    const std::string P = std::string("apps.") + K[I].Name;
    const double Wn = WN ? Given[I] : median(K[I].WN);
    if (I != 2)
      Out.set(P + ".w1_ms", median(K[I].W1), "ms");
    Out.set(P + "_ms", Wn, "ms");
    Out.set(P + ".speedup", ratio(Seq[I], Wn), "x");
    const rt::SpeculationStats &S = K[I].Stats.Spec;
    Out.set(P + ".mispredict_ratio",
            ratio(double(S.Mispredictions + S.FailedPredictions),
                  double(S.Predictions)),
            "ratio");
    if (I == 2)
      Out.set(P + ".reexec_per_run", ratio(double(S.Reexecutions), K[I].Runs),
              "count");
  }

  // Attempt busy time and validator wait of the lex run, from the
  // runtime's own tracer.
  std::vector<double> Busy, Wait;
  for (int R = 0; R < Reps; ++R) {
    rt::Tracer Tr;
    rt::SpecConfig Cfg = rt::SpecConfig().executor(All).trace(&Tr);
    apps::LexRun L =
        apps::speculativeLex(A.Lex, A.Text, A.NumTasks, A.LexOverlap, Cfg);
    T.expect(L.Tokens == O.Tokens, "traced lex output");
    std::map<uint64_t, uint64_t> StartNs, FinishNs;
    std::vector<rt::SpecEvent> Ev = Tr.snapshot();
    uint64_t BusyNs = 0;
    for (const rt::SpecEvent &E : Ev) {
      if (E.AttemptId == 0)
        continue;
      if (E.Kind == rt::SpecEventKind::Start)
        StartNs[E.AttemptId] = E.TimeNs;
      else if (E.Kind == rt::SpecEventKind::Finish) {
        FinishNs[E.AttemptId] = E.TimeNs;
        if (StartNs.count(E.AttemptId))
          BusyNs += E.TimeNs - StartNs[E.AttemptId];
      }
    }
    // The validator is the thread that accepts attempts; it waited for an
    // attempt when that attempt finished after the validator's previous
    // event.
    uint64_t WaitNs = 0;
    uint32_t Validator = ~0u;
    for (const rt::SpecEvent &E : Ev)
      if (E.Kind == rt::SpecEventKind::ValidateAccept) {
        Validator = E.ThreadId;
        break;
      }
    uint64_t Prev = Ev.empty() ? 0 : Ev.front().TimeNs;
    for (const rt::SpecEvent &E : Ev) {
      if (E.ThreadId != Validator)
        continue;
      if (E.Kind == rt::SpecEventKind::ValidateAccept &&
          FinishNs.count(E.AttemptId) && FinishNs[E.AttemptId] > Prev)
        WaitNs += FinishNs[E.AttemptId] - Prev;
      Prev = E.TimeNs;
    }
    Busy.push_back(BusyNs / 1e6);
    Wait.push_back(WaitNs / 1e6);
  }
  Out.set("runtime.attempt_busy_ms", median(Busy), "ms");
  Out.set("runtime.validator_wait_ms", median(Wait), "ms");
}

/// The catalog's compiled specfold run directly on 1- and nproc-worker
/// executors, untraced and with a Tracer attached.
void probeSpecfold(const serving::WorkloadCatalog &C, int Reps, unsigned NProc,
                   Metrics &Out, Tally &T) {
  auto One = rt::SpecExecutor::create(1);
  auto All = rt::SpecExecutor::create(NProc);
  rt::Tracer Tr;
  std::vector<double> W1, WN, WNTraced;
  auto Run = [&](const std::shared_ptr<rt::SpecExecutor> &Ex,
                 rt::Tracer *Sink) {
    compile::CompiledProgram::RunOptions RO;
    RO.Config = rt::SpecConfig().executor(Ex);
    if (Sink)
      RO.Config.trace(Sink);
    const int64_t T0 = nowNs();
    compile::CompiledProgram::Outcome O = C.SpecProgram->run(RO);
    const double Ms = msSince(T0);
    T.expect(O.Run.ok() && O.Run.Result.isInt() &&
                 O.Run.Result.asInt() == C.SpecOracle,
             "specfold output");
    return Ms;
  };
  for (int R = 0; R < Reps; ++R) {
    W1.push_back(Run(One, nullptr));
    // Alternate the traced and untraced runs so drift cancels.
    if (R % 2) {
      WN.push_back(Run(All, nullptr));
      WNTraced.push_back(Run(All, &Tr));
    } else {
      WNTraced.push_back(Run(All, &Tr));
      WN.push_back(Run(All, nullptr));
    }
  }
  Out.set("compile.specfold_w1_ms", median(W1), "ms");
  Out.set("compile.specfold_wN_ms", median(WN), "ms");
  Out.set("runtime.ns_per_chunk", median(WN) * 1e6 / 8192.0, "ns");
  Out.set("trace.overhead_ratio", ratio(median(WNTraced), median(WN)),
          "ratio");
}

/// Per-job round trip of a no-op callable on an idle server, and one
/// operator scrape.
void probeServer(serving::ServerContext &Ctx, int Reps, Metrics &Out,
                 bool SetScrape) {
  std::vector<double> Rtt;
  for (int R = 0; R < Reps; ++R) {
    const int64_t T0 = nowNs();
    JobResult Res =
        Ctx.submit("default", serving::Job::callable(
                                  [](const rt::SpecConfig &) { return 0; }))
            .get();
    Rtt.push_back((nowNs() - T0) / 1e3);
    if (Res.Outcome != JobOutcome::Ok)
      throw std::runtime_error("no-op callable job failed");
  }
  Out.set("serving.noop_rtt_us", median(Rtt), "us");
  if (SetScrape) {
    std::vector<double> Scrape;
    for (int R = 0; R < 5; ++R)
      Scrape.push_back(timeMs([&] {
        std::string S = Ctx.metricsText();
        S += Ctx.statusJson();
      }));
    Out.set("serving.scrape_ms", median(Scrape), "ms");
  }
}

/// The corpus's setup layers (parse, check, compile, oracle) as per-load
/// averages from the setup spans.
void setupLayerMetrics(const SpanLog &Log, int Loads, Metrics &Out) {
  const double L = Loads > 0 ? Loads : 1;
  Out.set("lang.parse_us", Log.totalNs("lang.parse") / 1e3 / L, "us");
  Out.set("analysis.check_us", Log.totalNs("analysis.check") / 1e3 / L, "us");
  Out.set("compile.lower_us", Log.totalNs("compile.lower") / 1e3 / L, "us");
  Out.set("interp.oracle_ms", Log.totalNs("interp.oracle") / 1e6 / L, "ms");
}

/// Self time per op of each layer under roots named \p Root.
void selfTimeMetrics(const SpanLog &Log, const std::string &Root,
                     Metrics &Out) {
  uint64_t Roots = 0;
  std::map<std::string, int64_t> Self = Log.layerSelfNs(Root, &Roots);
  for (const char *Layer : {"op", "apps", "check", "compile", "serving"})
    Out.set(std::string("self.") + Layer + "_ms",
            ratio(Self[Layer] / 1e6, double(Roots)), "ms");
}

//===----------------------------------------------------------------------===//
// apps-direct.
//===----------------------------------------------------------------------===//

struct RoundSamples {
  std::vector<double> Round, Lex, Decode, DecodeMiss, Mwis, Speculate;
  std::map<std::string, std::vector<double>> Corpus;
  rt::stats::Snapshot Stats[4]; ///< lex, decode, decode_miss, mwis.
  rt::stats::Snapshot CorpusStats;
  int64_t WindowNs = 0;
};

std::unique_ptr<AppsData> setupApps(const Options &O, unsigned NProc,
                                    SpanLog &Log) {
  auto D = std::make_unique<AppsData>();
  const size_t Div = O.Smoke ? 16 : 1;
  SpanScope Setup(Log, "setup", -1, 0);
  {
    SpanScope S(Log, "workloads.gen", Setup.index(), 0);
    D->Text = workloads::generateSource(lexgen::Language::Java, O.Seed,
                                        kLexBytes / Div);
    D->Enc = huffman::encode(workloads::generateHuffmanData(
        workloads::HuffmanFlavour::Text, O.Seed + 1, kHuffSymbols / Div));
    D->Weights = workloads::generatePathGraph(O.Seed + 2, kMwisNodes / Div, 50);
  }
  {
    SpanScope S(Log, "lexgen.make", Setup.index(), 0);
    D->Lex.emplace(lexgen::makeLexer(lexgen::Language::Java));
  }
  {
    SpanScope S(Log, "huffman.make", Setup.index(), 0);
    D->Dec = std::make_unique<huffman::Decoder>(D->Enc.Code);
    D->Bits =
        std::make_unique<huffman::BitReader>(D->Enc.Bytes, D->Enc.NumBits);
    D->MissOverlapBits =
        missWindowBits(*D->Dec, *D->Bits, static_cast<int>(NProc));
  }
  {
    SpanScope S(Log, "lexgen.seq", Setup.index(), 0);
    D->Oracle.Tokens = apps::sequentialLex(*D->Lex, D->Text);
  }
  {
    SpanScope S(Log, "huffman.seq", Setup.index(), 0);
    D->Oracle.Decoded = D->Dec->decodeAll(*D->Bits, D->Enc.NumSymbols);
  }
  {
    SpanScope S(Log, "mwis.seq", Setup.index(), 0);
    D->Oracle.Weight = mwis::solveSequential(D->Weights, &D->Oracle.Members);
  }
  D->Corpus = loadCorpus(Log, Setup.index());
  {
    SpanScope S(Log, "runtime.executor", Setup.index(), 0);
    D->Ex = rt::SpecExecutor::create(NProc);
  }
  return D;
}

/// One round: the five calls back to back, each checked against its
/// oracle. Returns false on a mismatch.
bool appsRound(const AppsData &D, int NumTasks, uint64_t Op, SpanLog &Log,
               RoundSamples *S, Tally &T) {
  SpanScope Root(Log, "op.round", -1, Op);
  const int32_t P = Root.index();
  double Ms[4];
  bool Ok = true;
  const rt::SpecConfig Cfg = rt::SpecConfig().executor(D.Ex);
  int64_t T0 = nowNs();
  apps::LexRun L;
  {
    SpanScope Sp(Log, "apps.lex", P, Op);
    L = apps::speculativeLex(*D.Lex, D.Text, NumTasks, kLexOverlap, Cfg);
  }
  Ms[0] = msSince(T0);
  const rt::stats::Snapshot LexStats = L.Stats;
  {
    SpanScope Sp(Log, "check.lex", P, Op);
    Ok &= L.Tokens == D.Oracle.Tokens;
  }
  T0 = nowNs();
  apps::HuffmanRun H;
  {
    SpanScope Sp(Log, "apps.decode", P, Op);
    H = apps::speculativeDecode(*D.Dec, *D.Bits, NumTasks, kDecodeOverlapBits,
                                Cfg);
  }
  Ms[1] = msSince(T0);
  const rt::stats::Snapshot DecodeStats = H.Stats;
  {
    SpanScope Sp(Log, "check.decode", P, Op);
    Ok &= H.Decoded == D.Oracle.Decoded;
  }
  T0 = nowNs();
  {
    SpanScope Sp(Log, "apps.decode_miss", P, Op);
    H = apps::speculativeDecode(*D.Dec, *D.Bits, NumTasks, D.MissOverlapBits,
                                Cfg);
  }
  Ms[2] = msSince(T0);
  const rt::stats::Snapshot MissStats = H.Stats;
  {
    SpanScope Sp(Log, "check.decode_miss", P, Op);
    Ok &= H.Decoded == D.Oracle.Decoded;
  }
  T0 = nowNs();
  apps::MwisRun M;
  {
    SpanScope Sp(Log, "apps.mwis", P, Op);
    M = apps::speculativeMwis(D.Weights, NumTasks, kMwisOverlap, Cfg);
  }
  Ms[3] = msSince(T0);
  {
    SpanScope Sp(Log, "check.mwis", P, Op);
    Ok &= M.Weight == D.Oracle.Weight && M.Members == D.Oracle.Members;
  }
  double SpecMs = 0;
  rt::stats::Snapshot CorpusSnap;
  std::vector<double> CorpusMs;
  for (const CorpusProgram &Prog : D.Corpus) {
    T0 = nowNs();
    bool Good;
    {
      SpanScope Sp(Log, "compile.run", P, Op);
      Good = runCorpusProgram(
          Prog, rt::SpecConfig().executor(D.Ex).statsOut(&CorpusSnap));
    }
    CorpusMs.push_back(msSince(T0));
    SpecMs += CorpusMs.back();
    Ok &= Good;
  }
  if (!Ok) {
    T.mismatch("apps-direct round output differs from the sequential oracle");
    return false;
  }
  T.ok();
  if (S) {
    S->Lex.push_back(Ms[0]);
    S->Decode.push_back(Ms[1]);
    S->DecodeMiss.push_back(Ms[2]);
    S->Mwis.push_back(Ms[3]);
    S->Speculate.push_back(SpecMs);
    S->Round.push_back(Ms[0] + Ms[1] + Ms[2] + Ms[3] + SpecMs);
    for (size_t I = 0; I < D.Corpus.size(); ++I)
      S->Corpus[D.Corpus[I].Name].push_back(CorpusMs[I]);
    S->Stats[0] += LexStats;
    S->Stats[1] += DecodeStats;
    S->Stats[2] += MissStats;
    S->Stats[3] += M.Stats;
    S->CorpusStats += CorpusSnap;
  }
  return true;
}

RoundSamples appsWindow(const AppsData &D, int NumTasks, double Seconds,
                        SpanLog &Log, uint64_t &NextOp, Tally &T) {
  RoundSamples S;
  const int64_t Start = nowNs();
  const int64_t End = Start + static_cast<int64_t>(Seconds * 1e9);
  while (nowNs() < End)
    if (!appsRound(D, NumTasks, NextOp++, Log, &S, T))
      break;
  S.WindowNs = nowNs() - Start;
  return S;
}

void runtimePerOp(const rt::stats::Snapshot &S, double Ops, Metrics &Out) {
  Out.set("runtime.tasks_per_op", ratio(double(S.Spec.Tasks), Ops), "count");
  Out.set("runtime.submits_per_op", ratio(double(S.Exec.Submits), Ops),
          "count");
  Out.set("runtime.steals_per_op", ratio(double(S.Exec.Steals), Ops), "count");
  Out.set("runtime.help_runs_per_op", ratio(double(S.Exec.HelpRuns), Ops),
          "count");
  Out.set("runtime.parks_per_op", ratio(double(S.Exec.EventcountParks), Ops),
          "count");
}

/// Serving-traffic metrics of a workload that sends no traffic: the layer
/// is bypassed, so each reads 0.
void noServingTraffic(Metrics &Out) {
  for (const char *Name :
       {"serving.server_p50_ms", "serving.client_gap_ms",
        "serving.lex_p50_ms", "serving.decode_p50_ms", "serving.mwis_p50_ms",
        "serving.op_p99_ms", "gen.lag_p99_ms"})
    Out.set(Name, 0, "ms");
  Out.set("serving.queue_depth_mean", 0, "count");
  Out.set("serving.queue_depth_max", 0, "count");
  Out.set("serving.attempts_per_job", 0, "count");
  Out.set("serving.rejected_ratio", 0, "ratio");
  Out.set("trace.events_per_op", 0, "count");
  Out.set("trace.dropped_per_op", 0, "count");
}

/// Runs \p Fn in a forked child and returns the number it produced (-1
/// when the child failed). Call only while the process has one thread.
double inChild(const std::function<double()> &Fn) {
  int Fd[2];
  if (pipe(Fd) != 0)
    throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  const pid_t Pid = fork();
  if (Pid < 0)
    throw std::runtime_error("fork failed");
  if (Pid == 0) {
    close(Fd[0]);
    double V = -1;
    try {
      V = Fn();
    } catch (...) {
    }
    const bool Ok = write(Fd[1], &V, sizeof(V)) == sizeof(V);
    _exit(Ok ? 0 : 1);
  }
  close(Fd[1]);
  double V = -1;
  if (read(Fd[0], &V, sizeof(V)) != sizeof(V))
    V = -1;
  close(Fd[0]);
  int Status = 0;
  waitpid(Pid, &Status, 0);
  return WIFEXITED(Status) && WEXITSTATUS(Status) == 0 ? V : -1;
}

int runAppsDirect(const Options &O, unsigned NProc, Metrics &E2E,
                  Metrics &Layer, Tally &T, SpanLog &Log) {
  // Fixed malloc thresholds: the apps' multi-megabyte output buffers are
  // then reused from the heap instead of mapped and page-faulted anew on
  // every call. On a virtual machine that fault cost follows the host's
  // load and otherwise dominates (on a 4-vCPU KVM guest lex ran 3-4x
  // slower, and unsteadily), while this workload times the kernels and
  // speculation.
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const int NumTasks = static_cast<int>(NProc);
  const int Setups = O.Smoke ? 2 : 3;
  // One set-up: generate, build oracles, load the corpus, create the
  // executor, and warm up (first touch, executor threads spun up).
  std::unique_ptr<AppsData> D;
  auto SetUp = [&]() -> double {
    const int64_t T0 = nowNs();
    D = setupApps(O, NProc, Log);
    for (int I = 0; I < kWarmRounds; ++I)
      if (!appsRound(*D, NumTasks, 0, Log, nullptr, T))
        return -1;
    return msSince(T0) / 1e3;
  };
  // The extra set-ups run in forked children, so that the parent's peak
  // RSS covers exactly one set-up plus the measured window.
  std::vector<double> SetupS;
  for (int I = 1; I < Setups; ++I)
    SetupS.push_back(inChild(SetUp));
  SetupS.push_back(SetUp());
  for (double S : SetupS)
    if (S < 0) {
      T.expect(false, "apps-direct set-up failed");
      return 1;
    }
  E2E.set("setup_s", median(SetupS), "s");
  // After the forked set-ups: fork() needs a single-threaded process.
  IdleSpinners Spin(NProc);
  uint64_t NextOp = 1;

  // Traced runs split the window: an untraced half, then a traced half
  // whose spans give the per-layer numbers.
  SpanLog Off(false);
  RoundSamples Untraced =
      appsWindow(*D, NumTasks, O.Trace ? O.Seconds / 2 : O.Seconds, Off,
                 NextOp, T);
  RoundSamples S = Untraced;
  if (O.Trace)
    S = appsWindow(*D, NumTasks, O.Seconds / 2, Log, NextOp, T);
  if (T.Mismatches)
    return 1;

  E2E.set("ops_per_s", Untraced.Round.size() / (Untraced.WindowNs / 1e9),
          "1/s");
  E2E.set("op_p50_ms", median(Untraced.Round), "ms");
  E2E.set("op_p90_ms", quantile(Untraced.Round, 0.9), "ms");
  std::printf("apps-direct: %d tasks, %zu tokens, %lld symbols, %zu nodes, "
              "mispredicting decode window %lld bits\n",
              NumTasks, D->Oracle.Tokens.size(),
              static_cast<long long>(D->Enc.NumSymbols), D->Weights.size(),
              static_cast<long long>(D->MissOverlapBits));
  std::printf("apps-direct: %zu rounds; median ms lex %.3f decode %.3f "
              "decode_miss %.3f mwis %.3f speculate %.4f\n",
              Untraced.Round.size(), median(Untraced.Lex),
              median(Untraced.Decode), median(Untraced.DecodeMiss),
              median(Untraced.Mwis), median(Untraced.Speculate));
  if (!O.Trace)
    return 0;

  Layer.set("span.overhead_ratio",
            ratio(median(S.Round), median(Untraced.Round)), "ratio");
  // The parent's own set-up is the one whose spans were kept.
  Layer.set("workloads.gen_s", Log.totalNs("workloads.gen") / 1e9, "s");
  setupLayerMetrics(Log, 1, Layer);
  Layer.set("apps.speculate_ms", median(S.Speculate), "ms");
  for (const char *Name : kCorpusNames)
    Layer.set(std::string("compile.corpus.") + Name + "_ms",
              median(S.Corpus[Name]), "ms");
  rt::stats::Snapshot All;
  for (const auto &Each : S.Stats)
    All += Each;
  All += S.CorpusStats;
  runtimePerOp(All, double(S.Round.size()), Layer);
  selfTimeMetrics(Log, "op.round", Layer);

  const int Reps = O.Smoke ? 2 : 5;
  AppTimes WN{median(S.Lex), median(S.Decode), median(S.DecodeMiss),
              median(S.Mwis)};
  probeApps(D->apps(NumTasks), Reps, NProc, WN, Layer, T);
  // Bypassed layers are still probed directly, so every run reports them.
  {
    const int64_t T0 = nowNs();
    serving::ServerContext Ctx{serving::ServerOptions()};
    Layer.set("serving.ctx_build_s", msSince(T0) / 1e3, "s");
    Ctx.registerTenant(serving::TenantPolicy());
    probeServer(Ctx, O.Smoke ? 20 : 200, Layer, /*SetScrape=*/true);
    probeSpecfold(Ctx.catalog(), O.Smoke ? 3 : 15, NProc, Layer, T);
  }
  noServingTraffic(Layer);
  return T.Mismatches ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// serve-apps / serve-spec.
//===----------------------------------------------------------------------===//

/// One served job as the client saw it.
struct ServedOp {
  JobKind Kind = JobKind::Lex;
  JobOutcome Outcome = JobOutcome::Rejected;
  int Attempts = 0;
  int64_t DueNs = 0;    ///< Open loop: when it was due to be sent.
  int64_t SubmitNs = 0; ///< When submit() was called.
  int64_t SentNs = 0;   ///< When submit() returned.
  int64_t DoneNs = 0;   ///< When the client saw the result.
  int64_t ServerNs = 0; ///< JobResult::Latency.
};

/// Checks one job's value against the catalog's oracles.
bool resultMatches(const serving::WorkloadCatalog &C, JobKind Kind,
                   int64_t Value) {
  switch (Kind) {
  case JobKind::Lex:
    return Value == C.LexOracleTokens;
  case JobKind::Decode:
    return Value == static_cast<int64_t>(C.HuffOracle.size());
  case JobKind::Mwis:
    return Value == C.MwisOracleWeight;
  case JobKind::Spec:
    return Value == C.SpecOracle;
  case JobKind::Callable:
    return true;
  }
  return false;
}

/// Folds each completed job into the tally and the window's runtime
/// statistics as it completes, keeping only the compact record.
struct Collector {
  const serving::WorkloadCatalog &C;
  Tally &T;
  std::mutex M;
  rt::stats::Snapshot Stats;

  void finish(ServedOp &Op, const JobResult &R) {
    Op.Outcome = R.Outcome;
    Op.Attempts = R.Attempts;
    Op.ServerNs = R.Latency.count();
    if (R.Outcome == JobOutcome::Faulted)
      T.mismatch("job faulted: " + R.Error);
    else if (R.Outcome != JobOutcome::Ok)
      T.failed();
    else if (!resultMatches(C, Op.Kind, R.Value))
      T.mismatch(std::string(serving::jobKindName(Op.Kind)) +
                 " job value differs from the catalog oracle");
    else
      T.ok();
    std::lock_guard<std::mutex> Lock(M);
    Stats += R.Stats;
  }
};

serving::Job jobOf(JobKind K) {
  switch (K) {
  case JobKind::Lex:
    return serving::Job::lex();
  case JobKind::Decode:
    return serving::Job::decode();
  case JobKind::Mwis:
    return serving::Job::mwis();
  default:
    return serving::Job::spec();
  }
}

/// Samples shard queue depth every 10 ms and scrapes metrics + status once
/// a second, as an operator's scraper would, while a phase runs.
class Observer {
public:
  explicit Observer(serving::ServerContext &Ctx)
      : Ctx(Ctx), Thread([this] { loop(); }) {}
  ~Observer() { stop(); }
  Observer(const Observer &) = delete;
  Observer &operator=(const Observer &) = delete;

  void stop() {
    Stop = true;
    if (Thread.joinable())
      Thread.join();
  }
  std::vector<double> Depth, ScrapeMs;

private:
  void loop() {
    int64_t NextScrape = nowNs();
    while (!Stop) {
      double D = 0;
      for (unsigned I = 0; I < Ctx.numShards(); ++I)
        D += static_cast<double>(Ctx.shard(I).queueDepth());
      Depth.push_back(D);
      if (nowNs() >= NextScrape) {
        ScrapeMs.push_back(timeMs([&] {
          std::string S = Ctx.metricsText();
          S += Ctx.statusJson();
        }));
        NextScrape += 1000000000;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  serving::ServerContext &Ctx;
  std::atomic<bool> Stop{false};
  std::thread Thread; ///< Last: starts after the fields it reads.
};

/// Open-loop phase: one generator thread sends jobs at Poisson arrival
/// times drawn from the seed; a pool of waiters stamps each completion.
std::vector<ServedOp> openLoop(serving::ServerContext &Ctx, Collector &Out,
                               double Rate, const std::vector<JobKind> &Mix,
                               uint64_t Seed, double Seconds) {
  Rng R(Seed);
  std::vector<ServedOp> Ops;
  for (double T = 0;;) {
    const double U = (static_cast<double>(R.next() >> 11) + 0.5) * 0x1.0p-53;
    T += -std::log(U) / Rate;
    if (T >= Seconds)
      break;
    ServedOp Op;
    Op.Kind = Mix[R.nextBelow(Mix.size())];
    Op.DueNs = static_cast<int64_t>(T * 1e9);
    Ops.push_back(Op);
  }
  std::vector<std::future<JobResult>> Futures(Ops.size());
  std::mutex M;
  std::condition_variable CV;
  std::deque<size_t> Ready;
  bool Done = false;
  auto Waiter = [&] {
    for (;;) {
      size_t I;
      {
        std::unique_lock<std::mutex> Lock(M);
        CV.wait(Lock, [&] { return Done || !Ready.empty(); });
        if (Ready.empty())
          return;
        I = Ready.front();
        Ready.pop_front();
      }
      Futures[I].wait();
      Ops[I].DoneNs = nowNs();
      Out.finish(Ops[I], Futures[I].get());
    }
  };
  std::vector<std::thread> Waiters;
  for (int I = 0; I < 8; ++I)
    Waiters.emplace_back(Waiter);
  const int64_t Base = nowNs();
  for (size_t I = 0; I < Ops.size(); ++I) {
    Ops[I].DueNs += Base;
    const int64_t Wait = Ops[I].DueNs - nowNs();
    if (Wait > 0)
      std::this_thread::sleep_for(std::chrono::nanoseconds(Wait));
    Ops[I].SubmitNs = nowNs();
    Futures[I] = Ctx.submit("default", jobOf(Ops[I].Kind));
    Ops[I].SentNs = nowNs();
    {
      std::lock_guard<std::mutex> Lock(M);
      Ready.push_back(I);
    }
    CV.notify_one();
  }
  {
    std::lock_guard<std::mutex> Lock(M);
    Done = true;
  }
  CV.notify_all();
  for (auto &W : Waiters)
    W.join();
  return Ops;
}

/// Closed-loop phase: nproc clients, each with one job outstanding.
std::vector<ServedOp> closedLoop(serving::ServerContext &Ctx, Collector &Out,
                                 unsigned Clients,
                                 const std::vector<JobKind> &Mix, uint64_t Seed,
                                 double Seconds, int64_t *PhaseNs) {
  std::vector<std::vector<ServedOp>> PerClient(Clients);
  const int64_t Start = nowNs();
  const int64_t End = Start + static_cast<int64_t>(Seconds * 1e9);
  std::vector<std::thread> Ts;
  for (unsigned C = 0; C < Clients; ++C)
    Ts.emplace_back([&, C] {
      Rng R(Seed * 1000003 + C);
      while (nowNs() < End) {
        ServedOp Op;
        Op.Kind = Mix[R.nextBelow(Mix.size())];
        Op.SubmitNs = Op.DueNs = nowNs();
        std::future<JobResult> F = Ctx.submit("default", jobOf(Op.Kind));
        Op.SentNs = nowNs();
        const JobResult Res = F.get();
        Op.DoneNs = nowNs();
        Out.finish(Op, Res);
        PerClient[C].push_back(Op);
      }
    });
  for (auto &T : Ts)
    T.join();
  *PhaseNs = nowNs() - Start;
  std::vector<ServedOp> All;
  for (auto &V : PerClient)
    All.insert(All.end(), V.begin(), V.end());
  return All;
}

struct ServeWindow {
  std::vector<ServedOp> Open, Closed;
  rt::stats::Snapshot Stats; ///< Summed over every job of the window.
  int64_t ClosedNs = 0;
  std::vector<double> Depth, ScrapeMs;
  uint64_t Events = 0, Dropped = 0;
};

ServeWindow serveWindow(serving::ServerContext &Ctx, Tally &T, double Rate,
                        const std::vector<JobKind> &Mix, uint64_t Seed,
                        unsigned NProc, double Seconds) {
  ServeWindow W;
  Collector Out{Ctx.catalog(), T, {}, {}};
  auto Flight = [&](uint64_t &Ev, uint64_t &Dr) {
    Ev = Dr = 0;
    for (unsigned I = 0; I < Ctx.numShards(); ++I) {
      Ev += Ctx.shard(I).flight().tracer().recordedEvents();
      Dr += Ctx.shard(I).flight().tracer().droppedEvents();
    }
  };
  uint64_t Ev0, Dr0, Ev1, Dr1;
  Flight(Ev0, Dr0);
  {
    Observer Obs(Ctx);
    W.Open = openLoop(Ctx, Out, Rate, Mix, Seed, Seconds * kOpenShare);
    W.Closed = closedLoop(Ctx, Out, NProc, Mix, Seed,
                          Seconds * (1 - kOpenShare), &W.ClosedNs);
    Obs.stop();
    W.Depth = std::move(Obs.Depth);
    W.ScrapeMs = std::move(Obs.ScrapeMs);
  }
  Flight(Ev1, Dr1);
  W.Events = Ev1 - Ev0;
  W.Dropped = Dr1 - Dr0;
  W.Stats = Out.Stats;
  return W;
}

/// Verified jobs per second in the closed-loop phase: the median over its
/// whole seconds, so a transient stall of the shared host moves it less
/// than it moves the phase total (which short smoke phases fall back to).
double closedRate(const ServeWindow &W) {
  int64_t Start = INT64_MAX;
  for (const ServedOp &Op : W.Closed)
    Start = std::min(Start, Op.SubmitNs);
  const int64_t Seconds = W.ClosedNs / 1000000000;
  std::vector<double> PerSecond(
      static_cast<size_t>(std::max<int64_t>(Seconds, 0)));
  double Total = 0;
  for (const ServedOp &Op : W.Closed) {
    if (Op.Outcome != JobOutcome::Ok)
      continue;
    ++Total;
    const int64_t S = (Op.DoneNs - Start) / 1000000000;
    if (S < Seconds)
      ++PerSecond[static_cast<size_t>(S)];
  }
  return Seconds >= 3 ? median(PerSecond) : Total / (W.ClosedNs / 1e9);
}

std::vector<double> latenciesMs(const std::vector<ServedOp> &Ops,
                                std::optional<JobKind> Kind = std::nullopt) {
  std::vector<double> V;
  for (const ServedOp &Op : Ops)
    if (!Kind || Op.Kind == *Kind)
      V.push_back((Op.DoneNs - Op.DueNs) / 1e6);
  return V;
}

int runServe(const Options &O, bool SpecOnly, unsigned NProc, Metrics &E2E,
             Metrics &Layer, Tally &T, SpanLog &Log) {
  const std::vector<JobKind> Mix =
      SpecOnly ? std::vector<JobKind>{JobKind::Spec}
               : std::vector<JobKind>{JobKind::Lex, JobKind::Decode,
                                      JobKind::Mwis};
  const double Rate = SpecOnly ? kServeSpecRate : kServeAppsRate;
  IdleSpinners Spin(NProc);
  const int Setups = O.Smoke ? 2 : 9;
  const int WarmJobs = O.Smoke ? 2 : 10;
  std::vector<double> SetupS, CtxS;
  std::unique_ptr<serving::ServerContext> Ctx;
  for (int I = 0; I < Setups; ++I) {
    Ctx.reset();
    const int64_t T0 = nowNs();
    SpanScope Setup(Log, "setup", -1, 0);
    {
      SpanScope S(Log, "serving.ctx_build", Setup.index(), 0);
      Ctx = std::make_unique<serving::ServerContext>(serving::ServerOptions());
    }
    CtxS.push_back(msSince(T0) / 1e3);
    Ctx->registerTenant(serving::TenantPolicy());
    {
      SpanScope S(Log, "serving.warmup", Setup.index(), 0);
      for (int J = 0; J < WarmJobs; ++J)
        for (JobKind K : Mix) {
          const JobResult R = Ctx->submit("default", jobOf(K)).get();
          T.expect(R.Outcome == JobOutcome::Ok &&
                       resultMatches(Ctx->catalog(), K, R.Value),
                   "warm-up job failed");
        }
    }
    SetupS.push_back(msSince(T0) / 1e3);
  }
  E2E.set("setup_s", median(SetupS), "s");
  if (T.Mismatches)
    return 1;

  const double Secs = O.Trace ? O.Seconds / 2 : O.Seconds;
  ServeWindow U = serveWindow(*Ctx, T, Rate, Mix, O.Seed, NProc, Secs);
  std::vector<double> Lat = latenciesMs(U.Open);
  E2E.set("ops_per_s", closedRate(U), "1/s");
  E2E.set("op_p50_ms", median(Lat), "ms");
  E2E.set("op_p90_ms", quantile(Lat, 0.9), "ms");
  std::vector<double> Lag;
  for (const ServedOp &Op : U.Open)
    Lag.push_back((Op.SubmitNs - Op.DueNs) / 1e6);
  std::printf("%s: open loop %zu jobs at %.0f/s (generator lag p99 %.3f ms), "
              "closed loop %zu jobs from %u clients\n",
              O.Workload.c_str(), U.Open.size(), Rate, quantile(Lag, 0.99),
              U.Closed.size(), NProc);
  if (!SpecOnly)
    std::printf("  open-loop p50 ms: lex %.3f decode %.3f mwis %.3f\n",
                median(latenciesMs(U.Open, JobKind::Lex)),
                median(latenciesMs(U.Open, JobKind::Decode)),
                median(latenciesMs(U.Open, JobKind::Mwis)));
  if (!O.Trace)
    return T.Mismatches ? 1 : 0;

  // The traced half: the same phases, with one span per job (due to
  // completion) around the submit call and the client's wait.
  ServeWindow W = serveWindow(*Ctx, T, Rate, Mix, O.Seed, NProc, Secs);
  uint64_t Op = 1;
  for (const auto *Phase : {&W.Open, &W.Closed})
    for (const ServedOp &S : *Phase) {
      const int32_t Root = Log.add("op.job", S.DueNs, S.DoneNs, -1, Op);
      Log.add("serving.submit", S.SubmitNs, S.SentNs, Root, Op);
      Log.add("serving.wait", S.SentNs, S.DoneNs, Root, Op);
      ++Op;
    }
  std::vector<double> TLat = latenciesMs(W.Open);
  Layer.set("span.overhead_ratio", ratio(median(TLat), median(Lat)), "ratio");
  selfTimeMetrics(Log, "op.job", Layer);

  std::vector<double> Server, Gap, Attempts;
  uint64_t Rejected = 0;
  for (const auto *Phase : {&W.Open, &W.Closed})
    for (const ServedOp &S : *Phase) {
      Gap.push_back((S.DoneNs - S.SubmitNs - S.ServerNs) / 1e6);
      Attempts.push_back(S.Attempts);
      Rejected += S.Outcome == JobOutcome::Rejected;
    }
  for (const ServedOp &S : W.Open)
    Server.push_back(S.ServerNs / 1e6);
  const double Jobs = double(W.Open.size() + W.Closed.size());
  Layer.set("serving.server_p50_ms", median(Server), "ms");
  Layer.set("serving.client_gap_ms", median(Gap), "ms");
  Layer.set("serving.queue_depth_mean", mean(W.Depth), "count");
  Layer.set("serving.queue_depth_max",
            W.Depth.empty()
                ? 0
                : *std::max_element(W.Depth.begin(), W.Depth.end()),
            "count");
  Layer.set("serving.attempts_per_job", mean(Attempts), "count");
  Layer.set("serving.rejected_ratio", ratio(double(Rejected), Jobs), "ratio");
  Layer.set("serving.scrape_ms", median(W.ScrapeMs), "ms");
  Layer.set("serving.op_p99_ms", TLat.size() >= 1000 ? quantile(TLat, 0.99) : 0,
            "ms");
  for (JobKind K : {JobKind::Lex, JobKind::Decode, JobKind::Mwis})
    Layer.set(std::string("serving.") + serving::jobKindName(K) + "_p50_ms",
              SpecOnly ? 0 : median(latenciesMs(W.Open, K)), "ms");
  std::vector<double> TLag;
  for (const ServedOp &S : W.Open)
    TLag.push_back((S.SubmitNs - S.DueNs) / 1e6);
  Layer.set("gen.lag_p99_ms", quantile(TLag, 0.99), "ms");
  Layer.set("trace.events_per_op", ratio(double(W.Events), Jobs), "count");
  Layer.set("trace.dropped_per_op", ratio(double(W.Dropped), Jobs), "count");
  runtimePerOp(W.Stats, Jobs, Layer);
  Layer.set("serving.ctx_build_s", median(CtxS), "s");

  // Per-layer probes: the idle server, the catalog's specfold, the three
  // apps on the catalog inputs, and the corpus setup layers.
  const int Reps = O.Smoke ? 3 : 15;
  Ctx->drain();
  probeServer(*Ctx, O.Smoke ? 20 : 200, Layer, /*SetScrape=*/false);
  const serving::WorkloadCatalog &C = Ctx->catalog();
  probeSpecfold(C, Reps, NProc, Layer, T);
  {
    // The catalog's generators at its scale and fixed seed (17).
    SpanScope S(Log, "workloads.gen", -1, 0);
    const int64_t Scale = serving::ServerOptions().WorkloadScale;
    (void)workloads::generateSource(lexgen::Language::Java, 17, Scale);
    (void)huffman::encode(workloads::generateHuffmanData(
        workloads::HuffmanFlavour::Text, 18, Scale));
    (void)workloads::generatePathGraph(19, Scale / 2, 1000);
  }
  Layer.set("workloads.gen_s", Log.totalNs("workloads.gen") / 1e9, "s");
  const int Loads = O.Smoke ? 1 : 3;
  std::vector<CorpusProgram> Corpus;
  for (int I = 0; I < Loads; ++I)
    Corpus = loadCorpus(Log, -1);
  setupLayerMetrics(Log, Loads, Layer);
  auto All = rt::SpecExecutor::create(NProc);
  std::vector<double> SpecMs;
  for (const CorpusProgram &P : Corpus) {
    std::vector<double> Ms;
    for (int R = 0; R < Reps; ++R) {
      bool Good = true;
      Ms.push_back(timeMs(
          [&] { Good = runCorpusProgram(P, rt::SpecConfig().executor(All)); }));
      T.expect(Good, P.Name + " compiled output");
    }
    Layer.set("compile.corpus." + P.Name + "_ms", median(Ms), "ms");
    SpecMs.push_back(median(Ms));
  }
  Layer.set("apps.speculate_ms", SpecMs[0] + SpecMs[1] + SpecMs[2], "ms");
  probeApps(AppSet{C.Lex, C.Text, C.Dec, C.Bits, C.Enc.NumSymbols, C.Weights,
                   serving::TenantPolicy().NumTasks, kServeLexOverlap,
                   kServeDecodeOverlapBits, kServeMwisOverlap,
                   missWindowBits(C.Dec, C.Bits,
                                  serving::TenantPolicy().NumTasks)},
            Reps, NProc, std::nullopt, Layer, T);
  return T.Mismatches ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// Driver.
//===----------------------------------------------------------------------===//

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= Argc)
        throw std::invalid_argument(A + " needs a value");
      return Argv[++I];
    };
    if (A == "--workload")
      O.Workload = Next();
    else if (A == "--seed")
      O.Seed = std::stoull(Next());
    else if (A == "--seconds")
      O.Seconds = std::stod(Next());
    else if (A == "--trace")
      O.Trace = Next() != "0";
    else if (A == "--spans-out")
      O.SpansOut = Next();
    else if (A == "--smoke")
      O.Smoke = true;
    else
      throw std::invalid_argument("unknown argument " + A);
  }
  return O.Workload == "apps-direct" || O.Workload == "serve-apps" ||
         O.Workload == "serve-spec";
}

} // namespace

int main(int Argc, char **Argv) {
  (void)nowNs(); // Start the span clock at process start.
  Options O;
  try {
    if (!parseArgs(Argc, Argv, O) || O.Seconds <= 0) {
      std::fprintf(stderr, "usage: specbench --workload "
                           "apps-direct|serve-apps|serve-spec --seed N "
                           "--seconds S --trace 0|1 [--spans-out FILE] "
                           "[--smoke]\n");
      return 2;
    }
  } catch (const std::exception &E) {
    std::fprintf(stderr, "specbench: %s\n", E.what());
    return 2;
  }
  const unsigned NProc = std::max(1u, std::thread::hardware_concurrency());
  std::printf("host: nproc %u, cpu \"%s\", build %s, workload %s, seed %llu\n",
              NProc, cpuModel().c_str(), SPECPAR_BUILD_TYPE,
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed));

  HostProbe Host;
  warmHost(NProc, O.Smoke ? 0.2 : 2.0);
  Host.sample(NProc);

  Metrics E2E, Layer;
  Tally T;
  SpanLog Log(O.Trace);
  int Rc = 1;
  try {
    Rc = O.Workload == "apps-direct"
             ? runAppsDirect(O, NProc, E2E, Layer, T, Log)
             : runServe(O, O.Workload == "serve-spec", NProc, E2E, Layer, T,
                        Log);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "specbench: %s\n", E.what());
    return 1;
  }
  Host.sample(NProc);
  E2E.set("peak_rss_mb", peakMemoryKB() / 1024.0, "MB");
  std::printf("host: spin_1t_ms %.3f, parallel_cores %.3f (before+after "
              "the window), steal_ratio %.4f\n",
              Host.spin1(), Host.parallelCores(NProc), Host.stealRatio());
  if (O.Trace) {
    Layer.set("host.spin_1t_ms", Host.spin1(), "ms");
    Layer.set("host.parallel_cores", Host.parallelCores(NProc), "cores");
    Layer.set("host.steal_ratio", Host.stealRatio(), "ratio");
    Layer.set("ops_failed_ratio",
              ratio(double(T.Failed.load()), double(T.Attempted.load())),
              "ratio");
    if (!O.SpansOut.empty() && !Log.write(O.SpansOut)) {
      std::fprintf(stderr, "specbench: cannot write %s\n", O.SpansOut.c_str());
      return 1;
    }
  }
  const bool Correct = T.Mismatches == 0 && Rc == 0;
  if (!Correct)
    std::fprintf(stderr, "specbench: output check failed: %s\n",
                 T.FirstMismatch.c_str());
  std::printf("end-to-end:\n");
  E2E.print();
  if (O.Trace) {
    std::printf("per-layer:\n");
    Layer.print();
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(T.Attempted.load()),
              static_cast<unsigned long long>(T.Failed.load()),
              (O.Trace ? Layer : E2E).json().c_str());
  return Correct ? 0 : 1;
}
