//===- bench/micro_benchmarks.cpp - Substrate microbenchmarks -------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// google-benchmark microbenchmarks of the individual substrates: raw
/// lexing/decoding/DP throughput, predictor costs, speculation-runtime
/// per-task overhead, and the interpreter's steps/second. Not tied to a
/// paper figure; used to sanity-check that measured segment costs are in
/// sane ranges.
///
//===----------------------------------------------------------------------===//

#include "apps/SpeculativeHuffman.h"
#include "apps/SpeculativeLexing.h"
#include "apps/SpeculativeMwis.h"
#include "interp/NonSpecEval.h"
#include "lang/Parser.h"
#include "workloads/Datasets.h"
#include "workloads/SourceGen.h"

#include <benchmark/benchmark.h>

#include <atomic>

using namespace specpar;
using namespace specpar::lexgen;
using namespace specpar::huffman;
using namespace specpar::workloads;

namespace {

void BM_LexThroughput(benchmark::State &State) {
  Language L = static_cast<Language>(State.range(0));
  Lexer LX = makeLexer(L);
  std::string Text = generateSource(L, 42, 1 << 20);
  for (auto _ : State) {
    std::vector<Token> T = LX.lexAll(Text);
    benchmark::DoNotOptimize(T.data());
  }
  State.SetBytesProcessed(int64_t(State.iterations()) *
                          int64_t(Text.size()));
}
BENCHMARK(BM_LexThroughput)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_LexPredictor(benchmark::State &State) {
  Lexer LX = makeLexer(Language::Java);
  std::string Text = generateSource(Language::Java, 42, 1 << 20);
  int64_t Overlap = State.range(0);
  for (auto _ : State) {
    LexState S = LX.predictStateAt(Text, int64_t(Text.size()) / 2, Overlap);
    benchmark::DoNotOptimize(S);
  }
}
BENCHMARK(BM_LexPredictor)->Arg(16)->Arg(256)->Arg(2048);

void BM_HuffmanDecode(benchmark::State &State) {
  Encoded E = encode(generateHuffmanData(HuffmanFlavour::Text, 7, 1 << 20));
  Decoder D(E.Code);
  BitReader In(E.Bytes, E.NumBits);
  for (auto _ : State) {
    std::vector<uint8_t> Out = D.decodeAll(In, E.NumSymbols);
    benchmark::DoNotOptimize(Out.data());
  }
  // Bytes count decoded output, one byte per symbol.
  State.SetBytesProcessed(int64_t(State.iterations()) * E.NumSymbols);
  State.SetItemsProcessed(int64_t(State.iterations()) * E.NumSymbols);
}
BENCHMARK(BM_HuffmanDecode)->Unit(benchmark::kMillisecond);

void BM_MwisForward(benchmark::State &State) {
  std::vector<int64_t> W = generatePathGraph(3, 1 << 20, 50);
  std::vector<uint8_t> Positive(W.size());
  for (auto _ : State) {
    int64_t Sum = 0;
    int64_t Out = mwis::forwardSegment(W, 0, int64_t(W.size()), 0,
                                       Positive.data(), Sum);
    benchmark::DoNotOptimize(Out);
    benchmark::DoNotOptimize(Sum);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * int64_t(W.size()));
}
BENCHMARK(BM_MwisForward)->Unit(benchmark::kMillisecond);

void BM_MwisBackward(benchmark::State &State) {
  std::vector<int64_t> W = generatePathGraph(3, 1 << 20, 50);
  std::vector<uint8_t> Positive(W.size());
  int64_t Sum = 0;
  mwis::forwardSegment(W, 0, int64_t(W.size()), 0, Positive.data(), Sum);
  std::vector<int32_t> Members;
  for (auto _ : State) {
    Members.clear();
    bool Out = mwis::backwardSegment(Positive.data(), 0, int64_t(W.size()),
                                     false, Members);
    benchmark::DoNotOptimize(Out);
    benchmark::DoNotOptimize(Members.data());
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * int64_t(W.size()));
}
BENCHMARK(BM_MwisBackward)->Unit(benchmark::kMillisecond);

void BM_IterateOverhead(benchmark::State &State) {
  rt::SpecExecutor Ex(2);
  rt::SpecConfig Cfg = rt::SpecConfig().executor(Ex);
  const int64_t N = State.range(0);
  for (auto _ : State) {
    auto R = rt::Speculation::iterate<int64_t>(
        0, N, [](int64_t, int64_t A) { return A + 1; },
        [](int64_t I) { return I; }, Cfg);
    benchmark::DoNotOptimize(R.Value);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * N);
}
BENCHMARK(BM_IterateOverhead)->Arg(16)->Arg(256);

void BM_IterateChunkedOverhead(benchmark::State &State) {
  rt::SpecExecutor Ex(2);
  rt::SpecConfig Cfg = rt::SpecConfig().executor(Ex);
  const int64_t N = State.range(0);
  for (auto _ : State) {
    auto R = rt::Speculation::iterateChunked<int64_t>(
        0, N, /*ChunkSize=*/8, [](int64_t, int64_t A) { return A + 1; },
        [](int64_t I) { return I; }, Cfg);
    benchmark::DoNotOptimize(R.Value);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * N);
}
BENCHMARK(BM_IterateChunkedOverhead)->Arg(16)->Arg(256);

/// End-to-end latency of one speculative composition `spec p g c` on a
/// warm 4-worker executor with trivial producer, predictor and consumer:
/// miss=0 accepts the speculative consumer, miss=1 mispredicts, so the
/// consumer is cancelled, drained and re-executed on the calling thread.
void BM_ApplyLatency(benchmark::State &State) {
  rt::SpecExecutor Ex(4);
  rt::SpecConfig Cfg = rt::SpecConfig().executor(Ex);
  const int64_t Guess = State.range(0) ? 7 : 42;
  for (auto _ : State) {
    auto R = rt::Speculation::apply<int64_t>(
        [] { return int64_t(42); }, [Guess] { return Guess; },
        [](int64_t V) { benchmark::DoNotOptimize(V); }, Cfg);
    benchmark::DoNotOptimize(R.Stats.Reexecutions);
  }
  State.SetItemsProcessed(int64_t(State.iterations()));
}
BENCHMARK(BM_ApplyLatency)->ArgName("miss")->Arg(0)->Arg(1)->UseRealTime();

/// Round-trip latency of one externally-submitted task: submit from a
/// non-worker thread, have a worker run it, observe completion. This is
/// the task-queue + eventcount wakeup path that every speculative wave's
/// dispatch rides on.
void BM_TaskDispatchLatency(benchmark::State &State) {
  rt::SpecExecutor Ex(unsigned(State.range(0)));
  // Warm the pool: make sure every worker has spun up and parked once.
  std::atomic<int> Warm{0};
  for (int I = 0; I < 64; ++I)
    Ex.submit([&Warm] { Warm.fetch_add(1, std::memory_order_relaxed); });
  Ex.waitIdle();
  for (auto _ : State) {
    std::atomic<bool> Done{false};
    Ex.submit([&Done] { Done.store(true, std::memory_order_release); });
    while (!Done.load(std::memory_order_acquire))
      ;
  }
  State.SetItemsProcessed(int64_t(State.iterations()));
}
BENCHMARK(BM_TaskDispatchLatency)->Arg(1)->Arg(2)->Arg(4);

void BM_DfaConstruction(benchmark::State &State) {
  Language L = static_cast<Language>(State.range(0));
  for (auto _ : State) {
    Lexer LX = makeLexer(L);
    benchmark::DoNotOptimize(LX.numDfaStates());
  }
}
BENCHMARK(BM_DfaConstruction)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_InterpreterSteps(benchmark::State &State) {
  auto PR = lang::parseProgram(
      "main = fold(\\i a. (a * 31 + i) % 1000003, 0, 1, 2000)");
  const lang::Program &P = **PR;
  for (auto _ : State) {
    interp::RunOutcome O = interp::runNonSpeculative(P);
    benchmark::DoNotOptimize(O.Steps);
  }
}
BENCHMARK(BM_InterpreterSteps)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
