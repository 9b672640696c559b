//===- examples/quickstart.cpp - Speculation API in five minutes ----------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The smallest useful tour of the speculation API:
///
///  1. `Speculation::apply`          — run a consumer concurrently with its
///     producer by predicting the produced value (the paper's `spec`);
///  2. `Speculation::iterate`        — run all iterations of a loop with a
///     loop-carried dependence in parallel by predicting the carried
///     value entering each iteration (the paper's `specfold`);
///  3. `Speculation::iterateChunked` — the same, at segment granularity:
///     predict once per chunk, amortizing task overhead.
///
/// Calls take a fluent `SpecConfig` and return a `SpecResult` carrying the
/// value plus `SpeculationStats`. By default runs execute on the process's
/// default executor shard (`SpecExecutor::defaultShard()`); name an
/// executor explicitly with `SpecConfig::executor(SpecExecutor::create(N))`
/// when placement or lifetime matters. Nested speculative runs on one
/// shared executor are deadlock-free.
///
//===----------------------------------------------------------------------===//

#include "runtime/Speculation.h"

#include <cstdio>

using namespace specpar::rt;

int main() {
  // ------------------------------------------------------------------
  // 1. Speculative composition.
  //
  // The producer computes an expensive checksum; the consumer formats a
  // report from it. We predict the checksum (here: the common case 87) so
  // the consumer can start before the producer finishes. A misprediction
  // just re-runs the consumer with the real value.
  // ------------------------------------------------------------------
  auto Checksum = [] {
    long Sum = 0;
    for (int I = 1; I <= 1000000; ++I)
      Sum = (Sum + I) % 97;
    return Sum;
  };
  SpecResult<void> Good = Speculation::apply<long>(
      Checksum,
      /*Predictor=*/[] { return 87L; }, // a good domain-specific guess
      /*Consumer=*/
      [](long V) { std::printf("checksum report: %ld\n", V); });
  std::printf("apply: %s\n", Good.Stats.str().c_str());

  // With a wrong guess the consumer's side effect (the printf) runs twice
  // — once speculatively with the predicted value, once validated with
  // the real one. Nothing is rolled back; the *validated* execution is
  // the one whose effects the rollback-freedom conditions let you keep.
  SpecResult<void> Bad = Speculation::apply<long>(
      Checksum, [] { return 0L; },
      [](long V) { std::printf("checksum report (guess 0): %ld\n", V); });
  std::printf("apply with misprediction: %s\n\n", Bad.Stats.str().c_str());

  // ------------------------------------------------------------------
  // 2. Speculative iteration.
  //
  // A running sum is the classic loop-carried dependence:
  //     acc' = acc + f(i)
  // Because the sum of i*i over a prefix has a closed form, the
  // prediction function can compute the exact carried value entering any
  // iteration — so every iteration runs in parallel and validation never
  // re-executes anything. SpecConfig() picks the run's mode or executor;
  // with no executor named, the run uses the process's default shard,
  // one worker per hardware thread.
  // ------------------------------------------------------------------
  auto SumOfSquaresBelow = [](int64_t I) {
    // sum_{k=1}^{I-1} k^2
    return (I - 1) * I * (2 * I - 1) / 6;
  };
  SpecResult<int64_t> Total = Speculation::iterate<int64_t>(
      1, 101,
      /*Body=*/[](int64_t I, int64_t Acc) { return Acc + I * I; },
      /*Predictor=*/SumOfSquaresBelow,
      SpecConfig().mode(ValidationMode::Seq));
  std::printf("sum of squares 1..100 = %lld (expect 338350)\n",
              static_cast<long long>(Total.Value));
  std::printf("iterate: %s\n\n", Total.Stats.str().c_str());

  // ------------------------------------------------------------------
  // 3. Chunked iteration: same loop, but speculate once per 25-iteration
  // chunk instead of once per iteration — 4 tasks and 3 validated
  // predictions instead of 100 and 99. This is how the paper's segment
  // experiments amortize per-task overhead.
  // ------------------------------------------------------------------
  SpecResult<int64_t> Chunked = Speculation::iterateChunked<int64_t>(
      1, 101, /*ChunkSize=*/25,
      [](int64_t I, int64_t Acc) { return Acc + I * I; }, SumOfSquaresBelow);
  std::printf("chunked sum = %lld, %s\n",
              static_cast<long long>(Chunked.Value),
              Chunked.Stats.str().c_str());

  // ------------------------------------------------------------------
  // 4. What a bad predictor costs: correctness is preserved, the stats
  // show the re-executions.
  // ------------------------------------------------------------------
  SpecResult<int64_t> Total2 = Speculation::iterate<int64_t>(
      1, 101, [](int64_t I, int64_t Acc) { return Acc + I * I; },
      [](int64_t I) { return I == 1 ? int64_t(0) : int64_t(-1); });
  std::printf("with a useless predictor: %lld, %s\n",
              static_cast<long long>(Total2.Value),
              Total2.Stats.str().c_str());
  return Total.Value == 338350 && Chunked.Value == 338350 &&
                 Total2.Value == 338350
             ? 0
             : 1;
}
