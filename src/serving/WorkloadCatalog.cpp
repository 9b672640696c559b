//===- serving/WorkloadCatalog.cpp - specd's preloaded datasets -----------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "serving/Job.h"

#include "compile/Compiler.h"
#include "interp/NonSpecEval.h"
#include "lang/Parser.h"
#include "lexgen/Languages.h"
#include "mwis/Mwis.h"
#include "workloads/Datasets.h"
#include "workloads/SourceGen.h"

#include <algorithm>
#include <stdexcept>

namespace specpar {
namespace serving {

namespace {

/// The Speculate program Spec jobs run: a sum-of-squares specfold whose
/// predictor is the closed form of the carried value, so a healthy run
/// is fully parallel (predictions validate) and any misprediction the
/// metrics show came from degradation, not the program. `N` is clamped
/// so the sum (and the predictor's intermediate product) stay far from
/// int64 overflow, where the closed form and the language's wrapping
/// arithmetic would part ways.
std::string makeSpecSource(int64_t N) {
  return "// Served by specd as JobKind::Spec (compiled onto the native "
         "runtime).\n"
         "main = specfold(\\i acc. acc + i * i,\n"
         "                \\i. ((i - 1) * i * (2 * i - 1)) / 6,\n"
         "                1, " +
         std::to_string(N) + ")";
}

} // namespace

WorkloadCatalog::WorkloadCatalog(int64_t Scale, uint64_t Seed)
    : Lex(lexgen::makeLexer(lexgen::Language::Java)),
      Text(workloads::generateSource(lexgen::Language::Java, Seed,
                                     std::max<int64_t>(Scale, 4096))),
      Enc(huffman::encode(workloads::generateHuffmanData(
          workloads::HuffmanFlavour::Text, Seed + 1,
          std::max<int64_t>(Scale, 4096)))),
      Dec(Enc.Code), Bits(Enc.Bytes, Enc.NumBits),
      Weights(workloads::generatePathGraph(
          Seed + 2, static_cast<size_t>(std::max<int64_t>(Scale / 2, 2048)),
          1000)) {
  LexOracleTokens = static_cast<int64_t>(Lex.lexAll(Text).size());
  HuffOracle = Dec.decodeAll(Bits, Enc.NumSymbols);
  MwisOracleWeight = mwis::solveSequential(Weights, &MwisOracleMembers);

  // The Speculate-sourced dataset: parse, take the reference
  // interpreter's non-speculative result as the oracle, and compile
  // through the admission gate once so request handling never pays for
  // (or races on) compilation. Any failure here is a build bug in the
  // embedded program, not a request-time condition — fail loudly.
  const int64_t N = std::min<int64_t>(std::max<int64_t>(Scale, 4096),
                                      int64_t(1) << 20);
  SpecSource = makeSpecSource(N);
  auto Parsed = lang::parseProgram(SpecSource);
  if (!Parsed)
    throw std::runtime_error("workload catalog: embedded Speculate program "
                             "does not parse: " +
                             Parsed.error());
  interp::RunOutcome Ref = interp::runNonSpeculative(**Parsed);
  if (!Ref.ok() || !Ref.Result.isInt())
    throw std::runtime_error(
        "workload catalog: embedded Speculate program's reference run "
        "failed: " +
        Ref.statusStr());
  SpecOracle = Ref.Result.asInt();
  if (SpecOracle != N * (N + 1) * (2 * N + 1) / 6)
    throw std::runtime_error("workload catalog: embedded Speculate "
                             "program's oracle disagrees with the closed "
                             "form");
  auto Compiled = compile::compileProgram(**Parsed);
  if (!Compiled)
    throw std::runtime_error("workload catalog: embedded Speculate program "
                             "was not admitted by the native compiler: " +
                             Compiled.error());
  SpecProgram = std::move(*Compiled);
}

} // namespace serving
} // namespace specpar
