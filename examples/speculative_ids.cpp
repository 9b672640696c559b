//===- examples/speculative_ids.cpp - Speculative pattern matching --------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// A fourth application domain from the paper's introduction/related work:
/// speculative multi-pattern matching in an intrusion-detection system
/// (Luchaup et al., RAID 2009, cited by the paper). The signature set is
/// compiled into one DFA (reusing the lexgen substrate); scanning a
/// payload is a sequential FSM walk whose loop-carried value is the DFA
/// state. Segments are scanned speculatively with *hot-state prediction*:
/// in IDS workloads the automaton is almost always in or near its start
/// state, so predicting the state at a segment boundary by replaying a
/// small overlap from the start state is usually right.
///
///   speculative_ids [bytes]
///
//===----------------------------------------------------------------------===//

#include "apps/ChunkParts.h"
#include "lexgen/Lexer.h"
#include "runtime/Speculation.h"
#include "support/Rng.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace specpar;
using namespace specpar::lexgen;

namespace {

/// Signature rules: classic toy attack strings plus noise-tolerant
/// patterns. Matching is "alert when any rule's pattern occurs".
Lexer makeSignatureMatcher() {
  Result<Lexer> L = Lexer::compile({
      {"shell", "/bin/sh", false},
      {"traversal", "\\.\\./\\.\\./", false},
      {"sqli", "' *[oO][rR] *'1' *= *'1", false},
      {"xss", "<script[^>]*>", false},
      {"overflow", "%n%n%n+", false},
      // The "everything else" rule keeps the scan total: any byte.
      {"noise", ".|\n", true},
  });
  if (!L) {
    std::fprintf(stderr, "signature set failed to compile: %s\n",
                 L.error().c_str());
    std::abort();
  }
  return L.take();
}

/// Synthetic traffic: mostly noise, a few embedded attacks.
std::string makeTraffic(uint64_t Seed, size_t Bytes) {
  Rng R(Seed);
  std::string T;
  T.reserve(Bytes + 64);
  const char *Attacks[] = {"/bin/sh", "../../", "' or '1'='1",
                           "<script src=x>", "%n%n%n%n"};
  while (T.size() < Bytes) {
    if (R.nextBool(0.001)) {
      T += Attacks[R.nextBelow(5)];
      continue;
    }
    // Printable noise with occasional separators.
    char C = static_cast<char>('a' + R.nextBelow(26));
    if (R.nextBool(0.12))
      C = ' ';
    else if (R.nextBool(0.02))
      C = '\n';
    T += C;
  }
  T.resize(Bytes);
  return T;
}

/// Alerts are the non-noise tokens.
size_t countAlerts(const Lexer &L, const std::vector<Token> &Tokens) {
  size_t Alerts = 0;
  for (const Token &T : Tokens)
    if (T.Rule != NoRule && !L.rules()[T.Rule].Skip)
      ++Alerts;
  return Alerts;
}

} // namespace

int main(int Argc, char **Argv) {
  size_t Bytes = Argc > 1 ? std::strtoull(Argv[1], nullptr, 10) : 1000000;
  Lexer Matcher = makeSignatureMatcher();
  std::printf("signature DFA: %u states, %zu rules\n",
              Matcher.numDfaStates(), Matcher.rules().size());
  std::string Traffic = makeTraffic(1337, Bytes);

  Timer T;
  std::vector<Token> Seq = Matcher.lexAll(Traffic);
  size_t SeqAlerts = countAlerts(Matcher, Seq);
  std::printf("sequential scan: %zu alerts in %.3f ms\n\n", SeqAlerts,
              T.elapsedMillis());

  // Chunked speculation on the shared process-wide executor: the stream
  // is cut into NumTasks * ChunkSize sub-ranges, each speculative task
  // scans one chunk of ChunkSize sub-ranges sequentially, and the DFA
  // state is predicted once per chunk.
  const int NumTasks = 8;
  const int64_t ChunkSize = 8;
  const int64_t N = static_cast<int64_t>(Traffic.size());
  const int64_t NumSub = NumTasks * ChunkSize;
  auto Bound = [&](int64_t I) { return N * I / NumSub; };
  for (int64_t Overlap : {0, 8, 32, 128}) {
    apps::ChunkParts<Token> Parts;
    T.reset();
    rt::SpecResult<LexState> Scan =
        rt::Speculation::iterateChunkedLocal<LexState, std::vector<Token>>(
            0, NumSub, ChunkSize, [] { return std::vector<Token>(); },
            [&](int64_t I, std::vector<Token> &Local, LexState In) {
              return Matcher.lexRange(Traffic, Bound(I), Bound(I + 1), In,
                                      &Local);
            },
            // Hot-state prediction: replay a short overlap from the start
            // state; with Overlap == 0 this is the pure "assume the
            // automaton is in its hot start state" guess.
            [&](int64_t I) {
              return I == 0
                         ? Matcher.initialState(0)
                         : Matcher.predictStateAt(Traffic, Bound(I), Overlap);
            },
            [&Parts](int64_t, std::vector<Token> &Local) {
              Parts.take(std::move(Local));
            });
    std::vector<Token> Tail;
    Matcher.finishLex(Traffic, Scan.Value, &Tail);
    Parts.take(std::move(Tail));
    std::vector<Token> Tokens = Parts.concat();
    size_t Alerts = countAlerts(Matcher, Tokens);
    bool Match = Tokens == Seq;
    std::printf("overlap %4lld: %zu alerts  %s  %s  (%.3f ms)\n",
                static_cast<long long>(Overlap), Alerts,
                Scan.Stats.str().c_str(), Match ? "match" : "MISMATCH",
                T.elapsedMillis());
    if (!Match)
      return 1;
  }
  std::printf("\nall speculative scans raised exactly the sequential "
              "alerts.\n");
  return 0;
}
