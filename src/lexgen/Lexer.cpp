//===- lexgen/Lexer.cpp - Table-driven lexer with carried state -----------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "lexgen/Lexer.h"

#include "support/StringUtils.h"

#include <cassert>
#include <stdexcept>
#include <string>

using namespace specpar;
using namespace specpar::lexgen;

Result<Lexer> Lexer::compile(std::vector<LexRule> Rules) {
  std::vector<std::string> Patterns;
  Patterns.reserve(Rules.size());
  for (const LexRule &R : Rules)
    Patterns.push_back(R.Pattern);
  Result<Nfa> N = buildCombinedNfa(Patterns);
  if (!N)
    return ResultError(N.error());
  Lexer L;
  L.Machine = Dfa::fromNfa(*N).minimized();
  L.Rules = std::move(Rules);
  if (L.Machine.acceptRule(L.Machine.startState()) != NoRule)
    return ResultError("a rule matches the empty string");
  return L;
}

void specpar::lexgen::checkLexInputSize(std::string_view Text) {
  if (Text.size() > static_cast<size_t>(kMaxLexBytes))
    throw std::length_error("lexer input of " + std::to_string(Text.size()) +
                            " bytes exceeds the 32-bit token offset limit");
}

/// A token over [Start, End); both fit 32 bits because every lexed range
/// ends at or below kMaxLexBytes.
static Token makeToken(int32_t Rule, int64_t Start, int64_t End) {
  return Token{Rule, static_cast<uint32_t>(Start), static_cast<uint32_t>(End)};
}

LexState Lexer::lexRange(std::string_view Text, int64_t From, int64_t To,
                         LexState State, std::vector<Token> *Out) const {
  assert(From >= 0 && To <= static_cast<int64_t>(Text.size()) && From <= To &&
         "range out of bounds");
  assert(To <= kMaxLexBytes && "token offsets are 32-bit");
  int64_t Pos = From;
  while (Pos < To) {
    unsigned char C = static_cast<unsigned char>(Text[Pos]);
    uint32_t Next = Machine.next(State.DfaState, C);
    if (Next != DeadState) {
      State.DfaState = Next;
      int32_t Rule = Machine.acceptRule(Next);
      if (Rule != NoRule) {
        State.LastAcceptRule = Rule;
        State.LastAcceptEnd = Pos + 1;
      }
      ++Pos;
      continue;
    }
    if (State.LastAcceptRule != NoRule) {
      // Maximal munch: emit the longest accepted prefix and resume right
      // after it (this may re-read bytes, possibly before From).
      if (Out && !Rules[State.LastAcceptRule].Skip)
        Out->push_back(makeToken(State.LastAcceptRule, State.TokStart,
                                 State.LastAcceptEnd));
      Pos = State.LastAcceptEnd;
      State = initialState(Pos);
    } else {
      // No rule matches: emit a one-byte error token and resync.
      if (Out)
        Out->push_back(makeToken(NoRule, State.TokStart, State.TokStart + 1));
      Pos = State.TokStart + 1;
      State = initialState(Pos);
    }
  }
  return State;
}

void Lexer::finishLex(std::string_view Text, LexState State,
                      std::vector<Token> *Out) const {
  int64_t N = static_cast<int64_t>(Text.size());
  while (State.TokStart < N) {
    int64_t Resume;
    if (State.LastAcceptRule != NoRule) {
      if (Out && !Rules[State.LastAcceptRule].Skip)
        Out->push_back(makeToken(State.LastAcceptRule, State.TokStart,
                                 State.LastAcceptEnd));
      Resume = State.LastAcceptEnd;
    } else {
      if (Out)
        Out->push_back(makeToken(NoRule, State.TokStart, State.TokStart + 1));
      Resume = State.TokStart + 1;
    }
    State = lexRange(Text, Resume, N, initialState(Resume), Out);
  }
}

std::vector<Token> Lexer::lexAll(std::string_view Text) const {
  checkLexInputSize(Text);
  std::vector<Token> Out;
  LexState S = lexRange(Text, 0, static_cast<int64_t>(Text.size()),
                        initialState(0), &Out);
  finishLex(Text, S, &Out);
  return Out;
}

LexState Lexer::predictStateAt(std::string_view Text, int64_t Boundary,
                               int64_t Overlap) const {
  int64_t From = Boundary - Overlap;
  if (From < 0)
    From = 0;
  return lexRange(Text, From, Boundary, initialState(From), nullptr);
}
