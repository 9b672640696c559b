//===- lexgen/Lexer.h - Table-driven lexer with carried state ---*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A maximal-munch, table-driven lexer shaped like the paper's
/// `SequentialLex`: it can lex an arbitrary [From, To) range of the input
/// given an explicit carried LexState, and returns the LexState at the end
/// of the range. This is precisely the loop-carried value that the
/// speculative parallel lexer predicts with overlap lexing (paper Section
/// 1.1 and Figure 4).
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_LEXGEN_LEXER_H
#define SPECPAR_LEXGEN_LEXER_H

#include "lexgen/Dfa.h"
#include "support/Result.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace specpar {
namespace lexgen {

/// One token rule: a name, a pattern, and whether matches are dropped from
/// the output stream (whitespace, comments).
struct LexRule {
  std::string Name;
  std::string Pattern;
  bool Skip = false;
};

/// A lexed token: rule index and the [Start, End) byte range. Rule NoRule
/// marks an error token (a byte no rule matches). Offsets are 32-bit, so
/// a lexer input is at most kMaxLexBytes long.
struct Token {
  int32_t Rule;
  uint32_t Start;
  uint32_t End;

  friend bool operator==(const Token &A, const Token &B) {
    return A.Rule == B.Rule && A.Start == B.Start && A.End == B.End;
  }
};
static_assert(sizeof(Token) == 12, "Token grew");

/// The longest text a Token's offsets can address.
inline constexpr int64_t kMaxLexBytes = UINT32_MAX;

/// Throws std::length_error when \p Text is longer than kMaxLexBytes.
void checkLexInputSize(std::string_view Text);

/// The loop-carried lexer state: everything the scanner needs besides the
/// current position. This is the value the speculative iteration predicts;
/// prediction is validated with operator==, mirroring the paper's use of
/// the generic Equals.
struct LexState {
  /// Current DFA state.
  uint32_t DfaState;
  /// Absolute offset where the in-flight token began.
  int64_t TokStart;
  /// Rule of the most recent accepting state on the current token, or
  /// NoRule if none has been seen yet.
  int32_t LastAcceptRule;
  /// Absolute end offset (exclusive) of that most recent accept.
  int64_t LastAcceptEnd;

  friend bool operator==(const LexState &A, const LexState &B) {
    return A.DfaState == B.DfaState && A.TokStart == B.TokStart &&
           A.LastAcceptRule == B.LastAcceptRule &&
           A.LastAcceptEnd == B.LastAcceptEnd;
  }
};

/// A compiled lexer: minimized DFA plus rule metadata.
class Lexer {
public:
  /// Compiles \p Rules into a lexer. Earlier rules win ties (keywords
  /// before identifiers).
  static Result<Lexer> compile(std::vector<LexRule> Rules);

  const Dfa &dfa() const { return Machine; }
  const std::vector<LexRule> &rules() const { return Rules; }
  uint32_t numDfaStates() const { return Machine.numStates(); }

  /// The state a scan starts in at offset \p Pos.
  LexState initialState(int64_t Pos) const {
    return LexState{Machine.startState(), Pos, NoRule, -1};
  }

  /// Lexes positions [From, To) of \p Text starting from \p State;
  /// \p To must not exceed kMaxLexBytes. Tokens finalized while scanning
  /// the range are appended to \p Out (skip-rule tokens are dropped).
  /// Returns the carried state at \p To.
  ///
  /// Composition law (tested): lexRange(a,b) then lexRange(b,c) from the
  /// returned state produces the same tokens and final state as
  /// lexRange(a,c). Note that maximal-munch backtracking may re-read
  /// characters before \p From; the full \p Text must therefore always be
  /// passed.
  LexState lexRange(std::string_view Text, int64_t From, int64_t To,
                    LexState State, std::vector<Token> *Out) const;

  /// Flushes the in-flight token at end of input: emits the pending accept
  /// (and re-lexes any backtracked tail) until the whole input is consumed.
  void finishLex(std::string_view Text, LexState State,
                 std::vector<Token> *Out) const;

  /// Convenience: lexes all of \p Text sequentially. Throws
  /// std::length_error, before lexing, when \p Text is longer than
  /// kMaxLexBytes.
  std::vector<Token> lexAll(std::string_view Text) const;

  /// The paper's overlap predictor: predicts the carried state at
  /// \p Boundary by lexing the \p Overlap bytes preceding it from a fresh
  /// state. (Figure 4's prediction function.)
  LexState predictStateAt(std::string_view Text, int64_t Boundary,
                          int64_t Overlap) const;

private:
  Dfa Machine;
  std::vector<LexRule> Rules;
};

} // namespace lexgen
} // namespace specpar

#endif // SPECPAR_LEXGEN_LEXER_H
