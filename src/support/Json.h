//===- support/Json.h - Minimal JSON reading and writing --------*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dependency-free JSON reader over the RFC 8259 grammar (objects,
/// arrays, strings, numbers, true/false/null) and a string escaper.
///
/// The reader builds no value tree: its caller walks the document,
/// asking at each point for the value it expects, and the first
/// deviation fails the whole read. `validateJson` is the walk that
/// expects any one value — the observability machinery's self-check
/// that its emitted artifacts (flight recorder Chrome-trace dumps,
/// `/statusz` bodies) are well-formed, and the test suite's, without a
/// JSON library dependency. The ProfileStore reads its files through
/// the same reader. The serious consumers are chrome://tracing and real
/// collectors.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_SUPPORT_JSON_H
#define SPECPAR_SUPPORT_JSON_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace specpar {

/// A pull reader over one JSON text. Each read consumes one value and
/// returns false at the first error, which error() then describes.
class JsonReader {
public:
  explicit JsonReader(const std::string &Text) : S(Text) {}

  /// Reads an object, calling \p OnField(Key) with each member's decoded
  /// key; OnField must read the member's value and return whether it
  /// did (false fails the read).
  template <typename FieldFn> bool object(FieldFn OnField) {
    return list('{', '}', [&] {
      std::string Key;
      return string(&Key) && expect(':') && OnField(Key);
    });
  }

  /// Reads any one value without keeping it.
  bool value();

  /// Reads a string, decoded into \p Out when given. Decoded strings
  /// hold bytes: a `\u` escape above 0xFF, which appendJsonString never
  /// writes, fails a decoding read (a skipping one accepts it).
  bool string(std::string *Out);

  /// Reads a number that is an integer in int64_t range.
  bool integer(int64_t &Out);

  /// True when only whitespace is left.
  bool atEnd();

  /// The first error, with its byte offset.
  std::string error() const;

private:
  /// Reads `Open [Item (',' Item)*] Close`.
  template <typename ItemFn> bool list(char Open, char Close, ItemFn Item) {
    if (!expect(Open))
      return false;
    skipWs();
    if (Pos < S.size() && S[Pos] == Close) {
      ++Pos;
      return true;
    }
    for (;;) {
      if (!Item())
        return false;
      skipWs();
      if (Pos < S.size() && S[Pos] == ',') {
        ++Pos;
        continue;
      }
      return expect(Close);
    }
  }

  bool fail(const char *Msg);
  void skipWs();
  bool expect(char C);
  bool literal(const char *Lit);
  bool digits();
  bool number(int64_t *Out);

  const std::string &S;
  size_t Pos = 0;
  size_t ErrAt = 0;
  const char *ErrMsg = nullptr;
  int Depth = 0;
};

/// True when \p Text is exactly one well-formed JSON value (plus optional
/// surrounding whitespace). On failure, if \p Err is non-null it receives
/// a one-line description with the byte offset of the first error.
bool validateJson(const std::string &Text, std::string *Err = nullptr);

/// Appends \p S to \p Out as a JSON string literal (quotes included),
/// escaping quotes, backslashes, and control characters.
void appendJsonString(std::string &Out, const std::string &S);

} // namespace specpar

#endif // SPECPAR_SUPPORT_JSON_H
