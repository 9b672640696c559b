//===- support/Json.cpp - Minimal JSON reading and writing ----------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "support/StringUtils.h"

#include <cctype>
#include <string_view>

using namespace specpar;

namespace {

/// Pathological nesting guard: value() recurses once per nesting level,
/// and a hostile "[[[[..." must not overflow the stack.
constexpr int kMaxDepth = 256;

bool isDigit(char C) { return std::isdigit(static_cast<unsigned char>(C)); }

} // namespace

bool JsonReader::fail(const char *Msg) {
  if (!ErrMsg) {
    ErrMsg = Msg;
    ErrAt = Pos;
  }
  return false;
}

void JsonReader::skipWs() {
  while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                            S[Pos] == '\n' || S[Pos] == '\r'))
    ++Pos;
}

bool JsonReader::expect(char C) {
  skipWs();
  if (Pos >= S.size() || S[Pos] != C)
    return fail(C == ':' ? "expected ':'" : "unexpected character");
  ++Pos;
  return true;
}

bool JsonReader::literal(const char *Lit) {
  size_t P = Pos;
  for (; *Lit; ++Lit, ++P)
    if (P >= S.size() || S[P] != *Lit)
      return fail("invalid literal");
  Pos = P;
  return true;
}

bool JsonReader::string(std::string *Out) {
  skipWs();
  if (Pos >= S.size() || S[Pos] != '"')
    return fail("expected string");
  ++Pos;
  while (Pos < S.size()) {
    const char C = S[Pos];
    if (C == '"') {
      ++Pos;
      return true;
    }
    if (static_cast<unsigned char>(C) < 0x20)
      return fail("raw control character in string");
    ++Pos;
    if (C != '\\') {
      if (Out)
        *Out += C;
      continue;
    }
    if (Pos >= S.size())
      return fail("truncated escape");
    const char E = S[Pos++];
    char Byte;
    if (E == 'u') {
      unsigned V = 0;
      for (int I = 0; I < 4; ++I, ++Pos) {
        if (Pos >= S.size() ||
            !std::isxdigit(static_cast<unsigned char>(S[Pos])))
          return fail("bad \\u escape");
        const char H = S[Pos];
        V = V << 4 | static_cast<unsigned>(isDigit(H) ? H - '0'
                                                      : (H | 0x20) - 'a' + 10);
      }
      if (Out && V > 0xFF)
        return fail("\\u escape outside one byte");
      Byte = static_cast<char>(V);
    } else {
      static constexpr std::string_view From = "\"\\/bfnrt",
                                        To = "\"\\/\b\f\n\r\t";
      const size_t At = From.find(E);
      if (At == std::string_view::npos)
        return fail("bad escape character");
      Byte = To[At];
    }
    if (Out)
      *Out += Byte;
  }
  return fail("unterminated string");
}

bool JsonReader::digits() {
  if (Pos >= S.size() || !isDigit(S[Pos]))
    return fail("expected digit");
  while (Pos < S.size() && isDigit(S[Pos]))
    ++Pos;
  return true;
}

bool JsonReader::number(int64_t *Out) {
  skipWs();
  const size_t Start = Pos;
  const bool Neg = Pos < S.size() && S[Pos] == '-';
  Pos += Neg;
  if (Pos < S.size() && S[Pos] == '0') {
    ++Pos; // No leading zeros: "0" is complete, "01" is not.
  } else if (!digits()) {
    return false;
  }
  const size_t IntEnd = Pos;
  if (Pos < S.size() && S[Pos] == '.') {
    ++Pos;
    if (!digits())
      return false;
  }
  if (Pos < S.size() && (S[Pos] == 'e' || S[Pos] == 'E')) {
    ++Pos;
    if (Pos < S.size() && (S[Pos] == '+' || S[Pos] == '-'))
      ++Pos;
    if (!digits())
      return false;
  }
  if (!Out)
    return true;
  if (Pos != IntEnd)
    return fail("expected an integer");
  // Accumulated with the sign applied, so INT64_MIN reads; a value out
  // of int64_t range fails instead of overflowing.
  int64_t V = 0;
  for (size_t P = Start + Neg; P < IntEnd; ++P) {
    const int Digit = S[P] - '0';
    if (__builtin_mul_overflow(V, 10, &V) ||
        (Neg ? __builtin_sub_overflow(V, Digit, &V)
             : __builtin_add_overflow(V, Digit, &V)))
      return fail("integer out of range");
  }
  *Out = V;
  return true;
}

bool JsonReader::integer(int64_t &Out) { return number(&Out); }

bool JsonReader::value() {
  if (++Depth > kMaxDepth)
    return fail("nesting too deep");
  skipWs();
  if (Pos >= S.size())
    return fail("expected value");
  bool Ok;
  switch (S[Pos]) {
  case '{':
    Ok = list('{', '}',
              [this] { return string(nullptr) && expect(':') && value(); });
    break;
  case '[':
    Ok = list('[', ']', [this] { return value(); });
    break;
  case '"':
    Ok = string(nullptr);
    break;
  case 't':
    Ok = literal("true");
    break;
  case 'f':
    Ok = literal("false");
    break;
  case 'n':
    Ok = literal("null");
    break;
  default:
    Ok = number(nullptr);
    break;
  }
  --Depth;
  return Ok;
}

bool JsonReader::atEnd() {
  skipWs();
  return Pos == S.size() || fail("trailing garbage after value");
}

std::string JsonReader::error() const {
  return formatString("%s at offset %zu", ErrMsg ? ErrMsg : "invalid JSON",
                      ErrAt);
}

bool specpar::validateJson(const std::string &Text, std::string *Err) {
  JsonReader R(Text);
  const bool Ok = R.value() && R.atEnd();
  if (!Ok && Err)
    *Err = R.error();
  return Ok;
}

void specpar::appendJsonString(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += formatString("\\u%04x", C);
      else
        Out += C;
    }
  }
  Out += '"';
}
