//===- lang/Lexer.cpp - Speculate tokenizer --------------------------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"

#include "support/StringUtils.h"
#include "support/Unreachable.h"

#include <charconv>

using namespace specpar;
using namespace specpar::lang;

const char *specpar::lang::tokKindName(TokKind K) {
  switch (K) {
  case TokKind::Int:
    return "integer";
  case TokKind::Ident:
    return "identifier";
  case TokKind::KwFun:
    return "'fun'";
  case TokKind::KwMain:
    return "'main'";
  case TokKind::KwLet:
    return "'let'";
  case TokKind::KwIn:
    return "'in'";
  case TokKind::KwIf:
    return "'if'";
  case TokKind::KwThen:
    return "'then'";
  case TokKind::KwElse:
    return "'else'";
  case TokKind::KwNew:
    return "'new'";
  case TokKind::KwNewArr:
    return "'newarr'";
  case TokKind::KwLen:
    return "'len'";
  case TokKind::KwFold:
    return "'fold'";
  case TokKind::KwSpec:
    return "'spec'";
  case TokKind::KwSpecFold:
    return "'specfold'";
  case TokKind::LParen:
    return "'('";
  case TokKind::RParen:
    return "')'";
  case TokKind::LBracket:
    return "'['";
  case TokKind::RBracket:
    return "']'";
  case TokKind::Comma:
    return "','";
  case TokKind::Semi:
    return "';'";
  case TokKind::Dot:
    return "'.'";
  case TokKind::Backslash:
    return "'\\'";
  case TokKind::Assign:
    return "':='";
  case TokKind::Equal:
    return "'='";
  case TokKind::Bang:
    return "'!'";
  case TokKind::Plus:
    return "'+'";
  case TokKind::Minus:
    return "'-'";
  case TokKind::Star:
    return "'*'";
  case TokKind::Slash:
    return "'/'";
  case TokKind::Percent:
    return "'%'";
  case TokKind::Lt:
    return "'<'";
  case TokKind::Le:
    return "'<='";
  case TokKind::Gt:
    return "'>'";
  case TokKind::Ge:
    return "'>='";
  case TokKind::EqEq:
    return "'=='";
  case TokKind::Ne:
    return "'!='";
  case TokKind::Eof:
    return "end of input";
  }
  sp_unreachable("unknown token kind");
}

static TokKind keywordOrIdent(const std::string &Text) {
  if (Text == "fun")
    return TokKind::KwFun;
  if (Text == "main")
    return TokKind::KwMain;
  if (Text == "let")
    return TokKind::KwLet;
  if (Text == "in")
    return TokKind::KwIn;
  if (Text == "if")
    return TokKind::KwIf;
  if (Text == "then")
    return TokKind::KwThen;
  if (Text == "else")
    return TokKind::KwElse;
  if (Text == "new")
    return TokKind::KwNew;
  if (Text == "newarr")
    return TokKind::KwNewArr;
  if (Text == "len")
    return TokKind::KwLen;
  if (Text == "fold")
    return TokKind::KwFold;
  if (Text == "spec")
    return TokKind::KwSpec;
  if (Text == "specfold")
    return TokKind::KwSpecFold;
  return TokKind::Ident;
}

std::vector<Tok> specpar::lang::tokenize(std::string_view Source,
                                         std::string *Error) {
  std::vector<Tok> Toks;
  int Line = 1, Col = 1;
  size_t I = 0;
  const size_t N = Source.size();

  auto Push = [&](TokKind K, std::string Text, SourceLoc Loc,
                  int64_t IntValue = 0) {
    Toks.push_back(Tok{K, std::move(Text), IntValue, Loc});
  };
  auto Advance = [&](size_t Count) {
    for (size_t J = 0; J < Count; ++J, ++I) {
      if (Source[I] == '\n') {
        ++Line;
        Col = 1;
      } else {
        ++Col;
      }
    }
  };

  while (I < N) {
    char C = Source[I];
    SourceLoc Loc{Line, Col};
    // Whitespace.
    if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
      Advance(1);
      continue;
    }
    // Comments.
    if (C == '/' && I + 1 < N && Source[I + 1] == '/') {
      while (I < N && Source[I] != '\n')
        Advance(1);
      continue;
    }
    // Integers.
    if (C >= '0' && C <= '9') {
      size_t Start = I;
      while (I < N && Source[I] >= '0' && Source[I] <= '9')
        Advance(1);
      std::string_view Digits = Source.substr(Start, I - Start);
      int64_t Value = 0;
      if (std::from_chars(Digits.data(), Digits.data() + Digits.size(), Value)
              .ec != std::errc()) {
        if (Error && Error->empty())
          *Error = formatString(
              "line %d col %d: integer literal %.*s out of range", Loc.Line,
              Loc.Col, static_cast<int>(Digits.size()), Digits.data());
        Push(TokKind::Eof, "", Loc);
        return Toks;
      }
      Push(TokKind::Int, std::string(Digits), Loc, Value);
      continue;
    }
    // Identifiers and keywords.
    if ((C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_') {
      size_t Start = I;
      while (I < N && ((Source[I] >= 'a' && Source[I] <= 'z') ||
                       (Source[I] >= 'A' && Source[I] <= 'Z') ||
                       (Source[I] >= '0' && Source[I] <= '9') ||
                       Source[I] == '_'))
        Advance(1);
      std::string Text(Source.substr(Start, I - Start));
      Push(keywordOrIdent(Text), Text, Loc);
      continue;
    }
    // Multi-character operators first.
    auto TwoChar = [&](char A, char B, TokKind K) {
      if (C == A && I + 1 < N && Source[I + 1] == B) {
        Push(K, std::string{A, B}, Loc);
        Advance(2);
        return true;
      }
      return false;
    };
    if (TwoChar(':', '=', TokKind::Assign) ||
        TwoChar('=', '=', TokKind::EqEq) || TwoChar('!', '=', TokKind::Ne) ||
        TwoChar('<', '=', TokKind::Le) || TwoChar('>', '=', TokKind::Ge))
      continue;

    TokKind K;
    switch (C) {
    case '(':
      K = TokKind::LParen;
      break;
    case ')':
      K = TokKind::RParen;
      break;
    case '[':
      K = TokKind::LBracket;
      break;
    case ']':
      K = TokKind::RBracket;
      break;
    case ',':
      K = TokKind::Comma;
      break;
    case ';':
      K = TokKind::Semi;
      break;
    case '.':
      K = TokKind::Dot;
      break;
    case '\\':
      K = TokKind::Backslash;
      break;
    case '=':
      K = TokKind::Equal;
      break;
    case '!':
      K = TokKind::Bang;
      break;
    case '+':
      K = TokKind::Plus;
      break;
    case '-':
      K = TokKind::Minus;
      break;
    case '*':
      K = TokKind::Star;
      break;
    case '/':
      K = TokKind::Slash;
      break;
    case '%':
      K = TokKind::Percent;
      break;
    case '<':
      K = TokKind::Lt;
      break;
    case '>':
      K = TokKind::Gt;
      break;
    default:
      if (Error && Error->empty())
        *Error = formatString("line %d col %d: unexpected character '%c'",
                              Line, Col, C);
      Push(TokKind::Eof, "", Loc);
      return Toks;
    }
    Push(K, std::string(1, C), Loc);
    Advance(1);
  }
  Push(TokKind::Eof, "", SourceLoc{Line, Col});
  return Toks;
}
