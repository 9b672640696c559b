//===- tests/lang_test.cpp - Speculate front-end tests --------------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

using namespace specpar;
using namespace specpar::lang;

namespace {

std::unique_ptr<Program> parseOk(std::string_view Src) {
  auto R = parseExpr(Src);
  EXPECT_TRUE(bool(R)) << R.error() << "\nsource: " << Src;
  return R ? R.take() : nullptr;
}

std::string parseFail(std::string_view Src) {
  auto R = parseExpr(Src);
  EXPECT_FALSE(bool(R)) << "source: " << Src;
  return R ? std::string() : R.error();
}

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(LangLexer, TokenKinds) {
  std::string Err;
  auto T = tokenize("let x = 12 in x := !y; \\z. z <= 3 != 4 == 5", &Err);
  EXPECT_TRUE(Err.empty()) << Err;
  std::vector<TokKind> Kinds;
  for (const Tok &K : T)
    Kinds.push_back(K.Kind);
  std::vector<TokKind> Expected = {
      TokKind::KwLet, TokKind::Ident, TokKind::Equal,  TokKind::Int,
      TokKind::KwIn,  TokKind::Ident, TokKind::Assign, TokKind::Bang,
      TokKind::Ident, TokKind::Semi,  TokKind::Backslash, TokKind::Ident,
      TokKind::Dot,   TokKind::Ident, TokKind::Le,     TokKind::Int,
      TokKind::Ne,    TokKind::Int,   TokKind::EqEq,   TokKind::Int,
      TokKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LangLexer, CommentsAndLocations) {
  std::string Err;
  auto T = tokenize("1 // comment\n  x", &Err);
  ASSERT_EQ(T.size(), 3u);
  EXPECT_EQ(T[0].Loc.Line, 1);
  EXPECT_EQ(T[1].Kind, TokKind::Ident);
  EXPECT_EQ(T[1].Loc.Line, 2);
  EXPECT_EQ(T[1].Loc.Col, 3);
}

TEST(LangLexer, BadCharacterReportsError) {
  std::string Err;
  tokenize("a @ b", &Err);
  EXPECT_NE(Err.find("unexpected character"), std::string::npos);
}

TEST(LangLexer, OutOfRangeIntegerLiteralIsAParseError) {
  // INT64_MAX is the largest literal; one more is a parse error at the
  // literal, not an exception out of parseProgram.
  auto Max = parseProgram("main = 9223372036854775807");
  ASSERT_TRUE(bool(Max)) << Max.error();
  auto R = parseProgram("main =\n  9223372036854775808");
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().find("line 2 col 3"), std::string::npos) << R.error();
  EXPECT_NE(R.error().find("out of range"), std::string::npos) << R.error();
  EXPECT_FALSE(bool(parseProgram("main = 1 + 99999999999999999999999")));
}

//===----------------------------------------------------------------------===//
// Parser structure
//===----------------------------------------------------------------------===//

TEST(LangParser, Precedence) {
  auto P = parseOk("1 + 2 * 3");
  auto *B = dyn_cast<BinOp>(P->Main);
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(B->op(), BinOpKind::Add);
  EXPECT_EQ(cast<BinOp>(B->rhs())->op(), BinOpKind::Mul);
}

TEST(LangParser, CmpLowerThanAdd) {
  auto P = parseOk("1 + 2 < 3 * 4");
  auto *B = dyn_cast<BinOp>(P->Main);
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(B->op(), BinOpKind::Lt);
}

TEST(LangParser, SeqAssociatesLeft) {
  auto P = parseOk("1; 2; 3");
  auto *S = dyn_cast<Seq>(P->Main);
  ASSERT_NE(S, nullptr);
  EXPECT_TRUE(isa<Seq>(S->first()));
  EXPECT_TRUE(isa<IntLit>(S->second()));
}

TEST(LangParser, LambdaDesugarsToNest) {
  auto P = parseOk("\\x y. x + y");
  auto *L1 = dyn_cast<Lambda>(P->Main);
  ASSERT_NE(L1, nullptr);
  auto *L2 = dyn_cast<Lambda>(L1->body());
  ASSERT_NE(L2, nullptr);
  EXPECT_EQ(L1->param()->Name, "x");
  EXPECT_EQ(L2->param()->Name, "y");
}

TEST(LangParser, ArrayAssignBecomesArraySet) {
  auto P = parseOk("let a = newarr(10, 0) in a[3] := 7");
  auto *L = cast<Let>(P->Main);
  EXPECT_TRUE(isa<ArraySet>(L->body()));
}

TEST(LangParser, UnitAndDeref) {
  auto P = parseOk("let c = new(()) in !c");
  auto *L = cast<Let>(P->Main);
  EXPECT_TRUE(isa<NewCell>(L->init()));
  EXPECT_TRUE(isa<UnitLit>(cast<NewCell>(L->init())->init()));
  EXPECT_TRUE(isa<Deref>(L->body()));
}

TEST(LangParser, SpecConstructs) {
  auto P = parseOk("spec(1 + 2, 3, \\x. x)");
  EXPECT_TRUE(isa<Spec>(P->Main));
  auto Q = parseOk("specfold(\\i acc. acc + i, \\i. 0, 1, 10)");
  EXPECT_TRUE(isa<SpecFold>(Q->Main));
}

TEST(LangParser, ProgramWithFunctions) {
  auto R = parseProgram("fun inc(x) = x + 1\n"
                        "fun twice(f, v) = f(f(v))\n"
                        "main = twice(inc, 40)");
  ASSERT_TRUE(bool(R)) << R.error();
  auto &P = **R;
  ASSERT_EQ(P.Funs.size(), 2u);
  EXPECT_EQ(P.Funs[0]->Name, "inc");
  auto *C = dyn_cast<Call>(P.Main);
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->directCallee(), P.Funs[1]);
}

//===----------------------------------------------------------------------===//
// Parse errors
//===----------------------------------------------------------------------===//

TEST(LangParser, Errors) {
  parseFail("1 +");
  parseFail("(1");
  parseFail("let = 3 in 4");
  parseFail("if 1 then 2");
  parseFail("spec(1, 2)");
  parseFail("fold(1, 2, 3)");
  parseFail("\\. x");
  parseFail("a[1");
  parseFail("1 2");
}

TEST(LangParser, ErrorsCarryLocations) {
  auto R = parseExpr("1 +\n  *");
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().find("line 2"), std::string::npos) << R.error();
}

//===----------------------------------------------------------------------===//
// Resolver
//===----------------------------------------------------------------------===//

TEST(LangResolver, ResolvesInnermostBinding) {
  auto P = parseOk("let x = 1 in let x = 2 in x");
  auto *Outer = cast<Let>(P->Main);
  auto *Inner = cast<Let>(Outer->body());
  auto *V = cast<VarRef>(Inner->body());
  EXPECT_EQ(V->binding(), Inner->var());
}

TEST(LangResolver, UndefinedVariable) {
  auto R = parseExpr("x + 1");
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().find("undefined variable 'x'"), std::string::npos);
}

TEST(LangResolver, NoForwardOrRecursiveFunctionRefs) {
  auto Fwd = parseProgram("fun a(x) = b(x)\nfun b(x) = x\nmain = a(1)");
  EXPECT_FALSE(bool(Fwd));
  auto Rec = parseProgram("fun f(x) = f(x)\nmain = f(1)");
  EXPECT_FALSE(bool(Rec));
}

TEST(LangResolver, ArityMismatchOnDirectCall) {
  auto R = parseProgram("fun add(x, y) = x + y\nmain = add(1)");
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().find("expects 2 arguments"), std::string::npos);
}

TEST(LangResolver, DuplicateFunctionAndParam) {
  EXPECT_FALSE(bool(parseProgram("fun f(x) = x\nfun f(y) = y\nmain = 1")));
  EXPECT_FALSE(bool(parseProgram("fun f(x, x) = x\nmain = 1")));
}

TEST(LangResolver, FunctionUsedAsValue) {
  auto R = parseProgram("fun inc(x) = x + 1\nmain = fold(\\i a. inc(a), 0, "
                        "1, 3)");
  ASSERT_TRUE(bool(R)) << R.error();
}

//===----------------------------------------------------------------------===//
// Printer round-trips
//===----------------------------------------------------------------------===//

class PrinterRoundTrip : public ::testing::TestWithParam<const char *> {};

TEST_P(PrinterRoundTrip, PrintParsePrintIsStable) {
  auto R = parseProgram(GetParam());
  ASSERT_TRUE(bool(R)) << R.error();
  std::string Printed = printProgram(**R);
  auto R2 = parseProgram(Printed);
  ASSERT_TRUE(bool(R2)) << R2.error() << "\nprinted:\n" << Printed;
  EXPECT_EQ(printProgram(**R2), Printed);
  EXPECT_EQ(countNodes(**R2), countNodes(**R));
}

INSTANTIATE_TEST_SUITE_P(
    Programs, PrinterRoundTrip,
    ::testing::Values(
        "main = 1 + 2 * 3 - 4 % 5",
        "main = (1; 2); 3; 4",
        "main = let c = new(5) in c := !c + 1; !c",
        "main = if 1 < 2 then (if 0 then 1 else 2) else 3",
        "main = (\\x y. x + y)(3, 4)",
        "main = let a = newarr(8, 0) in a[0] := 1; a[a[0]] := 2; len(a)",
        "main = fold(\\i acc. acc + i, 0, 1, 10)",
        "main = spec(40 + 2, 42, \\v. new(v))",
        "main = specfold(\\i acc. acc * i, \\i. 1, 1, 5)",
        "fun sq(x) = x * x\nfun sumsq(n) = fold(\\i a. a + sq(i), 0, 1, n)\n"
        "main = sumsq(10)",
        "main = 0 - 5 + -3",
        "main = let f = \\x. x := 1 in f(new(0))"));

TEST(Printer, CountNodesCountsEverything) {
  auto P = parseOk("1 + 2");
  EXPECT_EQ(countNodes(P->Main), 3);
  auto Q = parseOk("let x = 1 in x");
  EXPECT_EQ(countNodes(Q->Main), 3);
}

//===----------------------------------------------------------------------===//
// Resolver frame layout (slots and lambda forms, consumed by sp_compile)
//===----------------------------------------------------------------------===//

TEST(LangResolver, LetSlotsAreMonotoneWithinMain) {
  auto R = parseProgram("main = let x = 1 in let y = 2 in x + y");
  ASSERT_TRUE(bool(R)) << R.error();
  const Program &P = **R;
  EXPECT_EQ(P.MainFrameSlots, 2u);
  const auto *Outer = cast<Let>(P.Main);
  EXPECT_EQ(Outer->var()->Slot, 0u);
  const auto *Inner = cast<Let>(Outer->body());
  EXPECT_EQ(Inner->var()->Slot, 1u);
}

TEST(LangResolver, SiblingScopesNeverShareASlot) {
  // Monotone allocation: even though y and z are never live together,
  // they get distinct slots — the compiled spec producer and predictor
  // share the enclosing frame across threads, so reuse would race.
  auto R = parseProgram(
      "main = let x = 1 in (let y = 2 in y) + (let z = 3 in z)");
  ASSERT_TRUE(bool(R)) << R.error();
  EXPECT_EQ((*R)->MainFrameSlots, 3u);
}

TEST(LangResolver, FoldLiteralLambdaIsInlined) {
  auto R = parseProgram("main = fold(\\i acc. acc + i, 0, 1, 3)");
  ASSERT_TRUE(bool(R)) << R.error();
  const Program &P = **R;
  const auto *F = cast<Fold>(P.Main);
  const auto *OuterL = cast<Lambda>(F->fn());
  EXPECT_EQ(OuterL->form(), LambdaForm::Inlined);
  // Both loop binders live in the enclosing (main) frame.
  EXPECT_EQ(P.MainFrameSlots, 2u);
  EXPECT_NE(OuterL->param()->Slot, Binding::NoSlot);
}

TEST(LangResolver, SpecfoldLiteralLambdaIsFused) {
  auto R = parseProgram("main = specfold(\\i acc. acc + i, \\i. 0, 1, 3)");
  ASSERT_TRUE(bool(R)) << R.error();
  const Program &P = **R;
  const auto *SF = cast<SpecFold>(P.Main);
  const auto *OuterL = cast<Lambda>(SF->fn());
  EXPECT_EQ(OuterL->form(), LambdaForm::FusedOuter);
  // One fused arity-2 frame holding both parameters; nothing spills
  // into main's frame.
  EXPECT_EQ(OuterL->frameSlots(), 2u);
  EXPECT_EQ(P.MainFrameSlots, 0u);
  const auto *GuessL = cast<Lambda>(SF->guess());
  EXPECT_EQ(GuessL->form(), LambdaForm::Closure);
  EXPECT_EQ(GuessL->frameSlots(), 1u);
}

TEST(LangResolver, ClosureOwnsItsFrame) {
  auto R = parseProgram("main = \\x. let y = x in y");
  ASSERT_TRUE(bool(R)) << R.error();
  const auto *L = cast<Lambda>((*R)->Main);
  EXPECT_EQ(L->form(), LambdaForm::Closure);
  EXPECT_EQ(L->frameSlots(), 2u);
  EXPECT_EQ(L->param()->Slot, 0u);
}

TEST(LangResolver, FunDefFrameCountsParamsAndLets) {
  auto R = parseProgram("fun f(a, b) = let c = a in c + b\nmain = f(1, 2)");
  ASSERT_TRUE(bool(R)) << R.error();
  const FunDef *F = (*R)->findFun("f");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->FrameSlots, 3u);
  ASSERT_EQ(F->Params.size(), 2u);
  EXPECT_EQ(F->Params[0]->Slot, 0u);
  EXPECT_EQ(F->Params[1]->Slot, 1u);
}

} // namespace
