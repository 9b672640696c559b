//===- tests/workloads_test.cpp - Dataset generator tests -----------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "lexgen/Languages.h"
#include "workloads/Datasets.h"
#include "workloads/SourceGen.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace specpar;
using namespace specpar::workloads;
using namespace specpar::lexgen;

namespace {

double byteEntropy(const std::vector<uint8_t> &Data) {
  std::array<double, 256> Freq{};
  for (uint8_t B : Data)
    Freq[B] += 1;
  double H = 0;
  for (double F : Freq) {
    if (F == 0)
      continue;
    double P = F / static_cast<double>(Data.size());
    H -= P * std::log2(P);
  }
  return H;
}

TEST(Datasets, GeneratorsAreDeterministic) {
  for (HuffmanFlavour F : AllHuffmanFlavours) {
    auto A = generateHuffmanData(F, 42, 4096);
    auto B = generateHuffmanData(F, 42, 4096);
    EXPECT_EQ(A, B);
    auto C = generateHuffmanData(F, 43, 4096);
    EXPECT_NE(A, C);
    EXPECT_EQ(A.size(), 4096u);
  }
}

TEST(Datasets, FlavourEntropyOrdering) {
  // media (mp3-like) must have the highest byte entropy, rawdata and text
  // substantially lower — the property that drives their different Huffman
  // compressibility and self-sync speed.
  auto Media = generateHuffmanData(HuffmanFlavour::Media, 1, 1 << 16);
  auto Raw = generateHuffmanData(HuffmanFlavour::RawData, 1, 1 << 16);
  auto Text = generateHuffmanData(HuffmanFlavour::Text, 1, 1 << 16);
  double HMedia = byteEntropy(Media), HRaw = byteEntropy(Raw),
         HText = byteEntropy(Text);
  EXPECT_GT(HMedia, 6.5);
  EXPECT_LT(HRaw, HMedia);
  EXPECT_LT(HText, HMedia);
  EXPECT_GT(HText, 3.0);
}

TEST(Datasets, PathGraphRespectsRange) {
  std::vector<int64_t> W = generatePathGraph(7, 10000, 50);
  ASSERT_EQ(W.size(), 10000u);
  int64_t Max = 0;
  for (int64_t V : W) {
    EXPECT_GE(V, 0);
    EXPECT_LE(V, 50);
    Max = std::max(Max, V);
  }
  EXPECT_GT(Max, 40) << "the full weight range should be exercised";
}

TEST(Datasets, TextCorpusLooksLikeText) {
  std::string T = generateTextCorpus(5, 10000);
  EXPECT_EQ(T.size(), 10000u);
  EXPECT_NE(T.find(". "), std::string::npos);
  EXPECT_NE(T.find("\n\n"), std::string::npos);
  EXPECT_NE(T.find("the"), std::string::npos);
}

class SourceGenLexes : public ::testing::TestWithParam<Language> {};

TEST_P(SourceGenLexes, GeneratedSourceLexesCleanly) {
  Language L = GetParam();
  Lexer LX = makeLexer(L);
  std::string Src = generateSource(L, 77, 60000);
  EXPECT_GE(Src.size(), 59000u);
  std::vector<Token> Toks = LX.lexAll(Src);
  EXPECT_GT(Toks.size(), 100u);
  size_t Errors = 0;
  for (const Token &T : Toks)
    if (T.Rule == NoRule)
      ++Errors;
  EXPECT_EQ(Errors, 0u) << "generated " << languageName(L)
                        << " must lex without error tokens";
}

TEST_P(SourceGenLexes, DeterministicPerSeed) {
  Language L = GetParam();
  EXPECT_EQ(generateSource(L, 9, 5000), generateSource(L, 9, 5000));
  EXPECT_NE(generateSource(L, 9, 5000), generateSource(L, 10, 5000));
}

INSTANTIATE_TEST_SUITE_P(AllLangs, SourceGenLexes,
                         ::testing::ValuesIn(AllLanguages));

TEST(SourceGen, HtmlHasLongTokensJavaShortOnes) {
  // The structural property behind the paper's accuracy ordering: HTML's
  // longest token dwarfs Java's.
  Lexer HtmlLexer = makeLexer(Language::Html);
  Lexer JavaLexer = makeLexer(Language::Java);
  std::string Html = generateSource(Language::Html, 3, 40000);
  std::string Java = generateSource(Language::Java, 3, 40000);
  auto MaxTokenLen = [](const std::vector<Token> &Toks) {
    int64_t Max = 0;
    for (const Token &T : Toks)
      Max = std::max<int64_t>(Max, T.End - T.Start);
    return Max;
  };
  int64_t HtmlMax = MaxTokenLen(HtmlLexer.lexAll(Html));
  int64_t JavaMax = MaxTokenLen(JavaLexer.lexAll(Java));
  EXPECT_GT(HtmlMax, 256);
  EXPECT_LT(JavaMax, 128);
}

} // namespace
