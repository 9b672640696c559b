//===- tests/huffman_test.cpp - Huffman codec tests -----------------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "huffman/Huffman.h"
#include "support/Rng.h"
#include "workloads/Datasets.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

using namespace specpar;
using namespace specpar::huffman;
using namespace specpar::workloads;

namespace {

std::vector<uint8_t> bytesOf(const char *S) {
  return std::vector<uint8_t>(S, S + strlen(S));
}

TEST(HuffmanCode, KraftInequalityHolds) {
  std::vector<uint8_t> Data = bytesOf("abracadabra alakazam");
  HuffmanCode C = HuffmanCode::fromData(Data);
  double Kraft = 0;
  for (unsigned S = 0; S < 256; ++S)
    if (C.codeLength(static_cast<uint8_t>(S)) > 0)
      Kraft += std::pow(2.0, -double(C.codeLength(static_cast<uint8_t>(S))));
  EXPECT_DOUBLE_EQ(Kraft, 1.0) << "a full Huffman code is exactly Kraft-tight";
}

TEST(HuffmanCode, CanonicalCodesArePrefixFree) {
  std::vector<uint8_t> Data = generateHuffmanData(HuffmanFlavour::Text, 1,
                                                  4096);
  HuffmanCode C = HuffmanCode::fromData(Data);
  for (unsigned A = 0; A < 256; ++A) {
    unsigned LA = C.codeLength(static_cast<uint8_t>(A));
    if (LA == 0)
      continue;
    for (unsigned B = 0; B < 256; ++B) {
      if (A == B)
        continue;
      unsigned LB = C.codeLength(static_cast<uint8_t>(B));
      if (LB == 0 || LB < LA)
        continue;
      // A's code must not be a prefix of B's.
      uint64_t BPrefix = C.codeBits(static_cast<uint8_t>(B)) >> (LB - LA);
      EXPECT_NE(BPrefix, C.codeBits(static_cast<uint8_t>(A)))
          << "symbol " << A << " is a prefix of symbol " << B;
    }
  }
}

TEST(HuffmanCode, MoreFrequentSymbolsGetShorterCodes) {
  std::array<uint64_t, 256> Freq{};
  Freq['a'] = 1000;
  Freq['b'] = 100;
  Freq['c'] = 10;
  Freq['d'] = 1;
  HuffmanCode C = HuffmanCode::fromFrequencies(Freq);
  EXPECT_LE(C.codeLength('a'), C.codeLength('b'));
  EXPECT_LE(C.codeLength('b'), C.codeLength('c'));
  EXPECT_LE(C.codeLength('c'), C.codeLength('d'));
  EXPECT_EQ(C.numSymbols(), 4u);
}

TEST(HuffmanCode, SingleSymbolAlphabet) {
  std::vector<uint8_t> Data(100, 'x');
  Encoded E = encode(Data);
  EXPECT_EQ(E.NumBits, 100);
  Decoder D(E.Code);
  BitReader In(E.Bytes, E.NumBits);
  EXPECT_EQ(D.decodeAll(In, E.NumSymbols), Data);
}

TEST(Huffman, EmptyInput) {
  Encoded E = encode({});
  EXPECT_EQ(E.NumBits, 0);
  EXPECT_EQ(E.Code.numSymbols(), 0u);
}

class HuffmanRoundTrip
    : public ::testing::TestWithParam<std::tuple<HuffmanFlavour, size_t>> {};

TEST_P(HuffmanRoundTrip, EncodeDecodeIsIdentity) {
  auto [Flavour, Size] = GetParam();
  std::vector<uint8_t> Data = generateHuffmanData(Flavour, 99, Size);
  Encoded E = encode(Data);
  Decoder D(E.Code);
  BitReader In(E.Bytes, E.NumBits);
  EXPECT_EQ(D.decodeAll(In, E.NumSymbols), Data);
  // The encoding compresses skewed flavours.
  if (Flavour != HuffmanFlavour::Media && Size > 1000) {
    EXPECT_LT(E.NumBits, static_cast<int64_t>(8 * Size));
  }
}

INSTANTIATE_TEST_SUITE_P(
    FlavoursAndSizes, HuffmanRoundTrip,
    ::testing::Combine(::testing::ValuesIn(AllHuffmanFlavours),
                       ::testing::Values<size_t>(1, 17, 1000, 50000)));

/// Segmented decode with the *true* carried values equals sequential
/// decode: the correctness backbone of the speculative Huffman benchmark.
TEST(Huffman, SegmentedDecodeMatchesSequential) {
  std::vector<uint8_t> Data =
      generateHuffmanData(HuffmanFlavour::Text, 7, 20000);
  Encoded E = encode(Data);
  Decoder D(E.Code);
  BitReader In(E.Bytes, E.NumBits);
  std::vector<uint8_t> Seq = D.decodeAll(In, E.NumSymbols);

  for (int NumSegments : {1, 2, 3, 7, 16}) {
    std::vector<uint8_t> Out;
    int64_t Carried = 0;
    for (int I = 0; I < NumSegments; ++I) {
      int64_t SegEnd = (I + 1 == NumSegments)
                           ? E.NumBits
                           : E.NumBits * (I + 1) / NumSegments;
      Carried = D.decodeRange(In, Carried, SegEnd, &Out);
      ASSERT_GE(Carried, 0);
    }
    EXPECT_EQ(Out, Seq) << NumSegments << " segments";
    EXPECT_EQ(Carried, E.NumBits);
  }
}

TEST(Huffman, DecodeRangePastEndIsNoop) {
  std::vector<uint8_t> Data = bytesOf("hello hello hello");
  Encoded E = encode(Data);
  Decoder D(E.Code);
  BitReader In(E.Bytes, E.NumBits);
  std::vector<uint8_t> Out;
  EXPECT_EQ(D.decodeRange(In, E.NumBits, E.NumBits + 10, &Out), E.NumBits);
  EXPECT_TRUE(Out.empty());
}

/// The overlap predictor: with zero overlap it just proposes the boundary
/// itself; with a large overlap it converges to the true sync point.
TEST(Huffman, PredictorConvergesWithOverlap) {
  std::vector<uint8_t> Data =
      generateHuffmanData(HuffmanFlavour::Text, 21, 50000);
  Encoded E = encode(Data);
  Decoder D(E.Code);
  BitReader In(E.Bytes, E.NumBits);

  // True sync points at 32 equally spaced boundaries.
  int NumPoints = 32;
  int Correct = 0;
  for (int I = 1; I < NumPoints; ++I) {
    int64_t Boundary = E.NumBits * I / NumPoints;
    int64_t Truth = D.decodeRange(In, 0, Boundary, nullptr);
    int64_t Pred = D.predictSyncPoint(In, Boundary, /*OverlapBits=*/512);
    EXPECT_GE(Pred, Boundary);
    if (Pred == Truth)
      ++Correct;
  }
  // Text self-synchronizes readily; essentially all predictions hit.
  EXPECT_GE(Correct, NumPoints - 4);
}

TEST(Huffman, PredictorAccuracyGrowsWithOverlap) {
  std::vector<uint8_t> Data =
      generateHuffmanData(HuffmanFlavour::Media, 5, 60000);
  Encoded E = encode(Data);
  Decoder D(E.Code);
  BitReader In(E.Bytes, E.NumBits);

  auto AccuracyAt = [&](int64_t Overlap) {
    int NumPoints = 32, Correct = 0;
    for (int I = 1; I < NumPoints; ++I) {
      int64_t Boundary = E.NumBits * I / NumPoints;
      int64_t Truth = D.decodeRange(In, 0, Boundary, nullptr);
      if (D.predictSyncPoint(In, Boundary, Overlap) == Truth)
        ++Correct;
    }
    return Correct;
  };
  int A16 = AccuracyAt(16 * 8);
  int A512 = AccuracyAt(512 * 8);
  EXPECT_LE(A16, A512);
  EXPECT_GE(A512, 24) << "media must eventually self-synchronize";
}

/// Bit-serial reference: the plain code-tree walk, one bit per step. The
/// table-driven Decoder must match it bit for bit -- output symbols and
/// returned positions, -1 included -- from any start, synchronized or not.
class ReferenceDecoder {
public:
  explicit ReferenceDecoder(const HuffmanCode &Code) {
    for (unsigned S = 0; S < 256; ++S) {
      unsigned Len = Code.codeLength(static_cast<uint8_t>(S));
      int32_t Cur = 0;
      for (unsigned I = Len; I-- > 0;) {
        int Bit = (Code.codeBits(static_cast<uint8_t>(S)) >> I) & 1;
        if (Nodes[Cur].Child[Bit] < 0) {
          Nodes[Cur].Child[Bit] = static_cast<int32_t>(Nodes.size());
          Nodes.push_back(Node{});
        }
        Cur = Nodes[Cur].Child[Bit];
      }
      if (Len > 0)
        Nodes[Cur].Symbol = static_cast<int32_t>(S);
    }
  }

  int64_t decodeRange(const BitReader &In, int64_t Pos, int64_t StopBit,
                      std::vector<uint8_t> *Out) const {
    while (Pos < StopBit && Pos < In.numBits()) {
      int32_t Cur = 0;
      while (Nodes[Cur].Symbol < 0) {
        if (Pos >= In.numBits())
          return -1;
        Cur = Nodes[Cur].Child[In.bitAt(Pos++) ? 1 : 0];
        if (Cur < 0)
          return -1;
      }
      if (Out)
        Out->push_back(static_cast<uint8_t>(Nodes[Cur].Symbol));
    }
    return Pos;
  }

private:
  struct Node {
    int32_t Child[2] = {-1, -1};
    int32_t Symbol = -1;
  };
  std::vector<Node> Nodes{Node{}};
};

/// Decodes from every start in [From, To) up to \p StopBit with both
/// decoders and expects identical positions and symbols. Returns how many
/// of those decodes ended desynchronized (-1).
int expectSameFromEachStart(const Decoder &D, const ReferenceDecoder &Ref,
                            const BitReader &In, int64_t From, int64_t To,
                            int64_t StopBit) {
  int Desync = 0;
  for (int64_t Start = std::max<int64_t>(From, 0);
       Start < std::min(To, In.numBits()); ++Start) {
    std::vector<uint8_t> Got, Want;
    int64_t End = D.decodeRange(In, Start, StopBit, &Got);
    EXPECT_EQ(End, Ref.decodeRange(In, Start, StopBit, &Want))
        << "start " << Start << " stop " << StopBit;
    EXPECT_EQ(Got, Want) << "start " << Start << " stop " << StopBit;
    Desync += End < 0;
  }
  return Desync;
}

/// Sweeps start windows at the head, middle and tail of the stream -- so
/// mid-codeword starts and stream-tail reads are both covered -- against
/// stops at a nearby bit, at NumBits, and past NumBits.
int expectMatchesReference(const HuffmanCode &Code, const BitReader &In) {
  Decoder D(Code);
  ReferenceDecoder Ref(Code);
  const int64_t N = In.numBits();
  int Desync = 0;
  for (int64_t Stop : {N / 2 + 37, N, N + 13}) {
    Desync += expectSameFromEachStart(D, Ref, In, 0, 80, Stop);
    Desync += expectSameFromEachStart(D, Ref, In, N / 2 - 40, N / 2 + 40, Stop);
    Desync += expectSameFromEachStart(D, Ref, In, N - 80, N, Stop);
  }
  return Desync;
}

class DecoderMatchesReference
    : public ::testing::TestWithParam<std::tuple<HuffmanFlavour, size_t>> {};

TEST_P(DecoderMatchesReference, EveryStartAndStop) {
  auto [Flavour, Size] = GetParam();
  std::vector<uint8_t> Data = generateHuffmanData(Flavour, 321, Size);
  Encoded E = encode(Data);
  // An exact-size copy: under ASan a read past the last byte faults.
  const std::vector<uint8_t> Bytes = E.Bytes;
  BitReader In(Bytes, E.NumBits);
  EXPECT_EQ(Decoder(E.Code).decodeAll(In, E.NumSymbols), Data);
  int Desync = expectMatchesReference(E.Code, In);
  if (Size >= 500) {
    EXPECT_GT(Desync, 0) << "the sweep must reach the -1 returns";
  }
}

INSTANTIATE_TEST_SUITE_P(
    FlavoursAndSizes, DecoderMatchesReference,
    ::testing::Combine(::testing::ValuesIn(AllHuffmanFlavours),
                       ::testing::Values<size_t>(1, 7, 63, 500, 60000)));

/// Fibonacci frequencies give the most skewed code for their symbol count:
/// codes far longer than the 12-bit table, so many codewords escape to the
/// tree walk.
TEST(Decoder, LongCodesEscapeToTreeWalk) {
  std::vector<uint8_t> Data;
  uint64_t A = 1, B = 1;
  for (unsigned S = 0; S < 20; ++S) {
    Data.insert(Data.end(), A, static_cast<uint8_t>('a' + S));
    B = A + B;
    A = B - A;
  }
  Rng R(9);
  for (size_t I = Data.size(); I > 1; --I)
    std::swap(Data[I - 1], Data[R.nextBelow(I)]);
  Encoded E = encode(Data);
  ASSERT_GT(E.Code.maxCodeLength(), 12u);
  const std::vector<uint8_t> Bytes = E.Bytes;
  BitReader In(Bytes, E.NumBits);
  EXPECT_EQ(Decoder(E.Code).decodeAll(In, E.NumSymbols), Data);
  expectMatchesReference(E.Code, In);
}

/// A one-symbol alphabet has the 1-bit code "0": a 1 bit starts no
/// codeword, so decoding into it returns -1.
TEST(Decoder, SingleSymbolAlphabetRejectsOneBit) {
  Encoded E = encode(std::vector<uint8_t>(64, 'z'));
  Decoder D(E.Code);
  ReferenceDecoder Ref(E.Code);
  std::vector<uint8_t> Bytes = {0x20}; // bits 0 0 1 0
  BitReader In(Bytes, 4);
  std::vector<uint8_t> Got, Want;
  EXPECT_EQ(D.decodeRange(In, 0, 4, &Got), -1);
  EXPECT_EQ(Ref.decodeRange(In, 0, 4, &Want), -1);
  EXPECT_EQ(Got, Want);
  EXPECT_EQ(Got, std::vector<uint8_t>(2, 'z'));
  EXPECT_EQ(D.decodeRange(In, 3, 4, &Got), 4);
}

TEST(Decoder, PredictSyncPointMatchesReference) {
  std::vector<uint8_t> Data =
      generateHuffmanData(HuffmanFlavour::Media, 55, 40000);
  Encoded E = encode(Data);
  Decoder D(E.Code);
  ReferenceDecoder Ref(E.Code);
  BitReader In(E.Bytes, E.NumBits);
  // The predictor's contract, spelled out over the reference decoder.
  auto RefPredict = [&](int64_t Boundary, int64_t Overlap) {
    int64_t Sync = Ref.decodeRange(In, std::max<int64_t>(Boundary - Overlap, 0),
                                   Boundary, nullptr);
    return Sync < 0 ? E.NumBits : Sync;
  };
  for (int64_t Overlap : {0, 7, 64, 256, 4096})
    for (int I = 1; I < 64; ++I) {
      int64_t Boundary = E.NumBits * I / 64 + I % 5;
      EXPECT_EQ(D.predictSyncPoint(In, Boundary, Overlap),
                RefPredict(Boundary, Overlap))
          << "boundary " << Boundary << " overlap " << Overlap;
    }
}

} // namespace
