//===- huffman/Huffman.h - Canonical Huffman codec --------------*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A byte-oriented canonical Huffman codec with the segmented decoding API
/// used by the paper's speculative Huffman benchmark. The loop-carried
/// value between segments is the absolute *bit position* at which the next
/// segment's first codeword starts; the prediction function finds a likely
/// synchronization point by decoding a small overlap window before the
/// segment boundary (the self-synchronization insight of Klein & Wiseman
/// cited by the paper). Every decode -- sequential, segmented, and the
/// predictor's overlap window -- runs through one table-driven,
/// word-at-a-time Decoder.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_HUFFMAN_HUFFMAN_H
#define SPECPAR_HUFFMAN_HUFFMAN_H

#include "huffman/BitStream.h"
#include "support/Result.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace specpar {
namespace huffman {

/// A canonical Huffman code over the byte alphabet.
class HuffmanCode {
public:
  /// Builds the code for \p Data's byte frequencies. Requires a non-empty
  /// input; a single-distinct-symbol input gets a 1-bit code.
  static HuffmanCode fromData(const std::vector<uint8_t> &Data);

  /// Builds the code from explicit symbol frequencies (size 256).
  static HuffmanCode fromFrequencies(const std::array<uint64_t, 256> &Freq);

  /// Code length in bits for \p Symbol (0 if the symbol never occurs).
  unsigned codeLength(uint8_t Symbol) const { return Lengths[Symbol]; }

  /// Canonical code bits for \p Symbol (valid only if codeLength > 0).
  uint64_t codeBits(uint8_t Symbol) const { return Bits[Symbol]; }

  /// Longest code length in bits.
  unsigned maxCodeLength() const { return MaxLength; }

  /// Number of distinct symbols with nonzero frequency.
  unsigned numSymbols() const { return NumSymbols; }

private:
  friend class Decoder;
  std::array<uint8_t, 256> Lengths{};
  std::array<uint64_t, 256> Bits{};
  unsigned MaxLength = 0;
  unsigned NumSymbols = 0;
};

/// Encoded output: the bit stream plus the code needed to decode it.
struct Encoded {
  HuffmanCode Code;
  std::vector<uint8_t> Bytes;
  int64_t NumBits = 0;
  int64_t NumSymbols = 0;
};

/// Encodes \p Data with its own canonical Huffman code.
Encoded encode(const std::vector<uint8_t> &Data);

/// A table-driven decoder over a canonical Huffman code. The constructor
/// builds a 2^W-entry lookup table, W = min(maxCodeLength, 12), mapping
/// every W-bit prefix to its codeword's symbol and length. decodeRange
/// loads 57 bits at a time (BitReader::peek57) and decodes consecutive
/// codewords from that window with one lookup each until fewer than W of
/// its bits remain. A bit-at-a-time walk of the code tree decodes the rest:
/// codes longer than W, the stream's last W - 1 bits, and prefixes no
/// codeword starts with (an incomplete code, e.g. a one-symbol alphabet).
class Decoder {
public:
  explicit Decoder(const HuffmanCode &Code);

  /// Decodes codewords starting at bit \p StartBit. Decoding continues as
  /// long as the *start* of the current codeword is < \p StopBit; decoded
  /// symbols are appended to \p Out (if non-null). Returns the bit
  /// position one past the last decoded codeword (>= StopBit, or NumBits
  /// if the stream ends first, or -1 if the stream ends inside a codeword
  /// — a desynchronized speculative decode).
  int64_t decodeRange(const BitReader &In, int64_t StartBit, int64_t StopBit,
                      std::vector<uint8_t> *Out) const;

  /// Decodes the whole stream (\p NumSymbols symbols) sequentially.
  std::vector<uint8_t> decodeAll(const BitReader &In,
                                 int64_t NumSymbols) const;

  /// The paper's overlap predictor: predicts the synchronization point at
  /// or after \p Boundary by decoding from (Boundary - OverlapBits),
  /// relying on Huffman self-synchronization. Returns a bit position
  /// >= Boundary (clamped to the stream length).
  int64_t predictSyncPoint(const BitReader &In, int64_t Boundary,
                           int64_t OverlapBits) const;

private:
  /// Decodes the one codeword starting at \p Pos by walking the tree;
  /// returns the position past it, or -1 if the stream ends inside it or
  /// no codeword matches.
  int64_t walkOne(const BitReader &In, int64_t Pos,
                  std::vector<uint8_t> *Out) const;

  struct Node {
    int32_t Child[2]; // node index, or -1
    int32_t Symbol;   // leaf symbol, or -1
  };
  struct Entry {
    uint8_t Symbol = 0;
    uint8_t Length = 0; // 0: escape to walkOne
  };
  std::vector<Node> Nodes;
  int32_t Root = -1;
  std::vector<Entry> Table; // 2^Width entries, indexed by the next W bits
  unsigned Width = 0;
};

} // namespace huffman
} // namespace specpar

#endif // SPECPAR_HUFFMAN_HUFFMAN_H
