//===- huffman/BitStream.h - MSB-first bit streams --------------*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MSB-first bit stream containers. The reader supports random access by
/// bit index, which is what lets the speculative Huffman decoder start a
/// segment at an arbitrary predicted bit position, and a word peek that
/// hands the table-driven decoder 57 bits per load.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_HUFFMAN_BITSTREAM_H
#define SPECPAR_HUFFMAN_BITSTREAM_H

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

namespace specpar {
namespace huffman {

/// Append-only MSB-first bit writer.
class BitWriter {
public:
  /// Appends the low \p Count bits of \p Bits, most significant first.
  void writeBits(uint64_t Bits, unsigned Count) {
    assert(Count <= 64 && "too many bits");
    for (unsigned I = Count; I-- > 0;)
      writeBit((Bits >> I) & 1);
  }

  /// Appends a single bit.
  void writeBit(bool Bit) {
    unsigned Offset = NumBits % 8;
    if (Offset == 0)
      Bytes.push_back(0);
    if (Bit)
      Bytes.back() |= static_cast<uint8_t>(1u << (7 - Offset));
    ++NumBits;
  }

  int64_t numBits() const { return NumBits; }
  const std::vector<uint8_t> &bytes() const { return Bytes; }
  std::vector<uint8_t> takeBytes() { return std::move(Bytes); }

private:
  std::vector<uint8_t> Bytes;
  int64_t NumBits = 0;
};

/// Random-access MSB-first bit reader over an external byte buffer.
class BitReader {
public:
  BitReader(const uint8_t *Data, int64_t NumBits)
      : Data(Data), NumBits(NumBits) {}
  BitReader(const std::vector<uint8_t> &Bytes, int64_t NumBits)
      : BitReader(Bytes.data(), NumBits) {}

  int64_t numBits() const { return NumBits; }

  /// The bit at absolute index \p Pos.
  bool bitAt(int64_t Pos) const {
    assert(Pos >= 0 && Pos < NumBits && "bit index out of range");
    return (Data[Pos >> 3] >> (7 - (Pos & 7))) & 1;
  }

  /// Bits [Pos, Pos + 57) left-aligned in the result's top 57 bits, the
  /// bit at \p Pos most significant; the low 7 bits are unspecified. One
  /// unaligned 8-byte load away from the end of the buffer; within 8 bytes
  /// of it, a byte-by-byte read that zero-pads past the last byte and
  /// never touches memory beyond it. Bits past numBits() that share the
  /// last byte come through as stored.
  uint64_t peek57(int64_t Pos) const {
    assert(Pos >= 0 && Pos < NumBits && "bit index out of range");
    const int64_t Byte = Pos >> 3;
    const int64_t NumBytes = (NumBits + 7) >> 3;
    uint64_t Word = 0;
    if (Byte + 8 <= NumBytes) {
      std::memcpy(&Word, Data + Byte, 8);
      if constexpr (std::endian::native == std::endian::little)
        Word = __builtin_bswap64(Word);
    } else {
      for (int64_t I = Byte; I < NumBytes; ++I)
        Word |= uint64_t(Data[I]) << (56 - 8 * (I - Byte));
    }
    return Word << (Pos & 7);
  }

private:
  const uint8_t *Data;
  int64_t NumBits;
};

} // namespace huffman
} // namespace specpar

#endif // SPECPAR_HUFFMAN_BITSTREAM_H
