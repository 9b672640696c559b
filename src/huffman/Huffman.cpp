//===- huffman/Huffman.cpp - Canonical Huffman codec ----------------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "huffman/Huffman.h"

#include <algorithm>
#include <cassert>
#include <queue>

using namespace specpar;
using namespace specpar::huffman;

HuffmanCode HuffmanCode::fromData(const std::vector<uint8_t> &Data) {
  std::array<uint64_t, 256> Freq{};
  for (uint8_t B : Data)
    ++Freq[B];
  return fromFrequencies(Freq);
}

HuffmanCode
HuffmanCode::fromFrequencies(const std::array<uint64_t, 256> &Freq) {
  HuffmanCode Code;

  // Build the Huffman tree with a min-heap; ties broken by creation order
  // so the construction is deterministic.
  struct HeapNode {
    uint64_t Freq;
    uint32_t Order;
    int32_t Index;
  };
  struct HeapCmp {
    bool operator()(const HeapNode &A, const HeapNode &B) const {
      if (A.Freq != B.Freq)
        return A.Freq > B.Freq;
      return A.Order > B.Order;
    }
  };
  struct TreeNode {
    int32_t Child[2] = {-1, -1};
    int32_t Symbol = -1;
  };

  std::vector<TreeNode> Tree;
  std::priority_queue<HeapNode, std::vector<HeapNode>, HeapCmp> Heap;
  uint32_t Order = 0;
  for (unsigned S = 0; S < 256; ++S) {
    if (Freq[S] == 0)
      continue;
    TreeNode Leaf;
    Leaf.Symbol = static_cast<int32_t>(S);
    Tree.push_back(Leaf);
    Heap.push(HeapNode{Freq[S], Order++,
                       static_cast<int32_t>(Tree.size()) - 1});
    ++Code.NumSymbols;
  }
  if (Code.NumSymbols == 0)
    return Code;
  if (Code.NumSymbols == 1) {
    // A degenerate alphabet still needs one bit per symbol so that the bit
    // stream has positive length.
    for (unsigned S = 0; S < 256; ++S)
      if (Freq[S] != 0) {
        Code.Lengths[S] = 1;
        Code.Bits[S] = 0;
      }
    Code.MaxLength = 1;
    return Code;
  }

  while (Heap.size() > 1) {
    HeapNode A = Heap.top();
    Heap.pop();
    HeapNode B = Heap.top();
    Heap.pop();
    TreeNode Parent;
    Parent.Child[0] = A.Index;
    Parent.Child[1] = B.Index;
    Tree.push_back(Parent);
    Heap.push(HeapNode{A.Freq + B.Freq, Order++,
                       static_cast<int32_t>(Tree.size()) - 1});
  }

  // Depth-first walk assigns code lengths.
  struct WorkItem {
    int32_t Node;
    uint8_t Depth;
  };
  std::vector<WorkItem> Work{{Heap.top().Index, 0}};
  while (!Work.empty()) {
    WorkItem W = Work.back();
    Work.pop_back();
    const TreeNode &N = Tree[W.Node];
    if (N.Symbol >= 0) {
      Code.Lengths[N.Symbol] = W.Depth;
      Code.MaxLength = std::max<unsigned>(Code.MaxLength, W.Depth);
      continue;
    }
    Work.push_back({N.Child[0], static_cast<uint8_t>(W.Depth + 1)});
    Work.push_back({N.Child[1], static_cast<uint8_t>(W.Depth + 1)});
  }

  // Canonical assignment: symbols sorted by (length, symbol value).
  std::vector<unsigned> Symbols;
  for (unsigned S = 0; S < 256; ++S)
    if (Code.Lengths[S] != 0)
      Symbols.push_back(S);
  std::sort(Symbols.begin(), Symbols.end(), [&](unsigned A, unsigned B) {
    if (Code.Lengths[A] != Code.Lengths[B])
      return Code.Lengths[A] < Code.Lengths[B];
    return A < B;
  });
  uint64_t NextCode = 0;
  unsigned PrevLen = 0;
  for (unsigned S : Symbols) {
    unsigned Len = Code.Lengths[S];
    NextCode <<= (Len - PrevLen);
    Code.Bits[S] = NextCode++;
    PrevLen = Len;
  }
  return Code;
}

Encoded specpar::huffman::encode(const std::vector<uint8_t> &Data) {
  Encoded E;
  E.Code = HuffmanCode::fromData(Data);
  BitWriter W;
  for (uint8_t B : Data)
    W.writeBits(E.Code.codeBits(B), E.Code.codeLength(B));
  E.NumBits = W.numBits();
  E.Bytes = W.takeBytes();
  E.NumSymbols = static_cast<int64_t>(Data.size());
  return E;
}

Decoder::Decoder(const HuffmanCode &Code) {
  if (Code.NumSymbols == 0)
    return;
  Root = 0;
  Nodes.push_back(Node{{-1, -1}, -1});
  Width = std::min(12u, Code.MaxLength);
  Table.assign(size_t(1) << Width, Entry{});
  for (unsigned S = 0; S < 256; ++S) {
    unsigned Len = Code.Lengths[S];
    if (Len == 0)
      continue;
    int32_t Cur = Root;
    for (unsigned I = Len; I-- > 0;) {
      int Bit = (Code.Bits[S] >> I) & 1;
      if (Nodes[Cur].Child[Bit] < 0) {
        Nodes[Cur].Child[Bit] = static_cast<int32_t>(Nodes.size());
        Nodes.push_back(Node{{-1, -1}, -1});
      }
      Cur = Nodes[Cur].Child[Bit];
    }
    Nodes[Cur].Symbol = static_cast<int32_t>(S);
    if (Len > Width)
      continue;
    // Every W-bit index that starts with this codeword maps to it.
    size_t First = size_t(Code.Bits[S]) << (Width - Len);
    std::fill_n(Table.begin() + First, size_t(1) << (Width - Len),
                Entry{static_cast<uint8_t>(S), static_cast<uint8_t>(Len)});
  }
}

int64_t Decoder::walkOne(const BitReader &In, int64_t Pos,
                         std::vector<uint8_t> *Out) const {
  int32_t Cur = Root;
  while (Nodes[Cur].Symbol < 0) {
    if (Pos >= In.numBits())
      return -1; // Stream ended inside a codeword: desynchronized.
    Cur = Nodes[Cur].Child[In.bitAt(Pos++) ? 1 : 0];
    if (Cur < 0)
      return -1; // No such codeword (possible on desynchronized decodes
                 // of degenerate trees).
  }
  if (Out)
    Out->push_back(static_cast<uint8_t>(Nodes[Cur].Symbol));
  return Pos;
}

int64_t Decoder::decodeRange(const BitReader &In, int64_t StartBit,
                             int64_t StopBit, std::vector<uint8_t> *Out) const {
  assert(Root >= 0 && "decoding with an empty code");
  const int64_t NumBits = In.numBits();
  const int64_t End = std::min(StopBit, NumBits);
  const unsigned Shift = 64 - Width;
  int64_t Pos = StartBit;
  while (Pos < End) {
    if (Pos + Width <= NumBits) {
      // Table-decode codewords from one 57-bit window while they start
      // before End with at least W of the window's in-stream bits unread.
      uint64_t Window = In.peek57(Pos);
      const int64_t Last =
          std::min(End - 1, std::min(Pos + 57, NumBits) - Width);
      Entry E;
      do {
        E = Table[Window >> Shift];
        if (E.Length == 0)
          break;
        if (Out)
          Out->push_back(E.Symbol);
        Window <<= E.Length;
        Pos += E.Length;
      } while (Pos <= Last);
      if (E.Length != 0)
        continue; // Window used up (or End reached): reload.
    }
    // A code longer than W, a prefix no codeword starts with, or the
    // stream's last W - 1 bits: walk the tree for one codeword.
    Pos = walkOne(In, Pos, Out);
    if (Pos < 0)
      return -1;
  }
  return Pos;
}

std::vector<uint8_t> Decoder::decodeAll(const BitReader &In,
                                        int64_t NumSymbols) const {
  std::vector<uint8_t> Out;
  if (In.numBits() == 0)
    return Out;
  Out.reserve(static_cast<size_t>(NumSymbols));
  int64_t End = decodeRange(In, 0, In.numBits(), &Out);
  assert(End == In.numBits() && "sequential decode must consume everything");
  (void)End;
  assert(static_cast<int64_t>(Out.size()) == NumSymbols &&
         "sequential decode must produce every symbol");
  return Out;
}

int64_t Decoder::predictSyncPoint(const BitReader &In, int64_t Boundary,
                                  int64_t OverlapBits) const {
  if (Boundary <= 0)
    return 0;
  if (Boundary >= In.numBits())
    return In.numBits();
  int64_t From = Boundary - OverlapBits;
  if (From < 0)
    From = 0;
  int64_t Sync = decodeRange(In, From, Boundary, nullptr);
  if (Sync < 0)
    return In.numBits();
  return Sync;
}
