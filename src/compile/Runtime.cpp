//===- compile/Runtime.cpp - Native value/heap/frame substrate ------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "compile/Runtime.h"

#include "interp/Prims.h"

#include <algorithm>

using namespace specpar;
using namespace specpar::compile;

const char *RtVal::tagName() const {
  switch (T) {
  case Tag::Int:
    return "int";
  case Tag::Unit:
    return "unit";
  case Tag::Clos:
    return "closure";
  case Tag::Pap:
    return "function";
  case Tag::Cell:
    return "cell";
  case Tag::Arr:
    return "array";
  }
  return "?";
}

void FrameStack::openBlock(size_t AtLeast) {
  // Reuse a pre-existing successor block when it is large enough;
  // otherwise append a fresh one. Blocks never shrink, so steady-state
  // evaluation allocates no memory.
  uint32_t Next = Blocks.empty() ? 0 : Cur + 1;
  while (Next < Blocks.size() && Blocks[Next].Cap < AtLeast)
    ++Next;
  if (Next >= Blocks.size()) {
    Block B;
    B.Cap = std::max(AtLeast, BlockSlots);
    B.Mem = std::make_unique<RtVal[]>(B.Cap);
    Blocks.push_back(std::move(B));
    Next = static_cast<uint32_t>(Blocks.size() - 1);
  }
  Blocks[Next].Used = 0;
  Cur = Next;
}

FrameStack &specpar::compile::threadFrameStack() {
  thread_local FrameStack Stack;
  return Stack;
}

void *RunHeap::alloc(size_t HeaderBytes, uint64_t NumSlots,
                     lang::SourceLoc Loc) {
  std::lock_guard<std::mutex> Lock(M);
  if (!interp::prims::heapFits(Slots, NumSlots))
    throw CompiledRunError(interp::prims::HeapExhausted, Loc);
  Slots += NumSlots;
  // NumSlots <= MaxHeapSlots here, so the byte count cannot wrap.
  size_t Bytes = HeaderBytes + static_cast<size_t>(NumSlots) * sizeof(RtVal);
  Bytes = (Bytes + 15) & ~size_t(15);
  if (Bytes > Left) {
    size_t BlockSize = std::max(Bytes, BlockBytes);
    Blocks.push_back(std::make_unique<unsigned char[]>(BlockSize));
    Cur = Blocks.back().get();
    Left = BlockSize;
  }
  void *P = Cur;
  Cur += Bytes;
  Left -= Bytes;
  return P;
}

RtArray *RunHeap::allocArray(int64_t Len, RtVal Init, lang::SourceLoc Loc) {
  auto *A = static_cast<RtArray *>(
      alloc(sizeof(RtArray), static_cast<uint64_t>(Len), Loc));
  A->Len = Len;
  RtVal *E = A->elems();
  for (int64_t I = 0; I < Len; ++I)
    E[I] = Init;
  return A;
}

const RtClosure *RunHeap::allocClosure(const CodeObject *Code,
                                       const RtVal *Caps, uint32_t NumCaps,
                                       lang::SourceLoc Loc) {
  auto *C = static_cast<RtClosure *>(
      alloc(sizeof(RtClosure) + NumCaps * sizeof(RtVal), 0, Loc));
  C->Code = Code;
  C->NumCaps = NumCaps;
  if (NumCaps)
    std::memcpy(const_cast<RtVal *>(C->caps()), Caps,
                NumCaps * sizeof(RtVal));
  return C;
}

const RtPap *RunHeap::allocPap(const CodeObject *Code, const RtClosure *Clos,
                               const RtVal *Args, uint32_t NArgs,
                               lang::SourceLoc Loc) {
  auto *P = static_cast<RtPap *>(
      alloc(sizeof(RtPap) + NArgs * sizeof(RtVal), 0, Loc));
  P->Code = Code;
  P->Clos = Clos;
  P->NArgs = NArgs;
  if (NArgs)
    std::memcpy(const_cast<RtVal *>(P->args()), Args,
                NArgs * sizeof(RtVal));
  return P;
}
