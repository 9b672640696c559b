//===- interp/Heap.cpp - Mutable heap with trace recording -----------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/Heap.h"

using namespace specpar;
using namespace specpar::interp;

CellRef Heap::allocCell(const Value &V) {
  uint64_t Base = NextBase++;
  ++Slots;
  Cells.emplace(Base, V);
  if (TraceOut)
    TraceOut->alloc(ActingThread, tr::MemLoc{Base, 0}, V.toLabel());
  return CellRef{Base};
}

bool Heap::setCell(CellRef Ref, const Value &V) {
  auto It = Cells.find(Ref.Base);
  if (It == Cells.end())
    return false;
  It->second = V;
  if (TraceOut)
    TraceOut->set(ActingThread, tr::MemLoc{Ref.Base, 0}, V.toLabel());
  return true;
}

std::optional<Value> Heap::getCell(CellRef Ref) {
  auto It = Cells.find(Ref.Base);
  if (It == Cells.end())
    return std::nullopt;
  if (TraceOut)
    TraceOut->get(ActingThread, tr::MemLoc{Ref.Base, 0},
                  It->second.toLabel());
  return It->second;
}

ArrRef Heap::allocArray(int64_t Size, const Value &Init) {
  uint64_t Base = NextBase++;
  Slots += static_cast<uint64_t>(Size);
  Arrays.emplace(Base, std::vector<Value>(static_cast<size_t>(Size), Init));
  if (TraceOut)
    TraceOut->allocArr(ActingThread, Base, Size, Init.toLabel());
  return ArrRef{Base};
}

std::optional<int64_t> Heap::arrayLen(ArrRef Ref) const {
  auto It = Arrays.find(Ref.Base);
  if (It == Arrays.end())
    return std::nullopt;
  return static_cast<int64_t>(It->second.size());
}

std::optional<Value> Heap::getSlot(ArrRef Ref, int64_t Index) {
  auto It = Arrays.find(Ref.Base);
  if (It == Arrays.end() || Index < 0 ||
      Index >= static_cast<int64_t>(It->second.size()))
    return std::nullopt;
  const Value &V = It->second[static_cast<size_t>(Index)];
  if (TraceOut)
    TraceOut->get(ActingThread, tr::MemLoc{Ref.Base, Index}, V.toLabel());
  return V;
}

bool Heap::setSlot(ArrRef Ref, int64_t Index, const Value &V) {
  auto It = Arrays.find(Ref.Base);
  if (It == Arrays.end() || Index < 0 ||
      Index >= static_cast<int64_t>(It->second.size()))
    return false;
  It->second[static_cast<size_t>(Index)] = V;
  if (TraceOut)
    TraceOut->set(ActingThread, tr::MemLoc{Ref.Base, Index}, V.toLabel());
  return true;
}

tr::FinalState Heap::snapshot(const Value &Result) const {
  tr::FinalState F;
  F.Result = Result.toLabel();
  for (const auto &[Base, V] : Cells)
    F.Cells.emplace(Base, V.toLabel());
  for (const auto &[Base, Slots] : Arrays) {
    std::vector<tr::LabelValue> Labels;
    Labels.reserve(Slots.size());
    for (const Value &V : Slots)
      Labels.push_back(V.toLabel());
    F.Arrays.emplace(Base, std::move(Labels));
  }
  return F;
}
