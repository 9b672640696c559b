//===- interp/Heap.h - Mutable heap with trace recording --------*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mutable store shared by the interpreters: cells (paper ALLOC / SET
/// / GET) and arrays (the conservative extension). Every interesting
/// operation is recorded into an optional Trace with the acting thread id.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_INTERP_HEAP_H
#define SPECPAR_INTERP_HEAP_H

#include "interp/Value.h"
#include "trace/Trace.h"

#include <optional>
#include <unordered_map>
#include <vector>

namespace specpar {
namespace interp {

/// The store. Cell and array bases share one id space so that trace
/// locations are unambiguous.
class Heap {
public:
  explicit Heap(tr::Trace *TraceOut = nullptr) : TraceOut(TraceOut) {}

  /// Sets the thread id stamped on subsequent events.
  void setActingThread(uint64_t Tid) { ActingThread = Tid; }

  /// Allocates a cell holding \p V; returns its reference.
  CellRef allocCell(const Value &V);

  /// Writes a cell. Fails (returns false) on a non-cell base.
  bool setCell(CellRef Ref, const Value &V);

  /// Reads a cell; nullopt on a dangling reference.
  std::optional<Value> getCell(CellRef Ref);

  /// Allocates an array of \p Size copies of \p Init. Size must be >= 0;
  /// the caller checks it against the heap limit (interp/Prims.h).
  ArrRef allocArray(int64_t Size, const Value &Init);

  /// Value slots allocated so far: one per cell, one per array element.
  uint64_t slots() const { return Slots; }

  /// Array length; nullopt on a dangling reference.
  std::optional<int64_t> arrayLen(ArrRef Ref) const;

  /// Reads a slot; nullopt when out of bounds.
  std::optional<Value> getSlot(ArrRef Ref, int64_t Index);

  /// Writes a slot; false when out of bounds.
  bool setSlot(ArrRef Ref, int64_t Index, const Value &V);

  /// Snapshots the final state (cells, arrays) with \p Result.
  tr::FinalState snapshot(const Value &Result) const;

private:
  std::unordered_map<uint64_t, Value> Cells;
  std::unordered_map<uint64_t, std::vector<Value>> Arrays;
  uint64_t NextBase = 1;
  uint64_t Slots = 0;
  uint64_t ActingThread = 0;
  tr::Trace *TraceOut;
};

} // namespace interp
} // namespace specpar

#endif // SPECPAR_INTERP_HEAP_H
