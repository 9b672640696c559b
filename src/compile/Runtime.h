//===- compile/Runtime.h - Native value/heap/frame substrate ----*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution substrate of compiled Speculate programs (compile/
/// Compiler.h): a 16-byte tagged value, a per-run bump-allocated heap for
/// cells/arrays/closures, and per-thread chunked frame stacks for
/// slot-indexed activation records. Where the interpreters bind variables
/// in persistent `Value` maps and box every cell behind a heap id, the
/// compiled runtime reads `FP[slot]` and dereferences raw (bounds-checked)
/// pointers — the representation change that buys the interp_ablation
/// speedup.
///
/// Concurrency contract (relied on by the `spec`/`specfold` lowerings):
///
///  * `RunHeap` is shared by every thread of a run; allocation takes a
///    mutex. The hot lowerings (inlined folds, fused specfold bodies)
///    allocate nothing per iteration.
///  * A `FrameStack` is strictly thread-local; frames obey LIFO even
///    when a nested run's validator runs nested attempts on this thread.
///  * Frame *slots* are written only by the thread evaluating the
///    binding site that owns them. The resolver allocates slots
///    monotonically (lang/Ast.h `Binding::Slot`), so when a `spec`
///    producer and predictor evaluate concurrently over one shared
///    enclosing frame they touch disjoint addresses.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_COMPILE_RUNTIME_H
#define SPECPAR_COMPILE_RUNTIME_H

#include "lang/Ast.h"

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace specpar {
namespace compile {

struct CodeObject; // compile/Compiler.cpp
struct RtClosure;
struct RtPap;
struct RtArray;

/// A compiled runtime value: 16 bytes, trivially copyable, no ownership
/// (all referents live in the run's heap or the compiled program's
/// static tables).
struct RtVal {
  enum class Tag : uint8_t { Int, Unit, Clos, Pap, Cell, Arr };

  union {
    int64_t I;
    const RtClosure *C;
    const RtPap *P;
    RtVal *Cell;
    RtArray *A;
  };
  Tag T;

  RtVal() : I(0), T(Tag::Unit) {}

  static RtVal fromInt(int64_t V) {
    RtVal R;
    R.T = Tag::Int;
    R.I = V;
    return R;
  }
  static RtVal unit() { return RtVal(); }
  static RtVal fromClosure(const RtClosure *C) {
    RtVal R;
    R.T = Tag::Clos;
    R.C = C;
    return R;
  }
  static RtVal fromPap(const RtPap *P) {
    RtVal R;
    R.T = Tag::Pap;
    R.P = P;
    return R;
  }
  static RtVal fromCell(RtVal *Cell) {
    RtVal R;
    R.T = Tag::Cell;
    R.Cell = Cell;
    return R;
  }
  static RtVal fromArray(RtArray *A) {
    RtVal R;
    R.T = Tag::Arr;
    R.A = A;
    return R;
  }

  bool isInt() const { return T == Tag::Int; }
  bool isUnit() const { return T == Tag::Unit; }
  bool isCallable() const { return T == Tag::Clos || T == Tag::Pap; }

  /// Value-kind name for diagnostics ("int", "unit", ...).
  const char *tagName() const;
};

/// A contiguous array: header + Len values in one heap block.
struct RtArray {
  int64_t Len = 0;
  RtVal *elems() { return reinterpret_cast<RtVal *>(this + 1); }
  const RtVal *elems() const {
    return reinterpret_cast<const RtVal *>(this + 1);
  }
};

/// A closure: code + captured values in one heap block. Immutable after
/// creation, so closures may be shared freely across threads.
struct RtClosure {
  const CodeObject *Code = nullptr;
  uint32_t NumCaps = 0;
  const RtVal *caps() const {
    return reinterpret_cast<const RtVal *>(this + 1);
  }
};

/// A partial application of a code object (a top-level function value,
/// or an under-applied fused lambda). Immutable after creation.
struct RtPap {
  const CodeObject *Code = nullptr;
  /// Capture backing when the code object has captures (fused lambdas);
  /// null for top-level functions.
  const RtClosure *Clos = nullptr;
  uint32_t NArgs = 0;
  const RtVal *args() const {
    return reinterpret_cast<const RtVal *>(this + 1);
  }
};

/// The paper's prediction equality: integers and unit compare by value,
/// every other kind never compares equal (mirrors
/// interp::predictionEquals).
inline bool rtPredictionEquals(const RtVal &A, const RtVal &B) {
  if (A.T != B.T)
    return false;
  if (A.T == RtVal::Tag::Int)
    return A.I == B.I;
  return A.T == RtVal::Tag::Unit;
}

/// A Speculate-level runtime error (type error, division by zero, index
/// out of bounds, ...) raised by compiled code. Carries the offending
/// node's source location so outcomes match the interpreter's RtError.
class CompiledRunError : public std::runtime_error {
public:
  CompiledRunError(std::string Message, lang::SourceLoc Loc)
      : std::runtime_error(Message), Msg(std::move(Message)), Loc(Loc) {}
  const std::string Msg;
  const lang::SourceLoc Loc;
};

/// The run exhausted its step (fuel) budget or overflowed the frame
/// stack — the compiled analogue of the interpreters' StepLimit outcome.
class StepLimitError : public std::runtime_error {
public:
  StepLimitError() : std::runtime_error("step limit exceeded") {}
};

/// A per-thread LIFO arena of activation frames. Frames are contiguous
/// runs of RtVal slots; blocks are recycled across runs. A frame that
/// does not fit the current block opens a new one, so growing never
/// moves live frames (outer frame pointers stay valid through nested
/// evaluation).
class FrameStack {
public:
  struct Mark {
    uint32_t Block = 0;
    size_t Used = 0;
    size_t Total = 0;
  };

  Mark mark() const { return {Cur, Blocks.empty() ? 0 : Blocks[Cur].Used,
                              Total}; }

  /// Allocates a contiguous frame of \p N slots. Throws StepLimitError
  /// past the depth cap (runaway recursion through self-application).
  RtVal *alloc(size_t N) {
    if (Total + N > MaxTotalSlots)
      throw StepLimitError();
    if (Blocks.empty() || Blocks[Cur].Used + N > Blocks[Cur].Cap)
      openBlock(N);
    Block &B = Blocks[Cur];
    RtVal *FP = B.Mem.get() + B.Used;
    B.Used += N;
    Total += N;
    return FP;
  }

  void release(Mark M) {
    for (uint32_t I = Cur; I > M.Block; --I)
      Blocks[I].Used = 0;
    Cur = M.Block;
    if (!Blocks.empty())
      Blocks[Cur].Used = M.Used;
    Total = M.Total;
  }

private:
  struct Block {
    std::unique_ptr<RtVal[]> Mem;
    size_t Cap = 0;
    size_t Used = 0;
  };

  void openBlock(size_t AtLeast);

  static constexpr size_t BlockSlots = 16384;
  /// 4M live slots (64 MiB) — far past any sane program; only unbounded
  /// recursion (e.g. self-application) gets here.
  static constexpr size_t MaxTotalSlots = size_t(1) << 22;

  std::vector<Block> Blocks;
  uint32_t Cur = 0;
  size_t Total = 0;
};

/// The calling thread's frame stack (shared by every run that evaluates
/// on this thread; LIFO discipline keeps interleavings safe).
FrameStack &threadFrameStack();

/// The per-run heap: cells, arrays, closures and partial applications,
/// bump-allocated from mutex-guarded blocks and freed wholesale when the
/// run ends. Values are trivially destructible, so no destructors run.
/// Cells and array elements count against the heap limit every engine
/// shares (interp/Prims.h); past it an allocation raises the shared
/// "heap exhausted" error rather than OOMing the host.
class RunHeap {
public:
  RunHeap() = default;
  RunHeap(const RunHeap &) = delete;
  RunHeap &operator=(const RunHeap &) = delete;

  RtVal *allocCell(RtVal Init, lang::SourceLoc Loc) {
    auto *Cell = static_cast<RtVal *>(alloc(0, 1, Loc));
    *Cell = Init;
    return Cell;
  }

  RtArray *allocArray(int64_t Len, RtVal Init, lang::SourceLoc Loc);
  const RtClosure *allocClosure(const CodeObject *Code, const RtVal *Caps,
                                uint32_t NumCaps, lang::SourceLoc Loc);
  const RtPap *allocPap(const CodeObject *Code, const RtClosure *Clos,
                        const RtVal *Args, uint32_t NArgs,
                        lang::SourceLoc Loc);

private:
  /// \p HeaderBytes followed by \p NumSlots values; the slots count against
  /// the heap limit, checked before anything is allocated.
  void *alloc(size_t HeaderBytes, uint64_t NumSlots, lang::SourceLoc Loc);

  static constexpr size_t BlockBytes = size_t(256) << 10;

  std::mutex M;
  std::vector<std::unique_ptr<unsigned char[]>> Blocks;
  unsigned char *Cur = nullptr;
  size_t Left = 0;
  uint64_t Slots = 0;
};

} // namespace compile
} // namespace specpar

#endif // SPECPAR_COMPILE_RUNTIME_H
