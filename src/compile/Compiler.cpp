//===- compile/Compiler.cpp - Speculate -> native-runtime lowering --------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "compile/Compiler.h"

#include "compile/Runtime.h"
#include "interp/Prims.h"
#include "runtime/SpecExecutor.h"
#include "support/Casting.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace specpar {
namespace compile {

namespace prims = interp::prims;

struct RunState;

/// The per-thread evaluation context threaded through every compiled
/// node. FP/Caps describe the current activation; FS is the evaluating
/// thread's frame stack; LocalFuel is this context's unspent share of the
/// run's step budget (drawn in batches from RunState::Fuel). A context
/// returns its unspent fuel to the pool when it dies, and a move hands
/// the fuel over, so a context that dies after a few steps — a
/// specfold chunk's, a discarded attempt's — costs only those steps.
struct EvalCtx {
  RtVal *FP = nullptr;
  const RtVal *Caps = nullptr;
  RunState *RS = nullptr;
  FrameStack *FS = nullptr;
  int64_t LocalFuel = 0;

  EvalCtx() = default;
  EvalCtx(EvalCtx &&O) noexcept
      : FP(O.FP), Caps(O.Caps), RS(O.RS), FS(O.FS),
        LocalFuel(std::exchange(O.LocalFuel, 0)) {}
  EvalCtx &operator=(EvalCtx &&O) noexcept {
    if (this != &O) {
      returnFuel();
      FP = O.FP;
      Caps = O.Caps;
      RS = O.RS;
      FS = O.FS;
      LocalFuel = std::exchange(O.LocalFuel, 0);
    }
    return *this;
  }
  ~EvalCtx() { returnFuel(); }

  /// Gives the unspent fuel back to RunState::Fuel.
  void returnFuel();
};

/// A compiled expression node. The tree is immutable after compilation;
/// eval() is re-entrant and thread-safe (all mutable state lives in the
/// EvalCtx / RunState).
class CNode {
public:
  explicit CNode(lang::SourceLoc Loc) : Loc(Loc) {}
  virtual ~CNode() = default;
  virtual RtVal eval(EvalCtx &C) const = 0;

  const lang::SourceLoc Loc;
};

/// A compiled function body: a lambda, a fused specfold body, a
/// top-level function, or main itself.
struct CodeObject {
  /// Where one capture's value comes from *at closure-creation time*, in
  /// the creating frame: a slot of that frame, or one of the creating
  /// code object's own captures (nested capture chain).
  struct CapSrc {
    bool FromCaps = false;
    uint32_t Idx = 0;
  };

  const CNode *Body = nullptr;
  /// Activation-frame slots (parameters first, then lets/inlined-fold
  /// binders, per the resolver's monotone numbering).
  uint32_t NumSlots = 0;
  uint32_t Arity = 0;
  std::string Name;
  std::vector<CapSrc> Caps;
};

struct CompiledProgram::Impl {
  std::vector<std::unique_ptr<CNode>> Nodes;
  std::vector<std::unique_ptr<CodeObject>> Codes;
  const CodeObject *MainCode = nullptr;
  /// One static function value per top-level FunDef (NArgs == 0, so the
  /// missing trailing argument storage is never read).
  std::vector<std::unique_ptr<RtPap>> FunPaps;
  /// Capture-free closures, allocated once at compile time instead of
  /// per evaluation (NumCaps == 0).
  std::vector<std::unique_ptr<RtClosure>> StaticClosures;
  uint64_t SpecSites = 0;
};

/// Shared state of one CompiledProgram::run(): the heap, the fuel pool,
/// the per-site SpecConfig recipe, and the aggregated statistics.
struct RunState {
  RunHeap Heap;
  std::atomic<int64_t> Fuel{0};
  int64_t FuelBudget = 0;
  rt::SpecConfig BaseCfg;
  bool HasDeadline = false;
  std::chrono::steady_clock::time_point AbsDeadline{};
  std::chrono::nanoseconds DeadlineBudget{0};
  int64_t ChunkSize = 8;
  std::mutex StatsM;
  rt::SpeculationStats Stats;
  uint64_t SpecRuns = 0;

  /// The SpecConfig for one execution of static site \p SiteIdx: the
  /// base config, the profile site suffixed "#<site>" so distinct static
  /// sites keep distinct profiles, and the *remaining* portion of the
  /// whole-run deadline. Throws SpecTimeoutError when the deadline has
  /// already passed, matching an in-site expiry.
  rt::SpecConfig siteConfig(uint64_t SiteIdx) {
    rt::SpecConfig Cfg = BaseCfg;
    if (Cfg.profile() && !Cfg.profileSite().empty())
      Cfg.profileSite(Cfg.profileSite() + "#" + std::to_string(SiteIdx));
    if (HasDeadline) {
      auto Remaining = AbsDeadline - std::chrono::steady_clock::now();
      if (Remaining <= std::chrono::nanoseconds::zero())
        throw rt::SpecTimeoutError(DeadlineBudget);
      Cfg.deadline(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Remaining));
    }
    return Cfg;
  }

  void noteStats(const rt::SpeculationStats &S) {
    std::lock_guard<std::mutex> Lock(StatsM);
    Stats += S;
    ++SpecRuns;
  }
};

void EvalCtx::returnFuel() {
  if (RS && LocalFuel > 0)
    RS->Fuel.fetch_add(std::exchange(LocalFuel, 0), std::memory_order_relaxed);
}

namespace {

/// Fuel is drawn from the shared pool in batches, so the hot path is one
/// thread-local decrement; each context returns its unspent share, so
/// Steps are exact.
constexpr int64_t FuelBatch = 4096;

/// Cold path of fuelStep(): draw a batch (or the remainder) from the
/// shared pool; throw StepLimitError when the pool is dry.
void refillFuel(EvalCtx &C) {
  std::atomic<int64_t> &Pool = C.RS->Fuel;
  int64_t Prev = Pool.fetch_sub(FuelBatch, std::memory_order_relaxed);
  if (Prev <= 0) {
    Pool.fetch_add(FuelBatch, std::memory_order_relaxed);
    throw StepLimitError();
  }
  int64_t Got = Prev < FuelBatch ? Prev : FuelBatch;
  if (Got < FuelBatch)
    Pool.fetch_add(FuelBatch - Got, std::memory_order_relaxed);
  C.LocalFuel = Got - 1; // the step that triggered the refill
}

/// One step of the run's fuel budget (the compiled analogue of the
/// interpreters' ++Steps check; every node eval pays one).
inline void fuelStep(EvalCtx &C) {
  if (--C.LocalFuel < 0)
    refillFuel(C);
}

/// RAII activation frame: allocates NumSlots on the context's frame
/// stack and restores FP/Caps (and the stack) on scope exit, including
/// exception unwinding.
class FrameScope {
public:
  FrameScope(EvalCtx &C, uint32_t NumSlots)
      : C(C), SavedFP(C.FP), SavedCaps(C.Caps), M(C.FS->mark()) {
    C.FP = C.FS->alloc(NumSlots);
  }
  ~FrameScope() {
    C.FS->release(M);
    C.FP = SavedFP;
    C.Caps = SavedCaps;
  }
  FrameScope(const FrameScope &) = delete;
  FrameScope &operator=(const FrameScope &) = delete;

private:
  EvalCtx &C;
  RtVal *SavedFP;
  const RtVal *SavedCaps;
  FrameStack::Mark M;
};

/// Invokes \p Code with its arguments split across two spans (a pap's
/// stored prefix plus the fresh suffix). Slots beyond the parameters are
/// left uninitialized: the resolver guarantees definition-before-use.
RtVal callCode(const CodeObject &Code, const RtVal *A0, uint32_t N0,
               const RtVal *A1, uint32_t N1, const RtVal *Caps, EvalCtx &C) {
  FrameScope Frame(C, Code.NumSlots);
  for (uint32_t I = 0; I < N0; ++I)
    C.FP[I] = A0[I];
  for (uint32_t I = 0; I < N1; ++I)
    C.FP[N0 + I] = A1[I];
  C.Caps = Caps;
  return Code.Body->eval(C);
}

/// Curried application of \p Fn to \p N arguments, matching the
/// interpreters' applyMany: full applications run bodies and keep
/// applying the result; under-applications build partial applications.
/// A zero-argument call of a nullary named function runs its body once.
RtVal callValue(RtVal Fn, const RtVal *Args, uint32_t N, EvalCtx &C,
                lang::SourceLoc Loc) {
  for (;;) {
    if (Fn.T == RtVal::Tag::Clos) {
      if (N == 0)
        return Fn;
      const RtClosure *CL = Fn.C;
      const CodeObject &Code = *CL->Code;
      if (N >= Code.Arity) {
        Fn = callCode(Code, Args, Code.Arity, nullptr, 0, CL->caps(), C);
        Args += Code.Arity;
        N -= Code.Arity;
        continue;
      }
      return RtVal::fromPap(C.RS->Heap.allocPap(&Code, CL, Args, N, Loc));
    }
    if (Fn.T == RtVal::Tag::Pap) {
      const RtPap *P = Fn.P;
      const CodeObject &Code = *P->Code;
      const RtVal *PCaps = P->Clos ? P->Clos->caps() : nullptr;
      if (Code.Arity == 0) {
        // Nullary named function: the call runs its body (the
        // interpreters' applyMany special case), then application
        // continues with whatever it returned.
        Fn = callCode(Code, nullptr, 0, nullptr, 0, PCaps, C);
        if (N == 0)
          return Fn;
        continue;
      }
      if (N == 0)
        return Fn;
      const uint32_t Have = P->NArgs;
      if (Have + N < Code.Arity) {
        RtVal Buf[16];
        std::vector<RtVal> Big;
        RtVal *Tmp = Buf;
        const uint32_t Total = Have + N;
        if (Total > 16) {
          Big.resize(Total);
          Tmp = Big.data();
        }
        for (uint32_t I = 0; I < Have; ++I)
          Tmp[I] = P->args()[I];
        for (uint32_t I = 0; I < N; ++I)
          Tmp[Have + I] = Args[I];
        return RtVal::fromPap(
            C.RS->Heap.allocPap(&Code, P->Clos, Tmp, Total, Loc));
      }
      const uint32_t Need = Code.Arity - Have;
      Fn = callCode(Code, P->args(), Have, Args, Need, PCaps, C);
      Args += Need;
      N -= Need;
      continue;
    }
    if (N == 0)
      return Fn;
    throw CompiledRunError(prims::NotCallable, Loc);
  }
}

} // namespace

namespace {

using lang::SourceLoc;

class CInt : public CNode {
public:
  CInt(int64_t V, SourceLoc Loc) : CNode(Loc), V(RtVal::fromInt(V)) {}
  RtVal eval(EvalCtx &C) const override {
    fuelStep(C);
    return V;
  }

private:
  const RtVal V;
};

class CUnit : public CNode {
public:
  explicit CUnit(SourceLoc Loc) : CNode(Loc) {}
  RtVal eval(EvalCtx &C) const override {
    fuelStep(C);
    return RtVal::unit();
  }
};

class CLocal : public CNode {
public:
  CLocal(uint32_t Slot, SourceLoc Loc) : CNode(Loc), Slot(Slot) {}
  RtVal eval(EvalCtx &C) const override {
    fuelStep(C);
    return C.FP[Slot];
  }

private:
  const uint32_t Slot;
};

class CCap : public CNode {
public:
  CCap(uint32_t Idx, SourceLoc Loc) : CNode(Loc), Idx(Idx) {}
  RtVal eval(EvalCtx &C) const override {
    fuelStep(C);
    return C.Caps[Idx];
  }

private:
  const uint32_t Idx;
};

class CFunVal : public CNode {
public:
  CFunVal(const RtPap *P, SourceLoc Loc) : CNode(Loc), V(RtVal::fromPap(P)) {}
  RtVal eval(EvalCtx &C) const override {
    fuelStep(C);
    return V;
  }

private:
  const RtVal V;
};

/// Closure creation: gathers the captured values out of the creating
/// frame (per the code object's CapSrc recipe) into a heap closure.
/// Capture-free lambdas reuse one static closure.
class CMakeClosure : public CNode {
public:
  CMakeClosure(const CodeObject *Code, const RtClosure *Static, SourceLoc Loc)
      : CNode(Loc), Code(Code), Static(Static) {}
  RtVal eval(EvalCtx &C) const override {
    fuelStep(C);
    if (Static)
      return RtVal::fromClosure(Static);
    RtVal Buf[16];
    std::vector<RtVal> Big;
    RtVal *Caps = Buf;
    const size_t N = Code->Caps.size();
    if (N > 16) {
      Big.resize(N);
      Caps = Big.data();
    }
    for (size_t I = 0; I < N; ++I) {
      const CodeObject::CapSrc &S = Code->Caps[I];
      Caps[I] = S.FromCaps ? C.Caps[S.Idx] : C.FP[S.Idx];
    }
    return RtVal::fromClosure(
        C.RS->Heap.allocClosure(Code, Caps, static_cast<uint32_t>(N), Loc));
  }

private:
  const CodeObject *Code;
  const RtClosure *Static;
};

/// Saturated call of a known top-level function: no callee dispatch, no
/// pap, arguments straight into the fresh frame.
class CCallDirect : public CNode {
public:
  CCallDirect(const CodeObject *Code, std::vector<const CNode *> ArgsE,
              SourceLoc Loc)
      : CNode(Loc), Code(Code), ArgsE(std::move(ArgsE)) {}
  RtVal eval(EvalCtx &C) const override {
    fuelStep(C);
    RtVal Buf[12];
    const uint32_t N = static_cast<uint32_t>(ArgsE.size());
    for (uint32_t I = 0; I < N; ++I)
      Buf[I] = ArgsE[I]->eval(C);
    return callCode(*Code, Buf, N, nullptr, 0, nullptr, C);
  }

private:
  const CodeObject *Code;
  const std::vector<const CNode *> ArgsE;
};

class CCallValue : public CNode {
public:
  CCallValue(const CNode *CalleeE, std::vector<const CNode *> ArgsE,
             SourceLoc Loc)
      : CNode(Loc), CalleeE(CalleeE), ArgsE(std::move(ArgsE)) {}
  RtVal eval(EvalCtx &C) const override {
    fuelStep(C);
    RtVal Fn = CalleeE->eval(C);
    RtVal Buf[8];
    std::vector<RtVal> Big;
    RtVal *A = Buf;
    const uint32_t N = static_cast<uint32_t>(ArgsE.size());
    if (N > 8) {
      Big.resize(N);
      A = Big.data();
    }
    for (uint32_t I = 0; I < N; ++I)
      A[I] = ArgsE[I]->eval(C);
    return callValue(Fn, A, N, C, Loc);
  }

private:
  const CNode *CalleeE;
  const std::vector<const CNode *> ArgsE;
};

class CSeq : public CNode {
public:
  CSeq(const CNode *A, const CNode *B, SourceLoc Loc)
      : CNode(Loc), A(A), B(B) {}
  RtVal eval(EvalCtx &C) const override {
    fuelStep(C);
    (void)A->eval(C);
    return B->eval(C);
  }

private:
  const CNode *A;
  const CNode *B;
};

class CIf : public CNode {
public:
  CIf(const CNode *CondE, const CNode *ThenE, const CNode *ElseE,
      SourceLoc CondLoc, SourceLoc Loc)
      : CNode(Loc), CondE(CondE), ThenE(ThenE), ElseE(ElseE),
        CondLoc(CondLoc) {}
  RtVal eval(EvalCtx &C) const override {
    fuelStep(C);
    RtVal Cond = CondE->eval(C);
    if (!Cond.isInt())
      throw CompiledRunError(prims::IfNotInt, CondLoc);
    return Cond.I != 0 ? ThenE->eval(C) : ElseE->eval(C);
  }

private:
  const CNode *CondE;
  const CNode *ThenE;
  const CNode *ElseE;
  const SourceLoc CondLoc;
};

class CBinOp : public CNode {
public:
  CBinOp(lang::BinOpKind Op, const CNode *LE, const CNode *RE, SourceLoc Loc)
      : CNode(Loc), Op(Op), LE(LE), RE(RE) {}
  RtVal eval(EvalCtx &C) const override {
    fuelStep(C);
    RtVal L = LE->eval(C);
    RtVal R = RE->eval(C);
    if (!L.isInt() || !R.isInt())
      throw CompiledRunError(prims::operandsNotInts(Op), Loc);
    int64_t V;
    if (const char *Msg = prims::intOp(Op, L.I, R.I, V))
      throw CompiledRunError(Msg, Loc);
    return RtVal::fromInt(V);
  }

private:
  const lang::BinOpKind Op;
  const CNode *LE;
  const CNode *RE;
};

class CNewCell : public CNode {
public:
  CNewCell(const CNode *InitE, SourceLoc Loc) : CNode(Loc), InitE(InitE) {}
  RtVal eval(EvalCtx &C) const override {
    fuelStep(C);
    RtVal Init = InitE->eval(C);
    return RtVal::fromCell(C.RS->Heap.allocCell(Init, Loc));
  }

private:
  const CNode *InitE;
};

class CAssign : public CNode {
public:
  CAssign(const CNode *CellE, const CNode *ValueE, SourceLoc CellLoc,
          SourceLoc Loc)
      : CNode(Loc), CellE(CellE), ValueE(ValueE), CellLoc(CellLoc) {}
  RtVal eval(EvalCtx &C) const override {
    fuelStep(C);
    RtVal Cell = CellE->eval(C);
    RtVal V = ValueE->eval(C);
    if (Cell.T != RtVal::Tag::Cell)
      throw CompiledRunError(prims::AssignNotCell, CellLoc);
    *Cell.Cell = V;
    return V;
  }

private:
  const CNode *CellE;
  const CNode *ValueE;
  const SourceLoc CellLoc;
};

class CDeref : public CNode {
public:
  CDeref(const CNode *CellE, SourceLoc Loc) : CNode(Loc), CellE(CellE) {}
  RtVal eval(EvalCtx &C) const override {
    fuelStep(C);
    RtVal Cell = CellE->eval(C);
    if (Cell.T != RtVal::Tag::Cell)
      throw CompiledRunError(prims::DerefNotCell, Loc);
    return *Cell.Cell;
  }

private:
  const CNode *CellE;
};

class CNewArray : public CNode {
public:
  CNewArray(const CNode *SizeE, const CNode *InitE, SourceLoc SizeLoc,
            SourceLoc Loc)
      : CNode(Loc), SizeE(SizeE), InitE(InitE), SizeLoc(SizeLoc) {}
  RtVal eval(EvalCtx &C) const override {
    fuelStep(C);
    RtVal Size = SizeE->eval(C);
    RtVal Init = InitE->eval(C);
    if (!Size.isInt() || Size.I < 0)
      throw CompiledRunError(prims::BadArraySize, SizeLoc);
    return RtVal::fromArray(C.RS->Heap.allocArray(Size.I, Init, Loc));
  }

private:
  const CNode *SizeE;
  const CNode *InitE;
  const SourceLoc SizeLoc;
};

class CArrayGet : public CNode {
public:
  CArrayGet(const CNode *ArrE, const CNode *IdxE, SourceLoc Loc)
      : CNode(Loc), ArrE(ArrE), IdxE(IdxE) {}
  RtVal eval(EvalCtx &C) const override {
    fuelStep(C);
    RtVal Arr = ArrE->eval(C);
    RtVal Idx = IdxE->eval(C);
    if (Arr.T != RtVal::Tag::Arr || !Idx.isInt())
      throw CompiledRunError(prims::BadArrayRead, Loc);
    if (Idx.I < 0 || Idx.I >= Arr.A->Len)
      throw CompiledRunError(prims::indexOutOfBounds(Idx.I), Loc);
    return Arr.A->elems()[Idx.I];
  }

private:
  const CNode *ArrE;
  const CNode *IdxE;
};

class CArraySet : public CNode {
public:
  CArraySet(const CNode *ArrE, const CNode *IdxE, const CNode *ValueE,
            SourceLoc Loc)
      : CNode(Loc), ArrE(ArrE), IdxE(IdxE), ValueE(ValueE) {}
  RtVal eval(EvalCtx &C) const override {
    fuelStep(C);
    RtVal Arr = ArrE->eval(C);
    RtVal Idx = IdxE->eval(C);
    RtVal V = ValueE->eval(C);
    if (Arr.T != RtVal::Tag::Arr || !Idx.isInt())
      throw CompiledRunError(prims::BadArrayWrite, Loc);
    if (Idx.I < 0 || Idx.I >= Arr.A->Len)
      throw CompiledRunError(prims::indexOutOfBounds(Idx.I), Loc);
    Arr.A->elems()[Idx.I] = V;
    return V;
  }

private:
  const CNode *ArrE;
  const CNode *IdxE;
  const CNode *ValueE;
};

class CArrayLen : public CNode {
public:
  CArrayLen(const CNode *ArrE, SourceLoc Loc) : CNode(Loc), ArrE(ArrE) {}
  RtVal eval(EvalCtx &C) const override {
    fuelStep(C);
    RtVal Arr = ArrE->eval(C);
    if (Arr.T != RtVal::Tag::Arr)
      throw CompiledRunError(prims::LenNotArray, Loc);
    return RtVal::fromInt(Arr.A->Len);
  }

private:
  const CNode *ArrE;
};

class CLet : public CNode {
public:
  CLet(uint32_t Slot, const CNode *InitE, const CNode *BodyE, SourceLoc Loc)
      : CNode(Loc), Slot(Slot), InitE(InitE), BodyE(BodyE) {}
  RtVal eval(EvalCtx &C) const override {
    fuelStep(C);
    C.FP[Slot] = InitE->eval(C);
    return BodyE->eval(C);
  }

private:
  const uint32_t Slot;
  const CNode *InitE;
  const CNode *BodyE;
};

/// A `fold` whose fn is a literal `\i. \acc. e`: the two binders live in
/// the *enclosing* frame (LambdaForm::Inlined) and the body runs as a
/// plain loop — no closure, no call, no per-iteration allocation.
class CFoldInline : public CNode {
public:
  CFoldInline(uint32_t ISlot, uint32_t AccSlot, const CNode *InitE,
              const CNode *LoE, const CNode *HiE, const CNode *BodyE,
              SourceLoc Loc)
      : CNode(Loc), ISlot(ISlot), AccSlot(AccSlot), InitE(InitE), LoE(LoE),
        HiE(HiE), BodyE(BodyE) {}
  RtVal eval(EvalCtx &C) const override {
    fuelStep(C);
    RtVal Acc = InitE->eval(C);
    RtVal Lo = LoE->eval(C);
    RtVal Hi = HiE->eval(C);
    if (!Lo.isInt() || !Hi.isInt())
      throw CompiledRunError(prims::FoldBoundsNotInts, Loc);
    for (prims::InclusiveRange R(Lo.I, Hi.I); !R.empty();) {
      fuelStep(C);
      C.FP[ISlot] = RtVal::fromInt(R.pop());
      C.FP[AccSlot] = Acc;
      Acc = BodyE->eval(C);
    }
    return Acc;
  }

private:
  const uint32_t ISlot;
  const uint32_t AccSlot;
  const CNode *InitE;
  const CNode *LoE;
  const CNode *HiE;
  const CNode *BodyE;
};

/// A `fold` over an arbitrary function value (curried application per
/// iteration, exactly the interpreters' runFold).
class CFoldGeneric : public CNode {
public:
  CFoldGeneric(const CNode *FnE, const CNode *InitE, const CNode *LoE,
               const CNode *HiE, SourceLoc Loc)
      : CNode(Loc), FnE(FnE), InitE(InitE), LoE(LoE), HiE(HiE) {}
  RtVal eval(EvalCtx &C) const override {
    fuelStep(C);
    RtVal Fn = FnE->eval(C);
    RtVal Acc = InitE->eval(C);
    RtVal Lo = LoE->eval(C);
    RtVal Hi = HiE->eval(C);
    if (!Lo.isInt() || !Hi.isInt())
      throw CompiledRunError(prims::FoldBoundsNotInts, Loc);
    for (prims::InclusiveRange R(Lo.I, Hi.I); !R.empty();) {
      RtVal A[2] = {RtVal::fromInt(R.pop()), Acc};
      Acc = callValue(Fn, A, 2, C, Loc);
    }
    return Acc;
  }

private:
  const CNode *FnE;
  const CNode *InitE;
  const CNode *LoE;
  const CNode *HiE;
};

/// `spec(p, g, c)` lowered onto Speculation::apply: the consumer value
/// evaluates first (evaluation context `spec ep eg E`), the producer
/// runs on the calling thread reusing the current frame, and the
/// predictor runs on a worker over the *same* FP/Caps — safe because the
/// resolver's monotone slot numbering keeps their written slots
/// disjoint (lang/Ast.h Binding::Slot).
class CSpec : public CNode {
public:
  CSpec(const CNode *ProdE, const CNode *GuessE, const CNode *ConsE,
        uint64_t SiteIdx, SourceLoc Loc)
      : CNode(Loc), ProdE(ProdE), GuessE(GuessE), ConsE(ConsE),
        SiteIdx(SiteIdx) {}
  RtVal eval(EvalCtx &C) const override {
    fuelStep(C);
    RtVal Cons = ConsE->eval(C);
    rt::SpecConfig Cfg = C.RS->siteConfig(SiteIdx);
    RunState *RS = C.RS;
    std::optional<RtVal> Out;
    auto Res = rt::Speculation::apply<RtVal>(
        [&]() { return ProdE->eval(C); },
        [FP = C.FP, Caps = C.Caps, RS, this]() {
          EvalCtx PC;
          PC.FP = FP;
          PC.Caps = Caps;
          PC.RS = RS;
          PC.FS = &threadFrameStack();
          return GuessE->eval(PC);
        },
        [&Cons, &Out, RS, this](RtVal V) {
          EvalCtx CC;
          CC.RS = RS;
          CC.FS = &threadFrameStack();
          RtVal A[1] = {V};
          Out = callValue(Cons, A, 1, CC, Loc);
        },
        Cfg, &rtPredictionEquals);
    RS->noteStats(Res.Stats);
    if (!Out)
      throw CompiledRunError(prims::NoConsumerResult, Loc);
    return *Out;
  }

private:
  const CNode *ProdE;
  const CNode *GuessE;
  const CNode *ConsE;
  const uint64_t SiteIdx;
};

/// `specfold(f, g, l, u)` lowered onto Speculation::iterateChunkedLocal
/// over [l, u+1): g compiles into the chunk predictor (called on the
/// validating thread, in segment order), f into the chunk body (called
/// on workers with a per-chunk EvalCtx so fuel draws amortize). The
/// engine cannot name INT64_MAX + 1, so at u == INT64_MAX it runs
/// [l, u) and the iteration at u follows on this thread.
class CSpecFold : public CNode {
public:
  CSpecFold(const CNode *FnE, const CNode *GuessE, const CNode *LoE,
            const CNode *HiE, uint64_t SiteIdx, SourceLoc Loc)
      : CNode(Loc), FnE(FnE), GuessE(GuessE), LoE(LoE), HiE(HiE),
        SiteIdx(SiteIdx) {}
  RtVal eval(EvalCtx &C) const override {
    fuelStep(C);
    RtVal Fn = FnE->eval(C);
    RtVal G = GuessE->eval(C);
    RtVal Lo = LoE->eval(C);
    RtVal Hi = HiE->eval(C);
    if (!Lo.isInt() || !Hi.isInt())
      throw CompiledRunError(prims::FoldBoundsNotInts, Loc);
    const bool LastAfter = Hi.I == INT64_MAX;
    rt::SpecConfig Cfg = C.RS->siteConfig(SiteIdx);
    RunState *RS = C.RS;
    auto Res = rt::Speculation::iterateChunkedLocal<RtVal, EvalCtx>(
        Lo.I, LastAfter ? Hi.I : Hi.I + 1, RS->ChunkSize,
        [RS]() {
          EvalCtx X;
          X.RS = RS;
          X.FS = &threadFrameStack();
          return X;
        },
        [&Fn, this](int64_t I, EvalCtx &BC, RtVal In) {
          RtVal A[2] = {RtVal::fromInt(I), In};
          return callValue(Fn, A, 2, BC, Loc);
        },
        [&G, &C, this](int64_t I) {
          RtVal A[1] = {RtVal::fromInt(I)};
          return callValue(G, A, 1, C, Loc);
        },
        [](int64_t, EvalCtx &) {}, Cfg, &rtPredictionEquals);
    RS->noteStats(Res.Stats);
    if (!LastAfter)
      return Res.Value;
    RtVal A[2] = {RtVal::fromInt(Hi.I), Res.Value};
    return callValue(Fn, A, 2, C, Loc);
  }

private:
  const CNode *FnE;
  const CNode *GuessE;
  const CNode *LoE;
  const CNode *HiE;
  const uint64_t SiteIdx;
};

} // namespace

namespace {

/// The lowering pass: walks the resolved AST once, building the CNode
/// tree, code objects, capture recipes and static values, and recording
/// per-node diagnostics in the AdmissionReport. Never aborts early —
/// unlowerable nodes become placeholders so the report lists *every*
/// reason at once.
class Compiler {
public:
  Compiler(const lang::Program &P, AdmissionReport &Rep,
           CompiledProgram::Impl &Out)
      : P(P), Rep(Rep), Out(Out) {}

  bool run() {
    // Code objects and function values for every top-level function
    // first, so call sites resolve regardless of definition order.
    for (const lang::FunDef *F : P.Funs) {
      auto Code = std::make_unique<CodeObject>();
      Code->Arity = static_cast<uint32_t>(F->Params.size());
      Code->NumSlots = F->FrameSlots;
      Code->Name = F->Name;
      FunCode[F] = Code.get();
      Out.Codes.push_back(std::move(Code));
      auto Pap = std::make_unique<RtPap>();
      Pap->Code = FunCode[F];
      FunPap[F] = Pap.get();
      Out.FunPaps.push_back(std::move(Pap));
    }
    for (const lang::FunDef *F : P.Funs) {
      Scope S;
      S.Code = FunCode[F];
      for (const lang::Binding *B : F->Params)
        own(S, B, F->Loc);
      FunCode[F]->Body = compile(F->Body, S);
    }
    auto Main = std::make_unique<CodeObject>();
    Main->Arity = 0;
    Main->NumSlots = P.MainFrameSlots;
    Main->Name = "main";
    {
      Scope S;
      S.Code = Main.get();
      Main->Body = compile(P.Main, S);
    }
    Out.MainCode = Main.get();
    Out.Codes.push_back(std::move(Main));
    Out.SpecSites = SpecSites;
    Rep.NodesLowered = NodesLowered;
    return Rep.Unlowerable.empty();
  }

private:
  /// One frame's compile-time scope: which bindings live in this frame
  /// (Owned) and the capture list built so far for its code object.
  struct Scope {
    Scope *Parent = nullptr;
    CodeObject *Code = nullptr;
    std::unordered_set<const lang::Binding *> Owned;
    std::unordered_map<const lang::Binding *, uint32_t> CapIdx;
  };

  template <typename T, typename... Args> const T *node(Args &&...As) {
    auto N = std::make_unique<T>(std::forward<Args>(As)...);
    const T *Raw = N.get();
    Out.Nodes.push_back(std::move(N));
    ++NodesLowered;
    return Raw;
  }

  bool own(Scope &S, const lang::Binding *B, lang::SourceLoc Loc) {
    if (B->Slot == lang::Binding::NoSlot) {
      Rep.Unlowerable.push_back(
          {"binding", Loc,
           "'" + B->Name + "' has no frame slot (program not resolved)"});
      return false;
    }
    S.Owned.insert(B);
    return true;
  }

  const CNode *diag(const lang::Expr *E, std::string Kind,
                    std::string Detail) {
    Rep.Unlowerable.push_back({std::move(Kind), E->loc(), std::move(Detail)});
    return node<CUnit>(E->loc());
  }

  void note(const lang::Expr *E, std::string Kind, std::string Detail) {
    Rep.Notes.push_back({std::move(Kind), E->loc(), std::move(Detail)});
  }

  static bool boundIn(const Scope &S, const lang::Binding *B) {
    for (const Scope *Cur = &S; Cur; Cur = Cur->Parent)
      if (Cur->Owned.count(B))
        return true;
    return false;
  }

  /// Adds \p B to \p S's capture list (transitively through enclosing
  /// frames) and returns its capture index.
  uint32_t captureInto(Scope &S, const lang::Binding *B) {
    auto It = S.CapIdx.find(B);
    if (It != S.CapIdx.end())
      return It->second;
    CodeObject::CapSrc Src;
    if (S.Parent->Owned.count(B)) {
      Src.FromCaps = false;
      Src.Idx = B->Slot;
    } else {
      Src.FromCaps = true;
      Src.Idx = captureInto(*S.Parent, B);
    }
    const uint32_t Idx = static_cast<uint32_t>(S.Code->Caps.size());
    S.Code->Caps.push_back(Src);
    S.CapIdx.emplace(B, Idx);
    return Idx;
  }

  const CNode *compileClosure(const lang::Lambda *L, Scope &S) {
    auto Code = std::make_unique<CodeObject>();
    Code->Arity = 1;
    Code->NumSlots = L->frameSlots();
    Code->Name =
        formatString("lambda@%d:%d", L->loc().Line, L->loc().Col);
    CodeObject *CO = Code.get();
    Out.Codes.push_back(std::move(Code));
    Scope Child;
    Child.Parent = &S;
    Child.Code = CO;
    own(Child, L->param(), L->loc());
    CO->Body = compile(L->body(), Child);
    const RtClosure *Static = makeStatic(CO);
    note(L, "lambda",
         formatString("closure-converted: %u capture(s)%s",
                      static_cast<unsigned>(CO->Caps.size()),
                      Static ? ", static" : ""));
    return node<CMakeClosure>(CO, Static, L->loc());
  }

  /// A capture-free code object gets one closure allocated at compile
  /// time; returns null when captures exist.
  const RtClosure *makeStatic(const CodeObject *CO) {
    if (!CO->Caps.empty())
      return nullptr;
    auto SC = std::make_unique<RtClosure>();
    SC->Code = CO;
    const RtClosure *Raw = SC.get();
    Out.StaticClosures.push_back(std::move(SC));
    return Raw;
  }

  const CNode *compile(const lang::Expr *E, Scope &S) {
    using lang::Expr;
    switch (E->kind()) {
    case Expr::Kind::IntLit:
      return node<CInt>(cast<lang::IntLit>(E)->value(), E->loc());
    case Expr::Kind::UnitLit:
      return node<CUnit>(E->loc());
    case Expr::Kind::VarRef: {
      const auto *V = cast<lang::VarRef>(E);
      if (const lang::FunDef *F = V->fun())
        return node<CFunVal>(FunPap.at(F), E->loc());
      const lang::Binding *B = V->binding();
      if (!B)
        return diag(E, "variable",
                    "unresolved reference '" + V->name() + "'");
      if (B->Slot == lang::Binding::NoSlot)
        return diag(E, "variable",
                    "'" + B->Name +
                        "' has no frame slot (program not resolved)");
      if (S.Owned.count(B))
        return node<CLocal>(B->Slot, E->loc());
      if (!boundIn(S, B))
        return diag(E, "variable",
                    "'" + V->name() + "' is bound outside every enclosing "
                                      "frame (resolver/compiler mismatch)");
      return node<CCap>(captureInto(S, B), E->loc());
    }
    case Expr::Kind::Lambda:
      return compileClosure(cast<lang::Lambda>(E), S);
    case Expr::Kind::Call: {
      const auto *CA = cast<lang::Call>(E);
      std::vector<const CNode *> ArgsE;
      ArgsE.reserve(CA->args().size());
      const lang::FunDef *F = CA->directCallee();
      if (F && CA->args().size() == F->Params.size() &&
          CA->args().size() <= 12) {
        for (const lang::Expr *A : CA->args())
          ArgsE.push_back(compile(A, S));
        return node<CCallDirect>(FunCode.at(F), std::move(ArgsE), E->loc());
      }
      const CNode *CalleeE = compile(CA->callee(), S);
      for (const lang::Expr *A : CA->args())
        ArgsE.push_back(compile(A, S));
      return node<CCallValue>(CalleeE, std::move(ArgsE), E->loc());
    }
    case Expr::Kind::Seq: {
      const auto *Q = cast<lang::Seq>(E);
      const CNode *A = compile(Q->first(), S);
      const CNode *B = compile(Q->second(), S);
      return node<CSeq>(A, B, E->loc());
    }
    case Expr::Kind::If: {
      const auto *IF = cast<lang::If>(E);
      const CNode *CondE = compile(IF->cond(), S);
      const CNode *ThenE = compile(IF->thenExpr(), S);
      const CNode *ElseE = compile(IF->elseExpr(), S);
      return node<CIf>(CondE, ThenE, ElseE, IF->cond()->loc(), E->loc());
    }
    case Expr::Kind::BinOp: {
      const auto *B = cast<lang::BinOp>(E);
      const CNode *L = compile(B->lhs(), S);
      const CNode *R = compile(B->rhs(), S);
      return node<CBinOp>(B->op(), L, R, E->loc());
    }
    case Expr::Kind::NewCell:
      return node<CNewCell>(compile(cast<lang::NewCell>(E)->init(), S),
                            E->loc());
    case Expr::Kind::Assign: {
      const auto *A = cast<lang::Assign>(E);
      const CNode *CellE = compile(A->cell(), S);
      const CNode *ValueE = compile(A->value(), S);
      return node<CAssign>(CellE, ValueE, A->cell()->loc(), E->loc());
    }
    case Expr::Kind::Deref:
      return node<CDeref>(compile(cast<lang::Deref>(E)->cell(), S),
                          E->loc());
    case Expr::Kind::NewArray: {
      const auto *A = cast<lang::NewArray>(E);
      const CNode *SizeE = compile(A->size(), S);
      const CNode *InitE = compile(A->init(), S);
      return node<CNewArray>(SizeE, InitE, A->size()->loc(), E->loc());
    }
    case Expr::Kind::ArrayGet: {
      const auto *A = cast<lang::ArrayGet>(E);
      const CNode *ArrE = compile(A->array(), S);
      const CNode *IdxE = compile(A->index(), S);
      return node<CArrayGet>(ArrE, IdxE, E->loc());
    }
    case Expr::Kind::ArraySet: {
      const auto *A = cast<lang::ArraySet>(E);
      const CNode *ArrE = compile(A->array(), S);
      const CNode *IdxE = compile(A->index(), S);
      const CNode *ValueE = compile(A->value(), S);
      return node<CArraySet>(ArrE, IdxE, ValueE, E->loc());
    }
    case Expr::Kind::ArrayLen:
      return node<CArrayLen>(compile(cast<lang::ArrayLen>(E)->array(), S),
                             E->loc());
    case Expr::Kind::Let: {
      const auto *L = cast<lang::Let>(E);
      const CNode *InitE = compile(L->init(), S);
      if (!own(S, L->var(), L->loc()))
        return node<CUnit>(E->loc());
      const CNode *BodyE = compile(L->body(), S);
      return node<CLet>(L->var()->Slot, InitE, BodyE, E->loc());
    }
    case Expr::Kind::Fold: {
      const auto *F = cast<lang::Fold>(E);
      const auto *Outer = dyn_cast<lang::Lambda>(F->fn());
      if (Outer && Outer->form() == lang::LambdaForm::Inlined) {
        const auto *Inner = cast<lang::Lambda>(Outer->body());
        const bool Ok = own(S, Outer->param(), Outer->loc()) &&
                        own(S, Inner->param(), Inner->loc());
        const CNode *InitE = compile(F->init(), S);
        const CNode *LoE = compile(F->lo(), S);
        const CNode *HiE = compile(F->hi(), S);
        if (!Ok)
          return node<CUnit>(E->loc());
        const CNode *BodyE = compile(Inner->body(), S);
        note(E, "fold", "body inlined into the enclosing frame");
        return node<CFoldInline>(Outer->param()->Slot, Inner->param()->Slot,
                                 InitE, LoE, HiE, BodyE, E->loc());
      }
      const CNode *FnE = compile(F->fn(), S);
      const CNode *InitE = compile(F->init(), S);
      const CNode *LoE = compile(F->lo(), S);
      const CNode *HiE = compile(F->hi(), S);
      return node<CFoldGeneric>(FnE, InitE, LoE, HiE, E->loc());
    }
    case Expr::Kind::Spec: {
      const auto *SP = cast<lang::Spec>(E);
      const uint64_t Site = SpecSites++;
      const CNode *ProdE = compile(SP->producer(), S);
      const CNode *GuessE = compile(SP->guess(), S);
      const CNode *ConsE = compile(SP->consumer(), S);
      note(E, "spec",
           formatString("site #%llu -> Speculation::apply",
                        static_cast<unsigned long long>(Site)));
      return node<CSpec>(ProdE, GuessE, ConsE, Site, E->loc());
    }
    case Expr::Kind::SpecFold: {
      const auto *SF = cast<lang::SpecFold>(E);
      const uint64_t Site = SpecSites++;
      const CNode *FnE = nullptr;
      const auto *Outer = dyn_cast<lang::Lambda>(SF->fn());
      if (Outer && Outer->form() == lang::LambdaForm::FusedOuter) {
        const auto *Inner = cast<lang::Lambda>(Outer->body());
        auto Code = std::make_unique<CodeObject>();
        Code->Arity = 2;
        Code->NumSlots = Outer->frameSlots();
        Code->Name = formatString("specfold@%d:%d", E->loc().Line,
                                  E->loc().Col);
        CodeObject *CO = Code.get();
        Out.Codes.push_back(std::move(Code));
        Scope Child;
        Child.Parent = &S;
        Child.Code = CO;
        own(Child, Outer->param(), Outer->loc());
        own(Child, Inner->param(), Inner->loc());
        CO->Body = compile(Inner->body(), Child);
        const RtClosure *Static = makeStatic(CO);
        note(E, "specfold",
             formatString("body fused into an arity-2 code object "
                          "(%u capture(s))",
                          static_cast<unsigned>(CO->Caps.size())));
        FnE = node<CMakeClosure>(CO, Static, Outer->loc());
      } else {
        FnE = compile(SF->fn(), S);
      }
      const CNode *GuessE = compile(SF->guess(), S);
      const CNode *LoE = compile(SF->lo(), S);
      const CNode *HiE = compile(SF->hi(), S);
      note(E, "specfold",
           formatString("site #%llu -> Speculation::iterateChunked",
                        static_cast<unsigned long long>(Site)));
      return node<CSpecFold>(FnE, GuessE, LoE, HiE, Site, E->loc());
    }
    }
    return diag(E, "expr", "unknown expression kind");
  }

  const lang::Program &P;
  AdmissionReport &Rep;
  CompiledProgram::Impl &Out;
  std::unordered_map<const lang::FunDef *, CodeObject *> FunCode;
  std::unordered_map<const lang::FunDef *, const RtPap *> FunPap;
  uint64_t SpecSites = 0;
  uint64_t NodesLowered = 0;
};

} // namespace

std::string NodeDiag::str() const {
  return formatString("%s@%d:%d: %s", Kind.c_str(), Loc.Line, Loc.Col,
                      Detail.c_str());
}

std::string AdmissionReport::str() const {
  std::string S;
  S += Admitted ? "admitted: yes\n"
                : formatString("admitted: no (%s)\n", WhyNot.c_str());
  if (!CheckerRan)
    S += "checker: not run\n";
  else if (CheckerAccepted)
    S += "checker: accepted\n";
  else if (CheckerBudgetExceeded)
    S += "checker: abstract-step budget exceeded\n";
  else
    S += formatString("checker: rejected (%u unsafe site(s))\n",
                      static_cast<unsigned>(UnsafeSites.size()));
  S += formatString("spec sites: %llu, nodes lowered: %llu\n",
                    static_cast<unsigned long long>(SpecSites),
                    static_cast<unsigned long long>(NodesLowered));
  for (const analysis::SiteReport &R : UnsafeSites)
    S += "unsafe: " + R.str() + "\n";
  for (const NodeDiag &D : Unlowerable)
    S += "cannot lower: " + D.str() + "\n";
  for (const NodeDiag &D : Notes)
    S += "note: " + D.str() + "\n";
  return S;
}

CompiledProgram::CompiledProgram(std::unique_ptr<Impl> I) : I(std::move(I)) {}
CompiledProgram::~CompiledProgram() = default;

uint64_t CompiledProgram::specSites() const { return I->SpecSites; }

CompiledProgram::Outcome CompiledProgram::run() const {
  return run(RunOptions());
}

CompiledProgram::Outcome
CompiledProgram::run(const RunOptions &Opts) const {
  if (Opts.ChunkSize <= 0)
    throw std::invalid_argument(
        "CompiledProgram::run: ChunkSize must be positive, got " +
        std::to_string(Opts.ChunkSize));

  RunState RS;
  RS.ChunkSize = Opts.ChunkSize;
  RS.BaseCfg = Opts.Config;
  // Per-site stats are aggregated by RunState; the caller's sink (if
  // any) receives the whole-run aggregate from the guard below.
  RS.BaseCfg.statsOut(nullptr);
  // See the file comment in Compiler.h: the shield's forced abandonment
  // longjmps past destructors, which would corrupt the frame stacks and
  // could abandon a thread holding the run-heap mutex. Compiled bodies
  // are bounds-checked and fuel-limited, so neither containment feature
  // buys anything here.
  RS.BaseCfg.shield(false);
  RS.BaseCfg.attemptBudget(std::chrono::nanoseconds(0));
  if (Opts.Config.deadline() > std::chrono::nanoseconds::zero()) {
    RS.HasDeadline = true;
    RS.DeadlineBudget = Opts.Config.deadline();
    RS.AbsDeadline =
        deadlineAfter(std::chrono::steady_clock::now(), RS.DeadlineBudget);
  }
  RS.FuelBudget = static_cast<int64_t>(
      std::min<uint64_t>(Opts.MaxSteps, uint64_t(INT64_MAX / 2)));
  RS.Fuel.store(RS.FuelBudget, std::memory_order_relaxed);

  // Publishes the aggregate statistics to the caller's statsOut() sink
  // on every exit path, including propagating timeouts and fault
  // exceptions (mirrors the native runtime's StatsOutGuard).
  struct SnapGuard {
    rt::stats::Snapshot *Snap;
    RunState &RS;
    std::shared_ptr<rt::SpecExecutor> StatEx;
    rt::ExecutorStats Before{};
    ~SnapGuard() {
      if (!Snap)
        return;
      Snap->Spec = RS.Stats;
      Snap->Exec = StatEx->stats() - Before;
    }
  } Guard{Opts.Config.statsSnapshotOut(), RS, RS.BaseCfg.resolvedExecutor()};
  Guard.Before = Guard.StatEx->stats();

  Outcome Out;
  EvalCtx C;
  C.RS = &RS;
  C.FS = &threadFrameStack();
  try {
    FrameScope Frame(C, I->MainCode->NumSlots);
    RtVal R = I->MainCode->Body->eval(C);
    Out.Run.St = interp::RunOutcome::Status::Done;
    if (R.isInt())
      Out.Run.Result = interp::Value(R.I);
    else if (R.isUnit())
      Out.Run.Result = interp::Value(interp::UnitVal{});
    else {
      // Closure/function/reference results have no interp::Value
      // projection that survives this run's heap.
      Out.ResultLowered = false;
      Out.Run.Result = interp::Value(interp::UnitVal{});
    }
  } catch (const CompiledRunError &E) {
    Out.Run.St = interp::RunOutcome::Status::Error;
    Out.Run.Error = interp::RtError{E.Msg, E.Loc};
  } catch (const StepLimitError &) {
    Out.Run.St = interp::RunOutcome::Status::StepLimit;
  }
  const int64_t Pool = RS.Fuel.load(std::memory_order_relaxed);
  const int64_t Unspent =
      (Pool > 0 ? Pool : 0) + (C.LocalFuel > 0 ? C.LocalFuel : 0);
  Out.Run.Steps = RS.FuelBudget > Unspent
                      ? static_cast<uint64_t>(RS.FuelBudget - Unspent)
                      : 0;
  {
    std::lock_guard<std::mutex> Lock(RS.StatsM);
    Out.Stats = RS.Stats;
    Out.SpecSiteRuns = RS.SpecRuns;
  }
  return Out;
}

Result<std::shared_ptr<CompiledProgram>>
compileProgram(const lang::Program &P, const CompileOptions &Opts,
               AdmissionReport *Report) {
  AdmissionReport Local;
  AdmissionReport &Rep = Report ? *Report : Local;
  Rep = AdmissionReport();

  auto PI = std::make_unique<CompiledProgram::Impl>();
  Compiler CC(P, Rep, *PI);
  const bool Lowered = CC.run();
  Rep.SpecSites = PI->SpecSites;

  if (!Lowered) {
    // Structural failure means the program is not resolved; running the
    // checker over it would be meaningless.
    Rep.WhyNot = "not lowerable: " + Rep.Unlowerable.front().str();
    return ResultError(Rep.WhyNot);
  }

  analysis::AnalysisReport AR =
      analysis::checkRollbackFreedom(P, Opts.Checker);
  Rep.CheckerRan = true;
  Rep.CheckerAccepted = AR.programSafe();
  Rep.CheckerBudgetExceeded = AR.BudgetExceeded;
  for (const analysis::SiteReport &SR : AR.Sites)
    if (!SR.Safe)
      Rep.UnsafeSites.push_back(SR);

  if (Opts.RequireCheckerAccept && !Rep.CheckerAccepted) {
    if (!Rep.UnsafeSites.empty()) {
      const analysis::SiteReport &SR = Rep.UnsafeSites.front();
      const lang::SourceLoc Loc =
          SR.Site ? SR.Site->loc() : lang::SourceLoc{};
      Rep.WhyNot = formatString(
          "rollback checker rejected the site at %d:%d: condition %s: %s",
          Loc.Line, Loc.Col, SR.FailedCondition.c_str(),
          SR.Explanation.c_str());
    } else {
      Rep.WhyNot = "rollback checker abstract-step budget exceeded";
    }
    return ResultError(Rep.WhyNot);
  }

  Rep.Admitted = true;
  return std::make_shared<CompiledProgram>(std::move(PI));
}



} // namespace compile
} // namespace specpar
