//===- mwis/Mwis.cpp - Max-weight independent set on path graphs ----------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "mwis/Mwis.h"

#include <algorithm>
#include <cassert>
#include <memory>

using namespace specpar;
using namespace specpar::mwis;

int64_t specpar::mwis::solveSequential(const std::vector<int64_t> &Weights,
                                       std::vector<int32_t> *Members) {
  int64_t N = static_cast<int64_t>(Weights.size());
  if (N == 0) {
    if (Members)
      Members->clear();
    return 0;
  }
  std::vector<int64_t> Include(N), Exclude(N);
  Include[0] = Weights[0];
  Exclude[0] = 0;
  for (int64_t I = 1; I < N; ++I) {
    Include[I] = Weights[I] + Exclude[I - 1];
    Exclude[I] = std::max(Include[I - 1], Exclude[I - 1]);
  }
  int64_t Best = std::max(Include[N - 1], Exclude[N - 1]);
  if (Members) {
    Members->clear();
    // Canonical backtrack: on ties prefer exclusion, matching the d > 0
    // criterion of the two-phase solver.
    bool NextTaken = false;
    for (int64_t I = N - 1; I >= 0; --I) {
      bool Taken = !NextTaken && Include[I] > Exclude[I];
      if (Taken)
        Members->push_back(static_cast<int32_t>(I));
      NextTaken = Taken;
    }
    std::reverse(Members->begin(), Members->end());
  }
  return Best;
}

int64_t specpar::mwis::forwardSegment(const std::vector<int64_t> &Weights,
                                      int64_t From, int64_t To, int64_t DIn,
                                      uint8_t *Positive,
                                      int64_t &PositiveSum) {
  assert(From >= 0 && To <= static_cast<int64_t>(Weights.size()) &&
         From <= To && "segment out of bounds");
  const int64_t *W = Weights.data();
  int64_t D = DIn, Pos = std::max<int64_t>(DIn, 0), Sum = 0;
  for (int64_t I = From; I < To; ++I) {
    D = W[I] - Pos;
    Pos = std::max<int64_t>(D, 0);
    Positive[I] = D > 0;
    Sum += Pos;
  }
  PositiveSum += Sum;
  return D;
}

int64_t specpar::mwis::predictForward(const std::vector<int64_t> &Weights,
                                      int64_t Boundary, int64_t Overlap) {
  int64_t From = std::max<int64_t>(0, Boundary - Overlap);
  int64_t D = 0;
  for (int64_t I = From; I < Boundary; ++I)
    D = Weights[I] - std::max<int64_t>(D, 0);
  return D;
}

bool specpar::mwis::backwardSegment(const uint8_t *Positive, int64_t From,
                                    int64_t To, bool NextTaken,
                                    std::vector<int32_t> &Members) {
  assert(From >= 0 && From <= To && "segment out of bounds");
  // No two adjacent nodes are taken, so a range of L nodes holds at most
  // L/2 + 1 members, and every store below lands in one of those slots:
  // each node's id is stored at the end of the list and kept only when
  // the node is taken. `(!Next) & byte` keeps only the byte's low bit, so
  // the bound holds whatever the sign bytes hold.
  const size_t Base = Members.size();
  Members.resize(Base + static_cast<size_t>((To - From) / 2 + 1));
  int32_t *Out = Members.data() + Base;
  unsigned Next = NextTaken;
  for (int64_t I = To - 1; I >= From; --I) {
    *Out = static_cast<int32_t>(I);
    Next = (!Next) & Positive[I];
    Out += Next;
  }
  Members.resize(static_cast<size_t>(Out - Members.data()));
  return Next != 0; // node From's decision, or NextTaken if the range is empty
}

bool specpar::mwis::predictBackward(const uint8_t *Positive, int64_t Boundary,
                                    int64_t Overlap, int64_t NumNodes) {
  int64_t WindowTop = std::min(NumNodes, Boundary + Overlap);
  bool Next = false; // Assume the node just above the window is not taken.
  for (int64_t I = WindowTop - 1; I >= Boundary; --I)
    Next = !Next && Positive[I];
  return Next;
}

int64_t specpar::mwis::solveTwoPhase(const std::vector<int64_t> &Weights,
                                     std::vector<int32_t> *Members) {
  const int64_t N = static_cast<int64_t>(Weights.size());
  // Not zero-filled: the forward pass writes every slot before the
  // backward pass reads it.
  auto Positive = std::make_unique_for_overwrite<uint8_t[]>(
      static_cast<size_t>(N));
  int64_t Weight = 0;
  forwardSegment(Weights, 0, N, /*DIn=*/0, Positive.get(), Weight);
  if (Members) {
    Members->clear();
    backwardSegment(Positive.get(), 0, N, /*NextTaken=*/false, *Members);
    std::reverse(Members->begin(), Members->end());
  }
  return Weight;
}
