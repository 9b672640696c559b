//===- analysis/AbstractHeap.cpp - Allocation-site heap abstraction --------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/AbstractHeap.h"

#include "support/StringUtils.h"

using namespace specpar;
using namespace specpar::analysis;

std::string AbsNode::str() const {
  if (!Name.empty())
    return Name;
  return formatString("%s@%d:%d%s", IsArray ? "arr" : "cell",
                      Site ? Site->loc().Line : 0,
                      Site ? Site->loc().Col : 0, Single ? "" : "*");
}

AbsValue AbsValue::join(const AbsValue &A, const AbsValue &B) {
  AbsValue R;
  R.Top = A.Top || B.Top;
  R.MaybeUnit = A.MaybeUnit || B.MaybeUnit;
  R.Ints = SymInterval::join(A.Ints, B.Ints);
  R.Cells = A.Cells;
  R.Cells.insert(B.Cells.begin(), B.Cells.end());
  R.Arrays = A.Arrays;
  R.Arrays.insert(B.Arrays.begin(), B.Arrays.end());
  R.Funs = A.Funs;
  R.Funs.insert(B.Funs.begin(), B.Funs.end());
  return R;
}

std::string AbsValue::str() const {
  if (Top)
    return "T";
  std::string S;
  auto Add = [&S](const std::string &Piece) {
    if (!S.empty())
      S += " | ";
    S += Piece;
  };
  if (!Ints.isEmpty())
    Add(Ints.str());
  if (MaybeUnit)
    Add("()");
  for (const AbsNode *N : Cells)
    Add(N->str());
  for (const AbsNode *N : Arrays)
    Add(N->str());
  if (!Funs.empty())
    Add(formatString("%zu fun(s)", Funs.size()));
  if (S.empty())
    S = "_|_";
  return S;
}

AbsHeap AbsHeap::join(const AbsHeap &A, const AbsHeap &B) {
  AbsHeap R = A;
  for (const auto &[Node, V] : B.Contents) {
    auto It = R.Contents.find(Node);
    if (It == R.Contents.end())
      R.Contents.emplace(Node, V);
    else
      It->second = AbsValue::join(It->second, V);
  }
  return R;
}

AbsNode *NodeTable::nodeFor(const lang::Expr *Site, bool IsArray,
                            uint64_t Epoch, bool DemoteIfExisting) {
  auto It = Nodes.find(Site);
  if (It != Nodes.end()) {
    if (DemoteIfExisting)
      It->second->Single = false;
    return It->second.get();
  }
  auto N = std::make_unique<AbsNode>();
  N->Site = Site;
  N->IsArray = IsArray;
  N->Single = true;
  N->BirthEpoch = Epoch;
  AbsNode *Raw = N.get();
  Nodes.emplace(Site, std::move(N));
  Order.push_back(Raw);
  return Raw;
}
