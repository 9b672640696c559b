//===- perfbench/Spans.cpp - In-memory spans around layer calls -----------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <fstream>

namespace perfbench {

int64_t nowNs() {
  static const Clock::time_point Epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch)
      .count();
}

int32_t SpanLog::add(const char *Name, int64_t StartNs, int64_t EndNs,
                     int32_t Parent, uint64_t Op) {
  if (!Enabled)
    return -1;
  std::lock_guard<std::mutex> Lock(M);
  Spans.push_back(Span{Name, StartNs, EndNs, Parent, Op});
  return static_cast<int32_t>(Spans.size() - 1);
}

int32_t SpanLog::open(const char *Name, int32_t Parent, uint64_t Op) {
  if (!Enabled)
    return -1;
  const int64_t Now = nowNs();
  return add(Name, Now, Now, Parent, Op);
}

void SpanLog::close(int32_t Idx) {
  if (Idx < 0)
    return;
  const int64_t Now = nowNs();
  std::lock_guard<std::mutex> Lock(M);
  Spans[static_cast<size_t>(Idx)].EndNs = Now;
}

static std::string layerOf(const char *Name) {
  std::string S(Name);
  return S.substr(0, S.find('.'));
}

std::map<std::string, int64_t>
SpanLog::layerSelfNs(const std::string &RootName, uint64_t *NumRoots) const {
  std::lock_guard<std::mutex> Lock(M);
  const size_t N = Spans.size();
  std::vector<std::vector<int32_t>> Children(N);
  for (size_t I = 0; I < N; ++I)
    if (Spans[I].Parent >= 0)
      Children[static_cast<size_t>(Spans[I].Parent)].push_back(
          static_cast<int32_t>(I));

  std::map<std::string, int64_t> Self;
  uint64_t Roots = 0;
  for (size_t I = 0; I < N; ++I) {
    size_t Root = I;
    while (Spans[Root].Parent >= 0)
      Root = static_cast<size_t>(Spans[Root].Parent);
    if (RootName != Spans[Root].Name)
      continue;
    if (Root == I)
      ++Roots;
    const Span &S = Spans[I];
    // The part of [Start, End) covered by the union of the children.
    std::vector<std::pair<int64_t, int64_t>> Cover;
    for (int32_t C : Children[I]) {
      const Span &Child = Spans[static_cast<size_t>(C)];
      Cover.emplace_back(std::max(S.StartNs, Child.StartNs),
                         std::min(S.EndNs, Child.EndNs));
    }
    std::sort(Cover.begin(), Cover.end());
    int64_t Covered = 0, Reach = S.StartNs;
    for (const auto &[Lo, Hi] : Cover) {
      const int64_t From = std::max(Lo, Reach);
      if (Hi > From) {
        Covered += Hi - From;
        Reach = Hi;
      }
    }
    Self[layerOf(S.Name)] += (S.EndNs - S.StartNs) - Covered;
  }
  if (NumRoots)
    *NumRoots = Roots;
  return Self;
}

int64_t SpanLog::totalNs(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(M);
  int64_t Total = 0;
  for (const Span &S : Spans)
    if (Name == S.Name)
      Total += S.EndNs - S.StartNs;
  return Total;
}

bool SpanLog::write(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(M);
  std::ofstream OS(Path);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    OS << "{\"id\":" << I << ",\"name\":\"" << S.Name << "\",\"op\":" << S.Op
       << ",\"parent\":" << S.Parent << ",\"start_ns\":" << S.StartNs
       << ",\"end_ns\":" << S.EndNs << "}\n";
  }
  return static_cast<bool>(OS);
}

} // namespace perfbench
