//===- support/AllocCounter.cpp - Counting global operator new ------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/AllocCounter.h"

#include <atomic>
#include <cstdlib>
#include <new>

using namespace specpar;

namespace {
std::atomic<bool> Counting{false};
std::atomic<int64_t> Calls{0};
std::atomic<int64_t> Bytes{0};

void *countedAlloc(std::size_t Size) {
  if (Counting.load(std::memory_order_relaxed)) {
    Calls.fetch_add(1, std::memory_order_relaxed);
    Bytes.fetch_add(static_cast<int64_t>(Size), std::memory_order_relaxed);
  }
  if (Size == 0)
    Size = 1;
  if (void *P = std::malloc(Size))
    return P;
  throw std::bad_alloc();
}
} // namespace

void specpar::setAllocCounting(bool On) {
  Counting.store(On, std::memory_order_relaxed);
}

AllocCounts specpar::allocCounts() {
  return AllocCounts{Calls.load(std::memory_order_relaxed),
                     Bytes.load(std::memory_order_relaxed)};
}

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
