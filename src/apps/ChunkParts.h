//===- apps/ChunkParts.h - Accepted chunk buffers, joined once --*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The output side of the initializer/finalizer iterate form: each
/// validated finalizer moves its chunk's buffer into a `ChunkParts`,
/// and after the run one exact-size concatenation builds the output.
/// The output is allocated once and each element copied into it once;
/// appending every chunk to one growing vector instead recopied the
/// output at each growth step, serially, on the validator.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_APPS_CHUNKPARTS_H
#define SPECPAR_APPS_CHUNKPARTS_H

#include <cstddef>
#include <utility>
#include <vector>

namespace specpar {
namespace apps {

/// Accepted chunk buffers, in finalize order.
template <class T> class ChunkParts {
public:
  /// Appends \p Part as the next part. A finalizer may move its local
  /// in: the runtime never reads a finalized local again.
  void take(std::vector<T> &&Part) {
    Size += Part.size();
    Parts.push_back(std::move(Part));
  }

  /// The parts in finalize order, in one allocation of exactly their
  /// total size.
  std::vector<T> concat() const {
    std::vector<T> Out;
    Out.reserve(Size);
    for (const std::vector<T> &P : Parts)
      Out.insert(Out.end(), P.begin(), P.end());
    return Out;
  }

  /// The parts in reverse finalize order, each reversed, in one
  /// allocation of exactly their total size: the output of a run that
  /// walks its input from the top down.
  std::vector<T> concatReversed() const {
    std::vector<T> Out;
    Out.reserve(Size);
    for (auto P = Parts.rbegin(); P != Parts.rend(); ++P)
      Out.insert(Out.end(), P->rbegin(), P->rend());
    return Out;
  }

private:
  std::vector<std::vector<T>> Parts;
  size_t Size = 0;
};

} // namespace apps
} // namespace specpar

#endif // SPECPAR_APPS_CHUNKPARTS_H
