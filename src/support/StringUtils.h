//===- support/StringUtils.h - Small string helpers -------------*- C++ -*-===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A handful of string helpers shared by the front end, the benchmark
/// harnesses and the tests.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_SUPPORT_STRINGUTILS_H
#define SPECPAR_SUPPORT_STRINGUTILS_H

#include <string>
#include <string_view>
#include <vector>

namespace specpar {

/// Splits \p Text on \p Sep; empty pieces are kept.
std::vector<std::string> splitString(std::string_view Text, char Sep);

/// Joins \p Pieces with \p Sep.
std::string joinStrings(const std::vector<std::string> &Pieces,
                        std::string_view Sep);

/// Strips leading and trailing ASCII whitespace.
std::string_view trimString(std::string_view Text);

/// True if \p Text starts with \p Prefix.
bool startsWith(std::string_view Text, std::string_view Prefix);

/// printf-style formatting into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Reads a whole file into a string. Returns false on I/O failure.
bool readFileToString(const std::string &Path, std::string &Out);

/// Writes a string to a file. Returns false on I/O failure.
bool writeStringToFile(const std::string &Path, std::string_view Data);

/// Publishes \p Data at \p Path atomically: writes a temp file next to
/// it (named from the pid and a process-wide counter, so concurrent
/// writers never share one; rename() must not cross filesystems), then
/// rename()s it over \p Path. Readers see the old file or the whole new
/// one, never a prefix. Returns false, leaving no temp file, on any I/O
/// failure.
bool writeFileAtomic(const std::string &Path, std::string_view Data);

} // namespace specpar

#endif // SPECPAR_SUPPORT_STRINGUTILS_H
