//===- support/StringUtils.cpp - Small string helpers --------------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <fstream>

#include <unistd.h>

using namespace specpar;

std::vector<std::string> specpar::splitString(std::string_view Text,
                                              char Sep) {
  std::vector<std::string> Out;
  size_t Start = 0;
  for (size_t I = 0; I <= Text.size(); ++I) {
    if (I == Text.size() || Text[I] == Sep) {
      Out.emplace_back(Text.substr(Start, I - Start));
      Start = I + 1;
    }
  }
  return Out;
}

std::string specpar::joinStrings(const std::vector<std::string> &Pieces,
                                 std::string_view Sep) {
  std::string Out;
  for (size_t I = 0; I < Pieces.size(); ++I) {
    if (I != 0)
      Out += Sep;
    Out += Pieces[I];
  }
  return Out;
}

std::string_view specpar::trimString(std::string_view Text) {
  auto IsSpace = [](char C) {
    return C == ' ' || C == '\t' || C == '\n' || C == '\r';
  };
  size_t B = 0, E = Text.size();
  while (B < E && IsSpace(Text[B]))
    ++B;
  while (E > B && IsSpace(Text[E - 1]))
    --E;
  return Text.substr(B, E - B);
}

bool specpar::startsWith(std::string_view Text, std::string_view Prefix) {
  return Text.size() >= Prefix.size() &&
         Text.substr(0, Prefix.size()) == Prefix;
}

std::string specpar::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list Args2;
  va_copy(Args2, Args);
  int Len = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  std::string Out;
  if (Len > 0) {
    Out.resize(static_cast<size_t>(Len) + 1);
    std::vsnprintf(Out.data(), Out.size(), Fmt, Args2);
    Out.resize(static_cast<size_t>(Len));
  }
  va_end(Args2);
  return Out;
}

bool specpar::readFileToString(const std::string &Path, std::string &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  Out.clear();
  char Buf[1 << 14];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  bool Ok = !std::ferror(F);
  std::fclose(F);
  return Ok;
}

bool specpar::writeStringToFile(const std::string &Path,
                                std::string_view Data) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  size_t Written = std::fwrite(Data.data(), 1, Data.size(), F);
  bool Ok = Written == Data.size() && !std::ferror(F);
  std::fclose(F);
  return Ok;
}

bool specpar::writeFileAtomic(const std::string &Path, std::string_view Data) {
  static std::atomic<uint64_t> TmpCounter{0};
  const std::string Tmp =
      Path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(TmpCounter.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out.write(Data.data(), static_cast<std::streamsize>(Data.size()));
    Out.flush();
    if (!Out) {
      Out.close();
      std::remove(Tmp.c_str());
      return false;
    }
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}
