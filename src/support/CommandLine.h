//===- support/CommandLine.h - Tiny argv parser ------------------*- C++ -*-=//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small declarative argv parser for the example and benchmark binaries:
/// boolean flags (`--trace`), valued options (`--seed N`, `--seed=N`),
/// and positional arguments, with generated `--help` text.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_SUPPORT_COMMANDLINE_H
#define SPECPAR_SUPPORT_COMMANDLINE_H

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace specpar {

/// Declarative argv parser.
///
/// \code
///   ArgParser Args("mytool", "does things");
///   bool *Trace = Args.flag("trace", "print the execution trace");
///   int64_t *Seed = Args.intOption("seed", 1, "scheduler seed");
///   std::string *File = Args.positional("file.spec", "program to run");
///   if (!Args.parse(Argc, Argv))
///     return Args.helpRequested() ? 0 : 2;
/// \endcode
class ArgParser {
public:
  ArgParser(std::string ProgramName, std::string Description)
      : Program(std::move(ProgramName)), Description(std::move(Description)) {}

  /// Declares `--NAME`; returns storage that becomes true when present.
  bool *flag(std::string Name, std::string Help);

  /// Declares `--NAME <int>` (or `--NAME=<int>`) with a default. parse()
  /// rejects a value outside the inclusive range [\p Min, \p Max]; the
  /// default range is all of int64_t.
  int64_t *intOption(std::string Name, int64_t Default, std::string Help,
                     int64_t Min = std::numeric_limits<int64_t>::min(),
                     int64_t Max = std::numeric_limits<int64_t>::max());

  /// Declares `--NAME <str>` with a default.
  std::string *strOption(std::string Name, std::string Default,
                         std::string Help);

  /// Declares the next required positional argument.
  std::string *positional(std::string Placeholder, std::string Help);

  /// Declares an optional positional argument with a default.
  std::string *optionalPositional(std::string Placeholder,
                                  std::string Default, std::string Help);

  /// Parses argv. On failure prints a diagnostic (or the help text for
  /// `--help`) to stderr and returns false.
  bool parse(int Argc, char **Argv);

  /// True when parse() returned false because of `--help`.
  bool helpRequested() const { return SawHelp; }

  /// The generated usage/help text.
  std::string helpText() const;

private:
  struct Flag {
    std::string Name, Help;
    bool Value = false;
  };
  struct IntOpt {
    std::string Name, Help;
    int64_t Value = 0;
    int64_t Min = 0, Max = 0;
  };
  struct StrOpt {
    std::string Name, Help;
    std::string Value;
  };
  struct Positional {
    std::string Placeholder, Help;
    std::string Value;
    bool Required = true;
  };

  std::string Program, Description;
  // Deques keep pointers stable across declarations.
  std::vector<Flag *> Flags;
  std::vector<IntOpt *> IntOpts;
  std::vector<StrOpt *> StrOpts;
  std::vector<Positional *> Positionals;
  std::vector<std::unique_ptr<Flag>> FlagStore;
  std::vector<std::unique_ptr<IntOpt>> IntStore;
  std::vector<std::unique_ptr<StrOpt>> StrStore;
  std::vector<std::unique_ptr<Positional>> PosStore;
  bool SawHelp = false;
};

} // namespace specpar

#endif // SPECPAR_SUPPORT_COMMANDLINE_H
