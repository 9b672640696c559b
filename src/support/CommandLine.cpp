//===- support/CommandLine.cpp - Tiny argv parser ---------------------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"

#include "support/StringUtils.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>

using namespace specpar;

bool *ArgParser::flag(std::string Name, std::string Help) {
  FlagStore.push_back(std::make_unique<Flag>());
  Flag *F = FlagStore.back().get();
  F->Name = std::move(Name);
  F->Help = std::move(Help);
  Flags.push_back(F);
  return &F->Value;
}

int64_t *ArgParser::intOption(std::string Name, int64_t Default,
                              std::string Help, int64_t Min, int64_t Max) {
  IntStore.push_back(std::make_unique<IntOpt>());
  IntOpt *O = IntStore.back().get();
  O->Name = std::move(Name);
  O->Help = std::move(Help);
  O->Value = Default;
  O->Min = Min;
  O->Max = Max;
  IntOpts.push_back(O);
  return &O->Value;
}

std::string *ArgParser::strOption(std::string Name, std::string Default,
                                  std::string Help) {
  StrStore.push_back(std::make_unique<StrOpt>());
  StrOpt *O = StrStore.back().get();
  O->Name = std::move(Name);
  O->Help = std::move(Help);
  O->Value = std::move(Default);
  StrOpts.push_back(O);
  return &O->Value;
}

std::string *ArgParser::positional(std::string Placeholder,
                                   std::string Help) {
  PosStore.push_back(std::make_unique<Positional>());
  Positional *P = PosStore.back().get();
  P->Placeholder = std::move(Placeholder);
  P->Help = std::move(Help);
  P->Required = true;
  Positionals.push_back(P);
  return &P->Value;
}

std::string *ArgParser::optionalPositional(std::string Placeholder,
                                           std::string Default,
                                           std::string Help) {
  PosStore.push_back(std::make_unique<Positional>());
  Positional *P = PosStore.back().get();
  P->Placeholder = std::move(Placeholder);
  P->Help = std::move(Help);
  P->Value = std::move(Default);
  P->Required = false;
  Positionals.push_back(P);
  return &P->Value;
}

std::string ArgParser::helpText() const {
  std::string S = "usage: " + Program;
  for (const Flag *F : Flags)
    S += " [--" + F->Name + "]";
  for (const IntOpt *O : IntOpts)
    S += " [--" + O->Name + " N]";
  for (const StrOpt *O : StrOpts)
    S += " [--" + O->Name + " S]";
  for (const Positional *P : Positionals)
    S += P->Required ? " <" + P->Placeholder + ">"
                     : " [" + P->Placeholder + "]";
  S += "\n\n" + Description + "\n";
  auto Row = [&S](const std::string &Left, const std::string &Help) {
    S += formatString("  %-22s %s\n", Left.c_str(), Help.c_str());
  };
  for (const Positional *P : Positionals)
    Row(P->Placeholder, P->Help);
  for (const Flag *F : Flags)
    Row("--" + F->Name, F->Help);
  for (const IntOpt *O : IntOpts)
    Row("--" + O->Name + " N",
        O->Help + formatString(" (default %lld)",
                               static_cast<long long>(O->Value)));
  for (const StrOpt *O : StrOpts)
    Row("--" + O->Name + " S", O->Help + " (default " + O->Value + ")");
  Row("--help", "show this help");
  return S;
}

bool ArgParser::parse(int Argc, char **Argv) {
  size_t NextPositional = 0;
  auto Fail = [this](const std::string &Msg) {
    std::fprintf(stderr, "%s: %s\n%s", Program.c_str(), Msg.c_str(),
                 helpText().c_str());
    return false;
  };
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      SawHelp = true;
      std::fprintf(stderr, "%s", helpText().c_str());
      return false;
    }
    if (startsWith(Arg, "--")) {
      std::string Name = Arg.substr(2);
      std::string Inline;
      bool HasInline = false;
      size_t Eq = Name.find('=');
      if (Eq != std::string::npos) {
        Inline = Name.substr(Eq + 1);
        Name = Name.substr(0, Eq);
        HasInline = true;
      }
      bool Matched = false;
      for (Flag *F : Flags)
        if (F->Name == Name) {
          if (HasInline)
            return Fail("flag --" + Name + " takes no value");
          F->Value = true;
          Matched = true;
          break;
        }
      if (Matched)
        continue;
      auto TakeValue = [&](std::string &Out) {
        if (HasInline) {
          Out = Inline;
          return true;
        }
        if (I + 1 >= Argc)
          return false;
        Out = Argv[++I];
        return true;
      };
      for (IntOpt *O : IntOpts)
        if (O->Name == Name) {
          std::string V;
          if (!TakeValue(V))
            return Fail("--" + Name + " needs a value");
          char *End = nullptr;
          errno = 0;
          const long long Parsed = std::strtoll(V.c_str(), &End, 10);
          if (V.empty() || !End || *End != '\0' || errno == ERANGE)
            return Fail("--" + Name + " needs an integer, got '" + V + "'");
          if (Parsed < O->Min || Parsed > O->Max)
            return Fail(formatString("--%s must be in [%lld, %lld], got %lld",
                                     Name.c_str(),
                                     static_cast<long long>(O->Min),
                                     static_cast<long long>(O->Max),
                                     Parsed));
          O->Value = Parsed;
          Matched = true;
          break;
        }
      if (Matched)
        continue;
      for (StrOpt *O : StrOpts)
        if (O->Name == Name) {
          std::string V;
          if (!TakeValue(V))
            return Fail("--" + Name + " needs a value");
          O->Value = std::move(V);
          Matched = true;
          break;
        }
      if (!Matched)
        return Fail("unknown option --" + Name);
      continue;
    }
    if (NextPositional >= Positionals.size())
      return Fail("unexpected argument '" + Arg + "'");
    Positionals[NextPositional++]->Value = std::move(Arg);
  }
  for (size_t P = NextPositional; P < Positionals.size(); ++P)
    if (Positionals[P]->Required)
      return Fail("missing <" + Positionals[P]->Placeholder + ">");
  return true;
}
