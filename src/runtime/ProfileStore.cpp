//===- runtime/ProfileStore.cpp - Persistent per-site run profiles --------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ProfileStore.h"

#include "support/Json.h"
#include "support/StringUtils.h"

#include <cctype>
#include <fstream>
#include <sstream>

namespace specpar {
namespace rt {

//===----------------------------------------------------------------------===//
// In-memory accounting
//===----------------------------------------------------------------------===//

void ProfileStore::recordRun(const std::string &Site,
                             const RunObservation &Obs) {
  std::lock_guard<std::mutex> Lock(M);
  SiteProfile &P = Sites[Site];
  ++P.Runs;
  if (Obs.FinalChunk > 0)
    P.ChunkSize = Obs.FinalChunk;
  P.DegradeTrips += Obs.DegradeTrips;
  P.PredictorSwitches += Obs.PredictorSwitches;
  P.Predictions += Obs.Predictions;
  P.BadPredictions += Obs.BadPredictions;
  for (const auto &KV : Obs.Predictors) {
    PredictorProfile &PP = P.Predictors[KV.first];
    PP.Hits += KV.second.Hits;
    PP.Misses += KV.second.Misses;
  }
}

int64_t ProfileStore::seedChunk(const std::string &Site) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Sites.find(Site);
  return It == Sites.end() ? 0 : It->second.ChunkSize;
}

std::string ProfileStore::bestPredictor(const std::string &Site,
                                        int64_t MinSamples) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Sites.find(Site);
  if (It == Sites.end())
    return "";
  const std::string *Best = nullptr;
  double BestRate = -1.0;
  for (const auto &KV : It->second.Predictors) {
    if (KV.second.samples() < MinSamples)
      continue;
    const double Rate = KV.second.hitRate();
    // Strict >: on a tie the map's lexicographic order keeps the choice
    // deterministic across runs.
    if (Rate > BestRate) {
      BestRate = Rate;
      Best = &KV.first;
    }
  }
  return Best ? *Best : "";
}

SiteProfile ProfileStore::site(const std::string &Site) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Sites.find(Site);
  return It == Sites.end() ? SiteProfile{} : It->second;
}

std::vector<std::string> ProfileStore::sites() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<std::string> Names;
  Names.reserve(Sites.size());
  for (const auto &KV : Sites)
    Names.push_back(KV.first);
  return Names;
}

size_t ProfileStore::size() const {
  std::lock_guard<std::mutex> Lock(M);
  return Sites.size();
}

void ProfileStore::clear() {
  std::lock_guard<std::mutex> Lock(M);
  Sites.clear();
}

namespace {

//===----------------------------------------------------------------------===//
// JSON reader: a minimal recursive-descent parser for the subset the
// writer emits (objects, strings, integers). Any deviation — truncation,
// garbage, wrong types — fails the whole load; the caller then stays
// cold. Numbers are parsed without locale-sensitive library calls.
//===----------------------------------------------------------------------===//

struct JsonParser {
  const std::string &S;
  size_t Pos = 0;
  bool Failed = false;

  explicit JsonParser(const std::string &S) : S(S) {}

  void fail() { Failed = true; }

  void skipWs() {
    while (Pos < S.size() && std::isspace(static_cast<unsigned char>(S[Pos])))
      ++Pos;
  }

  bool consume(char C) {
    skipWs();
    if (Failed || Pos >= S.size() || S[Pos] != C) {
      fail();
      return false;
    }
    ++Pos;
    return true;
  }

  bool peek(char C) {
    skipWs();
    return !Failed && Pos < S.size() && S[Pos] == C;
  }

  std::string parseString() {
    std::string Out;
    if (!consume('"'))
      return Out;
    while (Pos < S.size() && S[Pos] != '"') {
      char C = S[Pos++];
      if (C == '\\') {
        if (Pos >= S.size()) {
          fail();
          return Out;
        }
        char E = S[Pos++];
        switch (E) {
        case '"':
          Out += '"';
          break;
        case '\\':
          Out += '\\';
          break;
        case '/':
          Out += '/';
          break;
        case 'n':
          Out += '\n';
          break;
        case 't':
          Out += '\t';
          break;
        case 'r':
          Out += '\r';
          break;
        case 'u': {
          if (Pos + 4 > S.size()) {
            fail();
            return Out;
          }
          unsigned V = 0;
          for (int I = 0; I < 4; ++I) {
            char H = S[Pos++];
            V <<= 4;
            if (H >= '0' && H <= '9')
              V |= static_cast<unsigned>(H - '0');
            else if (H >= 'a' && H <= 'f')
              V |= static_cast<unsigned>(H - 'a' + 10);
            else if (H >= 'A' && H <= 'F')
              V |= static_cast<unsigned>(H - 'A' + 10);
            else {
              fail();
              return Out;
            }
          }
          // The writer only escapes control characters, which fit one
          // byte; anything else is foreign input and fails the load.
          if (V > 0xFF) {
            fail();
            return Out;
          }
          Out += static_cast<char>(V);
          break;
        }
        default:
          fail();
          return Out;
        }
      } else {
        Out += C;
      }
    }
    if (Pos >= S.size()) {
      fail();
      return Out;
    }
    ++Pos; // closing quote
    return Out;
  }

  int64_t parseInt() {
    skipWs();
    if (Failed || Pos >= S.size()) {
      fail();
      return 0;
    }
    bool Neg = false;
    if (S[Pos] == '-') {
      Neg = true;
      ++Pos;
    }
    if (Pos >= S.size() ||
        !std::isdigit(static_cast<unsigned char>(S[Pos]))) {
      fail();
      return 0;
    }
    // Accumulated with the sign applied, so INT64_MIN parses; a value
    // out of int64_t range fails the load instead of overflowing.
    int64_t V = 0;
    while (Pos < S.size() &&
           std::isdigit(static_cast<unsigned char>(S[Pos]))) {
      const int Digit = S[Pos] - '0';
      if (__builtin_mul_overflow(V, 10, &V) ||
          (Neg ? __builtin_sub_overflow(V, Digit, &V)
               : __builtin_add_overflow(V, Digit, &V))) {
        fail();
        return 0;
      }
      ++Pos;
    }
    return V;
  }

  /// Parses `{ "key": <parseValue(key)>, ... }`; \p OnField is called
  /// with each key and must consume the value.
  template <typename FieldFn> void parseObject(FieldFn OnField) {
    if (!consume('{'))
      return;
    if (peek('}')) {
      ++Pos;
      return;
    }
    for (;;) {
      std::string Key = parseString();
      if (Failed || !consume(':'))
        return;
      OnField(Key);
      if (Failed)
        return;
      skipWs();
      if (peek(',')) {
        ++Pos;
        continue;
      }
      consume('}');
      return;
    }
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Persistence
//===----------------------------------------------------------------------===//

bool ProfileStore::save(const std::string &Path) const {
  auto Quoted = [](const std::string &S) {
    std::string Out;
    appendJsonString(Out, S);
    return Out;
  };
  std::ostringstream OS;
  {
    std::lock_guard<std::mutex> Lock(M);
    OS << "{\"version\":" << kFormatVersion << ",\"sites\":{";
    bool FirstSite = true;
    for (const auto &SKV : Sites) {
      if (!FirstSite)
        OS << ",";
      FirstSite = false;
      OS << Quoted(SKV.first);
      const SiteProfile &P = SKV.second;
      OS << ":{\"runs\":" << P.Runs << ",\"chunk\":" << P.ChunkSize
         << ",\"degrade_trips\":" << P.DegradeTrips
         << ",\"switches\":" << P.PredictorSwitches
         << ",\"predictions\":" << P.Predictions
         << ",\"bad\":" << P.BadPredictions << ",\"predictors\":{";
      bool FirstPred = true;
      for (const auto &PKV : P.Predictors) {
        if (!FirstPred)
          OS << ",";
        FirstPred = false;
        OS << Quoted(PKV.first);
        OS << ":{\"hits\":" << PKV.second.Hits
           << ",\"misses\":" << PKV.second.Misses << "}";
      }
      OS << "}}";
    }
    OS << "}}\n";
  }
  return writeFileAtomic(Path, OS.str());
}

bool ProfileStore::load(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  if (In.bad())
    return false;
  const std::string Text = Buf.str();

  // Parse into a scratch map first: a failure at any depth leaves the
  // live store exactly as it was.
  std::map<std::string, SiteProfile> Parsed;
  int64_t Version = -1;
  JsonParser P(Text);
  P.parseObject([&](const std::string &Key) {
    if (Key == "version") {
      Version = P.parseInt();
    } else if (Key == "sites") {
      P.parseObject([&](const std::string &SiteName) {
        SiteProfile &SP = Parsed[SiteName];
        P.parseObject([&](const std::string &F) {
          if (F == "runs")
            SP.Runs = P.parseInt();
          else if (F == "chunk")
            SP.ChunkSize = P.parseInt();
          else if (F == "degrade_trips")
            SP.DegradeTrips = P.parseInt();
          else if (F == "switches")
            SP.PredictorSwitches = P.parseInt();
          else if (F == "predictions")
            SP.Predictions = P.parseInt();
          else if (F == "bad")
            SP.BadPredictions = P.parseInt();
          else if (F == "predictors") {
            P.parseObject([&](const std::string &PredName) {
              PredictorProfile &PP = SP.Predictors[PredName];
              P.parseObject([&](const std::string &PF) {
                if (PF == "hits")
                  PP.Hits = P.parseInt();
                else if (PF == "misses")
                  PP.Misses = P.parseInt();
                else
                  P.fail();
              });
            });
          } else
            P.fail();
        });
      });
    } else {
      P.fail();
    }
  });
  P.skipWs();
  if (P.Failed || P.Pos != Text.size() || Version != kFormatVersion)
    return false;

  std::lock_guard<std::mutex> Lock(M);
  Sites = std::move(Parsed);
  return true;
}

} // namespace rt
} // namespace specpar
