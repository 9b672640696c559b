//===- runtime/ProfileStore.cpp - Persistent per-site run profiles --------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ProfileStore.h"

#include "support/Json.h"
#include "support/StringUtils.h"

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
  // live store exactly as it was. Any deviation from the writer's
  // schema — an unknown key, a non-integer count — fails the load.
  static constexpr std::pair<const char *, int64_t SiteProfile::*> Counts[] =
      {{"runs", &SiteProfile::Runs},
       {"chunk", &SiteProfile::ChunkSize},
       {"degrade_trips", &SiteProfile::DegradeTrips},
       {"switches", &SiteProfile::PredictorSwitches},
       {"predictions", &SiteProfile::Predictions},
       {"bad", &SiteProfile::BadPredictions}};
  std::map<std::string, SiteProfile> Parsed;
  int64_t Version = -1;
  JsonReader R(Text);
  auto Site = [&](const std::string &Name) {
    SiteProfile &SP = Parsed[Name];
    return R.object([&](const std::string &F) {
      for (const auto &[Key, Field] : Counts)
        if (F == Key)
          return R.integer(SP.*Field);
      return F == "predictors" && R.object([&](const std::string &Pred) {
               PredictorProfile &PP = SP.Predictors[Pred];
               return R.object([&](const std::string &PF) {
                 return (PF == "hits" && R.integer(PP.Hits)) ||
                        (PF == "misses" && R.integer(PP.Misses));
               });
             });
    });
  };
  const bool Ok = R.object([&](const std::string &Key) {
    return (Key == "version" && R.integer(Version)) ||
           (Key == "sites" && R.object(Site));
  }) && R.atEnd();
  if (!Ok || Version != kFormatVersion)
    return false;

  std::lock_guard<std::mutex> Lock(M);
  Sites = std::move(Parsed);
  return true;
}

} // namespace rt
} // namespace specpar
