//===- tests/profile_test.cpp - Profile-guided prediction tests -----------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The ProfileStore persistence contracts (round-trip determinism, atomic
// publication, tolerant loading of damaged files) and the engine-side
// warm path: chunk/predictor seeding on warm runs, online predictor
// switching at degrade trips, and the run-end accounting that feeds it
// all back into the store.
//
//===----------------------------------------------------------------------===//

#include "runtime/ProfileStore.h"
#include "runtime/Speculation.h"
#include "runtime/Telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace specpar;
using namespace specpar::rt;

namespace {

/// A unique file path under gtest's temp dir, removed on destruction.
struct TempFile {
  explicit TempFile(const std::string &Stem)
      : Path(testing::TempDir() + "specpar_" + Stem + "_" +
             std::to_string(reinterpret_cast<uintptr_t>(this)) + ".json") {
    std::remove(Path.c_str());
  }
  ~TempFile() { std::remove(Path.c_str()); }
  const std::string Path;
};

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

void spew(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
}

ProfileStore::RunObservation obsWith(int64_t Chunk, int64_t UserHits,
                                     int64_t UserMisses) {
  ProfileStore::RunObservation Obs;
  Obs.FinalChunk = Chunk;
  Obs.Predictions = UserHits + UserMisses;
  Obs.BadPredictions = UserMisses;
  Obs.Predictors.emplace_back("user", PredictorProfile{UserHits, UserMisses});
  return Obs;
}

int countEvents(const std::vector<SpecEvent> &Events, SpecEventKind K) {
  int C = 0;
  for (const SpecEvent &E : Events)
    C += E.Kind == K;
  return C;
}

const SpecEvent *findEvent(const std::vector<SpecEvent> &Events,
                           SpecEventKind K) {
  for (const SpecEvent &E : Events)
    if (E.Kind == K)
      return &E;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// ProfileStore core
//===----------------------------------------------------------------------===//

TEST(ProfileStore, ColdSiteSeedsNothing) {
  ProfileStore Store;
  EXPECT_EQ(Store.seedChunk("never-seen"), 0);
  EXPECT_EQ(Store.bestPredictor("never-seen"), "");
  EXPECT_EQ(Store.site("never-seen").Runs, 0);
  EXPECT_EQ(Store.size(), 0u);
}

TEST(ProfileStore, RecordRunFoldsAndSeeds) {
  ProfileStore Store;
  Store.recordRun("lex.main", obsWith(/*Chunk=*/512, /*Hits=*/20, /*Miss=*/2));
  Store.recordRun("lex.main", obsWith(/*Chunk=*/640, /*Hits=*/30, /*Miss=*/1));

  SiteProfile S = Store.site("lex.main");
  EXPECT_EQ(S.Runs, 2);
  EXPECT_EQ(S.ChunkSize, 640); // most recent converged value wins
  EXPECT_EQ(S.Predictions, 53);
  EXPECT_EQ(S.BadPredictions, 3);
  EXPECT_EQ(S.Predictors.at("user").Hits, 50);
  EXPECT_EQ(S.Predictors.at("user").Misses, 3);
  EXPECT_EQ(Store.seedChunk("lex.main"), 640);
  EXPECT_EQ(Store.bestPredictor("lex.main"), "user");
}

TEST(ProfileStore, AutotuneOffRunsNeverClobberChunk) {
  ProfileStore Store;
  Store.recordRun("s", obsWith(256, 8, 0));
  // Plain-iterate / autotune-off runs report FinalChunk == 0; the
  // converged value from the autotuned run must survive them.
  Store.recordRun("s", obsWith(0, 8, 0));
  EXPECT_EQ(Store.seedChunk("s"), 256);
}

TEST(ProfileStore, BestPredictorNeedsEvidence) {
  ProfileStore Store;
  ProfileStore::RunObservation Obs;
  Obs.Predictors.emplace_back("last", PredictorProfile{3, 0});
  Store.recordRun("s", Obs);
  // 3 samples < the default floor of 8: too little to overrule the
  // caller's predictor.
  EXPECT_EQ(Store.bestPredictor("s"), "");
  EXPECT_EQ(Store.bestPredictor("s", /*MinSamples=*/2), "last");

  // Rate beats volume once the floor is met.
  ProfileStore::RunObservation Obs2;
  Obs2.Predictors.emplace_back("last", PredictorProfile{7, 0});
  Obs2.Predictors.emplace_back("user", PredictorProfile{60, 40});
  Store.recordRun("s", Obs2);
  EXPECT_EQ(Store.bestPredictor("s"), "last"); // 10/10 beats 60/100
}

TEST(ProfileStore, SaveLoadRoundTripIsDeterministic) {
  TempFile F1("roundtrip1"), F2("roundtrip2");
  ProfileStore Store;
  Store.recordRun("lex.main", obsWith(512, 20, 2));
  ProfileStore::RunObservation Odd;
  Odd.FinalChunk = 7;
  Odd.DegradeTrips = 3;
  Odd.PredictorSwitches = 1;
  Odd.Predictors.emplace_back("stride", PredictorProfile{5, 9});
  // Site names are arbitrary user strings: exercise the escaper.
  Store.recordRun("weird \"site\"\\with\nnasties\t\x01", Odd);
  ASSERT_TRUE(Store.save(F1.Path));

  ProfileStore Loaded;
  ASSERT_TRUE(Loaded.load(F1.Path));
  ASSERT_EQ(Loaded.size(), 2u);
  EXPECT_EQ(Loaded.sites(), Store.sites());
  SiteProfile S = Loaded.site("lex.main");
  EXPECT_EQ(S.Runs, 1);
  EXPECT_EQ(S.ChunkSize, 512);
  EXPECT_EQ(S.Predictors.at("user").Hits, 20);
  SiteProfile W = Loaded.site("weird \"site\"\\with\nnasties\t\x01");
  EXPECT_EQ(W.DegradeTrips, 3);
  EXPECT_EQ(W.PredictorSwitches, 1);
  EXPECT_EQ(W.Predictors.at("stride").Misses, 9);

  // Byte-identical re-serialization: the format has one canonical
  // rendering, so save(load(save(x))) is a fixed point.
  ASSERT_TRUE(Loaded.save(F2.Path));
  EXPECT_EQ(slurp(F1.Path), slurp(F2.Path));
}

TEST(ProfileStore, DamagedFilesLoadAsColdAndKeepPriorContents) {
  TempFile F("damaged");
  ProfileStore Seeded;
  Seeded.recordRun("keep-me", obsWith(128, 10, 0));

  // Missing file.
  EXPECT_FALSE(Seeded.load(F.Path + ".does-not-exist"));
  // Not JSON at all.
  spew(F.Path, "definitely not json");
  EXPECT_FALSE(Seeded.load(F.Path));
  // Truncated mid-document: save a valid store, chop it.
  ProfileStore Full;
  Full.recordRun("a", obsWith(64, 5, 5));
  Full.recordRun("b", obsWith(32, 2, 1));
  ASSERT_TRUE(Full.save(F.Path));
  std::string Text = slurp(F.Path);
  ASSERT_GT(Text.size(), 10u);
  spew(F.Path, Text.substr(0, Text.size() / 2));
  EXPECT_FALSE(Seeded.load(F.Path));
  // Trailing garbage after a valid document.
  spew(F.Path, Text + "trailing");
  EXPECT_FALSE(Seeded.load(F.Path));
  // Version mismatch.
  spew(F.Path, "{\"version\":999,\"sites\":{}}");
  EXPECT_FALSE(Seeded.load(F.Path));
  // A \u escape above one byte, which the writer never emits.
  spew(F.Path, "{\"version\":1,\"sites\":{\"\\u20ac\":{\"runs\":1}}}");
  EXPECT_FALSE(Seeded.load(F.Path));

  // Every failed load left the store exactly as it was.
  EXPECT_EQ(Seeded.size(), 1u);
  EXPECT_EQ(Seeded.seedChunk("keep-me"), 128);

  // And the undamaged file still loads.
  spew(F.Path, Text);
  EXPECT_TRUE(Seeded.load(F.Path));
  EXPECT_EQ(Seeded.size(), 2u);
  EXPECT_EQ(Seeded.seedChunk("keep-me"), 0); // load replaces, not merges
}

TEST(ProfileStore, LoadRejectsOutOfRangeInteger) {
  TempFile F("overflow");
  ProfileStore Seeded;
  Seeded.recordRun("keep-me", obsWith(128, 10, 0));

  ProfileStore Valid;
  Valid.recordRun("a", obsWith(64, 5, 5));
  ASSERT_TRUE(Valid.save(F.Path));
  const std::string Text = slurp(F.Path);
  const std::string Runs = "\"runs\":1,";
  const size_t At = Text.find(Runs);
  ASSERT_NE(At, std::string::npos);
  // One past INT64_MAX on either side, and a 20-digit count.
  for (const char *Big : {"99999999999999999999", "9223372036854775808",
                          "-9223372036854775809"}) {
    std::string Bad = Text;
    Bad.replace(At, Runs.size(), "\"runs\":" + std::string(Big) + ",");
    spew(F.Path, Bad);
    EXPECT_FALSE(Seeded.load(F.Path)) << Big;
  }
  EXPECT_EQ(Seeded.size(), 1u);
  EXPECT_EQ(Seeded.seedChunk("keep-me"), 128);

  // The extremes themselves are in range.
  for (const char *Edge : {"9223372036854775807", "-9223372036854775808"}) {
    std::string Ok = Text;
    Ok.replace(At, Runs.size(), "\"runs\":" + std::string(Edge) + ",");
    spew(F.Path, Ok);
    EXPECT_TRUE(Seeded.load(F.Path)) << Edge;
  }
}

TEST(ProfileStore, ConcurrentRecordAndSaveNeverTearTheFile) {
  TempFile F("concurrent");
  ProfileStore Store;
  constexpr int Writers = 4, Rounds = 25;
  std::vector<std::thread> Threads;
  for (int W = 0; W < Writers; ++W)
    Threads.emplace_back([&, W] {
      const std::string Site = "site-" + std::to_string(W);
      for (int R = 0; R < Rounds; ++R) {
        Store.recordRun(Site, obsWith(/*Chunk=*/W + 1, /*Hits=*/1, 0));
        ASSERT_TRUE(Store.save(F.Path));
      }
    });
  // A concurrent reader: once the file exists, every load must see a
  // complete document (rename() publication is atomic).
  std::thread Reader([&] {
    ProfileStore Scratch;
    int Seen = 0;
    for (int R = 0; R < 200; ++R) {
      std::ifstream Probe(F.Path);
      if (!Probe.good())
        continue;
      Probe.close();
      ASSERT_TRUE(Scratch.load(F.Path));
      ++Seen;
    }
    (void)Seen;
  });
  for (auto &T : Threads)
    T.join();
  Reader.join();

  // After the dust settles, one more save publishes the full store and
  // a fresh load round-trips it.
  ASSERT_TRUE(Store.save(F.Path));
  ProfileStore Final;
  ASSERT_TRUE(Final.load(F.Path));
  ASSERT_EQ(Final.size(), static_cast<size_t>(Writers));
  for (int W = 0; W < Writers; ++W) {
    SiteProfile S = Final.site("site-" + std::to_string(W));
    EXPECT_EQ(S.Runs, Rounds);
    EXPECT_EQ(S.Predictors.at("user").Hits, Rounds);
  }
}

//===----------------------------------------------------------------------===//
// Engine integration: seeding, switching, recording
//===----------------------------------------------------------------------===//

/// Sequential oracle for the sum loop: Acc starts at 0, each iteration
/// adds I.
int64_t sumOracle(int64_t N) { return N * (N - 1) / 2; }
int64_t sumPredict(int64_t I) { return I * (I - 1) / 2; }

TEST(ProfileGuided, ColdRunRecordsWarmRunSeeds) {
  ProfileStore Store;
  const int64_t N = 4000;
  auto Body = [](int64_t I, int64_t In) {
    // A little work so the autotuner has something to measure.
    volatile int64_t Spin = 0;
    for (int K = 0; K < 40; ++K)
      Spin = Spin + K;
    (void)Spin;
    return In + I;
  };
  SpecExecutor Ex(2);
  SpecConfig Cfg = SpecConfig()
                       .executor(Ex)
                       .autotune(/*TargetMicros=*/100)
                       .profile(&Store)
                       .profileSite("sum.loop");

  // Cold: nothing to seed, but the run records its convergence.
  auto Cold = Speculation::iterateChunked<int64_t>(0, N, /*ChunkSize=*/16,
                                                   Body, sumPredict, Cfg);
  EXPECT_EQ(Cold.Value, sumOracle(N));
  EXPECT_EQ(Cold.Stats.ProfileSeeds, 0);
  SiteProfile S = Store.site("sum.loop");
  EXPECT_EQ(S.Runs, 1);
  EXPECT_GT(S.ChunkSize, 0);
  EXPECT_EQ(S.ChunkSize, Cold.Stats.FinalChunk);
  EXPECT_EQ(S.Predictions, Cold.Stats.Predictions);
  // The exact user predictor dominated its shadow rivals.
  EXPECT_EQ(Store.bestPredictor("sum.loop"), "user");

  // Warm: the run announces the seed and starts from the converged
  // chunk and the historically best candidate.
  Tracer Tr;
  SpecConfig Warm = Cfg;
  Warm.trace(&Tr);
  auto Run2 = Speculation::iterateChunked<int64_t>(0, N, /*ChunkSize=*/16,
                                                   Body, sumPredict, Warm);
  EXPECT_EQ(Run2.Value, sumOracle(N));
  EXPECT_EQ(Run2.Stats.ProfileSeeds, 1);
  auto Events = Tr.snapshot();
  const SpecEvent *Seed = findEvent(Events, SpecEventKind::ProfileSeed);
  ASSERT_NE(Seed, nullptr);
  // First-wave chunk == the cold run's converged chunk, exactly (the
  // acceptance bar is within 5%; seeding from the store is bit-equal).
  EXPECT_EQ(Seed->Index, S.ChunkSize);
  EXPECT_EQ(Store.site("sum.loop").Runs, 2);
}

TEST(ProfileGuided, WarmRunAdoptsLastValuePredictorAndStopsMispredicting) {
  ProfileStore Store;
  const int64_t N = 400, Chunk = 10;
  // The loop-carried value is the constant 7; the user predictor knows
  // the initial value but guesses wrong everywhere else.
  auto Body = [](int64_t, int64_t In) { return In; };
  auto BadPredict = [](int64_t I) -> int64_t { return I == 0 ? 7 : -1; };
  SpecExecutor Ex(2);
  SpecConfig Cfg =
      SpecConfig().executor(Ex).profile(&Store).profileSite("const.loop");

  auto Cold = Speculation::iterateChunked<int64_t>(0, N, Chunk, Body,
                                                   BadPredict, Cfg);
  EXPECT_EQ(Cold.Value, 7);
  EXPECT_GT(Cold.Stats.Mispredictions, 8); // every real prediction wrong
  // Shadow scoring saw last-value hitting every segment.
  EXPECT_EQ(Store.bestPredictor("const.loop"), "last");

  Tracer Tr;
  SpecConfig Warm = Cfg;
  Warm.trace(&Tr);
  auto Run2 = Speculation::iterateChunked<int64_t>(0, N, Chunk, Body,
                                                   BadPredict, Warm);
  EXPECT_EQ(Run2.Value, 7);
  EXPECT_EQ(Run2.Stats.ProfileSeeds, 1);
  EXPECT_EQ(Run2.Stats.Mispredictions, 0); // last-value is exact here
  const std::vector<SpecEvent> Events = Tr.snapshot();
  const SpecEvent *Seed = findEvent(Events, SpecEventKind::ProfileSeed);
  ASSERT_NE(Seed, nullptr);
  EXPECT_EQ(Seed->AttemptId, 1u); // candidate id 1 == "last"
}

TEST(ProfileGuided, DegradeTripSwitchesPredictorInsteadOfGoingSequential) {
  ProfileStore Store; // cold: the run starts on the (bad) user predictor
  const int64_t N = 2000, Chunk = 10;
  auto Body = [](int64_t, int64_t In) { return In; };
  auto BadPredict = [](int64_t I) -> int64_t { return I == 0 ? 7 : -1; };
  Tracer Tr;
  SpecExecutor Ex(2);
  SpecConfig Cfg = SpecConfig()
                       .executor(Ex)
                       .degrade(/*MaxBadRate=*/0.5, /*Window=*/8)
                       .profile(&Store)
                       .profileSite("switchy")
                       .trace(&Tr);

  auto R = Speculation::iterateChunked<int64_t>(0, N, Chunk, Body, BadPredict,
                                                Cfg);
  EXPECT_EQ(R.Value, 7);
  // The trip was absorbed by a predictor switch: speculation continued.
  EXPECT_GE(R.Stats.PredictorSwitches, 1);
  EXPECT_EQ(R.Stats.DegradedChunks, 0);
  auto Events = Tr.snapshot();
  EXPECT_EQ(countEvents(Events, SpecEventKind::Degrade), 0);
  EXPECT_EQ(countEvents(Events, SpecEventKind::PredictorSwitch),
            static_cast<int>(R.Stats.PredictorSwitches));
  // The store remembers both the trip and the switch.
  SiteProfile S = Store.site("switchy");
  EXPECT_GE(S.DegradeTrips, 1);
  EXPECT_EQ(S.PredictorSwitches, R.Stats.PredictorSwitches);
}

TEST(ProfileGuided, UnpredictableSiteStillDegradesAfterSwitchesExhaust) {
  ProfileStore Store;
  const int64_t N = 600, Chunk = 4;
  // An LCG-evolving carried value: neither last-value nor stride can
  // track it, and the user predictor is deliberately wrong too.
  auto Body = [](int64_t, uint64_t In) {
    return In * 6364136223846793005ULL + 1442695040888963407ULL;
  };
  auto BadPredict = [](int64_t I) -> uint64_t { return I == 0 ? 1 : 0; };
  Tracer Tr;
  SpecExecutor Ex(2);
  SpecConfig Cfg = SpecConfig()
                       .executor(Ex)
                       .degrade(/*MaxBadRate=*/0.5, /*Window=*/8)
                       .profile(&Store)
                       .profileSite("hopeless")
                       .trace(&Tr);

  auto R = Speculation::iterateChunked<uint64_t>(0, N, Chunk, Body, BadPredict,
                                                 Cfg);
  // Sequential oracle.
  uint64_t Want = 1;
  for (int64_t I = 0; I < N; ++I)
    Want = Want * 6364136223846793005ULL + 1442695040888963407ULL;
  EXPECT_EQ(R.Value, Want);
  // No candidate could clear the majority-hit-rate bar, so the run fell
  // back to sequential exactly as it would without profiling.
  EXPECT_EQ(R.Stats.PredictorSwitches, 0);
  EXPECT_GT(R.Stats.DegradedChunks, 0);
  EXPECT_GE(countEvents(Tr.snapshot(), SpecEventKind::Degrade), 1);
  EXPECT_GE(Store.site("hopeless").DegradeTrips, 1);
}

TEST(ProfileGuided, PlainIterateSeedsPredictorOnly) {
  ProfileStore Store;
  const int64_t N = 60;
  auto Body = [](int64_t, int64_t In) { return In; };
  auto BadPredict = [](int64_t I) -> int64_t { return I == 0 ? 3 : -1; };
  SpecExecutor Ex(2);
  SpecConfig Cfg =
      SpecConfig().executor(Ex).profile(&Store).profileSite("plain");

  auto Cold = Speculation::iterate<int64_t>(0, N, Body, BadPredict, Cfg);
  EXPECT_EQ(Cold.Value, 3);
  // Plain iterate pins granularity: no chunk to converge or seed.
  EXPECT_EQ(Store.seedChunk("plain"), 0);
  EXPECT_EQ(Store.bestPredictor("plain"), "last");

  Tracer Tr;
  SpecConfig Warm = Cfg;
  Warm.trace(&Tr);
  auto Run2 = Speculation::iterate<int64_t>(0, N, Body, BadPredict, Warm);
  EXPECT_EQ(Run2.Value, 3);
  EXPECT_EQ(Run2.Stats.ProfileSeeds, 1);
  const std::vector<SpecEvent> Events = Tr.snapshot();
  const SpecEvent *Seed = findEvent(Events, SpecEventKind::ProfileSeed);
  ASSERT_NE(Seed, nullptr);
  EXPECT_EQ(Seed->Index, 0); // predictor-only seed
  EXPECT_EQ(Run2.Stats.Mispredictions, 0);
}

} // namespace
