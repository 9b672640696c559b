//===- runtime/Telemetry.cpp - Speculation event tracing ------------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Telemetry.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <map>

using namespace specpar;
using namespace specpar::rt;

const char *specpar::rt::specEventKindName(SpecEventKind K) {
  switch (K) {
  case SpecEventKind::Dispatch:
    return "dispatch";
  case SpecEventKind::Start:
    return "start";
  case SpecEventKind::Finish:
    return "finish";
  case SpecEventKind::Cancel:
    return "cancel";
  case SpecEventKind::Chain:
    return "chain";
  case SpecEventKind::ValidateAccept:
    return "validate-accept";
  case SpecEventKind::Mispredict:
    return "mispredict";
  case SpecEventKind::Reexecute:
    return "re-execute";
  case SpecEventKind::Finalize:
    return "finalize";
  case SpecEventKind::Degrade:
    return "degrade";
  case SpecEventKind::Timeout:
    return "timeout";
  case SpecEventKind::Autotune:
    return "autotune";
  case SpecEventKind::ProfileSeed:
    return "profile-seed";
  case SpecEventKind::PredictorSwitch:
    return "predictor-switch";
  case SpecEventKind::CrashContained:
    return "crash-contained";
  case SpecEventKind::RunawayCancel:
    return "runaway-cancel";
  }
  return "unknown";
}

namespace {

/// Each Tracer instance ever constructed gets a distinct serial so the
/// per-thread ring cache below can never alias a dead tracer's ring with
/// a new tracer allocated at the same address.
std::atomic<uint64_t> NextTracerSerial{1};

struct RingCache {
  uint64_t TracerSerial = 0;
  void *Ring = nullptr;
};
thread_local RingCache TLRingCache;

} // namespace

Tracer::Tracer(size_t RingCapacity)
    : Epoch(std::chrono::steady_clock::now()),
      Capacity(RingCapacity < 16 ? 16 : RingCapacity),
      Serial(NextTracerSerial.fetch_add(1, std::memory_order_relaxed)) {}

Tracer::~Tracer() = default;

Tracer::Ring &Tracer::myRing() {
  if (TLRingCache.TracerSerial == Serial)
    return *static_cast<Ring *>(TLRingCache.Ring);
  std::lock_guard<std::mutex> Lock(RegistryM);
  const std::thread::id Self = std::this_thread::get_id();
  for (const auto &R : Rings)
    if (R->Owner == Self) {
      TLRingCache = {Serial, R.get()};
      return *R;
    }
  Rings.push_back(std::make_unique<Ring>());
  Ring &R = *Rings.back();
  R.Slots.resize(Capacity);
  R.Owner = Self;
  R.ThreadId = static_cast<uint32_t>(Rings.size() - 1);
  TLRingCache = {Serial, &R};
  return R;
}

void Tracer::record(SpecEventKind Kind, int64_t Index, uint64_t AttemptId,
                    TraceContext Ctx) {
  Ring &R = myRing();
  SpecEvent E;
  E.Seq = NextSeq.fetch_add(1, std::memory_order_relaxed) + 1;
  E.TimeNs = nowNs();
  E.AttemptId = AttemptId;
  E.JobId = Ctx.TraceId;
  E.Index = Index;
  E.SpanId = Ctx.SpanId;
  E.ThreadId = R.ThreadId;
  E.Kind = Kind;
  E.Tenant = Ctx.Tenant;
  std::lock_guard<std::mutex> Lock(R.M);
  if (R.Recorded >= Capacity)
    ++R.Dropped; // The slot being reused still held an unread event.
  R.Slots[R.Recorded % Capacity] = E;
  ++R.Recorded;
}

uint64_t Tracer::Ring::firstSince(uint64_t SinceNs) const {
  // Only the owning thread appends, stamping a steady clock, so TimeNs
  // never decreases along a ring.
  const uint64_t Cap = Slots.size();
  uint64_t Lo = Recorded - std::min<uint64_t>(Recorded, Cap), Hi = Recorded;
  while (Lo < Hi) {
    const uint64_t Mid = Lo + (Hi - Lo) / 2;
    if (Slots[Mid % Cap].TimeNs < SinceNs)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return Lo;
}

void Tracer::forEachEvent(
    uint64_t SinceNs, const std::function<void(const SpecEvent &)> &Fn) const {
  std::lock_guard<std::mutex> Registry(RegistryM);
  for (const auto &R : Rings) {
    std::lock_guard<std::mutex> Lock(R->M);
    for (uint64_t I = R->firstSince(SinceNs); I < R->Recorded; ++I)
      Fn(R->Slots[I % Capacity]);
  }
}

std::optional<uint64_t> Tracer::oldestEventNs(uint64_t SinceNs) const {
  std::optional<uint64_t> Oldest;
  std::lock_guard<std::mutex> Registry(RegistryM);
  for (const auto &R : Rings) {
    std::lock_guard<std::mutex> Lock(R->M);
    const uint64_t I = R->firstSince(SinceNs);
    if (I < R->Recorded)
      Oldest = std::min(Oldest.value_or(UINT64_MAX),
                        R->Slots[I % Capacity].TimeNs);
  }
  return Oldest;
}

std::vector<SpecEvent> Tracer::snapshot(uint64_t SinceNs) const {
  std::vector<SpecEvent> Out;
  forEachEvent(SinceNs, [&Out](const SpecEvent &E) { Out.push_back(E); });
  std::sort(Out.begin(), Out.end(),
            [](const SpecEvent &A, const SpecEvent &B) { return A.Seq < B.Seq; });
  return Out;
}

uint64_t Tracer::droppedEvents() const {
  uint64_t Dropped = 0;
  std::lock_guard<std::mutex> Registry(RegistryM);
  for (const auto &R : Rings) {
    std::lock_guard<std::mutex> Lock(R->M);
    Dropped += R->Dropped;
  }
  return Dropped;
}

uint64_t Tracer::recordedEvents() const {
  uint64_t Recorded = 0;
  std::lock_guard<std::mutex> Registry(RegistryM);
  for (const auto &R : Rings) {
    std::lock_guard<std::mutex> Lock(R->M);
    Recorded += R->Recorded;
  }
  return Recorded;
}

std::string Tracer::summary() const {
  std::vector<SpecEvent> Events = snapshot();
  std::array<uint64_t, NumSpecEventKinds> Counts{};
  uint64_t MaxTimeNs = 0;
  uint32_t MaxThread = 0;
  for (const SpecEvent &E : Events) {
    ++Counts[static_cast<size_t>(E.Kind)];
    MaxTimeNs = std::max(MaxTimeNs, E.TimeNs);
    MaxThread = std::max(MaxThread, E.ThreadId);
  }
  std::string Out = formatString(
      "trace: %zu events over %.3f ms on %u thread(s)",
      Events.size(), static_cast<double>(MaxTimeNs) / 1e6,
      Events.empty() ? 0u : MaxThread + 1);
  for (size_t K = 0; K < Counts.size(); ++K)
    if (Counts[K])
      Out += formatString(" %s=%llu", specEventKindName(SpecEventKind(K)),
                          static_cast<unsigned long long>(Counts[K]));
  // Per-ring drop breakdown: overwrite loss is per recording thread, so
  // one hot thread's churn should be attributable.
  {
    std::lock_guard<std::mutex> Registry(RegistryM);
    uint64_t Total = 0;
    std::string Detail;
    for (const auto &R : Rings) {
      std::lock_guard<std::mutex> Lock(R->M);
      if (!R->Dropped)
        continue;
      Total += R->Dropped;
      Detail += formatString("%st%u=%llu", Detail.empty() ? "" : ",",
                             R->ThreadId,
                             static_cast<unsigned long long>(R->Dropped));
    }
    if (Total)
      Out += formatString(" dropped=%llu (%s)",
                          static_cast<unsigned long long>(Total),
                          Detail.c_str());
  }
  return Out;
}

void specpar::rt::writeChromeTraceEvents(std::ostream &OS,
                                         const std::vector<SpecEvent> &Events) {
  // Attempts become duration slices (start -> finish) on their executing
  // thread's row; everything else becomes an instant event. The JSON array
  // format needs no envelope and loads in chrome://tracing and Perfetto.
  struct Span {
    uint64_t StartNs = 0;
    bool HasStart = false;
    int64_t Index = 0;
    uint32_t ThreadId = 0;
    uint64_t JobId = 0;
    uint32_t SpanId = 0;
  };
  std::map<uint64_t, Span> OpenSpans;
  bool First = true;
  auto Emit = [&](const std::string &Obj) {
    OS << (First ? "[\n" : ",\n") << Obj;
    First = false;
  };
  auto MicrosOf = [](uint64_t Ns) { return static_cast<double>(Ns) / 1e3; };
  for (const SpecEvent &E : Events) {
    if (E.Kind == SpecEventKind::Start) {
      Span &S = OpenSpans[E.AttemptId];
      S.StartNs = E.TimeNs;
      S.HasStart = true;
      S.Index = E.Index;
      S.ThreadId = E.ThreadId;
      S.JobId = E.JobId;
      S.SpanId = E.SpanId;
      continue;
    }
    if (E.Kind == SpecEventKind::Finish) {
      auto It = OpenSpans.find(E.AttemptId);
      if (It != OpenSpans.end() && It->second.HasStart) {
        const Span &S = It->second;
        Emit(formatString(
            "{\"name\":\"attempt %llu (idx %lld)\",\"cat\":\"attempt\","
            "\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
            "\"args\":{\"attempt\":%llu,\"index\":%lld,\"job\":%llu,"
            "\"span\":%u}}",
            static_cast<unsigned long long>(E.AttemptId),
            static_cast<long long>(S.Index), MicrosOf(S.StartNs),
            MicrosOf(E.TimeNs - S.StartNs), S.ThreadId,
            static_cast<unsigned long long>(E.AttemptId),
            static_cast<long long>(S.Index),
            static_cast<unsigned long long>(E.JobId), E.SpanId));
        OpenSpans.erase(It);
        continue;
      }
      // A finish whose start was overwritten in the ring: fall through to
      // an instant marker so the event is still visible.
    }
    Emit(formatString(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
        "\"ts\":%.3f,\"pid\":1,\"tid\":%u,"
        "\"args\":{\"attempt\":%llu,\"index\":%lld,\"job\":%llu,\"span\":%u}}",
        specEventKindName(E.Kind), specEventKindName(E.Kind),
        MicrosOf(E.TimeNs), E.ThreadId,
        static_cast<unsigned long long>(E.AttemptId),
        static_cast<long long>(E.Index),
        static_cast<unsigned long long>(E.JobId), E.SpanId));
  }
  // Attempts whose finish hasn't happened (or was overwritten) by the
  // time the window was captured — e.g. the wedged job a quarantine
  // post-mortem is about — are the events such a dump exists to show.
  // Emit them as duration-begin events: viewers render an open slice.
  for (const auto &KV : OpenSpans) {
    const Span &S = KV.second;
    if (!S.HasStart)
      continue;
    Emit(formatString(
        "{\"name\":\"attempt %llu (idx %lld, unfinished)\","
        "\"cat\":\"attempt\",\"ph\":\"B\",\"ts\":%.3f,\"pid\":1,\"tid\":%u,"
        "\"args\":{\"attempt\":%llu,\"index\":%lld,\"job\":%llu,"
        "\"span\":%u}}",
        static_cast<unsigned long long>(KV.first),
        static_cast<long long>(S.Index), MicrosOf(S.StartNs), S.ThreadId,
        static_cast<unsigned long long>(KV.first),
        static_cast<long long>(S.Index),
        static_cast<unsigned long long>(S.JobId), S.SpanId));
  }
  OS << (First ? "[\n]\n" : "\n]\n");
}

void Tracer::writeChromeTrace(std::ostream &OS) const {
  writeChromeTraceEvents(OS, snapshot());
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  writeChromeTrace(OS);
  return static_cast<bool>(OS);
}
