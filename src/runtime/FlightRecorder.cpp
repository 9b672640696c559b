//===- runtime/FlightRecorder.cpp - Always-on post-mortem tracing ---------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/FlightRecorder.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <sstream>

using namespace specpar;
using namespace specpar::rt;

namespace {

/// Filenames carry the anomaly reason; keep them shell- and URL-safe.
std::string slugify(const std::string &S) {
  std::string Out;
  for (char C : S)
    Out += (std::isalnum(static_cast<unsigned char>(C)) || C == '-' ||
            C == '_')
               ? C
               : '-';
  return Out.empty() ? std::string("anomaly") : Out;
}

} // namespace

FlightRecorder::FlightRecorder() : FlightRecorder(Options()) {}

FlightRecorder::FlightRecorder(Options O)
    : Opts(std::move(O)), T(Opts.RingCapacity) {}

uint64_t FlightRecorder::cutoffNs(uint64_t NowNs) const {
  const uint64_t Window = static_cast<uint64_t>(Opts.Retain.count());
  return NowNs > Window ? NowNs - Window : 0;
}

std::vector<SpecEvent> FlightRecorder::recentEvents() const {
  return T.snapshot(cutoffNs(T.elapsedNs()));
}

void FlightRecorder::forEachRecentEvent(
    const std::function<void(const SpecEvent &)> &Fn) const {
  T.forEachEvent(cutoffNs(T.elapsedNs()), Fn);
}

std::chrono::nanoseconds FlightRecorder::windowSpan() const {
  const uint64_t Now = T.elapsedNs();
  const std::optional<uint64_t> Oldest = T.oldestEventNs(cutoffNs(Now));
  // An event recorded after Now was read is younger than the window.
  if (!Oldest || *Oldest >= Now)
    return std::chrono::nanoseconds(0);
  return std::min(std::chrono::nanoseconds(Now - *Oldest), Opts.Retain);
}

FlightRecorder::DumpResult FlightRecorder::dump(const std::string &Reason,
                                                const std::string &Detail) {
  Requests.fetch_add(1, std::memory_order_relaxed);
  DumpResult R;
  if (Opts.DumpDir.empty())
    return R;

  std::lock_guard<std::mutex> Lock(DumpM);
  const uint64_t Now = T.elapsedNs();
  if (LastDumpNs != 0 &&
      Now - LastDumpNs < static_cast<uint64_t>(Opts.MinDumpGap.count()))
    return R; // Burst of anomalies; first dump already has the window.

  std::error_code EC;
  std::filesystem::create_directories(Opts.DumpDir, EC);
  // A pre-existing directory is fine; any other failure surfaces below
  // as a write failure.

  const std::vector<SpecEvent> Events = recentEvents();
  const std::string Stem =
      formatString("%s/flight-%s-%04llu-%s", Opts.DumpDir.c_str(),
                   Opts.Label.c_str(),
                   static_cast<unsigned long long>(DumpSeq),
                   slugify(Reason).c_str());

  std::ostringstream Trace;
  writeChromeTraceEvents(Trace, Events);

  std::ostringstream Sum;
  Sum << "flight dump " << Opts.Label << " #" << DumpSeq
      << " reason=" << Reason << "\n";
  if (!Detail.empty())
    Sum << "detail: " << Detail << "\n";
  Sum << "retained: " << Events.size() << " events, window "
      << Opts.Retain.count() / 1000000 << " ms, now " << Now << " ns\n";
  Sum << T.summary() << "\n";
  const size_t Tail = Events.size() > 64 ? Events.size() - 64 : 0;
  if (Tail)
    Sum << "... (" << Tail << " earlier events in the trace file)\n";
  for (size_t I = Tail; I < Events.size(); ++I) {
    const SpecEvent &E = Events[I];
    Sum << formatString("  t=%10.3fus th=%u %-16s attempt=%llu idx=%lld",
                        static_cast<double>(E.TimeNs) / 1e3, E.ThreadId,
                        specEventKindName(E.Kind),
                        static_cast<unsigned long long>(E.AttemptId),
                        static_cast<long long>(E.Index));
    if (E.JobId)
      Sum << formatString(" job=%llu span=%u",
                          static_cast<unsigned long long>(E.JobId), E.SpanId);
    Sum << "\n";
  }

  const std::string TracePath = Stem + ".trace.json";
  const std::string SummaryPath = Stem + ".txt";
  if (!writeFileAtomic(TracePath, Trace.str()))
    return R;
  if (!writeFileAtomic(SummaryPath, Sum.str()))
    return R;

  LastDumpNs = Now;
  ++DumpSeq;
  Written.fetch_add(1, std::memory_order_relaxed);
  R.Written = true;
  R.TracePath = TracePath;
  R.SummaryPath = SummaryPath;
  return R;
}
