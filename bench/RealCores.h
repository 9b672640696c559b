//===- bench/RealCores.h - Speedups measured on pinned real cores -*- C++ -*-=//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wall-clock harness shared by the speedup benches (fig6_speedup,
/// fig8_validation, datasize_scaling) and overhead_ablation:
///  * `CoreSet` pins the calling thread to the first P CPUs of the
///    inherited affinity mask and creates a P-worker executor, whose
///    workers inherit that mask. "P threads" therefore means P cores:
///    the validating caller runs its own unclaimed attempts, so an
///    unpinned P-worker executor really uses P+1 cores.
///  * `medianSeconds` times a callable as the median of kRepeats runs.
///  * `sampleProcesses` repeats a measurement in kProcesses processes, each
///    fork()ed from a parent that has started no thread (`runInChild`),
///    because the speedup one process sees can differ from the next
///    one's. Each child generates its own inputs and writes its samples
///    to a pipe.
///
/// A speedup is the median sequential time over the median speculative
/// time at P threads, both taken in the same process; the sequential
/// time is measured pinned to one CPU. Every speculative output is
/// compared with the sequential one, outside the timed region.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPAR_BENCH_REALCORES_H
#define SPECPAR_BENCH_REALCORES_H

#include "apps/SpeculativeHuffman.h"
#include "apps/SpeculativeLexing.h"
#include "apps/SpeculativeMwis.h"
#include "runtime/Speculation.h"
#include "support/Json.h"
#include "support/Timer.h"

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace specpar {
namespace bench {

/// The CPUs of the affinity mask the process inherited, read once at
/// construction (before any pin narrows it).
class CoreSet {
public:
  CoreSet() {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
      for (int C = 0; C < CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &Set))
          Cpus.push_back(C);
  }

  unsigned size() const { return static_cast<unsigned>(Cpus.size()); }

  /// Pins the calling thread to the first \p P CPUs of the set.
  void pin(unsigned P) const {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    for (unsigned I = 0; I < P && I < size(); ++I)
      CPU_SET(Cpus[I], &Set);
    if (sched_setaffinity(0, sizeof(Set), &Set) != 0)
      std::perror("sched_setaffinity");
  }

  /// pin(P), then a P-worker executor; its workers inherit the mask.
  std::shared_ptr<rt::SpecExecutor> executor(unsigned P) const {
    pin(P);
    return rt::SpecExecutor::create(P);
  }

  /// The paper's thread counts this host can pin: 1, then 2 and 4 up
  /// to size().
  std::vector<unsigned> paperThreads() const {
    std::vector<unsigned> Out;
    for (unsigned P : {1u, 2u, 4u})
      if (P == 1 || P <= size())
        Out.push_back(P);
    return Out;
  }

  /// The first \p P CPUs, comma-separated.
  std::string list(unsigned P) const {
    std::string Out;
    for (unsigned I = 0; I < P && I < size(); ++I)
      Out += (I ? "," : "") + std::to_string(Cpus[I]);
    return Out;
  }

private:
  std::vector<int> Cpus;
};

/// Timed runs per measurement, and processes per speedup table.
inline constexpr int kRepeats = 11, kProcesses = 5;

/// The \p Q quantile of \p V, interpolated between order statistics.
inline double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - static_cast<double>(Lo)) * (V[Hi] - V[Lo]);
}

inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

/// Median wall-clock seconds of kRepeats calls of \p Run. Each call's
/// result is handed to \p Check, and destroyed, after the clock stops.
template <class RunFn, class CheckFn>
double medianSeconds(RunFn &&Run, CheckFn &&Check) {
  std::vector<double> Seconds;
  for (int I = 0; I < kRepeats; ++I) {
    Timer T;
    auto Result = Run();
    Seconds.push_back(T.elapsedSeconds());
    Check(Result);
  }
  return median(std::move(Seconds));
}

template <class RunFn> double medianSeconds(RunFn &&Run) {
  return medianSeconds(Run, [](const auto &) {});
}

/// One cell of a speedup table, as one process measured it.
struct Sample {
  std::string Dataset;
  std::string Mode; ///< validation mode, "seq" or "par"
  int64_t Overlap = 0;
  unsigned Threads = 0;
  int Tasks = 0;
  double SeqSeconds = 0, SpecSeconds = 0, Mispredictions = 0;
};

/// What a bench measures for each dataset.
struct Grid {
  std::vector<unsigned> Threads;
  int TasksPerThread = 1;
  std::vector<rt::ValidationMode> Modes{rt::ValidationMode::Seq};
};

/// Measures one dataset in this process: the sequential baseline
/// `Seq()` pinned to one CPU, then `Spec(Tasks, Overlap, Cfg)` on P
/// pinned cores for every P of \p G, mode of \p G and overlap of
/// \p Overlaps. `Spec` returns its output and its misprediction count;
/// an output that differs from `Seq()`'s fails the measurement.
template <class SeqFn, class SpecFn>
bool measureDataset(const CoreSet &Cores, const Grid &G,
                    const std::string &Dataset,
                    const std::vector<int64_t> &Overlaps, SeqFn &&Seq,
                    SpecFn &&Spec, std::vector<Sample> &Out) {
  Cores.pin(1);
  const auto Oracle = Seq();
  const double SeqSeconds = medianSeconds(Seq);
  bool Ok = true;
  for (unsigned P : G.Threads) {
    rt::SpecConfig Cfg;
    Cfg.executor(Cores.executor(P));
    for (rt::ValidationMode M : G.Modes) {
      Cfg.mode(M);
      for (int64_t Overlap : Overlaps) {
        Sample S{Dataset, M == rt::ValidationMode::Seq ? "seq" : "par",
                 Overlap, P, static_cast<int>(P) * G.TasksPerThread};
        std::vector<double> Misses;
        S.SpecSeconds = medianSeconds(
            [&] { return Spec(S.Tasks, Overlap, Cfg); },
            [&](const auto &Got) {
              if (!(Got.first == Oracle)) {
                std::fprintf(stderr,
                             "MISMATCH: %s %s overlap %lld, %u threads\n",
                             Dataset.c_str(), S.Mode.c_str(),
                             static_cast<long long>(Overlap), P);
                Ok = false;
              }
              Misses.push_back(static_cast<double>(Got.second));
            });
        S.SeqSeconds = SeqSeconds;
        S.Mispredictions = median(Misses);
        Out.push_back(S);
      }
    }
  }
  return Ok;
}

/// measureDataset for the paper's three apps, each against its
/// sequential baseline. Huffman overlaps are in bytes.
inline bool lexCells(const CoreSet &Cores, const Grid &G,
                     const std::string &Dataset,
                     const std::vector<int64_t> &Overlaps,
                     const lexgen::Lexer &LX, std::string_view Text,
                     std::vector<Sample> &Out) {
  return measureDataset(
      Cores, G, Dataset, Overlaps,
      [&] { return apps::sequentialLex(LX, Text); },
      [&](int Tasks, int64_t Overlap, const rt::SpecConfig &Cfg) {
        apps::LexRun Run = apps::speculativeLex(LX, Text, Tasks, Overlap, Cfg);
        return std::pair(std::move(Run.Tokens), Run.Stats.Spec.Mispredictions);
      },
      Out);
}

inline bool decodeCells(const CoreSet &Cores, const Grid &G,
                        const std::string &Dataset,
                        const std::vector<int64_t> &Overlaps,
                        const huffman::Encoded &E, std::vector<Sample> &Out) {
  huffman::Decoder D(E.Code);
  huffman::BitReader In(E.Bytes, E.NumBits);
  return measureDataset(
      Cores, G, Dataset, Overlaps,
      [&] { return D.decodeAll(In, E.NumSymbols); },
      [&](int Tasks, int64_t Overlap, const rt::SpecConfig &Cfg) {
        apps::HuffmanRun Run =
            apps::speculativeDecode(D, In, Tasks, Overlap * 8, Cfg);
        return std::pair(std::move(Run.Decoded),
                         Run.Stats.Spec.Mispredictions);
      },
      Out);
}

inline bool mwisCells(const CoreSet &Cores, const Grid &G,
                      const std::string &Dataset,
                      const std::vector<int64_t> &Overlaps,
                      const std::vector<int64_t> &W,
                      std::vector<Sample> &Out) {
  return measureDataset(
      Cores, G, Dataset, Overlaps,
      [&] {
        std::vector<int32_t> Members;
        int64_t Weight = mwis::solveTwoPhase(W, &Members);
        return std::pair(Weight, std::move(Members));
      },
      [&](int Tasks, int64_t Overlap, const rt::SpecConfig &Cfg) {
        apps::MwisRun Run = apps::speculativeMwis(W, Tasks, Overlap, Cfg);
        return std::pair(std::pair(Run.Weight, std::move(Run.Members)),
                         Run.Stats.Spec.Mispredictions);
      },
      Out);
}

/// One cell of a speedup table across processes.
struct Cell {
  Sample Key; ///< the cell's coordinates; its timings are process 0's
  std::vector<double> Speedups, SeqSeconds, SpecSeconds, Mispredictions;
};

/// A dataset of a speedup table: its name, its overlaps, and how one
/// process generates and measures it (typically with one of the
/// `*Cells` functions above).
struct Row {
  std::string Name;
  std::vector<int64_t> Overlaps;
  std::function<bool(const Row &, std::vector<Sample> &)> Measure;
};

/// Runs \p Child in a process fork()ed from this one, which must not
/// have started a thread, and returns what the child wrote to the
/// stream it is handed. Returns nothing when the child failed: it
/// returned false, threw, or did not exit normally.
inline std::optional<std::string>
runInChild(const std::function<bool(std::FILE *Out)> &Child) {
  int Fd[2];
  if (pipe(Fd) != 0)
    return std::nullopt;
  std::fflush(nullptr);
  const pid_t Pid = fork();
  if (Pid < 0) {
    close(Fd[0]);
    close(Fd[1]);
    return std::nullopt;
  }
  if (Pid == 0) {
    close(Fd[0]);
    std::FILE *W = fdopen(Fd[1], "w");
    if (!W)
      _exit(1);
    bool Ok = false;
    try {
      Ok = Child(W);
    } catch (const std::exception &E) {
      std::fprintf(stderr, "error: %s\n", E.what());
    }
    Ok = std::fclose(W) == 0 && Ok;
    std::fflush(nullptr);
    _exit(Ok ? 0 : 1);
  }
  close(Fd[1]);
  std::string Out;
  char Buf[4096];
  for (ssize_t N; (N = read(Fd[0], Buf, sizeof(Buf))) != 0;) {
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0)
      break;
    Out.append(Buf, static_cast<size_t>(N));
  }
  close(Fd[0]);
  int Status = 0;
  waitpid(Pid, &Status, 0);
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    return std::nullopt;
  return Out;
}

/// Measures every row of \p Rows in kProcesses children, one after
/// another, each run with runInChild. Returns the cells, each with one
/// entry per process, or nothing when a child failed (a `Measure`
/// returned false, e.g. on an oracle mismatch).
inline std::vector<Cell> sampleProcesses(const std::vector<Row> &Rows) {
  std::vector<Cell> Cells;
  for (int K = 0; K < kProcesses; ++K) {
    std::optional<std::string> Out = runInChild([&](std::FILE *W) {
      std::vector<Sample> Samples;
      bool Ok = true;
      for (const Row &R : Rows)
        Ok = Ok && R.Measure(R, Samples);
      for (const Sample &S : Samples)
        std::fprintf(W, "%s %s %lld %u %d %.17g %.17g %.17g\n",
                     S.Dataset.c_str(), S.Mode.c_str(),
                     static_cast<long long>(S.Overlap), S.Threads, S.Tasks,
                     S.SeqSeconds, S.SpecSeconds, S.Mispredictions);
      return Ok;
    });
    std::istringstream In(Out ? *Out : std::string());
    Sample S;
    size_t I = 0;
    while (In >> S.Dataset >> S.Mode >> S.Overlap >> S.Threads >> S.Tasks >>
           S.SeqSeconds >> S.SpecSeconds >> S.Mispredictions) {
      if (K == 0)
        Cells.push_back(Cell{S, {}, {}, {}, {}});
      if (I >= Cells.size() || Cells[I].Key.Dataset != S.Dataset)
        break;
      Cell &C = Cells[I++];
      C.Speedups.push_back(S.SeqSeconds / S.SpecSeconds);
      C.SeqSeconds.push_back(S.SeqSeconds);
      C.SpecSeconds.push_back(S.SpecSeconds);
      C.Mispredictions.push_back(S.Mispredictions);
    }
    if (!Out || I != Cells.size()) {
      std::fprintf(stderr, "error: measuring process %d failed\n", K);
      return {};
    }
  }
  return Cells;
}

/// The cell at the given coordinates, or null if it was not measured.
inline const Cell *findCell(const std::vector<Cell> &Cells,
                            const std::string &Dataset,
                            const std::string &Mode, int64_t Overlap,
                            unsigned Threads) {
  for (const Cell &C : Cells)
    if (C.Key.Dataset == Dataset && C.Key.Mode == Mode &&
        C.Key.Overlap == Overlap && C.Key.Threads == Threads)
      return &C;
  return nullptr;
}

inline std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      const size_t C = Line.find(':');
      return C == std::string::npos ? Line : Line.substr(C + 2);
    }
  return "unknown";
}

/// Writes the host, the protocol and every cell to \p Path.
inline bool writeSpeedupJson(const std::string &Path, const char *Bench,
                             const CoreSet &Cores,
                             const std::vector<Cell> &Cells) {
  auto Num = [](double V) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.4g", V);
    return std::string(Buf);
  };
  std::string J = "{\n  \"bench\": ";
  appendJsonString(J, Bench);
  J += ",\n  \"host\": {\"nproc\": " +
       std::to_string(std::thread::hardware_concurrency()) +
       ", \"cpu_model\": ";
  appendJsonString(J, cpuModel());
  J += ", \"affinity\": ";
  appendJsonString(J, Cores.list(Cores.size()));
  J += "},\n  \"repeats\": " + std::to_string(kRepeats) +
       ",\n  \"processes\": " + std::to_string(kProcesses) +
       ",\n  \"checked_runs\": " +
       std::to_string(Cells.size() * kProcesses * kRepeats) +
       ",\n  \"speedup\": \"per process: median sequential time pinned to "
       "one CPU / median speculative time pinned to the first `threads` "
       "CPUs of `affinity` with a `threads`-worker executor\",\n"
       "  \"cells\": [\n";
  for (size_t I = 0; I < Cells.size(); ++I) {
    const Cell &C = Cells[I];
    J += "    {\"dataset\": ";
    appendJsonString(J, C.Key.Dataset);
    J += ", \"mode\": \"" + C.Key.Mode +
         "\", \"overlap\": " + std::to_string(C.Key.Overlap) +
         ", \"threads\": " + std::to_string(C.Key.Threads) +
         ", \"tasks\": " + std::to_string(C.Key.Tasks) + ", \"cpus\": \"" +
         Cores.list(C.Key.Threads) +
         "\",\n     \"speedup\": {\"per_process\": [";
    for (size_t K = 0; K < C.Speedups.size(); ++K)
      J += (K ? ", " : "") + Num(C.Speedups[K]);
    J += "], \"median\": " + Num(median(C.Speedups)) +
         ", \"p10\": " + Num(quantile(C.Speedups, 0.1)) +
         ", \"p90\": " + Num(quantile(C.Speedups, 0.9)) +
         "},\n     \"seq_ms_median\": " + Num(median(C.SeqSeconds) * 1e3) +
         ", \"spec_ms_median\": " + Num(median(C.SpecSeconds) * 1e3) +
         ", \"mispredictions_median\": " + Num(median(C.Mispredictions)) +
         "}" + (I + 1 == Cells.size() ? "\n" : ",\n");
  }
  J += "  ]\n}\n";
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F || std::fputs(J.c_str(), F) < 0 || std::fclose(F) != 0) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return false;
  }
  std::printf("wrote %s\n", Path.c_str());
  return true;
}

} // namespace bench
} // namespace specpar

#endif // SPECPAR_BENCH_REALCORES_H
