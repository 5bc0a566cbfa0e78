//===- perfbench/driver/Bench.h - Benchmark driver pieces -------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the repository benchmark driver: options, sample
/// statistics, the in-memory span tracer, the result record (metrics,
/// correctness tallies, provenance) and the host probes (cache sizes, STREAM
/// triad, peak RSS). The driver only calls the library through its public
/// headers; everything timed here is timed from outside the layer.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_PERFBENCH_BENCH_H
#define CVR_PERFBENCH_BENCH_H

#include "formats/SpmvKernel.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Tiny problem sizes for the benchmark's self-tests.
  bool Tiny = false;
  /// Wrap every kernel the benchmark drives in a decorator that corrupts
  /// one y element (self-test of the correctness checks).
  bool CorruptY = false;
  std::string OutDir = ".bench_out";
  std::string SourceId = "unknown";
  std::string DaemonPath; ///< cvr_served binary (serve_zipf only).
};

/// Seconds on the steady clock since an arbitrary process-wide epoch.
double now();

/// A bag of measurements with linear-interpolated quantiles.
class Samples {
public:
  void add(double V) { Values.push_back(V); }
  void append(const Samples &O) {
    Values.insert(Values.end(), O.Values.begin(), O.Values.end());
  }
  std::size_t size() const { return Values.size(); }
  double quantile(double P) const;
  double median() const { return quantile(0.5); }
  double max() const;
  double min() const;
  double sum() const;
  const std::vector<double> &values() const { return Values; }

private:
  std::vector<double> Values;
};

//===----------------------------------------------------------------------===//
// Span tracer
//===----------------------------------------------------------------------===//

/// In-memory span recorder. Spans are opened and closed by the benchmark's
/// own code around public library calls; the layer of a span is the prefix
/// of its name up to the first '.'. Nothing is written until
/// writeChromeTrace() at the end of the run.
class Tracer {
public:
  static Tracer &instance();

  void enable(bool On) { Enabled = On; }

  /// Opens a span and returns its id (-1 when tracing is off).
  int begin(const char *Name, std::uint64_t RequestId = 0);
  void end(int Id);

  std::size_t size() const;

  /// Self time (span duration minus its children's) summed per layer.
  std::map<std::string, double> selfSecondsByLayer() const;

  /// For each span named \p Root among the spans opened since index
  /// \p From (a size() taken earlier), the self time of the spans of
  /// \p Layer beneath it, in opening order.
  std::vector<double> layerSecondsUnder(std::size_t From,
                                        const std::string &Root,
                                        const std::string &Layer) const;

  /// Writes every span as chrome-trace "X" events.
  bool writeChromeTrace(const std::string &Path) const;

private:
  struct Rec {
    std::string Name;
    double Start = 0.0, End = 0.0;
    int Parent = -1;
    std::uint64_t RequestId = 0;
    int Tid = 0;
  };
  std::vector<double> selfSeconds() const;

  bool Enabled = false;
  mutable std::mutex Mu;
  std::vector<Rec> Recs;
};

/// RAII span; free when tracing is off.
class Span {
public:
  explicit Span(const char *Name, std::uint64_t RequestId = 0)
      : Id(Tracer::instance().begin(Name, RequestId)) {}
  ~Span() { Tracer::instance().end(Id); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  int Id;
};

//===----------------------------------------------------------------------===//
// Kernel decorator
//===----------------------------------------------------------------------===//

/// Forwards every call to an inner kernel, recording the wall time of each
/// call (so a solver's own time is the solve minus their sum), opening a
/// "core.*" span per call when tracing, and — for the self-test —
/// optionally corrupting one y element after each call.
class ProbeKernel : public cvr::SpmvKernel {
public:
  ProbeKernel(const cvr::SpmvKernel &Inner, bool CorruptY)
      : Inner(Inner), CorruptY(CorruptY) {}

  std::string name() const override { return Inner.name(); }
  void prepare(const cvr::CsrMatrix &) override {}
  void run(const double *X, double *Y) const override;
  void runFused(const double *X, double *Y,
                cvr::FusedEpilogue &E) const override;
  [[nodiscard]] cvr::Status runBatch(const double *X, std::size_t LdX,
                                     double *Y, std::size_t LdY,
                                     int NumVectors) const override;
  std::int64_t preparedRows() const override { return Inner.preparedRows(); }
  std::int64_t preparedCols() const override { return Inner.preparedCols(); }

  /// Seconds of every call since the last reset.
  const Samples &calls() const { return Calls; }
  void resetCalls() { Calls = Samples(); }

private:
  void corrupt(double *Y) const;
  void record(double Start) const { Calls.add(now() - Start); }

  const cvr::SpmvKernel &Inner;
  bool CorruptY;
  mutable Samples Calls;
};

//===----------------------------------------------------------------------===//
// Result record
//===----------------------------------------------------------------------===//

/// Everything one run reports. Every operation the benchmark attempts is
/// tallied through op(); a failed operation is a non-OK response, a
/// transport error, a wrong result or a solve that did not converge.
class Result {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// Records a JSON-encoded provenance value.
  void note(const std::string &Key, const std::string &JsonValue);
  void noteString(const std::string &Key, const std::string &Value);
  void noteNumber(const std::string &Key, double Value);

  /// Tallies one attempted operation; returns \p Ok.
  bool op(bool Ok, const std::string &WhatFailed = "");

  /// The full record (provenance, failures, metrics) as one JSON object.
  std::string detailJson() const;
  /// The driver's result line: correct, attempted, failed, metrics.
  std::string summaryJson() const;

private:
  std::mutex Mu;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;
  std::vector<std::pair<std::string, std::string>> Notes;
  std::vector<std::string> Failures; ///< First few failure descriptions.
  std::int64_t Attempted = 0;
  std::int64_t Failed = 0;
};

/// JSON string literal for \p S.
std::string jsonString(const std::string &S);

//===----------------------------------------------------------------------===//
// Host probes
//===----------------------------------------------------------------------===//

/// Total bytes of all cache instances at \p Level (data/unified), from
/// sysfs; 0 when unknown.
std::int64_t totalCacheBytes(int Level);

/// Peak resident set (VmHWM) of \p Pid (0 = this process) in MiB.
double peakRssMb(int Pid = 0);

/// Transparent huge pages currently backing this process, in MiB: whether
/// the large aligned streams got them changes SpMV speed between runs.
double anonHugeMb();

/// STREAM triad a = b + s*c over three arrays of \p ArrayBytes each on the
/// OpenMP default team; best-of-\p Reps GB/s counting 3 * ArrayBytes per
/// pass (the STREAM convention: no write-allocate traffic).
double triadGbps(std::size_t ArrayBytes, int Reps);

/// Records the environment every result carries: nproc, OpenMP default
/// team, L2/L3 totals, the OMP_* variables as found, compiled-in telemetry
/// and fail points, the source id and the seed.
void noteProvenance(const Options &O, Result &R);

//===----------------------------------------------------------------------===//
// Helpers shared by the workloads
//===----------------------------------------------------------------------===//

/// Largest |a - b| relative to max(1, max |b|); +inf when a is NaN.
double relErr(const double *A, const double *B, std::size_t N);

/// Deterministic vector of \p N values in [-1, 1) from \p Seed.
std::vector<double> randomVector(std::size_t N, std::uint64_t Seed);

/// Runs \p Body at least \p MinReps times (at most \p MaxReps), and
/// beyond that only while one more repetition as long as the last one still
/// fits in \p Budget seconds.
template <typename Fn>
int repeatFor(double Budget, int MinReps, int MaxReps, Fn Body) {
  double T0 = now(), Last = 0.0;
  int N = 0;
  while (N < MaxReps && (N < MinReps || now() - T0 + Last <= Budget)) {
    double R0 = now();
    Body(N);
    Last = now() - R0;
    ++N;
  }
  return N;
}

/// Emits the per-layer metric table (trace runs) from \p Values plus the
/// tracer's self time per layer. Workloads fill the metrics their layers
/// exercise; the rest report 0 ("this workload does not touch that layer").
void emitPerLayer(const std::map<std::string, double> &Values, Result &R);

} // namespace perfbench

#endif // CVR_PERFBENCH_BENCH_H
