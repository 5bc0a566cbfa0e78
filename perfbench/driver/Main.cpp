//===- perfbench/driver/Main.cpp - Benchmark driver entry point -----------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//   perfbench_driver --workload=fem_cg|graph_pagerank|serve_zipf --seed=N
//                    --seconds=S --trace=0|1 [--out-dir=DIR]
//                    [--source-id=ID] [--daemon=PATH] [--tiny] [--corrupt-y]
//
// Prints provenance lines, then as its last line one JSON object with the
// keys correct, attempted, failed and metrics. The full record (provenance,
// failure descriptions, error rate) goes to DIR/<workload>-s<seed>-t<trace>
// .json and, for traced runs, the spans to DIR/<...>.trace.json.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>

using namespace perfbench;

namespace perfbench {

namespace {

/// End-to-end metric names and units, in output order.
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> Table = {
      {"setup_s", "s"},
      {"solve_s", "s"},
      {"req_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return Table;
}

} // namespace

void emitEndToEnd(const std::map<std::string, double> &Values, Result &R) {
  for (const auto &[Name, Unit] : endToEndMetrics()) {
    auto It = Values.find(Name);
    R.metric(Name,
             It == Values.end() ? std::numeric_limits<double>::quiet_NaN()
                                : It->second,
             Unit);
  }
}

double measureTriad(Result &R, std::map<std::string, double> &Layer) {
  const std::size_t Bytes = static_cast<std::size_t>(std::max<std::int64_t>(
      {32 << 20, 4 * totalCacheBytes(2), totalCacheBytes(3) / 2}));
  double Gbps;
  {
    Span S("mem.triad");
    Gbps = triadGbps(Bytes, 10);
  }
  Layer["mem.triad_gbps"] = Gbps;
  Layer["mem.triad_array_mb"] = static_cast<double>(Bytes) / (1 << 20);
  R.noteNumber("triad_array_bytes", static_cast<double>(Bytes));
  R.noteNumber("triad_total_bytes", 3.0 * static_cast<double>(Bytes));
  R.noteNumber("triad_gbps", Gbps);
  return Gbps;
}

} // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload=fem_cg|graph_pagerank|"
               "serve_zipf --seed=N --seconds=S --trace=0|1\n"
               "       [--out-dir=DIR] [--source-id=ID] [--daemon=PATH] "
               "[--tiny] [--corrupt-y]\n");
  return 2;
}

bool takeValue(const char *Arg, const char *Key, std::string &Out) {
  std::size_t L = std::strlen(Key);
  if (std::strncmp(Arg, Key, L) != 0 || Arg[L] != '=')
    return false;
  Out = Arg + L + 1;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string V;
    const char *A = Argv[I];
    if (takeValue(A, "--workload", V))
      O.Workload = V;
    else if (takeValue(A, "--seed", V))
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (takeValue(A, "--seconds", V))
      O.Seconds = std::atof(V.c_str());
    else if (takeValue(A, "--trace", V))
      O.Trace = V == "1";
    else if (takeValue(A, "--out-dir", V))
      O.OutDir = V;
    else if (takeValue(A, "--source-id", V))
      O.SourceId = V;
    else if (takeValue(A, "--daemon", V))
      O.DaemonPath = V;
    else if (std::strcmp(A, "--tiny") == 0)
      O.Tiny = true;
    else if (std::strcmp(A, "--corrupt-y") == 0)
      O.CorruptY = true;
    else
      return usage();
  }
  if (O.Seconds <= 0.0)
    return usage();
  void (*Run)(const Options &, Result &) = nullptr;
  if (O.Workload == "fem_cg")
    Run = runFemCg;
  else if (O.Workload == "graph_pagerank")
    Run = runGraphPagerank;
  else if (O.Workload == "serve_zipf")
    Run = runServeZipf;
  else
    return usage();
  mkdir(O.OutDir.c_str(), 0755);

  Result R;
  noteProvenance(O, R);
  Tracer::instance().enable(O.Trace);
  try {
    Run(O, R);
  } catch (const std::exception &E) {
    R.op(false, std::string("exception: ") + E.what());
  }
  Tracer::instance().enable(false);

  std::string Base = O.OutDir + "/" + O.Workload + "-s" +
                     std::to_string(O.Seed) + "-t" + (O.Trace ? "1" : "0");
  if (O.Trace) {
    if (Tracer::instance().writeChromeTrace(Base + ".trace.json"))
      std::printf("perfbench: trace written to %s.trace.json (%zu spans)\n",
                  Base.c_str(), Tracer::instance().size());
    else
      R.op(false, "could not write the chrome trace");
  }
  std::ofstream(Base + ".json") << R.detailJson() << "\n";
  std::printf("perfbench: detail written to %s.json\n", Base.c_str());
  std::printf("%s\n", R.summaryJson().c_str());
  std::fflush(stdout);
  return 0;
}
