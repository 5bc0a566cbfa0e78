//===- perfbench/driver/Bench.cpp - Benchmark driver infrastructure -------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "obs/Telemetry.h"
#include "support/FailPoint.h"
#include "support/Random.h"

#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <thread>

extern char **environ;

namespace perfbench {

double now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point Epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - Epoch).count();
}

//===----------------------------------------------------------------------===//
// Samples
//===----------------------------------------------------------------------===//

double Samples::quantile(double P) const {
  if (Values.empty())
    return 0.0;
  std::vector<double> S = Values;
  std::sort(S.begin(), S.end());
  double Pos = P * static_cast<double>(S.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(std::floor(Pos));
  std::size_t Hi = std::min(Lo + 1, S.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return S[Lo] + (S[Hi] - S[Lo]) * Frac;
}

double Samples::max() const {
  return Values.empty() ? 0.0 : *std::max_element(Values.begin(), Values.end());
}

double Samples::min() const {
  return Values.empty() ? 0.0 : *std::min_element(Values.begin(), Values.end());
}

double Samples::sum() const {
  double S = 0.0;
  for (double V : Values)
    S += V;
  return S;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

namespace {

thread_local std::vector<int> OpenSpans;

int threadOrdinal() {
  static std::mutex M;
  static std::map<std::thread::id, int> Ids;
  std::lock_guard<std::mutex> Lock(M);
  auto It = Ids.find(std::this_thread::get_id());
  if (It != Ids.end())
    return It->second;
  int Id = static_cast<int>(Ids.size());
  Ids.emplace(std::this_thread::get_id(), Id);
  return Id;
}

std::string layerOf(const std::string &Name) {
  std::size_t Dot = Name.find('.');
  return Dot == std::string::npos ? Name : Name.substr(0, Dot);
}

} // namespace

Tracer &Tracer::instance() {
  static Tracer T;
  return T;
}

int Tracer::begin(const char *Name, std::uint64_t RequestId) {
  if (!Enabled)
    return -1;
  thread_local int Tid = threadOrdinal();
  Rec R;
  R.Name = Name;
  R.Parent = OpenSpans.empty() ? -1 : OpenSpans.back();
  R.RequestId = RequestId;
  R.Tid = Tid;
  int Id;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Id = static_cast<int>(Recs.size());
    Recs.push_back(std::move(R));
  }
  OpenSpans.push_back(Id);
  // Stamp last so the bookkeeping above is outside the span.
  double T = now();
  std::lock_guard<std::mutex> Lock(Mu);
  Recs[static_cast<std::size_t>(Id)].Start = T;
  return Id;
}

void Tracer::end(int Id) {
  if (Id < 0)
    return;
  double T = now();
  if (!OpenSpans.empty() && OpenSpans.back() == Id)
    OpenSpans.pop_back();
  std::lock_guard<std::mutex> Lock(Mu);
  Recs[static_cast<std::size_t>(Id)].End = T;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Recs.size();
}

std::vector<double> Tracer::selfSeconds() const {
  std::vector<double> Self(Recs.size());
  for (std::size_t I = 0; I < Recs.size(); ++I)
    Self[I] = Recs[I].End - Recs[I].Start;
  for (const Rec &R : Recs)
    if (R.Parent >= 0)
      Self[static_cast<std::size_t>(R.Parent)] -= R.End - R.Start;
  return Self;
}

std::map<std::string, double> Tracer::selfSecondsByLayer() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<double> Self = selfSeconds();
  std::map<std::string, double> Out;
  for (std::size_t I = 0; I < Recs.size(); ++I)
    Out[layerOf(Recs[I].Name)] += Self[I];
  return Out;
}

std::vector<double> Tracer::layerSecondsUnder(std::size_t From,
                                              const std::string &Root,
                                              const std::string &Layer) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<double> Self = selfSeconds();
  std::map<int, std::size_t> Slot; // Root span id -> output index.
  std::vector<double> Out;
  for (std::size_t I = From; I < Recs.size(); ++I)
    if (Recs[I].Name == Root) {
      Slot[static_cast<int>(I)] = Out.size();
      Out.push_back(0.0);
    }
  for (std::size_t I = From; I < Recs.size(); ++I) {
    if (layerOf(Recs[I].Name) != Layer)
      continue;
    for (int P = Recs[I].Parent; P >= 0;
         P = Recs[static_cast<std::size_t>(P)].Parent)
      if (auto It = Slot.find(P); It != Slot.end()) {
        Out[It->second] += Self[I];
        break;
      }
  }
  return Out;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::ofstream OS(Path);
  if (!OS)
    return false;
  OS << "{\"traceEvents\":[";
  char Buf[160];
  for (std::size_t I = 0; I < Recs.size(); ++I) {
    const Rec &R = Recs[I];
    if (I)
      OS << ",\n";
    std::snprintf(Buf, sizeof(Buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f",
                  R.Tid, R.Start * 1e6, (R.End - R.Start) * 1e6);
    OS << "{\"name\":" << jsonString(R.Name) << ",\"cat\":"
       << jsonString(layerOf(R.Name)) << "," << Buf << ",\"args\":{\"id\":"
       << I << ",\"parent\":" << R.Parent << ",\"request\":" << R.RequestId
       << "}}";
  }
  OS << "],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(OS);
}

//===----------------------------------------------------------------------===//
// ProbeKernel
//===----------------------------------------------------------------------===//

void ProbeKernel::corrupt(double *Y) const {
  if (CorruptY && Inner.preparedRows() > 0)
    Y[Inner.preparedRows() / 2] += 1.0;
}

void ProbeKernel::run(const double *X, double *Y) const {
  Span S("core.run");
  double T0 = now();
  Inner.run(X, Y);
  record(T0);
  corrupt(Y);
}

void ProbeKernel::runFused(const double *X, double *Y,
                           cvr::FusedEpilogue &E) const {
  Span S("core.run_fused");
  double T0 = now();
  Inner.runFused(X, Y, E);
  record(T0);
  corrupt(Y);
}

cvr::Status ProbeKernel::runBatch(const double *X, std::size_t LdX, double *Y,
                                  std::size_t LdY, int NumVectors) const {
  Span S("core.run_batch");
  double T0 = now();
  cvr::Status St = Inner.runBatch(X, LdX, Y, LdY, NumVectors);
  record(T0);
  corrupt(Y);
  return St;
}

//===----------------------------------------------------------------------===//
// Result
//===----------------------------------------------------------------------===//

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (C == '\n') {
      Out += "\\n";
    } else if (static_cast<unsigned char>(C) < 0x20) {
      Out += ' ';
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

namespace {

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

void Result::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  std::lock_guard<std::mutex> Lock(Mu);
  Metrics.push_back({Name, {Value, Unit}});
}

void Result::note(const std::string &Key, const std::string &JsonValue) {
  std::lock_guard<std::mutex> Lock(Mu);
  Notes.push_back({Key, JsonValue});
}

void Result::noteString(const std::string &Key, const std::string &Value) {
  note(Key, jsonString(Value));
}

void Result::noteNumber(const std::string &Key, double Value) {
  note(Key, jsonNumber(Value));
}

bool Result::op(bool Ok, const std::string &WhatFailed) {
  std::lock_guard<std::mutex> Lock(Mu);
  ++Attempted;
  if (!Ok) {
    ++Failed;
    if (Failures.size() < 20)
      Failures.push_back(WhatFailed);
  }
  return Ok;
}

std::string Result::detailJson() const {
  std::ostringstream OS;
  OS << "{\"provenance\":{";
  for (std::size_t I = 0; I < Notes.size(); ++I)
    OS << (I ? "," : "") << jsonString(Notes[I].first) << ":"
       << Notes[I].second;
  OS << "},\"attempted\":" << Attempted << ",\"failed\":" << Failed
     << ",\"error_rate\":"
     << jsonNumber(Attempted ? static_cast<double>(Failed) /
                                   static_cast<double>(Attempted)
                             : 1.0)
     << ",\"failures\":[";
  for (std::size_t I = 0; I < Failures.size(); ++I)
    OS << (I ? "," : "") << jsonString(Failures[I]);
  OS << "],\"result\":" << summaryJson() << "}";
  return OS.str();
}

std::string Result::summaryJson() const {
  std::ostringstream OS;
  OS << "{\"correct\":" << (Failed == 0 && Attempted > 0 ? "true" : "false")
     << ",\"attempted\":" << Attempted << ",\"failed\":" << Failed
     << ",\"metrics\":{";
  for (std::size_t I = 0; I < Metrics.size(); ++I)
    OS << (I ? "," : "") << jsonString(Metrics[I].first)
       << ":{\"value\":" << jsonNumber(Metrics[I].second.first)
       << ",\"unit\":" << jsonString(Metrics[I].second.second) << "}";
  OS << "}}";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Host probes
//===----------------------------------------------------------------------===//

namespace {

std::string readLine(const std::string &Path) {
  std::ifstream IS(Path);
  std::string L;
  std::getline(IS, L);
  return L;
}

std::int64_t parseSize(const std::string &S) {
  if (S.empty())
    return 0;
  std::int64_t V = std::atoll(S.c_str());
  char Suffix = S.back();
  if (Suffix == 'K')
    V <<= 10;
  else if (Suffix == 'M')
    V <<= 20;
  else if (Suffix == 'G')
    V <<= 30;
  return V;
}

} // namespace

std::int64_t totalCacheBytes(int Level) {
  // One entry per distinct (index, shared CPU set): each is one instance.
  std::set<std::pair<std::string, std::string>> Seen;
  std::int64_t Total = 0;
  long NCpu = sysconf(_SC_NPROCESSORS_CONF);
  for (long Cpu = 0; Cpu < NCpu; ++Cpu) {
    for (int Idx = 0; Idx < 16; ++Idx) {
      std::string Dir = "/sys/devices/system/cpu/cpu" + std::to_string(Cpu) +
                        "/cache/index" + std::to_string(Idx) + "/";
      std::string Lv = readLine(Dir + "level");
      if (Lv.empty())
        break;
      if (std::atoi(Lv.c_str()) != Level ||
          readLine(Dir + "type") == "Instruction")
        continue;
      std::string Shared = readLine(Dir + "shared_cpu_list");
      if (Seen.insert({std::to_string(Idx), Shared}).second)
        Total += parseSize(readLine(Dir + "size"));
    }
  }
  return Total;
}

double peakRssMb(int Pid) {
  std::string Path = Pid > 0 ? "/proc/" + std::to_string(Pid) + "/status"
                             : std::string("/proc/self/status");
  std::ifstream IS(Path);
  std::string L;
  while (std::getline(IS, L))
    if (L.rfind("VmHWM:", 0) == 0)
      return static_cast<double>(std::atoll(L.c_str() + 6)) / 1024.0;
  return 0.0;
}

double anonHugeMb() {
  std::ifstream IS("/proc/self/smaps_rollup");
  std::string L;
  while (std::getline(IS, L))
    if (L.rfind("AnonHugePages:", 0) == 0)
      return static_cast<double>(std::atoll(L.c_str() + 14)) / 1024.0;
  return 0.0;
}

double triadGbps(std::size_t ArrayBytes, int Reps) {
  const std::size_t N = ArrayBytes / sizeof(double);
  double *A = static_cast<double *>(std::aligned_alloc(64, N * 8));
  double *B = static_cast<double *>(std::aligned_alloc(64, N * 8));
  double *C = static_cast<double *>(std::aligned_alloc(64, N * 8));
  const long long NN = static_cast<long long>(N);
#pragma omp parallel for schedule(static)
  for (long long I = 0; I < NN; ++I) {
    A[I] = 0.0;
    B[I] = 1.0;
    C[I] = 2.0;
  }
  double Best = std::numeric_limits<double>::infinity();
  for (int R = 0; R < Reps; ++R) {
    double T0 = now();
#pragma omp parallel for schedule(static)
    for (long long I = 0; I < NN; ++I)
      A[I] = B[I] + 3.0 * C[I];
    Best = std::min(Best, now() - T0);
  }
  volatile double Sink = A[N / 2];
  (void)Sink;
  std::free(A);
  std::free(B);
  std::free(C);
  return 3.0 * static_cast<double>(N * 8) / Best / 1e9;
}

void noteProvenance(const Options &O, Result &R) {
  R.noteString("workload", O.Workload);
  R.noteNumber("seed", static_cast<double>(O.Seed));
  R.noteNumber("seconds", O.Seconds);
  R.noteNumber("trace", O.Trace ? 1 : 0);
  R.noteString("source_id", O.SourceId);
  R.noteNumber("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  R.noteNumber("omp_max_threads", omp_get_max_threads());
  R.noteNumber("l2_total_bytes", static_cast<double>(totalCacheBytes(2)));
  R.noteNumber("l3_total_bytes", static_cast<double>(totalCacheBytes(3)));
  std::string Omp = "{";
  for (char **E = environ; *E; ++E) {
    if (std::strncmp(*E, "OMP_", 4) != 0 && std::strncmp(*E, "GOMP_", 5) != 0)
      continue;
    const char *Eq = std::strchr(*E, '=');
    if (!Eq)
      continue;
    if (Omp.size() > 1)
      Omp += ',';
    Omp += jsonString(std::string(*E, static_cast<std::size_t>(Eq - *E)));
    Omp += ':';
    Omp += jsonString(Eq + 1);
  }
  R.note("omp_env", Omp + "}");
  R.note("telemetry_compiled", CVR_TELEMETRY_ENABLED ? "true" : "false");
  R.note("failpoints_compiled", CVR_FAILPOINTS_ENABLED ? "true" : "false");
  const char *Fp = std::getenv("CVR_FAILPOINTS");
  R.noteString("failpoints_env", Fp ? Fp : "");
}

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

double relErr(const double *A, const double *B, std::size_t N) {
  double Scale = 1.0, Err = 0.0;
  for (std::size_t I = 0; I < N; ++I) {
    Scale = std::max(Scale, std::fabs(B[I]));
    double D = std::fabs(A[I] - B[I]);
    if (!(D <= Err)) // Also catches NaN.
      Err = std::isnan(D) ? std::numeric_limits<double>::infinity() : D;
  }
  return Err / Scale;
}

std::vector<double> randomVector(std::size_t N, std::uint64_t Seed) {
  cvr::Xoshiro256 Rng(Seed);
  std::vector<double> V(N);
  for (double &E : V)
    E = 2.0 * Rng.nextDouble() - 1.0;
  return V;
}

namespace {

/// Per-layer metric names and units, in output order.
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> Table = {
      {"engine.tune_s", "s"},
      {"engine.tune_runs", "count"},
      {"engine.tune_gain", "ratio"},
      {"engine.tune_base_us", "us"},
      {"cachesim.probe_s", "s"},
      {"core.convert_s", "s"},
      {"core.spmv_us.p50", "us"},
      {"core.spmv_us.p99", "us"},
      {"core.spmv_us.max_over_p50", "ratio"},
      {"core.spmv_gflops", "GFlop/s"},
      {"core.spmm_us.p50", "us"},
      {"core.spmm_us.p95", "us"},
      {"core.solver_call_us.p50", "us"},
      {"core.gbps_computed", "GB/s"},
      {"core.bw_fraction", "ratio"},
      {"core.fused_us.p50", "us"},
      {"core.fused_over_plain", "ratio"},
      {"core.spmv_us_1t.p50", "us"},
      {"solvers.iterations.min", "count"},
      {"solvers.iterations.max", "count"},
      {"solvers.self_s", "s"},
      {"solvers.kernel_share", "ratio"},
      {"solvers.solve_s_1t", "s"},
      {"serve.service_us.multiply.p50", "us"},
      {"serve.service_us.multiply.p99", "us"},
      {"serve.service_us.spmm.p50", "us"},
      {"serve.protocol_us", "us"},
      {"serve.transport_us", "us"},
      {"serve.kernel_cache.hit_ratio", "ratio"},
      {"serve.kernel_cache.misses", "count"},
      {"serve.kernel_cache.evictions", "count"},
      {"serve.tune_exec_s", "s"},
      {"serve.load_s", "s"},
      {"serve.shed", "count"},
      {"serve.degraded", "count"},
      {"client.gflops_delivered", "GFlop/s"},
      {"client.mult_p50_us", "us"},
      {"client.mult_p99_us", "us"},
      {"client.spmm_p50_us", "us"},
      {"client.spmm_p95_us", "us"},
      {"client.send_lag_p99_us", "us"},
      {"client.backlog_max", "count"},
      {"formats.csr_spmv_us.p50", "us"},
      {"formats.downgrades", "count"},
      {"mem.triad_gbps", "GB/s"},
      {"mem.triad_array_mb", "MB"},
      {"trace.spans", "count"},
      {"trace.overhead", "ratio"},
      {"trace.solve_accounted", "ratio"},
      {"trace.self_s.core", "s"},
      {"trace.self_s.solvers", "s"},
      {"trace.self_s.engine", "s"},
      {"trace.self_s.cachesim", "s"},
      {"trace.self_s.formats", "s"},
      {"trace.self_s.serve", "s"},
      {"trace.self_s.client", "s"},
      {"trace.self_s.mem", "s"},
  };
  return Table;
}

} // namespace

void emitPerLayer(const std::map<std::string, double> &Values, Result &R) {
  std::map<std::string, double> All = Values;
  All["trace.spans"] = static_cast<double>(Tracer::instance().size());
  for (const auto &[Layer, Secs] : Tracer::instance().selfSecondsByLayer())
    All["trace.self_s." + Layer] = Secs;
  for (const auto &[Name, Unit] : perLayerMetrics()) {
    auto It = All.find(Name);
    R.metric(Name, It == All.end() ? 0.0 : It->second, Unit);
  }
}

} // namespace perfbench
