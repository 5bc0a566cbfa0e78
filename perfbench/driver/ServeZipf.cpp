//===- perfbench/driver/ServeZipf.cpp - serve_zipf workload ---------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// A cvr_served daemon with default options (4 workers, 8 in flight, 8-entry
// kernel cache) serving 12 mapped v4 blobs of gen/DatasetSuite matrices.
// Requests pick a matrix by Zipf(1.0) popularity, so the 12 matrices churn
// the 8-entry LRU; 90% are Multiply and 10% Spmm with K = 8.
//
//   phase A  closed loop on 4 connections          -> req_per_s, solve_s
//                                                      (Multiply round trip)
//   phase B  open loop at a fixed rate, latency     -> mult_*, spmm_*
//            timed from each request's due time
//
// The workload runs no solver: a CG Solve request on the served stencil
// swung 2.6x between runs on a shared 4-vCPU host (its 4-thread barriers
// inside a daemon worker magnify every stall of the host), so a request
// round trip is its unit of work.
//
// Every OK payload is checked against a scalar reference computed up front.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "core/CvrFormat.h"
#include "gen/DatasetSuite.h"
#include "matrix/Reference.h"
#include "serve/Client.h"
#include "serve/Fleet.h"
#include "serve/Protocol.h"
#include "serve/Service.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

extern char **environ;

using namespace cvr;
using namespace cvr::serve;

namespace perfbench {

namespace {

constexpr int Connections = 4;
constexpr int PanelWidth = 8;
constexpr int VectorPool = 3;
constexpr double SpmmShare = 0.10;
constexpr double SpmvTolerance = 1e-10;
/// Phase B needs >= 10 samples beyond p99 of Multiply and p95 of Spmm.
constexpr int MinOpenLoopRequests = 2200;
/// Reply timeout on every client socket: a hung daemon fails the run
/// instead of hanging it.
constexpr int ReplyTimeoutSeconds = 20;
/// Phase B arrival rate, fixed once at about half of phase A's req_per_s
/// as measured when the benchmark was defined (see README.md), so later
/// changes are judged at the same offered load.
constexpr double OpenLoopRate = 2200.0;

/// Served matrices in Zipf popularity order (rank 1 first).
const char *const FleetNames[] = {
    "web-Google",  "com-youtube", "soc-sign-epinions", "flickr",
    "com-DBLP",    "webbase-1M",  "citationCiteseer",  "language",
    "wiki-topcats", "roadNet-CA", "FEM/Ship",          "Circuit"};
constexpr int FleetSize = 12;

struct Served {
  std::string Name;
  CsrMatrix A;
  std::string Blob;
  std::vector<std::vector<double>> Ys; ///< Multiply references.
  std::vector<double> YPanelRef;        ///< Spmm reference.
  std::vector<std::string> MulFrames;   ///< Encoded Multiply requests.
  std::string SpmmFrame;                ///< Encoded Spmm request.
  std::vector<std::vector<double>> Xs;
  std::vector<double> XPanel;
};

struct Req {
  int Matrix;
  bool Spmm;
  int Vec;
};

std::uint64_t mix(std::uint64_t Z) {
  Z += 0x9E3779B97F4A7C15ULL;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

/// The i-th request of the seeded sequence (phase-independent, so any
/// prefix can be replayed in process).
class Sequence {
public:
  explicit Sequence(std::uint64_t Seed) : Seed(Seed) {
    double Sum = 0.0;
    for (int K = 0; K < FleetSize; ++K)
      Sum += 1.0 / (K + 1);
    double Acc = 0.0;
    for (int K = 0; K < FleetSize; ++K) {
      Acc += 1.0 / (K + 1) / Sum;
      Cdf[K] = Acc;
    }
  }
  Req at(std::uint64_t I) const {
    std::uint64_t H1 = mix(Seed * 0x2545F4914F6CDD1DULL + I);
    std::uint64_t H2 = mix(H1);
    double U = static_cast<double>(H1 >> 11) * 0x1.0p-53;
    int M = 0;
    while (M < FleetSize - 1 && U > Cdf[M])
      ++M;
    double V = static_cast<double>(H2 >> 11) * 0x1.0p-53;
    return {M, V < SpmmShare, static_cast<int>(H2 % VectorPool)};
  }

private:
  std::uint64_t Seed;
  double Cdf[FleetSize];
};

std::string fmt(const char *Fmt, double V) {
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), Fmt, V);
  return Buf;
}

/// Checks one response against the request's reference.
std::string checkResponse(const Served &S, const Req &Q, Response &Resp,
                          bool CorruptY) {
  if (Resp.Code != StatusCode::Ok)
    return std::string("non-OK response: ") + Resp.Message;
  const std::vector<double> &Ref = Q.Spmm ? S.YPanelRef : S.Ys[Q.Vec];
  if (Resp.Y.size() != Ref.size())
    return "payload has " + std::to_string(Resp.Y.size()) + " values, want " +
           std::to_string(Ref.size());
  if (CorruptY)
    Resp.Y[Resp.Y.size() / 2] += 1.0;
  double E = relErr(Resp.Y.data(), Ref.data(), Ref.size());
  return E <= SpmvTolerance
             ? ""
             : fmt("payload differs from reference by %.3e", E);
}

//===----------------------------------------------------------------------===//
// Daemon process
//===----------------------------------------------------------------------===//

class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() { stop(); }

  Status start(const Options &O, const std::vector<Served> &Fleet,
               const std::string &Sock) {
    std::vector<std::string> Args = {O.DaemonPath, "--socket=" + Sock};
    for (const Served &S : Fleet)
      Args.push_back("--blob=" + S.Name + "=" + S.Blob);
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    posix_spawn_file_actions_t FA;
    posix_spawn_file_actions_init(&FA);
    std::string Log = O.OutDir + "/cvr_served.log";
    posix_spawn_file_actions_addopen(&FA, 1, Log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&FA, 1, 2);
    int Rc = posix_spawn(&Pid, O.DaemonPath.c_str(), &FA, nullptr,
                         Argv.data(), environ);
    posix_spawn_file_actions_destroy(&FA);
    if (Rc != 0) {
      Pid = -1;
      return Status::unavailable("cannot start " + O.DaemonPath + ": " +
                                 std::strerror(Rc));
    }
    // Ready when a List request over the socket answers OK.
    double Until = now() + 60.0;
    while (now() < Until) {
      int WStatus = 0;
      if (waitpid(Pid, &WStatus, WNOHANG) == Pid) {
        Pid = -1;
        return Status::unavailable("cvr_served exited during start-up (see " +
                                   Log + ")");
      }
      StatusOr<Client> C = Client::connect(Sock);
      if (C.ok()) {
        Request L;
        L.Kind = Op::List;
        Response R;
        if (C->call(L, R).ok() && R.Code == StatusCode::Ok)
          return Status::okStatus();
      }
      usleep(500);
    }
    return Status::deadlineExceeded("cvr_served did not answer List");
  }

  double peakRss() const { return Pid > 0 ? peakRssMb(Pid) : 0.0; }

  void stop() {
    if (Pid <= 0)
      return;
    kill(Pid, SIGTERM);
    int WStatus = 0;
    double Until = now() + 20.0;
    while (waitpid(Pid, &WStatus, WNOHANG) == 0) {
      if (now() > Until) {
        kill(Pid, SIGKILL);
        waitpid(Pid, &WStatus, 0);
        break;
      }
      usleep(1000);
    }
    Pid = -1;
  }

private:
  pid_t Pid = -1;
};

StatusOr<Client> connectClient(const std::string &Sock) {
  StatusOr<Client> C = Client::connect(Sock);
  if (C.ok()) {
    timeval TV{ReplyTimeoutSeconds, 0};
    setsockopt(C->fd(), SOL_SOCKET, SO_RCVTIMEO, &TV, sizeof(TV));
    setsockopt(C->fd(), SOL_SOCKET, SO_SNDTIMEO, &TV, sizeof(TV));
  }
  return C;
}

/// One framed round trip of a pre-encoded request.
Status roundTrip(int Fd, const std::string &Frame, Response &Out) {
  if (Status S = writeFrame(Fd, Frame); !S.ok())
    return S;
  std::string Body;
  if (Status S = readFrame(Fd, Body); !S.ok())
    return S;
  return decodeResponse(Body.data(), Body.size(), Out);
}

const std::string &frameOf(const Served &S, const Req &Q) {
  return Q.Spmm ? S.SpmmFrame : S.MulFrames[static_cast<std::size_t>(Q.Vec)];
}

double flopsOf(const Served &S, const Req &Q) {
  return 2.0 * static_cast<double>(S.A.numNonZeros()) *
         (Q.Spmm ? PanelWidth : 1);
}

/// Cumulative daemon counters from one Stats request.
struct DaemonCounters {
  double Hits = 0, Misses = 0, Evictions = 0, Shed = 0, Degraded = 0;
};

double jsonField(const std::string &Text, const std::string &Key) {
  std::size_t P = Text.find("\"" + Key + "\":");
  return P == std::string::npos
             ? 0.0
             : std::atof(Text.c_str() + P + Key.size() + 3);
}

StatusOr<DaemonCounters> daemonCounters(const std::string &Sock) {
  StatusOr<Client> C = connectClient(Sock);
  if (!C.ok())
    return C.status();
  Request Q;
  Q.Kind = Op::Stats;
  Response R;
  if (Status S = C->call(Q, R); !S.ok())
    return S;
  std::size_t Cache = R.Text.find("\"kernel_cache\":");
  std::string CacheText = R.Text.substr(Cache == std::string::npos ? 0 : Cache);
  DaemonCounters D;
  D.Hits = jsonField(CacheText, "hits");
  D.Misses = jsonField(CacheText, "misses");
  D.Evictions = jsonField(CacheText, "evictions");
  D.Shed = jsonField(R.Text, "shed");
  D.Degraded = jsonField(R.Text, "serve.degraded");
  return D;
}

struct PhaseStats {
  Samples MultLatency, SpmmLatency, RoundTripMult, SendLag;
  std::int64_t Sent = 0, Ok = 0;
  double Flops = 0.0;
  double Wall = 0.0;
  std::int64_t BacklogMax = 0;
};

} // namespace

void runServeZipf(const Options &O, Result &R) {
  const double Scale = O.Tiny ? 0.1 : 1.0;
  std::map<std::string, double> E2E, Layer;
  if (O.DaemonPath.empty()) {
    R.op(false, "serve_zipf needs --daemon=PATH");
    return;
  }

  // The fleet, its seeded inputs, scalar references and encoded requests.
  std::vector<Served> Fleet(FleetSize);
  {
    std::vector<DatasetSpec> Suite = datasetSuite(Scale);
    for (int I = 0; I < FleetSize; ++I) {
      Served &S = Fleet[I];
      S.Name = FleetNames[I];
      for (const DatasetSpec &D : Suite)
        if (D.Name == S.Name)
          S.A = D.Build();
      S.Blob = O.OutDir + "/blob" + std::to_string(I) + ".cvr";
      const auto Cols = static_cast<std::size_t>(S.A.numCols());
      const auto Rows = static_cast<std::size_t>(S.A.numRows());
      for (int V = 0; V < VectorPool; ++V) {
        S.Xs.push_back(randomVector(Cols, O.Seed * 7919 + I * 16 + V));
        S.Ys.push_back(referenceSpmv(S.A, S.Xs.back()));
        Request Q;
        Q.Kind = Op::Multiply;
        Q.Matrix = S.Name;
        Q.X = S.Xs.back();
        S.MulFrames.push_back(encodeRequest(Q));
      }
      S.XPanel = randomVector(Cols * PanelWidth, O.Seed * 31 + I);
      S.YPanelRef.resize(Rows * PanelWidth);
      std::vector<double> Col(Cols), Out(Rows);
      for (int J = 0; J < PanelWidth; ++J) {
        for (std::size_t K = 0; K < Cols; ++K)
          Col[K] = S.XPanel[K * PanelWidth + J];
        referenceSpmv(S.A, Col.data(), Out.data());
        for (std::size_t K = 0; K < Rows; ++K)
          S.YPanelRef[K * PanelWidth + J] = Out[K];
      }
      Request Q;
      Q.Kind = Op::Spmm;
      Q.Matrix = S.Name;
      Q.NumVectors = PanelWidth;
      Q.X = S.XPanel;
      S.SpmmFrame = encodeRequest(Q);
    }
  }
  double FleetNnz = 0;
  for (const Served &S : Fleet)
    FleetNnz += static_cast<double>(S.A.numNonZeros());
  R.noteNumber("fleet_nnz", FleetNnz);

  // Set-up: blob conversion (default options, no tuning) plus daemon
  // start until the first List answers; repeated cold.
  const std::string Sock = O.OutDir + "/serve.sock";
  Daemon D;
  Samples Setup, Convert;
  // Sub-second set-ups: more repetitions for a steady median.
  const int SetupReps = O.Trace ? 1 : 5;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    D.stop();
    double T0 = now();
    double ConvertSecs = 0.0;
    for (Served &S : Fleet) {
      double C0 = now();
      int ConvertSpan = Tracer::instance().begin("core.convert");
      StatusOr<CvrMatrix> M = CvrMatrix::tryFromCsr(S.A, CvrOptions{});
      Tracer::instance().end(ConvertSpan);
      ConvertSecs += now() - C0;
      if (!R.op(M.ok(), M.ok() ? "" : "convert: " + M.status().toString()))
        return;
      std::ofstream OS(S.Blob, std::ios::binary | std::ios::trunc);
      Status W = M->writeBlob(OS, BlobLayout::Mapped);
      OS.close();
      if (!R.op(W.ok() && OS.good(), "blob write: " + W.toString()))
        return;
    }
    Convert.add(ConvertSecs);
    Status St;
    {
      Span Sp("serve.daemon_start");
      St = D.start(O, Fleet, Sock);
    }
    Setup.add(now() - T0);
    if (!R.op(St.ok(), "daemon: " + St.toString()))
      return;
  }
  Layer["core.convert_s"] = Convert.median();

  const Sequence Seq(O.Seed);
  std::atomic<std::uint64_t> NextIndex{0};

  // One closed- or open-loop phase over Connections client threads.
  // RateHz <= 0 is the closed loop for Budget seconds; otherwise Count
  // requests are due at Start + i / RateHz.
  auto runPhase = [&](double Budget, double RateHz, std::int64_t Count,
                      std::uint64_t FirstIndex) {
    PhaseStats P;
    std::mutex Mu;
    std::atomic<std::int64_t> Issued{0};
    const double Start = now() + 0.002;
    auto Loop = [&](PhaseStats &Local) {
      StatusOr<Client> C = connectClient(Sock);
      if (!R.op(C.ok(), C.ok() ? "" : "connect: " + C.status().toString()))
        return;
      for (;;) {
        std::int64_t I = Issued.fetch_add(1);
        double Due;
        if (RateHz > 0) {
          if (I >= Count)
            break;
          Due = Start + static_cast<double>(I) / RateHz;
          double Wait = Due - now();
          if (Wait > 0)
            std::this_thread::sleep_for(std::chrono::duration<double>(Wait));
        } else {
          if (now() - Start >= Budget)
            break;
          Due = now();
        }
        const std::uint64_t Id = FirstIndex + static_cast<std::uint64_t>(I);
        const Req Q = Seq.at(Id);
        const Served &S = Fleet[static_cast<std::size_t>(Q.Matrix)];
        double Sent = now();
        ++Local.Sent;
        if (RateHz > 0) {
          Local.SendLag.add(Sent - Due);
          Local.BacklogMax = std::max<std::int64_t>(
              Local.BacklogMax,
              static_cast<std::int64_t>((Sent - Start) * RateHz) - I);
        }
        Response Resp;
        Status St;
        {
          Span Sp(Q.Spmm ? "client.spmm" : "client.multiply", Id);
          St = roundTrip(C->fd(), frameOf(S, Q), Resp);
        }
        double Done = now();
        std::string Why =
            St.ok() ? checkResponse(S, Q, Resp, O.CorruptY)
                    : "transport: " + St.toString();
        if (!R.op(Why.empty(), S.Name + ": " + Why))
          continue;
        ++Local.Ok;
        Local.Flops += flopsOf(S, Q);
        (Q.Spmm ? Local.SpmmLatency : Local.MultLatency).add(Done - Due);
        if (!Q.Spmm)
          Local.RoundTripMult.add(Done - Sent);
      }
    };
    auto Worker = [&]() {
      PhaseStats Local;
      try {
        Loop(Local);
      } catch (const std::exception &E) {
        R.op(false, std::string("client thread: ") + E.what());
      }
      std::lock_guard<std::mutex> Lock(Mu);
      P.MultLatency.append(Local.MultLatency);
      P.SpmmLatency.append(Local.SpmmLatency);
      P.RoundTripMult.append(Local.RoundTripMult);
      P.SendLag.append(Local.SendLag);
      P.Sent += Local.Sent;
      P.Ok += Local.Ok;
      P.Flops += Local.Flops;
      P.BacklogMax = std::max(P.BacklogMax, Local.BacklogMax);
    };
    std::vector<std::thread> Threads;
    for (int T = 0; T < Connections; ++T)
      Threads.emplace_back(Worker);
    for (std::thread &T : Threads)
      T.join();
    P.Wall = now() - Start;
    NextIndex += static_cast<std::uint64_t>(Issued.load());
    return P;
  };

  // Rounds of (A, B) so a transient disturbance moves one round, not
  // the reported medians. A traced run makes two rounds: the first
  // untraced, the second traced; their throughput ratio is the tracing
  // overhead.
  StatusOr<DaemonCounters> Before = daemonCounters(Sock);
  R.op(Before.ok(), "stats before: " + Before.status().toString());
  const double S = O.Seconds;
  const int Rounds = O.Trace || O.Tiny ? 2 : 5;
  const double Rate = OpenLoopRate;
  const auto PerRound = std::max<std::int64_t>(
      MinOpenLoopRequests,
      static_cast<std::int64_t>(Rate * 0.50 * S / Rounds));
  Samples Rps, Gflops, MultP50, MultP99, SpmmP50, SpmmP95, RoundTripA;
  PhaseStats B;
  // Requests sent and answered correctly, per phase, over all rounds.
  std::int64_t SentA = 0, OkA = 0, SentB = 0, OkB = 0, MultN = 0, SpmmN = 0;
  for (int Round = 0; Round < Rounds; ++Round) {
    Tracer::instance().enable(O.Trace && Round > 0);
    PhaseStats A = runPhase(0.40 * S / Rounds, 0.0, 0, NextIndex.load());
    Rps.add(static_cast<double>(A.Ok) / A.Wall);
    Gflops.add(A.Flops / A.Wall / 1e9);
    RoundTripA.append(A.RoundTripMult);
    SentA += A.Sent;
    OkA += A.Ok;
    B = runPhase(0.0, Rate, PerRound, NextIndex.load());
    MultP50.add(B.MultLatency.quantile(0.50));
    MultP99.add(B.MultLatency.quantile(0.99));
    SpmmP50.add(B.SpmmLatency.quantile(0.50));
    SpmmP95.add(B.SpmmLatency.quantile(0.95));
    SentB += B.Sent;
    OkB += B.Ok;
    MultN += static_cast<std::int64_t>(B.MultLatency.size());
    SpmmN += static_cast<std::int64_t>(B.SpmmLatency.size());
  }
  StatusOr<DaemonCounters> After = daemonCounters(Sock);
  R.op(After.ok(), "stats after: " + After.status().toString());
  R.noteNumber("open_loop_rate_hz", Rate);
  R.noteNumber("rounds", Rounds);
  R.noteNumber("phase_a.sent", static_cast<double>(SentA));
  R.noteNumber("phase_a.ok", static_cast<double>(OkA));
  R.noteNumber("phase_b.sent", static_cast<double>(SentB));
  R.noteNumber("phase_b.ok", static_cast<double>(OkB));
  R.noteNumber("samples.mult", static_cast<double>(MultN));
  R.noteNumber("samples.spmm", static_cast<double>(SpmmN));
  R.noteNumber("samples.round_trip_a", static_cast<double>(RoundTripA.size()));
  E2E["peak_rss_mb"] = D.peakRss();
  D.stop();
  // Recorded, not gated: open-loop latencies swing with the host by more
  // than any bound allows (README.md).
  Layer["client.gflops_delivered"] = Gflops.median();
  Layer["client.mult_p50_us"] = MultP50.median() * 1e6;
  Layer["client.mult_p99_us"] = MultP99.median() * 1e6;
  Layer["client.spmm_p50_us"] = SpmmP50.median() * 1e6;
  Layer["client.spmm_p95_us"] = SpmmP95.median() * 1e6;

  if (!O.Trace) {
    for (const char *Name :
         {"client.gflops_delivered", "client.mult_p50_us",
          "client.mult_p99_us", "client.spmm_p50_us", "client.spmm_p95_us"})
      R.noteNumber(Name, Layer[Name]);
    E2E["setup_s"] = Setup.median();
    E2E["solve_s"] = RoundTripA.median();
    E2E["req_per_s"] = Rps.median();
    emitEndToEnd(E2E, R);
    return;
  }

  // Traced run: the daemon's layers, timed from outside.
  measureTriad(R, Layer);
  Layer["trace.overhead"] = Rps.values()[0] / Rps.values()[1] - 1.0;
  if (Before.ok() && After.ok()) {
    double Hits = After->Hits - Before->Hits;
    double Misses = After->Misses - Before->Misses;
    Layer["serve.kernel_cache.hit_ratio"] =
        Hits + Misses > 0 ? Hits / (Hits + Misses) : 0.0;
    Layer["serve.kernel_cache.misses"] = Misses;
    Layer["serve.kernel_cache.evictions"] =
        After->Evictions - Before->Evictions;
    Layer["serve.shed"] = After->Shed - Before->Shed;
    Layer["serve.degraded"] = After->Degraded - Before->Degraded;
  }
  Layer["client.send_lag_p99_us"] = B.SendLag.quantile(0.99) * 1e6;
  Layer["client.backlog_max"] = static_cast<double>(B.BacklogMax);

  // An in-process fleet over the same blobs: load, tune, and the phase B
  // request sequence replayed through Service::handle.
  serve::Fleet F;
  {
    double T0 = now();
    for (const Served &Sv : Fleet) {
      Span Sp("serve.load");
      R.op(F.addBlob(Sv.Name, Sv.Blob).ok(), "in-process load " + Sv.Name);
    }
    Layer["serve.load_s"] = now() - T0;
  }
  {
    Samples Tune;
    for (const Served &Sv : Fleet) {
      std::shared_ptr<const ServedMatrix> E = F.find(Sv.Name);
      if (!R.op(E != nullptr, "find " + Sv.Name))
        continue;
      ExecPlan Plan;
      double T0 = now();
      Span Sp("serve.tune_exec");
      R.op(F.tuneExec(*E, Deadline::never(), Plan).ok(), "tuneExec");
      Tune.add(now() - T0);
    }
    Layer["serve.tune_exec_s"] = Tune.median();
  }
  {
    serve::Fleet Cold; // Fresh kernel cache, so the replay churns it too.
    for (const Served &Sv : Fleet)
      R.op(Cold.addBlob(Sv.Name, Sv.Blob).ok(), "replay load " + Sv.Name);
    Service Svc(Cold);
    Samples SvcMult, SvcSpmm, Protocol, Kernel;
    repeatFor(0.10 * S, 500, 1 << 20, [&](int I) {
      const Req Q = Seq.at(static_cast<std::uint64_t>(I));
      const Served &Sv = Fleet[static_cast<std::size_t>(Q.Matrix)];
      const std::string &Frame = frameOf(Sv, Q);
      Request Rq;
      double T0 = now();
      Status Dec;
      {
        Span Sp("serve.decode");
        Dec = decodeRequest(Frame.data(), Frame.size(), Rq);
      }
      double T1 = now();
      Response Resp;
      {
        Span Sp("serve.handle", static_cast<std::uint64_t>(I));
        Resp = Svc.handle(Rq);
      }
      double T2 = now();
      {
        Span Sp("serve.encode");
        std::string Enc = encodeResponse(Resp);
      }
      double T3 = now();
      Protocol.add((T1 - T0) + (T3 - T2));
      (Q.Spmm ? SvcSpmm : SvcMult).add(T2 - T1);
      std::string Why = Dec.ok() ? checkResponse(Sv, Q, Resp, O.CorruptY)
                                 : "decode: " + Dec.toString();
      R.op(Why.empty(), "in-process " + Sv.Name + ": " + Why);
    });
    Layer["serve.service_us.multiply.p50"] = SvcMult.median() * 1e6;
    Layer["serve.service_us.multiply.p99"] = SvcMult.quantile(0.99) * 1e6;
    Layer["serve.service_us.spmm.p50"] = SvcSpmm.median() * 1e6;
    Layer["serve.protocol_us"] = Protocol.median() * 1e6;
    Layer["serve.transport_us"] =
        (B.RoundTripMult.median() - SvcMult.median()) * 1e6;

    // The kernel alone on the same Multiply sequence.
    std::vector<std::unique_ptr<CvrViewKernel>> Views;
    for (const Served &Sv : Fleet)
      Views.push_back(std::make_unique<CvrViewKernel>(Cold.find(Sv.Name)->M));
    std::vector<double> Y;
    repeatFor(0.05 * S, 500, 1 << 20, [&](int I) {
      Req Q = Seq.at(static_cast<std::uint64_t>(I));
      Q.Spmm = false;
      const Served &Sv = Fleet[static_cast<std::size_t>(Q.Matrix)];
      Y.assign(static_cast<std::size_t>(Sv.A.numRows()), 0.0);
      ProbeKernel K(*Views[static_cast<std::size_t>(Q.Matrix)], O.CorruptY);
      double T0 = now();
      K.run(Sv.Xs[static_cast<std::size_t>(Q.Vec)].data(), Y.data());
      Kernel.add(now() - T0);
      double E = relErr(Y.data(), Sv.Ys[static_cast<std::size_t>(Q.Vec)].data(),
                        Y.size());
      R.op(E <= SpmvTolerance, fmt("view kernel differs by %.3e", E));
    });
    Layer["core.spmv_us.p50"] = Kernel.median() * 1e6;
    Layer["core.spmv_us.p99"] = Kernel.quantile(0.99) * 1e6;
    Layer["core.spmv_us.max_over_p50"] = Kernel.max() / Kernel.median();
  }
  emitPerLayer(Layer, R);
}

} // namespace perfbench
