//===- perfbench/driver/Solve.cpp - In-process solve workload driver ------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The measurement shared by fem_cg and graph_pagerank. Everything goes
// through public entry points: prepareKernel (default options) for the
// 4-thread kernel, prepareKernel(NumThreads = 1, Tune = false) for the plain
// single-threaded baseline, the solvers, and SpmvKernel::run / runBatch.
// Every output is checked against referenceSpmv or the workload's own check.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "analysis/Roofline.h"
#include "cachesim/LocalityProbe.h"
#include "core/CvrSpmv.h"
#include "engine/Autotune.h"
#include "engine/TunedKernel.h"
#include "formats/CsrSpmv.h"
#include "formats/Registry.h"
#include "matrix/Reference.h"

#include <malloc.h>

#include <cstdio>
#include <optional>

using namespace cvr;

namespace perfbench {

namespace {

constexpr int PanelWidth = 8; ///< Spmm right-hand sides.
constexpr int VectorPool = 4; ///< Distinct x vectors the SpMV loop rotates.
constexpr double SpmvTolerance = 1e-10;

std::string fmt(const char *Fmt, double V) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), Fmt, V);
  return Buf;
}

/// prepareKernel on the CVR ladder; a failure is a failed operation.
std::optional<PreparedKernel> prepare(const CsrMatrix &A,
                                      const PrepareOptions &Opts, Result &R) {
  StatusOr<PreparedKernel> PK = prepareKernel(FormatId::Cvr, A, Opts);
  if (!R.op(PK.ok(), PK.ok() ? "" : "prepare: " + PK.status().toString()))
    return std::nullopt;
  return std::move(*PK);
}

std::string planOf(const SpmvKernel &K) {
  if (const auto *T = dynamic_cast<const TunedCvrKernel *>(&K))
    return T->plan().describe();
  return K.name();
}

/// Times \p Body for \p Budget seconds (at least \p MinReps calls).
template <typename Fn>
Samples timeCalls(double Budget, int MinReps, int MaxReps, Fn Body) {
  Samples S;
  repeatFor(Budget, MinReps, MaxReps, [&](int I) {
    double T0 = now();
    Body(I);
    S.add(now() - T0);
  });
  return S;
}

} // namespace

void runSolveWorkload(const Options &O, SolveSpec &Spec, Result &R) {
  const CsrMatrix &A = Spec.A;
  const auto N = static_cast<std::size_t>(A.numRows());
  const auto NCols = static_cast<std::size_t>(A.numCols());
  const double Nnz = static_cast<double>(A.numNonZeros());
  R.noteNumber("rows", static_cast<double>(N));
  R.noteNumber("nnz", Nnz);
  std::map<std::string, double> E2E, Layer;

  // Seeded inputs and their scalar-reference outputs.
  std::vector<std::vector<double>> Xs, Ys;
  for (int P = 0; P < VectorPool; ++P) {
    Xs.push_back(randomVector(NCols, O.Seed * 7919 + P));
    Ys.push_back(referenceSpmv(A, Xs.back()));
  }
  std::vector<double> XPanel = randomVector(NCols * PanelWidth, O.Seed * 31);
  std::vector<double> YPanelRef(N * PanelWidth);
  {
    std::vector<double> Col(NCols), Out(N);
    for (int J = 0; J < PanelWidth; ++J) {
      for (std::size_t I = 0; I < NCols; ++I)
        Col[I] = XPanel[I * PanelWidth + J];
      referenceSpmv(A, Col.data(), Out.data());
      for (std::size_t I = 0; I < N; ++I)
        YPanelRef[I * PanelWidth + J] = Out[I];
    }
  }

  // Set-up: cold prepareKernel with default options, the process plan
  // cache cleared before each, so every repetition tunes from scratch. The
  // heap the previous repetition freed is handed back to the system first:
  // glibc keeps it otherwise, and peak_rss_mb would grow with the number
  // of repetitions (about 200 MB each on fem_cg) instead of measuring one.
  Samples Setup;
  std::optional<PreparedKernel> K4;
  std::string Plans = "[";
  const int SetupReps = O.Trace ? 1 : Spec.SetupReps;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    K4.reset();
    clearPlanCache();
    malloc_trim(0);
    double T0 = now();
    {
      Span S("formats.prepare");
      K4 = prepare(A, PrepareOptions{}, R);
    }
    Setup.add(now() - T0);
    if (!K4)
      return;
    if (Rep)
      Plans += ',';
    Plans += jsonString(planOf(*K4->Kernel));
  }
  R.note("plans", Plans + "]");
  R.noteString("variant", K4->Actual);
  if (const auto *T = dynamic_cast<const TunedCvrKernel *>(K4->Kernel.get())) {
    R.noteNumber("plan_default_us", T->tuneResult().BaselineSeconds * 1e6);
    R.noteNumber("plan_best_us", T->tuneResult().BestSeconds * 1e6);
  }
  Layer["formats.downgrades"] = static_cast<double>(K4->Downgrades.size());

  R.noteNumber("anon_huge_mb", anonHugeMb());

  ProbeKernel P4(*K4->Kernel, O.CorruptY);
  std::vector<double> Y(N), YPanel(N * PanelWidth);

  auto checkSpmv = [&](int I) {
    double E = relErr(Y.data(), Ys[static_cast<std::size_t>(I % VectorPool)]
                                    .data(),
                      N);
    R.op(E <= SpmvTolerance, fmt("spmv: y differs from reference by %.3e", E));
  };
  auto spmvLoop = [&](const SpmvKernel &K, double Budget, int MinReps) {
    Samples S;
    repeatFor(Budget, MinReps, 1 << 20, [&](int I) {
      const double *X = Xs[static_cast<std::size_t>(I % VectorPool)].data();
      double T0 = now();
      K.run(X, Y.data());
      S.add(now() - T0);
      checkSpmv(I);
    });
    return S;
  };
  auto spmmLoop = [&](double Budget, int MinReps) {
    Samples S;
    repeatFor(Budget, MinReps, 1 << 20, [&](int) {
      double T0 = now();
      Status St = P4.runBatch(XPanel.data(), PanelWidth, YPanel.data(),
                              PanelWidth, PanelWidth);
      S.add(now() - T0);
      double E = St.ok() ? relErr(YPanel.data(), YPanelRef.data(),
                                  N * PanelWidth)
                         : 1.0;
      R.op(St.ok() && E <= SpmvTolerance,
           St.ok() ? fmt("spmm: Y differs from reference by %.3e", E)
                   : "spmm: " + St.toString());
    });
    return S;
  };
  // Per solve: iterations, solver self time (wall minus kernel calls) and
  // the kernel's share; InSolve pools every kernel call the solver made.
  Samples Iters, SelfS, Share, InSolve;
  std::vector<double> X;
  auto solveLoop = [&](ProbeKernel &K, double Budget, int MinReps) {
    return timeCalls(Budget, MinReps, 1 << 20, [&](int) {
      K.resetCalls();
      double T0 = now();
      SolveResult SR;
      {
        Span S("solvers.solve");
        SR = Spec.Solve(K, X);
      }
      double Wall = now() - T0;
      std::string Why = Spec.Check(X, SR);
      R.op(Why.empty(), "solve: " + Why);
      double Kernel = K.calls().sum();
      Iters.add(SR.Iterations);
      SelfS.add(Wall - Kernel);
      Share.add(Kernel / Wall);
      InSolve.append(K.calls());
    });
  };

  // Warm-up: first touch of the output vectors and kernel-side scratch.
  P4.run(Xs[0].data(), Y.data());
  checkSpmv(0);

  const double S = O.Seconds;
  if (!O.Trace) {
    // Interleaved rounds: a slow spell on the host moves a few samples of
    // every figure instead of all samples of one. The plain run() and
    // runBatch figures are recorded but not gated (README.md: they drift
    // with the host's memory bandwidth by more than any bound allows).
    const int Rounds = O.Tiny ? 2 : 4;
    Samples Mult, Spmm, Solve4;
    for (int Round = 0; Round < Rounds; ++Round) {
      // At least 10 samples beyond the recorded p99 and p95.
      Mult.append(spmvLoop(P4, 0.15 * S / Rounds, 1000 / Rounds));
      Spmm.append(spmmLoop(0.10 * S / Rounds, 200 / Rounds));
      Solve4.append(solveLoop(P4, 0.75 * S / Rounds, 1));
    }
    R.noteNumber("rounds", Rounds);
    R.noteNumber("samples.solve", static_cast<double>(Solve4.size()));
    R.noteNumber("samples.solver_calls", static_cast<double>(InSolve.size()));
    R.noteNumber("samples.run", static_cast<double>(Mult.size()));
    R.noteNumber("samples.run_batch", static_cast<double>(Spmm.size()));
    R.noteNumber("solver_call_p50_us", InSolve.median() * 1e6);
    R.noteNumber("solver_call_p99_us", InSolve.quantile(0.99) * 1e6);
    R.noteNumber("run_gflops", 2.0 * Nnz / Mult.median() / 1e9);
    R.noteNumber("run_p50_us", Mult.median() * 1e6);
    R.noteNumber("run_p99_us", Mult.quantile(0.99) * 1e6);
    R.noteNumber("run_batch_p50_us", Spmm.median() * 1e6);
    R.noteNumber("run_batch_p95_us", Spmm.quantile(0.95) * 1e6);
    E2E["setup_s"] = Setup.median();
    E2E["solve_s"] = Solve4.median();
    // The median of the per-solve rates. A rate over summed solve times
    // (a mean) spread 26-39% between runs on a shared 4-vCPU host, where
    // one slow spell stalls a few 4-thread solves by 2-3x.
    E2E["req_per_s"] = 1.0 / Solve4.median();
    E2E["peak_rss_mb"] = peakRssMb();
    emitEndToEnd(E2E, R);
    return;
  }

  // Traced run: each layer's public entry point timed alone, from here.
  double Triad = measureTriad(R, Layer);
  {
    Samples Convert;
    for (int Rep = 0; Rep < 3; ++Rep) {
      double T0 = now();
      Span Sp("core.convert");
      StatusOr<CvrMatrix> M = CvrMatrix::tryFromCsr(A, CvrOptions{});
      Convert.add(now() - T0);
      R.op(M.ok(), M.ok() ? "" : "convert: " + M.status().toString());
    }
    Layer["core.convert_s"] = Convert.median();
  }
  {
    CvrKernel Plain{CvrOptions{}};
    if (R.op(Plain.prepareStatus(A).ok(), "probe: plain CVR prepare")) {
      double T0 = now();
      Span Sp("cachesim.probe");
      LocalityResult L = probeLocality(Plain, A);
      Layer["cachesim.probe_s"] = now() - T0;
      R.noteNumber("probe_l2_miss_ratio", L.L2MissRatio);
    }
  }
  {
    AutotuneOptions AO;
    AO.UseCache = false;
    double T0 = now();
    Span Sp("engine.tune");
    StatusOr<AutotuneResult> T = tryAutotuneCvr(A, AO);
    Layer["engine.tune_s"] = now() - T0;
    if (R.op(T.ok(), T.ok() ? "" : "tune: " + T.status().toString())) {
      Layer["engine.tune_runs"] = T->IterationsUsed;
      Layer["engine.tune_gain"] =
          T->BestSeconds > 0 ? T->BaselineSeconds / T->BestSeconds : 0.0;
      Layer["engine.tune_base_us"] = T->BaselineSeconds * 1e6;
      R.noteString("tune_alone_plan", T->Plan.describe());
    }
  }
  {
    CsrSpmv Csr;
    if (R.op(Csr.prepareStatus(A).ok(), "csr baseline prepare")) {
      ProbeKernel PC(Csr, O.CorruptY);
      Span Sp("formats.csr_loop");
      Layer["formats.csr_spmv_us.p50"] =
          spmvLoop(PC, 0.05 * S, 20).median() * 1e6;
    }
  }
  Samples Mult = spmvLoop(P4, 0.15 * S, 50);
  Layer["core.spmv_us.p50"] = Mult.median() * 1e6;
  Layer["core.spmv_us.p99"] = Mult.quantile(0.99) * 1e6;
  Layer["core.spmv_us.max_over_p50"] = Mult.max() / Mult.median();
  if (const auto *Src =
          dynamic_cast<const CvrMatrixSource *>(K4->Kernel.get())) {
    analysis::RooflinePrediction RP = analysis::predictCvr(Src->cvrMatrix());
    Layer["core.gbps_computed"] = RP.TotalBytes / Mult.median() / 1e9;
    Layer["core.bw_fraction"] = Layer["core.gbps_computed"] / Triad;
    R.noteNumber("computed_bytes_per_spmv", RP.TotalBytes);
  }
  {
    Samples Fused = timeCalls(0.10 * S, 50, 1 << 20, [&](int I) {
      FusedEpilogue E = Spec.Epilogue;
      P4.runFused(Xs[static_cast<std::size_t>(I % VectorPool)].data(),
                  Y.data(), E);
    });
    Layer["core.fused_us.p50"] = Fused.median() * 1e6;
    Layer["core.fused_over_plain"] = Fused.median() / Mult.median();
  }
  {
    Samples Spmm = spmmLoop(0.08 * S, 20);
    Layer["core.spmm_us.p50"] = Spmm.median() * 1e6;
    Layer["core.spmm_us.p95"] = Spmm.quantile(0.95) * 1e6;
  }
  Layer["core.spmv_gflops"] = 2.0 * Nnz / Mult.median() / 1e9;
  {
    // The plain single-threaded baseline, built only where it is measured
    // so that untraced runs hold one kernel.
    PrepareOptions Plain1;
    Plain1.NumThreads = 1;
    Plain1.Tune = false;
    if (std::optional<PreparedKernel> K1 = prepare(A, Plain1, R)) {
      R.noteString("variant_1t", K1->Actual);
      ProbeKernel P1(*K1->Kernel, O.CorruptY);
      P1.run(Xs[0].data(), Y.data());
      checkSpmv(0);
      Layer["core.spmv_us_1t.p50"] =
          spmvLoop(P1, 0.10 * S, 10).median() * 1e6;
      Layer["solvers.solve_s_1t"] = solveLoop(P1, 0.10 * S, 2).median();
    }
  }

  // The same solves untraced and traced: the ratio is the tracing overhead.
  Tracer::instance().enable(false);
  Iters = SelfS = Share = InSolve = Samples();
  Samples Untraced = solveLoop(P4, 0.15 * S, 2);
  Layer["core.solver_call_us.p50"] = InSolve.median() * 1e6;
  Iters = SelfS = Share = Samples();
  Tracer::instance().enable(true);
  const std::size_t FirstSpan = Tracer::instance().size();
  Samples Traced = solveLoop(P4, 0.15 * S, 2);
  Layer["solvers.iterations.min"] = Iters.min();
  Layer["solvers.iterations.max"] = Iters.max();
  Layer["solvers.self_s"] = SelfS.median();
  Layer["solvers.kernel_share"] = Share.median();
  Layer["trace.overhead"] = Traced.median() / Untraced.median() - 1.0;
  // Two independent measurements against the untraced solve: the kernel
  // time the tracer saw under each traced solve (self time of its core.*
  // spans) plus the solver self time the decorator's call timer leaves.
  Samples KernelSpans;
  for (double V :
       Tracer::instance().layerSecondsUnder(FirstSpan, "solvers.solve", "core"))
    KernelSpans.add(V);
  Layer["trace.solve_accounted"] =
      (KernelSpans.median() + SelfS.median()) / Untraced.median();
  emitPerLayer(Layer, R);
}

} // namespace perfbench
