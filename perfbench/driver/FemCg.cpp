//===- perfbench/driver/FemCg.cpp - fem_cg workload -----------------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Repeated CG solves on a 27-point stencil (80^3 grid: 512k rows, 13.5M
// nnz) with the manufactured solution x* = 1, to a 1e-8 relative residual.
// The memory-bound HPC case: CSR plus CVR exceed the L3, rows are regular.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "gen/Generators.h"
#include "matrix/Reference.h"

#include <cmath>
#include <cstdio>

using namespace cvr;

namespace perfbench {

namespace {

constexpr double Tolerance = 1e-8;
/// The recurrence residual CG stops on drifts from the true one; allow a
/// decade of drift before calling the answer wrong.
constexpr double TrueResidualLimit = 1e-7;
/// ||x - 1||_inf the stopping tolerance allows on this conditioning.
constexpr double SolutionErrorLimit = 1e-4;

double norm2(const std::vector<double> &V) {
  double S = 0.0;
  for (double E : V)
    S += E * E;
  return std::sqrt(S);
}

} // namespace

void runFemCg(const Options &O, Result &R) {
  const int Side = O.Tiny ? 12 : 80;
  SolveSpec Spec;
  Spec.A = genStencil27(Side, Side, Side);
  R.noteNumber("grid_side", Side);
  const auto N = static_cast<std::size_t>(Spec.A.numRows());
  const std::vector<double> B =
      referenceSpmv(Spec.A, std::vector<double>(N, 1.0));
  const double BNorm = norm2(B);

  Spec.Solve = [&](const SpmvKernel &K, std::vector<double> &X) {
    X.assign(N, 0.0);
    SolverOptions Opts;
    Opts.Tolerance = Tolerance;
    Opts.MaxIterations = 2000;
    return conjugateGradient(K, B, X, Opts);
  };
  Spec.Check = [&](const std::vector<double> &X,
                   const SolveResult &SR) -> std::string {
    char Buf[160];
    if (!SR.Converged) {
      std::snprintf(Buf, sizeof(Buf), "CG did not converge (%d iterations)",
                    SR.Iterations);
      return Buf;
    }
    std::vector<double> Ax = referenceSpmv(Spec.A, X);
    double RNorm = 0.0, XErr = 0.0;
    for (std::size_t I = 0; I < N; ++I) {
      RNorm += (B[I] - Ax[I]) * (B[I] - Ax[I]);
      XErr = std::max(XErr, std::fabs(X[I] - 1.0));
    }
    double Rel = std::sqrt(RNorm) / BNorm;
    if (Rel <= TrueResidualLimit && XErr <= SolutionErrorLimit)
      return "";
    std::snprintf(Buf, sizeof(Buf),
                  "true residual %.3e, ||x - 1||_inf %.3e", Rel, XErr);
    return Buf;
  };
  Spec.Epilogue = FusedEpilogue::dot(/*XDotY=*/true, /*YDotY=*/true);
  // Each set-up is short next to the solves and its locality probe is
  // sensitive to host load, so more repetitions steady the median.
  Spec.SetupReps = 5;
  runSolveWorkload(O, Spec, R);
}

} // namespace perfbench
