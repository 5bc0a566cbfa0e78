//===- perfbench/driver/GraphPagerank.cpp - graph_pagerank workload -------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Repeated fused PageRank solves (d = 0.85, tol 1e-10) on the
// column-stochastic transition matrix of an R-MAT scale-18 graph generated
// from the workload seed (about 3.9M nnz). Skewed rows stress CVR's
// feed/steal and chunk-boundary merge; set-up is dominated by the tuner.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "gen/Generators.h"
#include "matrix/Coo.h"
#include "matrix/Reference.h"

#include <cmath>
#include <cstdio>

using namespace cvr;

namespace perfbench {

namespace {

constexpr double Damping = 0.85;
constexpr double Tolerance = 1e-10;
/// L1 distance to the reference ranks: the stopping rule leaves at most
/// Tolerance * d / (1 - d) ~ 6e-10 to the fixed point on either side.
constexpr double RankDistanceLimit = 1e-8;
constexpr double RankSumLimit = 1e-9;

/// The scalar reference kernel: referenceSpmv behind the kernel interface,
/// so the reference ranks come from the same solver code.
class ReferenceKernel : public SpmvKernel {
public:
  explicit ReferenceKernel(const CsrMatrix &A) : A(A) {}
  std::string name() const override { return "reference"; }
  void prepare(const CsrMatrix &) override {}
  void run(const double *X, double *Y) const override {
    referenceSpmv(A, X, Y);
  }
  std::int64_t preparedRows() const override { return A.numRows(); }
  std::int64_t preparedCols() const override { return A.numCols(); }

private:
  const CsrMatrix &A;
};

/// Edge u -> v for each stored (u, v), out-degree normalized into column u.
CsrMatrix transitionMatrix(const CsrMatrix &G) {
  CooMatrix Coo(G.numCols(), G.numRows());
  for (std::int32_t U = 0; U < G.numRows(); ++U)
    for (std::int64_t I = G.rowPtr()[U]; I < G.rowPtr()[U + 1]; ++I)
      Coo.add(G.colIdx()[I], U, 1.0 / static_cast<double>(G.rowLength(U)));
  return CsrMatrix::fromCoo(Coo);
}

} // namespace

void runGraphPagerank(const Options &O, Result &R) {
  const int Scale = O.Tiny ? 10 : 18;
  SolveSpec Spec;
  Spec.A = transitionMatrix(genRmat(Scale, 16, O.Seed));
  R.noteNumber("rmat_scale", Scale);
  const auto N = static_cast<std::size_t>(Spec.A.numRows());

  SolverOptions Opts;
  Opts.Tolerance = Tolerance;
  Opts.MaxIterations = 1000;
  std::vector<double> RefRanks(N);
  {
    SolverOptions RefOpts = Opts;
    RefOpts.Tolerance = 1e-13;
    RefOpts.Fused = false;
    SolveResult SR = pageRank(ReferenceKernel(Spec.A), RefRanks, Damping,
                              RefOpts);
    R.op(SR.Converged, "reference PageRank did not converge");
    R.noteNumber("reference_iterations", SR.Iterations);
  }

  Spec.Solve = [&](const SpmvKernel &K, std::vector<double> &X) {
    X.assign(N, 0.0);
    return pageRank(K, X, Damping, Opts);
  };
  Spec.Check = [&](const std::vector<double> &X,
                   const SolveResult &SR) -> std::string {
    char Buf[160];
    if (!SR.Converged) {
      std::snprintf(Buf, sizeof(Buf),
                    "PageRank did not converge (%d iterations)",
                    SR.Iterations);
      return Buf;
    }
    double Sum = 0.0, Dist = 0.0;
    for (std::size_t I = 0; I < N; ++I) {
      Sum += X[I];
      Dist += std::fabs(X[I] - RefRanks[I]);
    }
    if (std::fabs(Sum - 1.0) <= RankSumLimit && Dist <= RankDistanceLimit)
      return "";
    std::snprintf(Buf, sizeof(Buf),
                  "ranks sum to 1 %+.3e, L1 distance to reference %.3e",
                  Sum - 1.0, Dist);
    return Buf;
  };
  Spec.Epilogue = FusedEpilogue::dampScale(
      Damping, (1.0 - Damping) / static_cast<double>(N));
  runSolveWorkload(O, Spec, R);
}

} // namespace perfbench
