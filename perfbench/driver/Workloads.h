//===- perfbench/driver/Workloads.h - Benchmark workloads -------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads (fem_cg, graph_pagerank, serve_zipf) and the shared
/// in-process solve driver behind the first two.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_PERFBENCH_WORKLOADS_H
#define CVR_PERFBENCH_WORKLOADS_H

#include "Bench.h"

#include "formats/FusedEpilogue.h"
#include "matrix/Csr.h"
#include "solvers/Solvers.h"

#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// An in-process solve workload: a matrix, the solve every measured
/// repetition runs, and the check of its answer.
struct SolveSpec {
  cvr::CsrMatrix A;
  /// Runs one solve through \p K (X is overwritten with the solution).
  std::function<cvr::SolveResult(const cvr::SpmvKernel &K,
                                 std::vector<double> &X)>
      Solve;
  /// Empty when \p X is a correct answer, else why it is not.
  std::function<std::string(const std::vector<double> &X,
                            const cvr::SolveResult &R)>
      Check;
  /// The epilogue the solver's fused sweeps apply (for core.fused_us);
  /// copied per call, its accumulators are outputs.
  cvr::FusedEpilogue Epilogue;
  /// Cold set-ups per untraced run; setup_s is their median.
  int SetupReps = 3;
};

/// Runs the shared in-process measurement over \p Spec.
void runSolveWorkload(const Options &O, SolveSpec &Spec, Result &R);

void runFemCg(const Options &O, Result &R);
void runGraphPagerank(const Options &O, Result &R);
void runServeZipf(const Options &O, Result &R);

/// Emits every end-to-end metric from \p Values; a missing one is
/// reported as null so the run is refused rather than silently short.
void emitEndToEnd(const std::map<std::string, double> &Values, Result &R);

/// The STREAM triad the per-layer bandwidth fraction divides by: three
/// arrays of max(4x the total L2, half the total L3, 32 MiB) each, so that
/// together they exceed the L3. Records both sizes.
double measureTriad(Result &R, std::map<std::string, double> &Layer);

} // namespace perfbench

#endif // CVR_PERFBENCH_WORKLOADS_H
