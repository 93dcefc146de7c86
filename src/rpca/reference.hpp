// Frozen pre-workspace solver implementations.
//
// These are the original allocation-per-expression RPCA solvers, kept
// verbatim for two jobs:
//
//  * equivalence testing — the workspace solvers in apg/ialm/rank1
//    must reproduce these bit for bit (the fused kernels and
//    scratch SVD paths preserve floating-point operation order; see
//    tests/rpca/workspace_equivalence_test.cpp);
//  * the perf baseline — bench/perf_regression.cpp reports workspace
//    speedup against exactly this code, so the comparison cannot drift
//    as the production solvers evolve.
//
// Do not "optimize" anything in reference.cpp; its slowness is the point.
#pragma once

#include "rpca/rpca.hpp"

namespace netconst::rpca::reference {

/// Replica of the original rpca::solve dispatch, including default
/// lambda, warm-start bookkeeping, and the allocating rank-1 polish.
Result solve(const linalg::Matrix& a, Solver solver,
             const Options& options = {});

Result solve_apg(const linalg::Matrix& a, const Options& options);
Result solve_ialm(const linalg::Matrix& a, const Options& options);
Result solve_rank1(const linalg::Matrix& a, const Options& options);

}  // namespace netconst::rpca::reference
