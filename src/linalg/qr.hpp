// Householder QR factorization and least-squares solve.
//
// Used to precondition tall-skinny inputs before the one-sided Jacobi SVD
// (SVD of the small R factor instead of the full matrix) and exposed on
// its own for tests and downstream users.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace netconst::linalg {

/// Thin QR of an m x n matrix with m >= n: A = Q (m x n, orthonormal
/// columns) * R (n x n, upper triangular).
struct QrResult {
  Matrix q;
  Matrix r;
};

/// Compute the thin QR factorization. Requires rows >= cols.
QrResult qr_decompose(const Matrix& a);

/// Solve min ||A x - b||_2 for full-column-rank A via QR. Throws Error if
/// R is numerically singular.
std::vector<double> least_squares(const Matrix& a,
                                  std::vector<double> b);

/// Back-substitution for upper-triangular R x = y.
std::vector<double> solve_upper_triangular(const Matrix& r,
                                           std::vector<double> y);

}  // namespace netconst::linalg
