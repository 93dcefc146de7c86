#include "linalg/qr.hpp"

#include <cmath>

#include "linalg/blas.hpp"
#include "support/error.hpp"

namespace netconst::linalg {
namespace {

// In-place Householder factorization of `work` (m x n, m >= n): on
// return the upper triangle holds R and the essential parts of the
// reflectors sit below the diagonal with scaling factors in `tau`.
void qr_factor_inplace(Matrix& work, std::vector<double>& tau) {
  NETCONST_CHECK(work.rows() >= work.cols(),
                 "Householder factorization requires rows >= cols");
  const std::size_t m = work.rows();
  const std::size_t n = work.cols();
  tau.assign(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    // Norm of the k-th column below the diagonal.
    double norm = 0.0;
    for (std::size_t i = k; i < m; ++i) norm += work(i, k) * work(i, k);
    norm = std::sqrt(norm);
    if (norm == 0.0) continue;
    const double alpha = work(k, k) >= 0.0 ? -norm : norm;
    // v = x - alpha * e1, normalized so v[k] = 1.
    const double vkk = work(k, k) - alpha;
    if (vkk == 0.0) continue;
    for (std::size_t i = k + 1; i < m; ++i) work(i, k) /= vkk;
    tau[k] = -vkk / alpha;
    work(k, k) = alpha;
    // Apply (I - tau v v^T) to the trailing columns.
    for (std::size_t j = k + 1; j < n; ++j) {
      double s = work(k, j);
      for (std::size_t i = k + 1; i < m; ++i) s += work(i, k) * work(i, j);
      s *= tau[k];
      work(k, j) -= s;
      for (std::size_t i = k + 1; i < m; ++i) {
        work(i, j) -= s * work(i, k);
      }
    }
  }
}

// Form the thin Q (m x n, orthonormal columns) of a factorization
// produced by qr_factor_inplace.
void qr_thin_q_into(const Matrix& work, const std::vector<double>& tau,
                    Matrix& q) {
  const std::size_t m = work.rows();
  const std::size_t n = work.cols();
  NETCONST_CHECK(tau.size() == n, "tau does not match the factorization");
  // Apply the reflectors to the first n identity columns in reverse
  // order.
  q.resize(m, n);
  q.fill(0.0);
  for (std::size_t j = 0; j < n; ++j) q(j, j) = 1.0;
  for (std::size_t k = n; k-- > 0;) {
    if (tau[k] == 0.0) continue;
    for (std::size_t j = 0; j < n; ++j) {
      double s = q(k, j);
      for (std::size_t i = k + 1; i < m; ++i) {
        s += work(i, k) * q(i, j);
      }
      s *= tau[k];
      q(k, j) -= s;
      for (std::size_t i = k + 1; i < m; ++i) {
        q(i, j) -= s * work(i, k);
      }
    }
  }
}

// Apply Q^T (product of reflectors in `work`/`tau`) to a vector in place.
void apply_qt(const Matrix& work, const std::vector<double>& tau,
              std::vector<double>& b) {
  const std::size_t m = work.rows();
  const std::size_t n = work.cols();
  for (std::size_t k = 0; k < n; ++k) {
    if (tau[k] == 0.0) continue;
    double s = b[k];
    for (std::size_t i = k + 1; i < m; ++i) s += work(i, k) * b[i];
    s *= tau[k];
    b[k] -= s;
    for (std::size_t i = k + 1; i < m; ++i) b[i] -= s * work(i, k);
  }
}

}  // namespace

QrResult qr_decompose(const Matrix& a) {
  NETCONST_CHECK(a.rows() >= a.cols(), "thin QR requires rows >= cols");
  const std::size_t n = a.cols();
  Matrix work = a;
  std::vector<double> tau;
  qr_factor_inplace(work, tau);

  QrResult result;
  result.r = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) result.r(i, j) = work(i, j);
  }
  qr_thin_q_into(work, tau, result.q);
  return result;
}

std::vector<double> solve_upper_triangular(const Matrix& r,
                                           std::vector<double> y) {
  NETCONST_CHECK(r.rows() == r.cols(), "triangular solve needs square R");
  NETCONST_CHECK(r.rows() == y.size(), "triangular solve size mismatch");
  const std::size_t n = r.rows();
  for (std::size_t i = n; i-- > 0;) {
    double s = y[i];
    for (std::size_t j = i + 1; j < n; ++j) s -= r(i, j) * y[j];
    NETCONST_CHECK(std::abs(r(i, i)) > 1e-300,
                   "singular triangular system");
    y[i] = s / r(i, i);
  }
  return y;
}

std::vector<double> least_squares(const Matrix& a, std::vector<double> b) {
  NETCONST_CHECK(a.rows() == b.size(), "least_squares size mismatch");
  NETCONST_CHECK(a.rows() >= a.cols(), "least_squares needs rows >= cols");
  Matrix work = a;
  std::vector<double> tau;
  qr_factor_inplace(work, tau);
  apply_qt(work, tau, b);
  Matrix r(a.cols(), a.cols());
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t j = i; j < a.cols(); ++j) r(i, j) = work(i, j);
  }
  b.resize(a.cols());
  return solve_upper_triangular(r, std::move(b));
}

}  // namespace netconst::linalg
