// Workload definitions, seeded input generation and the solution check.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>

#include "bench.hpp"
#include "blas/blas.hpp"
#include "matrix/generate.hpp"

namespace perfbench {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Seed of the `index`-th draw of one input stream (matrices, rhs).
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  return splitmix64(splitmix64(seed ^ (stream << 56)) + index);
}

struct Hasher {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void word(std::uint64_t w) { h = (h ^ w) * 0x100000001b3ull; }
  void matrix(const Matrix<double>& a) {
    word(std::uint64_t(a.rows()));
    word(std::uint64_t(a.cols()));
    const double* p = a.data();
    for (std::int64_t i = 0, n = a.rows() * a.cols(); i < n; ++i) {
      std::uint64_t w;
      std::memcpy(&w, p + i, sizeof w);
      word(w);
    }
  }
};

double norm2(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

// r = b - A x
std::vector<double> residual(ConstMatrixView<double> a, const double* b, const double* x) {
  const std::int64_t m = a.rows(), n = a.cols();
  std::vector<double> r(b, b + m);
  for (std::int64_t j = 0; j < n; ++j) {
    const double* col = a.data() + j * a.ld();
    const double xj = x[j];
    for (std::int64_t i = 0; i < m; ++i) r[size_t(i)] -= col[i] * xj;
  }
  return r;
}

// A x
std::vector<double> times(ConstMatrixView<double> a, const double* x) {
  std::vector<double> zero(size_t(a.rows()), 0.0);
  std::vector<double> r = residual(a, zero.data(), x);
  for (double& v : r) v = -v;
  return r;
}

// Aᵀ v
std::vector<double> times_transposed(ConstMatrixView<double> a, const double* v) {
  std::vector<double> out(size_t(a.cols()));
  for (std::int64_t j = 0; j < a.cols(); ++j) {
    const double* col = a.data() + j * a.ld();
    double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    std::int64_t i = 0;
    for (; i + 4 <= a.rows(); i += 4) {
      s0 += col[i] * v[i];
      s1 += col[i + 1] * v[i + 1];
      s2 += col[i + 2] * v[i + 2];
      s3 += col[i + 3] * v[i + 3];
    }
    for (; i < a.rows(); ++i) s0 += col[i] * v[i];
    out[size_t(j)] = (s0 + s1) + (s2 + s3);
  }
  return out;
}

}  // namespace

Workload workload_by_name(const std::string& name, int nproc) {
  Workload w;
  w.name = name;
  if (name == "tall_ls" || name == "wide_ls") {
    // 128 x 8 tiles of 128: the paper's tall (p = 16q) least-squares regime.
    w.shapes = {name == "tall_ls" ? Shape{16384, 1024} : Shape{1024, 16384}};
    w.nb = 128;
    w.threads = nproc;
    w.sessions = 3;
    w.matrices = 1;
    w.requests = 8;
  } else if (name == "small_stream") {
    // Kernel work of 0.2-0.5 ms per request, so admission, tiling, grafting
    // and dispatch are a large share of each request's latency.
    w.shapes = {{128, 64}, {192, 64}, {256, 128}, {64, 128}};
    w.nb = 64;
    w.stream = true;
    w.threads = std::max(1, nproc - 1);  // the pushing thread keeps a core
    w.in_flight = 32;
    w.sessions = 16;
    w.matrices = 256;
    w.requests = 256;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

double Inputs::share(int s) const {
  long hits = 0;
  for (const Request& r : reqs) hits += mat_shape[size_t(r.mat)] == s;
  return reqs.empty() ? 0.0 : double(hits) / double(reqs.size());
}

int Inputs::first_request_of(int s) const {
  for (size_t i = 0; i < reqs.size(); ++i)
    if (mat_shape[size_t(reqs[i].mat)] == s) return int(i);
  return -1;
}

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  // Every shape gets an equal share of the matrices, so the work per request
  // cycle is the same for every seed; the seed orders them. The first
  // matrices cover each shape once, so set-up solves them all.
  const int nshapes = int(w.shapes.size());
  std::vector<int> order(size_t(w.matrices));
  for (int k = 0; k < w.matrices; ++k) order[size_t(k)] = k % nshapes;
  std::mt19937_64 pick(sub_seed(seed, 0, 0));
  std::shuffle(order.begin() + std::min(nshapes, w.matrices), order.end(), pick);
  for (int k = 0; k < w.matrices; ++k) {
    const int s = order[size_t(k)];
    const Shape& sh = w.shapes[size_t(s)];
    in.mats.push_back(tiledqr::random_matrix<double>(sh.m, sh.n, sub_seed(seed, 1, std::uint64_t(k))));
    in.mat_shape.push_back(s);
  }
  for (int r = 0; r < w.requests; ++r) {
    const int mat = w.matrices == 1 ? 0 : r % w.matrices;
    const std::int64_t m = in.mats[size_t(mat)].rows();
    in.rhs.push_back(tiledqr::random_matrix<double>(m, 1, sub_seed(seed, 2, std::uint64_t(r))));
    in.reqs.push_back({mat, r});
  }
  Hasher h;
  for (const Shape& s : w.shapes) {
    h.word(std::uint64_t(s.m));
    h.word(std::uint64_t(s.n));
  }
  for (const auto& a : in.mats) h.matrix(a);
  for (const auto& b : in.rhs) h.matrix(b);
  for (const auto& r : in.reqs) {
    h.word(std::uint64_t(r.mat));
    h.word(std::uint64_t(r.rhs));
  }
  in.hash = h.h;
  for (const auto& a : in.mats) in.aux.push_back(make_check_aux(a.view()));
  return in;
}

CheckAux make_check_aux(ConstMatrixView<double> a) {
  CheckAux aux;
  double s = 0.0;
  for (std::int64_t j = 0; j < a.cols(); ++j)
    for (std::int64_t i = 0; i < a.rows(); ++i) s += a(i, j) * a(i, j);
  aux.norm_f = std::sqrt(s);
  if (a.rows() >= a.cols()) return aux;
  // Gram matrix A Aᵀ and its Cholesky factor (right-looking, lower).
  const std::int64_t m = a.rows();
  Matrix<double> g(m, m);
  tiledqr::blas::gemm(tiledqr::blas::Op::NoTrans, tiledqr::blas::Op::Trans, 1.0, a, a, 0.0,
                      g.view());
  for (std::int64_t j = 0; j < m; ++j) {
    if (!(g(j, j) > 0.0)) throw std::runtime_error("check: A Aᵀ is not positive definite");
    const double d = std::sqrt(g(j, j));
    for (std::int64_t i = j; i < m; ++i) g(i, j) /= d;
    for (std::int64_t k = j + 1; k < m; ++k) {
      const double l = g(k, j);
      for (std::int64_t i = k; i < m; ++i) g(i, k) -= g(i, j) * l;
    }
  }
  aux.gram_chol = std::move(g);
  return aux;
}

Verdict check_solution(ConstMatrixView<double> a, const CheckAux& aux, const double* b,
                       const double* x) {
  const std::int64_t m = a.rows(), n = a.cols();
  const double eps = std::numeric_limits<double>::epsilon();
  const std::vector<double> xv(x, x + n);
  const double xnorm = norm2(xv);
  const std::vector<double> r = residual(a, b, x);
  Verdict v;
  if (m >= n) {
    v.residual = norm2(times_transposed(a, r.data())) /
                 (aux.norm_f * aux.norm_f * xnorm * double(m) * eps);
    v.ok = v.residual <= kTallLimit;  // false for NaN
    return v;
  }
  v.residual = norm2(r) / (aux.norm_f * xnorm * double(n) * eps);
  // y = (L Lᵀ)⁻¹ A x, then the distance x − Aᵀy.
  std::vector<double> y = times(a, x);
  const Matrix<double>& l = aux.gram_chol;
  for (std::int64_t i = 0; i < m; ++i) {
    double s = y[size_t(i)];
    for (std::int64_t k = 0; k < i; ++k) s -= l(i, k) * y[size_t(k)];
    y[size_t(i)] = s / l(i, i);
  }
  for (std::int64_t i = m - 1; i >= 0; --i) {
    double s = y[size_t(i)];
    for (std::int64_t k = i + 1; k < m; ++k) s -= l(k, i) * y[size_t(k)];
    y[size_t(i)] = s / l(i, i);
  }
  std::vector<double> z = times_transposed(a, y.data());
  for (std::int64_t j = 0; j < n; ++j) z[size_t(j)] = x[j] - z[size_t(j)];
  v.row_space = norm2(z) / (xnorm * double(n) * eps);
  v.ok = v.residual <= kWideLimit && v.row_space <= kRowSpaceLimit;
  return v;
}

}  // namespace perfbench
