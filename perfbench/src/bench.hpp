// Shared declarations of the repository benchmark program.
//
// The program times the library only through its public API: it generates
// seeded inputs, sets up a FactorSession, runs one workload for a fixed
// time and checks every solution outside the timed region. See
// perfbench/README.md for the workloads and metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/qr_session.hpp"
#include "matrix/matrix.hpp"

namespace perfbench {

using tiledqr::ConstMatrixView;
using tiledqr::Matrix;
namespace core = tiledqr::core;

// ------------------------------------------------------------------ time --

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_between(std::int64_t t0, std::int64_t t1) {
  return double(t1 - t0) * 1e-9;
}

// ------------------------------------------------------------ statistics --

/// Quantile by linear interpolation between order statistics (q in [0, 1]);
/// 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ------------------------------------------------------------- workloads --

struct Shape {
  std::int64_t m = 0;
  std::int64_t n = 0;
  [[nodiscard]] bool wide() const noexcept { return m < n; }
};

struct Workload {
  std::string name;
  std::vector<Shape> shapes;
  int nb = 128;
  int ib = 32;
  /// true: requests go through one FactorStream (push_solve); false: one
  /// client calls solve_least_squares_async and waits for each result.
  bool stream = false;
  int threads = 1;    ///< session pool size
  int in_flight = 1;  ///< requests the client keeps outstanding
  /// Sessions per run: each is set up cold (setup_s is the median set-up)
  /// and then runs an equal share of the timed phase.
  int sessions = 3;
  int matrices = 1;   ///< distinct matrices in the input set
  int requests = 8;   ///< distinct (matrix, rhs) requests, cycled by the timed phase
};

/// The workload named `name` sized for `nproc` CPUs; throws on an unknown name.
[[nodiscard]] Workload workload_by_name(const std::string& name, int nproc);

/// Precomputed data for checking solutions against one matrix (see
/// check_solution). Built once per matrix, outside every timed region.
struct CheckAux {
  double norm_f = 0.0;        ///< Frobenius norm of A
  Matrix<double> gram_chol;   ///< wide A only: lower Cholesky factor of A Aᵀ
};

struct Inputs {
  struct Request {
    int mat = 0;  ///< index into mats
    int rhs = 0;  ///< index into rhs
  };
  std::vector<Matrix<double>> mats;
  std::vector<int> mat_shape;  ///< shape index of each matrix
  std::vector<Matrix<double>> rhs;
  std::vector<Request> reqs;
  std::vector<CheckAux> aux;  ///< one per matrix
  std::uint64_t hash = 0;     ///< over shapes, matrices, rhs and request order

  [[nodiscard]] const Matrix<double>& a(const Request& r) const { return mats[size_t(r.mat)]; }
  [[nodiscard]] const Matrix<double>& b(const Request& r) const { return rhs[size_t(r.rhs)]; }
  /// Share of the request set that has shape `s`.
  [[nodiscard]] double share(int s) const;
  /// Index of the first request of shape `s`, -1 if none.
  [[nodiscard]] int first_request_of(int s) const;
};

/// Inputs of `w` drawn from `seed` (same seed, same inputs), with their
/// check data precomputed.
[[nodiscard]] Inputs make_inputs(const Workload& w, std::uint64_t seed);

// ----------------------------------------------------------- correctness --

/// Fixed acceptance limits of check_solution (ratios of the scaled
/// residuals below; a backward-stable solve lands orders of magnitude under
/// them, and a 1e-6 relative perturbation of x lands orders above).
inline constexpr double kTallLimit = 1.0;      ///< ‖Aᵀ(b−Ax)‖ / (‖A‖²‖x‖·m·ε)
inline constexpr double kWideLimit = 1.0;      ///< ‖b−Ax‖ / (‖A‖‖x‖·n·ε)
inline constexpr double kRowSpaceLimit = 1.0;  ///< ‖x − Aᵀy‖ / (‖x‖·n·ε)

[[nodiscard]] CheckAux make_check_aux(ConstMatrixView<double> a);

struct Verdict {
  bool ok = false;
  double residual = 0.0;   ///< the first ratio above (tall or wide form)
  double row_space = 0.0;  ///< wide only
};

/// Checks x (n x 1) against the system A x ≈ b (m x 1). Tall A: the
/// normal-equations residual. Wide A: the residual and that x lies in the
/// row space of A, measured as ‖x − Aᵀy‖ with y = (AAᵀ)⁻¹Ax. Any y gives an
/// upper bound on x's distance from the row space, so an inexact y can only
/// reject a good x, never accept a bad one.
[[nodiscard]] Verdict check_solution(ConstMatrixView<double> a, const CheckAux& aux,
                                     const double* b, const double* x);

// ----------------------------------------------------------------- spans --

/// Spans recorded by the benchmark around its calls into the library: kept
/// in memory, written as Chrome trace JSON when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  ///< index of the enclosing span, -1 = root
    long req = -1;    ///< request id, -1 = not tied to a request
  };

  /// Opens a span; its parent is the innermost open span unless given.
  int begin(std::string name, long req = -1, int parent = kInnermost);
  void end(int id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Per span name: count, total and self time (duration minus the union of
  /// its children's intervals), in seconds.
  struct Totals {
    std::string name;
    long count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::vector<Totals> totals() const;
  void write_chrome_json(const std::string& path) const;

  static constexpr int kInnermost = -2;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null log records nothing.
class Scoped {
 public:
  Scoped(SpanLog* log, std::string name, long req = -1)
      : log_(log), id_(log ? log->begin(std::move(name), req) : -1) {}
  ~Scoped() {
    if (log_) log_->end(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// ----------------------------------------------------------- end to end --

/// A warm session (and, for stream workloads, its open stream). The stream
/// is declared last so it closes before the session it runs on.
struct Served {
  std::unique_ptr<core::FactorSession> session;
  core::FactorStream<double> stream;
  std::string stream_label;
};

[[nodiscard]] core::Options solve_options(const Workload& w);
[[nodiscard]] core::FactorSession::StreamOptions stream_options(const Workload& w,
                                                                const std::string& label);

/// Constructs a session and solves and checks one request of every shape.
/// Returns the elapsed seconds, or nullopt if a set-up solution failed.
[[nodiscard]] std::optional<double> set_up(const Workload& w, const Inputs& in, Served& out);

struct Outcome {
  int req = 0;              ///< index into Inputs::reqs
  double latency_s = 0.0;   ///< call (or push) to observed result
  double push_s = 0.0;      ///< stream workloads: time inside push_solve
  bool threw = false;
  bool ok = false;          ///< set by check_phase
  Matrix<double> x;
};

struct Phase {
  std::vector<Outcome> outcomes;
  double wall_s = 0.0;
  long failed = 0;  ///< set by check_phase
};

/// Runs the workload's client for `seconds`, then lets outstanding requests
/// finish. `spans` (optional) records a span per request and per call.
[[nodiscard]] Phase run_timed(const Workload& w, const Inputs& in, Served& served, double seconds,
                              SpanLog* spans);

/// Checks every outcome (outside any timed region); a throw or a failed check
/// counts as failed. Returns the number failed.
long check_phase(const Inputs& in, Phase& phase);

/// Nominal flops of one solve of request `r` (geqrf flops of its unpadded shape).
[[nodiscard]] double request_flops(const Inputs& in, int r);

// ------------------------------------------------------------ reporting --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Per-layer metrics of one traced run (see layers.cpp), plus the request
/// counts of its two timed phases.
struct LayerReport {
  std::vector<Metric> metrics;
  long attempted = 0;
  long failed = 0;
  bool setup_ok = false;
  std::vector<std::string> notes;  ///< printed as detail lines
};

[[nodiscard]] LayerReport run_layers(const Workload& w, const Inputs& in, double seconds,
                                     SpanLog& spans);

}  // namespace perfbench
