// Set-up and the timed client loops of the end-to-end measurement.
#include <algorithm>

#include "bench.hpp"
#include "blas/blas.hpp"

namespace perfbench {

namespace {

std::string next_stream_label() {
  // Every stream registers its metrics under its own label, so a snapshot
  // never reads a retired stream's samples.
  static int counter = 0;
  return "perfbench" + std::to_string(counter++);
}

Matrix<double> solve_now(const Workload& w, const Inputs& in, Served& s, int r) {
  const auto& q = in.reqs[size_t(r)];
  const ConstMatrixView<double> a = in.a(q).view(), b = in.b(q).view();
  return w.stream ? s.stream.push_solve(a, b).get()
                  : s.session->solve_least_squares_async<double>(a, b, solve_options(w)).get();
}

}  // namespace

core::Options solve_options(const Workload& w) {
  core::Options opt;  // tree left disengaged: the session's autotuner picks it
  opt.nb = w.nb;
  opt.ib = w.ib;
  opt.threads = 0;
  return opt;
}

core::FactorSession::StreamOptions stream_options(const Workload& w, const std::string& label) {
  core::FactorSession::StreamOptions opt;
  opt.nb = w.nb;
  opt.ib = w.ib;
  opt.max_queued = w.in_flight;
  opt.overflow = core::FactorSession::StreamOverflow::Block;
  opt.label = label;
  return opt;
}

std::optional<double> set_up(const Workload& w, const Inputs& in, Served& out) {
  out.stream = {};
  out.session.reset();
  const std::int64_t t0 = now_ns();
  core::FactorSession::Config cfg;
  cfg.threads = w.threads;
  out.session = std::make_unique<core::FactorSession>(cfg);
  if (w.stream) {
    out.stream_label = next_stream_label();
    out.stream = out.session->stream<double>(stream_options(w, out.stream_label));
  }
  bool ok = true;
  for (int s = 0; s < int(w.shapes.size()); ++s) {
    const int r = in.first_request_of(s);
    const auto& q = in.reqs[size_t(r)];
    try {
      const Matrix<double> x = solve_now(w, in, out, r);
      ok = ok && x.rows() == in.a(q).cols() && x.cols() == 1 &&
           check_solution(in.a(q).view(), in.aux[size_t(q.mat)], in.b(q).data(), x.data()).ok;
    } catch (const std::exception&) {
      ok = false;
    }
  }
  const double elapsed = seconds_between(t0, now_ns());
  if (!ok) return std::nullopt;
  return elapsed;
}

Phase run_timed(const Workload& w, const Inputs& in, Served& served, double seconds,
                SpanLog* spans) {
  Phase p;
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + std::int64_t(seconds * 1e9);
  const int nreq = int(in.reqs.size());
  long k = 0;

  if (!w.stream) {
    // Closed loop, one client: the next solve starts when the last returns.
    const core::Options opt = solve_options(w);
    do {
      Outcome o;
      o.req = int(k % nreq);
      const auto& q = in.reqs[size_t(o.req)];
      const int span = spans ? spans->begin("request", k, -1) : -1;
      const std::int64_t t0 = now_ns();
      try {
        std::future<Matrix<double>> f;
        {
          Scoped s(spans, "core.solve_least_squares_async", k);
          f = served.session->solve_least_squares_async<double>(in.a(q).view(), in.b(q).view(),
                                                                opt);
        }
        Scoped s(spans, "future.get", k);
        o.x = f.get();
      } catch (const std::exception&) {
        o.threw = true;
      }
      o.latency_s = seconds_between(t0, now_ns());
      if (spans) spans->end(span);
      p.outcomes.push_back(std::move(o));
      ++k;
    } while (now_ns() < deadline);
    p.wall_s = seconds_between(start, now_ns());
    return p;
  }

  // Closed loop keeping `in_flight` push_solve requests outstanding on one
  // stream. Resolution is observed by polling every outstanding future, so
  // a request that finishes out of order is timed within ~20 us of finishing,
  // not when the ones pushed before it do. Between scans the thread sleeps on
  // the oldest request rather than spinning on every future's lock.
  struct Flight {
    std::future<Matrix<double>> f;
    std::int64_t t_push = 0;
    double push_s = 0.0;
    int span = -1;
    int req = 0;
  };
  std::vector<Flight> flights;
  flights.reserve(size_t(w.in_flight));
  std::int64_t last = start;
  for (;;) {
    while (flights.size() < size_t(w.in_flight) && now_ns() < deadline) {
      Flight fl;
      fl.req = int(k % nreq);
      const auto& q = in.reqs[size_t(fl.req)];
      fl.span = spans ? spans->begin("request", k, -1) : -1;
      fl.t_push = now_ns();
      try {
        Scoped s(spans, "stream.push_solve", k);
        fl.f = served.stream.push_solve(in.a(q).view(), in.b(q).view());
      } catch (const std::exception&) {
        std::promise<Matrix<double>> failed;
        failed.set_exception(std::current_exception());
        fl.f = failed.get_future();
      }
      fl.push_s = seconds_between(fl.t_push, now_ns());
      flights.push_back(std::move(fl));
      ++k;
    }
    if (flights.empty()) break;
    bool any = false;
    for (size_t i = 0; i < flights.size();) {
      if (flights[i].f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++i;
        continue;
      }
      const std::int64_t t = now_ns();
      Outcome o;
      o.req = flights[i].req;
      o.push_s = flights[i].push_s;
      o.latency_s = seconds_between(flights[i].t_push, t);
      try {
        o.x = flights[i].f.get();
      } catch (const std::exception&) {
        o.threw = true;
      }
      if (spans) spans->end(flights[i].span);
      p.outcomes.push_back(std::move(o));
      last = t;
      flights[i] = std::move(flights.back());
      flights.pop_back();
      any = true;
    }
    if (!any) flights.front().f.wait_for(std::chrono::microseconds(20));
  }
  p.wall_s = seconds_between(start, last);
  return p;
}

long check_phase(const Inputs& in, Phase& phase) {
  phase.failed = 0;
  for (Outcome& o : phase.outcomes) {
    const auto& q = in.reqs[size_t(o.req)];
    const auto& a = in.a(q);
    o.ok = !o.threw && o.x.rows() == a.cols() && o.x.cols() == 1 &&
           check_solution(a.view(), in.aux[size_t(q.mat)], in.b(q).data(), o.x.data()).ok;
    phase.failed += !o.ok;
  }
  return phase.failed;
}

double request_flops(const Inputs& in, int r) {
  const auto& a = in.a(in.reqs[size_t(r)]);
  return tiledqr::blas::geqrf_flops(std::max(a.rows(), a.cols()), std::min(a.rows(), a.cols()),
                                    false);
}

}  // namespace perfbench
