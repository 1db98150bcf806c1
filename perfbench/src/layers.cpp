// The traced run: per-layer numbers, each timed around a public call.
//
// Order: one set-up, an untraced timed phase (pool, plan-cache, tuner and
// stream counters are read as deltas over it), a traced timed phase (the
// library's tracer and kernel profiler on, a benchmark span per request),
// then isolated probes of each layer on every workload shape. Shape-level
// numbers of a mixed workload are averaged with the mix's shares.
#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "kernels/lq_kernels.hpp"
#include "matrix/generate.hpp"
#include "obs/kernel_profile.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perf/kernel_bench.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/bounded.hpp"

namespace perfbench {

namespace {

using tiledqr::TileMatrix;
using tiledqr::kernels::ApplyTrans;
using tiledqr::kernels::KernelKind;
namespace kernels = tiledqr::kernels;
namespace perf = tiledqr::perf;
namespace runtime = tiledqr::runtime;
namespace obs = tiledqr::obs;

constexpr int kKinds = kernels::kNumKernelKinds;  // QR and LQ kinds

/// Median seconds of `body`, each call preceded by an untimed `prepare` and
/// wrapped in a span; repeats until both `min_reps` calls and `min_s`
/// seconds of timed work are reached.
double time_median(SpanLog& log, const char* name, int min_reps, double min_s,
                   const std::function<void()>& prepare, const std::function<void()>& body) {
  std::vector<double> t;
  double total = 0.0;
  while ((int(t.size()) < min_reps || total < min_s) && t.size() < 2000) {
    prepare();
    const int span = log.begin(name);
    const std::int64_t t0 = now_ns();
    body();
    t.push_back(seconds_between(t0, now_ns()));
    log.end(span);
    total += t.back();
  }
  return median(t);
}

const auto kNothing = [] {};

/// Isolated per-call seconds of every QR and LQ kernel at (nb, ib), in cache,
/// on restored operands. QR and LQ duals are timed back to back, so their
/// ratio compares like with like.
std::array<double, kKinds> isolated_kernel_seconds(SpanLog& log, int nb, int ib) {
  auto upper = [&](std::uint64_t seed, bool lower) {
    Matrix<double> m = tiledqr::random_matrix<double>(nb, nb, seed);
    for (std::int64_t j = 0; j < nb; ++j)
      for (std::int64_t i = 0; i < nb; ++i)
        if (lower ? i < j : i > j) m(i, j) = 0.0;
    return m;
  };
  const Matrix<double> a_full = tiledqr::random_matrix<double>(nb, nb, 11);
  const Matrix<double> c_full = tiledqr::random_matrix<double>(nb, nb, 12);
  const Matrix<double> up = upper(13, false), up2 = upper(14, false);
  const Matrix<double> lo = upper(15, true), lo2 = upper(16, true);
  Matrix<double> a1, a2, c1, c2, t(ib, nb);
  std::array<double, kKinds> sec{};
  auto time = [&](KernelKind k, const Matrix<double>& p1, const Matrix<double>& p2,
                  const std::function<void()>& call) {
    sec[size_t(k)] = time_median(
        log, "kernels.isolated", 20, 0.02,
        [&] {
          a1 = p1;
          a2 = p2;
          c1 = c_full;
          c2 = c_full;
        },
        call);
  };
  const auto CT = ApplyTrans::ConjTrans;
  // Update kernels read reflectors left by a factor kernel; any tile works
  // for timing since the kernels are data-oblivious.
  time(KernelKind::GEQRT, a_full, a_full, [&] { kernels::geqrt(ib, a2.view(), t.view()); });
  time(KernelKind::GELQT, a_full, a_full, [&] { kernels::gelqt(ib, a2.view(), t.view()); });
  time(KernelKind::UNMQR, a_full, a_full,
       [&] { kernels::unmqr(CT, ib, a2.view(), t.view(), c1.view()); });
  time(KernelKind::UNMLQ, a_full, a_full,
       [&] { kernels::unmlq(CT, ib, a2.view(), t.view(), c1.view()); });
  time(KernelKind::TSQRT, up, a_full, [&] { kernels::tsqrt(ib, a1.view(), a2.view(), t.view()); });
  time(KernelKind::TSLQT, lo, a_full, [&] { kernels::tslqt(ib, a1.view(), a2.view(), t.view()); });
  time(KernelKind::TSMQR, a_full, a_full,
       [&] { kernels::tsmqr(CT, ib, a2.view(), t.view(), c1.view(), c2.view()); });
  time(KernelKind::TSMLQ, a_full, a_full,
       [&] { kernels::tsmlq(CT, ib, a2.view(), t.view(), c1.view(), c2.view()); });
  time(KernelKind::TTQRT, up, up2, [&] { kernels::ttqrt(ib, a1.view(), a2.view(), t.view()); });
  time(KernelKind::TTLQT, lo, lo2, [&] { kernels::ttlqt(ib, a1.view(), a2.view(), t.view()); });
  time(KernelKind::TTMQR, up, up,
       [&] { kernels::ttmqr(CT, ib, a1.view(), t.view(), c1.view(), c2.view()); });
  time(KernelKind::TTMLQ, lo, lo,
       [&] { kernels::ttmlq(CT, ib, a1.view(), t.view(), c1.view(), c2.view()); });
  return sec;
}

/// Everything measured on one workload shape.
struct ShapeProbe {
  std::string tree;
  double tile_in_s = 0, tile_out_s = 0, plan_build_s = 0, decide_cold_s = 0;
  double factor_s = 0, apply_s = 0, trsm_s = 0, useful_ratio = 0, tasks = 0;
  double seq_factor_s = 0, seq_tail_s = 0, isolated_sum_s = 0, model_s = 0, empty_task_s = 0;
  std::vector<double> pool_s;  ///< factor DAG on a fresh pool of each ladder size
  [[nodiscard]] double seq_solve_s() const { return seq_factor_s + seq_tail_s; }
};

ShapeProbe probe_shape(const Workload& w, const Inputs& in, int shape, core::FactorSession& session,
                       const std::array<double, kKinds>& iso, const std::vector<int>& ladder,
                       SpanLog& log) {
  ShapeProbe sp;
  const auto& q = in.reqs[size_t(in.first_request_of(shape))];
  const ConstMatrixView<double> a = in.a(q).view(), b = in.b(q).view();
  const bool big = a.rows() * a.cols() >= (1 << 22);
  const int reps = big ? 3 : 20;
  const double min_s = big ? 0.0 : 0.05;

  TileMatrix<double> tiles;
  {
    Scoped layer(&log, "probe.matrix");
    sp.tile_in_s = time_median(log, "matrix.from_dense", reps, min_s, kNothing,
                               [&] { tiles = TileMatrix<double>::from_dense(a, w.nb); });
    sp.tile_out_s = time_median(log, "matrix.to_dense", reps, min_s, kNothing,
                                [&] { (void)tiles.to_dense(); });
  }
  const bool lq = tiles.m() < tiles.n();
  const auto kind = lq ? kernels::FactorKind::LQ : kernels::FactorKind::QR;
  const int rp = lq ? tiles.nt() : tiles.mt(), rq = lq ? tiles.mt() : tiles.nt();

  core::Options opt = solve_options(w);
  opt.tree = session.choose_tree_for(tiles);  // warm: the timed phases tuned this shape
  sp.tree = opt.tree->name();
  {
    Scoped layer(&log, "probe.tuner");
    std::unique_ptr<core::FactorSession> cold;
    core::FactorSession::Config cfg;
    cfg.threads = w.threads;
    sp.decide_cold_s = time_median(
        log, "tuner.decide_tree", big ? 3 : 10, 0.0,
        [&] { cold = std::make_unique<core::FactorSession>(cfg); },
        [&] { (void)cold->decide_tree(rp, rq, 0, kind); });
  }
  {
    Scoped layer(&log, "probe.core.plan");
    sp.plan_build_s = time_median(log, "core.make_plan", reps, min_s, kNothing,
                                  [&] { (void)core::make_plan(rp, rq, *opt.tree, kind); });
  }

  // Solve stages on the warm session, each through its own public call.
  std::optional<core::TiledQr<double>> qr;
  TileMatrix<double> work, c;
  {
    Scoped layer(&log, "probe.core.stages");
    sp.factor_s = time_median(
        log, "core.submit", reps, min_s, [&] { work = tiles; },
        [&] { qr.emplace(session.submit(std::move(work), opt).get()); });
    const ApplyTrans trans = lq ? ApplyTrans::NoTrans : ApplyTrans::ConjTrans;
    auto make_c = [&] {
      c = lq ? qr->start_minimum_norm(b) : TileMatrix<double>::from_dense(b, w.nb);
    };
    sp.apply_s = time_median(log, "core.apply_q_async", reps, min_s, make_c,
                             [&] { c = session.apply_q_async(*qr, trans, std::move(c)).get(); });
    const double solve_s =
        time_median(log, "core.solve_least_squares_async(qr,b)", reps, min_s, kNothing,
                    [&] { (void)session.solve_least_squares_async<double>(*qr, b).get(); });
    sp.trsm_s = std::max(0.0, solve_s - sp.apply_s);
    make_c();
    sp.useful_ratio = double(b.cols()) / double(std::int64_t(c.nt()) * w.nb);
    sp.tasks = double(qr->plan().graph.tasks.size() + qr->build_apply_graph(trans, c.nt()).tasks.size());
  }

  const core::Plan& plan = qr->plan();
  {
    // The same plan replayed: inline on one thread, then on fresh pools.
    Scoped layer(&log, "probe.runtime");
    core::Options one = opt;
    one.threads = 1;
    std::optional<core::TiledQr<double>> qr1;
    sp.seq_factor_s = time_median(
        log, "core.TiledQr::factorize(1 thread)", big ? 1 : 20, min_s, [&] { work = tiles; },
        [&] { qr1.emplace(core::TiledQr<double>::factorize(std::move(work), one)); });
    sp.seq_tail_s = time_median(log, "core.TiledQr::solve_least_squares(1 thread)",
                                big ? 1 : 20, min_s, kNothing,
                                [&] { (void)qr1->solve_least_squares(b); });
    for (const auto& task : plan.graph.tasks) sp.isolated_sum_s += iso[size_t(task.kind)];

    core::TStore<double> ts(rp, rq, w.ib, w.nb), t2s(rp, rq, w.ib, w.nb);
    auto run_kernel = [&](std::int32_t idx) {
      core::run_task_kernels(plan.graph.tasks[size_t(idx)], work, ts, t2s, w.ib);
    };
    for (int workers : ladder) {
      runtime::ThreadPool pool(workers);
      sp.pool_s.push_back(time_median(
          log, "runtime.ThreadPool::run", big ? 1 : 20, min_s, [&] { work = tiles; },
          [&] { pool.run(plan.graph, run_kernel, runtime::SchedulePriority::CriticalPath, 0,
                         &plan.ranks); }));
    }
    runtime::ThreadPool pool(w.threads);
    sp.empty_task_s =
        time_median(log, "runtime.ThreadPool::run(empty body)", 10, 0.05, kNothing, [&] {
          pool.run(plan.graph, [](std::int32_t) {}, runtime::SchedulePriority::CriticalPath, 0,
                   &plan.ranks);
        }) /
        double(plan.graph.tasks.size());
  }
  {
    Scoped layer(&log, "probe.sim");
    std::array<double, 6> weight{};
    for (int k = 0; k < kernels::kNumQrKernelKinds; ++k)
      weight[size_t(k)] = iso[size_t(lq ? int(kernels::lq_dual(KernelKind(k))) : k)];
    Scoped call(&log, "sim.simulate_bounded_weighted");
    sp.model_s = tiledqr::sim::simulate_bounded_weighted(plan.graph, w.threads, weight,
                                                         tiledqr::sim::SimPriority::CriticalPath)
                     .makespan;
  }
  return sp;
}

struct PoolDelta {
  double steal_frac = 0, foreign_frac = 0, steal_p95_us = 0, empty_probes_per_task = 0;
};

PoolDelta pool_delta(const runtime::ThreadPool::Stats& a, const runtime::ThreadPool::Stats& b) {
  runtime::ThreadPool::Stats d;
  for (int i = 0; i < runtime::ThreadPool::kStealLatencyBuckets; ++i)
    d.steal_latency_hist[size_t(i)] = b.steal_latency_hist[size_t(i)] - a.steal_latency_hist[size_t(i)];
  const double tasks = double(std::max(1L, b.tasks_executed - a.tasks_executed));
  const double placed = double(std::max(1L, (b.tasks_home - a.tasks_home) +
                                                (b.tasks_foreign - a.tasks_foreign)));
  PoolDelta p;
  p.steal_frac = double(b.tasks_stolen - a.tasks_stolen) / tasks;
  p.foreign_frac = double(b.tasks_foreign - a.tasks_foreign) / placed;
  p.steal_p95_us = double(d.steal_latency_quantile_ns(0.95)) / 1e3;
  p.empty_probes_per_task = double(b.empty_steal_probes - a.empty_steal_probes) / tasks;
  return p;
}

double hit_rate(long hits0, long miss0, long hits1, long miss1) {
  const long h = hits1 - hits0, m = miss1 - miss0;
  return h + m > 0 ? double(h) / double(h + m) : 0.0;
}

double p50_ms(const Phase& p) {
  std::vector<double> v;
  for (const Outcome& o : p.outcomes) v.push_back(o.latency_s * 1e3);
  return median(v);
}

double lib_latency_p50_ms(const std::string& label) {
  const double us =
      obs::MetricsRegistry::global().snapshot().value("stream." + label + ".latency.p50_us");
  return std::isnan(us) ? 0.0 : us / 1e3;
}

}  // namespace

LayerReport run_layers(const Workload& w, const Inputs& in, double seconds, SpanLog& log) {
  LayerReport rep;
  std::vector<Metric>& out = rep.metrics;
  const int nshapes = int(w.shapes.size());
  auto mix = [&](auto&& value) {
    double s = 0.0;
    for (int k = 0; k < nshapes; ++k) s += in.share(k) * value(k);
    return s;
  };

  Served served;
  {
    Scoped s(&log, "setup");
    rep.setup_ok = set_up(w, in, served).has_value();
  }
  core::FactorSession& session = *served.session;

  // Untraced phase: counters as deltas over it.
  const auto pool0 = session.pool_stats();
  const auto plan0 = session.plan_cache_stats();
  const auto tune0 = session.tuning_stats();
  core::FactorStream<double>::Stats stream0{};
  if (w.stream) stream0 = served.stream.stats();
  Phase plain = run_timed(w, in, served, seconds, nullptr);
  const PoolDelta pd = pool_delta(pool0, session.pool_stats());
  const auto plan1 = session.plan_cache_stats();
  const auto tune1 = session.tuning_stats();

  // Stream layer. A stream workload reads it off the untraced phase; the
  // others push three of their own requests through a stream once.
  std::vector<double> push_s;
  double requests_per_graft = 0.0, lib_p50 = 0.0, stream_wall = 0.0;
  std::vector<int> stream_reqs;
  if (w.stream) {
    const auto st = served.stream.stats();
    requests_per_graft = double(st.pushed - stream0.pushed) /
                         double(std::max(1L, st.components - stream0.components));
    lib_p50 = lib_latency_p50_ms(served.stream_label);
    for (const Outcome& o : plain.outcomes) {
      push_s.push_back(o.push_s);
      stream_reqs.push_back(o.req);
    }
    stream_wall = plain.wall_s;
  } else {
    Scoped layer(&log, "probe.stream");
    const std::string label = "perfbench_probe";
    auto sopt = stream_options(w, label);
    sopt.max_queued = 3;  // all three in flight: pushes never block on admission
    auto stream = session.stream<double>(sopt);
    std::vector<std::future<Matrix<double>>> futs;
    const std::int64_t t0 = now_ns();
    for (int k = 0; k < 3; ++k) {
      const int r = k % int(in.reqs.size());
      const auto& q = in.reqs[size_t(r)];
      const int span = log.begin("stream.push_solve", k);
      const std::int64_t p0 = now_ns();
      futs.push_back(stream.push_solve(in.a(q).view(), in.b(q).view()));
      push_s.push_back(seconds_between(p0, now_ns()));
      log.end(span);
      stream_reqs.push_back(r);
    }
    Phase probe;
    for (size_t k = 0; k < futs.size(); ++k) {
      Outcome o;
      o.req = stream_reqs[k];
      try {
        o.x = futs[k].get();
      } catch (const std::exception&) {
        o.threw = true;
      }
      probe.outcomes.push_back(std::move(o));
    }
    stream_wall = seconds_between(t0, now_ns());
    stream.drain();
    const auto st = stream.stats();
    requests_per_graft = double(st.pushed) / double(std::max(1L, st.components));
    lib_p50 = lib_latency_p50_ms(label);
    stream.close();
    rep.failed += check_phase(in, probe);
    rep.attempted += long(probe.outcomes.size());
  }

  // Traced phase: the library's tracer and kernel profiler on, spans here.
  auto& tracer = obs::Tracer::instance();
  auto& profiler = obs::KernelProfiler::global();
  profiler.reset();
  tracer.enable();
  Phase traced = run_timed(w, in, served, seconds, &log);
  tracer.disable();
  tracer.clear();

  rep.failed += check_phase(in, plain) + check_phase(in, traced);
  rep.attempted += long(plain.outcomes.size() + traced.outcomes.size());

  // Isolated kernels and the QR kernel rates the library's own bench gives.
  std::array<double, kKinds> iso{};
  perf::KernelRates in_cache, out_cache;
  {
    Scoped layer(&log, "probe.kernels");
    iso = isolated_kernel_seconds(log, w.nb, w.ib);
    Scoped call(&log, "perf.measure_kernel_rates");
    in_cache = perf::measure_kernel_rates<double>(w.nb, w.ib, perf::CacheMode::InCache, 30);
    out_cache = perf::measure_kernel_rates<double>(w.nb, w.ib, perf::CacheMode::OutOfCache, 30);
  }

  const int nproc = int(std::max(1u, std::thread::hardware_concurrency()));
  std::vector<int> ladder = {1, std::min(2, nproc), nproc};
  ladder.erase(std::unique(ladder.begin(), ladder.end()), ladder.end());
  std::vector<ShapeProbe> sp;
  for (int k = 0; k < nshapes; ++k)
    sp.push_back(probe_shape(w, in, k, session, iso, ladder, log));

  // ---------------------------------------------------------- metrics --
  const char* qr_names[] = {"geqrt", "unmqr", "tsqrt", "tsmqr", "ttqrt", "ttmqr"};
  const char* lq_names[] = {"gelqt", "unmlq", "tslqt", "tsmlq", "ttlqt", "ttmlq"};
  out.push_back({"blas.gemm_gflops", in_cache.gemm, "GFLOP/s"});
  for (int k = 0; k < kernels::kNumQrKernelKinds; ++k) {
    out.push_back({std::string("kernels.") + qr_names[k] + "_gflops", in_cache.kernel[size_t(k)],
                   "GFLOP/s"});
    out.push_back({std::string("kernels.") + qr_names[k] + "_gflops_ooc",
                   out_cache.kernel[size_t(k)], "GFLOP/s"});
  }
  out.push_back({"kernels.tsmqr_over_gemm", in_cache.of(KernelKind::TSMQR) / in_cache.gemm,
                 "ratio"});
  out.push_back({"kernels.ttmqr_over_gemm", in_cache.of(KernelKind::TTMQR) / in_cache.gemm,
                 "ratio"});
  for (int k = 0; k < kernels::kNumQrKernelKinds; ++k) {
    const double qr_s = iso[size_t(k)];
    const double lq_s = iso[size_t(kernels::lq_dual(KernelKind(k)))];
    out.push_back({std::string("kernels.lq_over_qr.") + lq_names[k], qr_s / lq_s, "ratio"});
  }
  for (KernelKind k : {KernelKind::GEQRT, KernelKind::TSMQR, KernelKind::TTMQR}) {
    // In-DAG rate over QR and LQ tasks of this kernel shape (0: not in the plan).
    const int a = int(k), b = int(kernels::lq_dual(k));
    const long n = profiler.samples(a) + profiler.samples(b);
    const double mean_s = n ? (profiler.mean_seconds(a) * double(profiler.samples(a)) +
                               profiler.mean_seconds(b) * double(profiler.samples(b))) /
                                  double(n)
                            : 0.0;
    out.push_back({std::string("kernels.in_dag_") + qr_names[a] + "_gflops",
                   mean_s > 0 ? kernels::kernel_flops(k, w.nb, false) / mean_s / 1e9 : 0.0,
                   "GFLOP/s"});
  }
  out.push_back({"matrix.tile_in_ms", mix([&](int k) { return sp[k].tile_in_s; }) * 1e3, "ms"});
  out.push_back({"matrix.tile_out_ms", mix([&](int k) { return sp[k].tile_out_s; }) * 1e3, "ms"});
  out.push_back({"core.plan_build_ms", mix([&](int k) { return sp[k].plan_build_s; }) * 1e3, "ms"});
  out.push_back({"core.plan_cache_hit_rate",
                 hit_rate(plan0.hits, plan0.misses, plan1.hits, plan1.misses), "ratio"});
  out.push_back({"dag.tasks_per_solve", mix([&](int k) { return sp[k].tasks; }), "count"});
  out.push_back({"tuner.decide_ms_cold", mix([&](int k) { return sp[k].decide_cold_s; }) * 1e3,
                 "ms"});
  out.push_back({"tuner.table_hit_rate",
                 hit_rate(tune0.hits, tune0.misses, tune1.hits, tune1.misses), "ratio"});
  out.push_back({"core.factor_stage_ms", mix([&](int k) { return sp[k].factor_s; }) * 1e3, "ms"});
  out.push_back({"core.apply_stage_ms", mix([&](int k) { return sp[k].apply_s; }) * 1e3, "ms"});
  out.push_back({"core.trsm_ms", mix([&](int k) { return sp[k].trsm_s; }) * 1e3, "ms"});
  out.push_back({"core.apply_useful_ratio", mix([&](int k) { return sp[k].useful_ratio; }),
                 "ratio"});
  const double seq = mix([&](int k) { return sp[k].seq_factor_s; });
  out.push_back({"runtime.seq_replay_ms", seq * 1e3, "ms"});
  out.push_back({"runtime.seq_efficiency", mix([&](int k) { return sp[k].isolated_sum_s; }) / seq,
                 "ratio"});
  const char* ladder_names[] = {"runtime.pool_efficiency_w1", "runtime.pool_efficiency_w2",
                                "runtime.pool_efficiency_wmax"};
  const std::vector<int> rungs = {1, std::min(2, nproc), nproc};
  for (size_t r = 0; r < rungs.size(); ++r) {
    const size_t i = size_t(std::find(ladder.begin(), ladder.end(), rungs[r]) - ladder.begin());
    const double t = mix([&](int k) { return sp[k].pool_s[i]; });
    out.push_back({ladder_names[r], seq / (double(rungs[r]) * t), "ratio"});
  }
  out.push_back({"runtime.empty_task_us", mix([&](int k) { return sp[k].empty_task_s; }) * 1e6,
                 "us"});
  out.push_back({"runtime.steal_frac", pd.steal_frac, "ratio"});
  out.push_back({"runtime.foreign_frac", pd.foreign_frac, "ratio"});
  out.push_back({"runtime.steal_p95_us", pd.steal_p95_us, "us"});
  out.push_back({"runtime.empty_probes_per_task", pd.empty_probes_per_task, "ratio"});

  double seq_sum = 0.0;
  for (int r : stream_reqs) seq_sum += sp[size_t(in.mat_shape[size_t(in.reqs[size_t(r)].mat)])].seq_solve_s();
  const double nreq = double(std::max<size_t>(1, stream_reqs.size()));
  out.push_back({"stream.push_us_p50", median(push_s) * 1e6, "us"});
  out.push_back({"stream.requests_per_graft", requests_per_graft, "ratio"});
  out.push_back({"stream.overhead_us_per_req",
                 (double(w.threads) * stream_wall - seq_sum) / nreq * 1e6, "us"});
  out.push_back({"stream.lib_latency_p50_ms", lib_p50, "ms"});

  const double model = mix([&](int k) { return sp[k].model_s; });
  out.push_back({"sim.model_makespan_ms", model * 1e3, "ms"});
  out.push_back({"sim.achieved_over_model", mix([&](int k) { return sp[k].factor_s; }) / model,
                 "ratio"});
  out.push_back({"obs.trace_overhead_ratio", p50_ms(traced) / p50_ms(plain), "ratio"});

  for (int k = 0; k < nshapes; ++k)
    rep.notes.push_back(w.name + " shape " + std::to_string(w.shapes[size_t(k)].m) + "x" +
                        std::to_string(w.shapes[size_t(k)].n) + " (share " +
                        std::to_string(in.share(k)) + "): tree " + sp[size_t(k)].tree);
  for (size_t i = 0; i < ladder.size(); ++i)
    rep.notes.push_back("pool efficiency at " + std::to_string(ladder[i]) + " workers: " +
                        std::to_string(seq / (double(ladder[i]) *
                                              mix([&](int k) { return sp[k].pool_s[i]; }))));
  rep.notes.push_back("untraced p50 " + std::to_string(p50_ms(plain)) + " ms over " +
                      std::to_string(plain.outcomes.size()) + " requests, traced p50 " +
                      std::to_string(p50_ms(traced)) + " ms over " +
                      std::to_string(traced.outcomes.size()));
  return rep;
}

}  // namespace perfbench
