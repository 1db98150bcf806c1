// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload <tall_ls|wide_ls|small_stream> --seed <n>
//                    --seconds <s> --trace <0|1> [--span-out <path>]
//   perfbench --self-test
//
// Prints detail lines (prefixed '#'), one {"detail": ...} JSON line with the
// host, configuration and sample counts, and as the last line the result
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the per-layer probes instead.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "blas/blas.hpp"
#include "blas/simd/simd.hpp"
#include "matrix/generate.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  int trace = 0;
  std::string span_out;
  bool self_test = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value after " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = std::stoi(val);
    } else if (key == "--span-out") {
      a.span_out = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!a.self_test && !have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0 && a.seconds <= 3600.0))
    throw std::invalid_argument("--seconds must be in (0, 3600]");
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
  return a;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Environment settings that change what the library does; a run with any
/// of them set is not comparable with a baseline taken without.
const char* const kEnvKnobs[] = {"TILEDQR_TREE", "TILEDQR_THREADS", "TILEDQR_PIN",
                                 "TILEDQR_AFFINE_STEAL", "TILEDQR_SIMD"};

std::string host_config_json(const Workload& w, const Args& args, const Inputs& in, int nproc) {
  std::ostringstream o;
  char hash[24];
  std::snprintf(hash, sizeof hash, "%016llx", static_cast<unsigned long long>(in.hash));
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  bool comparable = true;
  std::string env = "{";
  for (const char* knob : kEnvKnobs) {
    const char* v = std::getenv(knob);
    if (v == nullptr) continue;
    comparable = false;
    if (env.size() > 1) env += ',';
    env += quoted(knob);
    env += ':';
    env += quoted(v);
  }
  env += "}";
  namespace simd = tiledqr::blas::simd;
  o << "\"workload\":" << quoted(w.name) << ",\"seed\":" << args.seed
    << ",\"seconds\":" << num(args.seconds) << ",\"trace\":" << args.trace
    << ",\"input_hash\":" << quoted(hash) << ",\"nproc\":" << nproc
    << ",\"pool_threads\":" << w.threads << ",\"nb\":" << w.nb << ",\"ib\":" << w.ib
    << ",\"simd_tier\":" << quoted(simd::tier_name(simd::active_tier()))
    << ",\"llc_bytes\":" << llc << ",\"compiler\":" << quoted(__VERSION__)
    << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
    << ",\"cxx_flags\":" << quoted(PERFBENCH_CXX_FLAGS) << ",\"env\":" << env
    << ",\"comparable\":" << (comparable ? "true" : "false");
  return o.str();
}

void print_result(bool correct, long attempted, long failed, const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += quoted(ms[i].name);
    out += ": {\"value\": ";
    out += num(ms[i].value);
    out += ", \"unit\": ";
    out += quoted(ms[i].unit);
    out += "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int run_end_to_end(const Workload& w, const Args& args, const Inputs& in, int nproc) {
  // The timed phase is split evenly over several freshly set-up sessions,
  // and each metric is the median of its per-session values, so a slow
  // stretch of a shared host moves a minority of sessions, not the result.
  // Every set-up is also one setup_s sample.
  std::vector<double> setups, rate, gflops, p50, p99;
  bool setup_ok = true;
  long attempted = 0, failed = 0;
  double wall = 0.0;
  Served served;
  for (int i = 0; i < w.sessions; ++i) {
    auto t = set_up(w, in, served);
    if (t)
      setups.push_back(*t);
    else
      setup_ok = false;
    Phase part = run_timed(w, in, served, args.seconds / w.sessions, nullptr);
    check_phase(in, part);
    double flops = 0.0;
    long ok = 0;
    std::vector<double> lat_ms;
    for (const Outcome& o : part.outcomes) {
      // A failed request misses every latency target.
      lat_ms.push_back(o.ok ? o.latency_s * 1e3 : std::numeric_limits<double>::infinity());
      if (!o.ok) continue;
      ++ok;
      flops += request_flops(in, o.req);
    }
    rate.push_back(double(ok) / part.wall_s);
    gflops.push_back(flops / part.wall_s / 1e9);
    p50.push_back(quantile(lat_ms, 0.50));
    p99.push_back(quantile(lat_ms, 0.99));
    attempted += long(part.outcomes.size());
    failed += part.failed;
    wall += part.wall_s;
  }

  const double failed_frac = attempted ? double(failed) / double(attempted) : 1.0;
  std::vector<Metric> ms = {
      {"solves_per_s", median(rate), "1/s"},
      {"gflops", median(gflops), "GFLOP/s"},
      {"latency_p50_ms", median(p50), "ms"},
      {"latency_p99_ms", median(p99), "ms"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  std::printf("# %s seed=%llu: %ld solves in %.3f s over %d sessions, %ld failed "
              "(failed_frac %.6g)\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed), attempted, wall,
              w.sessions, failed, failed_frac);
  for (const Metric& m : ms)
    std::printf("#   %-16s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("#   %-16s %14.6g %s\n", "failed_frac", failed_frac, "ratio");
  std::printf("{\"detail\": {%s, \"samples\": {\"latency\": %ld, \"sessions\": %d, "
              "\"setup\": %d}, \"failed_frac\": %s, \"wall_s\": %s}}\n",
              host_config_json(w, args, in, nproc).c_str(), attempted, w.sessions,
              int(setups.size()), num(failed_frac).c_str(), num(wall).c_str());
  print_result(setup_ok && failed == 0 && attempted > 0, std::max(attempted, 1L), failed, ms);
  return 0;
}

int run_traced(const Workload& w, const Args& args, const Inputs& in, int nproc) {
  SpanLog spans;
  LayerReport rep = run_layers(w, in, args.seconds, spans);
  for (const std::string& note : rep.notes) std::printf("# %s\n", note.c_str());
  std::printf("# span self times (%zu spans):\n", spans.spans().size());
  for (const auto& t : spans.totals())
    std::printf("#   %-40s n=%-7ld total %10.3f ms  self %10.3f ms\n", t.name.c_str(), t.count,
                t.total_s * 1e3, t.self_s * 1e3);
  if (!args.span_out.empty()) {
    spans.write_chrome_json(args.span_out);
    std::printf("# spans written to %s\n", args.span_out.c_str());
  }
  for (const Metric& m : rep.metrics)
    std::printf("#   %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"detail\": {%s, \"samples\": {\"requests\": %ld}}}\n",
              host_config_json(w, args, in, nproc).c_str(), rep.attempted);
  print_result(rep.setup_ok && rep.failed == 0 && rep.attempted > 0,
               std::max(rep.attempted, 1L), rep.failed, rep.metrics);
  return 0;
}

/// Shows that check_solution accepts the library's solutions and rejects
/// perturbed ones: a 1e-6 relative perturbation of x for every shape, and
/// for wide shapes a null-space component that leaves A x unchanged (caught
/// only by the row-space part).
int self_test() {
  struct Case {
    Shape shape;
    int nb;
  };
  const Case cases[] = {{{300, 40}, 16}, {{40, 300}, 16}, {{256, 128}, 64}, {{64, 128}, 64},
                        {{2048, 256}, 128}, {{256, 2048}, 128}};
  core::FactorSession::Config cfg;
  cfg.threads = 2;
  core::FactorSession session(cfg);
  int bad = 0;
  std::uint64_t seed = 7;
  for (const Case& c : cases) {
    const auto a = tiledqr::random_matrix<double>(c.shape.m, c.shape.n, ++seed);
    const auto b = tiledqr::random_matrix<double>(c.shape.m, 1, ++seed);
    const CheckAux aux = make_check_aux(a.view());
    core::Options opt;
    opt.nb = c.nb;
    auto solve = [&](ConstMatrixView<double> rhs) {
      return session.solve_least_squares_async<double>(a.view(), rhs, opt).get();
    };
    Matrix<double> x = solve(b.view());
    const Verdict good = check_solution(a.view(), aux, b.data(), x.data());

    std::mt19937_64 rng(++seed);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    Matrix<double> xp = x;
    for (std::int64_t i = 0; i < xp.rows(); ++i) xp(i, 0) *= 1.0 + 1e-6 * u(rng);
    const Verdict perturbed = check_solution(a.view(), aux, b.data(), xp.data());

    bool ok = good.ok && !perturbed.ok;
    std::printf("# %5lldx%-5lld good: resid %.3g row %.3g | perturbed: resid %.3g row %.3g",
                static_cast<long long>(c.shape.m), static_cast<long long>(c.shape.n),
                good.residual, good.row_space, perturbed.residual, perturbed.row_space);
    if (c.shape.wide()) {
      // z = v - x_v, x_v the minimum-norm solution of A x = A v: z spans
      // null(A), so x + z has the same residual but leaves the row space.
      const auto v = tiledqr::random_matrix<double>(c.shape.n, 1, ++seed);
      Matrix<double> av(c.shape.m, 1);
      tiledqr::blas::gemm(tiledqr::blas::Op::NoTrans, tiledqr::blas::Op::NoTrans, 1.0, a.view(),
                          v.view(), 0.0, av.view());
      const Matrix<double> xv = solve(av.view());
      double zn = 0.0, xn = 0.0;
      for (std::int64_t i = 0; i < c.shape.n; ++i) {
        zn += (v(i, 0) - xv(i, 0)) * (v(i, 0) - xv(i, 0));
        xn += x(i, 0) * x(i, 0);
      }
      Matrix<double> xz = x;
      for (std::int64_t i = 0; i < c.shape.n; ++i)
        xz(i, 0) += 1e-6 * std::sqrt(xn / zn) * (v(i, 0) - xv(i, 0));
      const Verdict nulls = check_solution(a.view(), aux, b.data(), xz.data());
      ok = ok && !nulls.ok && nulls.residual <= kWideLimit && nulls.row_space > kRowSpaceLimit;
      std::printf(" | null-space: resid %.3g row %.3g", nulls.residual, nulls.row_space);
    }
    std::printf("  %s\n", ok ? "ok" : "FAIL");
    bad += !ok;
  }
  std::printf("self-test: %s\n", bad ? "FAILED" : "passed");
  return bad ? 1 : 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    if (args.self_test) return self_test();
    const int nproc = int(std::max(1u, std::thread::hardware_concurrency()));
    const Workload w = workload_by_name(args.workload, nproc);
    const Inputs in = make_inputs(w, args.seed);
    std::printf("# %s: input hash %016llx\n", w.name.c_str(),
                static_cast<unsigned long long>(in.hash));
    return args.trace ? run_traced(w, args, in, nproc) : run_end_to_end(w, args, in, nproc);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
