// FactorSession: the batched / asynchronous / streaming serving front end
// (QrSession remains as an alias from when the session was QR-only).
//
// A session owns a persistent worker pool and a plan cache and amortizes
// both across many factorizations — the "heavy traffic of repeated, often
// small, QRs" regime where per-call scheduling overhead dominates flops.
// Independent factorizations become DAG submissions on the shared pool; a
// *batch* is fused into one submission (see below) so the scheduler
// overlaps the tail of one factorization with the heads of the next.
//
// Every entry path routes on shape: tall/square inputs factor by QR, wide
// inputs (m < n) by LQ on the transposed (reduction) grid — same trees,
// same runtime, LQ kernels wrapping their QR duals. Solves follow suit:
// least squares for tall inputs, the minimum-norm solution for wide ones
// (L⁻¹b first, then the apply-Q̃ DAG — the stage order reverses).
//
//   core::FactorSession session;                   // pool + plan cache
//   auto fut = session.submit<double>(a.view(), opt);
//   ...                                            // overlap with other work
//   core::TiledQr<double> qr = fut.get();          // rethrows task errors
//
//   auto qrs = session.factorize_batch<double>(views, opt);  // 64 small QRs
//
//   auto x = session.solve_least_squares_async<double>(a.view(), b.view(), opt);
//   ...                                            // factorize → Qᵀb → trsm,
//   Matrix<double> sol = x.get();                  // all on the session pool
//
//   auto qr2 = session.factorize_auto<double>(a.view());  // no TreeConfig:
//   ...                       // the tree autotuner picks the paper-optimal
//   ...                       // algorithm for (shape, pool size)
//
//   auto stream = session.stream<double>();        // streaming fusion
//   auto f1 = stream.push(a1.view());              // futures immediately;
//   auto s2 = stream.push_solve(a2.view(), b2.view());  // pushes coalesce
//   stream.close();                                // into the live fused
//                                                  // submission (see below)
//
// One request pipeline: every entry point (submit, submit_batch,
// apply_q_async, both solve_least_squares_async overloads, FactorStream's
// push/push_solve) builds Requests and hands them to one launcher. A Request
// is a stage chain decided once, when it is built:
//
//   [factor DAG] → [host head: L⁻¹b, wide solves] → [apply DAG] → host finish
//
// (a zero-column rhs has no apply stage), plus one resolve-once completion
// that owns the request's promise and, for streamed requests, its admission
// slot and latency sample. The launcher puts a group of requests at the same
// stage on the pool as ONE component, fused when the group holds more than
// one request, and writes the per-request sentinels and the cleanup of a
// cancelled component once. Its sink is a one-shot pool submission for the
// session entry points (a request's next stage launches as soon as the
// previous one drains) or the live pool stream of a FactorStream (the
// stream's flush policy decides when its work grafts).
//
// Batch fusion: submit_batch hands the whole batch to the launcher as one
// group. Homogeneous batches fuse through the PlanCache (one thin FusedPlan
// per (shape, count): stride arithmetic over the base plan); mixed shapes
// fuse ad hoc (make_fused_plan). The pool sees one deal of the initial ready
// set, one scheduling-key vector, one completion walk. Per-request sentinel
// counters detect component completion: the last retiring task of each part
// fulfils that matrix's promise, so early matrices resolve while the rest of
// the batch is still running.
//
// Streaming fusion: a fixed batch still drains to one matrix's critical-path
// tail before the next batch starts. FactorStream removes the batch
// boundary: pushes return futures immediately and accumulate while the
// in-flight work drains; each flush grafts the accumulated requests — one
// fused group per plan — onto the *live* pool submission (ThreadPool::Stream,
// generation-counted ready sets), so workers flow from the old generation's
// tail straight into the new generation's heads. Ready solve apply stages
// coalesce the same way (fuse_task_graphs), one component per flush point.
//
// Auto mode: wherever `Options::tree` is left disengaged, the batch,
// pipeline, and stream paths route the shape through the session's tree
// autotuner (choose_tree) — per input shape, memoized in the TuningTable —
// so serving traffic never hand-picks a TreeConfig. The plain submit()
// keeps the explicit-options contract (disengaged tree = the Greedy paper
// default); use submit_auto for tuned single factorizations.
//
// Results are bitwise identical to TiledQr<T>::factorize on the same input
// and tree: the same plan, the same kernels, and tasks that write disjoint
// regions.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "common/stringf.hpp"
#include "common/timer.hpp"
#include "core/plan_cache.hpp"
#include "core/tiled_qr.hpp"
#include "obs/metrics.hpp"
#include "obs/schedule_report.hpp"
#include "runtime/thread_pool.hpp"
#include "tuner/tuner.hpp"

namespace tiledqr::core {

template <typename T>
class FactorStream;

class FactorSession {
 public:
  struct Config {
    /// Worker count of the session pool; 0 = TILEDQR_THREADS or hardware
    /// concurrency (the library-wide default rule).
    int threads = 0;
    /// Auto-mode tuning knobs (weight profile, stage-2 refinement, table
    /// persistence path); see tuner::TunerConfig.
    tuner::TunerConfig tuner{};
  };

  /// Auto-mode options: like Options but without a TreeConfig — the tuner
  /// supplies the algorithm, that is the point.
  struct AutoOptions {
    int nb = 128;     ///< tile size (dense inputs; pre-tiled inputs keep theirs)
    int ib = 32;      ///< inner blocking of the kernels
    int threads = 0;  ///< per-request worker cap; 0 = whole pool
  };

  /// What a push does when the stream already holds `max_queued` unresolved
  /// requests: Block parks the pushing thread on the stream's retirement
  /// condvar until a slot frees (bounded server memory, lossless); Reject
  /// resolves the returned future immediately with an Error (fast-fail, the
  /// caller sheds load).
  enum class StreamOverflow { Block, Reject };

  /// Per-stream options (see stream()). Pushes of any tile-grid shape are
  /// accepted; `tree` pins one algorithm for every push, disengaged routes
  /// each pushed shape through the autotuner. The QoS knobs below all
  /// default to the pre-QoS policy (unbounded admission, graft on idle, no
  /// deadline), so a default-constructed stream behaves — and schedules —
  /// exactly as before.
  struct StreamOptions {
    int nb = 128;          ///< tile size for dense pushes
    int ib = 32;           ///< inner blocking of the kernels
    int threads = 0;       ///< worker cap for the whole stream; 0 = whole pool
    int max_pending = 32;  ///< coalescing bound: a flush is forced at this depth
    std::optional<trees::TreeConfig> tree{};  ///< disengaged = autotune per shape
    /// Backpressure: bound on requests admitted but not yet resolved
    /// (pending + grafted + chained solve stages). 0 = unbounded. A request
    /// holds its slot from admission — before tiling, so a blocked or
    /// rejected push allocates nothing — until its future resolves.
    int max_queued = 0;
    StreamOverflow overflow = StreamOverflow::Block;  ///< policy at max_queued
    /// Watermark flush policy: graft the backlog whenever the number of
    /// in-flight grafts is <= this. 0 (default) grafts only when the stream
    /// runs dry; 1 keeps one graft queued behind the live one, so workers
    /// flow straight from the live graft's tail into the next one at the
    /// cost of shallower coalescing.
    int low_watermark = 0;
    /// > 0: cap on how long an uncorked request may sit in the coalescing
    /// backlog before it is grafted regardless of the watermark (a dedicated
    /// deadline thread is spawned for the stream's lifetime). 0 = no cap.
    /// Corked backlogs are exempt: cork() is an explicit promise.
    std::chrono::steady_clock::duration flush_deadline{0};
    /// Metrics name of the stream in the global registry: its counters and
    /// request-latency histogram export as "stream.<label>.*". Empty picks a
    /// unique "stream<N>" — set it when a process runs several streams whose
    /// stats a dashboard must tell apart (e.g. "bulk" vs "interactive").
    std::string label;
    /// Component-affinity hint (TILEDQR_AFFINE_STEAL): >= 0 pins every graft
    /// of this stream to the same home worker (modulo the stream's worker
    /// set) — use when a client's requests reuse the same tiles and should
    /// stay in one core's cache across grafts. The default -1 rotates homes
    /// per component, spreading load while each component still lands whole.
    int affinity_hint = -1;
  };

  FactorSession() : pool_(0) {}
  explicit FactorSession(Config config)
      : tuner_(std::move(config.tuner)), pool_(config.threads) {}

  FactorSession(const FactorSession&) = delete;
  FactorSession& operator=(const FactorSession&) = delete;

  /// Asynchronous factorization of a dense matrix (copied into tiled
  /// layout on the calling thread). The future resolves once every kernel
  /// has run; task exceptions surface through future::get().
  template <typename T>
  [[nodiscard]] std::future<TiledQr<T>> submit(ConstMatrixView<T> a, const Options& opt) {
    return submit(TileMatrix<T>::from_dense(a, opt.nb), opt);
  }

  /// Asynchronous factorization of a tiled matrix (consumed).
  /// `opt.threads > 0` caps how many pool workers this one factorization may
  /// occupy; 0 lets it spread over the whole pool. Caps above the pool size
  /// clamp to the pool, so 0, negative, and over-pool requests all mean
  /// "whole pool" — the invariant every session path shares.
  template <typename T>
  [[nodiscard]] std::future<TiledQr<T>> submit(TileMatrix<T> a, Options opt) {
    const int cap = normalize_threads(opt);
    return one_shot<TiledQr<T>, T>(
        cap, [&](Request<T>& req) { req.factor_stage(prepare(std::move(a), opt)); });
  }

  /// Asynchronous batched factorization: fuses the batch into ONE pool
  /// submission (see the header comment) and returns one future per input,
  /// in input order. Futures resolve independently as their component of the
  /// fused DAG drains. Inputs that fail to tile or plan resolve their future
  /// with the exception without poisoning the rest; a kernel failure at run
  /// time cancels the remainder of the fused submission, so completed
  /// matrices keep their values and unfinished ones observe the error.
  /// `opt.threads > 0` keeps its per-matrix meaning: the fused submission is
  /// capped to opt.threads x batch-size workers (clamped to the pool), the
  /// aggregate concurrency the same batch got as per-matrix submissions.
  /// A disengaged `opt.tree` is routed through the autotuner per input shape.
  template <typename T>
  [[nodiscard]] std::vector<std::future<TiledQr<T>>> submit_batch(
      std::span<const ConstMatrixView<T>> mats, const Options& opt) {
    return submit_batch_impl<T>(
        mats.size(),
        [&mats, nb = opt.nb](size_t i) { return TileMatrix<T>::from_dense(mats[i], nb); }, opt);
  }

  template <typename T>
  [[nodiscard]] std::vector<std::future<TiledQr<T>>> submit_batch(
      const std::vector<ConstMatrixView<T>>& mats, const Options& opt) {
    return submit_batch(std::span<const ConstMatrixView<T>>(mats), opt);
  }

  /// Pre-tiled flavor of submit_batch (inputs consumed) — the zero-copy path
  /// for servers that keep request matrices in tiled layout.
  template <typename T>
  [[nodiscard]] std::vector<std::future<TiledQr<T>>> submit_batch(
      std::vector<TileMatrix<T>> mats, const Options& opt) {
    return submit_batch_impl<T>(
        mats.size(), [&mats](size_t i) { return std::move(mats[i]); }, opt);
  }

  /// Blocking batched factorization (one fused DAG; see submit_batch).
  /// Results are in input order. After every component has drained the first
  /// exception is rethrown; when several inputs failed, the rethrown Error
  /// carries the first failure's message plus how many siblings also failed,
  /// so multi-failure batches are diagnosable from one what().
  template <typename T>
  [[nodiscard]] std::vector<TiledQr<T>> factorize_batch(std::span<const ConstMatrixView<T>> mats,
                                                        const Options& opt) {
    return collect_batch(submit_batch(mats, opt));
  }

  template <typename T>
  [[nodiscard]] std::vector<TiledQr<T>> factorize_batch(
      const std::vector<ConstMatrixView<T>>& mats, const Options& opt) {
    return factorize_batch(std::span<const ConstMatrixView<T>>(mats), opt);
  }

  template <typename T>
  [[nodiscard]] std::vector<TiledQr<T>> factorize_batch(std::vector<TileMatrix<T>> mats,
                                                        const Options& opt) {
    return collect_batch(submit_batch(std::move(mats), opt));
  }

  /// Opens a streaming submission on the session pool: a FactorStream whose
  /// push()/push_solve() return futures immediately and coalesce into the
  /// live fused submission (see the header comment). The stream must not
  /// outlive the session. `opt.threads` caps the pool workers the whole
  /// stream may occupy (same clamping rule as everywhere).
  template <typename T>
  [[nodiscard]] FactorStream<T> stream(StreamOptions opt = {});

  /// Applies op(Q) of a finished factorization to tiled C, asynchronously on
  /// the session pool (no blocking). `qr` is borrowed and must stay alive
  /// until the future resolves; C is consumed and handed back through the
  /// future. Results are bitwise identical to qr.apply_q(trans, c, ...) on
  /// the same input.
  template <typename T>
  [[nodiscard]] std::future<TileMatrix<T>> apply_q_async(const TiledQr<T>& qr, ApplyTrans trans,
                                                         TileMatrix<T> c) {
    return one_shot<TileMatrix<T>, T>(0, [&](Request<T>& req) {
      req.borrowed = &qr;
      req.apply_stage(std::move(c), trans);
    });
  }

  /// The factorization is borrowed until the future resolves — a temporary
  /// would dangle under the in-flight tasks, so rvalues are rejected.
  template <typename T>
  std::future<TileMatrix<T>> apply_q_async(TiledQr<T>&&, ApplyTrans, TileMatrix<T>) = delete;

  /// Solve against a finished factorization. QR (m >= n): computes Qᵀb on
  /// the pool, then the triangular solve on the worker that retires the
  /// apply DAG. LQ (m < n): the stage order reverses — the L⁻¹b head runs
  /// here on the calling thread (it is a small triangular solve), then the
  /// apply-Q̃ DAG on the pool produces the minimum-norm solution directly.
  /// `qr` is borrowed and must stay alive until the future resolves.
  template <typename T>
  [[nodiscard]] std::future<Matrix<T>> solve_least_squares_async(const TiledQr<T>& qr,
                                                                 ConstMatrixView<T> b) {
    return one_shot<Matrix<T>, T>(0, [&](Request<T>& req) {
      req.borrowed = &qr;
      req.solve_stages(b);
    });
  }

  template <typename T>
  std::future<Matrix<T>> solve_least_squares_async(TiledQr<T>&&, ConstMatrixView<T>) = delete;

  /// The full solve pipeline, end-to-end on the session pool. QR (m >= n):
  /// factorize A, apply Qᵀ to b, triangular-solve R x = (Qᵀb)[0:n]. LQ
  /// (m < n): factorize A, triangular-solve L y = b, apply Q̃ to [y; 0] —
  /// the minimum-norm solution; the stage order reverses, so the trsm runs
  /// on the worker that retires the factorization and the apply DAG is the
  /// final stage. No intermediate blocking: each stage is launched by the
  /// worker that retires the previous one. `opt.threads > 0` caps the pool
  /// workers the pipeline may occupy; a disengaged `opt.tree` is routed
  /// through the autotuner for A's reduction-grid shape.
  template <typename T>
  [[nodiscard]] std::future<Matrix<T>> solve_least_squares_async(ConstMatrixView<T> a,
                                                                 ConstMatrixView<T> b,
                                                                 Options opt) {
    const int cap = normalize_threads(opt);
    return one_shot<Matrix<T>, T>(cap, [&](Request<T>& req) {
      auto tiles = TileMatrix<T>::from_dense(a, opt.nb);
      if (!opt.tree) opt.tree = choose_tree_for(tiles, cap);
      req.factor_stage(prepare(std::move(tiles), opt));
      req.solve_stages(b);
    });
  }

  // ------------------------------------------------------------- auto mode --
  // The tuner-driven entry points: the caller supplies no TreeConfig; the
  // session picks the paper-optimal tree for (tile-grid shape, pool size)
  // via its Tuner (model ranking + optional on-pool refinement, memoized in
  // a TuningTable, TILEDQR_TREE env override honored). Results are bitwise
  // identical to submitting the chosen config explicitly — auto mode only
  // decides, the execution path is the same submit().

  /// Asynchronous auto-tuned factorization of a dense matrix. Invalid
  /// AutoOptions (nb/ib < 1) throw a descriptive Error up front — they can
  /// never reach the tile-layout conversion.
  template <typename T>
  [[nodiscard]] std::future<TiledQr<T>> submit_auto(ConstMatrixView<T> a,
                                                    const AutoOptions& opt = {}) {
    validate_auto_options(opt);
    return submit_auto(TileMatrix<T>::from_dense(a, opt.nb), opt);
  }

  /// Asynchronous auto-tuned factorization of a tiled matrix (consumed);
  /// `opt.nb` is ignored in favor of the input's own tiling. The tuner sees
  /// the workers this request may actually occupy (`opt.threads` capped to
  /// the pool), so capped requests get the tree that is best at *their*
  /// concurrency, not the whole pool's.
  template <typename T>
  [[nodiscard]] std::future<TiledQr<T>> submit_auto(TileMatrix<T> a, const AutoOptions& opt = {}) {
    validate_auto_options(opt);
    Options full;
    full.tree = choose_tree_for(a, opt.threads);
    full.nb = a.nb();
    full.ib = opt.ib;
    full.threads = opt.threads;
    return submit(std::move(a), full);
  }

  /// Blocking auto-tuned factorization.
  template <typename T>
  [[nodiscard]] TiledQr<T> factorize_auto(ConstMatrixView<T> a, const AutoOptions& opt = {}) {
    return submit_auto(a, opt).get();
  }

  template <typename T>
  [[nodiscard]] TiledQr<T> factorize_auto(TileMatrix<T> a, const AutoOptions& opt = {}) {
    return submit_auto(std::move(a), opt).get();
  }

  /// The full tuning decision for a p x q tile grid on this session's pool
  /// (env override > tuning table > model + refinement): the chosen config
  /// plus how it was reached (forced / refined / model makespan).
  /// `worker_cap > 0` tunes for a request confined to that many workers
  /// (the AutoOptions::threads semantics); 0 tunes for the whole pool.
  [[nodiscard]] tuner::TunedDecision decide_tree(int p, int q, int worker_cap = 0,
                                                 kernels::FactorKind factor =
                                                     kernels::FactorKind::QR) {
    int workers = worker_cap > 0 ? std::min(worker_cap, pool_.size()) : pool_.size();
    return tuner_.decide(p, q, workers, cache_, &pool_, factor);
  }

  /// Just the chosen TreeConfig — useful to pin the auto decision into an
  /// explicit Options (e.g. for the async pipelines). (p, q) is the
  /// reduction grid the elimination tree runs on — wide inputs pass the
  /// transposed grid (see choose_tree_for).
  [[nodiscard]] trees::TreeConfig choose_tree(int p, int q, int worker_cap = 0,
                                              kernels::FactorKind factor =
                                                  kernels::FactorKind::QR) {
    return decide_tree(p, q, worker_cap, factor).config;
  }

  /// Shape-routed choose_tree: wide inputs (m < n) tune on the transposed
  /// (reduction) grid under their LQ key, everything else on the grid as-is
  /// — the same routing prepare() applies, so the tuner always sees p >= q.
  template <typename T>
  [[nodiscard]] trees::TreeConfig choose_tree_for(const TileMatrix<T>& tiles,
                                                  int worker_cap = 0) {
    return tiles.m() < tiles.n()
               ? choose_tree(tiles.nt(), tiles.mt(), worker_cap, kernels::FactorKind::LQ)
               : choose_tree(tiles.mt(), tiles.nt(), worker_cap);
  }

  [[nodiscard]] tuner::Tuner& tree_tuner() noexcept { return tuner_; }
  [[nodiscard]] tuner::TuningTable::Stats tuning_stats() const { return tuner_.stats(); }

  [[nodiscard]] runtime::ThreadPool& pool() noexcept { return pool_; }
  [[nodiscard]] PlanCache& plan_cache() noexcept { return cache_; }
  [[nodiscard]] PlanCache::Stats plan_cache_stats() const { return cache_.stats(); }
  [[nodiscard]] runtime::ThreadPool::Stats pool_stats() const noexcept { return pool_.stats(); }

  /// One-call live snapshot for servers (the HealthMonitor's report
  /// callback, also useful directly): the global registry metrics plus —
  /// when tracing is on — the schedule report over the current trace
  /// window, including the realized-critical-path breakdown joined against
  /// the DAG of the most recently planned factorization. Safe from any
  /// thread; reads only snapshots, never disturbs in-flight work.
  [[nodiscard]] std::string health_report() const {
    std::string out = obs::MetricsRegistry::global().snapshot().to_text();
    const auto& tracer = obs::Tracer::instance();
    if (tracer.enabled()) {
      std::shared_ptr<const Plan> plan;
      {
        std::lock_guard<std::mutex> lock(last_plan_mu_);
        plan = last_plan_;
      }
      const obs::ScheduleReport report =
          plan ? obs::build_schedule_report(tracer, plan->graph, pool_.size())
               : obs::build_schedule_report(tracer);
      out += obs::format_schedule_report(report);
    }
    return out;
  }

 private:
  template <typename U>
  friend class FactorStream;

  /// The DAG stages of a request's chain (the host steps run between them).
  enum class Stage : std::uint8_t { Factor, Apply };

  template <typename T>
  struct Request;  // one request's stage chain and completion (below)
  template <typename T>
  using RequestPtr = std::shared_ptr<Request<T>>;
  template <typename T>
  struct StreamState;  // a FactorStream's shared state (below)

  /// The one launcher: puts `reqs` — requests waiting for the same DAG stage,
  /// all with the same sink — on the pool as one component (defined below).
  template <typename T>
  void launch(Stage stage, std::vector<RequestPtr<T>> reqs);

  /// Builds one request for the one-shot sink and starts its chain; a build
  /// failure resolves the future with the error instead.
  template <typename R, typename T, typename Build>
  [[nodiscard]] std::future<R> one_shot(int cap, Build&& build) {
    auto req = std::make_shared<Request<T>>(this, cap);
    std::future<R> future = req->template expect<R>();
    try {
      build(*req);
    } catch (...) {
      req->fail(std::current_exception());
      return future;
    }
    if (req->factor)
      launch<T>(Stage::Factor, {req});
    else
      req->advance(Stage::Factor, req);  // no factor stage: continue with what follows one
    return future;
  }

  /// Shared loop of the submit_batch flavors: `make_tiles(i)` yields the i-th
  /// input's TileMatrix (converting or moving). An input whose tiling or
  /// planning throws gets a failed future; the rest launch as one group. A
  /// disengaged tree resolves through the autotuner per input shape (at the
  /// per-matrix worker cap — the concurrency each matrix actually gets).
  template <typename T, typename MakeTiles>
  [[nodiscard]] std::vector<std::future<TiledQr<T>>> submit_batch_impl(size_t count,
                                                                       MakeTiles&& make_tiles,
                                                                       Options opt) {
    const int cap = normalize_threads(opt);
    std::vector<std::future<TiledQr<T>>> futures;
    std::vector<RequestPtr<T>> group;
    for (size_t i = 0; i < count; ++i) {
      auto req = std::make_shared<Request<T>>(this, cap);
      futures.push_back(req->template expect<TiledQr<T>>());
      try {
        TileMatrix<T> tiles = make_tiles(i);
        Options per = opt;
        if (!per.tree) per.tree = choose_tree_for(tiles, cap);
        req->factor_stage(prepare(std::move(tiles), per));
        group.push_back(std::move(req));
      } catch (...) {
        req->fail(std::current_exception());
      }
    }
    if (!group.empty()) launch<T>(Stage::Factor, std::move(group));
    return futures;
  }

  /// Tile → plan through the session cache. Remembers the plan so
  /// health_report() can join the live trace against a real DAG — a
  /// shared_ptr copy: plans are immutable and cache-owned, so this pins at
  /// most one plan's memory.
  template <typename T>
  [[nodiscard]] TiledQr<T> prepare(TileMatrix<T> tiles, const Options& opt) {
    TiledQr<T> qr = TiledQr<T>::prepare(std::move(tiles), opt, cache_);
    std::lock_guard<std::mutex> lock(last_plan_mu_);
    last_plan_ = qr.plan_;
    return qr;
  }

  /// The one cap rule: <= 0 (and anything above the pool) means "whole
  /// pool"; in-range caps pass through. Returned as a ThreadPool max_workers
  /// argument (0 = uncapped).
  [[nodiscard]] int clamp_cap(int requested) const noexcept {
    return requested <= 0 ? 0 : std::min(requested, pool_.size());
  }

  /// Applies the cap rule to `opt.threads` in place (so the stored
  /// per-factorization thread count never exceeds the pool — a 0 cap and an
  /// over-pool cap leave identical state everywhere) and returns the
  /// ThreadPool worker cap.
  [[nodiscard]] int normalize_threads(Options& opt) const noexcept {
    const int cap = clamp_cap(opt.threads);
    opt.threads = cap == 0 ? pool_.size() : cap;
    return cap;
  }

  static void validate_auto_options(const AutoOptions& opt) {
    TILEDQR_CHECK(opt.nb >= 1, stringf("AutoOptions::nb must be >= 1 (got %d)", opt.nb));
    TILEDQR_CHECK(opt.ib >= 1, stringf("AutoOptions::ib must be >= 1 (got %d)", opt.ib));
  }

  /// Drains a submit_batch future set, preserving order. A single failure is
  /// rethrown verbatim; multiple failures rethrow an Error carrying the
  /// first failure's message and the count of failed siblings.
  template <typename T>
  [[nodiscard]] static std::vector<TiledQr<T>> collect_batch(
      std::vector<std::future<TiledQr<T>>> futures) {
    std::vector<TiledQr<T>> out;
    out.reserve(futures.size());
    std::exception_ptr first_error;
    std::string first_message;
    size_t failed = 0;
    for (auto& f : futures) {
      try {
        out.push_back(f.get());
      } catch (const std::exception& e) {
        if (!first_error) {
          first_error = std::current_exception();
          first_message = e.what();
        }
        ++failed;
      } catch (...) {
        if (!first_error) {
          first_error = std::current_exception();
          first_message = "unknown error";
        }
        ++failed;
      }
    }
    if (failed > 1)
      throw Error(stringf("%s [batch: %zu of %zu inputs failed; first error shown]",
                          first_message.c_str(), failed, futures.size()));
    if (first_error) std::rethrow_exception(first_error);
    return out;
  }

  // Declaration order matters: the pool's destructor drains in-flight
  // submissions, which still reference cached plans — so the cache must
  // outlive the pool (destroyed after it). The tuner sits between them: its
  // refinement runs on the pool, so it too must outlive the pool.
  PlanCache cache_;
  tuner::Tuner tuner_;
  runtime::ThreadPool pool_;

  /// Most recently prepared plan (any entry path), for health_report()'s
  /// trace join; guarded by its own mutex so snapshots never contend with
  /// the scheduling paths beyond this one pointer copy.
  mutable std::mutex last_plan_mu_;
  std::shared_ptr<const Plan> last_plan_;
};

/// Historical name from when the session was QR-only; existing call sites
/// keep compiling unchanged.
using QrSession = FactorSession;

// ---------------------------------------------------------------- Request --

/// One request's stage chain: [factor DAG] → [host head] → [apply DAG] →
/// host finish. The builders (factor_stage, solve_stages, apply_stage)
/// decide which stages exist, the QR/LQ order and the zero-column-rhs
/// shortcut once; the launcher and the sinks only ever ask what comes next.
/// The request owns its promise: resolve() and fail() are the only places it
/// is satisfied, exactly once (a second resolution is a pipeline bug and
/// aborts), and they release the stream admission slot the request holds,
/// if any.
template <typename T>
struct FactorSession::Request {
  Request(FactorSession* s, int worker_cap) : session(s), cap(worker_cap) {}

  FactorSession* session;
  int cap;  ///< one-shot sink: pre-clamped worker cap (0 = whole pool)
  /// Stream sink, set once the stream admitted the request; null = one-shot.
  std::shared_ptr<StreamState<T>> stream;
  std::int64_t admit_ns = 0;  ///< admission time (obs::now_ns) of a streamed request

  TiledQr<T> qr;                         ///< factorized by the factor stage
  const TiledQr<T>* borrowed = nullptr;  ///< finished factorization to apply instead
  bool factor = false;  ///< a factor DAG runs first
  bool apply = false;   ///< an apply DAG runs (after the factor DAG, if any)
  bool head = false;    ///< wide solve: the L⁻¹b trsm head precedes the apply DAG
  /// Transposed-world op of the apply stage: Qᵀ (ConjTrans) for least
  /// squares, Q̃ (NoTrans) for the minimum-norm solve, or the caller's op.
  ApplyTrans trans = ApplyTrans::ConjTrans;
  TileMatrix<T> c;  ///< apply operand: tiled rhs, padded L⁻¹b, or the caller's C
  /// Wide solves only: the dense rhs. The apply operand cannot be tiled up
  /// front — it is the padded L⁻¹b, which exists only after the trsm head.
  Matrix<T> b;
  dag::TaskGraph apply_graph;
  std::variant<std::promise<TiledQr<T>>, std::promise<TileMatrix<T>>, std::promise<Matrix<T>>>
      result;
  std::atomic<bool> resolved{false};

  [[nodiscard]] const TiledQr<T>& source() const { return borrowed ? *borrowed : qr; }

  /// Selects the result type R (TiledQr, TileMatrix or Matrix) and returns
  /// its future.
  template <typename R>
  [[nodiscard]] std::future<R> expect() {
    return result.template emplace<std::promise<R>>().get_future();
  }

  void factor_stage(TiledQr<T> prepared) {
    qr = std::move(prepared);
    factor = true;
  }

  /// Solve stages against source(): QR applies Qᵀ to the tiled rhs and
  /// finishes with the R trsm; LQ runs the L⁻¹b head first and the apply-Q̃
  /// DAG last. A zero-column rhs has no apply stage (the answer is n x 0).
  void solve_stages(ConstMatrixView<T> rhs) {
    const TiledQr<T>& f = source();
    TILEDQR_CHECK(rhs.rows() == f.a_.m(), "solve: rhs row mismatch");
    head = f.kind() == kernels::FactorKind::LQ;
    trans = head ? ApplyTrans::NoTrans : ApplyTrans::ConjTrans;
    apply = rhs.cols() > 0;
    if (!apply) return;
    if (head) {
      b = Matrix<T>(rhs.rows(), rhs.cols());
      copy(rhs, b.view());
    } else {
      c = TileMatrix<T>::from_dense(rhs, f.a_.nb());
    }
  }

  /// A bare op(Q) application to caller-tiled C.
  void apply_stage(TileMatrix<T> tiles, ApplyTrans op) {
    TILEDQR_CHECK(tiles.mt() == source().reduction_p() && tiles.nb() == source().a_.nb(),
                  "apply_q_async: row tiling of C must match the factorization");
    c = std::move(tiles);
    trans = op;
    apply = true;
  }

  [[nodiscard]] const dag::TaskGraph& graph(Stage stage) const {
    return stage == Stage::Factor ? qr.plan_->graph : apply_graph;
  }

  void run(Stage stage, const dag::Task& task) {
    if (stage == Stage::Factor)
      run_task_kernels(task, qr.a_, qr.t_, qr.t2_, qr.opt_.ib);
    else
      source().run_apply_task(task, trans, c);
  }

  /// DAG stage `drained` finished. After a factor stage with an apply stage
  /// to follow, run the host head (wide solves), build the apply DAG and
  /// hand it to the sink — the one-shot pool at once, or the stream's ready
  /// queue that its next flush point grafts. Otherwise run the host finish
  /// and resolve.
  void advance(Stage drained, const RequestPtr<T>& self) noexcept {
    try {
      if (drained == Stage::Factor && apply) {
        if (head) c = source().start_minimum_norm(ConstMatrixView<T>(b.view()));
        apply_graph = source().build_apply_graph(trans, c.nt());
        if (stream)
          stream->stage_ready(self);
        else
          session->launch<T>(Stage::Apply, {self});
        return;
      }
      switch (result.index()) {
        case 0:
          resolve(std::move(qr));
          break;
        case 1:
          resolve(std::move(c));
          break;
        default:
          resolve(!apply ? Matrix<T>(source().a_.n(), 0)
                  : head ? c.to_dense()
                         : source().finish_least_squares(c));
      }
    } catch (...) {
      fail(std::current_exception());
    }
  }

  template <typename R>
  void resolve(R value) {
    claim();
    std::get<std::promise<R>>(result).set_value(std::move(value));
    release();
  }

  void fail(std::exception_ptr error) noexcept {
    claim();
    std::visit([&](auto& promise) { promise.set_exception(error); }, result);
    release();
  }

  /// No path resolves a request twice; if one ever does, stop loudly here
  /// rather than let the second outcome vanish.
  void claim() noexcept {
    if (resolved.exchange(true, std::memory_order_acq_rel)) {
      std::fputs("tiledqr: FactorSession request resolved twice (bug)\n", stderr);
      std::abort();
    }
  }

  void release() noexcept {
    if (stream) stream->released(admit_ns);
  }
};

// ------------------------------------------------------------ StreamState --

/// Shared state of a FactorStream: worker completion callbacks outlive the
/// handle's stack frames, so everything they touch lives here.
template <typename T>
struct FactorSession::StreamState {
  FactorSession* session = nullptr;
  runtime::ThreadPool::Stream pool_stream;
  StreamOptions opts;
  int worker_cap = 0;  ///< pre-clamped; the tuner keys on this concurrency

  mutable std::mutex mu;
  /// The retirement condvar: notified whenever a request resolves, a
  /// grafted component retires, or the cork/closed flags flip. Waiters:
  /// drain() (unresolved == 0), Block-overflow pushers (a slot freed),
  /// and the flush_deadline thread (a backlog to watch appeared).
  std::condition_variable retire_cv;
  bool corked = false;
  bool closed = false;
  std::deque<RequestPtr<T>> pending;
  /// Solve requests whose factorization finished and whose apply graph is
  /// built: instead of each grafting its own component, they accumulate
  /// here and every flush point grafts them as ONE fused component, so a
  /// burst of streamed solves pays one graft for all its apply stages.
  std::vector<RequestPtr<T>> ready_applies;
  long inflight = 0;  ///< grafted components not yet retired
  long pushed = 0;
  long unresolved = 0;  ///< admitted requests whose future hasn't resolved
  long peak_unresolved = 0;
  long rejected = 0;
  long deadline_flushes = 0;
  long empty_flushes = 0;
  /// When the pending backlog last went empty -> non-empty; the deadline
  /// thread grafts at oldest_pending + flush_deadline.
  std::chrono::steady_clock::time_point oldest_pending{};
  /// Engaged only when flush_deadline > 0; joined by close().
  std::thread deadline_thread;
  std::atomic<long> fused_requests{0};  ///< bumped outside mu (launch)
  /// End-to-end request latency (admission -> future resolution), exported
  /// through the registry source below. Atomic; recorded outside mu.
  obs::Histogram latency;
  /// Registry source "stream.<label>" / "stream<N>". Declared last so it
  /// deregisters (freezing the stream's final samples as retired metrics)
  /// before any field its callback reads is destroyed.
  obs::MetricsRegistry::SourceHandle metrics_source;

  /// Work claimed under `mu` and launched after it is released: the pending
  /// backlog as one group per plan (a mixed-shape stream still fuses
  /// everything of each shape), and the ready apply stages as one group.
  /// Each group is accounted in flight when claimed.
  struct Claim {
    std::vector<std::vector<RequestPtr<T>>> groups;
    std::vector<RequestPtr<T>> applies;
  };

  /// Linear scan: pending is bounded by max_pending and distinct plans are few.
  void claim_pending_locked(Claim& claim) {
    for (auto& req : pending) {
      auto home = std::find_if(claim.groups.begin(), claim.groups.end(), [&](const auto& g) {
        return g.front()->qr.plan_ == req->qr.plan_;
      });
      if (home == claim.groups.end()) home = claim.groups.emplace(claim.groups.end());
      home->push_back(std::move(req));
    }
    pending.clear();
    inflight += long(claim.groups.size());
  }

  void claim_applies_locked(Claim& claim) {
    if (ready_applies.empty()) return;
    claim.applies.swap(ready_applies);
    ++inflight;
  }

  /// Grafts claimed work onto the live submission, outside `mu` (planning a
  /// new (shape, count) fusion must not block pushes).
  void launch(Claim claim) {
    if (!claim.applies.empty()) session->launch<T>(Stage::Apply, std::move(claim.applies));
    for (auto& group : claim.groups) {
      if (group.size() > 1)
        fused_requests.fetch_add(long(group.size()), std::memory_order_relaxed);
      session->launch<T>(Stage::Factor, std::move(group));
    }
  }

  /// Request hook: a solve's apply stage is ready. Progress is guaranteed
  /// without a flush here — the factor component this request rode in on
  /// has not retired yet, and its retirement claims the queue.
  void stage_ready(RequestPtr<T> req) {
    std::lock_guard<std::mutex> lock(mu);
    ready_applies.push_back(std::move(req));
  }

  /// Request hook: a future resolved (value or error) — record its
  /// end-to-end latency, release its admission slot, and wake drain()ers /
  /// Block-ed pushers.
  void released(std::int64_t admit_ns) noexcept {
    latency.record_ns(obs::now_ns() - admit_ns);
    {
      std::lock_guard<std::mutex> lock(mu);
      --unresolved;
    }
    retire_cv.notify_all();
  }

  /// Launcher hook: a grafted component retired (or failed to graft). If
  /// the in-flight window fell to the watermark with work pending (arrivals
  /// outpaced this drain), graft the backlog now — the hand-off that keeps
  /// workers flowing across what used to be batch boundaries.
  void retired() {
    Claim claim;
    {
      std::lock_guard<std::mutex> lock(mu);
      --inflight;
      // Ready apply stages flush unconditionally — they are latency-critical
      // solve tails whose requests already hold slots, so neither the cork
      // nor the watermark applies to them.
      claim_applies_locked(claim);
      if (!corked && inflight <= long(opts.low_watermark)) claim_pending_locked(claim);
    }
    retire_cv.notify_all();
    launch(std::move(claim));
  }
};

// --------------------------------------------------------------- launcher --

template <typename T>
void FactorSession::launch(Stage stage, std::vector<RequestPtr<T>> reqs) {
  /// One component on the pool, kept alive by it until its completion ran.
  struct Group {
    Stage stage;
    std::vector<RequestPtr<T>> reqs;
    std::shared_ptr<const FusedPlan> cached;  // homogeneous factor groups
    FusedPlan owned;                          // mixed shapes, apply stages
    const FusedPlan* fused = nullptr;         // engaged iff reqs.size() > 1
    /// Per-request sentinels: tasks left in each part of a fused component;
    /// a lone request's slot stays nonzero until its completion advances it.
    std::unique_ptr<std::atomic<std::int32_t>[]> remaining;
  };
  auto group = std::make_shared<Group>();
  group->stage = stage;
  group->reqs = std::move(reqs);
  const Request<T>& lead = *group->reqs.front();
  const size_t n = group->reqs.size();
  try {
    if (n > 1 && stage == Stage::Apply) {
      std::vector<const dag::TaskGraph*> graphs;
      for (const auto& req : group->reqs) graphs.push_back(&req->apply_graph);
      group->owned = fuse_task_graphs(graphs);
      group->fused = &group->owned;
    } else if (n > 1) {
      const Plan& plan = *lead.qr.plan_;
      if (std::all_of(group->reqs.begin(), group->reqs.end(),
                      [&](const auto& req) { return req->qr.plan_.get() == &plan; })) {
        // Every part shares the lead's plan, so the lead's (normalized) tree
        // is the fused-cache key for all of them.
        group->cached = cache_.get_fused(plan.graph.p, plan.graph.q, *lead.qr.options().tree,
                                         int(n), plan.graph.factor);
        group->fused = group->cached.get();
      } else {
        std::vector<std::shared_ptr<const Plan>> plans;
        for (const auto& req : group->reqs) plans.push_back(req->qr.plan_);
        group->owned = make_fused_plan(plans);
        group->fused = &group->owned;
      }
    }
    const FusedPlan* fused = group->fused;
    group->remaining = std::make_unique<std::atomic<std::int32_t>[]>(n);
    for (size_t i = 0; i < n; ++i)
      group->remaining[i].store(fused ? fused->part_size(int(i)) : 1, std::memory_order_relaxed);

    auto body = [raw = group.get()](std::int32_t idx) {
      const FusedPlan* fused = raw->fused;
      const size_t part = fused ? size_t(fused->part_of(idx)) : 0;
      Request<T>& req = *raw->reqs[part];
      req.run(raw->stage, fused ? fused->task(idx) : req.graph(raw->stage).tasks[size_t(idx)]);
      // The last retiring task of a fused part advances its request early
      // (acq_rel pairs with the other workers' decrements, so their tile
      // writes are visible to whatever runs next).
      if (fused && raw->remaining[part].fetch_sub(1, std::memory_order_acq_rel) == 1)
        req.advance(raw->stage, raw->reqs[part]);
    };
    auto done = [group](std::exception_ptr error) {
      // Nonzero sentinels: a lone request (advanced here, once its
      // component drained) or the unfinished parts of a cancelled one.
      for (size_t i = 0; i < group->reqs.size(); ++i) {
        if (group->remaining[i].load(std::memory_order_acquire) == 0) continue;
        if (error)
          group->reqs[i]->fail(error);
        else
          group->reqs[i]->advance(group->stage, group->reqs[i]);
      }
      if (auto& stream = group->reqs.front()->stream) stream->retired();
    };
    const dag::TaskGraph& graph = fused ? fused->component_graph() : lead.graph(stage);
    const std::vector<long>* keys = fused                   ? &fused->component_ranks()
                                    : stage == Stage::Factor ? &lead.qr.plan_->ranks
                                                             : nullptr;
    const int copies = fused ? fused->copies() : 1;
    if (lead.stream) {
      lead.stream->pool_stream.append(graph, std::move(body), std::move(done), group, keys,
                                      copies);
    } else {
      // A one-shot component of n requests gets n x the per-request cap —
      // the aggregate concurrency separate submissions had (0 stays "whole
      // pool"; the cap arrives pre-clamped, so the product cannot overflow).
      const int cap =
          lead.cap > 0 ? int(std::min<long>(pool_.size(), long(lead.cap) * long(n))) : 0;
      pool_.submit(graph, std::move(body), std::move(done),
                   runtime::SchedulePriority::CriticalPath, cap, group, keys, copies);
    }
  } catch (...) {
    // The fusion failed to build or the sink refused the component (a
    // stream close race): fail its requests and retire the stream's
    // in-flight slot, so nothing pended behind it is stranded.
    const std::exception_ptr error = std::current_exception();
    for (auto& req : group->reqs) req->fail(error);
    if (auto& stream = lead.stream) stream->retired();
  }
}

// ------------------------------------------------------------ FactorStream --

/// Streaming fusion handle (FactorSession::stream). push()/push_solve() return
/// futures immediately; requests accumulate while the stream's in-flight
/// work drains and every flush grafts them — coalesced into one fused
/// component per plan via the session PlanCache's FusedPlan machinery — onto
/// the live pool submission. The amount of fusion adapts to the arrival
/// rate: an idle stream grafts a push immediately (latency), a busy stream
/// coalesces everything that arrived while it was busy (throughput).
///
///   auto stream = session.stream<double>();
///   auto f = stream.push(a.view());        // future resolves independently
///   auto x = stream.push_solve(a2.view(), b.view());  // factor → Qᵀb → trsm,
///                                          // chained into the same stream
///   stream.cork();                         // defer flushing…
///   for (auto& m : burst) futures.push_back(stream.push(m.view()));
///   stream.uncork();                       // …one fused graft for the burst
///   stream.close();                        // drain everything, then seal
///
/// Thread-safe: any number of client threads may push/cork/flush
/// concurrently. A request whose preparation fails resolves its own future
/// with the exception; a kernel failure cancels only the component (graft)
/// it rode in on — other grafts keep running. The stream must be closed (or
/// destroyed — the destructor closes) before its FactorSession dies, and close()
/// must not be called from a pool task body.
///
/// Serving QoS (StreamOptions): `max_queued` + `overflow` bound the
/// unresolved requests a stream may hold (Block parks the pusher on the
/// retirement condvar, Reject fails the future immediately);
/// `low_watermark` grafts the backlog before the stream runs dry (keep one
/// graft queued behind the live one); `flush_deadline` caps how long an
/// uncorked request may wait in the coalescing backlog. drain() respects a
/// concurrent cork: it never claims a corked backlog (that burst belongs to
/// the corking client's single fused graft) and parks on the condvar until
/// the corker uncorks — so a thread that corks, pushes, and drains without
/// uncorking first deadlocks itself, as does a corked Block-overflow pusher
/// with no uncorking peer. All QoS defaults reproduce the pre-QoS policy.
template <typename T>
class FactorStream {
 public:
  struct Stats {
    long pushed = 0;      ///< requests accepted (push + push_solve)
    long components = 0;  ///< grafts appended to the live submission
    long fused_requests = 0;  ///< requests that rode a multi-request graft
    long pending = 0;     ///< requests accumulated, not yet grafted
    long unresolved = 0;  ///< admitted requests whose future hasn't resolved
    long peak_unresolved = 0;  ///< high-water mark of `unresolved` — with a
                               ///< Block overflow this never exceeds max_queued
    long rejected = 0;         ///< pushes refused by the Reject overflow policy
    long deadline_flushes = 0;  ///< backlog grafts forced by flush_deadline
    long empty_flushes = 0;     ///< backlog claims that found nothing queued
                                ///< (a spinning drain would grow this; bounded)
  };

  FactorStream() = default;  ///< empty handle
  FactorStream(FactorStream&&) noexcept = default;
  /// Move-assign closes the overwritten stream first (re-opening a stream
  /// in place is normal server code); a defaulted move would orphan its
  /// shared state with no handle left to ever close it — leaking the
  /// deadline thread, the pool submission, and the live-stream gauge slot.
  FactorStream& operator=(FactorStream&& other) noexcept {
    if (this != &other) {
      if (state_) {
        try {
          close();
        } catch (...) {
          // Same contract as the destructor: close() errors are only
          // re-close races, never worth tearing down the process.
        }
      }
      state_ = std::move(other.state_);
    }
    return *this;
  }
  FactorStream(const FactorStream&) = delete;
  FactorStream& operator=(const FactorStream&) = delete;

  ~FactorStream() {
    if (!state_) return;
    try {
      close();
    } catch (...) {
      // Destructor must not throw; close() errors are only re-close races.
    }
  }

  /// Factorize a dense matrix (copied into tiled layout here, on the
  /// calling thread). Returns a future that resolves when this request's
  /// component of the live submission drains. An input that fails to tile or
  /// plan resolves its future with the exception (pushing on a closed stream
  /// still throws — that is a caller bug, not a request failure). A stream
  /// at its max_queued bound blocks here or fails the future, per
  /// StreamOptions::overflow; admission happens before tiling, so a blocked
  /// or rejected push allocates nothing.
  [[nodiscard]] std::future<TiledQr<T>> push(ConstMatrixView<T> a) {
    TILEDQR_CHECK(valid(), "FactorStream::push: moved-from or empty stream handle");
    return submit<TiledQr<T>>([&](Request& req) {
      req.factor_stage(prepare(TileMatrix<T>::from_dense(a, state_->opts.nb)));
    });
  }

  /// Pre-tiled flavor (consumed); the input keeps its own tile size.
  [[nodiscard]] std::future<TiledQr<T>> push(TileMatrix<T> a) {
    TILEDQR_CHECK(valid(), "FactorStream::push: moved-from or empty stream handle");
    return submit<TiledQr<T>>([&](Request& req) { req.factor_stage(prepare(std::move(a))); });
  }

  /// Full solve pipeline for one request: factorize A, then chain the solve
  /// stages into the same stream — Qᵀb apply + trsm for tall A, trsm head +
  /// apply-Q̃ (minimum norm) for wide A. Apply stages of concurrent solves
  /// coalesce: each flush grafts every ready apply graph as one fused
  /// component. Results are bitwise identical to
  /// FactorSession::solve_least_squares_async(a, b, opt) with the same tree.
  /// Backpressure treats a solve as one request from admission until its
  /// solution future resolves (the chained stages keep the slot).
  [[nodiscard]] std::future<Matrix<T>> push_solve(ConstMatrixView<T> a, ConstMatrixView<T> b) {
    TILEDQR_CHECK(valid(), "FactorStream::push_solve: moved-from or empty stream handle");
    return submit<Matrix<T>>([&](Request& req) {
      req.factor_stage(prepare(TileMatrix<T>::from_dense(a, state_->opts.nb)));
      req.solve_stages(b);
    });
  }

  /// Defers flushing: corked pushes accumulate (up to max_pending) so a
  /// known burst grafts as one fused component. Idempotent. While corked,
  /// the watermark, deadline, and drain() paths all leave the backlog alone
  /// — only uncork()/flush()/max_pending release it.
  void cork() {
    TILEDQR_CHECK(valid(), "FactorStream::cork: moved-from or empty stream handle");
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->corked = true;
    }
    state_->retire_cv.notify_all();
  }

  /// Re-enables flushing and grafts everything pending now.
  void uncork() {
    TILEDQR_CHECK(valid(), "FactorStream::uncork: moved-from or empty stream handle");
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->corked = false;
    }
    state_->retire_cv.notify_all();
    flush();
  }

  /// Grafts all pending requests — corked or not: an explicit flush is the
  /// caller's own uncorking — onto the live submission immediately.
  void flush() {
    TILEDQR_CHECK(valid(), "FactorStream::flush: moved-from or empty stream handle");
    typename State::Claim claim;
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->claim_pending_locked(claim);
      if (claim.groups.empty()) ++state_->empty_flushes;
      state_->claim_applies_locked(claim);
    }
    state_->launch(std::move(claim));
  }

  /// Grafts the uncorked backlog, then blocks until every request admitted
  /// so far has resolved (including chained solve stages). The stream stays
  /// open. Requests pushed concurrently with the drain may be waited on too.
  /// A peer's corked backlog is NOT claimed — the burst grafts as the one
  /// fused component cork() promised — so the drain parks on the retirement
  /// condvar until the corker uncorks (no flush/wait spinning).
  void drain() {
    TILEDQR_CHECK(valid(), "FactorStream::drain: moved-from or empty stream handle");
    typename State::Claim claim;
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      if (!state_->corked) {
        state_->claim_pending_locked(claim);
        // Count only claims actually attempted: a corked skip is deference,
        // not an empty flush.
        if (claim.groups.empty()) ++state_->empty_flushes;
      }
      state_->claim_applies_locked(claim);
    }
    state_->launch(std::move(claim));
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->retire_cv.wait(lock, [&] { return state_->unresolved == 0; });
  }

  /// Drains, then seals the stream: further pushes throw Error. Idempotent.
  void close() {
    TILEDQR_CHECK(valid(), "FactorStream::close: moved-from or empty stream handle");
    std::thread deadline_reaper;
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->closed = true;
      state_->corked = false;
      deadline_reaper.swap(state_->deadline_thread);
    }
    // Wake Block-ed pushers (they observe closed and throw) and the deadline
    // thread (it observes closed and exits; joined before the drain so no
    // grafting races the seal).
    state_->retire_cv.notify_all();
    if (deadline_reaper.joinable()) deadline_reaper.join();
    drain();
    if (!state_->pool_stream.closed()) state_->pool_stream.close();
  }

  [[nodiscard]] Stats stats() const {
    TILEDQR_CHECK(valid(), "FactorStream::stats: moved-from or empty stream handle");
    std::lock_guard<std::mutex> lock(state_->mu);
    Stats s;
    s.pushed = state_->pushed;
    s.components = state_->pool_stream.generation();
    s.fused_requests = state_->fused_requests.load(std::memory_order_relaxed);
    s.pending = long(state_->pending.size());
    s.unresolved = state_->unresolved;
    s.peak_unresolved = state_->peak_unresolved;
    s.rejected = state_->rejected;
    s.deadline_flushes = state_->deadline_flushes;
    s.empty_flushes = state_->empty_flushes;
    return s;
  }

  /// Ready-set generation of the underlying pool stream (components grafted).
  [[nodiscard]] long generation() const {
    TILEDQR_CHECK(valid(), "FactorStream::generation: moved-from or empty stream handle");
    return state_->pool_stream.generation();
  }

  /// The session-level live snapshot (FactorSession::health_report) from the
  /// stream handle a server actually holds.
  [[nodiscard]] std::string health_report() const {
    TILEDQR_CHECK(valid(), "FactorStream::health_report: moved-from or empty stream handle");
    return state_->session->health_report();
  }

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  explicit operator bool() const noexcept { return valid(); }

 private:
  friend class FactorSession;
  using Request = FactorSession::Request<T>;
  using State = FactorSession::StreamState<T>;

  FactorStream(FactorSession* session, FactorSession::StreamOptions opts)
      : state_(std::make_shared<State>()) {
    TILEDQR_CHECK(opts.nb >= 1, stringf("StreamOptions::nb must be >= 1 (got %d)", opts.nb));
    TILEDQR_CHECK(opts.ib >= 1, stringf("StreamOptions::ib must be >= 1 (got %d)", opts.ib));
    TILEDQR_CHECK(opts.max_pending >= 1, "StreamOptions::max_pending must be >= 1");
    TILEDQR_CHECK(opts.max_queued >= 0,
                  stringf("StreamOptions::max_queued must be >= 0, 0 = unbounded (got %d)",
                          opts.max_queued));
    TILEDQR_CHECK(opts.low_watermark >= 0,
                  stringf("StreamOptions::low_watermark must be >= 0 (got %d)",
                          opts.low_watermark));
    TILEDQR_CHECK(opts.flush_deadline.count() >= 0,
                  "StreamOptions::flush_deadline must be >= 0, 0 = no deadline");
    state_->session = session;
    state_->worker_cap = session->clamp_cap(opts.threads);
    state_->opts = std::move(opts);
    state_->pool_stream =
        session->pool_.open_stream(state_->worker_cap, state_->opts.affinity_hint);
    auto& registry = obs::MetricsRegistry::global();
    // Raw State pointer, not the shared_ptr: the handle lives inside State,
    // so a shared capture would be a self-cycle. It deregisters first in
    // State's destruction (declared last), while every field here is alive.
    state_->metrics_source = registry.register_source(
        state_->opts.label.empty() ? registry.unique_label("stream")
                                   : "stream." + state_->opts.label,
        [s = state_.get()](std::vector<obs::Sample>& out) {
          std::lock_guard<std::mutex> lock(s->mu);
          out.push_back({"pushed", double(s->pushed)});
          out.push_back({"components", double(s->pool_stream.generation())});
          out.push_back({"fused_requests",
                         double(s->fused_requests.load(std::memory_order_relaxed))});
          out.push_back({"pending", double(s->pending.size())});
          out.push_back({"unresolved", double(s->unresolved)});
          out.push_back({"peak_unresolved", double(s->peak_unresolved)});
          out.push_back({"rejected", double(s->rejected)});
          out.push_back({"deadline_flushes", double(s->deadline_flushes)});
          out.push_back({"empty_flushes", double(s->empty_flushes)});
          s->latency.append_samples("latency", out);
        });
    if (state_->opts.flush_deadline.count() > 0)
      state_->deadline_thread = std::thread(&FactorStream::deadline_main, state_);
  }

  /// Body of the per-stream deadline thread (flush_deadline > 0): sleeps
  /// until there is an uncorked backlog to watch, then grafts it once it has
  /// aged past the deadline. Exits when the stream closes (close() joins it
  /// before sealing, so a final deadline graft cannot race the seal).
  static void deadline_main(std::shared_ptr<State> state) {
    std::unique_lock<std::mutex> lock(state->mu);
    while (!state->closed) {
      if (state->pending.empty() || state->corked) {
        state->retire_cv.wait(lock, [&] {
          return state->closed || (!state->pending.empty() && !state->corked);
        });
        continue;
      }
      const auto due = state->oldest_pending + state->opts.flush_deadline;
      if (std::chrono::steady_clock::now() < due) {
        state->retire_cv.wait_until(lock, due);
        continue;  // re-evaluate: the backlog may have been claimed meanwhile
      }
      typename State::Claim claim;
      state->claim_pending_locked(claim);
      ++state->deadline_flushes;
      lock.unlock();
      state->launch(std::move(claim));
      lock.lock();
    }
  }

  /// The stream side of every push: admission (backpressure), then the
  /// request build, then the pending backlog. A build failure resolves the
  /// future with the error (releasing the slot); a rejected push resolves it
  /// without ever holding one.
  template <typename R, typename Build>
  [[nodiscard]] std::future<R> submit(Build&& build) {
    auto req = std::make_shared<Request>(state_->session, 0);
    std::future<R> future = req->template expect<R>();
    if (std::exception_ptr rejected = admit()) {
      req->fail(std::move(rejected));
      return future;
    }
    req->stream = state_;
    req->admit_ns = obs::now_ns();
    try {
      build(*req);
    } catch (...) {
      req->fail(std::current_exception());
      return future;
    }
    enqueue(std::move(req));
    return future;
  }

  /// Backpressure gate: every accepted request holds one `unresolved` slot
  /// from admission until its user-facing future resolves. Returns null on
  /// admission; with the Reject policy at the bound, returns the error the
  /// caller must fail its future with (no slot taken). With Block, parks on
  /// the retirement condvar until a slot frees. Throws on a closed stream
  /// (including a close that lands while a Block-ed push waits).
  [[nodiscard]] std::exception_ptr admit() {
    State& s = *state_;
    std::unique_lock<std::mutex> lock(s.mu);
    TILEDQR_CHECK(!s.closed, "FactorStream: push on a closed stream");
    if (s.opts.max_queued > 0 && s.unresolved >= long(s.opts.max_queued)) {
      if (s.opts.overflow == FactorSession::StreamOverflow::Reject) {
        ++s.rejected;
        return std::make_exception_ptr(Error(
            stringf("FactorStream: backpressure reject — stream already holds max_queued=%d "
                    "unresolved requests (StreamOptions::overflow = Reject)",
                    s.opts.max_queued)));
      }
      s.retire_cv.wait(lock,
                       [&] { return s.closed || s.unresolved < long(s.opts.max_queued); });
      TILEDQR_CHECK(!s.closed, "FactorStream: push on a closed stream");
    }
    ++s.unresolved;
    s.peak_unresolved = std::max(s.peak_unresolved, s.unresolved);
    return nullptr;
  }

  /// Tile → plan, resolving a disengaged tree through the autotuner for this
  /// input's shape at the stream's worker cap.
  [[nodiscard]] TiledQr<T> prepare(TileMatrix<T> tiles) {
    Options opt;
    opt.nb = state_->opts.nb;
    opt.ib = state_->opts.ib;
    opt.threads = state_->worker_cap == 0 ? state_->session->pool_.size() : state_->worker_cap;
    opt.tree = state_->opts.tree
                   ? *state_->opts.tree
                   : state_->session->choose_tree_for(tiles, state_->worker_cap);
    return state_->session->prepare(std::move(tiles), opt);
  }

  void enqueue(std::shared_ptr<Request> req) {
    typename State::Claim claim;
    {
      std::unique_lock<std::mutex> lock(state_->mu);
      if (state_->closed) {
        // Push-vs-close race: the close won. Resolve the request — giving its
        // admission slot back, so the closing drain terminates — before
        // reporting the caller bug.
        lock.unlock();
        req->fail(std::make_exception_ptr(Error("FactorStream: push on a closed stream")));
        throw Error("FactorStream: push on a closed stream");
      }
      if (state_->pending.empty())
        state_->oldest_pending = std::chrono::steady_clock::now();
      state_->pending.push_back(std::move(req));
      ++state_->pushed;
      // Flush when the in-flight window fell to the watermark (default 0:
      // the stream ran dry with nothing to hide behind) or the coalescing
      // bound is hit; a corked stream defers the former but still bounds
      // its memory with the latter.
      const bool full = long(state_->pending.size()) >= long(state_->opts.max_pending);
      if (full || (!state_->corked && state_->inflight <= long(state_->opts.low_watermark)))
        state_->claim_pending_locked(claim);
    }
    // Only a request that actually stayed pending re-arms the deadline
    // thread's watch; a push that grafted immediately left nothing to age.
    if (claim.groups.empty() && state_->opts.flush_deadline.count() > 0)
      state_->retire_cv.notify_all();
    state_->launch(std::move(claim));
  }

  std::shared_ptr<State> state_;
};

template <typename T>
FactorStream<T> FactorSession::stream(StreamOptions opt) {
  return FactorStream<T>(this, std::move(opt));
}

}  // namespace tiledqr::core
