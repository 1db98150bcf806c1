// Seeded state-machine fuzz test for FactorStream. Per seed, several client
// threads drive one stream with a random mix of push (dense and pre-tiled),
// push_solve (valid, zero-column and row-mismatched rhs), cork, uncork, flush
// and drain on tall and wide shapes, under a randomly drawn QoS policy
// (Block or Reject overflow, queue bound, coalescing depth, watermark, flush
// deadline). The stream is then closed and every invariant of the request
// lifecycle is checked:
//   * every future is ready after close() and resolves exactly once (an
//     abandoned promise surfaces as std::future_error, a doubly-satisfied one
//     aborts the process);
//   * successful results are bitwise equal to the sequential replay
//     (TiledQr::factorize / solve_least_squares on one thread);
//   * the only failures are the requests built to fail (row-mismatched rhs)
//     and, under Reject, backpressure overflow;
//   * Stats counters agree with the fuzzer's own tally, unresolved == 0 after
//     close, and peak_unresolved <= max_queued.
// The fast tier runs a bounded seed count; TILEDQR_STRESS=1 (the `stress`
// label) sweeps many more seeds with longer op sequences.
//
// The clients keep the stream deadlock-free by construction: a client that
// corked never drains before it uncorks, every cork is undone before the
// client finishes, and under Block max_pending <= max_queued, so a corked
// backlog is always forced out before the queue bound can park a pusher.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "core/qr_session.hpp"
#include "matrix/generate.hpp"

namespace tiledqr {
namespace {

using core::Options;
using core::QrSession;
using core::TiledQr;
using trees::TreeConfig;

constexpr int kNb = 16;
constexpr int kIb = 8;

struct Shape {
  std::int64_t m, n;
};
// Tall, ragged tall, square, wide, ragged wide: both factorization kinds and
// the padding path.
const std::vector<Shape> kShapes = {{48, 32}, {40, 24}, {16, 16}, {32, 48}, {24, 40}};

/// Inputs and their sequential-replay references, shared by every seed.
struct Corpus {
  std::vector<Matrix<double>> a;        // one matrix per shape
  std::vector<Matrix<double>> b;        // matching rhs (2 columns)
  std::vector<Matrix<double>> factors;  // replayed factor tiles, dense
  std::vector<Matrix<double>> x;        // replayed solutions

  Corpus() {
    Options opt;
    opt.tree = TreeConfig{};
    opt.nb = kNb;
    opt.ib = kIb;
    opt.threads = 1;  // runtime::execute(..., 1): the sequential replay
    for (size_t s = 0; s < kShapes.size(); ++s) {
      a.push_back(random_matrix<double>(kShapes[s].m, kShapes[s].n, 7000 + unsigned(s)));
      b.push_back(random_matrix<double>(kShapes[s].m, 2, 8000 + unsigned(s)));
      auto qr = TiledQr<double>::factorize(ConstMatrixView<double>(a.back().view()), opt);
      factors.push_back(qr.factors().to_dense());
      x.push_back(qr.solve_least_squares(ConstMatrixView<double>(b.back().view())));
    }
  }
};

const Corpus& corpus() {
  static const Corpus c;
  return c;
}

bool bitwise_equal(const Matrix<double>& got, const Matrix<double>& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) return false;
  for (std::int64_t j = 0; j < got.cols(); ++j)
    for (std::int64_t i = 0; i < got.rows(); ++i)
      if (got(i, j) != want(i, j)) return false;
  return true;
}

enum class Kind { Factor, Solve, EmptySolve, BadSolve };

/// One issued request: what was asked and the future it returned.
struct Issued {
  Kind kind;
  size_t shape;
  std::future<TiledQr<double>> factor;
  std::future<Matrix<double>> solution;
};

struct Policy {
  int threads;
  QrSession::StreamOptions opt;
};

Policy draw_policy(std::mt19937_64& rng) {
  auto pick = [&](int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); };
  Policy p;
  p.threads = pick(0, 1) ? 4 : 2;
  p.opt.nb = kNb;
  p.opt.ib = kIb;
  p.opt.tree = TreeConfig{};
  p.opt.overflow =
      pick(0, 1) ? QrSession::StreamOverflow::Block : QrSession::StreamOverflow::Reject;
  p.opt.max_queued = pick(0, 3) == 0 ? 0 : pick(1, 6);
  p.opt.max_pending = pick(1, 8);
  if (p.opt.overflow == QrSession::StreamOverflow::Block && p.opt.max_queued > 0)
    p.opt.max_pending = std::min(p.opt.max_pending, p.opt.max_queued);
  p.opt.low_watermark = pick(0, 2);
  if (pick(0, 2) == 0) p.opt.flush_deadline = std::chrono::milliseconds(pick(1, 2));
  return p;
}

std::string describe(unsigned long seed, const Policy& p) {
  return "seed=" + std::to_string(seed) + " threads=" + std::to_string(p.threads) +
         (p.opt.overflow == QrSession::StreamOverflow::Block ? " Block" : " Reject") +
         " max_queued=" + std::to_string(p.opt.max_queued) +
         " max_pending=" + std::to_string(p.opt.max_pending) +
         " low_watermark=" + std::to_string(p.opt.low_watermark) +
         " deadline_ms=" +
         std::to_string(
             std::chrono::duration_cast<std::chrono::milliseconds>(p.opt.flush_deadline).count());
}

/// One client's random op sequence against the shared stream.
std::vector<Issued> run_client(core::FactorStream<double>& stream, unsigned long seed, int ops) {
  const Corpus& c = corpus();
  std::mt19937_64 rng(seed);
  auto pick = [&](int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); };
  std::vector<Issued> issued;
  bool corked = false;  // this client's own cork, undone before it finishes
  Matrix<double> empty_rhs;
  for (int op = 0; op < ops; ++op) {
    const int roll = pick(0, 99);
    const size_t s = size_t(pick(0, int(kShapes.size()) - 1));
    const ConstMatrixView<double> a(c.a[s].view());
    if (roll < 22) {
      issued.push_back({Kind::Factor, s, stream.push(a), {}});
    } else if (roll < 30) {
      issued.push_back({Kind::Factor, s, stream.push(TileMatrix<double>::from_dense(a, kNb)), {}});
    } else if (roll < 55) {
      issued.push_back(
          {Kind::Solve, s, {}, stream.push_solve(a, ConstMatrixView<double>(c.b[s].view()))});
    } else if (roll < 60) {
      empty_rhs = Matrix<double>(kShapes[s].m, 0);
      issued.push_back({Kind::EmptySolve, s, {},
                        stream.push_solve(a, ConstMatrixView<double>(empty_rhs.view()))});
    } else if (roll < 65) {
      // Row-mismatched rhs: borrow a rhs of a different row count.
      size_t other = (s + 1) % kShapes.size();
      while (kShapes[other].m == kShapes[s].m) other = (other + 1) % kShapes.size();
      issued.push_back({Kind::BadSolve, s, {},
                        stream.push_solve(a, ConstMatrixView<double>(c.b[other].view()))});
    } else if (roll < 75) {
      stream.cork();
      corked = true;
    } else if (roll < 85) {
      stream.uncork();
      corked = false;
    } else if (roll < 92) {
      stream.flush();
    } else if (!corked) {
      stream.drain();
    }
  }
  if (corked) stream.uncork();
  return issued;
}

/// Stats counters the fuzzer tallies itself from the futures' outcomes.
struct Tally {
  long pushed = 0;    // admitted and prepared (what Stats::pushed counts)
  long rejected = 0;  // Reject-policy overflow
  long applies = 0;   // solves with a non-empty rhs: each adds one apply stage
};

/// Runs one seed; returns how many requests the stream accepted.
long check_seed(unsigned long seed, int clients, int ops) {
  std::mt19937_64 rng(seed);
  const Policy policy = draw_policy(rng);
  SCOPED_TRACE(describe(seed, policy));
  const Corpus& c = corpus();

  QrSession session(QrSession::Config{policy.threads});
  auto stream = session.stream<double>(policy.opt);
  std::vector<std::vector<Issued>> per_client(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int k = 0; k < clients; ++k)
    threads.emplace_back([&, k] {
      per_client[size_t(k)] = run_client(stream, seed * 131 + unsigned(k), ops);
    });
  for (auto& t : threads) t.join();
  stream.close();

  Tally tally;
  for (auto& issued : per_client)
    for (auto& req : issued) {
      const bool is_factor = req.kind == Kind::Factor;
      const auto ready = is_factor ? req.factor.wait_for(std::chrono::seconds(0))
                                   : req.solution.wait_for(std::chrono::seconds(0));
      if (ready != std::future_status::ready) {
        ADD_FAILURE() << "future still pending after close()";
        continue;
      }
      try {
        if (is_factor) {
          const auto qr = req.factor.get();
          EXPECT_TRUE(bitwise_equal(qr.factors().to_dense(), c.factors[req.shape]))
              << "factor of shape " << req.shape << " differs from the replay";
        } else {
          const auto x = req.solution.get();
          EXPECT_NE(req.kind, Kind::BadSolve) << "row-mismatched rhs was accepted";
          if (req.kind == Kind::Solve) {
            EXPECT_TRUE(bitwise_equal(x, c.x[req.shape]))
                << "solution of shape " << req.shape << " differs from the replay";
            ++tally.applies;
          } else if (req.kind == Kind::EmptySolve) {
            EXPECT_EQ(x.rows(), kShapes[req.shape].n);
            EXPECT_EQ(x.cols(), 0);
          }
        }
        ++tally.pushed;
      } catch (const std::future_error& e) {
        ADD_FAILURE() << "future resolved without a value or error: " << e.what();
      } catch (const Error& e) {
        const std::string what = e.what();
        if (what.find("backpressure reject") != std::string::npos) {
          EXPECT_EQ(policy.opt.overflow, QrSession::StreamOverflow::Reject) << what;
          ++tally.rejected;
        } else {
          EXPECT_EQ(req.kind, Kind::BadSolve) << "unexpected failure: " << what;
          EXPECT_NE(what.find("row mismatch"), std::string::npos) << what;
        }
      }
    }

  const auto s = stream.stats();
  EXPECT_EQ(s.pushed, tally.pushed);
  EXPECT_EQ(s.rejected, tally.rejected);
  EXPECT_EQ(s.unresolved, 0);
  EXPECT_EQ(s.pending, 0);
  if (policy.opt.max_queued > 0) EXPECT_LE(s.peak_unresolved, policy.opt.max_queued);
  EXPECT_LE(s.fused_requests, s.pushed);
  EXPECT_LE(s.components, s.pushed + tally.applies);
  if (s.pushed > 0) EXPECT_GE(s.components, 1);
  return s.pushed;
}

TEST(FactorStreamFuzz, RandomClientsKeepEveryInvariant) {
  const bool stress = env_flag("TILEDQR_STRESS");
  const unsigned long seeds = stress ? 300 : 24;
  const int ops = stress ? 60 : 24;
  long accepted = 0;
  for (unsigned long seed = 1; seed <= seeds; ++seed) {
    accepted += check_seed(seed, /*clients=*/2 + int(seed % 2), ops);
    if (HasFatalFailure()) return;
  }
  // The op mix must actually exercise the stream, not just cork and flush.
  EXPECT_GT(accepted, long(seeds) * ops / 4);
}

}  // namespace
}  // namespace tiledqr
