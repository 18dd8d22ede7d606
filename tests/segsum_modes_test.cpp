// Segmented-sum claim-order tests: a pooled apply, whose chunks are claimed
// opportunistically, must produce the bits of the same engine applied in
// index order — the carry combine tree is a pure function of the chunk
// grid, not of the claim schedule — across thread counts, SIMD dispatch
// levels, column-stream encodings, blocked formats, SpMM and the semiring
// backend.  The in-order reference runs the engine inside a job of a
// private WorkPool, where every nested launch runs inline in index order;
// it needs no production code path of its own.  Also covers
// WorkPool::run_unordered directly (exactly-once coverage, worker-id cap,
// exception poisoning, nested-submit degrade — the serve-executor deadlock
// regression) and checks the speculative path against the CSR reference
// with a scaled tolerance.  Labeled `tsan` so the sanitizer script's TSan
// pass exercises the real interleavings.
#include "yaspmv/cpu/segfix.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "yaspmv/cpu/semiring.hpp"
#include "yaspmv/cpu/simd.hpp"
#include "yaspmv/cpu/spmv.hpp"
#include "yaspmv/formats/csr.hpp"
#include "yaspmv/gen/suite.hpp"
#include "yaspmv/util/rng.hpp"
#include "yaspmv/util/thread_pool.hpp"

namespace yaspmv {
namespace {

using cpu::simd::Level;

/// RAII guard: force a dispatch level for one test, restore after.
struct LevelGuard {
  Level saved;
  explicit LevelGuard(Level l) : saved(cpu::simd::active()) {
    cpu::simd::set_level(l);
  }
  ~LevelGuard() { cpu::simd::set_level(saved); }
};

std::shared_ptr<const core::Bccoo> build(const fmt::Coo& A,
                                         core::FormatConfig fc = {}) {
  return std::make_shared<const core::Bccoo>(core::Bccoo::build(A, fc));
}

std::vector<real_t> seeded(std::size_t n, std::uint64_t seed) {
  std::vector<real_t> v(n);
  SplitMix64 rng(seed);
  for (auto& x : v) x = rng.next_double(-1, 1);
  return v;
}

bool bitwise_equal(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0);
}

std::vector<Level> levels_to_test() {
  std::vector<Level> ls{Level::kPortable};
  if (cpu::simd::cpu_has_avx2()) ls.push_back(Level::kAvx2);
  if (cpu::simd::cpu_has_avx512()) ls.push_back(Level::kAvx512);
  return ls;
}

/// Test matrices that stress the fix-up: a long dense row whose segment
/// spans every chunk, plus the generator suite's usual shapes.
std::vector<fmt::Coo> fixture_matrices() {
  std::vector<fmt::Coo> ms;
  ms.push_back(gen::stencil2d(24, 24, false, 1));
  ms.push_back(gen::powerlaw(700, 700, 5, 2.2, 0.4, 2));
  ms.push_back(gen::fem_mesh(500, 30, 3, 0.05, 3));
  {
    // One dense row: every chunk's first (and only) segment is open, so
    // the carry chain crosses the entire chunk grid.
    std::vector<index_t> ri(5000, 0), ci(5000);
    std::vector<real_t> v(5000);
    SplitMix64 rng(11);
    for (index_t i = 0; i < 5000; ++i) {
      ci[static_cast<std::size_t>(i)] = i;
      v[static_cast<std::size_t>(i)] = rng.next_double(-1, 1);
    }
    ms.push_back(fmt::Coo::from_triplets(1, 5000, std::move(ri), std::move(ci),
                                         std::move(v)));
  }
  return ms;
}

/// Runs `apply` inside a job of a private WorkPool.  Every launch the
/// engine makes from there is nested, so it runs inline on this thread with
/// its indices in order: the reference a pooled apply must match bit for
/// bit.  Returns false if `apply` did not run nested (the reference would
/// then have run pooled and proved nothing).
template <class Apply>
bool apply_in_order(Apply&& apply) {
  WorkPool pool(2);
  bool nested = false;
  pool.run_ordered(2, 2, [&](unsigned, std::size_t i) {
    if (i != 0) return;
    nested = WorkPool::on_worker_thread();
    apply();
  });
  return nested;
}

// ---------------------------------------------------------------------------
// Bitwise identity: pooled (unordered) claims == the in-order reference,
// per (threads, level).

TEST(SegSumModes, UnorderedMatchesOrderedBitwise) {
  const auto mats = fixture_matrices();
  for (Level lvl : levels_to_test()) {
    LevelGuard g(lvl);
    for (unsigned threads : {1u, 2u, 4u, 8u, 16u}) {
      for (std::size_t mi = 0; mi < mats.size(); ++mi) {
        const auto& A = mats[mi];
        const auto x = seeded(static_cast<std::size_t>(A.cols), 42);
        std::vector<real_t> ord(static_cast<std::size_t>(A.rows)),
            unord(static_cast<std::size_t>(A.rows));
        cpu::CpuSpmv eng(build(A), threads);
        ASSERT_TRUE(apply_in_order([&] { eng.spmv(x, ord); }));
        eng.spmv(x, unord);
        ASSERT_TRUE(bitwise_equal(ord, unord))
            << "matrix " << mi << " threads=" << threads
            << " level=" << to_string(lvl);
      }
    }
  }
}

TEST(SegSumModes, UnorderedMatchesOrderedAcrossColStreams) {
  const auto A = gen::powerlaw(900, 900, 6, 2.1, 0.3, 5);
  const auto x = seeded(static_cast<std::size_t>(A.cols), 7);
  for (core::ColStream cs :
       {core::ColStream::kRaw, core::ColStream::kShort,
        core::ColStream::kDelta}) {
    std::vector<real_t> ord(static_cast<std::size_t>(A.rows)),
        unord(static_cast<std::size_t>(A.rows));
    cpu::CpuSpmv eng(build(A), 8, cs);
    ASSERT_TRUE(apply_in_order([&] { eng.spmv(x, ord); }));
    eng.spmv(x, unord);
    ASSERT_TRUE(bitwise_equal(ord, unord)) << to_string(cs);
  }
}

TEST(SegSumModes, UnorderedMatchesOrderedBlockedAndSliced) {
  const auto A = gen::fem_mesh(600, 30, 3, 0.05, 4);
  const auto x = seeded(static_cast<std::size_t>(A.cols), 9);
  core::FormatConfig blocked;
  blocked.block_w = 2;
  blocked.block_h = 2;
  core::FormatConfig sliced;
  sliced.slices = 4;
  for (const auto& fc : {blocked, sliced}) {
    for (unsigned threads : {2u, 8u}) {
      std::vector<real_t> ord(static_cast<std::size_t>(A.rows)),
          unord(static_cast<std::size_t>(A.rows));
      cpu::CpuSpmv eng(build(A, fc), threads);
      ASSERT_TRUE(apply_in_order([&] { eng.spmv(x, ord); }));
      eng.spmv(x, unord);
      ASSERT_TRUE(bitwise_equal(ord, unord))
          << "block_w=" << fc.block_w << " slices=" << fc.slices
          << " threads=" << threads;
    }
  }
}

TEST(SegSumModes, SpmmUnorderedMatchesOrderedBitwise) {
  const auto A = gen::powerlaw(500, 500, 6, 2.2, 0.4, 3);
  const index_t k = 4;
  const auto X =
      seeded(static_cast<std::size_t>(A.cols) * static_cast<std::size_t>(k), 5);
  for (unsigned threads : {1u, 4u, 16u}) {
    std::vector<real_t> ord(
        static_cast<std::size_t>(A.rows) * static_cast<std::size_t>(k)),
        unord(ord.size());
    cpu::CpuSpmm eng(build(A), threads);
    ASSERT_TRUE(apply_in_order([&] { eng.spmm(X, ord, k); }));
    eng.spmm(X, unord, k);
    ASSERT_TRUE(bitwise_equal(ord, unord)) << "threads=" << threads;
  }
}

/// The semiring fixtures are small: a pooled launch of one often starts its
/// chunks in index order anyway, so a single pooled apply can miss an
/// order dependence.  Repeating it makes some runs interleave.
constexpr int kSemiringPooledReps = 25;

TEST(SegSumModes, SemiringUnorderedMatchesOrderedBitwise) {
  const auto A = gen::random_scattered(600, 600, 5, 13);
  const auto f = core::Bccoo::build(A, {});
  const auto x = seeded(static_cast<std::size_t>(A.cols), 3);
  for (unsigned threads : {1u, 4u, 8u}) {
    std::vector<real_t> ord(static_cast<std::size_t>(A.rows)),
        unord(static_cast<std::size_t>(A.rows));
    ASSERT_TRUE(apply_in_order(
        [&] { cpu::spmv_semiring<cpu::PlusTimes>(f, x, ord, threads); }));
    for (int rep = 0; rep < kSemiringPooledReps; ++rep) {
      cpu::spmv_semiring<cpu::PlusTimes>(f, x, unord, threads);
      ASSERT_TRUE(bitwise_equal(ord, unord))
          << "threads=" << threads << " rep " << rep;
    }
  }
}

/// One min-plus relaxation straight off the COO: y[r] = min over the
/// row's entries of (a + d[c]), empty rows at +infinity.
std::vector<real_t> minplus_reference(const fmt::Coo& A,
                                      const std::vector<real_t>& d) {
  std::vector<real_t> y(static_cast<std::size_t>(A.rows),
                        std::numeric_limits<real_t>::infinity());
  for (std::size_t i = 0; i < A.nnz(); ++i) {
    const auto r = static_cast<std::size_t>(A.row_idx[i]);
    const real_t v = A.vals[i] + d[static_cast<std::size_t>(A.col_idx[i])];
    if (v < y[r]) y[r] = v;
  }
  return y;
}

TEST(SegSumModes, SemiringMinPlusUnorderedMatchesOrdered) {
  // Non-arithmetic semiring: min-plus is fully associative, so the
  // speculative tree must agree with the plain COO relaxation *exactly*
  // too.  Two distance vectors: one finite source (most rows stay at
  // infinity) and finite distances everywhere (every row is a real min).
  const auto A = gen::stencil2d(20, 20, false, 1);
  auto g = core::Bccoo::build(A, {});
  std::vector<real_t> source(static_cast<std::size_t>(A.rows),
                             std::numeric_limits<real_t>::infinity());
  source[0] = 0;
  std::vector<real_t> dense = seeded(static_cast<std::size_t>(A.rows), 19);
  for (auto& v : dense) v = std::abs(v) * 10.0;
  for (const auto& d : {source, dense}) {
    std::vector<real_t> ord(d.size()), unord(d.size());
    ASSERT_TRUE(apply_in_order(
        [&] { cpu::spmv_semiring<cpu::MinPlus>(g, d, ord, 8); }));
    ASSERT_TRUE(bitwise_equal(ord, minplus_reference(A, d)));
    for (int rep = 0; rep < kSemiringPooledReps; ++rep) {
      cpu::spmv_semiring<cpu::MinPlus>(g, d, unord, 8);
      ASSERT_TRUE(bitwise_equal(ord, unord)) << "rep " << rep;
    }
  }
}

// ---------------------------------------------------------------------------
// Reproducibility and numerical agreement with the CSR reference.

TEST(SegSumModes, RunToRunBitwiseReproducible) {
  const auto A = gen::powerlaw(800, 800, 6, 2.2, 0.4, 17);
  const auto x = seeded(static_cast<std::size_t>(A.cols), 21);
  cpu::CpuSpmv eng(build(A), 16);
  std::vector<real_t> first(static_cast<std::size_t>(A.rows));
  eng.spmv(x, first);
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<real_t> again(first.size());
    eng.spmv(x, again);
    ASSERT_TRUE(bitwise_equal(first, again)) << "rep " << rep;
  }
}

TEST(SegSumModes, SpeculativeMatchesCsrWithinTolerance) {
  // The tree combine reassociates the carry sum, so bits may differ from
  // the CSR row loop's — but only within a scaled tolerance.
  for (const auto& A : fixture_matrices()) {
    const auto x = seeded(static_cast<std::size_t>(A.cols), 33);
    std::vector<real_t> want(static_cast<std::size_t>(A.rows)),
        spec(want.size());
    fmt::Csr::from_coo(A).spmv(x, want);
    cpu::CpuSpmv(build(A), 8).spmv(x, spec);
    for (std::size_t i = 0; i < want.size(); ++i) {
      const double scale = std::max(1.0, std::abs(want[i]));
      ASSERT_NEAR(spec[i], want[i], 1e-9 * scale) << "row " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// WorkPool::run_unordered direct coverage.

TEST(RunUnordered, CoversEveryIndexExactlyOnce) {
  WorkPool pool(4);
  for (unsigned workers : {1u, 2u, 4u, 7u}) {
    for (std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{64},
                          std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      std::atomic<unsigned> max_worker{0};
      pool.run_unordered(n, workers, [&](unsigned w, std::size_t i) {
        hits[i].fetch_add(1);
        unsigned cur = max_worker.load();
        while (w > cur && !max_worker.compare_exchange_weak(cur, w)) {
        }
      });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "workers=" << workers << " n=" << n
                                     << " index " << i;
      }
      EXPECT_LT(max_worker.load(), workers);
    }
  }
}

TEST(RunUnordered, BatchesAreContiguousPerWorker) {
  // Workers claim contiguous index ranges; within one worker the visited
  // indices must be a union of ascending runs (each run one batch).
  WorkPool pool(4);
  constexpr std::size_t kN = 777;
  std::vector<std::vector<std::size_t>> seen(8);
  pool.run_unordered(kN, 4, [&](unsigned w, std::size_t i) {
    seen[w].push_back(i);
  });
  std::size_t total = 0;
  for (const auto& s : seen) {
    for (std::size_t j = 1; j < s.size(); ++j) {
      ASSERT_LT(s[j - 1], s[j]);  // batches are claimed from a monotone cursor
    }
    total += s.size();
  }
  EXPECT_EQ(total, kN);
}

TEST(RunUnordered, ExceptionPoisonsAndRethrows) {
  WorkPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.run_unordered(200, 4,
                         [&](unsigned, std::size_t i) {
                           ran.fetch_add(1);
                           if (i == 17) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
  EXPECT_GE(ran.load(), 1);
  // The pool must stay usable after a poisoned launch.
  std::atomic<int> ok{0};
  pool.run_unordered(64, 4, [&](unsigned, std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 64);
}

TEST(RunUnordered, NestedSubmitFromWorkerDegradesInline) {
  // Regression twin of the serve-executor deadlock: an apply that runs on
  // an executor thread submits to the shared pool from inside a job.  The
  // nested launch must degrade to inline execution instead of waiting for
  // workers that are already busy running the outer job.
  WorkPool pool(4);
  std::atomic<int> outer{0}, inner{0};
  pool.run_unordered(8, 4, [&](unsigned, std::size_t) {
    outer.fetch_add(1);
    WorkPool::shared().run_unordered(16, 4, [&](unsigned, std::size_t) {
      inner.fetch_add(1);
    });
  });
  EXPECT_EQ(outer.load(), 8);
  EXPECT_EQ(inner.load(), 8 * 16);
}

TEST(RunUnordered, SubmitFromForeignThreadsConcurrently) {
  // Two plain std::threads (serve executors in disguise) drive unordered
  // launches on the shared pool at the same time; one degrades via the
  // submit try-lock, both must complete every index.
  std::atomic<int> a{0}, b{0};
  std::thread t1([&] {
    for (int r = 0; r < 20; ++r) {
      parallel_for_unordered(64, 4,
                             [&](unsigned, std::size_t) { a.fetch_add(1); });
    }
  });
  std::thread t2([&] {
    for (int r = 0; r < 20; ++r) {
      parallel_for_unordered(64, 4,
                             [&](unsigned, std::size_t) { b.fetch_add(1); });
    }
  });
  t1.join();
  t2.join();
  EXPECT_EQ(a.load(), 20 * 64);
  EXPECT_EQ(b.load(), 20 * 64);
}

}  // namespace
}  // namespace yaspmv
