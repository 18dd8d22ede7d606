// WorkPool tests: ordered ticket dispatch on persistent workers (at most
// one worker per item), reuse across launches, on-demand growth, nested
// and concurrent submission degradation, exception poisoning, the
// spin-then-park wake-up and barrier (parked workers and submitters,
// participant-only barriers, teardown, oversubscribed launches), and the
// parallel tuner sweep equaling the serial one.  Labeled `tsan` so the
// sanitizer script's TSan pass exercises the pool's real interleavings.
#include "yaspmv/util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "yaspmv/gen/suite.hpp"
#include "yaspmv/sim/device.hpp"
#include "yaspmv/tune/tuner.hpp"

namespace yaspmv {
namespace {

/// One run_ordered launch of n items on `limit` workers: every index must
/// run exactly once and every worker id must be below min(limit, n).
void expect_exact_cover(WorkPool& pool, std::size_t n, unsigned limit) {
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  std::atomic<unsigned> max_worker{0};
  pool.run_ordered(n, limit, [&](unsigned w, std::size_t i) {
    hits[i].fetch_add(1);
    unsigned cur = max_worker.load();
    while (w > cur && !max_worker.compare_exchange_weak(cur, w)) {
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "workers=" << limit << " n=" << n
                                 << " index " << i;
  }
  EXPECT_LT(max_worker.load(), std::min<std::size_t>(limit, n));
}

TEST(WorkPool, CoversEveryIndexExactlyOnce) {
  WorkPool pool(4);
  for (unsigned workers : {1u, 2u, 4u, 7u}) {
    for (std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{64},
                          std::size_t{1000}}) {
      expect_exact_cover(pool, n, workers);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(WorkPool, OrderedLaunchTakesNoMoreWorkersThanItems) {
  // Two items on a four-worker launch: n workers cover n items, so the
  // launch must not wake (and wait for) helpers 2 and 3.
  WorkPool pool(4);
  for (int round = 0; round < 1000; ++round) {
    expect_exact_cover(pool, 2, 4);
    if (HasFailure()) return;
  }
}

TEST(WorkPool, PerWorkerIndicesIncrease) {
  // Tickets are claimed from a monotone counter, so the indices any single
  // worker observes must be strictly increasing — the invariant the
  // adjacent-sync chain depends on.
  WorkPool pool(4);
  constexpr std::size_t kN = 500;
  std::vector<std::vector<std::size_t>> seen(8);
  pool.run_ordered(kN, 4, [&](unsigned w, std::size_t i) {
    seen[w].push_back(i);
  });
  std::size_t total = 0;
  for (const auto& s : seen) {
    for (std::size_t j = 1; j < s.size(); ++j) {
      ASSERT_LT(s[j - 1], s[j]);
    }
    total += s.size();
  }
  EXPECT_EQ(total, kN);
}

TEST(WorkPool, ReuseAcrossManyLaunches) {
  WorkPool pool(3);
  std::vector<long> acc(64, 0);
  for (int round = 0; round < 200; ++round) {
    pool.run_ordered(acc.size(), 3, [&](unsigned, std::size_t i) {
      acc[i] += static_cast<long>(i) + round;
    });
  }
  for (std::size_t i = 0; i < acc.size(); ++i) {
    long want = 0;
    for (int round = 0; round < 200; ++round) {
      want += static_cast<long>(i) + round;
    }
    ASSERT_EQ(acc[i], want);
  }
}

TEST(WorkPool, GrowsOnDemand) {
  WorkPool pool(2);
  EXPECT_GE(pool.workers(), 2u);
  std::atomic<int> count{0};
  pool.run_ordered(100, 6, [&](unsigned, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
  EXPECT_GE(pool.workers(), 6u);
}

TEST(WorkPool, NestedSubmissionRunsInline) {
  WorkPool pool(4);
  std::atomic<int> inner_total{0};
  std::atomic<bool> saw_worker_flag{false};
  pool.run_ordered(8, 4, [&](unsigned, std::size_t) {
    if (WorkPool::on_worker_thread()) saw_worker_flag.store(true);
    // A body launching its own parallel loop (tuner candidate running the
    // simulator) must degrade to inline execution, not deadlock.
    parallel_for_ordered(10, 4, [&](unsigned w, std::size_t) {
      EXPECT_EQ(w, 0u);  // inline loop is always "worker 0"
      inner_total.fetch_add(1);
    });
  });
  EXPECT_TRUE(saw_worker_flag.load());
  EXPECT_EQ(inner_total.load(), 80);
}

TEST(WorkPool, ConcurrentSubmittersAllComplete) {
  WorkPool pool(4);
  constexpr int kSubmitters = 4;
  constexpr std::size_t kN = 300;
  std::vector<std::vector<int>> results(kSubmitters,
                                        std::vector<int>(kN, 0));
  std::vector<std::thread> ts;
  ts.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    ts.emplace_back([&, s] {
      for (int round = 0; round < 5; ++round) {
        pool.run_ordered(kN, 3, [&, s](unsigned, std::size_t i) {
          results[static_cast<std::size_t>(s)][i]++;
        });
      }
    });
  }
  for (auto& t : ts) t.join();
  for (const auto& r : results) {
    for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(r[i], 5);
  }
}

TEST(WorkPool, ExceptionPoisonsLaunchAndPropagates) {
  WorkPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.run_ordered(100, 4,
                       [&](unsigned, std::size_t i) {
                         if (i == 17) throw std::runtime_error("boom");
                         ran.fetch_add(1);
                       }),
      std::runtime_error);
  EXPECT_LT(ran.load(), 100);
  // The pool stays usable after a poisoned launch.
  std::atomic<int> after{0};
  pool.run_ordered(50, 4, [&](unsigned, std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 50);
}

TEST(WorkPool, SharedPoolThroughFreeFunction) {
  std::vector<int> hits(128, 0);
  parallel_for_ordered(hits.size(), 4, [&](unsigned, std::size_t i) {
    hits[i]++;
  });
  for (int h : hits) ASSERT_EQ(h, 1);
}

// Far longer than WorkPool::kSpinWindow: whoever waits this long parks.
constexpr auto kParkGap = std::chrono::milliseconds(20);
static_assert(kParkGap >= 100 * WorkPool::kSpinWindow);

TEST(WorkPool, ParkedWorkersWakeForLaterLaunches) {
  WorkPool pool(4);
  for (int round = 0; round < 3; ++round) {
    for (unsigned limit : {2u, 4u}) {
      std::this_thread::sleep_for(kParkGap);
      expect_exact_cover(pool, 64, limit);
    }
  }
}

TEST(WorkPool, SubmitterParksUntilHelperBodyFinishes) {
  WorkPool pool(2);
  for (int round = 0; round < 3; ++round) {
    // Item 0 holds worker 0 until a helper has claimed item 1, so a helper
    // runs the slow body and the submitter reaches the barrier first.  The
    // helper's plain write must be visible (and race-free under TSan) once
    // the launch returns.
    std::atomic<bool> helper_started{false};
    int written = 0;
    pool.run_ordered(2, 2, [&](unsigned w, std::size_t) {
      if (w == 0) {
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!helper_started.load() &&
               std::chrono::steady_clock::now() < give_up) {
          std::this_thread::yield();
        }
        return;
      }
      helper_started.store(true);
      std::this_thread::sleep_for(kParkGap);
      written = 42 + round;
    });
    ASSERT_TRUE(helper_started.load()) << "no helper took item 1";
    EXPECT_EQ(written, 42 + round);
  }
}

TEST(WorkPool, BarrierCountsOnlyTheLaunchParticipants) {
  // Workers 2..7 take part in every other launch only: one of them still
  // finishing (or waking) from a limit-8 launch must never be counted by,
  // or run a body of, the limit-2 launch after it.
  WorkPool pool(8);
  for (int round = 0; round < 1000; ++round) {
    expect_exact_cover(pool, 16, round % 2 == 0 ? 2u : 8u);
    if (HasFatalFailure()) return;
  }
}

TEST(WorkPool, TeardownJoinsSpinningAndParkedWorkers) {
  for (unsigned limit : {2u, 4u}) {
    {
      WorkPool pool(limit);
      expect_exact_cover(pool, 32, limit);
    }  // destroyed while the helpers may still be spinning
    {
      WorkPool pool(limit);
      expect_exact_cover(pool, 32, limit);
      std::this_thread::sleep_for(kParkGap);
    }  // destroyed with the helpers parked
  }
}

TEST(WorkPool, OversubscribedOrderedLaunchesComplete) {
  // More workers than most machines have cores: the branch that parks at
  // once instead of spinning.  Each item waits on its predecessor, the
  // adjacent-sync shape run_ordered's real threads exist for.
  WorkPool pool(16);
  constexpr std::size_t kN = 48;
  for (int round = 0; round < 200; ++round) {
    std::vector<std::atomic<int>> done(kN);
    for (auto& d : done) d.store(0);
    pool.run_ordered(kN, 16, [&](unsigned, std::size_t i) {
      if (i > 0) {
        while (done[i - 1].load() == 0) std::this_thread::yield();
      }
      done[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(done[i].load(), 1) << "round " << round << " index " << i;
    }
  }
}

TEST(WorkPool, ParallelTunerMatchesSerialSweep) {
  const auto A = gen::stencil2d(10, 10, false, 2);
  const auto dev = sim::gtx680();
  tune::TuneOptions serial_opt;
  serial_opt.tune_workers = 1;
  tune::TuneOptions pooled_opt;
  pooled_opt.tune_workers = 4;
  const auto serial = tune::tune(A, dev, serial_opt);
  const auto pooled = tune::tune(A, dev, pooled_opt);
  EXPECT_EQ(serial.evaluated, pooled.evaluated);
  EXPECT_EQ(serial.skipped, pooled.skipped);
  EXPECT_EQ(serial.best.format.to_string(), pooled.best.format.to_string());
  EXPECT_EQ(serial.best.exec.to_string(), pooled.best.exec.to_string());
  EXPECT_EQ(serial.best.gflops, pooled.best.gflops);
  ASSERT_EQ(serial.top.size(), pooled.top.size());
  for (std::size_t i = 0; i < serial.top.size(); ++i) {
    EXPECT_EQ(serial.top[i].gflops, pooled.top[i].gflops) << "top " << i;
  }
  EXPECT_EQ(serial.skipped_configs, pooled.skipped_configs);
}

}  // namespace
}  // namespace yaspmv
