// Shard-aware execution tests: the standing contract is that sharding is a
// *placement* decision, never a numerical one.  The shard decomposition
// derives from the slice/chunk grid (not the live thread count), the carry
// fix-up tree and the combine order are shard-invariant, so the sharded
// apply must be bitwise identical to the 1-shard apply for every shard
// count x thread count x SIMD level combination — asserted here with
// memcmp, per the acceptance matrix shards {1,2,4} x threads {1,4,16} x
// levels {portable, avx2}.  Also covers the shard metadata (chunk-aligned
// block splits, per-shard halo column ranges), WorkPool::run_sharded
// exactly-once coverage with spill, FirstTouchBuffer, and the
// model_time_sharded cost model.  Labeled `shard` (run under TSan by
// tools/run_sanitized_tests.sh).
#include "yaspmv/cpu/spmv.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "yaspmv/cpu/simd.hpp"
#include "yaspmv/gen/suite.hpp"
#include "yaspmv/perf/model.hpp"
#include "yaspmv/sim/device.hpp"
#include "yaspmv/util/rng.hpp"
#include "yaspmv/util/thread_pool.hpp"

namespace yaspmv {
namespace {

using cpu::simd::Level;

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
  return ls;
}

std::vector<fmt::Coo> fixture_matrices() {
  std::vector<fmt::Coo> ms;
  ms.push_back(gen::stencil2d(24, 24, false, 1));
  ms.push_back(gen::powerlaw(700, 700, 5, 2.2, 0.4, 2));
  ms.push_back(gen::fem_mesh(500, 30, 3, 0.05, 3));
  return ms;
}

// ---------------------------------------------------------------------------
// The acceptance matrix: sharded output == 1-shard output, bit for bit.

TEST(ShardExecution, ShardedMatchesUnshardedBitwise) {
  const auto mats = fixture_matrices();
  for (Level lvl : levels_to_test()) {
    LevelGuard g(lvl);
    for (std::size_t mi = 0; mi < mats.size(); ++mi) {
      const auto& A = mats[mi];
      const auto m = build(A);
      const auto x = seeded(static_cast<std::size_t>(A.cols), 42);
      for (unsigned threads : {1u, 4u, 16u}) {
        std::vector<real_t> base(static_cast<std::size_t>(A.rows));
        cpu::CpuSpmv e1(m, threads, core::ColStream::kAuto,
                        cpu::grid::KernelDispatch::kAuto, 1);
        e1.spmv(x, base);
        for (unsigned shards : {2u, 4u}) {
          std::vector<real_t> got(base.size());
          cpu::CpuSpmv es(m, threads, core::ColStream::kAuto,
                          cpu::grid::KernelDispatch::kAuto, shards);
          EXPECT_EQ(es.shard_count(), shards);
          es.spmv(x, got);
          ASSERT_TRUE(bitwise_equal(base, got))
              << "matrix " << mi << " threads=" << threads
              << " shards=" << shards << " level=" << to_string(lvl);
        }
      }
    }
  }
}

TEST(ShardExecution, ShardedMatchesUnshardedBlockedAndSliced) {
  const auto A = gen::fem_mesh(600, 30, 3, 0.05, 4);
  const auto x = seeded(static_cast<std::size_t>(A.cols), 9);
  core::FormatConfig blocked;
  blocked.block_w = 2;
  blocked.block_h = 2;
  core::FormatConfig sliced;
  sliced.slices = 4;
  for (const auto& fc : {blocked, sliced}) {
    const auto m = build(A, fc);
    for (unsigned threads : {2u, 8u}) {
      std::vector<real_t> base(static_cast<std::size_t>(A.rows)),
          got(static_cast<std::size_t>(A.rows));
      cpu::CpuSpmv e1(m, threads, core::ColStream::kAuto,
                      cpu::grid::KernelDispatch::kAuto, 1);
      cpu::CpuSpmv e4(m, threads, core::ColStream::kAuto,
                      cpu::grid::KernelDispatch::kAuto, 4);
      e1.spmv(x, base);
      e4.spmv(x, got);
      ASSERT_TRUE(bitwise_equal(base, got))
          << "block_w=" << fc.block_w << " slices=" << fc.slices
          << " threads=" << threads;
    }
  }
}

TEST(ShardExecution, RunToRunBitwiseReproducible) {
  const auto A = gen::powerlaw(800, 800, 6, 2.2, 0.4, 17);
  const auto x = seeded(static_cast<std::size_t>(A.cols), 21);
  cpu::CpuSpmv eng(build(A), 16, core::ColStream::kAuto,
                   cpu::grid::KernelDispatch::kAuto, 4);
  std::vector<real_t> first(static_cast<std::size_t>(A.rows));
  eng.spmv(x, first);
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<real_t> again(first.size());
    eng.spmv(x, again);
    ASSERT_TRUE(bitwise_equal(first, again)) << "rep " << rep;
  }
}

// ---------------------------------------------------------------------------
// Shard metadata: block splits and halo column ranges.

TEST(ShardExecution, ShardBlockStartsAreMonotoneAndTileAligned) {
  const auto A = gen::powerlaw(900, 900, 6, 2.1, 0.3, 5);
  const auto f = core::Bccoo::build(A, {});
  for (unsigned shards : {1u, 2u, 4u, 7u}) {
    const auto starts = f.shard_block_starts(shards);
    ASSERT_EQ(starts.size(), static_cast<std::size_t>(shards) + 1);
    EXPECT_EQ(starts.front(), 0u);
    EXPECT_EQ(starts.back(), f.num_blocks);
    for (unsigned s = 0; s < shards; ++s) {
      EXPECT_LE(starts[s], starts[s + 1]);
      // Interior boundaries land on decode-tile edges so a shard never
      // splits a column tile.
      if (s > 0 && starts[s] < f.num_blocks) {
        EXPECT_EQ(starts[s] % core::Bccoo::kColTile, 0u) << "shard " << s;
      }
    }
  }
}

TEST(ShardExecution, HaloColumnRangesCoverTheShardsBlocks) {
  const auto A = gen::fem_mesh(500, 30, 3, 0.05, 3);
  const auto f = core::Bccoo::build(A, {});
  const auto coo = f.to_coo();
  const auto starts = f.shard_block_starts(4);
  for (unsigned s = 0; s < 4; ++s) {
    const auto [c0, c1] = f.block_col_range(starts[s], starts[s + 1]);
    EXPECT_GE(c0, 0);
    EXPECT_LE(c1, f.cols);
    EXPECT_LE(c0, c1);
  }
  // The engine mirrors the same ranges per shard.
  cpu::CpuSpmv eng(std::make_shared<const core::Bccoo>(f), 2,
                   core::ColStream::kAuto,
                   cpu::grid::KernelDispatch::kAuto, 4);
  for (unsigned s = 0; s < eng.shard_count(); ++s) {
    const auto [c0, c1] = eng.shard_col_range(s);
    EXPECT_GE(c0, 0);
    EXPECT_LE(c1, f.cols);
  }
}

TEST(ShardExecution, ShardCountClampsAndDefaults) {
  const auto A = gen::stencil2d(16, 16, false, 1);
  const auto m = build(A);
  // shards=0 resolves to the probed NUMA domain count (>= 1).
  cpu::CpuSpmv probe(m, 2, core::ColStream::kAuto,
                     cpu::grid::KernelDispatch::kAuto, 0);
  EXPECT_GE(probe.shard_count(), 1u);
  EXPECT_EQ(probe.shard_count(), default_shards());
  // Absurd counts clamp to kMaxShards instead of exploding the grid.
  cpu::CpuSpmv wide(m, 2, core::ColStream::kAuto,
                    cpu::grid::KernelDispatch::kAuto, 999);
  EXPECT_LE(wide.shard_count(), kMaxShards);
}

// ---------------------------------------------------------------------------
// WorkPool::run_sharded / FirstTouchBuffer.

TEST(RunSharded, CoversEveryIndexExactlyOnceWithSpill) {
  WorkPool pool(4);
  constexpr std::size_t kN = 1000;
  // Lopsided shard map: shard 0 owns 900 of 1000 indices, so shard 1's
  // workers must spill into shard 0's range to finish.
  const std::size_t starts[] = {0, 900, kN};
  for (unsigned workers : {1u, 2u, 4u}) {
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0);
    pool.run_sharded(kN, starts, 2, workers,
                     [&](unsigned, std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "workers=" << workers << " index " << i;
    }
  }
}

TEST(RunSharded, DegradesToUnorderedOnOneShard) {
  WorkPool pool(2);
  const std::size_t starts[] = {0, 64};
  std::atomic<int> ran{0};
  pool.run_sharded(64, starts, 1, 2,
                   [&](unsigned, std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 64);
}

TEST(FirstTouch, BufferFillsShardedAndSerially) {
  const std::size_t starts[] = {0, 512, 1024};
  FirstTouchBuffer<real_t> buf;
  buf.init(1024, 2.5, starts, 2, 4);
  ASSERT_EQ(buf.size(), 1024u);
  EXPECT_FALSE(buf.empty());
  for (std::size_t i = 0; i < buf.size(); ++i) {
    ASSERT_EQ(buf[i], 2.5) << "index " << i;
  }
  // Serial fallback (1 shard) fills identically.
  FirstTouchBuffer<real_t> serial;
  serial.init(1024, 2.5, starts, 1, 1);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], 2.5);
  }
  FirstTouchBuffer<real_t> empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
}

// ---------------------------------------------------------------------------
// Cost model.

TEST(ShardModel, CollapsesToThreadModelWithoutCrossNodePenalty) {
  sim::KernelStats st;
  st.global_load_bytes = 1 << 26;
  st.global_store_bytes = 1 << 22;
  st.flops = 1 << 24;
  st.kernel_launches = 1;
  sim::DeviceSpec dev = sim::gtx680();
  dev.cross_node_gbps = 0.0;  // uniform memory: sharding is free
  const auto base = perf::model_time_threads(dev, st, 4);
  const auto sharded = perf::model_time_sharded(dev, st, 4, 4, 1 << 20);
  EXPECT_DOUBLE_EQ(base.total_s, sharded.total_s);
  // shards <= 1 collapses too, even with a slow interconnect.
  dev.cross_node_gbps = 1.0;
  const auto one = perf::model_time_sharded(dev, st, 4, 1, 1 << 20);
  EXPECT_DOUBLE_EQ(base.total_s, one.total_s);
}

TEST(ShardModel, SlowInterconnectChargesHaloTraffic) {
  sim::KernelStats st;
  st.global_load_bytes = 1 << 26;
  st.global_store_bytes = 1 << 22;
  st.flops = 1 << 20;  // memory-bound so mem_s drives total_s
  st.kernel_launches = 1;
  sim::DeviceSpec dev = sim::gtx680();
  dev.cross_node_gbps = dev.mem_bandwidth_gbps / 8.0;
  const auto base = perf::model_time_threads(dev, st, 4);
  const auto two = perf::model_time_sharded(dev, st, 4, 2, 1 << 24);
  const auto four = perf::model_time_sharded(dev, st, 4, 4, 1 << 24);
  EXPECT_GT(two.mem_s, base.mem_s);
  // The halo is pulled concurrently by all domains: more shards, smaller
  // per-domain share of the penalty.
  EXPECT_LT(four.mem_s, two.mem_s);
  EXPECT_GE(four.mem_s, base.mem_s);
  // An interconnect as fast as local memory is not a bottleneck.
  dev.cross_node_gbps = dev.mem_bandwidth_gbps;
  const auto fast = perf::model_time_sharded(dev, st, 4, 2, 1 << 24);
  EXPECT_DOUBLE_EQ(base.total_s, fast.total_s);
}

}  // namespace
}  // namespace yaspmv
