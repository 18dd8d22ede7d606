// Compressed column-stream tests: the materialized int16 delta / u16 short
// streams (core/bccoo) and their SIMD decode kernels (cpu/simd) must
// reproduce the raw 4-byte column indices exactly, and CpuSpmv/CpuSpmm on
// any stream must be *bitwise* identical to the raw-stream result at a
// fixed thread count and dispatch level.  Covers the delta escape paths the
// suite matrices rarely hit: a first-block column past int16 range, the
// engineered -1 delta (collides with the escape sentinel and must escape),
// and matrices wider than u16 (short degrades to raw).
#include "yaspmv/core/bccoo.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "yaspmv/cpu/simd.hpp"
#include "yaspmv/cpu/spmv.hpp"
#include "yaspmv/formats/csr.hpp"
#include "yaspmv/gen/suite.hpp"
#include "yaspmv/util/rng.hpp"

namespace yaspmv {
namespace {

using cpu::simd::Level;
using core::ColStream;

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

/// Decode the whole column stream tile by tile (as the executors do) and
/// compare with the raw indices.
void expect_streams_roundtrip(const core::Bccoo& m) {
  ASSERT_TRUE(m.col_streams_built);
  const std::size_t nb = m.num_blocks;
  std::vector<index_t> got(nb);
  std::size_t esc_used = 0;
  for (std::size_t t = 0; t < m.num_col_tiles(); ++t) {
    const std::size_t t0 = t * core::Bccoo::kColTile;
    const std::size_t t1 = std::min(t0 + core::Bccoo::kColTile, nb);
    esc_used += cpu::simd::decode_delta_portable(
        m.delta_cols.data() + t0, t1 - t0,
        m.delta_escapes.data() + m.delta_escape_start[t],
        got.data() + t0);
  }
  EXPECT_EQ(esc_used, m.delta_escapes.size());
  EXPECT_EQ(got, m.col_index);
  if (!m.short_cols.empty()) {
    std::vector<index_t> gs(nb);
    cpu::simd::decode_short_portable(m.short_cols.data(), gs.data(), nb);
    EXPECT_EQ(gs, m.col_index);
  }
}

TEST(ColStreams, RoundtripAcrossGenerators) {
  expect_streams_roundtrip(*build(gen::stencil2d(30, 30, false, 1)));
  expect_streams_roundtrip(*build(gen::powerlaw(900, 900, 6, 2.2, 0.4, 2)));
  core::FormatConfig plus;
  plus.slices = 4;
  expect_streams_roundtrip(
      *build(gen::random_scattered(700, 700, 5, 5), plus));
}

TEST(ColStreams, WideMatrixEscapesAndDegradesShort) {
  // 70000 columns: past u16 range, so short_cols must be absent, and block
  // columns past 32767 force int16-overflow escapes in the delta stream.
  const auto A = gen::random_scattered(500, 70000, 8, 17);
  const auto m = build(A);
  EXPECT_TRUE(m->short_cols.empty());
  EXPECT_GT(m->delta_escapes.size(), 0u);
  EXPECT_EQ(m->resolve_col_stream(ColStream::kShort), ColStream::kRaw);
  EXPECT_EQ(m->resolve_col_stream(ColStream::kAuto), ColStream::kDelta);
  expect_streams_roundtrip(*m);
}

TEST(ColStreams, MinusOneDeltaMustEscape) {
  // Successive rows whose single block column *decreases by one*: the true
  // delta -1 collides with the escape sentinel and must be stored escaped.
  const auto A = fmt::Coo::from_triplets(4, 8, {0, 1, 2, 3}, {5, 4, 3, 2},
                                         {1.0, 2.0, 3.0, 4.0});
  const auto m = build(A);
  ASSERT_EQ(m->num_blocks, 4u);
  EXPECT_EQ(m->delta_escapes.size(), 3u);  // blocks 1..3 all have delta -1
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(m->delta_cols[i], kDeltaEscape);
  }
  expect_streams_roundtrip(*m);
  EXPECT_NO_THROW(m->validate());
}

TEST(ColStreams, DecodeKernelsBitIdenticalAcrossLevels) {
  // Engineered delta streams: escapes at group starts, group ends, straddling
  // the 8-wide AVX2 groups, plus sub-group tails.
  SplitMix64 rng(99);
  for (std::size_t n : {1u, 7u, 8u, 9u, 64u, 200u, 511u, 512u}) {
    std::vector<std::int16_t> d(n);
    std::vector<index_t> esc;
    index_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto r = rng.next() % 100;
      if (r < 20 || i % 8 == 7 || (i > 0 && i % 13 == 0)) {
        d[i] = kDeltaEscape;
        prev = static_cast<index_t>(rng.next() % 100000);
        esc.push_back(prev);
      } else {
        const auto step = static_cast<std::int16_t>(rng.next() % 500);
        d[i] = step;
        prev += step;
      }
    }
    std::vector<index_t> a(n, 0xDEAD), b(n, 0xBEEF);
    const std::size_t ea =
        cpu::simd::decode_delta_portable(d.data(), n, esc.data(), a.data());
    const std::size_t eb =
        cpu::simd::decode_delta_avx2(d.data(), n, esc.data(), b.data());
    EXPECT_EQ(ea, esc.size()) << "n=" << n;
    EXPECT_EQ(ea, eb) << "n=" << n;
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), n * sizeof(index_t)))
        << "n=" << n;

    std::vector<std::uint16_t> s(n);
    for (auto& v : s) v = static_cast<std::uint16_t>(rng.next());
    cpu::simd::decode_short_portable(s.data(), a.data(), n);
    cpu::simd::decode_short_avx2(s.data(), b.data(), n);
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), n * sizeof(index_t)))
        << "short n=" << n;
  }
}

// ---- Property sweep: slices x stream x level x threads vs CSR -----------

// gtest names each case by printing the parameter's raw bytes, and ctest
// takes its test names from there.  Compiler-inserted padding would print
// whatever the stack held at construction and rename the case on every
// discovery, so the three bytes between `cs` and `level` are an explicit,
// always-zero member.
struct SweepParam {
  index_t slices;
  ColStream cs;
  std::uint8_t zero_pad[3] = {};
  Level level;
};
static_assert(sizeof(SweepParam) ==
              sizeof(index_t) + sizeof(ColStream) + 3 + sizeof(Level));

SweepParam sweep(index_t slices, ColStream cs, Level level) {
  return {.slices = slices, .cs = cs, .level = level};
}

class CompressedSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CompressedSweep, MatchesCsrReference) {
  const auto& [slices, cs, zero_pad, level] = GetParam();
  LevelGuard guard(level);
  const auto local = gen::powerlaw(800, 800, 6, 2.2, 0.4, 3);
  const auto wide = gen::random_scattered(500, 70000, 8, 17);
  for (const auto* A : {&local, &wide}) {
    core::FormatConfig fc;
    fc.slices = slices;
    const auto m = build(*A, fc);
    SplitMix64 rng(0xAB);
    std::vector<real_t> x(static_cast<std::size_t>(A->cols));
    for (auto& v : x) v = rng.next_double(-1, 1);
    std::vector<real_t> want(static_cast<std::size_t>(A->rows));
    fmt::Csr::from_coo(*A).spmv(x, want);
    for (unsigned threads : {1u, 4u}) {
      cpu::CpuSpmv eng(m, threads, cs);
      std::vector<real_t> got(want.size());
      eng.spmv(x, got);
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_NEAR(got[i], want[i],
                    1e-9 * std::max(1.0, std::abs(want[i])))
            << "slices=" << slices << " cs=" << core::to_string(cs)
            << " level=" << cpu::simd::to_string(level)
            << " threads=" << threads << " row " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SlicesStreamsLevels, CompressedSweep,
    ::testing::Values(
        sweep(1, ColStream::kRaw, Level::kPortable),
        sweep(1, ColStream::kShort, Level::kPortable),
        sweep(1, ColStream::kDelta, Level::kPortable),
        sweep(1, ColStream::kShort, Level::kAvx2),
        sweep(1, ColStream::kDelta, Level::kAvx2),
        sweep(2, ColStream::kDelta, Level::kAvx2),
        sweep(2, ColStream::kShort, Level::kPortable),
        sweep(4, ColStream::kDelta, Level::kPortable),
        sweep(4, ColStream::kShort, Level::kAvx2),
        sweep(4, ColStream::kAuto, Level::kAvx2)));

TEST(ColStreams, BitwiseIdenticalAcrossStreamsAndBuilds) {
  // At a fixed (thread count, dispatch level) the summation order is
  // defined to be identical for raw/short/delta and for serial vs parallel
  // format build: compare bit patterns.  (Levels are NOT bitwise comparable
  // to each other — AVX2 uses FMA — but each level is deterministic and the
  // *decode* kernels are integer-exact across levels, tested above.)
  const auto A = gen::fem_mesh(900, 24, 3, 0.05, 7);
  const auto m = build(A);
  const auto m_par = std::make_shared<const core::Bccoo>(
      core::Bccoo::build(A, {}, 8));
  SplitMix64 rng(5);
  std::vector<real_t> x(static_cast<std::size_t>(A.cols));
  for (auto& v : x) v = rng.next_double(-1, 1);
  for (Level level : {Level::kPortable, Level::kAvx2}) {
    LevelGuard guard(level);
    for (unsigned threads : {1u, 3u}) {
      std::vector<std::vector<real_t>> ys;
      for (const auto& fmt_ptr : {m, m_par}) {
        for (ColStream cs :
             {ColStream::kRaw, ColStream::kShort, ColStream::kDelta}) {
          cpu::CpuSpmv eng(fmt_ptr, threads, cs);
          EXPECT_EQ(eng.col_stream(), cs);
          std::vector<real_t> y(static_cast<std::size_t>(A.rows));
          eng.spmv(x, y);
          eng.spmv(x, y);  // run twice: idempotent per engine
          ys.push_back(std::move(y));
        }
      }
      for (std::size_t i = 1; i < ys.size(); ++i) {
        ASSERT_EQ(0, std::memcmp(ys[0].data(), ys[i].data(),
                                 ys[0].size() * sizeof(real_t)))
            << "level=" << cpu::simd::to_string(level)
            << " threads=" << threads << " variant " << i;
      }
    }
  }
}

TEST(ColStreams, SpmmMatchesAcrossStreams) {
  const auto A = gen::powerlaw(600, 550, 5, 2.3, 0.4, 21);
  const auto m = build(A);
  const int k = 4;
  SplitMix64 rng(31);
  std::vector<real_t> X(static_cast<std::size_t>(A.cols) * k);
  for (auto& v : X) v = rng.next_double(-1, 1);
  std::vector<std::vector<real_t>> Ys;
  for (ColStream cs :
       {ColStream::kRaw, ColStream::kShort, ColStream::kDelta}) {
    cpu::CpuSpmm eng(m, 2, cs);
    std::vector<real_t> Y(static_cast<std::size_t>(A.rows) * k);
    eng.spmm(X, Y, k);
    Ys.push_back(std::move(Y));
  }
  EXPECT_EQ(Ys[0], Ys[1]);
  EXPECT_EQ(Ys[0], Ys[2]);
}

TEST(ColStreams, ParallelSliceCombineMatchesSerial) {
  // Enough rows to cross the parallel-combine threshold (kParCombineRows):
  // the chunked combine on the pool must be bitwise equal to the serial
  // gather (pure per-row sums, no cross-row dependence).
  core::FormatConfig fc;
  fc.slices = 4;
  const auto A = gen::powerlaw(6000, 5500, 5, 2.2, 0.4, 77);
  const auto m = build(A, fc);
  SplitMix64 rng(3);
  std::vector<real_t> x(static_cast<std::size_t>(A.cols));
  for (auto& v : x) v = rng.next_double(-1, 1);
  std::vector<real_t> want(static_cast<std::size_t>(A.rows));
  fmt::Csr::from_coo(A).spmv(x, want);
  std::vector<std::vector<real_t>> ys;
  for (unsigned threads : {1u, 4u}) {
    cpu::CpuSpmv eng(m, threads);
    std::vector<real_t> y(want.size());
    eng.spmv(x, y);
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(y[i], want[i], 1e-9 * std::max(1.0, std::abs(want[i])))
          << "threads=" << threads << " row " << i;
    }
    ys.push_back(std::move(y));
  }
  // The combine itself is order-insensitive, so serial (threads=1) and
  // pooled (threads=4) runs produce one bit pattern per row... only when
  // the *segmented sum* also decomposed identically, which it does not
  // across thread counts; compare each against its own re-run instead.
  for (unsigned threads : {1u, 4u}) {
    cpu::CpuSpmv eng(m, threads);
    std::vector<real_t> y(want.size());
    eng.spmv(x, y);
    EXPECT_EQ(y, ys[threads == 1u ? 0 : 1]) << "threads=" << threads;
  }
}

TEST(ColStreams, SerialAndParallelBuildIdentical) {
  for (index_t slices : {index_t{1}, index_t{4}}) {
    core::FormatConfig fc;
    fc.slices = slices;
    const auto A = gen::powerlaw(1200, 1100, 7, 2.2, 0.4, 13);
    const auto serial = core::Bccoo::build(A, fc, 1);
    const auto parallel = core::Bccoo::build(A, fc, 8);
    EXPECT_TRUE(serial == parallel) << "slices=" << slices;
  }
}

TEST(ColStreams, ValidateRejectsTamperedStreams) {
  const auto A = gen::powerlaw(400, 400, 5, 2.2, 0.4, 9);
  {
    auto m = core::Bccoo::build(A, {});
    ASSERT_FALSE(m.delta_cols.empty());
    m.delta_cols[0] = static_cast<std::int16_t>(m.delta_cols[0] + 1);
    EXPECT_THROW(m.validate(), FormatInvalid);
  }
  {
    auto m = core::Bccoo::build(A, {});
    ASSERT_FALSE(m.short_cols.empty());
    m.short_cols[2] ^= 1;
    EXPECT_THROW(m.validate(), FormatInvalid);
  }
  {
    auto m = core::Bccoo::build(A, {});
    m.delta_escape_start.back() += 1;  // claims an escape that is not there
    EXPECT_THROW(m.validate(), FormatInvalid);
  }
}

}  // namespace
}  // namespace yaspmv
