// Specialization-grid tests (cpu/kernels_grid.hpp): every grid
// instantiation must be BITWISE identical to the generic kernel at a fixed
// (threads, simd level) — the grid extends the determinism contract, it
// must never fork it.  Sweeps all 36 chunk instantiations and the 3
// fused-SpMM instantiations across threads {1, 4, 16} x dispatch levels
// {portable, avx2, avx512 when supported} x requested streams x slices,
// checks the out-of-grid fallback (bh = 3, kGeneric pin) stays on the
// generic kernel, and pins dispatch determinism:
// identical engines resolve identical kernels and produce identical bits
// run to run.
#include "yaspmv/cpu/kernels_grid.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "yaspmv/cpu/spmv.hpp"
#include "yaspmv/formats/csr.hpp"
#include "yaspmv/gen/suite.hpp"
#include "yaspmv/util/rng.hpp"

namespace yaspmv {
namespace {

using cpu::simd::Level;
using cpu::grid::KernelDispatch;

/// RAII guard: force a dispatch level for one test, restore after.
struct LevelGuard {
  Level saved;
  explicit LevelGuard(Level l) : saved(cpu::simd::active()) {
    cpu::simd::set_level(l);
  }
  ~LevelGuard() { cpu::simd::set_level(saved); }
};

std::vector<real_t> make_x(index_t cols, std::uint64_t seed = 0xC0FFEE) {
  SplitMix64 rng(seed);
  std::vector<real_t> x(static_cast<std::size_t>(cols));
  for (auto& v : x) v = rng.next_double(-1, 1);
  return x;
}

bool bitwise_eq(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0;
}

/// Format cache across the sweep: one Bccoo per (bw, bh, slices) serves
/// every stream/thread/level combination.
class FormatPool {
 public:
  explicit FormatPool(fmt::Coo a) : a_(std::move(a)) {}
  const fmt::Coo& coo() const { return a_; }
  std::shared_ptr<const core::Bccoo> get(index_t bw, index_t bh,
                                         index_t slices) {
    auto& slot = cache_[{bw, bh, slices}];
    if (!slot) {
      core::FormatConfig fc;
      fc.block_w = bw;
      fc.block_h = bh;
      fc.slices = slices;
      slot = std::make_shared<const core::Bccoo>(core::Bccoo::build(a_, fc));
    }
    return slot;
  }

 private:
  fmt::Coo a_;
  std::map<std::tuple<index_t, index_t, index_t>,
           std::shared_ptr<const core::Bccoo>>
      cache_;
};

/// One parity point: specialized (kAuto) vs pinned-generic engines on the
/// same format must produce bitwise-identical y, and the auto engine must
/// report the kernel id the pure dispatch function predicts.
void expect_parity(const std::shared_ptr<const core::Bccoo>& m,
                   const std::vector<real_t>& x, core::ColStream cs,
                   unsigned threads, bool expect_grid,
                   const std::string& what) {
  cpu::CpuSpmv spec(m, threads, cs);
  cpu::CpuSpmv gen(m, threads, cs, KernelDispatch::kGeneric);
  ASSERT_STREQ(gen.kernel_id(), "generic") << what;
  ASSERT_FALSE(gen.specialized()) << what;
  ASSERT_STREQ(spec.kernel_id(),
               cpu::grid::dispatch_kernel_id(
                   static_cast<int>(m->cfg.block_w),
                   static_cast<int>(m->cfg.block_h), spec.col_stream()))
      << what;
  if (expect_grid) {
    ASSERT_TRUE(spec.specialized())
        << what << ": expected a grid kernel, got " << spec.kernel_id();
    ASSERT_EQ(std::string(spec.kernel_id()).rfind("grid/", 0), 0u) << what;
  } else {
    ASSERT_STREQ(spec.kernel_id(), "generic") << what;
  }
  const auto rows = static_cast<std::size_t>(m->rows);
  std::vector<real_t> ys(rows, -1.0), yg(rows, -2.0);
  spec.spmv(x, ys);
  gen.spmv(x, yg);
  ASSERT_TRUE(bitwise_eq(ys, yg)) << what << ": specialized and generic "
                                  << "kernels diverged bitwise";
}

class GridLevels : public ::testing::TestWithParam<Level> {
 protected:
  static bool level_supported(Level l) {
    if (l == Level::kAvx2) return cpu::simd::cpu_has_avx2();
    if (l == Level::kAvx512) return cpu::simd::cpu_has_avx512();
    return true;
  }
};

// The full grid sweep: every (bw, bh) instantiation x requested stream x
// slices x threads, under the parameterized dispatch level, on a
// blocked-friendly mesh whose odd dimension (509) forces the padded-tail
// x-redirect for every bw > 1.
TEST_P(GridLevels, EveryInstantiationMatchesGenericBitwise) {
  if (!level_supported(GetParam())) {
    GTEST_SKIP() << "dispatch level unsupported on this host";
  }
  LevelGuard guard(GetParam());
  FormatPool pool(gen::fem_mesh(509, 24, 3, 0.05, 4));
  const auto x = make_x(pool.coo().cols);
  const index_t widths[] = {1, 2, 4, 8};
  const index_t heights[] = {1, 2, 4};
  const core::ColStream streams[] = {core::ColStream::kRaw,
                                     core::ColStream::kShort,
                                     core::ColStream::kDelta};
  const unsigned thread_counts[] = {1, 4, 16};
  const index_t slice_counts[] = {1, 3};
  for (index_t bw : widths) {
    for (index_t bh : heights) {
      for (index_t slices : slice_counts) {
        const auto m = pool.get(bw, bh, slices);
        for (core::ColStream cs : streams) {
          for (unsigned threads : thread_counts) {
            expect_parity(m, x, cs, threads, /*expect_grid=*/true,
                          "fem " + std::to_string(bw) + "x" +
                              std::to_string(bh) + "/" + core::to_string(cs) +
                              " slices=" + std::to_string(slices) +
                              " t=" + std::to_string(threads));
          }
        }
      }
    }
  }
}

// The scalar kernel's short-segment heuristic picks between two
// bit-different loops; a power-law matrix drives chunks into the
// single-pass branch and a scattered one covers empty rows — both must
// stay bitwise identical under specialization.
TEST_P(GridLevels, ScalarHeuristicAndScatteredRowsMatchBitwise) {
  if (!level_supported(GetParam())) {
    GTEST_SKIP() << "dispatch level unsupported on this host";
  }
  LevelGuard guard(GetParam());
  const fmt::Coo mats[] = {gen::powerlaw(600, 600, 4, 2.2, 0.4, 2),
                           gen::random_scattered(509, 509, 4, 5)};
  const char* names[] = {"powerlaw", "scattered"};
  for (int i = 0; i < 2; ++i) {
    FormatPool pool(mats[i]);
    const auto x = make_x(pool.coo().cols, 0xFEED + static_cast<unsigned>(i));
    for (core::ColStream cs :
         {core::ColStream::kRaw, core::ColStream::kShort,
          core::ColStream::kDelta}) {
      for (unsigned threads : {1u, 4u, 16u}) {
        expect_parity(pool.get(1, 1, 1), x, cs, threads,
                      /*expect_grid=*/true,
                      std::string(names[i]) + " 1x1/" + core::to_string(cs) +
                          " t=" + std::to_string(threads));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, GridLevels,
                         ::testing::Values(Level::kPortable, Level::kAvx2,
                                           Level::kAvx512));

// Out-of-grid block dims (the tuner's bh = 3 menu entries) must fall back
// to the generic kernel — and still be correct against the CSR reference.
TEST(KernelGrid, OutOfGridConfigsFallBackToGeneric) {
  FormatPool pool(gen::fem_mesh(420, 20, 3, 0.05, 7));
  const auto x = make_x(pool.coo().cols);
  std::vector<real_t> want(static_cast<std::size_t>(pool.coo().rows));
  fmt::Csr::from_coo(pool.coo()).spmv(x, want);
  const std::pair<index_t, index_t> dims[] = {{1, 3}, {2, 3}, {3, 1}, {4, 3}};
  for (const auto& [bw, bh] : dims) {
    const auto m = pool.get(bw, bh, 1);
    cpu::CpuSpmv eng(m, 4);
    ASSERT_STREQ(eng.kernel_id(), "generic")
        << bw << "x" << bh << " must be out of grid";
    ASSERT_FALSE(eng.specialized());
    std::vector<real_t> y(want.size());
    eng.spmv(x, y);
    for (std::size_t r = 0; r < want.size(); ++r) {
      ASSERT_NEAR(y[r], want[r], 1e-9 * std::max(1.0, std::abs(want[r])))
          << bw << "x" << bh << " row " << r;
    }
  }
}

// An explicit kGeneric pin keeps the generic kernel even for in-grid
// configs.
TEST(KernelGrid, GenericPinStaysGeneric) {
  FormatPool pool(gen::fem_mesh(300, 20, 3, 0.05, 9));
  const auto m = pool.get(2, 2, 1);
  cpu::CpuSpmv pinned(m, 4, core::ColStream::kAuto, KernelDispatch::kGeneric);
  ASSERT_STREQ(pinned.kernel_id(), "generic");
  ASSERT_FALSE(pinned.specialized());
  cpu::CpuSpmv autod(m, 4);
  ASSERT_TRUE(autod.specialized());
}

// Dispatch is deterministic: two identical engines resolve the same kernel
// id and produce bitwise-identical results across repeated applies.
TEST(KernelGrid, DispatchIsDeterministic) {
  FormatPool pool(gen::powerlaw(500, 500, 5, 2.1, 0.3, 3));
  const auto m = pool.get(2, 2, 1);
  const auto x = make_x(pool.coo().cols, 0xD15);
  cpu::CpuSpmv e1(m, 4), e2(m, 4);
  ASSERT_STREQ(e1.kernel_id(), e2.kernel_id());
  const auto rows = static_cast<std::size_t>(m->rows);
  std::vector<real_t> y1(rows), y2(rows), y1b(rows);
  e1.spmv(x, y1);
  e2.spmv(x, y2);
  e1.spmv(x, y1b);
  ASSERT_TRUE(bitwise_eq(y1, y2));
  ASSERT_TRUE(bitwise_eq(y1, y1b));
}

// The fused SpMM panel pass reuses the grid (stream burned in): specialized
// vs pinned-generic panels must match bitwise for every stream, and the
// engine must report the spmm grid id.
TEST(KernelGrid, FusedSpmmMatchesGenericBitwise) {
  FormatPool pool(gen::powerlaw(400, 400, 5, 2.2, 0.4, 6));
  const auto m = pool.get(1, 1, 1);
  const index_t k = 5;
  const auto colsz = static_cast<std::size_t>(m->cols);
  const auto rowsz = static_cast<std::size_t>(m->rows);
  const auto X = make_x(static_cast<index_t>(colsz * k), 0xAB);
  for (core::ColStream cs : {core::ColStream::kRaw, core::ColStream::kShort,
                             core::ColStream::kDelta}) {
    for (unsigned threads : {1u, 4u, 16u}) {
      cpu::CpuSpmm spec(m, threads, cs);
      cpu::CpuSpmm gen(m, threads, cs, KernelDispatch::kGeneric);
      ASSERT_STREQ(gen.kernel_id(), "generic");
      ASSERT_EQ(std::string(spec.kernel_id()).rfind("grid/spmm/", 0), 0u)
          << spec.kernel_id();
      std::vector<real_t> Ys(rowsz * k, -1.0), Yg(rowsz * k, -2.0);
      spec.spmm(X, Ys, k);
      gen.spmm(X, Yg, k);
      ASSERT_TRUE(bitwise_eq(Ys, Yg))
          << "spmm " << core::to_string(cs) << " t=" << threads;
    }
  }
}

// Blocked formats route SpMM through the per-vector engine; the reported
// kernel id must be the per-vector dispatch, and results stay bitwise
// stable between auto and pinned-generic runs.
TEST(KernelGrid, BlockedSpmmReportsPerVectorKernel) {
  FormatPool pool(gen::fem_mesh(300, 20, 3, 0.05, 11));
  const auto m = pool.get(2, 2, 1);
  cpu::CpuSpmm spec(m, 2);
  ASSERT_EQ(std::string(spec.kernel_id()).rfind("grid/w2h2/", 0), 0u)
      << spec.kernel_id();
  const index_t k = 3;
  const auto X = make_x(static_cast<index_t>(m->cols * k), 0xBEEF);
  std::vector<real_t> Ys(static_cast<std::size_t>(m->rows) * k),
      Yg(Ys.size());
  cpu::CpuSpmm gen(m, 2, core::ColStream::kAuto, KernelDispatch::kGeneric);
  spec.spmm(X, Ys, k);
  gen.spmm(X, Yg, k);
  ASSERT_TRUE(bitwise_eq(Ys, Yg));
}

// Error-message satellite: dims-check failures must name the config so
// tuner skip-and-record logs are actionable.
TEST(KernelGrid, DimsErrorsNameTheConfig) {
  FormatPool pool(gen::fem_mesh(300, 20, 3, 0.05, 13));
  const auto m = pool.get(2, 4, 1);
  cpu::CpuSpmv eng(m, 1, core::ColStream::kRaw);
  std::vector<real_t> x(3), y(static_cast<std::size_t>(m->rows));
  try {
    eng.spmv(x, y);
    FAIL() << "undersized x must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("2x4/raw"), std::string::npos) << msg;
    EXPECT_NE(msg.find("x[3]"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace yaspmv
