// Semiring SpMV tests: plus-times equals the standard kernel, min-plus
// performs shortest-path relaxation, or-and performs BFS, and the chunked
// parallel carry logic holds for every semiring.
#include "yaspmv/cpu/semiring.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "yaspmv/formats/csr.hpp"
#include "yaspmv/gen/suite.hpp"
#include "yaspmv/util/rng.hpp"

namespace yaspmv {
namespace {

std::shared_ptr<const core::Bccoo> scalar_bccoo(const fmt::Coo& A) {
  return std::make_shared<const core::Bccoo>(core::Bccoo::build(A, {}));
}

TEST(Semiring, PlusTimesMatchesStandardSpmv) {
  const auto A = gen::random_scattered(400, 400, 5, 1);
  const auto m = scalar_bccoo(A);
  SplitMix64 rng(2);
  std::vector<real_t> x(400), want(400), got(400);
  for (auto& v : x) v = rng.next_double(-1, 1);
  fmt::Csr::from_coo(A).spmv(x, want);
  for (unsigned t : {1u, 4u}) {
    cpu::CpuSpmv(m, t).spmv_semiring<cpu::PlusTimes>(x, got);
    for (std::size_t i = 0; i < 400; ++i) {
      ASSERT_NEAR(got[i], want[i], 1e-9 * std::max(1.0, std::abs(want[i])))
          << "threads=" << t;
    }
  }
}

TEST(Semiring, MinPlusSingleRelaxation) {
  // Path graph 0 -> 1 -> 2 with weights 5, 7; relaxing from d=[0,inf,inf]
  // over A^T (edge u->v stored at (v,u)) must set d'[1] = 5 only.
  const auto At = fmt::Coo::from_triplets(3, 3, {1, 2}, {0, 1}, {5.0, 7.0});
  const auto m = scalar_bccoo(At);
  const real_t inf = std::numeric_limits<real_t>::infinity();
  std::vector<real_t> d = {0.0, inf, inf}, nd(3);
  cpu::CpuSpmv eng(m, 1);
  eng.spmv_semiring<cpu::MinPlus>(d, nd);
  EXPECT_EQ(nd[0], inf);  // nothing points at 0
  EXPECT_EQ(nd[1], 5.0);
  EXPECT_EQ(nd[2], inf);  // d[1] was inf
  // Second relaxation reaches node 2.
  for (int i = 0; i < 3; ++i) d[static_cast<std::size_t>(i)] =
      std::min(d[static_cast<std::size_t>(i)], nd[static_cast<std::size_t>(i)]);
  eng.spmv_semiring<cpu::MinPlus>(d, nd);
  EXPECT_EQ(nd[2], 12.0);
}

TEST(Semiring, MinPlusBellmanFordMatchesDijkstraReference) {
  // Random positive-weight digraph; iterate relaxations to a fixpoint and
  // compare against a serial Bellman-Ford on the edge list.
  SplitMix64 rng(3);
  const index_t n = 200;
  std::vector<index_t> src, dst;
  std::vector<real_t> w;
  for (index_t u = 0; u < n; ++u) {
    for (int k = 0; k < 4; ++k) {
      const auto v = static_cast<index_t>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      if (v == u) continue;
      src.push_back(u);
      dst.push_back(v);
      w.push_back(rng.next_double(0.1, 2.0));
    }
  }
  // Build A^T first; from_triplets sums duplicate edges, so the reference
  // Bellman-Ford must run on the *deduplicated* edge list of the matrix.
  const auto At = fmt::Coo::from_triplets(
      n, n, std::vector<index_t>(dst), std::vector<index_t>(src),
      std::vector<real_t>(w));
  const real_t inf = std::numeric_limits<real_t>::infinity();
  std::vector<real_t> ref(static_cast<std::size_t>(n), inf);
  ref[0] = 0.0;
  for (index_t it = 0; it < n; ++it) {
    bool changed = false;
    for (std::size_t e = 0; e < At.nnz(); ++e) {
      // Edge src=col -> dst=row with weight val.
      const double cand = ref[static_cast<std::size_t>(At.col_idx[e])] +
                          At.vals[e];
      if (cand < ref[static_cast<std::size_t>(At.row_idx[e])]) {
        ref[static_cast<std::size_t>(At.row_idx[e])] = cand;
        changed = true;
      }
    }
    if (!changed) break;
  }
  const auto m = scalar_bccoo(At);
  std::vector<real_t> d(static_cast<std::size_t>(n), inf),
      nd(static_cast<std::size_t>(n));
  d[0] = 0.0;
  cpu::CpuSpmv eng(m, 3);
  for (index_t it = 0; it < n; ++it) {
    eng.spmv_semiring<cpu::MinPlus>(d, nd);
    bool changed = false;
    for (std::size_t i = 0; i < d.size(); ++i) {
      if (nd[i] < d[i]) {
        d[i] = nd[i];
        changed = true;
      }
    }
    if (!changed) break;
  }
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (std::isinf(ref[i])) {
      EXPECT_TRUE(std::isinf(d[i])) << i;
    } else {
      ASSERT_NEAR(d[i], ref[i], 1e-9) << i;
    }
  }
}

TEST(Semiring, OrAndBfsFrontier) {
  // 0 -> 1 -> 2, 0 -> 3.  Reachability in one hop from {0}.
  const auto At = fmt::Coo::from_triplets(4, 4, {1, 2, 3}, {0, 1, 0},
                                          {1.0, 1.0, 1.0});
  const auto m = scalar_bccoo(At);
  std::vector<real_t> f = {1, 0, 0, 0}, nf(4);
  cpu::CpuSpmv(m, 1).spmv_semiring<cpu::OrAnd>(f, nf);
  EXPECT_EQ(nf, (std::vector<real_t>{0, 1, 0, 1}));
}

TEST(Semiring, MaxTimesPropagatesProbabilities) {
  const auto At = fmt::Coo::from_triplets(2, 2, {1, 1}, {0, 1}, {0.5, 0.9});
  const auto m = scalar_bccoo(At);
  std::vector<real_t> p = {0.8, 0.3}, np(2);
  cpu::CpuSpmv(m, 1).spmv_semiring<cpu::MaxTimes>(p, np);
  EXPECT_DOUBLE_EQ(np[1], std::max(0.8 * 0.5, 0.3 * 0.9));
}

TEST(Semiring, LongSegmentAcrossChunks) {
  // One node with in-degree 3000: the min over its edges spans chunks.
  std::vector<index_t> ri(3000, 0), ci(3000);
  std::vector<real_t> w(3000);
  SplitMix64 rng(4);
  real_t best = std::numeric_limits<real_t>::infinity();
  for (index_t i = 0; i < 3000; ++i) {
    ci[static_cast<std::size_t>(i)] = i;
    w[static_cast<std::size_t>(i)] = rng.next_double(1.0, 9.0);
    best = std::min(best, w[static_cast<std::size_t>(i)] + 1.0);
  }
  const auto At = fmt::Coo::from_triplets(1, 3000, std::move(ri),
                                          std::move(ci), std::move(w));
  const auto m = scalar_bccoo(At);
  std::vector<real_t> d(3000, 1.0), nd(1);
  cpu::CpuSpmv(m, 8).spmv_semiring<cpu::MinPlus>(d, nd);
  EXPECT_DOUBLE_EQ(nd[0], best);
}

TEST(Semiring, RejectsBlockedFormatForExoticSemirings) {
  const auto A = gen::stencil2d(5, 5, true, 5);
  core::FormatConfig fc;
  fc.block_w = 2;
  fc.block_h = 2;
  cpu::CpuSpmv eng(std::make_shared<const core::Bccoo>(core::Bccoo::build(A, fc)),
                   1);
  std::vector<real_t> x(25, 1.0), y(25);
  EXPECT_THROW(eng.spmv_semiring<cpu::MinPlus>(x, y), std::invalid_argument);
}

}  // namespace
}  // namespace yaspmv
