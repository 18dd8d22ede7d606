// Semiring-generalized SpMV over BCCOO (GraphBLAS-style): replaces
// (+, *, 0) with a user semiring, turning the segmented-sum kernel into a
// graph primitive — min-plus gives one Bellman-Ford relaxation step,
// or-and gives BFS frontiers, max-times gives Viterbi-style propagation.
//
// Restriction: semirings other than plus-times require 1x1 blocks, because
// blocked formats zero-fill partially occupied blocks and a structural
// zero is only neutral under the standard ring (in min-plus a stored 0.0
// would be a real zero-weight edge).  The entry point enforces this.
#pragma once

#include <limits>
#include <span>

#include "yaspmv/core/bccoo.hpp"
#include "yaspmv/cpu/segfix.hpp"
#include "yaspmv/util/thread_pool.hpp"

namespace yaspmv::cpu {

/// (min, +) semiring: shortest-path relaxation.
struct MinPlus {
  static constexpr bool is_plus_times = false;
  static real_t zero() { return std::numeric_limits<real_t>::infinity(); }
  static real_t add(real_t a, real_t b) { return a < b ? a : b; }
  static real_t mul(real_t a, real_t b) { return a + b; }
};

/// (max, *) semiring: most-probable-path propagation.
struct MaxTimes {
  static constexpr bool is_plus_times = false;
  static real_t zero() { return 0.0; }
  static real_t add(real_t a, real_t b) { return a > b ? a : b; }
  static real_t mul(real_t a, real_t b) { return a * b; }
};

/// (or, and) over {0,1}: BFS reachability.
struct OrAnd {
  static constexpr bool is_plus_times = false;
  static real_t zero() { return 0.0; }
  static real_t add(real_t a, real_t b) { return (a != 0.0 || b != 0.0) ? 1.0 : 0.0; }
  static real_t mul(real_t a, real_t b) { return (a != 0.0 && b != 0.0) ? 1.0 : 0.0; }
};

/// The standard ring (for testing the generalized path against spmv).
struct PlusTimes {
  static constexpr bool is_plus_times = true;
  static real_t zero() { return 0.0; }
  static real_t add(real_t a, real_t b) { return a + b; }
  static real_t mul(real_t a, real_t b) { return a * b; }
};

/// y = A (x) under the semiring, parallel over block chunks with the same
/// carry-resolution structure as CpuSpmv (the semiring `add` must be
/// associative for the split to be valid; all of the above are): unordered
/// chunk claims plus the speculative fix-up of segfix.hpp.  For the
/// exact-absorbing semirings (min/max/or) the tree combine is not merely
/// deterministic but equal to a serial left fold — add(zero(), v) == v
/// holds exactly.
template <class Semiring>
void spmv_semiring(const core::Bccoo& f, std::span<const real_t> x,
                   std::span<real_t> y, unsigned threads = 1) {
  require(x.size() == static_cast<std::size_t>(f.cols) &&
              y.size() == static_cast<std::size_t>(f.rows),
          "spmv_semiring: vector size mismatch");
  require(Semiring::is_plus_times ||
              (f.cfg.block_w == 1 && f.cfg.block_h == 1 && f.cfg.slices == 1),
          "spmv_semiring: non-standard semirings require 1x1 blocks / 1 "
          "slice (block zero-fill is only neutral under plus-times)");
  require(f.cfg.block_w == 1 && f.cfg.block_h == 1,
          "spmv_semiring: implemented for 1x1 blocks");

  std::fill(y.begin(), y.end(), Semiring::zero());
  const std::size_t nb = f.num_blocks;
  if (nb == 0) return;
  const std::size_t nchunks =
      std::max<std::size_t>(1, std::min<std::size_t>(threads * 4, nb));

  std::vector<real_t> firsts(nchunks, Semiring::zero());
  std::vector<real_t> carries(nchunks, Semiring::zero());
  std::vector<index_t> first_seg(nchunks + 1);
  std::vector<std::size_t> starts(nchunks + 1);
  for (std::size_t c = 0; c <= nchunks; ++c) {
    starts[c] = c * nb / nchunks;
    first_seg[c] =
        static_cast<index_t>(f.bit_flags.count_zeros_before(starts[c]));
  }

  parallel_for_unordered(nchunks, threads, [&](unsigned, std::size_t c) {
    real_t acc = Semiring::zero();
    index_t seg = first_seg[c];
    bool first_stop = true;
    for (std::size_t i = starts[c]; i < starts[c + 1]; ++i) {
      acc = Semiring::add(
          acc, Semiring::mul(f.value_rows[0][i],
                             x[static_cast<std::size_t>(f.col_index[i])]));
      if (!f.bit_flags.get(i)) {
        if (first_stop) {
          firsts[c] = acc;
          first_stop = false;
        } else {
          y[static_cast<std::size_t>(
              f.seg_to_block_row[static_cast<std::size_t>(seg)])] = acc;
        }
        acc = Semiring::zero();
        ++seg;
      }
    }
    carries[c] = acc;
  });

  FixupScratch scratch;
  speculative_fixup(
      nchunks, 1, threads, first_seg.data(), firsts.data(), carries.data(),
      Semiring::zero(),
      [](real_t* dst, const real_t* src) { *dst = Semiring::add(*dst, *src); },
      [&](std::size_t c, const real_t* inc) {
        const auto row = static_cast<std::size_t>(
            f.seg_to_block_row[static_cast<std::size_t>(first_seg[c])]);
        y[row] = Semiring::add(y[row], Semiring::add(*inc, firsts[c]));
      },
      scratch);
}

}  // namespace yaspmv::cpu
