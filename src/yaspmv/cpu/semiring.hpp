// Semiring-generalized SpMV over BCCOO (GraphBLAS-style): replaces
// (+, *, 0) with a user semiring, turning the segmented-sum kernel into a
// graph primitive — min-plus gives one Bellman-Ford relaxation step,
// or-and gives BFS frontiers, max-times gives Viterbi-style propagation.
//
// The product runs on a built engine, CpuSpmv::spmv_semiring<S>(x, y), which
// reuses its chunk grid, panels and fix-up scratch across calls.
//
// Restriction: semirings other than plus-times require 1x1 blocks, because
// blocked formats zero-fill partially occupied blocks and a structural
// zero is only neutral under the standard ring (in min-plus a stored 0.0
// would be a real zero-weight edge).  The entry point enforces this, and
// implements only 1x1 blocks in one slice for every semiring.
#pragma once

#include <limits>
#include <span>

#include "yaspmv/cpu/segfix.hpp"
#include "yaspmv/cpu/spmv.hpp"
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

/// CpuSpmv::spmv_semiring: the chunk pass on the pool's owner map plus the
/// speculative fix-up, like spmv (S::add must be associative for the split
/// to be valid; all of the above are).  For the exact-absorbing semirings
/// (min/max/or) the tree combine is not merely deterministic but equal to a
/// serial left fold.  Reads the raw column stream.
template <class S>
void CpuSpmv::spmv_semiring(std::span<const real_t> x, std::span<real_t> y) {
  const core::Bccoo& f = *fmt_;
  require(x.size() == static_cast<std::size_t>(f.cols) &&
              y.size() == static_cast<std::size_t>(f.rows),
          "spmv_semiring: vector size mismatch");
  require(S::is_plus_times ||
              (f.cfg.block_w == 1 && f.cfg.block_h == 1 && f.cfg.slices == 1),
          "spmv_semiring: non-standard semirings require 1x1 blocks / 1 "
          "slice (block zero-fill is only neutral under plus-times)");
  require(f.cfg.block_w == 1 && f.cfg.block_h == 1 && f.cfg.slices == 1,
          "spmv_semiring: implemented for 1x1 blocks / 1 slice");
  // 1x1 blocks in one slice: direct_y_, so zero_rows_ lists the rows no
  // segment covers.
  for (const std::size_t r : zero_rows_) y[r] = S::zero();
  const real_t* vals = f.value_rows[0].data();
  const std::size_t nchunks = chunk_start_.size() - 1;
  parallel_for_unordered(nchunks, threads_, [&](unsigned, std::size_t c) {
    real_t acc = S::zero();
    index_t seg = chunk_first_seg_[c];
    bool first_stop = true;
    for (std::size_t i = chunk_start_[c]; i < chunk_start_[c + 1]; ++i) {
      acc = S::add(
          acc, S::mul(vals[i], x[static_cast<std::size_t>(f.col_index[i])]));
      if (!f.bit_flags.get(i)) {  // row stop
        if (first_stop) {
          firsts_[c] = acc;
          first_stop = false;
        } else {
          y[static_cast<std::size_t>(
              f.seg_to_block_row[static_cast<std::size_t>(seg)])] = acc;
        }
        acc = S::zero();
        ++seg;
      }
    }
    carries_[c] = acc;
  });
  speculative_fixup(
      nchunks, 1, threads_, chunk_first_seg_.data(), firsts_.data(),
      carries_.data(), S::zero(),
      [](real_t* dst, const real_t* src) { *dst = S::add(*dst, *src); },
      [&](std::size_t c, const real_t* inc) {
        y[static_cast<std::size_t>(f.seg_to_block_row[
            static_cast<std::size_t>(chunk_first_seg_[c])])] =
            S::add(*inc, firsts_[c]);
      },
      fix_);
}

}  // namespace yaspmv::cpu
