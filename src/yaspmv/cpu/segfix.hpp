// Carry-chain-free segmented-sum fix-up (Liu & Vinter, "Speculative
// Segmented Sum for Sparse Matrix-Vector Multiplication on Heterogeneous
// Processors", arXiv 1504.06474).
//
// The chunk pass of the native backend (CpuSpmv's chunk kernels, the
// fused SpMM pass and semiring products) computes, per chunk c, the sum of
// its *first* open segment (`firsts[c]`) and the running sum of its last
// open segment (`carries[c]`), speculatively assuming a zero incoming
// carry.  The fix-up needs nothing but the chunk grid: the first-segment
// ordinals and those two panels.  The paper repairs these with a serial adjacent-synchronization
// chain, an O(nchunks) sequential tail after every parallel apply.  This
// header repairs them with a three-pass fix-up whose only serial step is
// O(threads):
//
//   A. per-group fold     groups = min(threads, nchunks) contiguous chunk
//                         ranges; each group left-folds its chunks into a
//                         (has_stop, carry[lanes]) summary.  Parallel,
//                         disjoint writes.
//   B. exclusive scan     a Blelloch up/down sweep over the group summaries
//                         computes each group's incoming carry.  Serial —
//                         but over <= threads elements, and the *pairwise
//                         association* is fixed by npow2 = bit_ceil(groups),
//                         i.e. by the chunk grid alone, never by execution
//                         order.
//   C. per-group apply    each group walks its chunks with its incoming
//                         carry: chunks that close a segment get their
//                         first-segment slot written (out = carry + firsts)
//                         and reset the running carry; open chunks fold
//                         their panel into it.  Parallel, disjoint writes.
//
// Determinism: every FP operation's operand pairing is a pure function of
// (nchunks, lanes, threads) — the group bounds, the tree shape, and the
// in-group fold order do not depend on which worker ran what or when.  So
// pooled execution produces the bits an in-order run would, and a fixed
// (threads, level) is bitwise reproducible run-to-run.
//
// Locality: passes A and C run on the pool's owner map, like the chunk
// pass.  When threads <= cores, group g is the chunk range
// [g·nchunks/threads, (g+1)·nchunks/threads) that worker g has just run,
// so each worker folds and applies panels its own core wrote.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <vector>

#include "yaspmv/util/common.hpp"
#include "yaspmv/util/thread_pool.hpp"

namespace yaspmv::cpu {

/// Scratch for speculative_fixup, held by the engine so the hot apply path
/// allocates nothing after the first call.  `group` holds npow2 lane panels
/// (group summaries, swept in place by the Blelloch scan, then reused as
/// each group's running carry in pass C); `has` the matching stop flags.
struct FixupScratch {
  std::vector<real_t> group;
  std::vector<unsigned char> has;
  std::vector<real_t> tmp;  ///< scan scratch panel (lanes elements)
};

/// Below this many total fix-up elements (nchunks * lanes) passes A and C
/// run inline: the whole repair is a few cache lines and a pool launch
/// costs more than the loop.  Purely a scheduling choice — inline and
/// pooled execution are bitwise identical (disjoint writes, fixed folds).
inline constexpr std::size_t kParallelFixupGrain = 4096;

/// Repairs speculative per-chunk segmented sums.  Generic over the additive
/// monoid so the FP path (SIMD-accelerated lane panels) and the semiring
/// path share one structure:
///
///   first_seg[c]      first open segment of chunk c; chunk c closes a
///                     segment iff first_seg[c + 1] > first_seg[c]
///   firsts, carries   lane panels [nchunks x lanes], chunk-major
///   zero              additive identity (0.0, or Semiring::zero())
///   acc(dst, src)     lane-panel fold: dst[k] = add(dst[k], src[k]) for
///                     all k < lanes (dst and src are lane panels)
///   apply(c, inc)     writes chunk c's first-segment output from the
///                     incoming carry panel `inc` (caller owns the output
///                     layout: strided SpMM panels, semiring y, ...)
template <class AccFn, class ApplyFn>
void speculative_fixup(std::size_t nchunks, std::size_t lanes,
                       unsigned threads, const index_t* first_seg,
                       const real_t* firsts, const real_t* carries,
                       real_t zero, AccFn&& acc, ApplyFn&& apply,
                       FixupScratch& s) {
  (void)firsts;  // applied by the caller's `apply`; kept for symmetry
  if (nchunks == 0) return;
  const std::size_t ngroups =
      std::min<std::size_t>(threads == 0 ? 1 : threads, nchunks);
  const std::size_t npow2 = std::bit_ceil(ngroups);
  s.group.assign(npow2 * lanes, zero);
  s.has.assign(npow2, 0);
  const auto group_lo = [nchunks, ngroups](std::size_t g) {
    return g * nchunks / ngroups;
  };
  const bool parallel =
      ngroups > 1 && nchunks * lanes >= kParallelFixupGrain;
  const auto dispatch = [&](auto&& body) {
    if (!parallel) {
      for (std::size_t g = 0; g < ngroups; ++g) body(0u, g);
    } else {
      parallel_for_unordered(ngroups, threads, body);
    }
  };

  // Pass A: fold each group's chunks into a summary panel.
  dispatch([&](unsigned, std::size_t g) {
    real_t* gc = s.group.data() + g * lanes;  // pre-filled with `zero`
    bool has = false;
    for (std::size_t c = group_lo(g); c < group_lo(g + 1); ++c) {
      if (first_seg[c + 1] > first_seg[c]) {
        std::copy(carries + c * lanes, carries + (c + 1) * lanes, gc);
        has = true;
      } else {
        acc(gc, carries + c * lanes);
      }
    }
    s.has[g] = has ? 1 : 0;
  });

  // Pass B: in-place exclusive Blelloch scan over the npow2 summaries with
  // combine(A, B) = B.has ? B : (A.has, add(A.carry, B.carry)) — "state
  // after running A then B".  Padding slots hold the identity (no stop,
  // zero carry), which is absorbed exactly by min/or semirings and matches
  // the FP path's zero-initialized running carry.
  s.tmp.resize(lanes);
  std::vector<real_t>& tmp_panel = s.tmp;
  for (std::size_t d = 1; d < npow2; d *= 2) {  // up-sweep
    for (std::size_t i = 2 * d - 1; i < npow2; i += 2 * d) {
      // s.group[i] = combine(s.group[i - d], s.group[i])
      if (s.has[i]) continue;
      real_t* node = s.group.data() + i * lanes;
      const real_t* left = s.group.data() + (i - d) * lanes;
      // Preserve the A-then-B operand order: fold node onto a copy of left.
      std::copy(left, left + lanes, tmp_panel.data());
      acc(tmp_panel.data(), node);
      std::copy(tmp_panel.begin(), tmp_panel.end(), node);
      s.has[i] = s.has[i - d];
    }
  }
  std::fill(s.group.begin() + (npow2 - 1) * lanes, s.group.end(), zero);
  s.has[npow2 - 1] = 0;
  for (std::size_t d = npow2 / 2; d >= 1; d /= 2) {  // down-sweep
    for (std::size_t i = 2 * d - 1; i < npow2; i += 2 * d) {
      real_t* left = s.group.data() + (i - d) * lanes;
      real_t* node = s.group.data() + i * lanes;
      // t = left-subtree sum; left = parent prefix;
      // node = combine(parent prefix, t)
      std::copy(left, left + lanes, tmp_panel.data());
      const unsigned char t_has = s.has[i - d];
      std::copy(node, node + lanes, left);
      s.has[i - d] = s.has[i];
      if (t_has) {
        std::copy(tmp_panel.begin(), tmp_panel.end(), node);
        s.has[i] = 1;
      } else {
        // node already holds the parent prefix P; fold t in: add(P, t).
        acc(node, tmp_panel.data());
      }
    }
  }

  // Pass C: walk each group with its incoming carry (now sitting in its
  // leaf slot), writing first-segment outputs and updating the running
  // panel in place.
  dispatch([&](unsigned, std::size_t g) {
    real_t* run = s.group.data() + g * lanes;
    for (std::size_t c = group_lo(g); c < group_lo(g + 1); ++c) {
      if (first_seg[c + 1] > first_seg[c]) {
        apply(c, run);
        std::copy(carries + c * lanes, carries + (c + 1) * lanes, run);
      } else {
        acc(run, carries + c * lanes);
      }
    }
  });
}

}  // namespace yaspmv::cpu
