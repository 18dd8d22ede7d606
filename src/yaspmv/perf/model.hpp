// Analytic performance model: KernelStats + DeviceSpec -> modeled time.
//
// SpMV is bandwidth-bound on both evaluation GPUs (machine balance ~16
// flop/byte vs SpMV's ~0.2 flop/byte), so the first-order term is DRAM
// traffic over achievable bandwidth.  Warp divergence (recorded by the
// row-parallel baselines) throttles the rate at which warps can keep the
// memory system fed, so it multiplies the memory term.  Kernel launches,
// global atomics and adjacent-sync spins add fixed overheads.
//
// The model is calibrated by construction, not fitted: all inputs are
// counted by the simulator from the actual access streams, and the device
// constants come from public datasheets.  EXPERIMENTS.md compares the
// resulting figure shapes against the paper.
#pragma once

#include <cstddef>

#include "yaspmv/sim/counters.hpp"
#include "yaspmv/sim/device.hpp"

namespace yaspmv::perf {

struct TimeBreakdown {
  double mem_s = 0;      ///< DRAM traffic term (divergence-scaled)
  double compute_s = 0;  ///< arithmetic term
  double launch_s = 0;   ///< kernel-launch overhead
  double sync_s = 0;     ///< atomics + adjacent-sync spin overhead
  double total_s = 0;
};

/// Models the execution time of the launches summarized in `st`.
TimeBreakdown model_time(const sim::DeviceSpec& dev,
                         const sim::KernelStats& st);

/// SpMV throughput in GFLOPS using the standard 2*nnz flop count (matching
/// the paper's reporting) over the modeled time.
double spmv_gflops(const sim::DeviceSpec& dev, const sim::KernelStats& st,
                   std::size_t nnz);

/// Thread-scaling variant of model_time: the memory and compute terms
/// divide across `threads` (the streams partition the non-zeros), while
/// the per-launch overhead *grows* with the requested thread count — each
/// launch wakes (threads - 1) extra workers and the speculative fix-up
/// touches a 4*threads-slot chunk grid.  `threads <= 1` returns exactly
/// model_time, so single-thread rankings are unchanged.  Candidates with
/// more launches or more bytes are penalized differently at high thread
/// counts, which is the effect `tune --rank-threads` exploits.
TimeBreakdown model_time_threads(const sim::DeviceSpec& dev,
                                 const sim::KernelStats& st,
                                 unsigned threads);

/// spmv_gflops over model_time_threads.
double spmv_gflops_threads(const sim::DeviceSpec& dev,
                           const sim::KernelStats& st, std::size_t nnz,
                           unsigned threads);

/// Dispatch-aware variant: model_time_threads plus a per-block
/// branch/indirect-call overhead term charged only when `specialized` is
/// false (the generic kernel's runtime dims, indirect dense dot, and
/// column-stream switch; see DeviceSpec::block_branch_ns).  `blocks` is the
/// format's block count — KernelStats does not carry it, so the tuner
/// passes it explicitly.  The extra work partitions across threads like the
/// compute term.  With `specialized == true` this is exactly
/// model_time_threads, so grid-dispatched rankings are unchanged.
TimeBreakdown model_time_dispatch(const sim::DeviceSpec& dev,
                                  const sim::KernelStats& st,
                                  unsigned threads, std::size_t blocks,
                                  bool specialized);

/// spmv_gflops over model_time_dispatch.
double spmv_gflops_dispatch(const sim::DeviceSpec& dev,
                            const sim::KernelStats& st, std::size_t nnz,
                            unsigned threads, std::size_t blocks,
                            bool specialized);

/// Harmonic mean of a positive sequence (the paper's average throughput).
double harmonic_mean(const double* v, std::size_t n);

/// Modeled-vs-measured bytes comparison for the compressed column streams.
///
/// The footprint model charges Table 3 *device* widths (4-byte values),
/// while the native backend measures *host* widths (8-byte doubles), so the
/// totals are not directly comparable — but the column-stream bytes are
/// (2-byte deltas / shorts and 4-byte escapes on both sides).  `ratio` is
/// measured/modeled over the full arrays; consumers should interpret a
/// ratio near 2 on the value-dominated formats as the double/float width
/// gap, not model error (EXPERIMENTS.md documents this).
struct BytesComparison {
  std::size_t modeled = 0;   ///< footprint model (device widths)
  std::size_t measured = 0;  ///< exact host bytes per native SpMV
  double ratio = 0;          ///< measured / modeled (0 when modeled == 0)
};

inline BytesComparison compare_bytes(std::size_t modeled,
                                     std::size_t measured) {
  BytesComparison c;
  c.modeled = modeled;
  c.measured = measured;
  c.ratio = modeled == 0 ? 0.0
                         : static_cast<double>(measured) /
                               static_cast<double>(modeled);
  return c;
}

}  // namespace yaspmv::perf
