// Device descriptions for the GPU execution-model simulator.
//
// The paper evaluates on an NVIDIA GTX680 (Kepler GK104) and a GTX480
// (Fermi GF100).  We reproduce their relevant architectural parameters from
// the public datasheets; the performance model (yaspmv/perf) combines these
// with the memory/compute counters recorded by the simulator to produce
// modeled execution times.  Absolute GFLOPS will not match the authors'
// testbed, but the parameters below preserve the ratios that drive the
// paper's figures: bandwidth-to-compute ratio, shared-memory capacity,
// texture-cache capacity, and kernel-launch overhead.
#pragma once

#include <cstddef>
#include <string>

namespace yaspmv::sim {

struct DeviceSpec {
  std::string name;

  // Execution resources.
  int num_sm = 8;           ///< streaming multiprocessors
  int warp_size = 32;       ///< SIMD width; threads in a warp run in lockstep
  int max_workgroup_size = 1024;

  // Memory system.
  double mem_bandwidth_gbps = 192.0;  ///< peak DRAM bandwidth (GB/s)
  double mem_efficiency = 0.80;       ///< achievable fraction for streaming
  std::size_t shared_mem_per_workgroup = 48 * 1024;  ///< bytes
  std::size_t tex_cache_per_sm = 48 * 1024;  ///< read-only/texture cache bytes
  std::size_t cache_line_bytes = 32;  ///< texture-cache line granularity

  // Compute throughput.
  double peak_gflops_sp = 3090.0;  ///< single-precision peak

  // Overheads.
  double kernel_launch_us = 5.0;   ///< per kernel invocation
  // Global atomics and adjacent-sync spins largely overlap with other
  // resident warps; the costs below are the *exposed* per-op latencies
  // (calibrated so one logical-id atomic per workgroup stays under the
  // paper's <2% overhead observation).
  double atomic_op_ns = 1.0;       ///< global atomic (logical workgroup ids)
  double spin_wait_ns = 10.0;      ///< adjacent-sync wait when chain is cold

  // Thread-scaling terms (perf::model_time_threads): per-launch cost of
  // waking one additional pool worker, and the per-chunk cost of the
  // speculative carry fix-up (one lane-panel slot touched per chunk; the
  // chunk grid is 4 slots per requested thread).  Both charge overhead
  // that *grows* with the requested thread count, which is what lets the
  // tuner rank candidates at a serving thread count instead of at 1.
  double thread_wake_us = 2.0;     ///< per extra worker per launch
  double carry_slot_ns = 15.0;     ///< per fix-up slot (4T per launch)

  // Per-block dispatch overhead of the *generic* chunk kernel: runtime
  // block_w/block_h loop bounds, the indirect dense-dot call, and the
  // column-stream switch cost a few branch/call cycles per block that the
  // compile-time specialization grid (cpu/kernels_grid.hpp) eliminates.
  // perf::model_time_dispatch charges this only to generic-dispatched
  // candidates, so the tuner's ranking can prefer a config the grid
  // serves when two configs are otherwise modeled equal.
  double block_branch_ns = 0.6;    ///< per block, generic dispatch only

  /// Fraction of warp-divergence slowdown that is actually *exposed*: the
  /// SM hides most of a divergent warp's idle slots behind other resident
  /// warps, so the effective memory-issue throttle is
  /// 1 + (divergence_factor - 1) * divergence_exposure.  Fermi (GTX480)
  /// has fewer resident warps to hide behind, so its exposure is higher.
  double divergence_exposure = 0.4;

  /// Total texture-cache capacity used by the vector-access cache model
  /// (workgroups are spread over all SMs, each with a private cache; we model
  /// a single cache of one SM's capacity since a workgroup only sees its own
  /// SM's cache).
  std::size_t vector_cache_bytes(bool use_texture) const {
    // Without the texture path, vector reads go through the (smaller
    // per-access-efficiency) L2 slice; modeled as half the texture capacity
    // with the same line size.
    return use_texture ? tex_cache_per_sm : tex_cache_per_sm / 2;
  }
};

/// NVIDIA GTX680 (Kepler GK104): 8 SMX, 192 GB/s, 3090 GFLOPS SP, 48 KB
/// read-only data cache per SMX.
inline DeviceSpec gtx680() {
  DeviceSpec d;
  d.name = "GTX680";
  d.num_sm = 8;
  d.mem_bandwidth_gbps = 192.3;
  d.mem_efficiency = 0.80;
  d.shared_mem_per_workgroup = 48 * 1024;
  d.tex_cache_per_sm = 48 * 1024;
  d.peak_gflops_sp = 3090.0;
  d.kernel_launch_us = 5.0;
  return d;
}

/// NVIDIA GTX480 (Fermi GF100): 15 SMs, 177 GB/s, 1345 GFLOPS SP, 12 KB
/// texture cache per SM.
inline DeviceSpec gtx480() {
  DeviceSpec d;
  d.name = "GTX480";
  d.num_sm = 15;
  d.mem_bandwidth_gbps = 177.4;
  d.mem_efficiency = 0.75;  // Fermi's coalescer is less forgiving
  d.shared_mem_per_workgroup = 48 * 1024;
  d.tex_cache_per_sm = 12 * 1024;
  d.peak_gflops_sp = 1345.0;
  d.kernel_launch_us = 7.0;
  d.divergence_exposure = 0.5;
  return d;
}

}  // namespace yaspmv::sim
