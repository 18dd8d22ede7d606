#include "yaspmv/perf/model.hpp"

#include <algorithm>

namespace yaspmv::perf {

TimeBreakdown model_time(const sim::DeviceSpec& dev,
                         const sim::KernelStats& st) {
  TimeBreakdown t;
  const double bytes = static_cast<double>(st.global_load_bytes +
                                           st.global_store_bytes);
  const double bw = dev.mem_bandwidth_gbps * 1e9 * dev.mem_efficiency;
  // Warp divergence throttles the rate at which warps feed the memory
  // system, but resident-warp parallelism hides most of it: only the
  // `divergence_exposure` fraction of the slowdown is charged.
  const double f_exposed =
      1.0 + (st.divergence_factor() - 1.0) * dev.divergence_exposure;
  t.mem_s = bytes / bw * f_exposed;
  t.compute_s =
      static_cast<double>(st.flops) / (dev.peak_gflops_sp * 1e9);
  t.launch_s = static_cast<double>(st.kernel_launches) *
               dev.kernel_launch_us * 1e-6;
  t.sync_s = static_cast<double>(st.atomic_ops) * dev.atomic_op_ns * 1e-9 +
             static_cast<double>(st.spin_waits) * dev.spin_wait_ns * 1e-9;
  t.total_s = std::max(t.mem_s, t.compute_s) + t.launch_s + t.sync_s;
  return t;
}

double spmv_gflops(const sim::DeviceSpec& dev, const sim::KernelStats& st,
                   std::size_t nnz) {
  const TimeBreakdown t = model_time(dev, st);
  if (t.total_s <= 0.0) return 0.0;
  return 2.0 * static_cast<double>(nnz) / t.total_s * 1e-9;
}

TimeBreakdown model_time_threads(const sim::DeviceSpec& dev,
                                 const sim::KernelStats& st,
                                 unsigned threads) {
  if (threads <= 1) return model_time(dev, st);
  TimeBreakdown t = model_time(dev, st);
  const double tf = static_cast<double>(threads);
  const double launches = static_cast<double>(st.kernel_launches);
  // The streamed work partitions across threads...
  t.mem_s /= tf;
  t.compute_s /= tf;
  // ...while the per-launch overhead grows with them: every launch wakes
  // (threads - 1) extra workers, and the speculative fix-up walks a
  // 4*threads-slot chunk grid (segfix.hpp's grid sizing).
  t.launch_s += launches * (tf - 1.0) * dev.thread_wake_us * 1e-6;
  t.sync_s += launches * 4.0 * tf * dev.carry_slot_ns * 1e-9;
  t.total_s = std::max(t.mem_s, t.compute_s) + t.launch_s + t.sync_s;
  return t;
}

double spmv_gflops_threads(const sim::DeviceSpec& dev,
                           const sim::KernelStats& st, std::size_t nnz,
                           unsigned threads) {
  const TimeBreakdown t = model_time_threads(dev, st, threads);
  if (t.total_s <= 0.0) return 0.0;
  return 2.0 * static_cast<double>(nnz) / t.total_s * 1e-9;
}

TimeBreakdown model_time_dispatch(const sim::DeviceSpec& dev,
                                  const sim::KernelStats& st,
                                  unsigned threads, std::size_t blocks,
                                  bool specialized) {
  TimeBreakdown t = model_time_threads(dev, st, threads);
  if (specialized) return t;
  // Generic dispatch pays a few cycles per block for the runtime-dim
  // branches and the indirect dense-dot call; the cost sits in the
  // compute stream, so it partitions across threads like compute does.
  const double tf = static_cast<double>(threads <= 1 ? 1u : threads);
  t.compute_s +=
      static_cast<double>(blocks) * dev.block_branch_ns * 1e-9 / tf;
  t.total_s = std::max(t.mem_s, t.compute_s) + t.launch_s + t.sync_s;
  return t;
}

double spmv_gflops_dispatch(const sim::DeviceSpec& dev,
                            const sim::KernelStats& st, std::size_t nnz,
                            unsigned threads, std::size_t blocks,
                            bool specialized) {
  const TimeBreakdown t = model_time_dispatch(dev, st, threads, blocks,
                                              specialized);
  if (t.total_s <= 0.0) return 0.0;
  return 2.0 * static_cast<double>(nnz) / t.total_s * 1e-9;
}

double harmonic_mean(const double* v, std::size_t n) {
  if (n == 0) return 0.0;
  double inv = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] <= 0.0) return 0.0;
    inv += 1.0 / v[i];
  }
  return static_cast<double>(n) / inv;
}

}  // namespace yaspmv::perf
