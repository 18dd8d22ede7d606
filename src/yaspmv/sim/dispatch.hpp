// Workgroup/thread execution model.
//
// A simulated kernel is a callable invoked once per workgroup.  Inside, the
// kernel alternates between *phases*: a phase runs a thread body for every
// thread id in the workgroup, and the boundary between two phases has
// workgroup-barrier semantics (exactly how the paper's kernels use
// barrier(CLK_LOCAL_MEM_FENCE) between producing last_partial_sums and
// scanning them).  Per-thread state that must survive a barrier lives in
// arrays indexed by tid, mirroring registers spilled around a barrier.
//
// Workgroups are dispatched strictly in order — the paper's stated hardware
// assumption (Section 3.2.4) — either sequentially on the calling thread or
// on a worker pool whose workers claim workgroup ids from an ordered ticket.
// The pooled mode genuinely exercises the adjacent-synchronization spin
// chain with std::atomic acquire/release.
//
// With a FlightRecorder attached (sim/journal.hpp) every dispatch ticket and
// phase transition is journaled and heart-beaten; with a ReplayCoordinator
// attached on top (sim/replay.hpp) the launch switches to the *replay
// dispatcher*: workgroups run on the recorded worker assignment and every
// gated event is admitted in recorded order, re-executing a pooled
// interleaving deterministically.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "yaspmv/core/status.hpp"
#include "yaspmv/sim/counters.hpp"
#include "yaspmv/sim/device.hpp"
#include "yaspmv/sim/fault.hpp"
#include "yaspmv/sim/journal.hpp"
#include "yaspmv/sim/replay.hpp"
#include "yaspmv/util/thread_pool.hpp"

namespace yaspmv::sim {

/// Raised when a kernel violates a device constraint (shared-memory
/// overflow, bad workgroup size, register budget, ...).  Part of the
/// SpmvError taxonomy as Status::kResourceExceeded; the adjacent-sync
/// failures raise the more specific yaspmv::SyncTimeout instead.
class SimError : public SpmvError {
 public:
  explicit SimError(const std::string& msg)
      : SpmvError(Status::kResourceExceeded, msg) {}
};

struct LaunchConfig {
  int num_workgroups = 1;
  int workgroup_size = 64;
  unsigned workers = 1;      ///< OS threads dispatching workgroups
  bool use_texture = true;   ///< route vector loads via the texture cache
  bool logical_ids = false;  ///< fetch workgroup ids via a global atomic
  FaultInjector* fault = nullptr;  ///< nullable; non-null only under injection
  LaunchKind kind = LaunchKind::kMain;  ///< which launch this is, for kFailLaunch
  FlightRecorder* recorder = nullptr;  ///< nullable; journal + watchdog + replay
};

/// Per-workgroup execution context handed to the kernel callable.
class WorkgroupCtx {
 public:
  WorkgroupCtx(const DeviceSpec& dev, const LaunchConfig& cfg, int wg_id,
               VectorCacheSim& vcache)
      : dev_(dev),
        cfg_(cfg),
        wg_id_(wg_id),
        vcache_(vcache),
        arena_(dev.shared_mem_per_workgroup * 4) {}

  int wg_id() const { return wg_id_; }
  int num_workgroups() const { return cfg_.num_workgroups; }
  int wg_size() const { return cfg_.workgroup_size; }
  const DeviceSpec& device() const { return dev_; }
  bool use_texture() const { return cfg_.use_texture; }
  KernelStats& stats() { return stats_; }

  /// Allocates a shared-memory array of `n` elements of host type T.
  /// `device_elem_bytes` is the element width charged against the device's
  /// shared-memory capacity (host doubles model device floats).  Pointers
  /// stay valid for the whole workgroup (arena is preallocated).
  template <class T>
  std::span<T> shared_array(std::size_t n, std::size_t device_elem_bytes) {
    const std::size_t host_bytes = n * sizeof(T);
    const std::size_t aligned = (arena_off_ + alignof(T) - 1) &
                                ~(alignof(T) - 1);
    if (aligned + host_bytes > arena_.size()) {
      throw SimError("simulator shared-memory arena exhausted");
    }
    device_shared_bytes_ += n * device_elem_bytes;
    if (device_shared_bytes_ > dev_.shared_mem_per_workgroup) {
      throw SimError("workgroup exceeds device shared memory: " +
                     std::to_string(device_shared_bytes_) + " > " +
                     std::to_string(dev_.shared_mem_per_workgroup));
    }
    auto* p = reinterpret_cast<T*>(arena_.data() + aligned);
    arena_off_ = aligned + host_bytes;
    std::memset(arena_.data() + aligned, 0, host_bytes);
    return {p, n};
  }

  std::size_t device_shared_bytes() const { return device_shared_bytes_; }

  /// Runs `body(tid)` for every thread of the workgroup, then acts as a
  /// workgroup barrier.  Phase boundaries double as the watchdog's progress
  /// heartbeats: a waiter diagnosing a hang can see which phase the stalled
  /// workgroup last completed.
  template <class F>
  void phase(F&& body) {
    for (int t = 0; t < cfg_.workgroup_size; ++t) body(t);
    stats_.barriers++;
    if (cfg_.recorder) {
      cfg_.recorder->progress().mark(static_cast<std::size_t>(wg_id_),
                                     phase_idx_);
      cfg_.recorder->record(EventType::kPhase, cfg_.kind, wg_id_, phase_idx_);
      phase_idx_++;
    }
  }

  /// Reads multiplied-vector element `idx` through the (texture or L2)
  /// cache model.  Returns nothing: the *value* is read by the kernel from
  /// the host array directly; this call only accounts the traffic.
  void touch_vector(std::size_t idx) { vcache_.access(idx, stats_); }

  /// Resets the context for reuse by the next workgroup on this worker.
  void begin_workgroup(int wg_id) {
    wg_id_ = wg_id;
    arena_off_ = 0;
    device_shared_bytes_ = 0;
    phase_idx_ = 0;
    stats_ = KernelStats{};
  }

 private:
  const DeviceSpec& dev_;
  const LaunchConfig& cfg_;
  int wg_id_;
  VectorCacheSim& vcache_;
  std::vector<unsigned char> arena_;
  std::size_t arena_off_ = 0;
  std::size_t device_shared_bytes_ = 0;
  std::int32_t phase_idx_ = 0;  ///< barriers completed by this workgroup
  KernelStats stats_;
};

/// Launches `kernel` over `cfg.num_workgroups` workgroups and returns the
/// aggregated statistics (with kernel_launches = 1).
template <class Kernel>
KernelStats launch(const DeviceSpec& dev, const LaunchConfig& cfg,
                   Kernel&& kernel) {
  if (cfg.workgroup_size <= 0 || cfg.workgroup_size > dev.max_workgroup_size) {
    throw SimError("invalid workgroup size " +
                   std::to_string(cfg.workgroup_size));
  }
  if (cfg.fault && cfg.fault->should_fail_launch(cfg.kind)) {
    throw LaunchFailure(std::string("injected launch failure (") +
                        to_string(cfg.kind) + " kernel)");
  }
  KernelStats total;
  total.kernel_launches = 1;
  std::mutex merge_mu;
  std::atomic<int> logical_counter{0};
  // First exception thrown by any workgroup (pooled workers must not let it
  // escape the OS thread); rethrown to the caller after the join.
  std::exception_ptr first_error;
  std::atomic<bool> failed{false};

  FlightRecorder* const rec = cfg.recorder;
  ReplayCoordinator* const coord = rec ? rec->coordinator() : nullptr;
  // Replay gating applies only to the launch kind the schedule was recorded
  // from (the main kernel's adjacent-sync interleaving); other launches of
  // the same run execute normally.
  const bool gated = coord && coord->schedule().kind == cfg.kind;
  std::vector<std::vector<std::int32_t>> replay_lists;
  if (gated) {
    const Schedule& s = coord->schedule();
    if (s.num_workgroups != cfg.num_workgroups ||
        s.workgroup_size != cfg.workgroup_size) {
      throw ScheduleDiverged(
          "replay schedule geometry mismatch: recorded " +
          std::to_string(s.num_workgroups) + " workgroups of size " +
          std::to_string(s.workgroup_size) + ", launching " +
          std::to_string(cfg.num_workgroups) + " of size " +
          std::to_string(cfg.workgroup_size) +
          " (different matrix or config?)");
    }
    replay_lists = s.worker_wgs();
  }

  const unsigned workers =
      gated ? static_cast<unsigned>(replay_lists.size())
            : (cfg.workers == 0 ? default_workers() : cfg.workers);

  if (rec) {
    rec->progress().resize(static_cast<std::size_t>(cfg.num_workgroups));
    rec->record(EventType::kLaunchBegin, cfg.kind, -1, cfg.num_workgroups);
  }

  // Worker-local contexts (cache sim + arena) are created lazily per worker.
  // In sequential mode a single context is reused across all workgroups so
  // the vector cache carries state between consecutive workgroups, modeling
  // workgroups sharing an SM's cache over time.
  struct WorkerState {
    std::unique_ptr<VectorCacheSim> vcache;
    std::unique_ptr<WorkgroupCtx> ctx;
    KernelStats local;
  };
  std::vector<WorkerState> states(workers ? workers : 1);

  auto run_wg = [&](unsigned worker, std::size_t wg) {
    if (failed.load(std::memory_order_acquire)) return;
    WorkerState& ws = states[worker];
    if (rec) FlightRecorder::set_current_worker(
        static_cast<std::uint16_t>(worker));
    int id = static_cast<int>(wg);
    try {
    if (!ws.vcache) {
      ws.vcache = std::make_unique<VectorCacheSim>(
          dev.vector_cache_bytes(cfg.use_texture), dev.cache_line_bytes,
          bytes::kValue);
      ws.ctx = std::make_unique<WorkgroupCtx>(dev, cfg, 0, *ws.vcache);
    }
    if (cfg.logical_ids) {
      if (gated) {
        // The replay schedule already names the workgroup; the recorded
        // logical id equals the ticket under gated (serialized) begins.
        ws.local.atomic_ops++;
      } else {
        // The paper's fallback for out-of-order dispatch: a global atomic
        // fetch-and-add hands out logical ids.  Our ticket order makes the
        // result identical; we still count the atomic.
        id = logical_counter.fetch_add(1, std::memory_order_relaxed);
        ws.local.atomic_ops++;
      }
    }
    if (gated) {
      const auto step = coord->await(id);
      if (step && step->type != EventType::kWgBegin) {
        coord->diverge("workgroup " + std::to_string(id) +
                       " began, but the schedule expected " +
                       std::string(to_string(step->type)) +
                       " of workgroup " + std::to_string(step->wg));
      }
      if (rec) {
        rec->progress().mark(static_cast<std::size_t>(id), 0);
        rec->record(EventType::kWgBegin, cfg.kind, id);
      }
      if (step) coord->advance();
    } else if (rec) {
      rec->progress().mark(static_cast<std::size_t>(id), 0);
      rec->record(EventType::kWgBegin, cfg.kind, id);
    }
    ws.ctx->begin_workgroup(id);
    kernel(*ws.ctx);
    ws.local += ws.ctx->stats();
    if (rec) {
      rec->progress().mark(static_cast<std::size_t>(id),
                           ProgressTable::kDone);
      rec->record(EventType::kWgEnd, cfg.kind, id);
    }
    } catch (...) {
      if (rec) {
        rec->progress().mark(static_cast<std::size_t>(id),
                             ProgressTable::kFailed);
        rec->record(EventType::kWgFailed, cfg.kind, id);
      }
      {
        std::lock_guard<std::mutex> lk(merge_mu);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_release);
      }
      // Unblock replay gates and spinning waiters only after the first error
      // is stored, so the secondary "replay aborted" divergences and waiter
      // unwinds never win the race to be it.
      if (rec) rec->progress().abort();
      if (coord) coord->abort_replay();
    }
  };

  if (gated) {
    // Replay dispatcher: the recorded workgroup->worker assignment, with
    // every gated event admitted in schedule order.  Workgroups absent from
    // the schedule (minimized away) do not run.
    std::vector<std::thread> pool;
    pool.reserve(replay_lists.size());
    for (std::size_t w = 1; w < replay_lists.size(); ++w) {
      pool.emplace_back([&run_wg, &replay_lists, w] {
        for (std::int32_t g : replay_lists[w]) {
          run_wg(static_cast<unsigned>(w), static_cast<std::size_t>(g));
        }
      });
    }
    if (!replay_lists.empty()) {
      for (std::int32_t g : replay_lists[0]) {
        run_wg(0, static_cast<std::size_t>(g));
      }
    }
    for (auto& t : pool) t.join();
  } else {
    parallel_for_ordered(static_cast<std::size_t>(cfg.num_workgroups),
                         workers, run_wg);
  }
  if (first_error) std::rethrow_exception(first_error);
  if (rec) rec->record(EventType::kLaunchEnd, cfg.kind, -1);

  for (auto& ws : states) {
    std::lock_guard<std::mutex> lk(merge_mu);
    total += ws.local;
  }
  return total;
}

}  // namespace yaspmv::sim
