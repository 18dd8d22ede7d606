// Adjacent synchronization (Section 3.2.4; StreamScan, PPoPP'13).
//
// For dot-product segments spanning workgroup boundaries, workgroup X must
// accumulate the last partial sums of the preceding workgroups.  Instead of
// finishing the kernel and launching a second one (global synchronization),
// each workgroup publishes its last partial sum into Grp_sum[X]; a workgroup
// whose tile contains no row stop waits for Grp_sum[X-1], adds its own sum,
// and publishes the combined value, while a workgroup containing a row stop
// breaks the chain and publishes its own tail sum directly.
//
// An entry is a small vector of block_h partial sums (one per row inside a
// block-row).  The published flag uses release/acquire ordering so the pooled
// dispatcher exercises the real synchronization; under sequential in-order
// dispatch a wait on an unpublished entry is a protocol violation and throws.
//
// When a FlightRecorder is attached, publish/wait become journal sites (the
// publish claims its journal sequence number *before* releasing the ready
// flag, so every recorded log orders a publish ahead of the waits it
// satisfied) and the blocking wait becomes a watchdog: instead of blindly
// burning a spin budget it consults the recorder's ProgressTable and fails
// fast — with attribution — the moment the owning workgroup is done without
// publishing.  Only that waiter, directly behind the owner that will never
// publish, raises SyncTimeout: a waiter whose owner is alive (running,
// itself waiting, or claimed but not yet begun) keeps waiting however long
// the chain's head takes to see its dead owner, and unwinds once the launch
// aborts.  Under replay the same sites turn into gates consuming the
// recorded schedule.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <thread>

#include "yaspmv/sim/counters.hpp"
#include "yaspmv/sim/dispatch.hpp"
#include "yaspmv/sim/fault.hpp"
#include "yaspmv/sim/journal.hpp"
#include "yaspmv/sim/replay.hpp"

namespace yaspmv::sim {

class AdjacentBuffer {
 public:
  /// Maximum block height supported by a Grp_sum entry.  Table 1 limits
  /// block height to 4; the extended-blocks tuning mode (the paper's noted
  /// Dense-matrix limitation, Section 6) raises it to 8.
  static constexpr int kMaxH = 8;

  /// Hard spin cap before a blocking wait is declared dead.  With a recorder
  /// attached the watchdog almost never reaches it (a dead predecessor is
  /// detected from its progress state); without one it is the only limit.
  /// FaultInjector::spin_budget_override lowers it only where the budget is
  /// what detects a dead predecessor: no recorder, or a replay run past its
  /// recorded schedule (owners minimized away never run).
  static constexpr std::size_t kMaxSpins = 200'000'000;

  /// Spins between watchdog looks at the owner's progress state.
  static constexpr std::size_t kWatchdogInterval = 1024;

  // NOLINTNEXTLINE(bugprone-easily-swappable-parameters)
  AdjacentBuffer(std::size_t num_workgroups, int h, bool blocking,
                 FaultInjector* fault = nullptr,
                 FlightRecorder* recorder = nullptr,
                 LaunchKind kind = LaunchKind::kMain)
      : n_(num_workgroups),
        h_(h),
        blocking_(blocking),
        fault_(fault),
        recorder_(recorder),
        kind_(kind),
        spin_budget_(fault && fault->spin_budget_override != 0
                         ? fault->spin_budget_override
                         : kMaxSpins),
        entries_(std::make_unique<Entry[]>(num_workgroups ? num_workgroups
                                                          : 1)) {
    if (h < 1 || h > kMaxH) throw SimError("AdjacentBuffer: bad block height");
  }

  int height() const { return h_; }
  std::size_t size() const { return n_; }

  /// Publishes workgroup `wg`'s last partial sums (h values).  An armed
  /// drop/stall fault suppresses the publish (successors will time out); a
  /// corrupt fault perturbs the values before they become visible.
  void publish(std::size_t wg, std::span<const double> v) {
    Entry& e = entries_[wg];
    for (int i = 0; i < h_; ++i) {
      e.v[static_cast<std::size_t>(i)] = v[static_cast<std::size_t>(i)];
    }
    bool suppressed = false;
    if (fault_) {
      suppressed = fault_->suppress_publish(wg);
      if (!suppressed) {
        fault_->mutate_publish(
            wg, std::span<double>(e.v.data(), static_cast<std::size_t>(h_)));
      }
    }

    ReplayCoordinator* const coord = gate();
    const std::int32_t id = static_cast<std::int32_t>(wg);
    bool advance = false;
    if (coord) {
      const auto step = coord->await(id);
      if (step) {
        const EventType want = suppressed ? EventType::kPublishSuppressed
                                          : EventType::kPublish;
        if (step->type != want || step->wg != id) {
          coord->diverge(
              "workgroup " + std::to_string(wg) + " performed " +
              std::string(to_string(want)) + " but the schedule expected " +
              std::string(to_string(step->type)) + " of workgroup " +
              std::to_string(step->wg) +
              " (different fault plan or stale schedule?)");
        }
        advance = true;
      }
    }

    if (suppressed) {
      if (recorder_) {
        recorder_->record(EventType::kPublishSuppressed, kind_, id);
        recorder_->record(EventType::kFaultFired, kind_, id,
                          static_cast<std::int32_t>(fault_->plan().type));
      }
      if (advance) coord->advance();
      return;
    }
    // Causal-consistency invariant: claim the publish's journal sequence
    // number before the release store, so no waiter's resolve can be logged
    // ahead of the publish that satisfied it.
    if (recorder_) recorder_->record(EventType::kPublish, kind_, id);
    e.ready.store(1, std::memory_order_release);
    if (advance) coord->advance();
  }

  bool is_published(std::size_t wg) const {
    return entries_[wg].ready.load(std::memory_order_acquire) != 0;
  }

  /// Waits for workgroup `wg`'s entry and copies it into `out`.  Spin count
  /// is recorded in `stats`; `waiter` is the waiting workgroup (for journal
  /// events and timeout attribution — defaults to wg+1, the adjacent chain).
  ///
  /// In non-blocking (sequential-dispatch) mode the predecessor has already
  /// run, so an unpublished entry means its publish was lost (broken chain /
  /// dead workgroup).  In blocking mode the watchdog reaches the same
  /// conclusion when the owner is done yet never published, or after the
  /// spin budget.  Both raise SyncTimeout — the trigger for the resilient
  /// engine's fallback ladder.  A waiter whose launch aborted elsewhere
  /// unwinds with LaunchFailure instead (never the launch's reported error:
  /// the abort flag goes up only after that error is stored).
  void wait(std::size_t wg, std::span<double> out, KernelStats& stats,
            std::int32_t waiter = -1) const {
    if (waiter < 0) waiter = static_cast<std::int32_t>(wg) + 1;
    const Entry& e = entries_[wg];

    ReplayCoordinator* const coord = gate();
    if (coord) {
      const auto step = coord->await(waiter);
      if (step) {
        replay_wait(*coord, *step, wg, waiter, e, out);
        return;
      }
      // No steps left (minimized tail): fall through and run free.
    }

    if (recorder_) {
      recorder_->record(EventType::kWaitBegin, kind_, waiter,
                        static_cast<std::int32_t>(wg));
    }
    if (!e.ready.load(std::memory_order_acquire)) {
      if (!blocking_) {
        fail_timeout(wg, waiter,
                     "consumed before being published under in-order "
                     "dispatch");
      }
      const std::size_t budget = recorder_ && !coord ? kMaxSpins : spin_budget_;
      std::size_t spins = 0;
      while (!e.ready.load(std::memory_order_acquire)) {
        if (++spins % 64 == 0) std::this_thread::yield();
        if (recorder_ && spins % kWatchdogInterval == 0) {
          const ProgressTable& progress = recorder_->progress();
          if (progress.state(wg) == ProgressTable::kDone) {
            // Re-check after the state read: the owner may have published
            // right before finishing (acquire pairs with the release store).
            if (e.ready.load(std::memory_order_acquire)) break;
            stats.spin_waits += spins;
            fail_timeout(wg, waiter, "owner will never publish");
          }
          if (progress.aborted()) {
            stats.spin_waits += spins;
            throw LaunchFailure("workgroup " + std::to_string(waiter) +
                                " stopped waiting on Grp_sum[" +
                                std::to_string(wg) +
                                "]: the launch already failed");
          }
        }
        if (spins > budget) {
          stats.spin_waits += spins;
          fail_timeout(wg, waiter, "spin budget exceeded");
        }
      }
      stats.spin_waits += spins;
    }
    if (recorder_) {
      recorder_->record(EventType::kWaitResolve, kind_, waiter,
                        static_cast<std::int32_t>(wg));
    }
    for (int i = 0; i < h_; ++i) {
      out[static_cast<std::size_t>(i)] = e.v[static_cast<std::size_t>(i)];
    }
  }

 private:
  struct Entry {
    std::array<double, kMaxH> v{};
    std::atomic<std::uint32_t> ready{0};
  };

  /// The replay coordinator when one is attached *and* it replays this
  /// buffer's launch kind; nullptr otherwise (record-only or idle).
  ReplayCoordinator* gate() const {
    if (!recorder_) return nullptr;
    ReplayCoordinator* c = recorder_->coordinator();
    return (c && c->schedule().kind == kind_) ? c : nullptr;
  }

  /// Re-executes a recorded wait step: a resolve copies the (already
  /// admitted) publish; a timeout reproduces the recorded failure.
  void replay_wait(ReplayCoordinator& coord, const ScheduleStep& step,
                   std::size_t wg, std::int32_t waiter, const Entry& e,
                   std::span<double> out) const {
    if (step.wg != waiter || (step.type != EventType::kWaitResolve &&
                              step.type != EventType::kWaitTimeout)) {
      coord.diverge("workgroup " + std::to_string(waiter) +
                    " waited on Grp_sum[" + std::to_string(wg) +
                    "] but the schedule expected " +
                    std::string(to_string(step.type)) + " of workgroup " +
                    std::to_string(step.wg));
    }
    if (step.aux != static_cast<std::int32_t>(wg)) {
      coord.diverge("workgroup " + std::to_string(waiter) +
                    " waited on Grp_sum[" + std::to_string(wg) +
                    "] but the recorded wait targeted Grp_sum[" +
                    std::to_string(step.aux) + "]");
    }
    if (step.type == EventType::kWaitTimeout) {
      // Reproduce the recorded failure.  Deliberately no advance(): the
      // dispatcher's catch stores this as the first error before aborting
      // the replay, so the failing workgroup is stable across replays.
      fail_timeout(wg, waiter, "replayed wait-timeout");
    }
    // The schedule ordered the publish before this resolve, and its gate
    // released the entry before advancing the cursor — the value is there.
    if (!e.ready.load(std::memory_order_acquire)) {
      coord.diverge("replayed wait-resolve of workgroup " +
                    std::to_string(waiter) + " found Grp_sum[" +
                    std::to_string(wg) +
                    "] unpublished (schedule violates publish-before-"
                    "resolve)");
    }
    if (recorder_) {
      recorder_->record(EventType::kWaitResolve, kind_, waiter,
                        static_cast<std::int32_t>(wg));
    }
    for (int i = 0; i < h_; ++i) {
      out[static_cast<std::size_t>(i)] = e.v[static_cast<std::size_t>(i)];
    }
    coord.advance();
  }

  /// Records the timeout and raises an attributed SyncTimeout: which
  /// workgroup waited, which entry never arrived, what its owner was doing
  /// (from the progress table) and whether an armed fault swallowed the
  /// publish.
  [[noreturn]] void fail_timeout(std::size_t wg, std::int32_t waiter,
                                 const std::string& how) const {
    if (recorder_) {
      recorder_->record(EventType::kWaitTimeout, kind_, waiter,
                        static_cast<std::int32_t>(wg));
    }
    std::string msg = "workgroup " + std::to_string(waiter) +
                      " waiting on unpublished Grp_sum[" + std::to_string(wg) +
                      "] (" + how;
    if (recorder_) {
      msg += "; owner workgroup " + std::to_string(wg) + " " +
             recorder_->progress().describe(wg);
    }
    msg += ")";
    if (fault_ && fault_->suppresses_publish(wg)) {
      msg += "; its publish was suppressed by an armed " +
             std::string(to_string(fault_->plan().type)) + " fault";
    }
    throw SyncTimeout(msg);
  }

  std::size_t n_;
  int h_;
  bool blocking_;
  FaultInjector* fault_ = nullptr;
  FlightRecorder* recorder_ = nullptr;
  LaunchKind kind_ = LaunchKind::kMain;
  std::size_t spin_budget_ = kMaxSpins;
  std::unique_ptr<Entry[]> entries_;
};

}  // namespace yaspmv::sim
