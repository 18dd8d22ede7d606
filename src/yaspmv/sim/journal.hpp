// Flight recorder for the simulated device.
//
// Under the pooled dispatcher an adjacent-synchronization failure depends on
// OS-thread interleaving: the ResilientEngine can detect and recover from it,
// but the exact schedule that produced it is gone by the time the exception
// surfaces.  The flight recorder closes that gap with three cooperating
// pieces, all carried by one FlightRecorder object attached (like a
// FaultInjector) through a nullable pointer so the idle path costs a single
// null check per site:
//
//  * Journal — a lock-free bounded event log.  Every dispatch-order ticket
//    (workgroup begin/end), phase/barrier transition, AdjacentBuffer
//    publish/wait/timeout and fault firing appends one fixed-size Event,
//    sequenced by an atomic counter.  When the journal is full new events are
//    *dropped* (and counted) rather than overwriting old ones: replay needs
//    the prefix from launch start, so the oldest events are the valuable
//    ones.
//
//  * ProgressTable — per-workgroup heartbeat + phase state, updated at every
//    begin/phase/end.  The AdjacentBuffer watchdog reads it to tell a
//    predecessor that is merely slow (heartbeat advancing) from one that is
//    dead or finished-without-publishing, and to attribute a timeout:
//    "workgroup X waiting on unpublished Grp_sum[X-1] (owner stalled in
//    phase P)".
//
//  * Replay hook — when a Schedule (sim/replay.hpp) is attached, the
//    dispatcher and AdjacentBuffer gate the schedule-relevant events through
//    a ReplayCoordinator, re-executing a recorded interleaving
//    deterministically.
//
// The journal's event sequence is *causally consistent* for the adjacent
// chain: a publish event claims its sequence number before the ready flag is
// released, and a wait-resolve claims its number after the flag is acquired,
// so in every recorded log the publish precedes the waits it satisfied.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "yaspmv/sim/fault.hpp"

namespace yaspmv::sim {

class ReplayCoordinator;  // sim/replay.hpp
struct Schedule;          // sim/replay.hpp

/// What happened.  The *gated* subset (see is_gated_event) defines a
/// recorded interleaving; the rest is diagnostic context.
enum class EventType : std::uint8_t {
  kLaunchBegin = 0,      ///< sim::launch entered; aux = num_workgroups
  kLaunchEnd,            ///< sim::launch joined cleanly
  kWgBegin,              ///< a worker claimed and started a workgroup [gated]
  kWgEnd,                ///< a workgroup ran to completion
  kWgFailed,             ///< a workgroup threw; aux = Status-ish hint
  kPhase,                ///< barrier-delimited phase done; aux = phase index
  kPublish,              ///< Grp_sum[wg] became visible [gated]
  kPublishSuppressed,    ///< publish swallowed by an armed fault [gated]
  kWaitBegin,            ///< wg started waiting; aux = predecessor wg
  kWaitResolve,          ///< wait satisfied; aux = predecessor wg [gated]
  kWaitTimeout,          ///< wait gave up; aux = predecessor wg [gated]
  kFaultFired,           ///< an injected fault hit a site; aux = FaultType
};

inline const char* to_string(EventType t) {
  switch (t) {
    case EventType::kLaunchBegin: return "launch-begin";
    case EventType::kLaunchEnd: return "launch-end";
    case EventType::kWgBegin: return "wg-begin";
    case EventType::kWgEnd: return "wg-end";
    case EventType::kWgFailed: return "wg-failed";
    case EventType::kPhase: return "phase";
    case EventType::kPublish: return "publish";
    case EventType::kPublishSuppressed: return "publish-suppressed";
    case EventType::kWaitBegin: return "wait-begin";
    case EventType::kWaitResolve: return "wait-resolve";
    case EventType::kWaitTimeout: return "wait-timeout";
    case EventType::kFaultFired: return "fault-fired";
  }
  return "unknown";
}

/// Events whose cross-thread order defines the interleaving a Schedule
/// replays.  Phases and wait-begins are intra-workgroup-deterministic and
/// stay ungated (recorded for diagnosis only).
inline bool is_gated_event(EventType t) {
  return t == EventType::kWgBegin || t == EventType::kPublish ||
         t == EventType::kPublishSuppressed ||
         t == EventType::kWaitResolve || t == EventType::kWaitTimeout;
}

/// One fixed-size journal record.  `seq` is a global logical clock (the
/// order the event claimed its slot); wall-clock timestamps are deliberately
/// absent — they would make journals non-reproducible.
struct Event {
  std::uint64_t seq = 0;
  EventType type = EventType::kLaunchBegin;
  std::uint8_t kind = 0;     ///< LaunchKind of the enclosing launch
  std::uint16_t worker = 0;  ///< OS worker that recorded the event
  std::int32_t wg = -1;      ///< acting workgroup (-1 for launch events)
  std::int32_t aux = 0;      ///< type-specific payload (see EventType)

  friend bool operator==(const Event& a, const Event& b) {
    return a.seq == b.seq && a.type == b.type && a.kind == b.kind &&
           a.worker == b.worker && a.wg == b.wg && a.aux == b.aux;
  }
};

/// Lock-free bounded event log.  Appends claim a slot with one fetch_add;
/// each slot is written at most once (overflow drops the event and bumps a
/// counter), so concurrent recording is race-free by construction and the
/// log reads back in sequence order after the run quiesces.
class Journal {
 public:
  explicit Journal(std::size_t capacity = 1u << 18)
      : cap_(capacity ? capacity : 1), events_(cap_) {}

  /// Appends one event; thread-safe, wait-free.  Returns the sequence
  /// number (also stored in the event), or the would-be number if dropped.
  std::uint64_t record(Event e) {
    const std::uint64_t seq = next_.fetch_add(1, std::memory_order_acq_rel);
    if (seq >= cap_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return seq;
    }
    e.seq = seq;
    events_[seq] = e;
    // Publish the slot: snapshot() readers on other threads synchronize via
    // the thread join in sim::launch, but a release here keeps standalone
    // readers correct too.
    committed_.fetch_add(1, std::memory_order_release);
    return seq;
  }

  /// Events recorded so far, in sequence order.  Only meaningful once the
  /// writers have quiesced (after sim::launch returned/threw).
  std::vector<Event> snapshot() const {
    const std::uint64_t n =
        std::min<std::uint64_t>(next_.load(std::memory_order_acquire), cap_);
    return {events_.begin(),
            events_.begin() + static_cast<std::ptrdiff_t>(n)};
  }

  std::size_t size() const {
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(next_.load(std::memory_order_acquire), cap_));
  }
  std::size_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const { return cap_; }

  void reset() {
    next_.store(0, std::memory_order_relaxed);
    committed_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
  }

 private:
  std::size_t cap_;
  std::vector<Event> events_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> committed_{0};
  std::atomic<std::size_t> dropped_{0};
};

/// Per-workgroup progress heartbeats.  `beat` advances on every observable
/// step (begin, phase, end); `state` names where the workgroup currently is.
/// The watchdog distinguishes "slow but alive" (not yet done) from "will
/// never publish" (done without publishing).  `aborted` is the launch-wide
/// flag the dispatcher raises once a workgroup's failure is recorded as the
/// launch's error: waiters still spinning then unwind.
class ProgressTable {
 public:
  static constexpr std::int32_t kNotStarted = -1;
  static constexpr std::int32_t kDone = -2;
  static constexpr std::int32_t kFailed = -3;

  void resize(std::size_t n) {
    aborted_.store(false, std::memory_order_relaxed);
    if (slots_ && n <= n_) {
      for (std::size_t i = 0; i < n_; ++i) {
        slots_[i].beat.store(0, std::memory_order_relaxed);
        slots_[i].state.store(kNotStarted, std::memory_order_relaxed);
      }
      return;
    }
    slots_ = std::make_unique<Slot[]>(n ? n : 1);
    n_ = n;
  }

  std::size_t size() const { return n_; }

  void mark(std::size_t wg, std::int32_t state) {
    if (wg >= n_) return;
    slots_[wg].state.store(state, std::memory_order_release);
    slots_[wg].beat.fetch_add(1, std::memory_order_release);
  }

  std::uint64_t beat(std::size_t wg) const {
    return wg < n_ ? slots_[wg].beat.load(std::memory_order_acquire) : 0;
  }
  std::int32_t state(std::size_t wg) const {
    return wg < n_ ? slots_[wg].state.load(std::memory_order_acquire)
                   : kNotStarted;
  }

  void abort() { aborted_.store(true, std::memory_order_release); }
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  /// Human-readable owner state for timeout attribution.
  std::string describe(std::size_t wg) const {
    const std::int32_t s = state(wg);
    if (s == kNotStarted) return "never started";
    if (s == kDone) return "finished without publishing";
    if (s == kFailed) return "failed/threw";
    return "stalled in phase " + std::to_string(s);
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> beat{0};
    std::atomic<std::int32_t> state{kNotStarted};
  };
  std::unique_ptr<Slot[]> slots_;
  std::size_t n_ = 0;
  std::atomic<bool> aborted_{false};
};

/// Everything one recorded (or replayed) engine run carries: the launch
/// geometry and fault plan needed to re-create the failing conditions, plus
/// the event log.  io/journal_io.{hpp,cpp} serializes it with the binary
/// container's checksum scheme.
struct RecordedRun {
  std::int32_t num_workgroups = 0;
  std::int32_t workgroup_size = 0;
  std::uint32_t workers = 1;
  FaultPlan fault{};                      ///< re-armed verbatim on replay
  std::uint64_t spin_budget_override = 0;
  std::vector<Event> events;
};

/// The recorder handle the simulator sites consult.  Owns the journal and
/// the progress table; optionally carries a replay coordinator (set up by
/// the caller from a Schedule) that turns recording sites into gates.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t journal_capacity = 1u << 18)
      : journal_(journal_capacity) {}

  Journal& journal() { return journal_; }
  const Journal& journal() const { return journal_; }
  ProgressTable& progress() { return progress_; }
  const ProgressTable& progress() const { return progress_; }

  /// Attaches a replay coordinator (non-owning); nullptr returns the
  /// recorder to record-only mode.  Must not be changed mid-launch.
  void set_coordinator(ReplayCoordinator* c) { coordinator_ = c; }
  ReplayCoordinator* coordinator() const { return coordinator_; }
  bool replaying() const { return coordinator_ != nullptr; }

  /// Per-OS-thread worker id, stamped into events so the recorded schedule
  /// knows the workgroup->worker assignment.
  static void set_current_worker(std::uint16_t w) { tl_worker_ = w; }
  static std::uint16_t current_worker() { return tl_worker_; }

  std::uint64_t record(EventType t, LaunchKind kind, std::int32_t wg,
                       std::int32_t aux = 0) {
    Event e;
    e.type = t;
    e.kind = static_cast<std::uint8_t>(kind);
    e.worker = tl_worker_;
    e.wg = wg;
    e.aux = aux;
    return journal_.record(e);
  }

  /// Clears the journal and progress for the next attempt; keeps the
  /// coordinator attachment.
  void reset() {
    journal_.reset();
    progress_.resize(progress_.size());
  }

 private:
  Journal journal_;
  ProgressTable progress_;
  ReplayCoordinator* coordinator_ = nullptr;
  static thread_local std::uint16_t tl_worker_;
};

inline thread_local std::uint16_t FlightRecorder::tl_worker_ = 0;

/// First wait-timeout in an event log (the failing workgroup of a recorded
/// hang), or a negative wg if the log holds none.
inline Event first_timeout_event(std::span<const Event> events) {
  for (const Event& e : events) {
    if (e.type == EventType::kWaitTimeout) return e;
  }
  Event none;
  none.wg = -1;
  none.type = EventType::kLaunchEnd;
  return none;
}

}  // namespace yaspmv::sim
