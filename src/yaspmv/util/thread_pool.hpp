// Persistent worker pool shared by every native execution path: the CPU
// SpMV/SpMM kernels, the parallel CSR baseline, the simulator's workgroup
// dispatcher and the parallel auto-tuner all run on the same parked OS
// threads instead of paying a std::thread spawn/join cycle per call.
//
// Two dispatch modes share the parked threads:
//
//   run_ordered    work items are claimed strictly in order from an atomic
//                  ticket counter, mirroring the paper's in-order
//                  workgroup-dispatch assumption (Section 3.2.4): the
//                  adjacent-synchronization chain cannot deadlock because
//                  workgroup X is only executed after workgroup X-1 has been
//                  *claimed* by some worker.  Every requested worker gets a
//                  real OS thread (a body may spin on another body's
//                  progress, so parking a requested worker could deadlock).
//
//   run_unordered  no claim-order guarantee: workers grab *contiguous index
//                  ranges* from an atomic cursor, in whatever order they get
//                  there.  Only valid for bodies whose result is independent
//                  of which thread runs which index (disjoint writes, no
//                  cross-body waiting) — which is exactly what lets the pool
//                  cap live threads at the hardware concurrency instead of
//                  oversubscribing to the requested count.  Callers keep
//                  deriving their decomposition from the *requested* count,
//                  so results stay bitwise reproducible per requested count
//                  while execution never pays for threads the machine does
//                  not have.
//
// A launch wakes and waits for only its own participants: workers
// 1..limit-1 each get their own cache-line slot bumped, and one counter of
// those participants is the barrier; pool threads at or above the limit stay
// parked.  Both sides spin for a bounded time before they park on a futex
// (std::atomic::wait), so back-to-back launches — a CG iteration makes four
// — hand over in about a microsecond instead of a futex round trip each.
// Spinning happens only where it cannot starve a thread that holds work: on
// launches whose worker count fits the hardware.  An oversubscribed
// run_ordered launch (16 workers on 4 cores, whose bodies may wait on each
// other) parks at once on both sides.
//
// The body parameter is a template (one type-erased call per *launch*, not a
// std::function indirection per index), so chunk kernels inline into the
// claim loop.  Nested submissions (a body that itself calls
// parallel_for_ordered, e.g. a tuner candidate launching the simulator) and
// concurrent submissions from a second OS thread degrade to an inline
// sequential loop — results are unchanged because every caller derives its
// work decomposition from the *requested* worker count, never from the
// number of threads that actually executed.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace yaspmv {

/// Default worker count for pooled dispatch (at least 1).  Read once per
/// process: glibc answers hardware_concurrency() by reading sysfs, which
/// costs microseconds, and unordered launches ask on every call.
inline unsigned default_workers() {
  static const unsigned n = [] {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1u : hc;
  }();
  return n;
}

/// A persistent pool of parked worker threads executing one job at a time
/// (ordered ticket or unordered contiguous-range claims — see the file
/// comment).  The submitting thread participates as worker 0; pool
/// threads are workers 1..N.  A launch of `limit` workers wakes workers
/// 1..limit-1 only, and its barrier counts only them.  The pool grows on
/// demand (up to kMaxWorkers) when a launch requests more workers than are
/// parked, so a caller asking for 8 workers gets 8 OS threads even on a
/// smaller machine — exactly what the previous spawn-per-call
/// implementation provided, which the TSan suites rely on to exercise real
/// interleavings.
class WorkPool {
 public:
  static constexpr unsigned kMaxWorkers = 256;

  /// How long a worker waits for its next job, and a submitter for its
  /// barrier, in a spin before parking on a futex.  Bounded by elapsed time,
  /// not by a count of pauses, because `pause` latency ranges from about 10
  /// to 140 cycles across x86 parts.  Chosen on a 4-vCPU AVX-512 KVM guest
  /// (g++ 12.2, glibc 2.36): an empty two-worker launch took 18–19 µs when
  /// it woke its helper through a condition variable, about 9 µs through
  /// the futex, and 1.1–1.5 µs inside the window; a two-thread CG
  /// solve of a 128×128 Poisson system (239 iterations, four launches each)
  /// took 27–28 ms with a 50-µs window, 29–31 ms with 20 µs and 30–31 ms
  /// with 10 µs, against 39–45 ms parking every time.  A longer window only
  /// burns more CPU between sparse launches.
  static constexpr std::chrono::microseconds kSpinWindow{50};

  explicit WorkPool(unsigned workers = 0)
      : slots_(new Slot[kMaxWorkers]), hw_(default_workers()) {
    ensure_workers(workers == 0 ? default_workers() : workers);
  }

  WorkPool(const WorkPool&) = delete;
  WorkPool& operator=(const WorkPool&) = delete;

  ~WorkPool() {
    stop_.store(true);
    for (unsigned w = 1; w <= threads_.size(); ++w) wake(w);
    for (auto& t : threads_) t.join();
  }

  /// Workers available without growing (pool threads + the submitter).
  unsigned workers() const {
    return spawned_.load(std::memory_order_relaxed) + 1;
  }

  /// Queue introspection for admission control: pooled launches currently
  /// executing (0 or 1 — launches are serialized by submit_mu_) plus
  /// submitters parked waiting for the pool.  A serving layer uses this to
  /// size its global in-flight cap and to observe saturation: when
  /// `active_launches() > 1` every additional compute-bound admission only
  /// deepens the queue, it cannot add parallelism.
  unsigned active_launches() const {
    return active_launches_.load(std::memory_order_relaxed);
  }

  /// The process-wide pool used by parallel_for_ordered.
  static WorkPool& shared() {
    static WorkPool pool;
    return pool;
  }

  /// True when the calling thread is currently executing a pool job (either
  /// a pool thread or a submitter inside run_ordered).  Nested submissions
  /// from such a thread run inline.
  static bool on_worker_thread() { return tl_in_job_; }

  /// Runs `body(worker, i)` for i in [0, n); indices are handed out in
  /// increasing order and at most `max_workers` threads participate (worker
  /// ids are < max_workers).  Exceptions thrown by `body` poison the launch
  /// — remaining tickets are still claimed (preserving the ordered-claim
  /// invariant) but their bodies are skipped — and the first one is
  /// rethrown on the submitting thread.
  template <class Body>
  void run_ordered(std::size_t n, unsigned max_workers, Body&& body) {
    if (n == 0) return;
    if (max_workers <= 1 || n == 1 || tl_in_job_) {
      run_inline(n, body);
      return;
    }
    active_launches_.fetch_add(1, std::memory_order_relaxed);
    struct ActiveGuard {
      std::atomic<unsigned>& n;
      ~ActiveGuard() { n.fetch_sub(1, std::memory_order_relaxed); }
    } active_guard{active_launches_};
    std::unique_lock<std::mutex> submit(submit_mu_, std::try_to_lock);
    if (!submit.owns_lock()) {
      // A second OS thread is mid-launch: degrade to inline execution
      // rather than blocking (callers' decompositions do not depend on the
      // executing thread count, so results are identical).
      run_inline(n, body);
      return;
    }
    if (max_workers > kMaxWorkers) max_workers = kMaxWorkers;
    ensure_workers(max_workers);

    std::atomic<std::size_t> ticket{0};
    std::atomic<bool> poisoned{false};
    std::exception_ptr first_error;
    std::mutex err_mu;

    auto runner = [&](unsigned worker) {
      for (;;) {
        const std::size_t i = ticket.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        if (poisoned.load(std::memory_order_acquire)) continue;  // drain
        try {
          body(worker, i);
        } catch (...) {
          std::lock_guard<std::mutex> lk(err_mu);
          if (!first_error) first_error = std::current_exception();
          poisoned.store(true, std::memory_order_release);
        }
      }
    };
    launch(max_workers, runner);
    if (first_error) std::rethrow_exception(first_error);
  }

  /// Runs `body(worker, i)` for i in [0, n) with NO claim-order guarantee:
  /// each participating worker grabs a contiguous batch of indices from an
  /// atomic cursor and executes it, repeating until the range is drained.
  /// Only valid for bodies whose result does not depend on which worker runs
  /// which index or in what order (disjoint writes, no cross-index waiting).
  /// Because no body can wait on another, live threads are capped at the
  /// hardware concurrency: requesting 16 workers on a 4-core box wakes 4
  /// threads (or none — max_workers <= 1 after capping runs inline), while
  /// the caller's decomposition still derives from the requested 16.
  /// Exceptions poison the launch like run_ordered.
  template <class Body>
  void run_unordered(std::size_t n, unsigned max_workers, Body&& body) {
    if (n == 0) return;
    unsigned live = std::min(max_workers, default_workers());
    if (live > kMaxWorkers) live = kMaxWorkers;
    if (live <= 1 || n == 1 || tl_in_job_) {
      run_inline(n, body);
      return;
    }
    active_launches_.fetch_add(1, std::memory_order_relaxed);
    struct ActiveGuard {
      std::atomic<unsigned>& n;
      ~ActiveGuard() { n.fetch_sub(1, std::memory_order_relaxed); }
    } active_guard{active_launches_};
    std::unique_lock<std::mutex> submit(submit_mu_, std::try_to_lock);
    if (!submit.owns_lock()) {
      run_inline(n, body);
      return;
    }
    ensure_workers(live);

    // ~4 batches per live worker: coarse enough that the cursor is touched
    // O(live) times per launch (vs. O(n) ticket bumps in run_ordered), fine
    // enough that a straggler batch cannot serialize the tail.
    const std::size_t batch = (n + live * 4 - 1) / (live * 4);
    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> poisoned{false};
    std::exception_ptr first_error;
    std::mutex err_mu;

    auto runner = [&](unsigned worker) {
      for (;;) {
        const std::size_t lo =
            cursor.fetch_add(batch, std::memory_order_relaxed);
        if (lo >= n) return;
        const std::size_t hi = std::min(n, lo + batch);
        if (poisoned.load(std::memory_order_acquire)) continue;  // drain
        try {
          for (std::size_t i = lo; i < hi; ++i) body(worker, i);
        } catch (...) {
          std::lock_guard<std::mutex> lk(err_mu);
          if (!first_error) first_error = std::current_exception();
          poisoned.store(true, std::memory_order_release);
        }
      }
    };
    launch(live, runner);
    if (first_error) std::rethrow_exception(first_error);
  }

 private:
  struct Job {
    void (*invoke)(void*, unsigned) = nullptr;
    void* ctx = nullptr;
    unsigned limit = 0;  ///< participants are workers 0..limit-1
  };

  /// One pool thread's wake-up word: the submitter bumps it once per job the
  /// thread takes part in (and once at teardown).  A cache line each, so a
  /// spinning worker reads a line only its own wake-ups write.
  struct alignas(64) Slot {
    std::atomic<std::uint32_t> seq{0};
  };

  template <class Body>
  static void run_inline(std::size_t n, Body& body) {
    for (std::size_t i = 0; i < n; ++i) body(0u, i);
  }

  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  /// Returns the first value of `word` that satisfies `done`: spinning for
  /// up to kSpinWindow when `spin`, then parking in std::atomic::wait.  The
  /// clock is read every 64 pauses, not on every one.
  template <class Done>
  static std::uint32_t spin_then_park(const std::atomic<std::uint32_t>& word,
                                      bool spin, Done done) {
    std::uint32_t v = word.load();
    if (spin && !done(v)) {
      const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
      for (unsigned i = 1; !done(v = word.load()); ++i) {
        cpu_relax();
        if (i % 64 == 0 && std::chrono::steady_clock::now() >= deadline) {
          break;
        }
      }
    }
    while (!done(v)) {
      word.wait(v);
      v = word.load();
    }
    return v;
  }

  /// Hands worker `w` its next job (or the stop signal).  The bump is a
  /// sequentially consistent RMW, which std::atomic::notify_one needs to
  /// see a worker that is just entering its wait.
  void wake(unsigned w) {
    slots_[w].seq.fetch_add(1);
    slots_[w].seq.notify_one();
  }

  /// Publishes `runner` to workers 1..limit-1, runs it as worker 0 on the
  /// calling thread, and waits until those participants have finished.
  /// Caller holds submit_mu_ and has already sized the pool.
  template <class Runner>
  void launch(unsigned limit, Runner& runner) {
    job_.invoke = [](void* ctx, unsigned worker) {
      (*static_cast<Runner*>(ctx))(worker);
    };
    job_.ctx = &runner;
    job_.limit = limit;
    pending_.store(limit - 1);
    for (unsigned w = 1; w < limit; ++w) wake(w);

    tl_in_job_ = true;
    runner(0);
    tl_in_job_ = false;

    spin_then_park(pending_, limit <= hw_,
                   [](std::uint32_t v) { return v == 0; });
  }

  /// Grows the pool so `total` workers (including the submitter) exist.
  /// Only called while no job is in flight (constructor, or under
  /// submit_mu_ before the job is published).  A new thread starts from
  /// seq 0, so a job published before it first runs is not missed.
  void ensure_workers(unsigned total) {
    if (total > kMaxWorkers) total = kMaxWorkers;
    while (threads_.size() + 1 < total) {
      const auto id = static_cast<unsigned>(threads_.size()) + 1;
      threads_.emplace_back([this, id] { worker_main(id); });
      spawned_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void worker_main(unsigned id) {
    const std::atomic<std::uint32_t>& seq = slots_[id].seq;
    std::uint32_t seen = 0;
    bool spin = false;  // parked until the first job
    for (;;) {
      seen = spin_then_park(seq, spin,
                            [seen](std::uint32_t v) { return v != seen; });
      if (stop_.load()) return;
      // Copy the job before the barrier: once pending_ reaches 0 the
      // submitter may publish the next one.
      const Job job = job_;
      tl_in_job_ = true;
      job.invoke(job.ctx, id);
      tl_in_job_ = false;
      // Wait hot for the next job only when this one fit the hardware; a
      // spinning helper of an oversubscribed launch would take a core from
      // a worker that still holds tickets.
      spin = job.limit <= hw_;
      if (pending_.fetch_sub(1) == 1) pending_.notify_one();
    }
  }

  inline static thread_local bool tl_in_job_ = false;

  std::unique_ptr<Slot[]> slots_;  ///< indexed by worker id (slot 0 unused)
  const unsigned hw_;              ///< default_workers(): launches that fit spin
  std::mutex submit_mu_;           ///< serializes launches (one job at a time)
  Job job_;                        ///< published to participants by wake()
  alignas(64) std::atomic<std::uint32_t> pending_{0};  ///< participants left
  std::atomic<bool> stop_{false};
  std::atomic<unsigned> active_launches_{0};
  std::atomic<unsigned> spawned_{0};  ///< threads_.size(), for workers()
  std::vector<std::thread> threads_;  ///< grown only with no job in flight
};

/// Runs `body(worker, i)` for i in [0, n) on the shared WorkPool using up to
/// `workers` threads; the first argument identifies the executing worker in
/// [0, workers).  Indices are handed out in increasing order.  `workers <= 1`
/// (or n == 1) degenerates to a plain sequential loop on the calling thread,
/// which keeps unit tests deterministic.
template <class Body>
inline void parallel_for_ordered(std::size_t n, unsigned workers, Body&& body) {
  if (n == 0) return;
  if (workers <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(0u, i);
    return;
  }
  WorkPool::shared().run_ordered(n, workers, std::forward<Body>(body));
}

/// Runs `body(worker, i)` for i in [0, n) on the shared WorkPool with no
/// claim-order guarantee and at most min(workers, hardware) live threads.
/// Only for bodies whose result is independent of claim order and executing
/// thread (disjoint writes, no cross-index waiting); under that contract the
/// output is bitwise identical to parallel_for_ordered at the same
/// `workers`.  `workers <= 1` (or n == 1) degenerates to a sequential loop.
template <class Body>
inline void parallel_for_unordered(std::size_t n, unsigned workers,
                                   Body&& body) {
  if (n == 0) return;
  if (workers <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(0u, i);
    return;
  }
  WorkPool::shared().run_unordered(n, workers, std::forward<Body>(body));
}

}  // namespace yaspmv
