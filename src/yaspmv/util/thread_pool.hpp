// Persistent worker pool shared by every native execution path: the CPU
// SpMV/SpMM kernels, the parallel CSR baseline, the solvers' vector ops, the
// simulator's workgroup dispatcher and the parallel auto-tuner all run on
// the same parked OS threads instead of paying a std::thread spawn/join
// cycle per call.
//
// Two dispatch modes share the parked threads:
//
//   run_ordered    work items are claimed strictly in order from an atomic
//                  ticket counter, mirroring the paper's in-order
//                  workgroup-dispatch assumption (Section 3.2.4): the
//                  adjacent-synchronization chain cannot deadlock because
//                  workgroup X is only executed after workgroup X-1 has been
//                  *claimed* by some worker.  Every requested worker, up to
//                  one per item, gets a real OS thread (a body may spin on
//                  another body's progress, so parking a requested worker
//                  could deadlock).
//
//   run_unordered  owner computes: no claims at all.  With
//                  live = min(requested, hardware, n) participants, worker w
//                  runs indices [w·n/live, (w+1)·n/live) in increasing
//                  order, worker 0 being the submitter.  Only valid for
//                  bodies whose result is independent of which thread runs
//                  which index (disjoint writes, no cross-body waiting) —
//                  which is what lets the pool cap live threads at the
//                  hardware concurrency.  Callers derive their
//                  decomposition from the *requested* count, so results
//                  stay bitwise reproducible per requested count, and the
//                  map is a fixed function of (n, requested): a caller that
//                  cuts the same n items every call (the apply's chunks, the
//                  solver's vector chunks) finds each worker's data in that
//                  worker's cache on the next call (bsg_replicant's
//                  `for (i = __bsg_id; i < n; i += THREADS)`, in ranges).
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
// worker's loop.  Nested submissions (a body that itself calls
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
/// (ordered tickets or the unordered owner map — see the file comment).
/// The submitting thread participates as worker 0; pool threads are
/// workers 1..N.  A launch of `limit` workers wakes workers 1..limit-1
/// only, and its barrier counts only them.  The pool grows on demand (up to
/// kMaxWorkers) when a launch requests more workers than are parked, so an
/// ordered launch asking for 8 workers gets 8 OS threads even on a smaller
/// machine, which the TSan suites rely on to exercise real interleavings.
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

  /// The process-wide pool behind the parallel_for_* helpers.
  static WorkPool& shared() {
    static WorkPool pool;
    return pool;
  }

  /// True when the calling thread is currently executing a pool job (either
  /// a pool thread or a submitter inside run_ordered).  Nested submissions
  /// from such a thread run inline.
  static bool on_worker_thread() { return tl_in_job_; }

  /// Runs `body(worker, i)` for i in [0, n); indices are handed out in
  /// increasing order and at most min(max_workers, n) threads participate
  /// (worker ids are below that).  Exceptions thrown by `body` poison the
  /// launch — remaining tickets are still claimed (preserving the
  /// ordered-claim invariant) but their bodies are skipped — and the first
  /// one is rethrown on the submitting thread.
  template <class Body>
  void run_ordered(std::size_t n, unsigned max_workers, Body&& body) {
    // n workers cover n items: ticket i-1 is claimed before ticket i, so an
    // extra worker would only wake to find the counter drained.
    const auto limit = static_cast<unsigned>(
        std::min<std::size_t>({max_workers, kMaxWorkers, n}));
    std::atomic<std::size_t> ticket{0};
    Poison poison;
    auto runner = [&](unsigned worker) {
      for (;;) {
        const std::size_t i = ticket.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        if (poison.set()) continue;  // drain
        try {
          body(worker, i);
        } catch (...) {
          poison.record();
        }
      }
    };
    submit(n, limit, runner, body, poison);
  }

  /// Runs `body(worker, i)` for i in [0, n) under a fixed owner map: with
  /// live = min(max_workers, default_workers(), n) participants, worker w
  /// runs exactly the indices [w·n/live, (w+1)·n/live), in increasing
  /// order; worker 0 is the submitter.  The map is a pure function of
  /// (n, max_workers), so launches that repeat a decomposition give each
  /// worker the same indices every time.  Only valid for bodies whose
  /// result does not depend on which worker runs which index (disjoint
  /// writes, no cross-index waiting); since no body waits on another, live
  /// threads are capped at the hardware concurrency while the caller's
  /// decomposition still derives from the requested count.  A nested or
  /// concurrent submission runs every index inline as worker 0.  After a
  /// body throws, the other workers skip their remaining indices, and the
  /// first exception is rethrown on the submitting thread.
  template <class Body>
  void run_unordered(std::size_t n, unsigned max_workers, Body&& body) {
    const auto live = static_cast<unsigned>(std::min<std::size_t>(
        {max_workers, default_workers(), kMaxWorkers, n}));
    Poison poison;
    auto runner = [&](unsigned worker) {
      const std::size_t hi = (worker + 1) * n / live;
      try {
        for (std::size_t i = worker * n / live; i < hi && !poison.set(); ++i) {
          body(worker, i);
        }
      } catch (...) {
        poison.record();
      }
    };
    submit(n, live, runner, body, poison);
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

  /// The first exception a launch's bodies threw; once it is recorded the
  /// remaining bodies are skipped.
  struct Poison {
    std::atomic<bool> flag{false};
    std::exception_ptr first;
    std::mutex mu;
    bool set() const { return flag.load(std::memory_order_acquire); }
    void record() {
      std::lock_guard<std::mutex> lk(mu);
      if (!first) first = std::current_exception();
      flag.store(true, std::memory_order_release);
    }
  };

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

  /// Runs `runner` as a launch of `limit` participants, or `body` inline
  /// over [0, n) as worker 0 when the launch cannot be pooled: one
  /// participant, a nested job, or another OS thread mid-launch (the
  /// callers' decompositions do not depend on the executing thread count,
  /// so the results are the same).  Rethrows the launch's first exception.
  template <class Runner, class Body>
  void submit(std::size_t n, unsigned limit, Runner& runner, Body& body,
              Poison& poison) {
    if (n == 0) return;
    std::unique_lock<std::mutex> lock(submit_mu_, std::defer_lock);
    if (limit <= 1 || tl_in_job_ || !lock.try_lock()) {
      for (std::size_t i = 0; i < n; ++i) body(0u, i);
      return;
    }
    ensure_workers(limit);
    launch(limit, runner);
    if (poison.first) std::rethrow_exception(poison.first);
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

/// Runs `body(worker, i)` for i in [0, n) on the shared WorkPool under
/// WorkPool::run_unordered's owner map: worker w of
/// live = min(workers, hardware, n) runs [w·n/live, (w+1)·n/live) in
/// increasing order, the same indices on every call with the same
/// (n, workers).  Only for bodies whose result is independent of the
/// executing thread (disjoint writes, no cross-index waiting); under that
/// contract the output is bitwise identical to parallel_for_ordered at the
/// same `workers`.  `workers <= 1` (or n == 1) degenerates to a sequential
/// loop.
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
