// The yaspmv serving daemon: a long-lived process serving spmv/solve
// requests for registered matrices over a Unix-domain socket (ROADMAP item
// 1, "SpMV-as-a-service").  Robustness is the design center:
//
//   * admission control + backpressure — a bounded per-matrix queue plus a
//     global in-flight cap sized off the shared WorkPool; a request that
//     does not fit is rejected with kOverloaded immediately, it never
//     queues unboundedly or hangs;
//   * per-request deadlines — a deadline that expires while the request is
//     queued drops it at dequeue with kDeadlineExpired; an apply that has
//     started always runs to completion (cooperative cancellation: never
//     mid-apply);
//   * fault isolation — every in-memory spmv runs on the native kernels
//     through cpu::SpmvLadder (the plan's kernel, the pinned generic
//     kernel, then parallel CSR), so a poisoned request (NaN policy
//     violation, a checksum-detected bit flip) degrades down the ladder or
//     returns a typed error to *its* client; the process and every other
//     request keep going;
//   * durable plans — registration consults the crash-safe PlanCache before
//     tuning, so a restarted daemon skips straight to serving; cold tunes of
//     different matrices take turns, since each sweep wants the whole pool;
//   * graceful drain — stop() (SIGTERM in the daemon binary) stops
//     admissions, finishes queued work under a watchdog timeout (leftover
//     requests get kShuttingDown, never silence), and exits cleanly.
//
// Threading model: one accept thread, one thread per connection (the
// protocol is synchronous per connection: one outstanding request), and a
// small executor pool draining per-matrix queues.  A matrix's requests are
// serialized (its ladder is single-threaded state); different matrices run
// in parallel across executors.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "yaspmv/formats/coo.hpp"
#include "yaspmv/serve/plan_cache.hpp"
#include "yaspmv/serve/protocol.hpp"
#include "yaspmv/sim/device.hpp"

namespace yaspmv::serve {

struct ServerOptions {
  std::string socket_path;       ///< required: Unix-domain socket to bind
  std::string plan_cache_dir;    ///< "" = PlanCache::default_dir()
  std::string device = "gtx680"; ///< tuning target: gtx680 | gtx480
  unsigned executors = 0;        ///< 0 = min(4, shared WorkPool workers)
  std::size_t queue_capacity = 64;  ///< bounded per-matrix queue
  std::size_t max_inflight = 0;  ///< global queued+running cap;
                                 ///< 0 = 4 * WorkPool::shared().workers()
  int drain_timeout_ms = 5000;   ///< watchdog on the graceful drain
  /// Checksum-verify EVERY request (ABFT column checksums + self-checking
  /// solvers), as if each carried the protocol `verified` flag.  Individual
  /// requests can still opt in when this is off; they cannot opt out when
  /// it is on.
  bool verified = false;
  /// Per-frame payload cap enforced before any allocation; 0 = the
  /// protocol-wide kMaxFramePayload.  Deployments that never register big
  /// matrices set this low so a hostile length field is rejected outright.
  std::uint64_t max_frame_bytes = 0;
  unsigned tune_workers = 0;     ///< forwarded to tune() on a cache miss
  bool enable_inject = false;    ///< honor per-request Inject test hooks
  bool tune_on_register = true;  ///< false: skip tuning, serve default config
  /// Native-backend threads per apply.  The default 1 keeps request-level
  /// parallelism coming from concurrent executors; raising it makes each
  /// apply use the carry-chain-free multi-thread path (and tunes rank at
  /// this count on cache misses), for deployments with few large matrices
  /// and low concurrency.
  unsigned apply_threads = 1;
};

/// Monotonic counters, readable while the server runs (kStats replies and
/// in-process tests read a consistent snapshot).
struct ServerStats {
  std::uint64_t accepted = 0;          ///< requests admitted to a queue
  std::uint64_t completed = 0;         ///< applies that ran (ok or faulted)
  std::uint64_t overloaded = 0;        ///< admission rejections
  std::uint64_t deadline_expired = 0;  ///< dropped at dequeue
  std::uint64_t faulted = 0;           ///< typed errors returned to clients
  std::uint64_t recovered = 0;         ///< applies that needed the ladder
  std::uint64_t protocol_errors = 0;   ///< unreadable frames
  std::uint64_t disconnects = 0;       ///< peers gone mid-request/mid-reply
  std::uint64_t shed_on_drain = 0;     ///< queued requests answered
                                       ///< kShuttingDown by the watchdog
  std::uint64_t registered = 0;        ///< distinct matrices
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;
  std::uint64_t inflight = 0;          ///< snapshot: queued + executing now
  std::uint64_t verified_requests = 0;   ///< ran under the ABFT checksum
  std::uint64_t integrity_faults = 0;    ///< checksum mismatches detected
  std::uint64_t integrity_recovered = 0; ///< requests that detected AND still
                                         ///< returned a verified-correct reply
  // Static configuration mirrored into the stats reply so serving benches
  // can correlate latency with the execution shape (appended last: older
  // clients reading a prefix of the frame stay compatible).
  std::uint64_t executors = 0;           ///< executor pool size
  std::uint64_t apply_threads = 0;       ///< native threads per apply
  // Kernel-dispatch attribution (specialization grid, cpu/kernels_grid.hpp):
  // how many registered matrices' plans dispatch to a specialized grid
  // kernel vs the generic one.  Appended last, same prefix-compatibility
  // rule as above.
  std::uint64_t grid_plans = 0;          ///< plans on a "grid/..." kernel
  std::uint64_t generic_plans = 0;       ///< plans on the generic kernel
  // Streaming execution shape (appended last, same rule as above).
  std::uint64_t stream_registered = 0;   ///< matrices served out-of-core
                                         ///< (registered by path, mmapped)
  std::uint64_t stream_applies = 0;      ///< applies run off a mapped file
};

class Server {
 public:
  explicit Server(ServerOptions opt);
  ~Server();  ///< stops (graceful drain) if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and spawns accept + executor threads.  Throws IoError
  /// when the socket cannot be bound.
  void start();

  /// Graceful drain: stop admissions, finish queued work under the drain
  /// watchdog, flush the plan cache directory state, join every thread and
  /// close the socket.  Idempotent.
  void stop();

  /// Async-signal-safe stop request (the SIGTERM handler calls this); the
  /// thread blocked in wait() picks it up and performs the actual drain.
  void request_stop() { stop_requested_.store(true, std::memory_order_release); }
  bool stop_requested() const {
    return stop_requested_.load(std::memory_order_acquire);
  }

  /// Blocks until request_stop() (or stop()) happens, then drains.  The
  /// daemon binary's main loop.
  void wait();

  bool running() const { return running_.load(std::memory_order_acquire); }
  const ServerOptions& options() const { return opt_; }
  const std::string& socket_path() const { return opt_.socket_path; }
  PlanCache& plan_cache() { return plan_cache_; }

  ServerStats stats() const;

 private:
  struct Pending;
  struct MatrixEntry;
  struct Connection;

  void accept_loop();
  void executor_loop();
  void connection_loop(Connection* conn);
  void reap_finished_connections();

  // Request handlers (called on connection threads).
  std::vector<std::uint8_t> handle_register(WireReader& r);
  std::vector<std::uint8_t> handle_register_path(WireReader& r);
  std::vector<std::uint8_t> handle_request(MsgType type, WireReader& r);
  std::vector<std::uint8_t> handle_stats();

  // Executor-side processing of one dequeued request.  run_spmv/run_solve
  // build the success reply but do not fulfil the promise — process() bumps
  // the stats counters first, so a client that sees the reply also sees
  // this request reflected in kStats.
  void process(MatrixEntry& m, Pending& p);
  std::vector<std::uint8_t> run_spmv(MatrixEntry& m, Pending& p);
  std::vector<std::uint8_t> run_solve(MatrixEntry& m, Pending& p);

  std::shared_ptr<MatrixEntry> find_matrix(std::uint64_t id);
  static std::vector<std::uint8_t> error_reply(ServeStatus s, Status code,
                                               const std::string& detail);

  ServerOptions opt_;
  sim::DeviceSpec dev_;
  PlanCache plan_cache_;
  int listen_fd_ = -1;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> stop_executors_{false};

  // Registry of matrices (guarded by reg_mu_; entries outlive the lock via
  // shared_ptr so a request can use one while another registers).
  mutable std::mutex reg_mu_;
  std::condition_variable reg_cv_;  ///< signaled when a registration finishes
  std::map<std::uint64_t, std::shared_ptr<MatrixEntry>> matrices_;
  std::mutex tune_mu_;  ///< held around a cache-miss tune::tune call only

  // Dispatch state (guarded by disp_mu_).
  mutable std::mutex disp_mu_;
  std::condition_variable work_cv_;   ///< executors wait here
  std::condition_variable drain_cv_;  ///< stop() waits for inflight == 0
  std::deque<MatrixEntry*> ready_;    ///< matrices with claimable work
  std::size_t inflight_ = 0;          ///< queued + executing
  std::size_t executing_ = 0;

  mutable std::mutex stats_mu_;
  ServerStats stats_;

  std::thread accept_thread_;
  std::vector<std::thread> executor_threads_;
  std::mutex conn_mu_;
  std::list<std::unique_ptr<Connection>> connections_;
};

}  // namespace yaspmv::serve
