// Client side of the serving protocol: a thin synchronous library over one
// Unix-domain connection.  One Client = one connection = one outstanding
// request (the protocol is strictly request/reply per connection); it is NOT
// thread-safe — concurrent callers each open their own Client, which is also
// how they get real server-side concurrency.
//
// Error model: transport and framing problems throw typed SpmvErrors
// (IoError / FormatInvalid) — the connection is unusable afterwards.
// *Application* outcomes (overloaded, deadline expired, faulted, ...) never
// throw: they come back in the result's ReplyStatus so a caller can program
// against the taxonomy, retry, or degrade.  spmv/solve optionally retry
// kOverloaded themselves with exponential backoff (RequestOptions::retries).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "yaspmv/formats/coo.hpp"
#include "yaspmv/serve/protocol.hpp"

namespace yaspmv::serve {

struct RequestOptions {
  std::uint32_t deadline_ms = 0;  ///< 0 = no deadline
  int retries = 0;                ///< extra attempts after kOverloaded
  /// First backoff; doubles per retry up to 1s.  Each sleep is *jittered*
  /// (uniform in [backoff/2, backoff]) so clients rejected by the same
  /// overload burst spread out instead of re-arriving in lockstep.
  int backoff_ms = 10;
  Inject inject = Inject::kNone;  ///< test hook (server must enable_inject)
  std::uint32_t inject_arg = 0;
  /// Run this request checksum-verified: the apply (or every solver apply)
  /// is checked against the format's ABFT column checksums, and detected
  /// corruption is recovered or surfaced as kFaulted/kIntegrityFault —
  /// never returned as a silently wrong y.
  bool verified = false;
};

struct RegisterResult {
  ReplyStatus status;
  std::uint64_t matrix_id = 0;
  bool warm = false;              ///< plan came from the durable cache
  bool newly_registered = false;  ///< this call created the entry
  double tuning_seconds = 0;      ///< cold: spent now; warm: what was saved
  double register_seconds = 0;    ///< registration wall clock on the server
  std::int32_t rows = 0, cols = 0;
  int evaluated = 0;
  /// Kernel id the stored plan dispatches to on the native backend
  /// ("grid/..." specialization or "generic").
  std::string kernel;
};

struct SpmvResult {
  ReplyStatus status;
  std::vector<real_t> y;
  std::uint32_t attempts = 0;     ///< kernel applies the ladder ran
  std::uint32_t ladder_step = 0;
  bool recovered = false;
  bool verified = false;
  std::string path;               ///< label of the rung that produced y
  struct Fault {
    Status status = Status::kOk;
    std::string path;
    std::string journal_file;  ///< always "" from the native ladder
  };
  std::vector<Fault> faults;
  int admission_attempts = 1;     ///< client-side tries incl. overload retries

  bool ok() const { return status.status == ServeStatus::kOk; }
};

struct SolveResult {
  ReplyStatus status;
  std::vector<real_t> x;
  std::uint32_t iterations = 0;
  bool converged = false;
  double rel_residual = 0;
  bool verified = false;                 ///< ran on the self-checking solvers
  std::uint32_t integrity_faults = 0;    ///< checksum mismatches caught
  std::uint32_t rollbacks = 0;           ///< checkpoint restores performed
  int admission_attempts = 1;

  bool ok() const { return status.status == ServeStatus::kOk; }
};

/// Server counters as reported by a kStats request (mirrors ServerStats
/// without pulling the server's threading machinery into client builds).
struct StatsSnapshot {
  ReplyStatus status;
  std::uint64_t accepted = 0, completed = 0, overloaded = 0,
                deadline_expired = 0, faulted = 0, recovered = 0,
                protocol_errors = 0, disconnects = 0, shed_on_drain = 0,
                registered = 0, plan_cache_hits = 0, plan_cache_misses = 0,
                inflight = 0, verified_requests = 0, integrity_faults = 0,
                integrity_recovered = 0, executors = 0, apply_threads = 0,
                grid_plans = 0, generic_plans = 0, stream_registered = 0,
                stream_applies = 0;
};

class Client {
 public:
  /// Connects immediately; throws IoError when the socket is not there.
  explicit Client(std::string socket_path);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Polls connect() until the daemon answers or `timeout_ms` elapses —
  /// the standard "wait for the server to come up" helper for tests and
  /// scripted clients.  Returns false on timeout.
  static bool wait_for_server(const std::string& socket_path, int timeout_ms);

  /// Registers (or re-finds) a matrix; the server tunes on a cache miss.
  RegisterResult register_matrix(const fmt::Coo& a, bool force_retune = false);

  /// Registers a matrix by container *path*: the server mmaps the .bccoo
  /// file (verifying its checksum) and serves applies out-of-core, tile by
  /// tile — the matrix never loads into server memory.  The id is the
  /// file's payload checksum; kernel comes back "stream/tile".
  RegisterResult register_path(const std::string& file_path);

  /// y = A x through the server's native kernel ladder.
  SpmvResult spmv(std::uint64_t matrix_id, std::span<const real_t> x,
                  const RequestOptions& opt = {});

  /// Iterative solve; `solver` is 1 = cg, 2 = bicgstab.
  SolveResult solve(std::uint64_t matrix_id, std::span<const real_t> b,
                    int solver, double tol = 1e-10,
                    std::uint32_t max_iters = 1000,
                    const RequestOptions& opt = {});

  StatsSnapshot stats();

  /// Asks the server to drain (same path as SIGTERM).  Returns the ack
  /// status; the server finishes in-flight work before exiting.
  ReplyStatus shutdown_server();

  int fd() const { return fd_; }
  /// Hard-closes the connection (mid-request disconnects in the chaos tests).
  void close();

 private:
  std::vector<std::uint8_t> roundtrip(MsgType type,
                                      const std::vector<std::uint8_t>& payload);

  std::string path_;
  int fd_ = -1;
};

}  // namespace yaspmv::serve
