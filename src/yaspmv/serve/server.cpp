#include "yaspmv/serve/server.hpp"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <limits>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "yaspmv/cpu/ladder.hpp"
#include "yaspmv/cpu/stream_spmv.hpp"
#include "yaspmv/io/stream.hpp"
#include "yaspmv/sim/fault.hpp"
#include "yaspmv/solvers/solvers.hpp"
#include "yaspmv/tune/tuner.hpp"
#include "yaspmv/util/stopwatch.hpp"
#include "yaspmv/util/thread_pool.hpp"

namespace yaspmv::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::string hex_id(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(id));
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// Internal structures
// ---------------------------------------------------------------------------

/// One admitted request parked in a matrix queue.  The connection thread
/// waits on `done`; an executor (or the drain watchdog) fulfills it with the
/// fully serialized reply payload.
struct Server::Pending {
  MsgType type = MsgType::kSpmv;
  Clock::time_point arrival;
  std::uint32_t deadline_ms = 0;   ///< 0 = no deadline
  Inject inject = Inject::kNone;
  std::uint32_t inject_arg = 0;
  bool verified = false;  ///< request asked for a checksum-verified run
  // spmv fields
  std::vector<real_t> x;
  // solve fields
  std::uint8_t solver = 0;  ///< 1 = cg, 2 = bicgstab
  double tol = 1e-10;
  std::uint32_t max_iters = 1000;
  std::promise<std::vector<std::uint8_t>> done;

  bool deadline_passed(Clock::time_point now) const {
    return deadline_ms != 0 &&
           now - arrival > std::chrono::milliseconds(deadline_ms);
  }
};

struct Server::MatrixEntry {
  std::uint64_t id = 0;
  std::int32_t rows = 0, cols = 0;
  tune::Candidate plan;
  bool plan_from_cache = false;
  double tuning_seconds = 0;   ///< cold: measured; warm: stored in the plan
  double register_seconds = 0; ///< wall clock of this process's registration
  int evaluated = 0;

  // Registration state, guarded by Server::reg_mu_.
  bool ready = false;
  std::string error;  ///< non-empty: registration failed, entry is a tombstone

  // Execution state.  The ladder and operator are single-threaded by
  // design; `busy` (under disp_mu_) guarantees at most one executor touches
  // them at a time.  The ladder owns the registered matrix and the one
  // format spmv and solve share; `op` is built on the first solve and
  // rebuilt whenever an integrity rebuild replaced that format.
  std::unique_ptr<cpu::SpmvLadder> ladder;
  std::unique_ptr<solver::CpuOperator> op;

  // Out-of-core entries (registered by path): the matrix stays in the
  // mapped file, there is no ladder, and applies stream tile by tile.
  bool streamed = false;
  std::shared_ptr<const io::MappedBccoo> mapped;
  std::unique_ptr<cpu::CpuStreamSpmv> stream;

  // Queue state, guarded by Server::disp_mu_.
  std::deque<std::unique_ptr<Pending>> queue;
  bool busy = false;
  bool in_ready = false;
};

struct Server::Connection {
  // fd is set once by the accept loop and closed by whichever side joins
  // the connection thread (reaper or stop()) — never by the connection
  // thread itself.  That keeps the fd valid for the duration of the
  // thread, so stop()'s shutdown() can never race a close()/reuse.
  int fd = -1;
  std::thread thread;
  std::atomic<bool> finished{false};
};

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

Server::Server(ServerOptions opt)
    : opt_(std::move(opt)),
      dev_(opt_.device == "gtx480" ? sim::gtx480() : sim::gtx680()),
      plan_cache_(opt_.plan_cache_dir) {
  const unsigned pool_workers = WorkPool::shared().workers();
  if (opt_.executors == 0) {
    // At least two so a slow matrix cannot starve every other matrix; no
    // more than four — applies are compute-bound and anything beyond the
    // pool's parallelism only adds context switching.
    opt_.executors = std::max(2u, std::min(4u, pool_workers));
  }
  if (opt_.max_inflight == 0) {
    // Sized off the WorkPool: enough queued work to keep every worker busy
    // through a full queue/dequeue cycle, small enough that latency under
    // overload stays bounded (backpressure does the rest).
    opt_.max_inflight = static_cast<std::size_t>(4) * pool_workers;
  }
  opt_.max_inflight = std::max<std::size_t>(opt_.max_inflight, opt_.executors);
  if (opt_.apply_threads == 0) opt_.apply_threads = 1;
}

Server::~Server() { stop(); }

void Server::start() {
  require(!opt_.socket_path.empty(), "serve: socket_path is required");
  require(!running_.load(), "serve: already started");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  require(opt_.socket_path.size() < sizeof(addr.sun_path),
          "serve: socket path too long for AF_UNIX");
  std::strncpy(addr.sun_path, opt_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw IoError(std::string("serve: socket: ") + std::strerror(errno));
  }
  // A stale socket file from a crashed daemon would make bind fail forever;
  // replacing it is the standard daemon idiom.  A *live* daemon on the same
  // path loses its socket — callers pick unique paths per instance.
  ::unlink(opt_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    const int e = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw IoError("serve: bind(" + opt_.socket_path + "): " +
                  std::strerror(e));
  }
  if (::listen(listen_fd_, 128) < 0) {
    const int e = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw IoError(std::string("serve: listen: ") + std::strerror(e));
  }

  plan_cache_.sweep_stale_temps();

  draining_.store(false);
  stop_executors_.store(false);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  executor_threads_.reserve(opt_.executors);
  for (unsigned i = 0; i < opt_.executors; ++i) {
    executor_threads_.emplace_back([this] { executor_loop(); });
  }
}

void Server::wait() {
  while (!stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  stop();
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  draining_.store(true, std::memory_order_release);

  // Phase 1 — drain: wait for queued + executing work under the watchdog.
  {
    std::unique_lock<std::mutex> lk(disp_mu_);
    drain_cv_.wait_for(lk, std::chrono::milliseconds(opt_.drain_timeout_ms),
                       [&] { return inflight_ == 0; });
  }

  // Phase 2 — watchdog: shed whatever is still *queued* with a typed
  // kShuttingDown (never silence).  Applies already executing run to
  // completion below — cancellation is cooperative, never mid-apply.
  std::vector<std::shared_ptr<MatrixEntry>> entries;
  {
    std::lock_guard<std::mutex> rlk(reg_mu_);
    entries.reserve(matrices_.size());
    for (auto& [id, m] : matrices_) entries.push_back(m);
  }
  {
    std::lock_guard<std::mutex> lk(disp_mu_);
    std::size_t shed = 0;
    for (auto& m : entries) {
      while (!m->queue.empty()) {
        auto p = std::move(m->queue.front());
        m->queue.pop_front();
        p->done.set_value(error_reply(ServeStatus::kShuttingDown, Status::kOk,
                                      "server draining: request shed by the "
                                      "drain watchdog"));
        --inflight_;
        ++shed;
      }
      m->in_ready = false;
    }
    ready_.clear();
    if (shed > 0) {
      std::lock_guard<std::mutex> slk(stats_mu_);
      stats_.shed_on_drain += shed;
    }
  }
  // In-flight applies finish; executors then see stop_executors_.
  {
    std::unique_lock<std::mutex> lk(disp_mu_);
    drain_cv_.wait(lk, [&] { return inflight_ == 0; });
  }
  stop_executors_.store(true, std::memory_order_release);
  work_cv_.notify_all();
  for (auto& t : executor_threads_) t.join();
  executor_threads_.clear();

  // Phase 3 — transport teardown: stop accepting, wake blocked readers.
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(opt_.socket_path.c_str());
  }
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    for (auto& c : connections_) {
      // SHUT_RD, not SHUT_RDWR: wake threads blocked in read_frame with a
      // clean EOF while letting a thread that is mid-way through writing a
      // shed kShuttingDown reply finish the write — every admitted request
      // gets its typed answer delivered, not reset.
      if (c->fd >= 0) ::shutdown(c->fd, SHUT_RD);
    }
  }
  for (;;) {
    std::unique_ptr<Connection> victim;
    {
      std::lock_guard<std::mutex> lk(conn_mu_);
      if (connections_.empty()) break;
      victim = std::move(connections_.front());
      connections_.pop_front();
    }
    if (victim->thread.joinable()) victim->thread.join();
    if (victim->fd >= 0) ::close(victim->fd);
  }

  // Phase 4 — flush the plan-cache directory: plans are written through at
  // registration (atomic rename), so the flush is garbage collection of
  // temp files from any writer that died mid-store.
  plan_cache_.sweep_stale_temps();
}

ServerStats Server::stats() const {
  ServerStats out;
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    out = stats_;
  }
  out.executors = opt_.executors;
  out.apply_threads = opt_.apply_threads;
  {
    std::lock_guard<std::mutex> lk(disp_mu_);
    out.inflight = inflight_;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Accept + connection threads
// ---------------------------------------------------------------------------

void Server::accept_loop() {
  while (!draining_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int r = ::poll(&pfd, 1, 200);
    reap_finished_connections();
    if (r <= 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    if (draining_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lk(conn_mu_);
      connections_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { connection_loop(raw); });
  }
}

void Server::reap_finished_connections() {
  std::vector<std::unique_ptr<Connection>> dead;
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->finished.load(std::memory_order_acquire)) {
        dead.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& c : dead) {
    if (c->thread.joinable()) c->thread.join();
    if (c->fd >= 0) ::close(c->fd);
  }
}

void Server::connection_loop(Connection* conn) {
  for (;;) {
    Frame f;
    try {
      const std::uint64_t cap =
          opt_.max_frame_bytes != 0 ? opt_.max_frame_bytes : kMaxFramePayload;
      if (!read_frame(conn->fd, f, cap)) break;  // clean EOF between frames
    } catch (const FormatInvalid& e) {
      // Unreadable frame: answer with a typed protocol error when the
      // socket still writes, then drop the connection — the stream offset
      // is unrecoverable after a framing failure.
      {
        std::lock_guard<std::mutex> lk(stats_mu_);
        stats_.protocol_errors++;
      }
      try {
        write_frame(conn->fd, MsgType::kStats,
                    error_reply(ServeStatus::kProtocolError,
                                Status::kFormatInvalid, e.what()));
      } catch (const IoError&) {
      }
      break;
    } catch (const IoError&) {
      // Peer vanished mid-frame (or transport error): nothing to answer.
      std::lock_guard<std::mutex> lk(stats_mu_);
      stats_.disconnects++;
      break;
    }

    std::vector<std::uint8_t> reply;
    try {
      WireReader r(f.payload);
      switch (f.type) {
        case MsgType::kRegister:
          reply = handle_register(r);
          break;
        case MsgType::kRegisterPath:
          reply = handle_register_path(r);
          break;
        case MsgType::kSpmv:
        case MsgType::kSolve:
          reply = handle_request(f.type, r);
          break;
        case MsgType::kStats:
          reply = handle_stats();
          break;
        case MsgType::kShutdown: {
          request_stop();
          WireWriter w;
          put_reply_status(w, {ServeStatus::kOk, Status::kOk, "draining"});
          reply = w.take();
          break;
        }
        default:
          reply = error_reply(ServeStatus::kBadRequest, Status::kOk,
                              "unknown message type " +
                                  std::to_string(static_cast<int>(f.type)));
      }
    } catch (const IoError& e) {
      // Truncated/lying payload fields inside a well-framed message.
      {
        std::lock_guard<std::mutex> lk(stats_mu_);
        stats_.protocol_errors++;
      }
      reply = error_reply(ServeStatus::kProtocolError, Status::kIoError,
                          e.what());
    } catch (const std::invalid_argument& e) {
      reply = error_reply(ServeStatus::kBadRequest, Status::kOk, e.what());
    } catch (const SpmvError& e) {
      reply = error_reply(ServeStatus::kFaulted, e.code(), e.what());
    } catch (const std::exception& e) {
      reply = error_reply(ServeStatus::kInternal, Status::kOk, e.what());
    }

    try {
      write_frame(conn->fd, f.type, reply);
    } catch (const IoError&) {
      // Client disconnected before reading its reply; the work is done and
      // the server moves on.
      std::lock_guard<std::mutex> lk(stats_mu_);
      stats_.disconnects++;
      break;
    }
  }
  conn->finished.store(true, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> Server::handle_register(WireReader& r) {
  if (draining_.load(std::memory_order_acquire)) {
    return error_reply(ServeStatus::kShuttingDown, Status::kOk,
                       "server draining: registration refused");
  }
  const auto flags = r.get<std::uint32_t>();
  const bool force_retune = (flags & 1u) != 0;
  const auto rows = r.get<std::int32_t>();
  const auto cols = r.get<std::int32_t>();
  auto ri = r.get_vec<index_t>();
  auto ci = r.get_vec<index_t>();
  auto vals = r.get_vec<real_t>();
  if (rows < 0 || cols < 0 || ri.size() != ci.size() ||
      ci.size() != vals.size()) {
    return error_reply(ServeStatus::kBadRequest, Status::kOk,
                       "register: inconsistent matrix arrays");
  }
  for (const real_t v : vals) {
    if (!std::isfinite(v)) {
      return error_reply(ServeStatus::kFaulted, Status::kDataCorruption,
                         "register: NaN policy violation — matrix values "
                         "must be finite");
    }
  }
  fmt::Coo a;
  try {
    a = fmt::Coo::from_triplets(rows, cols, std::move(ri), std::move(ci),
                                std::move(vals));
  } catch (const std::invalid_argument& e) {
    return error_reply(ServeStatus::kBadRequest, Status::kOk, e.what());
  }
  const std::uint64_t id = io::payload_checksum(a);

  std::shared_ptr<MatrixEntry> entry;
  bool creator = false;
  {
    std::unique_lock<std::mutex> lk(reg_mu_);
    auto it = matrices_.find(id);
    if (it == matrices_.end()) {
      entry = std::make_shared<MatrixEntry>();
      entry->id = id;
      entry->rows = a.rows;
      entry->cols = a.cols;
      matrices_.emplace(id, entry);
      creator = true;
    } else {
      entry = it->second;
      // A concurrent registration of the same payload: wait for the
      // creator to finish tuning rather than tuning twice.
      reg_cv_.wait(lk, [&] { return entry->ready || !entry->error.empty(); });
      if (!entry->error.empty()) {
        return error_reply(ServeStatus::kInternal, Status::kOk, entry->error);
      }
    }
  }

  if (creator) {
    Stopwatch sw;
    std::string failure;
    try {
      if (opt_.tune_on_register) {
        std::optional<io::PlanRecord> cached;
        if (!force_retune) cached = plan_cache_.load(id, dev_.name);
        if (cached) {
          entry->plan = cached->best;
          entry->plan_from_cache = true;
          entry->tuning_seconds = cached->tuning_seconds;
          entry->evaluated = cached->evaluated;
        } else {
          tune::TuneOptions topt;
          topt.verify = false;  // verified requests check every apply
          topt.tune_workers = opt_.tune_workers;
          // Rank candidates at the thread count applies will actually run
          // with, so launch/fix-up overhead weighs in at deploy shape.
          topt.rank_threads = opt_.apply_threads;
          tune::TuneResult tr;
          {
            // Cold tunes take turns: the pool runs one launch at a time,
            // so a second concurrent sweep would fall back to a serial
            // loop on its own thread and take longer than waiting would.
            std::lock_guard<std::mutex> tlk(tune_mu_);
            Stopwatch tune_sw;
            tr = tune::tune(a, dev_, topt);
            entry->tuning_seconds = tune_sw.elapsed_seconds();
          }
          entry->plan = tr.best;
          entry->evaluated = tr.evaluated;
          io::PlanRecord rec;
          rec.payload_checksum = id;
          rec.device = dev_.name;
          rec.best = tr.best;
          rec.tuning_seconds = entry->tuning_seconds;
          rec.evaluated = tr.evaluated;
          plan_cache_.store(rec);  // best effort; false = re-tune next boot
        }
      }
      // The ladder takes the matrix: from here on it is the entry's only
      // copy.  The plan's exec flags pick the column stream, so rung 0
      // dispatches to the kernel the tuner recorded.  Request-level
      // parallelism comes from concurrent clients by default
      // (apply_threads == 1: a single apply stays on its executor thread).
      // With --apply-threads=N each apply runs the carry-chain-free
      // N-thread path; an executor that cannot get the pool degrades
      // inline, so oversubscription cannot deadlock.
      entry->ladder = std::make_unique<cpu::SpmvLadder>(
          std::move(a), entry->plan.format,
          tune::native_stream(entry->plan.exec), opt_.apply_threads);
      // Pre-warm: one apply first-touches the kernel's scratch so the first
      // client request pays serve latency, not page faults.
      std::vector<real_t> x0(static_cast<std::size_t>(entry->cols), 0.0);
      std::vector<real_t> y0(static_cast<std::size_t>(entry->rows), 0.0);
      entry->ladder->run(x0, y0, /*verified=*/false);
    } catch (const std::exception& e) {
      failure = e.what();
    }
    entry->register_seconds = sw.elapsed_seconds();
    {
      std::lock_guard<std::mutex> lk(reg_mu_);
      if (failure.empty()) {
        entry->ready = true;
      } else {
        entry->error = failure;
        matrices_.erase(id);  // tombstone leaves the map: retry is possible
      }
      reg_cv_.notify_all();
    }
    if (!failure.empty()) {
      return error_reply(ServeStatus::kInternal, Status::kOk,
                         "register: " + failure);
    }
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.registered++;
    if (entry->plan_from_cache) {
      stats_.plan_cache_hits++;
    } else if (opt_.tune_on_register) {
      stats_.plan_cache_misses++;
    }
    // Dispatch attribution for kStats: which kernel family this matrix's
    // plan lands on (the tuner records "grid/..." ids for configs the
    // specialization grid serves, "generic" otherwise).
    if (entry->plan.kernel.rfind("grid/", 0) == 0) {
      stats_.grid_plans++;
    } else {
      stats_.generic_plans++;
    }
  }

  WireWriter w;
  put_reply_status(w, {ServeStatus::kOk, Status::kOk, ""});
  w.put<std::uint64_t>(id);
  w.put<std::uint8_t>(entry->plan_from_cache ? 1 : 0);
  w.put<std::uint8_t>(creator ? 1 : 0);
  w.put<double>(entry->tuning_seconds);
  w.put<double>(entry->register_seconds);
  w.put<std::int32_t>(entry->rows);
  w.put<std::int32_t>(entry->cols);
  w.put<std::int32_t>(entry->evaluated);
  // Appended last (wire evolution rule): the kernel id the plan dispatches
  // to; older clients reading a prefix of the frame stay compatible.
  w.put_string(entry->plan.kernel);
  return w.take();
}

std::vector<std::uint8_t> Server::handle_register_path(WireReader& r) {
  if (draining_.load(std::memory_order_acquire)) {
    return error_reply(ServeStatus::kShuttingDown, Status::kOk,
                       "server draining: registration refused");
  }
  r.get<std::uint32_t>();  // flags (reserved)
  const std::string path = r.get_string();
  if (path.empty()) {
    return error_reply(ServeStatus::kBadRequest, Status::kOk,
                       "register-path: empty path");
  }
  // Open + verify the container WITHOUT loading the matrix: the mapping is
  // the storage.  The file's own payload checksum (verified by the open)
  // is the registry id, so path- and value-registrations of different
  // content never collide.
  std::shared_ptr<const io::MappedBccoo> mapped;
  try {
    mapped = std::make_shared<const io::MappedBccoo>(path);
  } catch (const SpmvError& e) {
    return error_reply(ServeStatus::kFaulted, e.code(),
                       std::string("register-path: ") + e.what());
  }
  const std::uint64_t id = mapped->payload_checksum();

  std::shared_ptr<MatrixEntry> entry;
  bool creator = false;
  {
    std::unique_lock<std::mutex> lk(reg_mu_);
    auto it = matrices_.find(id);
    if (it == matrices_.end()) {
      entry = std::make_shared<MatrixEntry>();
      entry->id = id;
      entry->streamed = true;
      entry->mapped = std::move(mapped);
      entry->rows = entry->mapped->rows();
      entry->cols = entry->mapped->cols();
      matrices_.emplace(id, entry);
      creator = true;
    } else {
      entry = it->second;
      reg_cv_.wait(lk, [&] { return entry->ready || !entry->error.empty(); });
      if (!entry->error.empty()) {
        return error_reply(ServeStatus::kInternal, Status::kOk, entry->error);
      }
    }
  }

  if (creator) {
    Stopwatch sw;
    std::string failure;
    try {
      entry->stream = std::make_unique<cpu::CpuStreamSpmv>(entry->mapped);
      entry->plan.kernel = "stream/tile";
    } catch (const std::exception& e) {
      failure = e.what();
    }
    entry->register_seconds = sw.elapsed_seconds();
    {
      std::lock_guard<std::mutex> lk(reg_mu_);
      if (failure.empty()) {
        entry->ready = true;
      } else {
        entry->error = failure;
        matrices_.erase(id);
      }
      reg_cv_.notify_all();
    }
    if (!failure.empty()) {
      return error_reply(ServeStatus::kInternal, Status::kOk,
                         "register-path: " + failure);
    }
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.registered++;
    stats_.stream_registered++;
  }

  // Same reply layout as handle_register, so one client-side parser serves
  // both registration flavors.
  WireWriter w;
  put_reply_status(w, {ServeStatus::kOk, Status::kOk, ""});
  w.put<std::uint64_t>(id);
  w.put<std::uint8_t>(0);  // plan_from_cache: streamed entries are not tuned
  w.put<std::uint8_t>(creator ? 1 : 0);
  w.put<double>(0.0);  // tuning_seconds
  w.put<double>(entry->register_seconds);
  w.put<std::int32_t>(entry->rows);
  w.put<std::int32_t>(entry->cols);
  w.put<std::int32_t>(0);  // evaluated
  w.put_string(entry->plan.kernel);
  return w.take();
}

std::shared_ptr<Server::MatrixEntry> Server::find_matrix(std::uint64_t id) {
  std::unique_lock<std::mutex> lk(reg_mu_);
  auto it = matrices_.find(id);
  if (it == matrices_.end()) return nullptr;
  auto entry = it->second;
  reg_cv_.wait(lk, [&] { return entry->ready || !entry->error.empty(); });
  return entry->ready ? entry : nullptr;
}

// ---------------------------------------------------------------------------
// Admission + dispatch
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> Server::handle_request(MsgType type, WireReader& r) {
  auto p = std::make_unique<Pending>();
  p->type = type;
  p->arrival = Clock::now();
  const auto id = r.get<std::uint64_t>();
  p->deadline_ms = r.get<std::uint32_t>();
  p->inject = static_cast<Inject>(r.get<std::uint8_t>());
  p->inject_arg = r.get<std::uint32_t>();
  p->verified = r.get<std::uint8_t>() != 0;
  if (type == MsgType::kSpmv) {
    p->x = r.get_vec<real_t>();
  } else {
    p->solver = r.get<std::uint8_t>();
    p->tol = r.get<double>();
    p->max_iters = r.get<std::uint32_t>();
    p->x = r.get_vec<real_t>();  // the right-hand side b
  }

  if (draining_.load(std::memory_order_acquire)) {
    return error_reply(ServeStatus::kShuttingDown, Status::kOk,
                       "server draining: request refused");
  }
  if (p->inject != Inject::kNone && !opt_.enable_inject) {
    return error_reply(ServeStatus::kBadRequest, Status::kOk,
                       "inject hooks are disabled (start the server with "
                       "enable_inject / --inject to use them)");
  }
  // The simulator's faults have no site in the native kernels serve runs;
  // they stay with yaspmv_cli --inject and schedule replay.
  if (p->inject == Inject::kDropPublish || p->inject == Inject::kCorruptCache ||
      p->inject == Inject::kFailMain) {
    return error_reply(ServeStatus::kBadRequest, Status::kOk,
                       "inject: drop_publish, corrupt_cache and fail_main are "
                       "simulator faults; serve runs the native kernels");
  }
  auto m = find_matrix(id);
  if (!m) {
    return error_reply(ServeStatus::kUnknownMatrix, Status::kOk,
                       "matrix " + hex_id(id) + " is not registered");
  }
  // Fail fast on shape mismatches — before the request occupies queue space.
  const auto need = static_cast<std::size_t>(
      type == MsgType::kSpmv ? m->cols : m->rows);
  if (p->x.size() != need) {
    return error_reply(ServeStatus::kBadRequest, Status::kOk,
                       "vector length " + std::to_string(p->x.size()) +
                           " != expected " + std::to_string(need));
  }
  if (type == MsgType::kSolve &&
      (m->streamed || m->rows != m->cols ||
       (p->solver != 1 && p->solver != 2))) {
    return error_reply(ServeStatus::kBadRequest, Status::kOk,
                       m->streamed
                           ? "solve: not supported for matrices registered "
                             "by path (streamed entries serve spmv only)"
                           : "solve: matrix must be square and solver must "
                             "be cg(1) or bicgstab(2)");
  }
  // Streamed applies bypass the kernel ladder and its flip site, so only the
  // injects that make sense without it (input poison, latency) are honored.
  if (m->streamed && p->inject != Inject::kNone &&
      p->inject != Inject::kNan && p->inject != Inject::kSleepMs) {
    return error_reply(ServeStatus::kBadRequest, Status::kOk,
                       "inject: streamed matrices support only nan/sleep "
                       "hooks");
  }

  std::future<std::vector<std::uint8_t>> fut = p->done.get_future();
  {
    std::lock_guard<std::mutex> lk(disp_mu_);
    if (draining_.load(std::memory_order_acquire)) {
      return error_reply(ServeStatus::kShuttingDown, Status::kOk,
                         "server draining: request refused");
    }
    if (inflight_ >= opt_.max_inflight) {
      std::lock_guard<std::mutex> slk(stats_mu_);
      stats_.overloaded++;
      return error_reply(ServeStatus::kOverloaded, Status::kOk,
                         "global in-flight cap reached (" +
                             std::to_string(opt_.max_inflight) + ")");
    }
    if (m->queue.size() >= opt_.queue_capacity) {
      std::lock_guard<std::mutex> slk(stats_mu_);
      stats_.overloaded++;
      return error_reply(ServeStatus::kOverloaded, Status::kOk,
                         "matrix queue full (" +
                             std::to_string(opt_.queue_capacity) + ")");
    }
    m->queue.push_back(std::move(p));
    ++inflight_;
    if (!m->busy && !m->in_ready) {
      ready_.push_back(m.get());
      m->in_ready = true;
    }
    work_cv_.notify_one();
    std::lock_guard<std::mutex> slk(stats_mu_);
    stats_.accepted++;
  }
  return fut.get();
}

void Server::executor_loop() {
  for (;;) {
    std::unique_lock<std::mutex> lk(disp_mu_);
    work_cv_.wait(lk, [&] {
      return stop_executors_.load(std::memory_order_acquire) ||
             !ready_.empty();
    });
    if (ready_.empty()) {
      if (stop_executors_.load(std::memory_order_acquire)) return;
      continue;
    }
    MatrixEntry* m = ready_.front();
    ready_.pop_front();
    m->in_ready = false;
    if (m->busy || m->queue.empty()) continue;
    m->busy = true;
    auto p = std::move(m->queue.front());
    m->queue.pop_front();
    ++executing_;
    lk.unlock();

    process(*m, *p);

    lk.lock();
    --executing_;
    --inflight_;
    m->busy = false;
    if (!m->queue.empty() && !m->in_ready) {
      ready_.push_back(m);
      m->in_ready = true;
      work_cv_.notify_one();
    }
    if (inflight_ == 0) drain_cv_.notify_all();
  }
}

void Server::process(MatrixEntry& m, Pending& p) {
  // Deadline policy: expired requests are dropped HERE, at dequeue — an
  // apply that starts always finishes (no mid-apply cancellation to corrupt
  // engine state).
  if (p.deadline_passed(Clock::now())) {
    {
      std::lock_guard<std::mutex> lk(stats_mu_);
      stats_.deadline_expired++;
    }
    p.done.set_value(error_reply(
        ServeStatus::kDeadlineExpired, Status::kOk,
        "deadline (" + std::to_string(p.deadline_ms) +
            " ms) expired while queued; dropped before the apply"));
    return;
  }
  try {
    // Counters are bumped BEFORE the promise is fulfilled: the client's
    // next request (e.g. kStats) must observe this one as completed.
    std::vector<std::uint8_t> reply =
        p.type == MsgType::kSpmv ? run_spmv(m, p) : run_solve(m, p);
    {
      std::lock_guard<std::mutex> lk(stats_mu_);
      stats_.completed++;
    }
    p.done.set_value(std::move(reply));
  } catch (const SpmvError& e) {
    {
      std::lock_guard<std::mutex> lk(stats_mu_);
      stats_.completed++;
      stats_.faulted++;
    }
    p.done.set_value(error_reply(ServeStatus::kFaulted, e.code(), e.what()));
  } catch (const std::invalid_argument& e) {
    p.done.set_value(
        error_reply(ServeStatus::kBadRequest, Status::kOk, e.what()));
  } catch (const std::exception& e) {
    p.done.set_value(
        error_reply(ServeStatus::kInternal, Status::kOk, e.what()));
  }
}

std::vector<std::uint8_t> Server::run_spmv(MatrixEntry& m, Pending& p) {
  if (m.streamed) {
    // Out-of-core path: the apply streams tile-by-tile off the mapped file.
    // Admission already restricted injects to input poison and latency.
    if (p.inject == Inject::kNan && !p.x.empty()) {
      p.x[0] = std::numeric_limits<real_t>::quiet_NaN();
    } else if (p.inject == Inject::kSleepMs) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min<std::uint32_t>(p.inject_arg, 10'000)));
    }
    for (std::size_t i = 0; i < p.x.size(); ++i) {
      if (!std::isfinite(p.x[i])) {
        throw DataCorruption("request NaN policy violation: x[" +
                             std::to_string(i) + "] is not finite");
      }
    }
    std::vector<real_t> y(static_cast<std::size_t>(m.rows));
    // An IoError/DataCorruption raised mid-stream (file truncated or
    // replaced underneath us) propagates to process()'s SpmvError catch:
    // this client gets kFaulted with the typed code, the daemon keeps going.
    m.stream->spmv(p.x, y);
    {
      std::lock_guard<std::mutex> lk(stats_mu_);
      stats_.stream_applies++;
    }
    WireWriter w;
    put_reply_status(w, {ServeStatus::kOk, Status::kOk, ""});
    w.put<std::uint32_t>(1);  // attempts
    w.put<std::uint32_t>(0);  // ladder_step
    w.put<std::uint8_t>(0);   // recovered
    w.put<std::uint8_t>(0);   // verified (no ABFT partials off the stream)
    w.put_string("stream/tile");
    w.put<std::uint32_t>(0);  // faults
    w.put_vec(y);
    return w.take();
  }

  sim::FaultInjector inj;
  switch (p.inject) {
    case Inject::kNone:
      break;
    case Inject::kNan:
      // The canonical poisoned request: the NaN-policy gate below turns it
      // into a typed error for THIS client only.
      if (!p.x.empty()) p.x[0] = std::numeric_limits<real_t>::quiet_NaN();
      break;
    case Inject::kSleepMs:
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min<std::uint32_t>(p.inject_arg, 10'000)));
      break;
    case Inject::kCorruptPublish: {
      // The silent one: every kernel-rung attempt flips a bit of chunk 0's
      // carry between the chunk pass and the fix-up.  No error is raised
      // anywhere — only a verified request can tell the reply went wrong.
      // Chunk 0's carry always reaches y (the last chunk holds the last
      // row stop), and bit 62 moves any double by at least 2 or to inf/NaN,
      // so the flip always changes the reply.
      sim::FaultPlan plan;
      plan.type = sim::FaultType::kFlipPartial;
      plan.target_index = 0;
      plan.bit = 62;
      inj.arm(plan);
      break;
    }
    default:
      throw std::invalid_argument("unknown inject kind");
  }

  // NaN policy: a request carrying non-finite inputs is rejected with a
  // typed error before it reaches a kernel.
  for (std::size_t i = 0; i < p.x.size(); ++i) {
    if (!std::isfinite(p.x[i])) {
      throw DataCorruption("request NaN policy violation: x[" +
                           std::to_string(i) + "] is not finite");
    }
  }

  std::vector<real_t> y(static_cast<std::size_t>(m.rows));
  struct InjectorGuard {
    cpu::SpmvLadder* ladder;
    ~InjectorGuard() { ladder->set_fault_injector(nullptr); }
  } guard{m.ladder.get()};
  m.ladder->set_fault_injector(inj.armed() ? &inj : nullptr);
  const bool verified = p.verified || opt_.verified;
  const cpu::LadderRun r = m.ladder->run(p.x, y, verified);
  std::uint64_t integrity = 0;
  for (const auto& fr : r.faults) {
    if (fr.status == Status::kIntegrityFault) ++integrity;
  }
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    if (r.recovered) stats_.recovered++;
    if (verified) stats_.verified_requests++;
    stats_.integrity_faults += integrity;
    // run() returned, so the reply is a verified rung's result or the CSR
    // reference: every detected integrity fault on the way was recovered.
    if (integrity > 0) stats_.integrity_recovered++;
  }

  WireWriter w;
  put_reply_status(w, {ServeStatus::kOk, Status::kOk, ""});
  w.put<std::uint32_t>(static_cast<std::uint32_t>(r.attempts));
  w.put<std::uint32_t>(static_cast<std::uint32_t>(r.rung));
  w.put<std::uint8_t>(r.recovered ? 1 : 0);
  w.put<std::uint8_t>(r.verified ? 1 : 0);
  w.put_string(r.path);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(r.faults.size()));
  for (const auto& fr : r.faults) {
    w.put<std::uint16_t>(static_cast<std::uint16_t>(fr.status));
    w.put_string(fr.path);
    w.put_string("");  // journal file: native attempts record none
  }
  w.put_vec(y);
  return w.take();
}

std::vector<std::uint8_t> Server::run_solve(MatrixEntry& m, Pending& p) {
  for (std::size_t i = 0; i < p.x.size(); ++i) {
    if (!std::isfinite(p.x[i])) {
      throw DataCorruption("request NaN policy violation: b[" +
                           std::to_string(i) + "] is not finite");
    }
  }
  if (!m.op || &m.op->format() != m.ladder->format().get()) {
    // Native fused pipeline over the ladder's format (one copy per matrix,
    // rebuilt copy included); apply_threads per apply, as for spmv.
    m.op = std::make_unique<solver::CpuOperator>(m.ladder->format(),
                                                 opt_.apply_threads);
  }
  solver::SolveOptions sopt;
  sopt.tolerance = p.tol;
  sopt.max_iterations = static_cast<int>(p.max_iters);
  sopt.threads = opt_.apply_threads;
  std::vector<real_t> x(static_cast<std::size_t>(m.rows), 0.0);
  const bool verified = p.verified || opt_.verified;
  solver::SolveReport rep;
  std::uint32_t integrity_faults = 0, rollbacks = 0;
  if (verified) {
    // Self-checking solvers: checksum-verified applies + checkpoint/rollback.
    solver::SelfCheckOptions copt;
    copt.solve = sopt;
    const solver::CheckedSolveReport crep =
        p.solver == 1 ? solver::cg_checked(*m.op, p.x, x, copt)
                      : solver::bicgstab_checked(*m.op, p.x, x, copt);
    rep = crep.solve;
    integrity_faults = static_cast<std::uint32_t>(crep.integrity_faults);
    rollbacks = static_cast<std::uint32_t>(crep.rollbacks);
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.verified_requests++;
    stats_.integrity_faults += integrity_faults;
    if (integrity_faults > 0 && rep.converged) stats_.integrity_recovered++;
  } else {
    rep = p.solver == 1 ? solver::cg(*m.op, p.x, x, sopt)
                        : solver::bicgstab(*m.op, p.x, x, sopt);
  }
  // Divergence is data corruption from the client's point of view: a
  // non-finite iterate must be a typed error, not a silent NaN vector.
  for (const real_t v : x) {
    if (!std::isfinite(v)) {
      throw DataCorruption(
          "solver produced non-finite iterates (matrix not SPD for cg, or "
          "ill-conditioned)");
    }
  }
  WireWriter w;
  put_reply_status(w, {ServeStatus::kOk, Status::kOk, ""});
  w.put<std::uint32_t>(static_cast<std::uint32_t>(rep.iterations));
  w.put<std::uint8_t>(rep.converged ? 1 : 0);
  w.put<double>(rep.relative_residual);
  w.put<std::uint8_t>(verified ? 1 : 0);
  w.put<std::uint32_t>(integrity_faults);
  w.put<std::uint32_t>(rollbacks);
  w.put_vec(x);
  return w.take();
}

// ---------------------------------------------------------------------------
// Stats + helpers
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> Server::handle_stats() {
  const ServerStats s = stats();
  WireWriter w;
  put_reply_status(w, {ServeStatus::kOk, Status::kOk, ""});
  w.put<std::uint64_t>(s.accepted);
  w.put<std::uint64_t>(s.completed);
  w.put<std::uint64_t>(s.overloaded);
  w.put<std::uint64_t>(s.deadline_expired);
  w.put<std::uint64_t>(s.faulted);
  w.put<std::uint64_t>(s.recovered);
  w.put<std::uint64_t>(s.protocol_errors);
  w.put<std::uint64_t>(s.disconnects);
  w.put<std::uint64_t>(s.shed_on_drain);
  w.put<std::uint64_t>(s.registered);
  w.put<std::uint64_t>(s.plan_cache_hits);
  w.put<std::uint64_t>(s.plan_cache_misses);
  w.put<std::uint64_t>(s.inflight);
  w.put<std::uint64_t>(s.verified_requests);
  w.put<std::uint64_t>(s.integrity_faults);
  w.put<std::uint64_t>(s.integrity_recovered);
  w.put<std::uint64_t>(s.executors);
  w.put<std::uint64_t>(s.apply_threads);
  w.put<std::uint64_t>(s.grid_plans);
  w.put<std::uint64_t>(s.generic_plans);
  w.put<std::uint64_t>(s.stream_registered);
  w.put<std::uint64_t>(s.stream_applies);
  return w.take();
}

std::vector<std::uint8_t> Server::error_reply(ServeStatus s, Status code,
                                              const std::string& detail) {
  WireWriter w;
  put_reply_status(w, {s, code, detail});
  return w.take();
}

}  // namespace yaspmv::serve
