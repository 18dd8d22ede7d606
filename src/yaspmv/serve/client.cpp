#include "yaspmv/serve/client.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "yaspmv/util/rng.hpp"

namespace yaspmv::serve {

namespace {

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw IoError("client: bad socket path '" + path + "'");
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw IoError(std::string("client: socket: ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const int e = errno;
    ::close(fd);
    throw IoError("client: connect(" + path + "): " + std::strerror(e));
  }
  return fd;
}

/// Per-call jitter source: seeded from the clock, the pid and the client
/// address so N processes (or N clients in one process) rejected by the same
/// overload burst draw different backoff schedules.
SplitMix64 backoff_rng(const void* self) {
  return SplitMix64(
      static_cast<std::uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count()) ^
      (static_cast<std::uint64_t>(::getpid()) << 32) ^
      reinterpret_cast<std::uintptr_t>(self));
}

/// Uniform in [backoff/2, backoff]: keeps the exponential envelope (the
/// server still sees pressure halve per round) while decorrelating arrival
/// times — deterministic equal backoffs re-synchronize the very burst the
/// backoff was meant to spread.
int jittered_ms(int backoff, SplitMix64& rng) {
  const int half = backoff / 2;
  return half + static_cast<int>(rng.next_below(
                    static_cast<std::uint64_t>(backoff - half + 1)));
}

}  // namespace

Client::Client(std::string socket_path) : path_(std::move(socket_path)) {
  fd_ = connect_unix(path_);
}

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Client::wait_for_server(const std::string& socket_path, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    try {
      Client probe(socket_path);
      return true;
    } catch (const IoError&) {
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

std::vector<std::uint8_t> Client::roundtrip(
    MsgType type, const std::vector<std::uint8_t>& payload) {
  if (fd_ < 0) throw IoError("client: connection is closed");
  write_frame(fd_, type, payload);
  Frame f;
  if (!read_frame(fd_, f)) {
    throw IoError("client: server closed the connection before replying");
  }
  return std::move(f.payload);
}

RegisterResult Client::register_matrix(const fmt::Coo& a, bool force_retune) {
  WireWriter w;
  w.put<std::uint32_t>(force_retune ? 1u : 0u);
  w.put<std::int32_t>(a.rows);
  w.put<std::int32_t>(a.cols);
  w.put_vec(a.row_idx);
  w.put_vec(a.col_idx);
  w.put_vec(a.vals);
  const auto bytes = roundtrip(MsgType::kRegister, w.bytes());
  WireReader r(bytes);
  RegisterResult out;
  out.status = get_reply_status(r);
  if (out.status.status != ServeStatus::kOk) return out;
  out.matrix_id = r.get<std::uint64_t>();
  out.warm = r.get<std::uint8_t>() != 0;
  out.newly_registered = r.get<std::uint8_t>() != 0;
  out.tuning_seconds = r.get<double>();
  out.register_seconds = r.get<double>();
  out.rows = r.get<std::int32_t>();
  out.cols = r.get<std::int32_t>();
  out.evaluated = r.get<std::int32_t>();
  out.kernel = r.get_string();
  return out;
}

RegisterResult Client::register_path(const std::string& file_path) {
  WireWriter w;
  w.put<std::uint32_t>(0);  // flags (reserved)
  w.put_string(file_path);
  const auto bytes = roundtrip(MsgType::kRegisterPath, w.bytes());
  // The reply layout is handle_register's, so the parse is identical.
  WireReader r(bytes);
  RegisterResult out;
  out.status = get_reply_status(r);
  if (out.status.status != ServeStatus::kOk) return out;
  out.matrix_id = r.get<std::uint64_t>();
  out.warm = r.get<std::uint8_t>() != 0;
  out.newly_registered = r.get<std::uint8_t>() != 0;
  out.tuning_seconds = r.get<double>();
  out.register_seconds = r.get<double>();
  out.rows = r.get<std::int32_t>();
  out.cols = r.get<std::int32_t>();
  out.evaluated = r.get<std::int32_t>();
  out.kernel = r.get_string();
  return out;
}

SpmvResult Client::spmv(std::uint64_t matrix_id, std::span<const real_t> x,
                        const RequestOptions& opt) {
  WireWriter w;
  w.put<std::uint64_t>(matrix_id);
  w.put<std::uint32_t>(opt.deadline_ms);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(opt.inject));
  w.put<std::uint32_t>(opt.inject_arg);
  w.put<std::uint8_t>(opt.verified ? 1u : 0u);
  std::vector<real_t> xv(x.begin(), x.end());
  w.put_vec(xv);
  const std::vector<std::uint8_t> req = w.take();

  SpmvResult out;
  int backoff = opt.backoff_ms;
  SplitMix64 rng = backoff_rng(this);
  for (int attempt = 0;; ++attempt) {
    out.admission_attempts = attempt + 1;
    const auto bytes = roundtrip(MsgType::kSpmv, req);
    WireReader r(bytes);
    out.status = get_reply_status(r);
    if (out.status.status == ServeStatus::kOverloaded &&
        attempt < opt.retries) {
      // Backpressure: the server said "not now", not "never" — retry with
      // jittered exponential backoff so a burst spreads out instead of
      // re-arriving in lockstep.
      std::this_thread::sleep_for(
          std::chrono::milliseconds(jittered_ms(backoff, rng)));
      backoff = std::min(backoff * 2, 1000);
      continue;
    }
    if (out.status.status != ServeStatus::kOk) return out;
    out.attempts = r.get<std::uint32_t>();
    out.ladder_step = r.get<std::uint32_t>();
    out.recovered = r.get<std::uint8_t>() != 0;
    out.verified = r.get<std::uint8_t>() != 0;
    out.path = r.get_string();
    const auto nfaults = r.get<std::uint32_t>();
    out.faults.reserve(nfaults);
    for (std::uint32_t i = 0; i < nfaults; ++i) {
      SpmvResult::Fault fr;
      fr.status = static_cast<Status>(r.get<std::uint16_t>());
      fr.path = r.get_string();
      fr.journal_file = r.get_string();
      out.faults.push_back(std::move(fr));
    }
    out.y = r.get_vec<real_t>();
    return out;
  }
}

SolveResult Client::solve(std::uint64_t matrix_id, std::span<const real_t> b,
                          int solver, double tol, std::uint32_t max_iters,
                          const RequestOptions& opt) {
  WireWriter w;
  w.put<std::uint64_t>(matrix_id);
  w.put<std::uint32_t>(opt.deadline_ms);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(opt.inject));
  w.put<std::uint32_t>(opt.inject_arg);
  w.put<std::uint8_t>(opt.verified ? 1u : 0u);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(solver));
  w.put<double>(tol);
  w.put<std::uint32_t>(max_iters);
  std::vector<real_t> bv(b.begin(), b.end());
  w.put_vec(bv);
  const std::vector<std::uint8_t> req = w.take();

  SolveResult out;
  int backoff = opt.backoff_ms;
  SplitMix64 rng = backoff_rng(this);
  for (int attempt = 0;; ++attempt) {
    out.admission_attempts = attempt + 1;
    const auto bytes = roundtrip(MsgType::kSolve, req);
    WireReader r(bytes);
    out.status = get_reply_status(r);
    if (out.status.status == ServeStatus::kOverloaded &&
        attempt < opt.retries) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(jittered_ms(backoff, rng)));
      backoff = std::min(backoff * 2, 1000);
      continue;
    }
    if (out.status.status != ServeStatus::kOk) return out;
    out.iterations = r.get<std::uint32_t>();
    out.converged = r.get<std::uint8_t>() != 0;
    out.rel_residual = r.get<double>();
    out.verified = r.get<std::uint8_t>() != 0;
    out.integrity_faults = r.get<std::uint32_t>();
    out.rollbacks = r.get<std::uint32_t>();
    out.x = r.get_vec<real_t>();
    return out;
  }
}

StatsSnapshot Client::stats() {
  const auto bytes = roundtrip(MsgType::kStats, {});
  WireReader r(bytes);
  StatsSnapshot s;
  s.status = get_reply_status(r);
  if (s.status.status != ServeStatus::kOk) return s;
  s.accepted = r.get<std::uint64_t>();
  s.completed = r.get<std::uint64_t>();
  s.overloaded = r.get<std::uint64_t>();
  s.deadline_expired = r.get<std::uint64_t>();
  s.faulted = r.get<std::uint64_t>();
  s.recovered = r.get<std::uint64_t>();
  s.protocol_errors = r.get<std::uint64_t>();
  s.disconnects = r.get<std::uint64_t>();
  s.shed_on_drain = r.get<std::uint64_t>();
  s.registered = r.get<std::uint64_t>();
  s.plan_cache_hits = r.get<std::uint64_t>();
  s.plan_cache_misses = r.get<std::uint64_t>();
  s.inflight = r.get<std::uint64_t>();
  s.verified_requests = r.get<std::uint64_t>();
  s.integrity_faults = r.get<std::uint64_t>();
  s.integrity_recovered = r.get<std::uint64_t>();
  s.executors = r.get<std::uint64_t>();
  s.apply_threads = r.get<std::uint64_t>();
  s.grid_plans = r.get<std::uint64_t>();
  s.generic_plans = r.get<std::uint64_t>();
  // Appended-last fields: absent from an older server's reply, so guard on
  // what is actually left in the frame instead of assuming.
  if (r.remaining() >= sizeof(std::uint64_t)) {
    s.stream_registered = r.get<std::uint64_t>();
  }
  if (r.remaining() >= sizeof(std::uint64_t)) {
    s.stream_applies = r.get<std::uint64_t>();
  }
  return s;
}

ReplyStatus Client::shutdown_server() {
  const auto bytes = roundtrip(MsgType::kShutdown, {});
  WireReader r(bytes);
  return get_reply_status(r);
}

}  // namespace yaspmv::serve
