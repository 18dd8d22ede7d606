// Wire protocol of the yaspmv serving daemon.
//
// Requests travel over a Unix-domain stream socket as length-prefixed,
// checksummed binary frames:
//
//   u32 magic 'YSRV' | u16 version | u16 type | u64 payload_len |
//   payload bytes    | u64 FNV-1a(version, type, payload_len, payload)
//
// The checksum covers everything after the magic, so a torn write, a
// truncated stream or in-flight corruption is detected before any payload
// field is interpreted.  Every request frame gets exactly one response frame
// of the same type whose payload starts with a common status block
// (ServeStatus + the library Status of the underlying SpmvError + a detail
// string); type-specific result fields follow only when the status is kOk.
// A malformed frame is answered with a kProtocolError response when the
// socket still works, and the connection is closed either way — one
// misbehaving client never takes the server down.
//
// Numbers are little-endian host order (the daemon and its clients share a
// machine by construction: the transport is a Unix socket).
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/types.h>

#include "yaspmv/core/status.hpp"
#include "yaspmv/util/common.hpp"

namespace yaspmv::serve {

constexpr std::uint32_t kFrameMagic = 0x56525359;  // "YSRV"
/// v2: per-request `verified` flag on kSpmv/kSolve, integrity counters in
/// the kStats reply, Inject::kCorruptPublish.  Versions are exact-match (the
/// daemon and its clients ship together), so v1 peers are rejected cleanly
/// at the frame layer instead of misparsing the grown payloads.
constexpr std::uint16_t kProtocolVersion = 2;
/// Default upper bound on one frame's payload (a registration carries whole
/// matrices; 1 GiB is far above any test matrix and far below "runaway").
/// Deployments front the daemon with ServerOptions::max_frame_bytes to
/// reject hostile lengths before any allocation happens.
constexpr std::uint64_t kMaxFramePayload = 1ull << 30;

/// Request/response frame types.  A response reuses its request's type.
enum class MsgType : std::uint16_t {
  kRegister = 1,  ///< register a COO matrix; tunes (or loads) its plan
  kSpmv = 2,      ///< y = A x through the resilient degradation ladder
  kSolve = 3,     ///< iterative solve on the native pipeline
  kStats = 4,     ///< server counters (admission, faults, drain)
  kShutdown = 5,  ///< request a graceful drain (same path as SIGTERM)
  kRegisterPath = 6,  ///< register a BCCOO container by file path: the
                      ///  server mmaps it and serves applies out-of-core
                      ///  (tile streaming) without loading the matrix
};

/// Server-level outcome of a request — the error taxonomy a client programs
/// against.  kFaulted additionally carries the library `Status` of the
/// SpmvError that the degradation ladder could not absorb.
enum class ServeStatus : std::uint16_t {
  kOk = 0,
  kOverloaded = 1,       ///< admission control rejected the request
  kDeadlineExpired = 2,  ///< deadline passed while queued; dropped at dequeue
  kUnknownMatrix = 3,    ///< matrix id was never registered
  kBadRequest = 4,       ///< malformed fields (size mismatch, bad enum, ...)
  kFaulted = 5,          ///< a typed SpmvError escaped the ladder (NaN policy,
                         ///< validate() failure, injected fault)
  kShuttingDown = 6,     ///< server is draining; no new admissions
  kProtocolError = 7,    ///< unreadable frame (bad magic/checksum/length)
  kInternal = 8,         ///< unexpected non-SpmvError exception
};

inline const char* to_string(ServeStatus s) {
  switch (s) {
    case ServeStatus::kOk: return "ok";
    case ServeStatus::kOverloaded: return "overloaded";
    case ServeStatus::kDeadlineExpired: return "deadline-expired";
    case ServeStatus::kUnknownMatrix: return "unknown-matrix";
    case ServeStatus::kBadRequest: return "bad-request";
    case ServeStatus::kFaulted: return "faulted";
    case ServeStatus::kShuttingDown: return "shutting-down";
    case ServeStatus::kProtocolError: return "protocol-error";
    case ServeStatus::kInternal: return "internal";
  }
  return "unknown";
}

/// Test-only fault hooks a request may carry (honored only when the server
/// runs with `enable_inject`; rejected as kBadRequest otherwise).  The
/// simulator faults (2-4) keep their wire values but are always rejected as
/// kBadRequest: the server runs the native kernels, which have no such site.
enum class Inject : std::uint8_t {
  kNone = 0,
  kNan = 1,           ///< poison x[0] with NaN -> NaN-policy typed error
  kDropPublish = 2,   ///< simulator fault: rejected
  kCorruptCache = 3,  ///< simulator fault: rejected
  kFailMain = 4,      ///< simulator fault: rejected
  kSleepMs = 5,       ///< hold the executor for `arg` ms (queue-buildup hook)
  kCorruptPublish = 6,  ///< silent bit flip in a kernel carry on every
                        ///< kernel-rung attempt — only a verified request
                        ///< can tell the reply went wrong
};

/// FNV-1a 64-bit, the same accumulation the binary/journal containers use.
class Fnv1a64 {
 public:
  void update(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// ---------------------------------------------------------------------------
// Payload encoding: flat little-endian fields appended to a byte buffer.
// ---------------------------------------------------------------------------

class WireWriter {
 public:
  template <class T>
  void put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto old = buf_.size();
    buf_.resize(old + sizeof(T));
    std::memcpy(buf_.data() + old, &v, sizeof(T));
  }
  void put_string(const std::string& s) {
    put<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  template <class T>
  void put_vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put<std::uint64_t>(v.size());
    const auto old = buf_.size();
    buf_.resize(old + v.size() * sizeof(T));
    if (!v.empty()) {
      std::memcpy(buf_.data() + old, v.data(), v.size() * sizeof(T));
    }
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Reads the flat fields back; every getter throws IoError on truncation so
/// a short or lying payload surfaces as a classified protocol failure.
class WireReader {
 public:
  WireReader(const std::uint8_t* p, std::size_t n) : p_(p), end_(p + n) {}
  explicit WireReader(const std::vector<std::uint8_t>& b)
      : WireReader(b.data(), b.size()) {}

  template <class T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    need(sizeof(T));
    T v;
    std::memcpy(&v, p_, sizeof(T));
    p_ += sizeof(T);
    return v;
  }
  std::string get_string(std::uint32_t max_len = 1u << 20) {
    const auto n = get<std::uint32_t>();
    if (n > max_len) throw IoError("wire: string length implausible");
    need(n);
    std::string s(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return s;
  }
  template <class T>
  std::vector<T> get_vec(std::uint64_t max_elems = 1ull << 28) {
    const auto n = get<std::uint64_t>();
    if (n > max_elems) throw IoError("wire: array length implausible");
    need(n * sizeof(T));
    std::vector<T> v(static_cast<std::size_t>(n));
    if (n != 0) {
      std::memcpy(v.data(), p_, static_cast<std::size_t>(n) * sizeof(T));
      p_ += n * sizeof(T);
    }
    return v;
  }
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

 private:
  void need(std::uint64_t n) const {
    if (static_cast<std::uint64_t>(end_ - p_) < n) {
      throw IoError("wire: truncated payload");
    }
  }
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

// ---------------------------------------------------------------------------
// Frame transport over a connected socket fd.
// ---------------------------------------------------------------------------

/// Writes all of `p[0..n)`, retrying on EINTR/partial writes.  MSG_NOSIGNAL:
/// a peer that vanished mid-reply produces EPIPE, never a process signal.
inline void write_all(int fd, const void* p, std::size_t n) {
  const auto* b = static_cast<const char*>(p);
  while (n > 0) {
    const ssize_t w = ::send(fd, b, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("socket write: ") + std::strerror(errno));
    }
    b += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// Reads exactly n bytes; `eof_ok` allows a clean EOF *before the first
/// byte* (returns false) so an idle peer closing between frames is not an
/// error, while EOF mid-frame always is.
inline bool read_exact(int fd, void* p, std::size_t n, bool eof_ok) {
  auto* b = static_cast<char*>(p);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, b + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("socket read: ") + std::strerror(errno));
    }
    if (r == 0) {
      if (got == 0 && eof_ok) return false;
      throw IoError("socket read: connection closed mid-frame");
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

struct Frame {
  MsgType type = MsgType::kStats;
  std::vector<std::uint8_t> payload;
};

inline void write_frame(int fd, MsgType type,
                        const std::vector<std::uint8_t>& payload) {
  struct Header {
    std::uint32_t magic;
    std::uint16_t version;
    std::uint16_t type;
    std::uint64_t len;
  } h{kFrameMagic, kProtocolVersion, static_cast<std::uint16_t>(type),
      payload.size()};
  static_assert(sizeof(Header) == 16);
  Fnv1a64 sum;
  sum.update(&h.version, sizeof h.version);
  sum.update(&h.type, sizeof h.type);
  sum.update(&h.len, sizeof h.len);
  sum.update(payload.data(), payload.size());
  const std::uint64_t digest = sum.digest();
  write_all(fd, &h, sizeof h);
  if (!payload.empty()) write_all(fd, payload.data(), payload.size());
  write_all(fd, &digest, sizeof digest);
}

/// Reads one frame.  Returns false on clean EOF between frames.  Throws
/// IoError on transport failure and FormatInvalid on a frame that cannot be
/// trusted (bad magic/version/length/checksum) — the caller answers the
/// latter with kProtocolError and drops the connection.  `max_payload` caps
/// the declared length *before* the payload buffer is allocated: a hostile
/// or garbage length field costs the peer a rejection, never a server-side
/// allocation.
inline bool read_frame(int fd, Frame& out,
                       std::uint64_t max_payload = kMaxFramePayload) {
  struct Header {
    std::uint32_t magic;
    std::uint16_t version;
    std::uint16_t type;
    std::uint64_t len;
  } h;
  if (!read_exact(fd, &h, sizeof h, /*eof_ok=*/true)) return false;
  if (h.magic != kFrameMagic) throw FormatInvalid("frame: bad magic");
  if (h.version != kProtocolVersion) {
    throw FormatInvalid("frame: unsupported protocol version " +
                        std::to_string(h.version));
  }
  if (h.len > std::min(max_payload, kMaxFramePayload)) {
    throw FormatInvalid("frame: payload length " + std::to_string(h.len) +
                        " exceeds limit " +
                        std::to_string(std::min(max_payload,
                                                kMaxFramePayload)));
  }
  out.type = static_cast<MsgType>(h.type);
  out.payload.resize(static_cast<std::size_t>(h.len));
  if (h.len != 0) {
    read_exact(fd, out.payload.data(), out.payload.size(), /*eof_ok=*/false);
  }
  std::uint64_t want = 0;
  read_exact(fd, &want, sizeof want, /*eof_ok=*/false);
  Fnv1a64 sum;
  sum.update(&h.version, sizeof h.version);
  sum.update(&h.type, sizeof h.type);
  sum.update(&h.len, sizeof h.len);
  sum.update(out.payload.data(), out.payload.size());
  if (sum.digest() != want) {
    throw FormatInvalid("frame: checksum mismatch (corrupt or torn frame)");
  }
  return true;
}

// ---------------------------------------------------------------------------
// The common response status block every reply payload starts with.
// ---------------------------------------------------------------------------

struct ReplyStatus {
  ServeStatus status = ServeStatus::kOk;
  Status code = Status::kOk;  ///< SpmvError class when status == kFaulted
  std::string detail;
};

inline void put_reply_status(WireWriter& w, const ReplyStatus& r) {
  w.put<std::uint16_t>(static_cast<std::uint16_t>(r.status));
  w.put<std::uint16_t>(static_cast<std::uint16_t>(r.code));
  w.put_string(r.detail);
}

inline ReplyStatus get_reply_status(WireReader& r) {
  ReplyStatus out;
  out.status = static_cast<ServeStatus>(r.get<std::uint16_t>());
  out.code = static_cast<Status>(r.get<std::uint16_t>());
  out.detail = r.get_string();
  return out;
}

}  // namespace yaspmv::serve
