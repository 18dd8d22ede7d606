// Out-of-core access to the BCCOO binary container (io/binary.hpp): the
// file is memory-mapped read-only and served to the streaming engine tile
// by tile, so a matrix larger than RAM can be applied without ever
// materializing the format in memory.
//
// MappedBccoo parses the same container save_bccoo writes — geometry
// fields up front, then the bit-flag words, the raw 4-byte column index,
// the per-row value arrays and the segment map, with a trailing Hash64
// (XXH64) payload checksum.  Opening verifies the full checksum once (one
// sequential pass over the mapping at memory speed, advised kSequential and
// dropped afterwards), so tampered or bit-rotted files fail typed at open
// instead of mid-apply.  A container of another version (an older build's
// FNV-1a trailer) fails FormatInvalid on the version field before any
// checksum is computed.  The derived compressed column streams are not in
// the file (the in-memory loader rebuilds them); the streaming engine reads
// the raw index, which decodes tile-independently by construction.
//
// Array starts inside the mapping are NOT guaranteed aligned (two u8
// fields sit in the middle of the layout), so access goes through memcpy
// helpers into caller-owned scratch — which is also what keeps the
// engine's apply path free of per-apply allocations.
//
// SIGBUS: a mapped page can vanish under us (file truncated or replaced
// while mapped).  The kernel then delivers SIGBUS at the faulting load,
// which would kill a serving daemon.  with_sigbus_guard runs a callable
// with a thread-local trap armed and converts the fault into a typed
// IoError the caller's normal error handling absorbs.
#pragma once

#include <setjmp.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "yaspmv/core/status.hpp"
#include "yaspmv/util/common.hpp"

namespace yaspmv::io {

namespace detail {
/// Installs the process-wide SIGBUS handler once (idempotent, thread-safe).
void install_sigbus_handler();
/// The armed trap of the current thread, or null when no guard is active.
/// The handler siglongjmps here; with no trap armed it restores the default
/// disposition and re-raises (a genuine bus error elsewhere still crashes).
extern thread_local ::sigjmp_buf* tl_sigbus_target;
}  // namespace detail

/// Runs `fn` with a SIGBUS trap armed: a bus fault raised inside (a mapped
/// file shrank or was replaced under the mapping) surfaces as IoError
/// instead of terminating the process.  Guards nest per thread; the fault
/// unwinds to the innermost active guard.
template <class Fn>
void with_sigbus_guard(const char* what, Fn&& fn) {
  detail::install_sigbus_handler();
  ::sigjmp_buf buf;
  ::sigjmp_buf* const prev = detail::tl_sigbus_target;
  detail::tl_sigbus_target = &buf;
  // savemask=1: the handler's masked-signal state is rolled back too.
  if (sigsetjmp(buf, 1) != 0) {
    detail::tl_sigbus_target = prev;
    throw IoError(std::string(what) +
                  ": lost access to the mapped file (SIGBUS — truncated or "
                  "replaced while mapped)");
  }
  try {
    fn();
  } catch (...) {
    detail::tl_sigbus_target = prev;
    throw;
  }
  detail::tl_sigbus_target = prev;
}

/// madvise intent, kept abstract so <sys/mman.h> stays out of this header.
enum class Advice { kNormal, kSequential, kWillNeed, kDontNeed };

/// A BCCOO container memory-mapped read-only, exposing the geometry and
/// bounds-checked tile copies out of the raw arrays.  Move-only; the
/// mapping lives until destruction.
class MappedBccoo {
 public:
  /// Opens, maps and verifies `path`.  Throws IoError (open/map failure or
  /// a mapping that faults during verification), FormatInvalid (bad magic,
  /// version, or structurally inconsistent arrays) or DataCorruption
  /// (payload checksum mismatch).
  explicit MappedBccoo(const std::string& path);
  ~MappedBccoo();
  MappedBccoo(MappedBccoo&& o) noexcept;
  MappedBccoo& operator=(MappedBccoo&& o) noexcept;
  MappedBccoo(const MappedBccoo&) = delete;
  MappedBccoo& operator=(const MappedBccoo&) = delete;

  const std::string& path() const { return path_; }
  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  std::int32_t block_w() const { return block_w_; }
  std::int32_t block_h() const { return block_h_; }
  std::int32_t slices() const { return slices_; }
  std::int32_t block_rows() const { return block_rows_; }
  std::uint64_t num_blocks() const { return num_blocks_; }
  std::size_t num_segments() const { return num_segments_; }
  /// The container's stored Hash64 payload checksum (verified at open) —
  /// a stable content id, e.g. the serve registry key.
  std::uint64_t payload_checksum() const { return checksum_; }
  /// Bytes one full apply streams off the mapping (per-block arrays plus
  /// the segment map) — the numerator of the out-of-core GB/s series.
  std::uint64_t streamed_bytes() const;

  /// Copies block columns [b0, b1) of the raw column index into `dst`
  /// (bounds-checked; the source may be unaligned).
  void copy_cols(std::size_t b0, std::size_t b1, index_t* dst) const;
  /// Copies bit-flag words [w0, w1) into `dst`.
  void copy_bit_words(std::size_t w0, std::size_t w1,
                      std::uint32_t* dst) const;
  /// Copies value row `k` of blocks [b0, b1) — (b1 - b0) * block_w reals.
  void copy_vals(std::size_t k, std::size_t b0, std::size_t b1,
                 real_t* dst) const;
  /// The stacked block row segment `seg` closes on.
  index_t seg_row(std::size_t seg) const;

  /// madvise over every per-block array's byte range for blocks [b0, b1)
  /// (page-rounded outward for kWillNeed/kSequential, inward for
  /// kDontNeed).  Advisory: errors are ignored.
  void advise_blocks(std::size_t b0, std::size_t b1, Advice a) const;
  /// madvise over the whole segment map.
  void advise_segmap(Advice a) const;

 private:
  void parse_and_verify();
  void advise_range(std::size_t off, std::size_t len, Advice a) const;
  void unmap() noexcept;

  std::string path_;
  const unsigned char* base_ = nullptr;
  std::size_t size_ = 0;

  index_t rows_ = 0, cols_ = 0;
  std::int32_t block_w_ = 1, block_h_ = 1, slices_ = 1;
  std::int32_t block_rows_ = 0, block_cols_ = 0, stacked_block_rows_ = 0;
  std::uint64_t num_blocks_ = 0;
  std::size_t num_segments_ = 0;
  bool identity_segments_ = false;
  std::uint64_t checksum_ = 0;

  // Byte offsets of the raw arrays inside the mapping.
  std::size_t bits_off_ = 0;
  std::size_t bit_words_ = 0;
  std::size_t cols_off_ = 0;
  std::vector<std::size_t> vals_off_;  ///< one per value row (block_h)
  std::size_t segmap_off_ = 0;
};

}  // namespace yaspmv::io
