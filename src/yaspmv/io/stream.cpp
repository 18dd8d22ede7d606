#include "yaspmv/io/stream.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <mutex>
#include <utility>

#include "yaspmv/io/binary.hpp"
#include "yaspmv/util/hash.hpp"

namespace yaspmv::io {

namespace detail {

thread_local ::sigjmp_buf* tl_sigbus_target = nullptr;

namespace {
void sigbus_handler(int sig) {
  if (tl_sigbus_target != nullptr) {
    siglongjmp(*tl_sigbus_target, 1);
  }
  // No guard armed on this thread: this SIGBUS is not ours.  Restore the
  // default disposition and re-raise so the process dies the normal way.
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}
}  // namespace

void install_sigbus_handler() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = sigbus_handler;
    sigemptyset(&sa.sa_mask);
    // SA_NODEFER: the handler exits via siglongjmp, never returns, so the
    // signal must not stay blocked for the next fault.
    sa.sa_flags = SA_NODEFER;
    ::sigaction(SIGBUS, &sa, nullptr);
  });
}

}  // namespace detail

namespace {

constexpr std::size_t kHeaderBytes = 8;    // magic + version
constexpr std::size_t kChecksumBytes = 8;  // trailing Hash64 digest

[[noreturn]] void fail_format(const std::string& msg) {
  throw FormatInvalid("mapped bccoo: " + msg);
}

/// Bounds-checked forward cursor over the mapped payload.  Reads memcpy
/// out of the mapping (array starts are not aligned); skips record an
/// array's offset without touching its bytes.
struct Cursor {
  const unsigned char* base;
  std::size_t size;
  std::size_t off;

  template <class T>
  T get() {
    if (size - off < sizeof(T)) fail_format("truncated geometry");
    T v;
    std::memcpy(&v, base + off, sizeof(T));
    off += sizeof(T);
    return v;
  }

  /// Skips a put_vec-encoded array of `elem`-byte elements; returns
  /// (element count, byte offset of the first element).
  std::pair<std::uint64_t, std::size_t> skip_vec(std::size_t elem) {
    const auto n = get<std::uint64_t>();
    if (n > size / elem || size - off < n * elem) {
      fail_format("array extends past end of file (truncated?)");
    }
    const std::size_t data = off;
    off += static_cast<std::size_t>(n) * elem;
    return {n, data};
  }
};

}  // namespace

MappedBccoo::MappedBccoo(const std::string& path) : path_(path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw IoError("mapped bccoo: cannot open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw IoError("mapped bccoo: cannot stat " + path);
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ < kHeaderBytes + kChecksumBytes) {
    ::close(fd);
    fail_format("file too small for header + checksum");
  }
  void* p = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (p == MAP_FAILED) throw IoError("mapped bccoo: mmap failed for " + path);
  base_ = static_cast<const unsigned char*>(p);
  try {
    // The file can shrink between fstat and these reads; parse + verify
    // walk every payload byte, so arm the trap for the whole pass.
    with_sigbus_guard("mapped bccoo open", [&] { parse_and_verify(); });
  } catch (...) {
    unmap();
    throw;
  }
}

void MappedBccoo::parse_and_verify() {
  Cursor c{base_, size_ - kChecksumBytes, 0};
  if (c.get<std::uint32_t>() != kBccooMagic) fail_format("bad magic");
  if (c.get<std::uint32_t>() != kContainerVersion) {
    fail_format("unsupported version");
  }

  rows_ = c.get<std::int32_t>();
  cols_ = c.get<std::int32_t>();
  block_w_ = c.get<std::int32_t>();
  block_h_ = c.get<std::int32_t>();
  c.get<std::uint8_t>();  // bf_word (simulator packing; irrelevant here)
  slices_ = c.get<std::int32_t>();
  block_rows_ = c.get<std::int32_t>();
  block_cols_ = c.get<std::int32_t>();
  stacked_block_rows_ = c.get<std::int32_t>();
  if (rows_ < 0 || cols_ < 0) fail_format("negative matrix shape");
  if (block_h_ < 1 || block_h_ > 64 || block_w_ < 1 || block_w_ > 64) {
    fail_format("implausible block dimensions");
  }
  if (block_rows_ < 0 || slices_ < 1) fail_format("implausible geometry");
  num_blocks_ = c.get<std::uint64_t>();
  const auto nbits = c.get<std::uint64_t>();
  if (nbits != num_blocks_) fail_format("bit-flag count != block count");

  const auto [nwords, bits_off] = c.skip_vec(sizeof(std::uint32_t));
  if (nwords != (nbits + 31) / 32) fail_format("inconsistent bit-flag array");
  bits_off_ = bits_off;
  bit_words_ = static_cast<std::size_t>(nwords);

  const auto [ncols, cols_off] = c.skip_vec(sizeof(index_t));
  if (ncols != num_blocks_) fail_format("col array size mismatch");
  cols_off_ = cols_off;

  const auto nrows_arrays = c.get<std::uint32_t>();
  if (nrows_arrays != static_cast<std::uint32_t>(block_h_)) {
    fail_format("value-array count != block height");
  }
  vals_off_.resize(nrows_arrays);
  for (auto& off : vals_off_) {
    const auto [nv, voff] = c.skip_vec(sizeof(real_t));
    if (nv != num_blocks_ * static_cast<std::uint64_t>(block_w_)) {
      fail_format("value array size mismatch");
    }
    off = voff;
  }

  const auto [nsegs, segmap_off] = c.skip_vec(sizeof(index_t));
  num_segments_ = static_cast<std::size_t>(nsegs);
  segmap_off_ = segmap_off;
  identity_segments_ = c.get<std::uint8_t>() != 0;
  if (c.off != c.size) fail_format("trailing bytes before checksum");

  // Segment count must equal the number of row stops (zero bits).  Bits
  // past nbits in the last word are writer-zeroed; mask them out.
  std::uint64_t ones = 0;
  for (std::size_t w = 0; w < bit_words_; ++w) {
    std::uint32_t v;
    std::memcpy(&v, base_ + bits_off_ + w * 4, 4);
    if (w == bit_words_ - 1 && (nbits & 31u) != 0) {
      v &= (1u << (nbits & 31u)) - 1u;
    }
    ones += static_cast<std::uint64_t>(std::popcount(v));
  }
  if (num_segments_ != nbits - ones) fail_format("segment map size mismatch");
  if (num_blocks_ > 0 && num_segments_ == 0) {
    fail_format("blocks present but no segment closes");
  }
  for (std::size_t s = 0; s < num_segments_; ++s) {
    const index_t r = seg_row(s);
    if (r < 0 || r >= stacked_block_rows_) {
      fail_format("segment map entry out of range");
    }
  }

  // Full payload checksum (the same Hash64 io/binary.cpp writes): one
  // sequential pass, then the pages are dropped again so opening a huge
  // file does not charge its size to the page cache permanently.
  advise_range(0, size_, Advice::kSequential);
  Hash64 h;
  h.update(base_ + kHeaderBytes, size_ - kHeaderBytes - kChecksumBytes);
  std::memcpy(&checksum_, base_ + size_ - kChecksumBytes, kChecksumBytes);
  if (h.digest() != checksum_) {
    throw DataCorruption("mapped bccoo: payload checksum mismatch in " +
                         path_);
  }
  advise_range(0, size_, Advice::kDontNeed);
}

MappedBccoo::~MappedBccoo() { unmap(); }

MappedBccoo::MappedBccoo(MappedBccoo&& o) noexcept { *this = std::move(o); }

MappedBccoo& MappedBccoo::operator=(MappedBccoo&& o) noexcept {
  if (this != &o) {
    unmap();
    path_ = std::move(o.path_);
    base_ = std::exchange(o.base_, nullptr);
    size_ = std::exchange(o.size_, 0);
    rows_ = o.rows_;
    cols_ = o.cols_;
    block_w_ = o.block_w_;
    block_h_ = o.block_h_;
    slices_ = o.slices_;
    block_rows_ = o.block_rows_;
    block_cols_ = o.block_cols_;
    stacked_block_rows_ = o.stacked_block_rows_;
    num_blocks_ = o.num_blocks_;
    num_segments_ = o.num_segments_;
    identity_segments_ = o.identity_segments_;
    checksum_ = o.checksum_;
    bits_off_ = o.bits_off_;
    bit_words_ = o.bit_words_;
    cols_off_ = o.cols_off_;
    vals_off_ = std::move(o.vals_off_);
    segmap_off_ = o.segmap_off_;
  }
  return *this;
}

void MappedBccoo::unmap() noexcept {
  if (base_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(base_), size_);
    base_ = nullptr;
    size_ = 0;
  }
}

std::uint64_t MappedBccoo::streamed_bytes() const {
  return bit_words_ * 4 + num_blocks_ * sizeof(index_t) +
         num_blocks_ * static_cast<std::uint64_t>(block_w_) *
             static_cast<std::uint64_t>(block_h_) * sizeof(real_t) +
         num_segments_ * sizeof(index_t);
}

void MappedBccoo::copy_cols(std::size_t b0, std::size_t b1,
                            index_t* dst) const {
  require(b0 <= b1 && b1 <= num_blocks_, "mapped bccoo: col range");
  std::memcpy(dst, base_ + cols_off_ + b0 * sizeof(index_t),
              (b1 - b0) * sizeof(index_t));
}

void MappedBccoo::copy_bit_words(std::size_t w0, std::size_t w1,
                                 std::uint32_t* dst) const {
  require(w0 <= w1 && w1 <= bit_words_, "mapped bccoo: bit-word range");
  std::memcpy(dst, base_ + bits_off_ + w0 * 4, (w1 - w0) * 4);
}

void MappedBccoo::copy_vals(std::size_t k, std::size_t b0, std::size_t b1,
                            real_t* dst) const {
  require(k < vals_off_.size() && b0 <= b1 && b1 <= num_blocks_,
          "mapped bccoo: value range");
  const std::size_t bw = static_cast<std::size_t>(block_w_);
  std::memcpy(dst, base_ + vals_off_[k] + b0 * bw * sizeof(real_t),
              (b1 - b0) * bw * sizeof(real_t));
}

index_t MappedBccoo::seg_row(std::size_t seg) const {
  require(seg < num_segments_, "mapped bccoo: segment index");
  index_t r;
  std::memcpy(&r, base_ + segmap_off_ + seg * sizeof(index_t),
              sizeof(index_t));
  return r;
}

void MappedBccoo::advise_range(std::size_t off, std::size_t len,
                               Advice a) const {
  if (base_ == nullptr || len == 0) return;
  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::size_t lo = off, hi = off + len;
  if (a == Advice::kDontNeed) {
    lo = round_up(lo, page);  // inward: never drop a page someone else needs
    hi = hi / page * page;
  } else {
    lo = lo / page * page;  // outward
    hi = std::min(round_up(hi, page), size_);
  }
  if (lo >= hi) return;
  int adv = MADV_NORMAL;
  switch (a) {
    case Advice::kSequential: adv = MADV_SEQUENTIAL; break;
    case Advice::kWillNeed: adv = MADV_WILLNEED; break;
    case Advice::kDontNeed: adv = MADV_DONTNEED; break;
    default: break;
  }
  ::madvise(const_cast<unsigned char*>(base_) + lo, hi - lo, adv);
}

void MappedBccoo::advise_blocks(std::size_t b0, std::size_t b1,
                                Advice a) const {
  if (b0 >= b1 || b1 > num_blocks_) return;
  advise_range(bits_off_ + b0 / 32 * 4, ((b1 + 31) / 32 - b0 / 32) * 4, a);
  advise_range(cols_off_ + b0 * sizeof(index_t),
               (b1 - b0) * sizeof(index_t), a);
  const std::size_t bw = static_cast<std::size_t>(block_w_);
  for (std::size_t k = 0; k < vals_off_.size(); ++k) {
    advise_range(vals_off_[k] + b0 * bw * sizeof(real_t),
                 (b1 - b0) * bw * sizeof(real_t), a);
  }
}

void MappedBccoo::advise_segmap(Advice a) const {
  advise_range(segmap_off_, num_segments_ * sizeof(index_t), a);
}

}  // namespace yaspmv::io
