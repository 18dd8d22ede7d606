#include "yaspmv/io/binary.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>

#include "yaspmv/core/status.hpp"
#include "yaspmv/util/hash.hpp"

namespace yaspmv::io {

namespace {

constexpr std::uint32_t kCooMagic = 0x4F4F4359;  // "YCOO"

[[noreturn]] void fail_io(const std::string& msg) {
  throw IoError("binary io: " + msg);
}

[[noreturn]] void fail_format(const std::string& msg) {
  throw FormatInvalid("binary io: " + msg);
}

template <class T>
void put(std::ostream& out, const T& v, Hash64& hash) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
  if (!out) fail_io("write failed");
  hash.update(&v, sizeof(T));
}

template <class T>
T get(std::istream& in, Hash64& hash) {
  T v;
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) fail_io("truncated stream");
  hash.update(&v, sizeof(T));
  return v;
}

template <class T>
void put_vec(std::ostream& out, const std::vector<T>& v, Hash64& hash) {
  put<std::uint64_t>(out, v.size(), hash);
  if (!v.empty()) {
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(T)));
    if (!out) fail_io("write failed");
    hash.update(v.data(), v.size() * sizeof(T));
  }
}

template <class T>
std::vector<T> get_vec(std::istream& in, Hash64& hash,
                       std::uint64_t limit = 1ull << 33) {
  const auto n = get<std::uint64_t>(in, hash);
  // Overflow-safe length validation: n * sizeof(T) must not wrap before the
  // comparison, and the total must stay under the plausibility limit.
  if (n > limit / sizeof(T)) fail_format("array size implausible (corrupt file?)");
  std::vector<T> v(n);
  if (n != 0) {
    in.read(reinterpret_cast<char*>(v.data()),
            static_cast<std::streamsize>(n * sizeof(T)));
    if (!in) fail_io("truncated stream");
    hash.update(v.data(), n * sizeof(T));
  }
  return v;
}

void write_header(std::ostream& out, std::uint32_t magic) {
  Hash64 scratch;  // header is outside the checksum
  put(out, magic, scratch);
  put(out, kContainerVersion, scratch);
}

void check_header(std::istream& in, std::uint32_t magic) {
  Hash64 scratch;
  if (get<std::uint32_t>(in, scratch) != magic) fail_format("bad magic");
  if (get<std::uint32_t>(in, scratch) != kContainerVersion) {
    fail_format("unsupported version");
  }
}

void write_checksum(std::ostream& out, const Hash64& hash) {
  const std::uint64_t d = hash.digest();
  out.write(reinterpret_cast<const char*>(&d), sizeof(d));
  if (!out) fail_io("write failed");
}

void check_checksum(std::istream& in, const Hash64& hash) {
  std::uint64_t want = 0;
  in.read(reinterpret_cast<char*>(&want), sizeof(want));
  if (!in) fail_io("truncated stream (missing checksum)");
  if (want != hash.digest()) {
    throw DataCorruption("binary io: payload checksum mismatch");
  }
}

}  // namespace

void save_coo(std::ostream& out, const fmt::Coo& m) {
  write_header(out, kCooMagic);
  Hash64 hash;
  put<std::int32_t>(out, m.rows, hash);
  put<std::int32_t>(out, m.cols, hash);
  put_vec(out, m.row_idx, hash);
  put_vec(out, m.col_idx, hash);
  put_vec(out, m.vals, hash);
  write_checksum(out, hash);
}

fmt::Coo load_coo(std::istream& in) {
  check_header(in, kCooMagic);
  Hash64 hash;
  fmt::Coo m;
  m.rows = get<std::int32_t>(in, hash);
  m.cols = get<std::int32_t>(in, hash);
  if (m.rows < 0 || m.cols < 0) fail_format("negative matrix shape");
  m.row_idx = get_vec<index_t>(in, hash);
  m.col_idx = get_vec<index_t>(in, hash);
  m.vals = get_vec<real_t>(in, hash);
  check_checksum(in, hash);
  if (m.row_idx.size() != m.col_idx.size() ||
      m.col_idx.size() != m.vals.size()) {
    fail_format("inconsistent COO arrays");
  }
  if (!m.is_canonical()) fail_format("COO not canonical");
  for (std::size_t i = 0; i < m.nnz(); ++i) {
    if (m.row_idx[i] < 0 || m.row_idx[i] >= m.rows || m.col_idx[i] < 0 ||
        m.col_idx[i] >= m.cols) {
      fail_format("COO index out of range");
    }
  }
  return m;
}

void save_bccoo(std::ostream& out, const core::Bccoo& m) {
  write_header(out, kBccooMagic);
  Hash64 hash;
  put<std::int32_t>(out, m.rows, hash);
  put<std::int32_t>(out, m.cols, hash);
  put<std::int32_t>(out, m.cfg.block_w, hash);
  put<std::int32_t>(out, m.cfg.block_h, hash);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(m.cfg.bf_word), hash);
  put<std::int32_t>(out, m.cfg.slices, hash);
  put<std::int32_t>(out, m.block_rows, hash);
  put<std::int32_t>(out, m.block_cols, hash);
  put<std::int32_t>(out, m.stacked_block_rows, hash);
  put<std::uint64_t>(out, m.num_blocks, hash);
  put<std::uint64_t>(out, m.bit_flags.size(), hash);
  put_vec(out, m.bit_flags.words(), hash);
  put_vec(out, m.col_index, hash);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(m.value_rows.size()),
                     hash);
  for (const auto& vr : m.value_rows) put_vec(out, vr, hash);
  put_vec(out, m.seg_to_block_row, hash);
  put<std::uint8_t>(out, m.identity_segments ? 1 : 0, hash);
  write_checksum(out, hash);
}

core::Bccoo load_bccoo(std::istream& in, bool rebuild_derived) {
  check_header(in, kBccooMagic);
  Hash64 hash;
  core::Bccoo m;
  m.rows = get<std::int32_t>(in, hash);
  m.cols = get<std::int32_t>(in, hash);
  m.cfg.block_w = get<std::int32_t>(in, hash);
  m.cfg.block_h = get<std::int32_t>(in, hash);
  m.cfg.bf_word = static_cast<BitFlagWord>(get<std::uint8_t>(in, hash));
  m.cfg.slices = get<std::int32_t>(in, hash);
  m.block_rows = get<std::int32_t>(in, hash);
  m.block_cols = get<std::int32_t>(in, hash);
  m.stacked_block_rows = get<std::int32_t>(in, hash);
  if (m.cfg.block_h < 1 || m.cfg.block_h > 64 || m.cfg.block_w < 1 ||
      m.cfg.block_w > 64) {
    fail_format("implausible block dimensions");
  }
  m.num_blocks = get<std::uint64_t>(in, hash);
  const auto nbits = get<std::uint64_t>(in, hash);
  const auto words = get_vec<std::uint32_t>(in, hash);
  if (words.size() != (nbits + 31) / 32 || nbits != m.num_blocks) {
    fail_format("inconsistent bit-flag array");
  }
  m.bit_flags = BitArray(nbits);
  for (std::uint64_t i = 0; i < nbits; ++i) {
    m.bit_flags.set(i, (words[i >> 5] >> (i & 31u)) & 1u);
  }
  m.col_index = get_vec<index_t>(in, hash);
  const auto nrows_arrays = get<std::uint32_t>(in, hash);
  if (nrows_arrays != static_cast<std::uint32_t>(m.cfg.block_h)) {
    fail_format("value-array count != block height");
  }
  m.value_rows.resize(nrows_arrays);
  for (auto& vr : m.value_rows) {
    vr = get_vec<real_t>(in, hash);
    if (vr.size() != m.num_blocks * static_cast<std::size_t>(m.cfg.block_w)) {
      fail_format("value array size mismatch");
    }
  }
  m.seg_to_block_row = get_vec<index_t>(in, hash);
  m.identity_segments = get<std::uint8_t>(in, hash) != 0;
  check_checksum(in, hash);
  if (m.col_index.size() != m.num_blocks) fail_format("col array size mismatch");
  if (m.seg_to_block_row.size() != m.bit_flags.count_zeros()) {
    fail_format("segment map size mismatch");
  }
  // Full structural validation (allowing non-finite values through: the
  // writer may have been fed an allow_nonfinite matrix on purpose).
  try {
    m.validate(/*allow_nonfinite=*/true);
  } catch (const FormatInvalid& e) {
    fail_format(std::string("loaded format fails validation: ") + e.what());
  }
  // The compressed column streams and the ABFT checksum plan are derived
  // data and not part of the file format: rebuild them from the (validated)
  // arrays so a loaded format is ready for the compressed kernels and for
  // checksum-verified applies, and round-trips compare equal under
  // operator==.
  if (rebuild_derived) {
    m.build_col_streams();
    m.build_checksums();
  }
  return m;
}

void save_coo_file(const std::string& path, const fmt::Coo& m) {
  std::ofstream f(path, std::ios::binary);
  if (!f) fail_io("cannot open " + path);
  save_coo(f, m);
}

fmt::Coo load_coo_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) fail_io("cannot open " + path);
  return load_coo(f);
}

void save_bccoo_file(const std::string& path, const core::Bccoo& m) {
  std::ofstream f(path, std::ios::binary);
  if (!f) fail_io("cannot open " + path);
  save_bccoo(f, m);
}

core::Bccoo load_bccoo_file(const std::string& path, bool rebuild_derived) {
  std::ifstream f(path, std::ios::binary);
  if (!f) fail_io("cannot open " + path);
  return load_bccoo(f, rebuild_derived);
}

}  // namespace yaspmv::io
