#include "yaspmv/io/binary.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>

#include "yaspmv/core/status.hpp"
#include "yaspmv/io/envelope.hpp"

namespace yaspmv::io {

namespace {

constexpr std::uint32_t kCooMagic = 0x4F4F4359;  // "YCOO"

constexpr detail::Envelope kCooEnvelope{"binary io", kCooMagic,
                                        kContainerVersion, "bad magic",
                                        "unsupported version"};
constexpr detail::Envelope kBccooEnvelope{"binary io", kBccooMagic,
                                          kContainerVersion, "bad magic",
                                          "unsupported version"};

[[noreturn]] void fail_io(const std::string& msg) {
  throw IoError("binary io: " + msg);
}

[[noreturn]] void fail_format(const std::string& msg) {
  throw FormatInvalid("binary io: " + msg);
}

template <class T>
void put_vec(detail::EnvelopeWriter& w, const std::vector<T>& v) {
  w.put<std::uint64_t>(v.size());
  if (!v.empty()) w.bytes(v.data(), v.size() * sizeof(T));
}

template <class T>
std::vector<T> get_vec(detail::EnvelopeReader& r,
                       std::uint64_t limit = 1ull << 33) {
  const auto n = r.get<std::uint64_t>();
  // Overflow-safe length validation: n * sizeof(T) must not wrap before the
  // comparison, and the total must stay under the plausibility limit.
  if (n > limit / sizeof(T)) fail_format("array size implausible (corrupt file?)");
  std::vector<T> v(n);
  if (n != 0) r.bytes(v.data(), n * sizeof(T));
  return v;
}

}  // namespace

void save_coo(std::ostream& out, const fmt::Coo& m) {
  detail::EnvelopeWriter w(out, kCooEnvelope);
  w.put<std::int32_t>(m.rows);
  w.put<std::int32_t>(m.cols);
  put_vec(w, m.row_idx);
  put_vec(w, m.col_idx);
  put_vec(w, m.vals);
  w.finish();
}

fmt::Coo load_coo(std::istream& in) {
  detail::EnvelopeReader r(in, kCooEnvelope);
  fmt::Coo m;
  m.rows = r.get<std::int32_t>();
  m.cols = r.get<std::int32_t>();
  if (m.rows < 0 || m.cols < 0) fail_format("negative matrix shape");
  m.row_idx = get_vec<index_t>(r);
  m.col_idx = get_vec<index_t>(r);
  m.vals = get_vec<real_t>(r);
  r.finish();
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
  detail::EnvelopeWriter w(out, kBccooEnvelope);
  w.put<std::int32_t>(m.rows);
  w.put<std::int32_t>(m.cols);
  w.put<std::int32_t>(m.cfg.block_w);
  w.put<std::int32_t>(m.cfg.block_h);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(m.cfg.bf_word));
  w.put<std::int32_t>(m.cfg.slices);
  w.put<std::int32_t>(m.block_rows);
  w.put<std::int32_t>(m.block_cols);
  w.put<std::int32_t>(m.stacked_block_rows);
  w.put<std::uint64_t>(m.num_blocks);
  w.put<std::uint64_t>(m.bit_flags.size());
  put_vec(w, m.bit_flags.words());
  put_vec(w, m.col_index);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(m.value_rows.size()));
  for (const auto& vr : m.value_rows) put_vec(w, vr);
  put_vec(w, m.seg_to_block_row);
  w.put<std::uint8_t>(m.identity_segments ? 1 : 0);
  w.finish();
}

core::Bccoo load_bccoo(std::istream& in, bool rebuild_derived) {
  detail::EnvelopeReader r(in, kBccooEnvelope);
  core::Bccoo m;
  m.rows = r.get<std::int32_t>();
  m.cols = r.get<std::int32_t>();
  m.cfg.block_w = r.get<std::int32_t>();
  m.cfg.block_h = r.get<std::int32_t>();
  m.cfg.bf_word = static_cast<BitFlagWord>(r.get<std::uint8_t>());
  m.cfg.slices = r.get<std::int32_t>();
  m.block_rows = r.get<std::int32_t>();
  m.block_cols = r.get<std::int32_t>();
  m.stacked_block_rows = r.get<std::int32_t>();
  if (m.cfg.block_h < 1 || m.cfg.block_h > 64 || m.cfg.block_w < 1 ||
      m.cfg.block_w > 64) {
    fail_format("implausible block dimensions");
  }
  m.num_blocks = r.get<std::uint64_t>();
  const auto nbits = r.get<std::uint64_t>();
  const auto words = get_vec<std::uint32_t>(r);
  if (words.size() != (nbits + 31) / 32 || nbits != m.num_blocks) {
    fail_format("inconsistent bit-flag array");
  }
  m.bit_flags = BitArray(nbits);
  for (std::uint64_t i = 0; i < nbits; ++i) {
    m.bit_flags.set(i, (words[i >> 5] >> (i & 31u)) & 1u);
  }
  m.col_index = get_vec<index_t>(r);
  const auto nrows_arrays = r.get<std::uint32_t>();
  if (nrows_arrays != static_cast<std::uint32_t>(m.cfg.block_h)) {
    fail_format("value-array count != block height");
  }
  m.value_rows.resize(nrows_arrays);
  for (auto& vr : m.value_rows) {
    vr = get_vec<real_t>(r);
    if (vr.size() != m.num_blocks * static_cast<std::size_t>(m.cfg.block_w)) {
      fail_format("value array size mismatch");
    }
  }
  m.seg_to_block_row = get_vec<index_t>(r);
  m.identity_segments = r.get<std::uint8_t>() != 0;
  r.finish();
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
