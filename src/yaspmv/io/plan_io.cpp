#include "yaspmv/io/plan_io.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "yaspmv/core/status.hpp"
#include "yaspmv/util/hash.hpp"

namespace yaspmv::io {

namespace {

constexpr std::uint32_t kPlanMagic = 0x4E4C5059;  // "YPLN"

[[noreturn]] void fail_io(const std::string& msg) {
  throw IoError("plan io: " + msg);
}

[[noreturn]] void fail_format(const std::string& msg) {
  throw FormatInvalid("plan io: " + msg);
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

void put_string(std::ostream& out, const std::string& s, Hash64& hash) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()), hash);
  if (!s.empty()) {
    out.write(s.data(), static_cast<std::streamsize>(s.size()));
    if (!out) fail_io("write failed");
    hash.update(s.data(), s.size());
  }
}

std::string get_string(std::istream& in, Hash64& hash) {
  const auto n = get<std::uint32_t>(in, hash);
  if (n > (1u << 16)) fail_format("string length implausible");
  std::string s(n, '\0');
  if (n != 0) {
    in.read(s.data(), n);
    if (!in) fail_io("truncated stream");
    hash.update(s.data(), n);
  }
  return s;
}

void put_candidate(std::ostream& out, const tune::Candidate& c, Hash64& hash) {
  put<std::int32_t>(out, c.format.block_w, hash);
  put<std::int32_t>(out, c.format.block_h, hash);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(c.format.bf_word), hash);
  put<std::int32_t>(out, c.format.slices, hash);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(c.exec.strategy), hash);
  put<std::int32_t>(out, c.exec.workgroup_size, hash);
  put<std::int32_t>(out, c.exec.thread_tile, hash);
  put<std::int32_t>(out, c.exec.shm_tile, hash);
  put<std::int32_t>(out, c.exec.result_cache_multiple, hash);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(c.exec.transpose), hash);
  std::uint8_t flags = 0;
  flags |= c.exec.use_texture ? 1u : 0u;
  flags |= c.exec.compress_col_delta ? 2u : 0u;
  flags |= c.exec.short_col_index ? 4u : 0u;
  flags |= c.exec.adjacent_sync ? 8u : 0u;
  flags |= c.exec.skip_scan_opt ? 16u : 0u;
  flags |= c.exec.logical_ids ? 32u : 0u;
  put<std::uint8_t>(out, flags, hash);
  put<std::uint32_t>(out, c.exec.workers, hash);
  put<double>(out, c.gflops, hash);
  put<std::uint64_t>(out, c.footprint, hash);
  put<double>(out, c.measured_gflops, hash);
  put<std::uint64_t>(out, c.measured_bytes, hash);
  put_string(out, c.kernel, hash);  // v2: dispatched kernel id
}

tune::Candidate get_candidate(std::istream& in, Hash64& hash) {
  tune::Candidate c;
  c.format.block_w = get<std::int32_t>(in, hash);
  c.format.block_h = get<std::int32_t>(in, hash);
  c.format.bf_word = static_cast<BitFlagWord>(get<std::uint8_t>(in, hash));
  c.format.slices = get<std::int32_t>(in, hash);
  c.exec.strategy = static_cast<core::Strategy>(get<std::uint8_t>(in, hash));
  c.exec.workgroup_size = get<std::int32_t>(in, hash);
  c.exec.thread_tile = get<std::int32_t>(in, hash);
  c.exec.shm_tile = get<std::int32_t>(in, hash);
  c.exec.result_cache_multiple = get<std::int32_t>(in, hash);
  c.exec.transpose = static_cast<core::Transpose>(get<std::uint8_t>(in, hash));
  const auto flags = get<std::uint8_t>(in, hash);
  c.exec.use_texture = (flags & 1u) != 0;
  c.exec.compress_col_delta = (flags & 2u) != 0;
  c.exec.short_col_index = (flags & 4u) != 0;
  c.exec.adjacent_sync = (flags & 8u) != 0;
  c.exec.skip_scan_opt = (flags & 16u) != 0;
  c.exec.logical_ids = (flags & 32u) != 0;
  c.exec.workers = get<std::uint32_t>(in, hash);
  c.gflops = get<double>(in, hash);
  c.footprint = static_cast<std::size_t>(get<std::uint64_t>(in, hash));
  c.measured_gflops = get<double>(in, hash);
  c.measured_bytes = static_cast<std::size_t>(get<std::uint64_t>(in, hash));
  c.kernel = get_string(in, hash);
  // Kernel ids are short fixed-vocabulary strings ("generic",
  // "grid/w8h4/delta", ...); anything longer is version skew or hostility.
  if (c.kernel.empty() || c.kernel.size() > 64) {
    fail_format("stored kernel id implausible");
  }
  // Plausibility gates: a plan with nonsense geometry must not reach
  // Bccoo::build / the engine even if its checksum is intact (a hostile or
  // version-skewed file could be internally consistent).
  if (c.format.block_w < 1 || c.format.block_w > 64 || c.format.block_h < 1 ||
      c.format.block_h > 64 || c.format.slices < 1 ||
      c.format.slices > 4096) {
    fail_format("stored format geometry implausible");
  }
  if (c.exec.workgroup_size < 1 || c.exec.workgroup_size > 4096 ||
      c.exec.thread_tile < 1 || c.exec.thread_tile > 4096) {
    fail_format("stored exec geometry implausible");
  }
  if (c.exec.strategy != core::Strategy::kIntermediateSums &&
      c.exec.strategy != core::Strategy::kResultCache) {
    fail_format("stored strategy out of range");
  }
  return c;
}

}  // namespace

std::uint64_t payload_checksum(const fmt::Coo& a) {
  Hash64 h;
  const std::int32_t rows = a.rows;
  const std::int32_t cols = a.cols;
  h.update(&rows, sizeof rows);
  h.update(&cols, sizeof cols);
  const std::uint64_t nnz = a.nnz();
  h.update(&nnz, sizeof nnz);
  if (!a.row_idx.empty()) {
    h.update(a.row_idx.data(), a.row_idx.size() * sizeof(index_t));
  }
  if (!a.col_idx.empty()) {
    h.update(a.col_idx.data(), a.col_idx.size() * sizeof(index_t));
  }
  if (!a.vals.empty()) {
    h.update(a.vals.data(), a.vals.size() * sizeof(real_t));
  }
  return h.digest();
}

void save_plan(std::ostream& out, const PlanRecord& p) {
  Hash64 scratch;  // header is outside the checksum
  put(out, kPlanMagic, scratch);
  put(out, kPlanFileVersion, scratch);
  Hash64 hash;
  put<std::uint32_t>(out, p.code_version, hash);
  put<std::uint64_t>(out, p.payload_checksum, hash);
  put_string(out, p.device, hash);
  put_candidate(out, p.best, hash);
  put<double>(out, p.tuning_seconds, hash);
  put<std::int32_t>(out, p.evaluated, hash);
  const std::uint64_t d = hash.digest();
  out.write(reinterpret_cast<const char*>(&d), sizeof d);
  if (!out) fail_io("write failed");
}

PlanRecord load_plan(std::istream& in) {
  Hash64 scratch;
  if (get<std::uint32_t>(in, scratch) != kPlanMagic) fail_format("bad magic");
  if (get<std::uint32_t>(in, scratch) != kPlanFileVersion) {
    fail_format("unsupported plan file version");
  }
  Hash64 hash;
  PlanRecord p;
  p.code_version = get<std::uint32_t>(in, hash);
  // Check the code version *before* parsing the candidate: the candidate
  // layout itself changes across code versions (v2 appended the kernel id),
  // so a stale plan must fail deterministically here rather than mis-parse
  // downstream fields into a plausible-looking wrong plan.
  if (p.code_version != kPlanCodeVersion) {
    fail_format("stale plan code version " + std::to_string(p.code_version) +
                " (want " + std::to_string(kPlanCodeVersion) + ")");
  }
  p.payload_checksum = get<std::uint64_t>(in, hash);
  p.device = get_string(in, hash);
  p.best = get_candidate(in, hash);
  p.tuning_seconds = get<double>(in, hash);
  p.evaluated = get<std::int32_t>(in, hash);
  std::uint64_t want = 0;
  in.read(reinterpret_cast<char*>(&want), sizeof want);
  if (!in) fail_io("truncated stream (missing checksum)");
  if (want != hash.digest()) {
    throw DataCorruption("plan io: payload checksum mismatch");
  }
  return p;
}

void save_plan_file(const std::string& path, const PlanRecord& p) {
  std::ofstream f(path, std::ios::binary);
  if (!f) fail_io("cannot open " + path);
  save_plan(f, p);
  f.flush();
  if (!f) fail_io("flush failed for " + path);
}

PlanRecord load_plan_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) fail_io("cannot open " + path);
  return load_plan(f);
}

}  // namespace yaspmv::io
