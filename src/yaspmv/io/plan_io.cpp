#include "yaspmv/io/plan_io.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "yaspmv/core/status.hpp"
#include "yaspmv/io/envelope.hpp"
#include "yaspmv/util/hash.hpp"

namespace yaspmv::io {

namespace {

constexpr std::uint32_t kPlanMagic = 0x4E4C5059;  // "YPLN"

constexpr detail::Envelope kPlanEnvelope{"plan io", kPlanMagic,
                                         kPlanFileVersion, "bad magic",
                                         "unsupported plan file version"};

[[noreturn]] void fail_io(const std::string& msg) {
  throw IoError("plan io: " + msg);
}

void put_string(detail::EnvelopeWriter& w, const std::string& s) {
  w.put<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
  if (!s.empty()) w.bytes(s.data(), s.size());
}

std::string get_string(detail::EnvelopeReader& r) {
  const auto n = r.get<std::uint32_t>();
  if (n > (1u << 16)) r.fail_format("string length implausible");
  std::string s(n, '\0');
  if (n != 0) r.bytes(s.data(), n);
  return s;
}

void put_candidate(detail::EnvelopeWriter& w, const tune::Candidate& c) {
  w.put<std::int32_t>(c.format.block_w);
  w.put<std::int32_t>(c.format.block_h);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(c.format.bf_word));
  w.put<std::int32_t>(c.format.slices);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(c.exec.strategy));
  w.put<std::int32_t>(c.exec.workgroup_size);
  w.put<std::int32_t>(c.exec.thread_tile);
  w.put<std::int32_t>(c.exec.shm_tile);
  w.put<std::int32_t>(c.exec.result_cache_multiple);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(c.exec.transpose));
  std::uint8_t flags = 0;
  flags |= c.exec.use_texture ? 1u : 0u;
  flags |= c.exec.compress_col_delta ? 2u : 0u;
  flags |= c.exec.short_col_index ? 4u : 0u;
  flags |= c.exec.adjacent_sync ? 8u : 0u;
  flags |= c.exec.skip_scan_opt ? 16u : 0u;
  flags |= c.exec.logical_ids ? 32u : 0u;
  w.put<std::uint8_t>(flags);
  w.put<std::uint32_t>(c.exec.workers);
  w.put<double>(c.gflops);
  w.put<std::uint64_t>(c.footprint);
  w.put<double>(c.measured_gflops);
  w.put<std::uint64_t>(c.measured_bytes);
  put_string(w, c.kernel);  // v2: dispatched kernel id
}

tune::Candidate get_candidate(detail::EnvelopeReader& r) {
  tune::Candidate c;
  c.format.block_w = r.get<std::int32_t>();
  c.format.block_h = r.get<std::int32_t>();
  c.format.bf_word = static_cast<BitFlagWord>(r.get<std::uint8_t>());
  c.format.slices = r.get<std::int32_t>();
  c.exec.strategy = static_cast<core::Strategy>(r.get<std::uint8_t>());
  c.exec.workgroup_size = r.get<std::int32_t>();
  c.exec.thread_tile = r.get<std::int32_t>();
  c.exec.shm_tile = r.get<std::int32_t>();
  c.exec.result_cache_multiple = r.get<std::int32_t>();
  c.exec.transpose = static_cast<core::Transpose>(r.get<std::uint8_t>());
  const auto flags = r.get<std::uint8_t>();
  c.exec.use_texture = (flags & 1u) != 0;
  c.exec.compress_col_delta = (flags & 2u) != 0;
  c.exec.short_col_index = (flags & 4u) != 0;
  c.exec.adjacent_sync = (flags & 8u) != 0;
  c.exec.skip_scan_opt = (flags & 16u) != 0;
  c.exec.logical_ids = (flags & 32u) != 0;
  c.exec.workers = r.get<std::uint32_t>();
  c.gflops = r.get<double>();
  c.footprint = static_cast<std::size_t>(r.get<std::uint64_t>());
  c.measured_gflops = r.get<double>();
  c.measured_bytes = static_cast<std::size_t>(r.get<std::uint64_t>());
  c.kernel = get_string(r);
  // Kernel ids are short fixed-vocabulary strings ("generic",
  // "grid/w8h4/delta", ...); anything longer is version skew or hostility.
  if (c.kernel.empty() || c.kernel.size() > 64) {
    r.fail_format("stored kernel id implausible");
  }
  // Plausibility gates: a plan with nonsense geometry must not reach
  // Bccoo::build / the engine even if its checksum is intact (a hostile or
  // version-skewed file could be internally consistent).
  if (c.format.block_w < 1 || c.format.block_w > 64 || c.format.block_h < 1 ||
      c.format.block_h > 64 || c.format.slices < 1 ||
      c.format.slices > 4096) {
    r.fail_format("stored format geometry implausible");
  }
  if (c.exec.workgroup_size < 1 || c.exec.workgroup_size > 4096 ||
      c.exec.thread_tile < 1 || c.exec.thread_tile > 4096) {
    r.fail_format("stored exec geometry implausible");
  }
  if (c.exec.strategy != core::Strategy::kIntermediateSums &&
      c.exec.strategy != core::Strategy::kResultCache) {
    r.fail_format("stored strategy out of range");
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
  detail::EnvelopeWriter w(out, kPlanEnvelope);
  w.put<std::uint32_t>(p.code_version);
  w.put<std::uint64_t>(p.payload_checksum);
  put_string(w, p.device);
  put_candidate(w, p.best);
  w.put<double>(p.tuning_seconds);
  w.put<std::int32_t>(p.evaluated);
  w.finish();
}

PlanRecord load_plan(std::istream& in) {
  detail::EnvelopeReader r(in, kPlanEnvelope);
  PlanRecord p;
  p.code_version = r.get<std::uint32_t>();
  // Check the code version *before* parsing the candidate: the candidate
  // layout itself changes across code versions (v2 appended the kernel id),
  // so a stale plan must fail deterministically here rather than mis-parse
  // downstream fields into a plausible-looking wrong plan.
  if (p.code_version != kPlanCodeVersion) {
    r.fail_format("stale plan code version " +
                  std::to_string(p.code_version) + " (want " +
                  std::to_string(kPlanCodeVersion) + ")");
  }
  p.payload_checksum = r.get<std::uint64_t>();
  p.device = get_string(r);
  p.best = get_candidate(r);
  p.tuning_seconds = r.get<double>();
  p.evaluated = r.get<std::int32_t>();
  r.finish();
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
