// (De)serialization of tuned execution plans — the paper's compiled-kernel
// cache (Section 5) made durable.
//
// A PlanRecord freezes the outcome of one auto-tuning run: the winning
// FormatConfig/ExecConfig pair plus the metadata needed to decide whether a
// stored plan still applies.  The key has three parts and all of them are
// stored *inside* the file and re-checked on load:
//
//   * payload_checksum — Hash64 (XXH64) over the matrix's canonical COO
//     triplets (shape + indices + values), so a plan never outlives its
//     matrix;
//   * device           — the DeviceSpec the tuner modeled against;
//   * code_version     — kPlanCodeVersion, bumped whenever the tuner, the
//     formats or the kernels change meaning; stale plans load as a miss.
//
// The container is the same shape as the other YASPMV binary files: magic,
// file version, payload, trailing Hash64 checksum.  A file of another
// version (an older build's FNV-1a trailer) is FormatInvalid.  load_plan
// throws typed SpmvErrors; the durable PlanCache (serve/plan_cache) catches
// them and treats every failure as a cache miss — a corrupt or old plan file
// re-tunes, it never crashes the server.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "yaspmv/formats/coo.hpp"
#include "yaspmv/tune/tuner.hpp"

namespace yaspmv::io {

/// File-format version (container layout), independent of kPlanCodeVersion
/// (semantic validity of the stored configs).  v2: the trailer is Hash64
/// instead of FNV-1a; the layout is unchanged.
constexpr std::uint32_t kPlanFileVersion = 2;

/// Bump when a stored FormatConfig/ExecConfig would no longer reproduce the
/// same kernels (tuner heuristics, format layout or exec semantics changed).
/// v2: plans record the dispatched kernel id (specialization grid,
/// cpu/kernels_grid.hpp); v1 plans predate dispatch and load as a miss.
constexpr std::uint32_t kPlanCodeVersion = 2;

/// One durable auto-tuning outcome.
struct PlanRecord {
  std::uint64_t payload_checksum = 0;
  std::string device;
  std::uint32_t code_version = kPlanCodeVersion;
  tune::Candidate best;        ///< winning config + modeled/measured numbers
  double tuning_seconds = 0;   ///< what the cache hit saved
  int evaluated = 0;           ///< sweep size behind the stored plan
};

/// Hash64 over rows, cols and the canonical triplet arrays — the identity of
/// a matrix for plan-cache purposes and its serve registry id.  64 bits
/// because registration is idempotent by id: two matrices sharing one would
/// be served as one.
std::uint64_t payload_checksum(const fmt::Coo& a);

/// Serializes `p`.  Throws IoError on stream failure.
void save_plan(std::ostream& out, const PlanRecord& p);

/// Deserializes one PlanRecord.  Throws FormatInvalid on bad magic/version/
/// implausible fields, IoError on truncation, DataCorruption on checksum
/// mismatch.  Callers wanting miss-on-corruption semantics must catch.
PlanRecord load_plan(std::istream& in);

void save_plan_file(const std::string& path, const PlanRecord& p);
PlanRecord load_plan_file(const std::string& path);

}  // namespace yaspmv::io
