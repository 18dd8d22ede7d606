// Auto-tuning framework (Section 4).
//
// Explores the Table 1 parameter space for a given matrix and device and
// returns the best configuration by modeled execution time.  The paper's
// accelerations are reproduced in spirit:
//   * format objects are cached per FormatConfig (the analog of caching
//     compiled kernels in a hash table),
//   * the block-dimension space is pruned to the 4 smallest memory
//     footprints (counted analytically, without materializing the format),
//   * the pruned mode fixes texture=on, transpose=offline, result cache
//     multiple in {1,2} and ShM_size=0 for strategy 1 — the same heuristics
//     as the paper; exhaustive mode sweeps everything for the
//     pruned-vs-optimal comparison the paper reports.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "yaspmv/core/bccoo.hpp"
#include "yaspmv/core/config.hpp"
#include "yaspmv/formats/coo.hpp"
#include "yaspmv/sim/device.hpp"

namespace yaspmv::tune {

struct TuneOptions {
  bool exhaustive = false;  ///< full Table 1 sweep instead of the pruned one
  bool verify = true;       ///< check every candidate against the reference
  unsigned workers = 1;     ///< simulator dispatch threads per candidate
  /// Concurrent candidate evaluations on the shared WorkPool (0 = hardware
  /// concurrency, 1 = the serial sweep).  Tuning time is a first-class
  /// metric (Section 4 reports it); the result is identical for any value:
  /// candidates are merged in enumeration order, so best/top/skip records
  /// match the serial sweep bit for bit.
  unsigned tune_workers = 0;
  /// Extension beyond the paper (Section 6 notes Dense loses because the
  /// block height is capped at 4): widen the block menu to 8x8 and add
  /// finer thread-tile sizes (the paper observes tile = 40 helps Dense).
  bool extended_blocks = false;
  /// After the modeled sweep, re-time the top candidates on the native CPU
  /// backend (reading the column stream the candidate's exec flags select)
  /// and re-rank by *measured* GFLOPS into `best_native`.  The measured pass
  /// runs serially after the parallel sweep so the modeled ranking keeps its
  /// tune_workers-independence contract; wall-clock timings are inherently
  /// noisy, which is exactly why the model needs this validation hook.
  bool measure_native = false;
  int native_reps = 3;        ///< timed repetitions per candidate (best-of)
  unsigned native_threads = 1;  ///< native-backend threads for the re-timing
  /// Thread count the model *ranks* at (perf::spmv_gflops_threads): a
  /// serving deployment applying at T threads wants candidates scored with
  /// T-thread launch/fix-up overhead, not the 1-thread figure.  1 keeps the
  /// legacy single-thread ranking bit-for-bit.
  unsigned rank_threads = 1;
};

struct Candidate {
  core::FormatConfig format;
  core::ExecConfig exec;
  double gflops = 0;          ///< modeled (simulator) throughput
  std::size_t footprint = 0;  ///< modeled bytes (Table 3 device widths)
  double build_seconds = 0;   ///< wall time of this candidate's format build
  double eval_seconds = 0;    ///< wall time of the simulator evaluation
  // Filled by the measure_native pass (0 when it did not run):
  double measured_gflops = 0;    ///< native single-run best-of-reps
  std::size_t measured_bytes = 0;  ///< exact host-side bytes per native SpMV
  /// Stable id of the native kernel this candidate dispatches to — a
  /// specialization-grid id like "grid/w2h2/short" (cpu/kernels_grid.hpp)
  /// or "generic".  Recorded so the plan cache replays the exact dispatch
  /// the tuner ranked, and so serve's kStats can attribute plans.
  std::string kernel = "generic";

  /// Exact field equality (doubles compared bitwise-as-values) — what the
  /// durable plan cache's round-trip tests and the serving daemon's
  /// idempotent-registration check need.  Timing fields are excluded: two
  /// runs of the same sweep legitimately differ in wall clock.
  bool same_plan(const Candidate& o) const {
    return format == o.format && exec == o.exec && gflops == o.gflops &&
           footprint == o.footprint && measured_gflops == o.measured_gflops &&
           measured_bytes == o.measured_bytes && kernel == o.kernel;
  }
};

struct TuneResult {
  Candidate best;
  double tuning_seconds = 0;
  int evaluated = 0;  ///< configurations actually run
  int skipped = 0;    ///< rejected (shared memory / register budget / ...)
  std::vector<Candidate> top;  ///< best few, for the ablation benches
  /// Why the first few skipped candidates failed ("fc / ec: reason"), so a
  /// sweep that silently discards half the space is explainable.  Capped at
  /// kMaxSkipRecords; `skipped` holds the true count.
  std::vector<std::string> skipped_configs;
  static constexpr std::size_t kMaxSkipRecords = 32;
  /// Top candidate by *measured* native GFLOPS (measure_native only; equals
  /// `best` otherwise).  May disagree with `best` — that disagreement is the
  /// modeled-vs-measured signal EXPERIMENTS.md tracks.
  Candidate best_native;
  bool native_measured = false;
  /// Format-cache statistics: distinct formats built for the sweep and the
  /// wall time spent building them (parallel across cache entries).
  int formats_built = 0;
  double format_build_seconds = 0;
};

/// The column stream a candidate's exec flags select on the native backend:
/// delta beats short when both are requested, mirroring the priority of the
/// footprint model.  The tuner records the kernel id this stream dispatches
/// to, and serving runs the plan on it.
core::ColStream native_stream(const core::ExecConfig& ec);

/// Tunes `a` for `dev`.  Throws only on empty/invalid input; candidate
/// failures (resource overflows) are counted in `skipped`.
TuneResult tune(const fmt::Coo& a, const sim::DeviceSpec& dev,
                const TuneOptions& opt = {});

/// The pruned block-dimension menu: the 4 (block_w, block_h) pairs from
/// Table 1's menu with the smallest analytic footprint for this matrix
/// (6 pairs from the widened menu when `extended` is set).
std::vector<std::pair<index_t, index_t>> pruned_block_dims(
    const fmt::Coo& a, bool extended = false);

}  // namespace yaspmv::tune
