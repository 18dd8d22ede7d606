// ResilientEngine — verify-and-fallback execution on top of SpmvEngine.
//
// The paper's fast path is fragile by construction: adjacent synchronization
// hangs if one workgroup dies, the strategy-2 result cache can be silently
// corrupted, and a failed carry/combine launch loses results.  Following the
// speculative-segmented-sum pattern (Liu & Vinter, PAPERS.md) we run the
// fast path, *detect* that it went wrong — a classified SpmvError or a
// sampled-row residual check against the CPU reference — and recover through
// a bounded degradation ladder:
//
//   step 0  the configured fast path
//   step 1  flip the synchronization mode (adjacent spin chain <-> two-kernel
//           global-sync carry propagation)
//   step 2  strategy 2 result cache -> strategy 1 intermediate sums
//   step 3  BCCOO+ -> BCCOO (slices = 1, drops the combine kernel)
//   step 4  COO baseline on the CPU reference path (cannot fail)
//
// Degradations are cumulative: once a mechanism is implicated it stays off
// for the rest of the run.  Faults are recorded per attempt so callers (the
// chaos tests, yaspmv_cli --inject) can report what happened and where the
// ladder stopped.
//
// Every simulated attempt runs under the engine's flight recorder (owned
// here): the adjacent-sync watchdog gets its progress table, and when an
// attempt fails its journal is captured — and, with `journal_prefix` set,
// dumped to disk — before the ladder moves on, so the exact interleaving
// that failed is available for --replay / --minimize.
#pragma once

#include <atomic>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "yaspmv/core/checksum.hpp"
#include "yaspmv/core/engine.hpp"
#include "yaspmv/core/status.hpp"
#include "yaspmv/formats/csr.hpp"
#include "yaspmv/io/journal_io.hpp"
#include "yaspmv/sim/fault.hpp"
#include "yaspmv/sim/journal.hpp"
#include "yaspmv/util/rng.hpp"

namespace yaspmv::core {

struct ResilientOptions {
  /// Run the sampled-row residual check after every simulated attempt (the
  /// only way to catch *silent* corruption; classified errors are always
  /// detected).
  bool verify = false;
  int sample_rows = 16;      ///< rows compared against the CPU reference
  double tolerance = 1e-6;   ///< relative residual bound per sampled row
  /// Run the ABFT checksum check (sum(y) against the format's column
  /// checksums, O(rows + cols)) after every attempt.  Unlike sampled
  /// residuals this covers *every* row, at a cost independent of nnz, and a
  /// mismatch is handled as a transient first: retry the rung once, then
  /// validate + rebuild its format from source, then degrade.
  bool verify_checksum = false;
  int max_attempts = 8;      ///< hard bound on engine runs before giving up
  /// When non-empty, every failed attempt's journal is written to
  /// `<prefix>.<pid>.<seq>` where `seq` is a process-wide counter: dump
  /// names are unique per attempt even when several engines share a prefix
  /// and fail concurrently.  The actual path of each dump is reported in
  /// FaultRecord::journal_file.
  std::string journal_prefix;
};

/// One failed attempt: which rung, how it failed.
struct FaultRecord {
  std::string path;     ///< label of the rung that failed
  Status status = Status::kOk;
  std::string detail;   ///< diagnostic (exception what(), residual info)
  std::string journal_file;  ///< on-disk journal dump ("" unless requested)
};

/// Outcome of a resilient run.  `run` holds the stats of the attempt that
/// produced `y`; `faults` holds everything that went wrong on the way there.
struct ResilientRun {
  SpmvRun run;
  int attempts = 0;      ///< engine runs performed (>= 1)
  int ladder_step = 0;   ///< rung index that finally succeeded
  bool recovered = false;  ///< true when any fallback was needed
  bool verified = false;   ///< sampled-row residual check passed (or CPU path)
  std::string path;        ///< label of the successful rung
  std::vector<FaultRecord> faults;

  int retries() const { return attempts > 0 ? attempts - 1 : 0; }
};

class ResilientEngine {
 public:
  ResilientEngine(const fmt::Coo& a, const FormatConfig& fc,
                  const ExecConfig& ec, sim::DeviceSpec dev,
                  ResilientOptions opt = {})
      : a_(a),
        csr_(fmt::Csr::from_coo(a)),
        dev_(std::move(dev)),
        opt_(opt) {
    build_ladder(fc, ec);
  }

  /// Attaches the fault injector forwarded to every simulated attempt.
  void set_fault_injector(sim::FaultInjector* fault) { fault_ = fault; }

  /// The engine-owned flight recorder (attached to every simulated attempt).
  sim::FlightRecorder& recorder() { return recorder_; }

  /// Journal of the most recent *failed* attempt (valid when
  /// has_last_failure(); overwritten by each new failure).
  bool has_last_failure() const { return has_last_failure_; }
  const sim::RecordedRun& last_failure() const { return last_failure_; }

  /// Journal of the most recent attempt, failed or not (e.g. to record a
  /// healthy run's schedule for later comparison).
  sim::RecordedRun capture_last_run() const {
    sim::RecordedRun run;
    if (last_rung_ && last_rung_->engine) {
      run.num_workgroups = last_rung_->engine->plan().num_workgroups;
      run.workgroup_size = last_rung_->ec.workgroup_size;
      run.workers = last_rung_->ec.workers;
    }
    if (fault_) {
      run.fault = fault_->plan();
      run.spin_budget_override = fault_->spin_budget_override;
    }
    run.events = recorder_.journal().snapshot();
    return run;
  }

  /// Rung labels, fast path first, CPU baseline last (for reporting/tests).
  std::vector<std::string> ladder() const {
    std::vector<std::string> out;
    out.reserve(rungs_.size() + 1);
    for (const auto& r : rungs_) out.push_back(r.label);
    out.push_back(kCpuLabel);
    return out;
  }

  ResilientRun run(std::span<const real_t> x, std::span<real_t> y) {
    return run(x, y, opt_.verify_checksum);
  }

  /// Per-call checksum-verification override, for callers that mix verified
  /// and plain applies on one engine whose ResilientOptions are fixed at
  /// construction.
  ResilientRun run(std::span<const real_t> x, std::span<real_t> y,
                   bool verify_checksum) {
    require(x.size() == static_cast<std::size_t>(a_.cols) &&
                y.size() == static_cast<std::size_t>(a_.rows),
            "ResilientEngine::run: vector size mismatch");
    ResilientRun out;
    // The x-side checksum dots (w.x, |w|.|x|) depend only on (format, x),
    // so within this run() they are computed once per format and reused
    // across integrity retries — a retried --verify attempt costs O(rows),
    // not O(rows + cols).  Keyed by format pointer: a rebuilt format gets a
    // fresh shared_ptr, which naturally invalidates its cached dots.
    const Bccoo* dots_key = nullptr;
    ChecksumDots dots;
    const auto dots_for = [&](const Bccoo& f) -> const ChecksumDots& {
      if (dots_key != &f) {
        dots = checksum_dots(f, x);
        dots_key = &f;
      }
      return dots;
    };
    for (std::size_t step = 0; step < rungs_.size(); ++step) {
      Rung& rung = rungs_[step];
      // Integrity faults get up to three shots at one rung before the ladder
      // moves on: the original attempt, a bare retry (a *transient* flip —
      // the common soft error — leaves nothing behind), and a retry after
      // validating + rebuilding the rung's format from source (persistent
      // at-rest corruption).  Every other SpmvError degrades immediately,
      // as before: those implicate a mechanism, not a bit.
      int integrity_retries = 0;
      bool rebuilt = false;
      while (out.attempts < opt_.max_attempts) {
        try {
          if (!rung.engine) {
            // Validate the format's invariants *before* planning: a
            // corrupted format must surface as FormatInvalid here, not as a
            // bad scatter inside the kernel.
            if (!rung.format) {
              rung.format = std::make_shared<const Bccoo>(
                  Bccoo::build(a_, rung.fc));
            }
            rung.format->validate();
            rung.engine = std::make_unique<SpmvEngine>(rung.format, rung.ec,
                                                       dev_);
          }
          rung.engine->set_fault_injector(fault_);
          rung.engine->set_recorder(&recorder_);
          recorder_.reset();
          last_rung_ = &rung;
          out.attempts++;
          SpmvRun r = rung.engine->run(x, y);
          if (verify_checksum) {
            const ChecksumReport rep =
                verify_apply_with(*rung.format, dots_for(*rung.format), x, y,
                                  rung.engine->partials());
            if (!rep.ok()) {
              throw IntegrityFault("checksum-verified apply: " +
                                   rep.message());
            }
            out.verified = true;
          }
          if (opt_.verify) {
            std::string residual;
            if (!sampled_residual_ok(x, y, residual)) {
              throw DataCorruption("sampled-row residual check failed: " +
                                   residual);
            }
            out.verified = true;
          }
          out.run = r;
          out.ladder_step = static_cast<int>(step);
          out.recovered = step > 0 || !out.faults.empty();
          out.path = rung.label;
          return out;
        } catch (const IntegrityFault& e) {
          FaultRecord rec{rung.label, e.code(), e.what(), ""};
          capture_failure(rung, rec);
          out.faults.push_back(std::move(rec));
          if (integrity_retries++ == 0) continue;  // transient? bare retry
          if (!rebuilt) {
            // Retry did not clear it: suspect the stored format.  validate()
            // re-derives the checksum plan bit-for-bit, so value-stream
            // corruption surfaces here as FormatInvalid; either way the rung
            // gets a fresh format rebuilt from the source matrix.
            std::string verdict = "format revalidated clean";
            try {
              if (rung.format) rung.format->validate();
            } catch (const SpmvError& ve) {
              verdict = std::string("format validation failed: ") + ve.what();
            }
            rung.format =
                std::make_shared<const Bccoo>(Bccoo::build(a_, rung.fc));
            rung.engine.reset();
            rebuilt = true;
            out.faults.back().detail += " [" + verdict + "; rebuilt from source]";
            continue;
          }
          break;  // rebuilt and still tripping: implicate the rung, degrade
        } catch (const SpmvError& e) {
          FaultRecord rec{rung.label, e.code(), e.what(), ""};
          capture_failure(rung, rec);
          out.faults.push_back(std::move(rec));
          break;
        }
      }
      if (out.attempts >= opt_.max_attempts) break;
    }
    // Terminal rung: the CPU COO/CSR reference path.  No simulated kernels,
    // no synchronization, no cache — it cannot fail, and it *is* the
    // reference, so the run is verified by definition.
    csr_.spmv(x, y);
    out.attempts++;
    out.ladder_step = static_cast<int>(rungs_.size());
    out.recovered = !rungs_.empty();
    out.verified = true;
    out.path = kCpuLabel;
    return out;
  }

 private:
  static constexpr const char* kCpuLabel = "coo-cpu-baseline";

  struct Rung {
    FormatConfig fc;
    ExecConfig ec;
    std::string label;
    std::shared_ptr<const Bccoo> format;   ///< built lazily, shared per fc
    std::unique_ptr<SpmvEngine> engine;    ///< built lazily
  };

  void build_ladder(const FormatConfig& fc0, const ExecConfig& ec0) {
    FormatConfig fc = fc0;
    ExecConfig ec = ec0;
    add_rung(fc, ec, std::string("fast-path (") + fc.to_string() + " | " +
                         ec.to_string() + ")");
    // Step 1: flip the synchronization mode.  adjacent -> global-sync routes
    // around a dead spin chain; global -> adjacent routes around a failing
    // carry-kernel launch.
    ec.adjacent_sync = !ec.adjacent_sync;
    add_rung(fc, ec, ec.adjacent_sync
                         ? "sync-fallback: adjacent-sync single kernel"
                         : "sync-fallback: global-sync carry kernel");
    // Step 2: abandon the strategy-2 result cache for strategy 1
    // intermediate sums (routes around shared-memory cache corruption).
    if (ec.strategy == Strategy::kResultCache) {
      ec.strategy = Strategy::kIntermediateSums;
      ec.shm_tile = 0;
      const int max_tile =
          std::max(1, 128 / std::max<index_t>(fc.block_h, 1));
      ec.thread_tile = std::min(ec.thread_tile, max_tile);
      add_rung(fc, ec, "strategy-fallback: result cache -> intermediate sums");
    }
    // Step 3: BCCOO+ -> BCCOO (drops the combine kernel entirely).
    if (fc.slices > 1) {
      fc.slices = 1;
      add_rung(fc, ec, "format-fallback: BCCOO+ -> BCCOO (slices=1)");
    }
    // Share the built format between rungs with an identical FormatConfig
    // (the expensive part of a rung is Bccoo::build).
    for (std::size_t i = 1; i < rungs_.size(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        if (rungs_[i].fc.block_w == rungs_[j].fc.block_w &&
            rungs_[i].fc.block_h == rungs_[j].fc.block_h &&
            rungs_[i].fc.slices == rungs_[j].fc.slices &&
            rungs_[i].fc.bf_word == rungs_[j].fc.bf_word) {
          rungs_[i].format = rungs_[j].format;  // may still be null (lazy)
        }
      }
    }
  }

  /// Freezes the failed attempt's journal into a RecordedRun (and dumps it
  /// when journal_prefix asks for files).  The geometry comes from the
  /// rung's plan when the engine got far enough to build one.
  void capture_failure(const Rung& rung, FaultRecord& rec) {
    sim::RecordedRun run;
    if (rung.engine) {
      run.num_workgroups = rung.engine->plan().num_workgroups;
      run.workgroup_size = rung.ec.workgroup_size;
      run.workers = rung.ec.workers;
    }
    if (fault_) {
      run.fault = fault_->plan();
      run.spin_budget_override = fault_->spin_budget_override;
    }
    run.events = recorder_.journal().snapshot();
    last_failure_ = run;
    has_last_failure_ = true;
    failure_count_++;
    if (!opt_.journal_prefix.empty()) {
      // pid + process-wide sequence => unique per attempt, across engines
      // and across processes sharing a journal directory.  A plain
      // per-engine counter collides as soon as two concurrent runs on the
      // same prefix both fail their first attempt.
      static std::atomic<std::uint64_t> dump_seq{0};
      const std::string path =
          opt_.journal_prefix + "." + std::to_string(::getpid()) + "." +
          std::to_string(dump_seq.fetch_add(1, std::memory_order_relaxed));
      io::save_journal_file(path, run);
      rec.journal_file = path;
    }
  }

  void add_rung(const FormatConfig& fc, const ExecConfig& ec,
                std::string label) {
    Rung r;
    r.fc = fc;
    r.ec = ec;
    r.label = std::move(label);
    rungs_.push_back(std::move(r));
  }

  /// Compares a deterministic sample of rows of `y` against the serial CSR
  /// reference.  O(sample_rows * nnz/row) — cheap relative to the SpMV.
  bool sampled_residual_ok(std::span<const real_t> x,
                           std::span<const real_t> y,
                           std::string& detail) const {
    const auto rows = static_cast<std::uint64_t>(a_.rows);
    if (rows == 0) return true;
    // sample_rows >= rows upgrades to an exhaustive check (deterministic
    // detection — random sampling with replacement can miss a single
    // corrupted row no matter how many samples are drawn).
    const bool full = static_cast<std::uint64_t>(
                          std::max(0, opt_.sample_rows)) >= rows;
    const auto n = full ? rows
                        : static_cast<std::uint64_t>(std::min<std::int64_t>(
                              opt_.sample_rows, a_.rows));
    SplitMix64 rng(0xC0FFEE);
    for (std::uint64_t k = 0; k < n; ++k) {
      // Cover the matrix ends (first/last rows hold the carry chain's
      // boundary cases), fill the rest with seeded samples.
      std::uint64_t r;
      if (full) {
        r = k;
      } else if (k == 0) {
        r = 0;
      } else if (k == 1) {
        r = rows - 1;
      } else {
        r = rng.next_below(rows);
      }
      real_t ref = 0.0;
      for (index_t e = csr_.row_ptr[r]; e < csr_.row_ptr[r + 1]; ++e) {
        ref += csr_.vals[static_cast<std::size_t>(e)] *
               x[static_cast<std::size_t>(
                   csr_.col_idx[static_cast<std::size_t>(e)])];
      }
      const real_t got = y[static_cast<std::size_t>(r)];
      const double scale = std::max(1.0, std::abs(ref));
      if (!(std::abs(got - ref) <= opt_.tolerance * scale)) {
        detail = "row " + std::to_string(r) + ": got " + std::to_string(got) +
                 ", reference " + std::to_string(ref);
        return false;
      }
    }
    return true;
  }

  fmt::Coo a_;          ///< kept for format rebuilds on format-fallback rungs
  fmt::Csr csr_;        ///< CPU reference: sampling + the terminal rung
  sim::DeviceSpec dev_;
  ResilientOptions opt_;
  sim::FaultInjector* fault_ = nullptr;
  sim::FlightRecorder recorder_;      ///< watchdog + journal for every attempt
  sim::RecordedRun last_failure_;     ///< journal of the latest failed attempt
  bool has_last_failure_ = false;
  int failure_count_ = 0;             ///< across run() calls, names the dumps
  const Rung* last_rung_ = nullptr;   ///< rung of the most recent attempt
  std::vector<Rung> rungs_;
};

}  // namespace yaspmv::core
