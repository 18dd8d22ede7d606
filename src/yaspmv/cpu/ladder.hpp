// SpmvLadder — the served in-memory SpMV path: a three-rung degradation
// ladder over the native kernels, with the ABFT integrity policy of
// core::ResilientEngine but none of its simulated machinery.
//
//   rung 0  the plan's kernel: CpuSpmv with KernelDispatch::kAuto (the
//           specialized grid instantiation when the format has one) in
//           speculative segmented-sum mode
//   rung 1  the generic kernel, pinned (KernelDispatch::kGeneric), over the
//           same format
//   rung 2  spmv_csr_parallel on a CSR copy — no carries, no fix-up, no
//           injection site: it cannot fail, and it is the reference
//
// Plain applies run rung 0's spmv and nothing else.  Verified applies run
// spmv_verified and treat an IntegrityFault the way ResilientEngine does: a
// bare retry first (a transient flip leaves nothing behind), then
// validate() plus a rebuild of the format from the source matrix
// (persistent at-rest corruption), then the next rung.  A rebuild replaces
// the one format both kernel rungs share, so every later apply (and any
// operator built over format()) reads the rebuilt copy.
//
// Not thread-safe: one ladder serves one matrix's requests in sequence.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "yaspmv/core/bccoo.hpp"
#include "yaspmv/core/status.hpp"
#include "yaspmv/cpu/spmv.hpp"
#include "yaspmv/formats/coo.hpp"
#include "yaspmv/formats/csr.hpp"
#include "yaspmv/sim/fault.hpp"

namespace yaspmv::cpu {

/// One failed attempt: the rung's label and the typed failure.
struct LadderFault {
  std::string path;
  Status status = Status::kOk;
  std::string detail;
};

/// Outcome of one ladder apply.
struct LadderRun {
  int attempts = 0;        ///< kernel applies performed (>= 1)
  int rung = 0;            ///< rung that produced y (0, 1 or 2)
  bool recovered = false;  ///< an attempt failed on the way
  bool verified = false;   ///< checksum-verified, or the CSR reference
  std::string path;        ///< label of the rung that produced y
  std::vector<LadderFault> faults;
};

class SpmvLadder {
 public:
  static constexpr const char* kCsrLabel = "csr-reference";

  /// `cs` and `threads` are handed to both kernel rungs (CpuSpmv's
  /// meaning; `threads` also sizes the CSR rung).  The format and rung 0
  /// are built eagerly — registration pays for them, the first request
  /// does not; rung 1 is built on first use.
  SpmvLadder(fmt::Coo a, const core::FormatConfig& fc, core::ColStream cs,
             unsigned threads)
      : a_(std::move(a)),
        csr_(fmt::Csr::from_coo(a_)),
        fc_(fc),
        cs_(cs),
        threads_(threads),
        format_(build_format()) {
    engine(0);
  }

  /// The format both kernel rungs read — replaced by an integrity rebuild.
  const std::shared_ptr<const core::Bccoo>& format() const { return format_; }

  /// Attaches the in-flight adversary (kFlipPartial) to both kernel rungs;
  /// nullptr detaches.  The CSR rung has no injection site.
  void set_fault_injector(sim::FaultInjector* fault) {
    fault_ = fault;
    for (auto& e : engines_) {
      if (e) e->set_fault_injector(fault);
    }
  }

  /// y = A x: one rung-0 spmv when `verified` is false, the checksum-verified
  /// ladder walk (at most seven applies) when it is true.
  LadderRun run(std::span<const real_t> x, std::span<real_t> y,
                bool verified) {
    LadderRun out;
    if (!verified) {
      engine(0).spmv(x, y);
      out.attempts = 1;
      out.path = label(0);
      return out;
    }
    for (int step = 0; step < 2; ++step) {
      bool rebuilt = false;
      for (int tries = 0;; ++tries) {
        CpuSpmv& eng = engine(step);
        out.attempts++;
        try {
          eng.spmv_verified(x, y);
          out.rung = step;
          out.recovered = !out.faults.empty();
          out.verified = true;
          out.path = label(step);
          return out;
        } catch (const IntegrityFault& e) {
          out.faults.push_back({label(step), e.code(), e.what()});
        }
        if (tries == 0) continue;  // transient? bare retry
        if (rebuilt) break;        // rebuilt and still tripping: degrade
        // The retry did not clear it: suspect the stored format.
        std::string verdict = "format revalidated clean";
        try {
          format_->validate();
        } catch (const SpmvError& ve) {
          verdict = std::string("format validation failed: ") + ve.what();
        }
        rebuild();
        rebuilt = true;
        out.faults.back().detail +=
            " [" + verdict + "; rebuilt from source]";
      }
    }
    spmv_csr_parallel(csr_, x, y, threads_);
    out.attempts++;
    out.rung = 2;
    out.recovered = true;
    out.verified = true;
    out.path = kCsrLabel;
    return out;
  }

 private:
  CpuSpmv& engine(int step) {
    auto& e = engines_[step];
    if (!e) {
      e = std::make_unique<CpuSpmv>(
          format_, threads_, cs_, SegSumMode::kSpeculative,
          step == 0 ? grid::KernelDispatch::kAuto
                    : grid::KernelDispatch::kGeneric);
      e->set_fault_injector(fault_);
    }
    return *e;
  }

  /// A kernel rung's label is the id of the kernel it dispatches to.
  std::string label(int step) { return engine(step).kernel_id(); }

  std::shared_ptr<const core::Bccoo> build_format() const {
    return std::make_shared<const core::Bccoo>(core::Bccoo::build(a_, fc_));
  }

  void rebuild() {
    format_ = build_format();
    for (auto& e : engines_) e.reset();
  }

  fmt::Coo a_;  ///< the registered matrix: the source of every rebuild
  fmt::Csr csr_;
  core::FormatConfig fc_;
  core::ColStream cs_;
  unsigned threads_;
  std::shared_ptr<const core::Bccoo> format_;
  std::unique_ptr<CpuSpmv> engines_[2];
  sim::FaultInjector* fault_ = nullptr;
};

}  // namespace yaspmv::cpu
