// Iterative solvers on top of the SpMV backends — the downstream workloads
// (Krylov methods, eigensolvers) that motivate SpMV optimization in the
// paper's introduction.
//
// Everything is written against the `Operator` duck type:
//
//   struct Operator {
//     index_t rows() const; index_t cols() const;
//     void apply(std::span<const real_t> x, std::span<real_t> y);  // y = A*x
//   };
//
// Adapters are provided for the serial CSR reference, the native CPU
// backend and the simulated GPU engine, so a solver can be moved between
// backends with one line.
//
// The primary loops run on the fused pooled vector kernels of
// cpu/vecops.hpp: adjacent vector updates collapse into one sweep
// (x += alpha p, r -= alpha q and the next rho = r.r happen in a single
// pass over the iterate), all per-iteration state lives in buffers
// allocated once up front, and every reduction uses the kernels' fixed
// chunk/lane order — so for a fixed SIMD dispatch level a solve is bitwise
// reproducible for any thread count (the vector ops are thread-count
// invariant; combined with the SpMV apply the full iterate is reproducible
// per (thread count, level)).  If the operator exposes `threads()` the
// vector kernels follow it; `SolveOptions::threads` overrides.
//
// The pre-fusion single-threaded loops are preserved verbatim under
// `solver::serial` as the numerical reference — the solver bench and the
// determinism tests compare against them.
#pragma once

#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "yaspmv/core/checksum.hpp"
#include "yaspmv/core/engine.hpp"
#include "yaspmv/cpu/spmv.hpp"
#include "yaspmv/cpu/vecops.hpp"
#include "yaspmv/formats/csr.hpp"
#include "yaspmv/sim/fault.hpp"

namespace yaspmv::solver {

// ---------------------------------------------------------------------------
// Operator adapters
// ---------------------------------------------------------------------------

/// Serial CSR reference operator.
class CsrOperator {
 public:
  explicit CsrOperator(fmt::Csr m) : m_(std::move(m)) {}
  index_t rows() const { return m_.rows; }
  index_t cols() const { return m_.cols; }
  void apply(std::span<const real_t> x, std::span<real_t> y) {
    m_.spmv(x, y);
  }
  const fmt::Csr& matrix() const { return m_; }

 private:
  fmt::Csr m_;
};

/// Native CPU-parallel BCCOO operator.  `threads` feeds the format build,
/// the SpMV executor and (via `threads()`) the solvers' vector kernels, so
/// a solver run honors a CLI `--threads` end to end; `cs` picks the column
/// stream exactly like the `spmv` front end.
class CpuOperator {
 public:
  CpuOperator(const fmt::Coo& a, core::FormatConfig fc = {},
              unsigned threads = 0,
              core::ColStream cs = core::ColStream::kAuto)
      : eng_(std::make_shared<const core::Bccoo>(
                 core::Bccoo::build(a, fc, threads)),
             threads, cs) {}
  /// Over an already-built format, shared with its other readers (the
  /// serving daemon's spmv ladder and solves read one copy).
  explicit CpuOperator(std::shared_ptr<const core::Bccoo> m,
                       unsigned threads = 0,
                       core::ColStream cs = core::ColStream::kAuto)
      : eng_(std::move(m), threads, cs) {}
  const core::Bccoo& format() const { return eng_.format(); }
  index_t rows() const { return eng_.format().rows; }
  index_t cols() const { return eng_.format().cols; }
  unsigned threads() const { return eng_.threads(); }
  core::ColStream col_stream() const { return eng_.col_stream(); }
  void apply(std::span<const real_t> x, std::span<real_t> y) {
    eng_.spmv(x, y);
  }
  /// Checksum-verified apply (throws IntegrityFault on silent corruption) —
  /// the checked solvers pick this up through the `apply_verified` duck-type
  /// probe.
  core::ChecksumReport apply_verified(std::span<const real_t> x,
                                      std::span<real_t> y) {
    return eng_.spmv_verified(x, y);
  }
  /// Forwards the in-flight adversary to the backend (nullptr detaches).
  void set_fault_injector(sim::FaultInjector* fault) {
    eng_.set_fault_injector(fault);
  }

 private:
  cpu::CpuSpmv eng_;
};

/// Simulated-device operator (accumulates the kernel statistics so a solve
/// can be performance-modeled end to end).
class SimOperator {
 public:
  SimOperator(const fmt::Coo& a, const core::FormatConfig& fc,
              const core::ExecConfig& ec, sim::DeviceSpec dev)
      : eng_(a, fc, ec, std::move(dev)) {}
  index_t rows() const { return eng_.format().rows; }
  index_t cols() const { return eng_.format().cols; }
  void apply(std::span<const real_t> x, std::span<real_t> y) {
    stats_ += eng_.run(x, y).stats;
    applies_++;
  }
  /// Checksum-verified apply on the simulated pipeline; the pre-combine
  /// partials attribute a failure to the slice that tripped.
  core::ChecksumReport apply_verified(std::span<const real_t> x,
                                      std::span<real_t> y) {
    apply(x, y);
    return core::verify_apply_or_throw(eng_.format(), x, y, eng_.partials(),
                                       "sim verified apply");
  }
  void set_fault_injector(sim::FaultInjector* fault) {
    eng_.set_fault_injector(fault);
  }
  const sim::KernelStats& stats() const { return stats_; }
  std::size_t applies() const { return applies_; }

 private:
  core::SpmvEngine eng_;
  sim::KernelStats stats_;
  std::size_t applies_ = 0;
};

// ---------------------------------------------------------------------------
// Solver drivers
// ---------------------------------------------------------------------------

struct SolveOptions {
  double tolerance = 1e-10;  ///< relative residual target ||r||/||b||
  long max_iterations = 10000;
  /// Worker count for the pooled vector kernels; 0 = follow the operator's
  /// `threads()` when it has one, else run them serially.  (The results do
  /// not depend on this — VecOps reductions are thread-count invariant —
  /// only the wall clock does.)
  unsigned threads = 0;
};

struct SolveReport {
  bool converged = false;
  long iterations = 0;
  double relative_residual = 0;
};

namespace detail {
inline double dot(std::span<const real_t> a, std::span<const real_t> b) {
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}
inline double norm(std::span<const real_t> a) { return std::sqrt(dot(a, a)); }

/// Vector-kernel worker count for a solve: explicit request wins, then the
/// operator's own thread count, then serial.
template <class Operator>
unsigned solver_threads(const Operator& A, unsigned requested) {
  if (requested != 0) return requested;
  if constexpr (requires { A.threads(); }) {
    return A.threads();
  } else {
    (void)A;
    return 1;
  }
}
}  // namespace detail

/// Conjugate gradient for symmetric positive-definite A.  `x` is the
/// initial guess on entry, the solution on exit.  One fused sweep per
/// iteration updates x and r and produces the new r.r.
template <class Operator>
SolveReport cg(Operator& A, std::span<const real_t> b, std::span<real_t> x,
               const SolveOptions& opt = {}) {
  require(A.rows() == A.cols(), "cg: operator must be square");
  const std::size_t n = b.size();
  cpu::VecOps vo(detail::solver_threads(A, opt.threads));
  std::vector<real_t> r(n), p(n), Ap(n);
  A.apply(x, Ap);
  vo.sub_scaled(b, 1.0, Ap, r);  // r = b - A x
  p.assign(r.begin(), r.end());
  double rr = vo.dot(r, r);
  const double bnorm = std::max(vo.nrm2(b), 1e-300);
  SolveReport rep;
  while (rep.iterations < opt.max_iterations) {
    rep.relative_residual = std::sqrt(rr) / bnorm;
    if (rep.relative_residual <= opt.tolerance) {
      rep.converged = true;
      return rep;
    }
    A.apply(p, Ap);
    const double alpha = rr / vo.dot(p, Ap);
    // x += alpha p, r -= alpha Ap, rr_new = r.r — one pass.
    const double rr_new = vo.cg_fused_update(alpha, p, Ap, x, r);
    const double beta = rr_new / rr;
    rr = rr_new;
    vo.xpay(r, beta, p);  // p = r + beta p
    rep.iterations++;
  }
  rep.relative_residual = std::sqrt(rr) / bnorm;
  return rep;
}

/// Jacobi-preconditioned conjugate gradient: M = diag(A).  Converges in
/// fewer iterations than plain CG when the diagonal varies strongly.
template <class Operator>
SolveReport pcg_jacobi(Operator& A, std::span<const real_t> diag,
                       std::span<const real_t> b, std::span<real_t> x,
                       const SolveOptions& opt = {}) {
  require(A.rows() == A.cols(), "pcg: operator must be square");
  const std::size_t n = b.size();
  for (std::size_t i = 0; i < n; ++i) {
    require(diag[i] != 0.0, "pcg: zero diagonal entry");
  }
  cpu::VecOps vo(detail::solver_threads(A, opt.threads));
  std::vector<real_t> r(n), z(n), p(n), Ap(n);
  A.apply(x, Ap);
  vo.sub_scaled(b, 1.0, Ap, r);
  double rz = vo.precond_dot(r, diag, z);  // z = r / diag fused with r.z
  p.assign(z.begin(), z.end());
  double rr = vo.dot(r, r);
  const double bnorm = std::max(vo.nrm2(b), 1e-300);
  SolveReport rep;
  while (rep.iterations < opt.max_iterations) {
    rep.relative_residual = std::sqrt(rr) / bnorm;
    if (rep.relative_residual <= opt.tolerance) {
      rep.converged = true;
      return rep;
    }
    A.apply(p, Ap);
    const double alpha = rz / vo.dot(p, Ap);
    rr = vo.cg_fused_update(alpha, p, Ap, x, r);
    const double rz_new = vo.precond_dot(r, diag, z);
    const double beta = rz_new / rz;
    rz = rz_new;
    vo.xpay(z, beta, p);  // p = z + beta p
    rep.iterations++;
  }
  rep.relative_residual = std::sqrt(rr) / bnorm;
  return rep;
}

/// Extracts the diagonal of a matrix in canonical COO (helper for the
/// Jacobi-based methods).
inline std::vector<real_t> extract_diagonal(const fmt::Coo& a) {
  std::vector<real_t> d(static_cast<std::size_t>(a.rows), 0.0);
  for (std::size_t i = 0; i < a.nnz(); ++i) {
    if (a.row_idx[i] == a.col_idx[i]) {
      d[static_cast<std::size_t>(a.row_idx[i])] = a.vals[i];
    }
  }
  return d;
}

/// BiCGSTAB for general (nonsymmetric) A.  The tail update fuses
/// x += alpha p + omega s, r = s - omega t, the residual norm AND the next
/// iteration's rho = r0.r into a single sweep.
template <class Operator>
SolveReport bicgstab(Operator& A, std::span<const real_t> b,
                     std::span<real_t> x, const SolveOptions& opt = {}) {
  require(A.rows() == A.cols(), "bicgstab: operator must be square");
  const std::size_t n = b.size();
  cpu::VecOps vo(detail::solver_threads(A, opt.threads));
  std::vector<real_t> r(n), r0(n), p(n), v(n), s(n), t(n);
  A.apply(x, v);
  vo.sub_scaled(b, 1.0, v, r);
  r0.assign(r.begin(), r.end());
  double rho = 1, alpha = 1, omega = 1;
  std::fill(p.begin(), p.end(), 0.0);
  std::fill(v.begin(), v.end(), 0.0);
  const double bnorm = std::max(vo.nrm2(b), 1e-300);
  double rr = vo.dot(r, r);
  double r0r = vo.dot(r0, r);  // rho candidate; r0 == r here
  SolveReport rep;
  while (rep.iterations < opt.max_iterations) {
    rep.relative_residual = std::sqrt(rr) / bnorm;
    if (rep.relative_residual <= opt.tolerance) {
      rep.converged = true;
      return rep;
    }
    const double rho_new = r0r;
    if (rho_new == 0.0) break;  // breakdown
    const double beta = (rho_new / rho) * (alpha / omega);
    rho = rho_new;
    vo.bicg_p_update(r, beta, omega, v, p);  // p = r + beta (p - omega v)
    A.apply(p, v);
    alpha = rho / vo.dot(r0, v);
    vo.sub_scaled(r, alpha, v, s);  // s = r - alpha v
    A.apply(s, t);
    const cpu::DotPair tt_ts = vo.dot2(t, t, s);  // (t.t, t.s) in one pass
    omega = tt_ts.ab == 0.0 ? 0.0 : tt_ts.ac / tt_ts.ab;
    // x += alpha p + omega s, r = s - omega t, plus r.r and r0.r.
    const cpu::DotPair nx = vo.bicg_fused_update(alpha, p, omega, s, t, r0,
                                                 x, r);
    rr = nx.ab;
    r0r = nx.ac;
    rep.iterations++;
    if (omega == 0.0) break;  // breakdown
  }
  rep.relative_residual = std::sqrt(rr) / bnorm;
  return rep;
}

// ---------------------------------------------------------------------------
// Self-checking solvers (checksum-verified applies + checkpoint/rollback)
// ---------------------------------------------------------------------------
//
// A silent flip inside one apply poisons every later iterate: Krylov methods
// have no self-correction for a corrupted residual.  The checked drivers
// wrap the fused CG/BiCGStab loops with three defenses, and work with any
// Operator — on operators without `apply_verified` (e.g. the CSR reference)
// they degrade gracefully to plain applies plus the divergence guard:
//
//   * every `verify_every`-th apply runs checksum-verified (apply_verified),
//     so a flip is caught inside the iteration that suffered it;
//   * the solver checkpoints (x, r, p, scalars) every `checkpoint_every`
//     iterations; an integrity fault or a residual blow-up rolls back to the
//     checkpoint instead of restarting the solve — a transient flip costs at
//     most `checkpoint_every` iterations of rework;
//   * convergence is only reported after a final verified apply recomputes
//     the *true* residual from scratch — the accumulated recurrence residual
//     is never trusted on its own.

struct SelfCheckOptions {
  SolveOptions solve;
  /// Cadence of checksum-verified applies (1 = every apply; 0 disables).
  long verify_every = 1;
  /// Cadence of (x, r, p, scalars) snapshots; rollback lands on the latest.
  long checkpoint_every = 16;
  /// Rollbacks before the solver gives up (returns converged = false rather
  /// than looping forever against a persistent fault).
  int max_rollbacks = 8;
  /// A residual this many times worse than the best seen triggers rollback —
  /// the backstop for corruption that slipped between verified applies.
  double divergence_factor = 1e4;
};

struct CheckedSolveReport {
  SolveReport solve;
  long verified_applies = 0;   ///< applies run under the checksum
  long integrity_faults = 0;   ///< checksum mismatches caught
  long rollbacks = 0;          ///< checkpoint restores (faults + divergence)
  /// True when the final true-residual recomputation ran verified.
  bool final_residual_verified = false;
};

namespace detail {
/// Runs `A.apply_verified` when the operator has one and the cadence says
/// verify, else the plain apply.  Counts verified applies in `rep`.
template <class Operator>
void checked_apply(Operator& A, std::span<const real_t> in,
                   std::span<real_t> out, bool verify,
                   CheckedSolveReport& rep) {
  if constexpr (requires { A.apply_verified(in, out); }) {
    if (verify) {
      ++rep.verified_applies;
      A.apply_verified(in, out);
      return;
    }
  }
  A.apply(in, out);
}
}  // namespace detail

/// Self-checking conjugate gradient.  Converges to the same tolerance as
/// `cg` on clean hardware; under transient bit flips it detects, rolls back
/// and re-converges instead of silently returning a poisoned x.
template <class Operator>
CheckedSolveReport cg_checked(Operator& A, std::span<const real_t> b,
                              std::span<real_t> x,
                              const SelfCheckOptions& opt = {}) {
  require(A.rows() == A.cols(), "cg_checked: operator must be square");
  const std::size_t n = b.size();
  cpu::VecOps vo(detail::solver_threads(A, opt.solve.threads));
  CheckedSolveReport rep;
  SolveReport& s = rep.solve;
  std::vector<real_t> r(n), p(n), Ap(n);
  // Checkpoint 0 is the initial guess: a fault before the first full
  // snapshot re-derives r/p from x (init = true).
  std::vector<real_t> ck_x(x.begin(), x.end()), ck_r, ck_p;
  double ck_rr = 0;
  long ck_iter = 0;
  bool ck_full = false;
  const double bnorm = std::max(vo.nrm2(b), 1e-300);
  double rr = 0;
  double best = std::numeric_limits<double>::infinity();
  bool init = true;

  auto rollback = [&](bool integrity) -> bool {
    if (integrity) ++rep.integrity_faults;
    if (++rep.rollbacks > opt.max_rollbacks) return false;
    std::copy(ck_x.begin(), ck_x.end(), x.begin());
    if (ck_full) {
      r.assign(ck_r.begin(), ck_r.end());
      p.assign(ck_p.begin(), ck_p.end());
      rr = ck_rr;
      s.iterations = ck_iter;
      init = false;
    } else {
      init = true;
    }
    return true;
  };

  while (true) {
    try {
      if (init) {
        // The bootstrap residual seeds everything downstream — always verify.
        detail::checked_apply(A, x, Ap, opt.verify_every > 0, rep);
        vo.sub_scaled(b, 1.0, Ap, r);
        p.assign(r.begin(), r.end());
        rr = vo.dot(r, r);
        init = false;
      }
      s.relative_residual = std::sqrt(rr) / bnorm;
      if (s.relative_residual <= opt.solve.tolerance) {
        s.converged = true;
        break;
      }
      if (s.iterations >= opt.solve.max_iterations) break;
      // Divergence guard (NaN-safe: a NaN residual fails the <= and rolls
      // back) — catches corruption between verified applies.
      if (best < std::numeric_limits<double>::infinity() &&
          !(s.relative_residual <= opt.divergence_factor * best)) {
        if (!rollback(false)) break;
        continue;
      }
      best = std::min(best, s.relative_residual);
      if (opt.checkpoint_every > 0 &&
          s.iterations % opt.checkpoint_every == 0) {
        ck_x.assign(x.begin(), x.end());
        ck_r.assign(r.begin(), r.end());
        ck_p.assign(p.begin(), p.end());
        ck_rr = rr;
        ck_iter = s.iterations;
        ck_full = true;
      }
      const bool verify =
          opt.verify_every > 0 && s.iterations % opt.verify_every == 0;
      detail::checked_apply(A, p, Ap, verify, rep);
      const double alpha = rr / vo.dot(p, Ap);
      const double rr_new = vo.cg_fused_update(alpha, p, Ap, x, r);
      const double beta = rr_new / rr;
      rr = rr_new;
      vo.xpay(r, beta, p);
      s.iterations++;
    } catch (const IntegrityFault&) {
      if (!rollback(true)) break;
    }
  }
  // Final gate: recompute the true residual with a verified apply before
  // confirming convergence (recurrence drift or a missed flip shows here).
  try {
    detail::checked_apply(A, x, Ap, opt.verify_every > 0, rep);
    vo.sub_scaled(b, 1.0, Ap, r);
    s.relative_residual = vo.nrm2(r) / bnorm;
    s.converged = s.converged && s.relative_residual <= 10 * opt.solve.tolerance;
    rep.final_residual_verified = opt.verify_every > 0;
  } catch (const IntegrityFault&) {
    ++rep.integrity_faults;
    s.converged = false;
  }
  return rep;
}

/// Self-checking BiCGStab: same defenses as cg_checked, with the method's
/// full recurrence state (x, r, r0, p, v, rho/alpha/omega) checkpointed.
template <class Operator>
CheckedSolveReport bicgstab_checked(Operator& A, std::span<const real_t> b,
                                    std::span<real_t> x,
                                    const SelfCheckOptions& opt = {}) {
  require(A.rows() == A.cols(), "bicgstab_checked: operator must be square");
  const std::size_t n = b.size();
  cpu::VecOps vo(detail::solver_threads(A, opt.solve.threads));
  CheckedSolveReport rep;
  SolveReport& s = rep.solve;
  std::vector<real_t> r(n), r0(n), p(n), v(n), sv(n), tv(n);
  std::vector<real_t> ck_x(x.begin(), x.end()), ck_r, ck_r0, ck_p, ck_v;
  double ck_rho = 1, ck_alpha = 1, ck_omega = 1, ck_rr = 0, ck_r0r = 0;
  long ck_iter = 0;
  bool ck_full = false;
  const double bnorm = std::max(vo.nrm2(b), 1e-300);
  double rho = 1, alpha = 1, omega = 1, rr = 0, r0r = 0;
  double best = std::numeric_limits<double>::infinity();
  bool init = true;

  auto rollback = [&](bool integrity) -> bool {
    if (integrity) ++rep.integrity_faults;
    if (++rep.rollbacks > opt.max_rollbacks) return false;
    std::copy(ck_x.begin(), ck_x.end(), x.begin());
    if (ck_full) {
      r.assign(ck_r.begin(), ck_r.end());
      r0.assign(ck_r0.begin(), ck_r0.end());
      p.assign(ck_p.begin(), ck_p.end());
      v.assign(ck_v.begin(), ck_v.end());
      rho = ck_rho;
      alpha = ck_alpha;
      omega = ck_omega;
      rr = ck_rr;
      r0r = ck_r0r;
      s.iterations = ck_iter;
      init = false;
    } else {
      init = true;
    }
    return true;
  };

  while (true) {
    try {
      if (init) {
        detail::checked_apply(A, x, v, opt.verify_every > 0, rep);
        vo.sub_scaled(b, 1.0, v, r);
        r0.assign(r.begin(), r.end());
        rho = alpha = omega = 1;
        std::fill(p.begin(), p.end(), 0.0);
        std::fill(v.begin(), v.end(), 0.0);
        rr = vo.dot(r, r);
        r0r = rr;  // r0 == r at (re)start
        init = false;
      }
      s.relative_residual = std::sqrt(rr) / bnorm;
      if (s.relative_residual <= opt.solve.tolerance) {
        s.converged = true;
        break;
      }
      if (s.iterations >= opt.solve.max_iterations) break;
      if (best < std::numeric_limits<double>::infinity() &&
          !(s.relative_residual <= opt.divergence_factor * best)) {
        if (!rollback(false)) break;
        continue;
      }
      best = std::min(best, s.relative_residual);
      if (opt.checkpoint_every > 0 &&
          s.iterations % opt.checkpoint_every == 0) {
        ck_x.assign(x.begin(), x.end());
        ck_r.assign(r.begin(), r.end());
        ck_r0.assign(r0.begin(), r0.end());
        ck_p.assign(p.begin(), p.end());
        ck_v.assign(v.begin(), v.end());
        ck_rho = rho;
        ck_alpha = alpha;
        ck_omega = omega;
        ck_rr = rr;
        ck_r0r = r0r;
        ck_iter = s.iterations;
        ck_full = true;
      }
      const double rho_new = r0r;
      if (rho_new == 0.0) break;  // breakdown
      const bool verify =
          opt.verify_every > 0 && s.iterations % opt.verify_every == 0;
      const double beta = (rho_new / rho) * (alpha / omega);
      rho = rho_new;
      vo.bicg_p_update(r, beta, omega, v, p);
      detail::checked_apply(A, p, v, verify, rep);
      alpha = rho / vo.dot(r0, v);
      vo.sub_scaled(r, alpha, v, sv);
      detail::checked_apply(A, sv, tv, verify, rep);
      const cpu::DotPair tt_ts = vo.dot2(tv, tv, sv);
      omega = tt_ts.ab == 0.0 ? 0.0 : tt_ts.ac / tt_ts.ab;
      const cpu::DotPair nx =
          vo.bicg_fused_update(alpha, p, omega, sv, tv, r0, x, r);
      rr = nx.ab;
      r0r = nx.ac;
      s.iterations++;
      if (omega == 0.0) break;  // breakdown
    } catch (const IntegrityFault&) {
      if (!rollback(true)) break;
    }
  }
  try {
    detail::checked_apply(A, x, v, opt.verify_every > 0, rep);
    vo.sub_scaled(b, 1.0, v, r);
    s.relative_residual = vo.nrm2(r) / bnorm;
    s.converged = s.converged && s.relative_residual <= 10 * opt.solve.tolerance;
    rep.final_residual_verified = opt.verify_every > 0;
  } catch (const IntegrityFault&) {
    ++rep.integrity_faults;
    s.converged = false;
  }
  return rep;
}

/// Weighted Jacobi iteration; `diag` is the matrix diagonal (must be
/// non-zero everywhere).  The sweep and the residual norm share one pass.
template <class Operator>
SolveReport jacobi(Operator& A, std::span<const real_t> diag,
                   std::span<const real_t> b, std::span<real_t> x,
                   const SolveOptions& opt = {}, double weight = 2.0 / 3.0) {
  require(A.rows() == A.cols(), "jacobi: operator must be square");
  const std::size_t n = b.size();
  cpu::VecOps vo(detail::solver_threads(A, opt.threads));
  std::vector<real_t> Ax(n);
  const double bnorm = std::max(vo.nrm2(b), 1e-300);
  SolveReport rep;
  while (rep.iterations < opt.max_iterations) {
    A.apply(x, Ax);
    const double rnorm2 = vo.jacobi_update(b, Ax, diag, weight, x);
    rep.iterations++;
    rep.relative_residual = std::sqrt(rnorm2) / bnorm;
    if (rep.relative_residual <= opt.tolerance) {
      rep.converged = true;
      return rep;
    }
  }
  return rep;
}

struct EigenReport {
  double eigenvalue = 0;
  long iterations = 0;
  bool converged = false;
};

/// Power iteration: dominant eigenvalue/eigenvector of A.  `v` holds the
/// start vector on entry (must be non-zero) and the eigenvector on exit.
/// The Rayleigh quotient and the norm of the new iterate come out of one
/// fused pass; `threads` feeds the vector kernels (0 = follow the
/// operator, like SolveOptions::threads).
template <class Operator>
EigenReport power_iteration(Operator& A, std::span<real_t> v,
                            double tolerance = 1e-10,
                            long max_iterations = 10000,
                            unsigned threads = 0) {
  require(A.rows() == A.cols(), "power_iteration: operator must be square");
  const std::size_t n = v.size();
  cpu::VecOps vo(detail::solver_threads(A, threads));
  std::vector<real_t> w(n);
  double lambda = 0;
  EigenReport rep;
  const double nv = vo.nrm2(v);
  require(nv > 0, "power_iteration: start vector must be non-zero");
  vo.scale(1.0 / nv, v);
  while (rep.iterations < max_iterations) {
    A.apply(v, w);
    const cpu::DotPair d = vo.dot2(w, v, w);  // (w.v, w.w) in one pass
    const double lambda_new = d.ab;
    const double wn = std::sqrt(d.ac);
    if (wn == 0.0) break;  // A v = 0
    vo.scale_store(1.0 / wn, w, v);
    rep.iterations++;
    if (std::abs(lambda_new - lambda) <=
        tolerance * std::max(1.0, std::abs(lambda_new))) {
      rep.eigenvalue = lambda_new;
      rep.converged = true;
      return rep;
    }
    lambda = lambda_new;
  }
  rep.eigenvalue = lambda;
  return rep;
}

// ---------------------------------------------------------------------------
// Pre-fusion reference loops
// ---------------------------------------------------------------------------
//
// The original single-threaded solver bodies, kept verbatim: one serial
// scalar sweep per vector op, no fusion.  bench_solver measures the primary
// loops against these, and the determinism tests use them as the numerical
// reference.

namespace serial {

template <class Operator>
SolveReport cg(Operator& A, std::span<const real_t> b, std::span<real_t> x,
               const SolveOptions& opt = {}) {
  require(A.rows() == A.cols(), "cg: operator must be square");
  const std::size_t n = b.size();
  std::vector<real_t> r(n), p(n), Ap(n);
  A.apply(x, Ap);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - Ap[i];
  p.assign(r.begin(), r.end());
  double rr = detail::dot(r, r);
  const double bnorm = std::max(detail::norm(b), 1e-300);
  SolveReport rep;
  while (rep.iterations < opt.max_iterations) {
    rep.relative_residual = std::sqrt(rr) / bnorm;
    if (rep.relative_residual <= opt.tolerance) {
      rep.converged = true;
      return rep;
    }
    A.apply(p, Ap);
    const double alpha = rr / detail::dot(p, Ap);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * Ap[i];
    }
    const double rr_new = detail::dot(r, r);
    const double beta = rr_new / rr;
    rr = rr_new;
    for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
    rep.iterations++;
  }
  rep.relative_residual = std::sqrt(rr) / bnorm;
  return rep;
}

template <class Operator>
SolveReport bicgstab(Operator& A, std::span<const real_t> b,
                     std::span<real_t> x, const SolveOptions& opt = {}) {
  require(A.rows() == A.cols(), "bicgstab: operator must be square");
  const std::size_t n = b.size();
  std::vector<real_t> r(n), r0(n), p(n), v(n), s(n), t(n);
  A.apply(x, v);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - v[i];
  r0.assign(r.begin(), r.end());
  double rho = 1, alpha = 1, omega = 1;
  std::fill(p.begin(), p.end(), 0.0);
  std::fill(v.begin(), v.end(), 0.0);
  const double bnorm = std::max(detail::norm(b), 1e-300);
  SolveReport rep;
  while (rep.iterations < opt.max_iterations) {
    rep.relative_residual = detail::norm(r) / bnorm;
    if (rep.relative_residual <= opt.tolerance) {
      rep.converged = true;
      return rep;
    }
    const double rho_new = detail::dot(r0, r);
    if (rho_new == 0.0) break;  // breakdown
    const double beta = (rho_new / rho) * (alpha / omega);
    rho = rho_new;
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = r[i] + beta * (p[i] - omega * v[i]);
    }
    A.apply(p, v);
    alpha = rho / detail::dot(r0, v);
    for (std::size_t i = 0; i < n; ++i) s[i] = r[i] - alpha * v[i];
    A.apply(s, t);
    const double tt = detail::dot(t, t);
    omega = tt == 0.0 ? 0.0 : detail::dot(t, s) / tt;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i] + omega * s[i];
      r[i] = s[i] - omega * t[i];
    }
    rep.iterations++;
    if (omega == 0.0) break;  // breakdown
  }
  rep.relative_residual = detail::norm(r) / bnorm;
  return rep;
}

template <class Operator>
EigenReport power_iteration(Operator& A, std::span<real_t> v,
                            double tolerance = 1e-10,
                            long max_iterations = 10000) {
  require(A.rows() == A.cols(), "power_iteration: operator must be square");
  const std::size_t n = v.size();
  std::vector<real_t> w(n);
  double lambda = 0;
  EigenReport rep;
  double nv = detail::norm(v);
  require(nv > 0, "power_iteration: start vector must be non-zero");
  for (std::size_t i = 0; i < n; ++i) v[i] /= nv;
  while (rep.iterations < max_iterations) {
    A.apply(v, w);
    const double lambda_new = detail::dot(v, w);
    const double wn = detail::norm(w);
    if (wn == 0.0) break;  // A v = 0
    for (std::size_t i = 0; i < n; ++i) v[i] = w[i] / wn;
    rep.iterations++;
    if (std::abs(lambda_new - lambda) <=
        tolerance * std::max(1.0, std::abs(lambda_new))) {
      rep.eigenvalue = lambda_new;
      rep.converged = true;
      return rep;
    }
    lambda = lambda_new;
  }
  rep.eigenvalue = lambda;
  return rep;
}

}  // namespace serial

}  // namespace yaspmv::solver
