// Pooled, SIMD-dispatched dense vector kernels for the iterative solvers —
// the other half of a solver iteration (Section 1 of the paper motivates
// SpMV with exactly these Krylov loops; Liu & Vinter's observation that
// cross-call setup dominates repeated SpMV applies just as much to the
// dot/axpy sweeps between the multiplies).
//
// Each primitive (dot, nrm2, axpy, xpay, and the fused solver updates that
// collapse adjacent sweeps into one pass) is provided in two runtime-
// dispatched implementations — AVX2/FMA and a portable four-accumulator
// fallback — sharing the dispatch level of cpu/simd.hpp, and runs on the
// shared WorkPool's owner map (parallel_for_unordered): no chunk body waits
// on another, and worker w owns the same contiguous chunk range on every
// call.  CpuSpmv's chunk pass splits the nonzeros the same way, in worker
// order, so when the vector has one chunk per worker (16,384 rows at 2
// threads) worker w's elements are about the rows its apply chunks wrote,
// and a solver iteration finds its part of p, Ap, x and r in that core's
// cache.
//
// Determinism contract (stronger than the SpMV kernels'): the chunk grid is
// a pure function of the vector length (fixed kChunk elements per chunk,
// never the thread count), every reduction uses the kernels' fixed lane
// order (element p of a chunk accumulates into lane (p - lo) % 4, lanes
// reduce as (l0 + l2) + (l1 + l3), tails are sequential), and per-chunk
// partials are combined serially in chunk order.  Results are therefore
// bitwise identical for ANY requested thread count at a fixed dispatch
// level; across levels fused multiply-add changes results by rounding only
// (tested at a 1-ulp-scaled tolerance, like the SpMV kernels).  Fused
// kernels apply the same per-element expressions as their unfused
// equivalents, so fusion never changes the updated vectors at a fixed
// level.
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "yaspmv/cpu/simd.hpp"
#include "yaspmv/util/thread_pool.hpp"

namespace yaspmv::cpu {

/// Two dot products accumulated in one pass.
struct DotPair {
  double ab = 0.0;
  double ac = 0.0;
};

namespace vk {

// ---- portable kernels (four-accumulator lane order) -----------------------

inline double dot_portable(const real_t* a, const real_t* b, std::size_t n) {
  double l0 = 0, l1 = 0, l2 = 0, l3 = 0;
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    l0 += a[p] * b[p];
    l1 += a[p + 1] * b[p + 1];
    l2 += a[p + 2] * b[p + 2];
    l3 += a[p + 3] * b[p + 3];
  }
  double s = (l0 + l2) + (l1 + l3);
  for (; p < n; ++p) s += a[p] * b[p];
  return s;
}

inline void dot2_portable(const real_t* a, const real_t* b, const real_t* c,
                          std::size_t n, double out[2]) {
  double x0 = 0, x1 = 0, x2 = 0, x3 = 0;
  double y0 = 0, y1 = 0, y2 = 0, y3 = 0;
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    x0 += a[p] * b[p];
    x1 += a[p + 1] * b[p + 1];
    x2 += a[p + 2] * b[p + 2];
    x3 += a[p + 3] * b[p + 3];
    y0 += a[p] * c[p];
    y1 += a[p + 1] * c[p + 1];
    y2 += a[p + 2] * c[p + 2];
    y3 += a[p + 3] * c[p + 3];
  }
  double sx = (x0 + x2) + (x1 + x3);
  double sy = (y0 + y2) + (y1 + y3);
  for (; p < n; ++p) {
    sx += a[p] * b[p];
    sy += a[p] * c[p];
  }
  out[0] = sx;
  out[1] = sy;
}

inline void axpy_portable(double alpha, const real_t* x, real_t* y,
                          std::size_t n) {
  for (std::size_t p = 0; p < n; ++p) y[p] += alpha * x[p];
}

inline void xpay_portable(const real_t* x, double alpha, real_t* y,
                          std::size_t n) {
  for (std::size_t p = 0; p < n; ++p) y[p] = x[p] + alpha * y[p];
}

/// y += alpha * x, returning the chunk's y . y after the update.
inline double axpy_dot_portable(double alpha, const real_t* x, real_t* y,
                                std::size_t n) {
  double l0 = 0, l1 = 0, l2 = 0, l3 = 0;
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    y[p] += alpha * x[p];
    y[p + 1] += alpha * x[p + 1];
    y[p + 2] += alpha * x[p + 2];
    y[p + 3] += alpha * x[p + 3];
    l0 += y[p] * y[p];
    l1 += y[p + 1] * y[p + 1];
    l2 += y[p + 2] * y[p + 2];
    l3 += y[p + 3] * y[p + 3];
  }
  double s = (l0 + l2) + (l1 + l3);
  for (; p < n; ++p) {
    y[p] += alpha * x[p];
    s += y[p] * y[p];
  }
  return s;
}

/// CG inner update: x += alpha p, r -= alpha q, returns the chunk's r . r.
inline double cg_update_portable(double alpha, const real_t* p_,
                                 const real_t* q, real_t* x, real_t* r,
                                 std::size_t n) {
  double l0 = 0, l1 = 0, l2 = 0, l3 = 0;
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    for (std::size_t j = 0; j < 4; ++j) {
      x[p + j] += alpha * p_[p + j];
      r[p + j] -= alpha * q[p + j];
    }
    l0 += r[p] * r[p];
    l1 += r[p + 1] * r[p + 1];
    l2 += r[p + 2] * r[p + 2];
    l3 += r[p + 3] * r[p + 3];
  }
  double s = (l0 + l2) + (l1 + l3);
  for (; p < n; ++p) {
    x[p] += alpha * p_[p];
    r[p] -= alpha * q[p];
    s += r[p] * r[p];
  }
  return s;
}

/// BiCGStab tail update: x += alpha p + omega s, r = s - omega t,
/// accumulating r . r (out[0], next residual) and r0 . r (out[1], the next
/// iteration's rho) in the same pass.
inline void bicg_xr_portable(double alpha, const real_t* p_, double omega,
                             const real_t* s, const real_t* t,
                             const real_t* r0, real_t* x, real_t* r,
                             std::size_t n, double out[2]) {
  double x0 = 0, x1 = 0, x2 = 0, x3 = 0;
  double y0 = 0, y1 = 0, y2 = 0, y3 = 0;
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    for (std::size_t j = 0; j < 4; ++j) {
      x[p + j] += alpha * p_[p + j] + omega * s[p + j];
      r[p + j] = s[p + j] - omega * t[p + j];
    }
    x0 += r[p] * r[p];
    x1 += r[p + 1] * r[p + 1];
    x2 += r[p + 2] * r[p + 2];
    x3 += r[p + 3] * r[p + 3];
    y0 += r0[p] * r[p];
    y1 += r0[p + 1] * r[p + 1];
    y2 += r0[p + 2] * r[p + 2];
    y3 += r0[p + 3] * r[p + 3];
  }
  double sx = (x0 + x2) + (x1 + x3);
  double sy = (y0 + y2) + (y1 + y3);
  for (; p < n; ++p) {
    x[p] += alpha * p_[p] + omega * s[p];
    r[p] = s[p] - omega * t[p];
    sx += r[p] * r[p];
    sy += r0[p] * r[p];
  }
  out[0] = sx;
  out[1] = sy;
}

/// BiCGStab search-direction update: p = r + beta * (p - omega * v).
inline void bicg_p_portable(const real_t* r, double beta, double omega,
                            const real_t* v, real_t* p_, std::size_t n) {
  for (std::size_t p = 0; p < n; ++p) {
    p_[p] = r[p] + beta * (p_[p] - omega * v[p]);
  }
}

/// s = r - alpha * v (also r = b - q with alpha = 1).
inline void sub_scaled_portable(const real_t* r, double alpha, const real_t* v,
                                real_t* s, std::size_t n) {
  for (std::size_t p = 0; p < n; ++p) s[p] = r[p] - alpha * v[p];
}

inline void scale_store_portable(double alpha, const real_t* w, real_t* v,
                                 std::size_t n) {
  for (std::size_t p = 0; p < n; ++p) v[p] = alpha * w[p];
}

inline void scale_portable(double alpha, real_t* v, std::size_t n) {
  for (std::size_t p = 0; p < n; ++p) v[p] *= alpha;
}

/// Jacobi preconditioner apply z = r / d fused with the r . z reduction.
/// Division-bound; kept portable-only (both dispatch levels run this
/// kernel, so it is trivially level-invariant).
inline double precond_dot_portable(const real_t* r, const real_t* d, real_t* z,
                                   std::size_t n) {
  double l0 = 0, l1 = 0, l2 = 0, l3 = 0;
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    z[p] = r[p] / d[p];
    z[p + 1] = r[p + 1] / d[p + 1];
    z[p + 2] = r[p + 2] / d[p + 2];
    z[p + 3] = r[p + 3] / d[p + 3];
    l0 += r[p] * z[p];
    l1 += r[p + 1] * z[p + 1];
    l2 += r[p + 2] * z[p + 2];
    l3 += r[p + 3] * z[p + 3];
  }
  double s = (l0 + l2) + (l1 + l3);
  for (; p < n; ++p) {
    z[p] = r[p] / d[p];
    s += r[p] * z[p];
  }
  return s;
}

/// Weighted Jacobi sweep: x += weight * (b - Ax) / d, returning the chunk's
/// squared residual norm.  Portable-only, like precond_dot.
inline double jacobi_portable(const real_t* b, const real_t* Ax,
                              const real_t* d, double weight, real_t* x,
                              std::size_t n) {
  double l0 = 0, l1 = 0, l2 = 0, l3 = 0;
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    for (std::size_t j = 0; j < 4; ++j) {
      const double r = b[p + j] - Ax[p + j];
      x[p + j] += weight * r / d[p + j];
      (j == 0 ? l0 : j == 1 ? l1 : j == 2 ? l2 : l3) += r * r;
    }
  }
  double s = (l0 + l2) + (l1 + l3);
  for (; p < n; ++p) {
    const double r = b[p] - Ax[p];
    x[p] += weight * r / d[p];
    s += r * r;
  }
  return s;
}

// ---- AVX2/FMA twins -------------------------------------------------------
//
// Same lane assignment and reduction order as the portable kernels;
// products are fused where the portable kernel has a multiply-add, which
// is the documented cross-level rounding difference.

#if YASPMV_SIMD_X86

__attribute__((target("avx2,fma"))) inline double dot_avx2(const real_t* a,
                                                           const real_t* b,
                                                           std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    acc = _mm256_fmadd_pd(_mm256_loadu_pd(a + p), _mm256_loadu_pd(b + p), acc);
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  double s = (lane[0] + lane[2]) + (lane[1] + lane[3]);
  for (; p < n; ++p) s += a[p] * b[p];
  return s;
}

__attribute__((target("avx2,fma"))) inline void dot2_avx2(
    const real_t* a, const real_t* b, const real_t* c, std::size_t n,
    double out[2]) {
  __m256d ab = _mm256_setzero_pd();
  __m256d ac = _mm256_setzero_pd();
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    const __m256d av = _mm256_loadu_pd(a + p);
    ab = _mm256_fmadd_pd(av, _mm256_loadu_pd(b + p), ab);
    ac = _mm256_fmadd_pd(av, _mm256_loadu_pd(c + p), ac);
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, ab);
  double sx = (lane[0] + lane[2]) + (lane[1] + lane[3]);
  _mm256_store_pd(lane, ac);
  double sy = (lane[0] + lane[2]) + (lane[1] + lane[3]);
  for (; p < n; ++p) {
    sx += a[p] * b[p];
    sy += a[p] * c[p];
  }
  out[0] = sx;
  out[1] = sy;
}

__attribute__((target("avx2,fma"))) inline void axpy_avx2(double alpha,
                                                          const real_t* x,
                                                          real_t* y,
                                                          std::size_t n) {
  const __m256d av = _mm256_set1_pd(alpha);
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    _mm256_storeu_pd(
        y + p,
        _mm256_fmadd_pd(av, _mm256_loadu_pd(x + p), _mm256_loadu_pd(y + p)));
  }
  for (; p < n; ++p) y[p] += alpha * x[p];
}

__attribute__((target("avx2,fma"))) inline void xpay_avx2(const real_t* x,
                                                          double alpha,
                                                          real_t* y,
                                                          std::size_t n) {
  const __m256d av = _mm256_set1_pd(alpha);
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    _mm256_storeu_pd(
        y + p,
        _mm256_fmadd_pd(av, _mm256_loadu_pd(y + p), _mm256_loadu_pd(x + p)));
  }
  for (; p < n; ++p) y[p] = x[p] + alpha * y[p];
}

__attribute__((target("avx2,fma"))) inline double axpy_dot_avx2(
    double alpha, const real_t* x, real_t* y, std::size_t n) {
  const __m256d av = _mm256_set1_pd(alpha);
  __m256d acc = _mm256_setzero_pd();
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    const __m256d yv =
        _mm256_fmadd_pd(av, _mm256_loadu_pd(x + p), _mm256_loadu_pd(y + p));
    _mm256_storeu_pd(y + p, yv);
    acc = _mm256_fmadd_pd(yv, yv, acc);
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  double s = (lane[0] + lane[2]) + (lane[1] + lane[3]);
  for (; p < n; ++p) {
    y[p] += alpha * x[p];
    s += y[p] * y[p];
  }
  return s;
}

__attribute__((target("avx2,fma"))) inline double cg_update_avx2(
    double alpha, const real_t* p_, const real_t* q, real_t* x, real_t* r,
    std::size_t n) {
  const __m256d av = _mm256_set1_pd(alpha);
  const __m256d nav = _mm256_set1_pd(-alpha);
  __m256d acc = _mm256_setzero_pd();
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    _mm256_storeu_pd(
        x + p,
        _mm256_fmadd_pd(av, _mm256_loadu_pd(p_ + p), _mm256_loadu_pd(x + p)));
    const __m256d rv =
        _mm256_fmadd_pd(nav, _mm256_loadu_pd(q + p), _mm256_loadu_pd(r + p));
    _mm256_storeu_pd(r + p, rv);
    acc = _mm256_fmadd_pd(rv, rv, acc);
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  double s = (lane[0] + lane[2]) + (lane[1] + lane[3]);
  for (; p < n; ++p) {
    x[p] += alpha * p_[p];
    r[p] -= alpha * q[p];
    s += r[p] * r[p];
  }
  return s;
}

__attribute__((target("avx2,fma"))) inline void bicg_xr_avx2(
    double alpha, const real_t* p_, double omega, const real_t* s,
    const real_t* t, const real_t* r0, real_t* x, real_t* r, std::size_t n,
    double out[2]) {
  const __m256d av = _mm256_set1_pd(alpha);
  const __m256d ov = _mm256_set1_pd(omega);
  const __m256d nov = _mm256_set1_pd(-omega);
  __m256d rr = _mm256_setzero_pd();
  __m256d r0r = _mm256_setzero_pd();
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    const __m256d sv = _mm256_loadu_pd(s + p);
    __m256d xv = _mm256_fmadd_pd(av, _mm256_loadu_pd(p_ + p),
                                 _mm256_loadu_pd(x + p));
    xv = _mm256_fmadd_pd(ov, sv, xv);
    _mm256_storeu_pd(x + p, xv);
    const __m256d rv = _mm256_fmadd_pd(nov, _mm256_loadu_pd(t + p), sv);
    _mm256_storeu_pd(r + p, rv);
    rr = _mm256_fmadd_pd(rv, rv, rr);
    r0r = _mm256_fmadd_pd(_mm256_loadu_pd(r0 + p), rv, r0r);
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, rr);
  double sx = (lane[0] + lane[2]) + (lane[1] + lane[3]);
  _mm256_store_pd(lane, r0r);
  double sy = (lane[0] + lane[2]) + (lane[1] + lane[3]);
  for (; p < n; ++p) {
    x[p] += alpha * p_[p] + omega * s[p];
    r[p] = s[p] - omega * t[p];
    sx += r[p] * r[p];
    sy += r0[p] * r[p];
  }
  out[0] = sx;
  out[1] = sy;
}

__attribute__((target("avx2,fma"))) inline void bicg_p_avx2(
    const real_t* r, double beta, double omega, const real_t* v, real_t* p_,
    std::size_t n) {
  const __m256d bv = _mm256_set1_pd(beta);
  const __m256d nov = _mm256_set1_pd(-omega);
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    const __m256d inner =
        _mm256_fmadd_pd(nov, _mm256_loadu_pd(v + p), _mm256_loadu_pd(p_ + p));
    _mm256_storeu_pd(p_ + p,
                     _mm256_fmadd_pd(bv, inner, _mm256_loadu_pd(r + p)));
  }
  for (; p < n; ++p) p_[p] = r[p] + beta * (p_[p] - omega * v[p]);
}

__attribute__((target("avx2,fma"))) inline void sub_scaled_avx2(
    const real_t* r, double alpha, const real_t* v, real_t* s, std::size_t n) {
  const __m256d nav = _mm256_set1_pd(-alpha);
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    _mm256_storeu_pd(
        s + p,
        _mm256_fmadd_pd(nav, _mm256_loadu_pd(v + p), _mm256_loadu_pd(r + p)));
  }
  for (; p < n; ++p) s[p] = r[p] - alpha * v[p];
}

__attribute__((target("avx2"))) inline void scale_store_avx2(double alpha,
                                                             const real_t* w,
                                                             real_t* v,
                                                             std::size_t n) {
  const __m256d av = _mm256_set1_pd(alpha);
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    _mm256_storeu_pd(v + p, _mm256_mul_pd(av, _mm256_loadu_pd(w + p)));
  }
  for (; p < n; ++p) v[p] = alpha * w[p];
}

__attribute__((target("avx2"))) inline void scale_avx2(double alpha, real_t* v,
                                                       std::size_t n) {
  scale_store_avx2(alpha, v, v, n);
}

#else

inline double dot_avx2(const real_t* a, const real_t* b, std::size_t n) {
  return dot_portable(a, b, n);
}
inline void dot2_avx2(const real_t* a, const real_t* b, const real_t* c,
                      std::size_t n, double out[2]) {
  dot2_portable(a, b, c, n, out);
}
inline void axpy_avx2(double alpha, const real_t* x, real_t* y,
                      std::size_t n) {
  axpy_portable(alpha, x, y, n);
}
inline void xpay_avx2(const real_t* x, double alpha, real_t* y,
                      std::size_t n) {
  xpay_portable(x, alpha, y, n);
}
inline double axpy_dot_avx2(double alpha, const real_t* x, real_t* y,
                            std::size_t n) {
  return axpy_dot_portable(alpha, x, y, n);
}
inline double cg_update_avx2(double alpha, const real_t* p_, const real_t* q,
                             real_t* x, real_t* r, std::size_t n) {
  return cg_update_portable(alpha, p_, q, x, r, n);
}
inline void bicg_xr_avx2(double alpha, const real_t* p_, double omega,
                         const real_t* s, const real_t* t, const real_t* r0,
                         real_t* x, real_t* r, std::size_t n, double out[2]) {
  bicg_xr_portable(alpha, p_, omega, s, t, r0, x, r, n, out);
}
inline void bicg_p_avx2(const real_t* r, double beta, double omega,
                        const real_t* v, real_t* p_, std::size_t n) {
  bicg_p_portable(r, beta, omega, v, p_, n);
}
inline void sub_scaled_avx2(const real_t* r, double alpha, const real_t* v,
                            real_t* s, std::size_t n) {
  sub_scaled_portable(r, alpha, v, s, n);
}
inline void scale_store_avx2(double alpha, const real_t* w, real_t* v,
                             std::size_t n) {
  scale_store_portable(alpha, w, v, n);
}
inline void scale_avx2(double alpha, real_t* v, std::size_t n) {
  scale_portable(alpha, v, n);
}

#endif  // YASPMV_SIMD_X86

/// One dispatch table per level; fetched once per VecOps call so the level
/// check stays out of the chunk loop (same pattern as simd::dot_range).
struct Kernels {
  double (*dot)(const real_t*, const real_t*, std::size_t);
  void (*dot2)(const real_t*, const real_t*, const real_t*, std::size_t,
               double[2]);
  void (*axpy)(double, const real_t*, real_t*, std::size_t);
  void (*xpay)(const real_t*, double, real_t*, std::size_t);
  double (*axpy_dot)(double, const real_t*, real_t*, std::size_t);
  double (*cg_update)(double, const real_t*, const real_t*, real_t*, real_t*,
                      std::size_t);
  void (*bicg_xr)(double, const real_t*, double, const real_t*, const real_t*,
                  const real_t*, real_t*, real_t*, std::size_t, double[2]);
  void (*bicg_p)(const real_t*, double, double, const real_t*, real_t*,
                 std::size_t);
  void (*sub_scaled)(const real_t*, double, const real_t*, real_t*,
                     std::size_t);
  void (*scale_store)(double, const real_t*, real_t*, std::size_t);
  void (*scale)(double, real_t*, std::size_t);
  double (*precond_dot)(const real_t*, const real_t*, real_t*, std::size_t);
  double (*jacobi)(const real_t*, const real_t*, const real_t*, double,
                   real_t*, std::size_t);
};

inline const Kernels& table() {
  static const Kernels portable{
      &dot_portable,      &dot2_portable,  &axpy_portable,
      &xpay_portable,     &axpy_dot_portable, &cg_update_portable,
      &bicg_xr_portable,  &bicg_p_portable,   &sub_scaled_portable,
      &scale_store_portable, &scale_portable, &precond_dot_portable,
      &jacobi_portable};
  static const Kernels avx2{
      &dot_avx2,      &dot2_avx2,  &axpy_avx2,
      &xpay_avx2,     &axpy_dot_avx2, &cg_update_avx2,
      &bicg_xr_avx2,  &bicg_p_avx2,   &sub_scaled_avx2,
      &scale_store_avx2, &scale_avx2, &precond_dot_portable,
      &jacobi_portable};
  // kAvx512 shares the AVX2 vector kernels (stream-bound, width-neutral).
  return simd::active() != simd::Level::kPortable ? avx2 : portable;
}

}  // namespace vk

/// Reusable pooled vector-kernel executor.  Holds the per-chunk partial
/// scratch so the hot solver loop allocates nothing; like CpuSpmv, one
/// instance is not meant to be driven from two threads at once.
class VecOps {
 public:
  /// Elements per chunk.  Pure function of nothing — the chunk grid depends
  /// only on the vector length, which is what makes every reduction
  /// thread-count invariant (see the header comment).
  static constexpr std::size_t kChunk = 8192;

  /// `threads == 0` uses the hardware concurrency.
  explicit VecOps(unsigned threads = 0)
      : threads_(threads == 0 ? default_workers() : threads) {}

  unsigned threads() const { return threads_; }

  double dot(std::span<const real_t> a, std::span<const real_t> b) {
    require(a.size() == b.size(), "VecOps::dot: size mismatch");
    const vk::Kernels& k = vk::table();
    return reduce1(a.size(), [&](std::size_t lo, std::size_t hi) {
      return k.dot(a.data() + lo, b.data() + lo, hi - lo);
    });
  }

  double nrm2(std::span<const real_t> a) { return std::sqrt(dot(a, a)); }

  /// (a . b, a . c) in one pass.
  DotPair dot2(std::span<const real_t> a, std::span<const real_t> b,
               std::span<const real_t> c) {
    require(a.size() == b.size() && a.size() == c.size(),
            "VecOps::dot2: size mismatch");
    const vk::Kernels& k = vk::table();
    return reduce2(a.size(), [&](std::size_t lo, std::size_t hi, double* out) {
      k.dot2(a.data() + lo, b.data() + lo, c.data() + lo, hi - lo, out);
    });
  }

  /// y += alpha * x.
  void axpy(double alpha, std::span<const real_t> x, std::span<real_t> y) {
    require(x.size() == y.size(), "VecOps::axpy: size mismatch");
    const vk::Kernels& k = vk::table();
    launch(x.size(), [&](std::size_t, std::size_t lo, std::size_t hi) {
      k.axpy(alpha, x.data() + lo, y.data() + lo, hi - lo);
    });
  }

  /// y = x + alpha * y (the CG search-direction update).
  void xpay(std::span<const real_t> x, double alpha, std::span<real_t> y) {
    require(x.size() == y.size(), "VecOps::xpay: size mismatch");
    const vk::Kernels& k = vk::table();
    launch(x.size(), [&](std::size_t, std::size_t lo, std::size_t hi) {
      k.xpay(x.data() + lo, alpha, y.data() + lo, hi - lo);
    });
  }

  /// y += alpha * x, returning y . y after the update in the same pass.
  double axpy_dot(double alpha, std::span<const real_t> x,
                  std::span<real_t> y) {
    require(x.size() == y.size(), "VecOps::axpy_dot: size mismatch");
    const vk::Kernels& k = vk::table();
    return reduce1(x.size(), [&](std::size_t lo, std::size_t hi) {
      return k.axpy_dot(alpha, x.data() + lo, y.data() + lo, hi - lo);
    });
  }

  /// Fused CG inner update: x += alpha p, r -= alpha q; returns r . r.
  double cg_fused_update(double alpha, std::span<const real_t> p,
                         std::span<const real_t> q, std::span<real_t> x,
                         std::span<real_t> r) {
    require(p.size() == q.size() && p.size() == x.size() &&
                p.size() == r.size(),
            "VecOps::cg_fused_update: size mismatch");
    const vk::Kernels& k = vk::table();
    return reduce1(p.size(), [&](std::size_t lo, std::size_t hi) {
      return k.cg_update(alpha, p.data() + lo, q.data() + lo, x.data() + lo,
                         r.data() + lo, hi - lo);
    });
  }

  /// Fused BiCGStab tail: x += alpha p + omega s, r = s - omega t; returns
  /// {r . r, r0 . r} — the next residual and the next iteration's rho.
  DotPair bicg_fused_update(double alpha, std::span<const real_t> p,
                            double omega, std::span<const real_t> s,
                            std::span<const real_t> t,
                            std::span<const real_t> r0, std::span<real_t> x,
                            std::span<real_t> r) {
    require(p.size() == s.size() && p.size() == t.size() &&
                p.size() == r0.size() && p.size() == x.size() &&
                p.size() == r.size(),
            "VecOps::bicg_fused_update: size mismatch");
    const vk::Kernels& k = vk::table();
    return reduce2(p.size(), [&](std::size_t lo, std::size_t hi, double* out) {
      k.bicg_xr(alpha, p.data() + lo, omega, s.data() + lo, t.data() + lo,
                r0.data() + lo, x.data() + lo, r.data() + lo, hi - lo, out);
    });
  }

  /// p = r + beta * (p - omega * v).
  void bicg_p_update(std::span<const real_t> r, double beta, double omega,
                     std::span<const real_t> v, std::span<real_t> p) {
    require(r.size() == v.size() && r.size() == p.size(),
            "VecOps::bicg_p_update: size mismatch");
    const vk::Kernels& k = vk::table();
    launch(r.size(), [&](std::size_t, std::size_t lo, std::size_t hi) {
      k.bicg_p(r.data() + lo, beta, omega, v.data() + lo, p.data() + lo,
               hi - lo);
    });
  }

  /// s = r - alpha * v.
  void sub_scaled(std::span<const real_t> r, double alpha,
                  std::span<const real_t> v, std::span<real_t> s) {
    require(r.size() == v.size() && r.size() == s.size(),
            "VecOps::sub_scaled: size mismatch");
    const vk::Kernels& k = vk::table();
    launch(r.size(), [&](std::size_t, std::size_t lo, std::size_t hi) {
      k.sub_scaled(r.data() + lo, alpha, v.data() + lo, s.data() + lo,
                   hi - lo);
    });
  }

  /// v = alpha * w.
  void scale_store(double alpha, std::span<const real_t> w,
                   std::span<real_t> v) {
    require(w.size() == v.size(), "VecOps::scale_store: size mismatch");
    const vk::Kernels& k = vk::table();
    launch(w.size(), [&](std::size_t, std::size_t lo, std::size_t hi) {
      k.scale_store(alpha, w.data() + lo, v.data() + lo, hi - lo);
    });
  }

  /// v *= alpha.
  void scale(double alpha, std::span<real_t> v) {
    const vk::Kernels& k = vk::table();
    launch(v.size(), [&](std::size_t, std::size_t lo, std::size_t hi) {
      k.scale(alpha, v.data() + lo, hi - lo);
    });
  }

  /// z = r / d elementwise; returns r . z (the PCG rho).
  double precond_dot(std::span<const real_t> r, std::span<const real_t> d,
                     std::span<real_t> z) {
    require(r.size() == d.size() && r.size() == z.size(),
            "VecOps::precond_dot: size mismatch");
    const vk::Kernels& k = vk::table();
    return reduce1(r.size(), [&](std::size_t lo, std::size_t hi) {
      return k.precond_dot(r.data() + lo, d.data() + lo, z.data() + lo,
                           hi - lo);
    });
  }

  /// x += weight * (b - Ax) / d; returns ||b - Ax||^2.
  double jacobi_update(std::span<const real_t> b, std::span<const real_t> Ax,
                       std::span<const real_t> d, double weight,
                       std::span<real_t> x) {
    require(b.size() == Ax.size() && b.size() == d.size() &&
                b.size() == x.size(),
            "VecOps::jacobi_update: size mismatch");
    const vk::Kernels& k = vk::table();
    return reduce1(b.size(), [&](std::size_t lo, std::size_t hi) {
      return k.jacobi(b.data() + lo, Ax.data() + lo, d.data() + lo, weight,
                      x.data() + lo, hi - lo);
    });
  }

 private:
  static std::size_t chunk_count(std::size_t n) {
    return n == 0 ? 0 : (n + kChunk - 1) / kChunk;
  }

  template <class Body>
  void launch(std::size_t n, Body&& body) {
    const std::size_t nc = chunk_count(n);
    parallel_for_unordered(nc, threads_, [&](unsigned, std::size_t c) {
      const std::size_t lo = c * kChunk;
      body(c, lo, std::min(lo + kChunk, n));
    });
  }

  /// Chunked single reduction: workers fill disjoint partials, the submitter
  /// sums them serially in chunk order (the thread-count-invariant combine).
  template <class ChunkFn>
  double reduce1(std::size_t n, ChunkFn&& f) {
    const std::size_t nc = chunk_count(n);
    if (nc <= 1) return n == 0 ? 0.0 : f(std::size_t{0}, n);
    if (part_.size() < nc) part_.resize(nc);
    parallel_for_unordered(nc, threads_, [&](unsigned, std::size_t c) {
      const std::size_t lo = c * kChunk;
      part_[c] = f(lo, std::min(lo + kChunk, n));
    });
    double s = 0.0;
    for (std::size_t c = 0; c < nc; ++c) s += part_[c];
    return s;
  }

  /// Chunked pair reduction (dot2 / the fused BiCGStab tail).
  template <class ChunkFn>
  DotPair reduce2(std::size_t n, ChunkFn&& f) {
    const std::size_t nc = chunk_count(n);
    DotPair out;
    if (nc <= 1) {
      double two[2] = {0.0, 0.0};
      if (n != 0) f(std::size_t{0}, n, two);
      out.ab = two[0];
      out.ac = two[1];
      return out;
    }
    if (part_.size() < 2 * nc) part_.resize(2 * nc);
    parallel_for_unordered(nc, threads_, [&](unsigned, std::size_t c) {
      const std::size_t lo = c * kChunk;
      f(lo, std::min(lo + kChunk, n), &part_[2 * c]);
    });
    for (std::size_t c = 0; c < nc; ++c) {
      out.ab += part_[2 * c];
      out.ac += part_[2 * c + 1];
    }
    return out;
  }

  unsigned threads_;
  std::vector<double> part_;  ///< per-chunk partials (2 per chunk for pairs)
};

}  // namespace yaspmv::cpu
