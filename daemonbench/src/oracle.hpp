// Reply oracle: every answer the daemon gives is checked against a serial
// CSR reference computed before the daemon starts.
//
//   * spmv: y[i] must match the reference within
//     kRelBound * (|A| |x|)[i].  Every kernel sums a row's terms in its own
//     order, so rounding differs by about rowlen * eps * (|A| |x|)[i] —
//     1e-14 here; the bound leaves four orders of margin and still fails
//     any dropped, doubled or misplaced term.
//   * solve: the residual ||b - A x|| / ||b|| is recomputed from the CSR
//     matrix and must be within the tolerance the request asked for.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "yaspmv/formats/coo.hpp"
#include "yaspmv/formats/csr.hpp"
#include "yaspmv/util/rng.hpp"

namespace daemonbench {

using yaspmv::real_t;

inline constexpr double kRelBound = 1e-10;

/// A seeded pool of vectors, each entry uniform in [-1, 1].
inline std::vector<std::vector<real_t>> vector_pool(std::size_t count,
                                                    std::size_t n,
                                                    std::uint64_t seed) {
  yaspmv::SplitMix64 rng(seed);
  std::vector<std::vector<real_t>> pool(count, std::vector<real_t>(n));
  for (auto& v : pool) {
    for (auto& e : v) e = rng.next_double(-1.0, 1.0);
  }
  return pool;
}

class SpmvOracle {
 public:
  SpmvOracle(const yaspmv::fmt::Coo& a, std::size_t pool, std::uint64_t seed)
      : xs_(vector_pool(pool, static_cast<std::size_t>(a.cols), seed)) {
    const auto csr = yaspmv::fmt::Csr::from_coo(a);
    for (const auto& x : xs_) {
      std::vector<real_t> ref(static_cast<std::size_t>(a.rows));
      std::vector<real_t> scale(ref.size());
      for (std::size_t r = 0; r < ref.size(); ++r) {
        double acc = 0, mag = 0;
        for (auto k = csr.row_ptr[r]; k < csr.row_ptr[r + 1]; ++k) {
          const auto kk = static_cast<std::size_t>(k);
          const double t =
              csr.vals[kk] * x[static_cast<std::size_t>(csr.col_idx[kk])];
          acc += t;
          mag += std::fabs(t);
        }
        ref[r] = acc;
        scale[r] = mag;
      }
      refs_.push_back(std::move(ref));
      scales_.push_back(std::move(scale));
    }
  }

  const std::vector<real_t>& x(std::size_t k) const {
    return xs_[k % xs_.size()];
  }

  bool check(std::size_t k, std::span<const real_t> y) const {
    const auto& ref = refs_[k % refs_.size()];
    const auto& scale = scales_[k % scales_.size()];
    if (y.size() != ref.size()) return false;
    for (std::size_t i = 0; i < y.size(); ++i) {
      if (!(std::fabs(y[i] - ref[i]) <= kRelBound * scale[i])) return false;
    }
    return true;
  }

 private:
  std::vector<std::vector<real_t>> xs_, refs_, scales_;
};

class SolveOracle {
 public:
  SolveOracle(const yaspmv::fmt::Coo& a, std::size_t pool, std::uint64_t seed)
      : csr_(yaspmv::fmt::Csr::from_coo(a)),
        bs_(vector_pool(pool, static_cast<std::size_t>(a.rows), seed)) {
    for (const auto& b : bs_) bnorm_.push_back(norm(b));
  }

  std::size_t pool() const { return bs_.size(); }
  const std::vector<real_t>& b(std::size_t k) const {
    return bs_[k % bs_.size()];
  }

  /// ||b - A x|| / ||b|| for right-hand side k.
  double residual(std::size_t k, std::span<const real_t> x) const {
    const auto& b = bs_[k % bs_.size()];
    if (x.size() != b.size()) return INFINITY;
    std::vector<real_t> ax(b.size());
    csr_.spmv(x, ax);
    double s = 0;
    for (std::size_t i = 0; i < b.size(); ++i) {
      const double d = b[i] - ax[i];
      s += d * d;
    }
    return std::sqrt(s) / bnorm_[k % bnorm_.size()];
  }

  bool check(std::size_t k, std::span<const real_t> x, double tol) const {
    return residual(k, x) <= tol;
  }

 private:
  static double norm(const std::vector<real_t>& v) {
    double s = 0;
    for (const real_t e : v) s += e * e;
    return std::sqrt(s);
  }

  yaspmv::fmt::Csr csr_;
  std::vector<std::vector<real_t>> bs_;
  std::vector<double> bnorm_;
};

}  // namespace daemonbench
