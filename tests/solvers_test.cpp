// Solver tests: CG / BiCGSTAB / Jacobi / power iteration over every
// operator adapter, on problems with known solutions.
#include "yaspmv/solvers/solvers.hpp"

#include <gtest/gtest.h>

#include "yaspmv/core/engine.hpp"
#include "yaspmv/gen/suite.hpp"
#include "yaspmv/util/rng.hpp"

namespace yaspmv {
namespace {

/// SPD tridiagonal Poisson operator [-1, 2, -1].
fmt::Coo poisson1d(index_t n) {
  std::vector<index_t> ri, ci;
  std::vector<real_t> v;
  for (index_t i = 0; i < n; ++i) {
    if (i > 0) {
      ri.push_back(i);
      ci.push_back(i - 1);
      v.push_back(-1.0);
    }
    ri.push_back(i);
    ci.push_back(i);
    v.push_back(2.0);
    if (i + 1 < n) {
      ri.push_back(i);
      ci.push_back(i + 1);
      v.push_back(-1.0);
    }
  }
  return fmt::Coo::from_triplets(n, n, std::move(ri), std::move(ci),
                                 std::move(v));
}

/// Nonsymmetric diagonally dominant matrix.
fmt::Coo nonsym(index_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<index_t> ri, ci;
  std::vector<real_t> v;
  for (index_t i = 0; i < n; ++i) {
    ri.push_back(i);
    ci.push_back(i);
    v.push_back(8.0 + rng.next_double());
    for (int k = 0; k < 3; ++k) {
      const auto c = static_cast<index_t>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      if (c != i) {
        ri.push_back(i);
        ci.push_back(c);
        v.push_back(rng.next_double(-1, 1));
      }
    }
  }
  return fmt::Coo::from_triplets(n, n, std::move(ri), std::move(ci),
                                 std::move(v));
}

template <class Op>
void check_cg_solves_poisson(Op& A, index_t n, const std::string& what) {
  // b = A * ones, so the exact solution is ones.
  std::vector<real_t> ones(static_cast<std::size_t>(n), 1.0),
      b(static_cast<std::size_t>(n)), x(static_cast<std::size_t>(n), 0.0);
  A.apply(ones, b);
  const auto rep = solver::cg(A, b, x);
  EXPECT_TRUE(rep.converged) << what;
  EXPECT_LT(rep.relative_residual, 1e-9) << what;
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_NEAR(x[i], 1.0, 1e-6) << what << " i=" << i;
  }
}

/// Simulated-device operator: accumulates the kernel statistics so a solve
/// can be performance-modeled end to end.
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
  const sim::KernelStats& stats() const { return stats_; }
  std::size_t applies() const { return applies_; }

 private:
  core::SpmvEngine eng_;
  sim::KernelStats stats_;
  std::size_t applies_ = 0;
};

TEST(Solvers, CgOnEveryBackend) {
  const index_t n = 400;
  const auto A = poisson1d(n);
  {
    solver::CsrOperator op(fmt::Csr::from_coo(A));
    check_cg_solves_poisson(op, n, "csr");
  }
  {
    solver::CpuOperator op(A, {}, 3);
    check_cg_solves_poisson(op, n, "cpu");
  }
  {
    core::FormatConfig fc;
    fc.block_h = 2;
    SimOperator op(A, fc, {}, sim::gtx680());
    check_cg_solves_poisson(op, n, "sim");
    EXPECT_GT(op.applies(), 1u);
    EXPECT_GT(op.stats().global_load_bytes, 0u);
  }
}

TEST(Solvers, CgReportsNonConvergenceOnTinyBudget) {
  const auto A = poisson1d(500);
  solver::CsrOperator op(fmt::Csr::from_coo(A));
  std::vector<real_t> b(500, 1.0), x(500, 0.0);
  solver::SolveOptions opt;
  opt.max_iterations = 3;
  const auto rep = solver::cg(op, b, x, opt);
  EXPECT_FALSE(rep.converged);
  EXPECT_EQ(rep.iterations, 3);
  EXPECT_GT(rep.relative_residual, 0.0);
}

TEST(Solvers, PcgConvergesFasterOnIllScaledSystem) {
  // SPD system with a wildly varying diagonal: D + small symmetric
  // perturbation.  Jacobi preconditioning should cut iterations.
  const index_t n = 300;
  SplitMix64 rng(42);
  std::vector<index_t> ri, ci;
  std::vector<real_t> v;
  for (index_t i = 0; i < n; ++i) {
    ri.push_back(i);
    ci.push_back(i);
    v.push_back(std::pow(10.0, rng.next_double(0, 4)));  // 1 .. 10^4
  }
  for (index_t i = 0; i + 1 < n; ++i) {
    ri.push_back(i);
    ci.push_back(i + 1);
    v.push_back(0.3);
    ri.push_back(i + 1);
    ci.push_back(i);
    v.push_back(0.3);
  }
  const auto A = fmt::Coo::from_triplets(n, n, std::move(ri), std::move(ci),
                                         std::move(v));
  const auto diag = solver::extract_diagonal(A);
  solver::CsrOperator op(fmt::Csr::from_coo(A));
  std::vector<real_t> sol(static_cast<std::size_t>(n), 1.0),
      b(static_cast<std::size_t>(n));
  op.apply(sol, b);
  solver::SolveOptions opt;
  opt.tolerance = 1e-10;
  opt.max_iterations = 5000;

  std::vector<real_t> x1(static_cast<std::size_t>(n), 0.0);
  const auto plain = solver::cg(op, b, x1, opt);
  std::vector<real_t> x2(static_cast<std::size_t>(n), 0.0);
  const auto pre = solver::pcg_jacobi(op, diag, b, x2, opt);
  EXPECT_TRUE(pre.converged);
  EXPECT_LT(pre.iterations, plain.iterations);
  for (std::size_t i = 0; i < x2.size(); ++i) ASSERT_NEAR(x2[i], 1.0, 1e-5);
}

TEST(Solvers, PcgRejectsZeroDiagonal) {
  const auto A = fmt::Coo::from_triplets(2, 2, {0, 1}, {1, 0}, {1.0, 1.0});
  const auto diag = solver::extract_diagonal(A);
  solver::CsrOperator op(fmt::Csr::from_coo(A));
  std::vector<real_t> b(2, 1.0), x(2, 0.0);
  EXPECT_THROW(solver::pcg_jacobi(op, diag, b, x), std::invalid_argument);
}

TEST(Solvers, BicgstabOnNonsymmetric) {
  const index_t n = 300;
  const auto A = nonsym(n, 5);
  solver::CpuOperator op(A, {}, 2);
  SplitMix64 rng(6);
  std::vector<real_t> sol(static_cast<std::size_t>(n)),
      b(static_cast<std::size_t>(n)), x(static_cast<std::size_t>(n), 0.0);
  for (auto& s : sol) s = rng.next_double(-1, 1);
  op.apply(sol, b);
  const auto rep = solver::bicgstab(op, b, x);
  EXPECT_TRUE(rep.converged);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_NEAR(x[i], sol[i], 1e-6) << i;
  }
}

TEST(Solvers, JacobiOnDiagonallyDominant) {
  const index_t n = 200;
  const auto A = nonsym(n, 7);
  const auto csr = fmt::Csr::from_coo(A);
  std::vector<real_t> diag(static_cast<std::size_t>(n));
  for (index_t r = 0; r < n; ++r) {
    for (index_t p = csr.row_ptr[static_cast<std::size_t>(r)];
         p < csr.row_ptr[static_cast<std::size_t>(r) + 1]; ++p) {
      if (csr.col_idx[static_cast<std::size_t>(p)] == r) {
        diag[static_cast<std::size_t>(r)] =
            csr.vals[static_cast<std::size_t>(p)];
      }
    }
  }
  solver::CsrOperator op(csr);
  std::vector<real_t> sol(static_cast<std::size_t>(n), 2.0),
      b(static_cast<std::size_t>(n)), x(static_cast<std::size_t>(n), 0.0);
  op.apply(sol, b);
  solver::SolveOptions opt;
  opt.tolerance = 1e-8;
  opt.max_iterations = 5000;
  const auto rep = solver::jacobi(op, diag, b, x, opt);
  EXPECT_TRUE(rep.converged);
  for (std::size_t i = 0; i < x.size(); ++i) ASSERT_NEAR(x[i], 2.0, 1e-5);
}

TEST(Solvers, PowerIterationFindsDominantEigenvalue) {
  // Diagonal matrix: dominant eigenvalue is the largest diagonal entry.
  const index_t n = 50;
  std::vector<index_t> ri, ci;
  std::vector<real_t> v;
  for (index_t i = 0; i < n; ++i) {
    ri.push_back(i);
    ci.push_back(i);
    v.push_back(static_cast<real_t>(i + 1));
  }
  const auto A = fmt::Coo::from_triplets(n, n, std::move(ri), std::move(ci),
                                         std::move(v));
  solver::CpuOperator op(A);
  std::vector<real_t> vec(static_cast<std::size_t>(n), 1.0);
  const auto rep = solver::power_iteration(op, vec, 1e-12, 20000);
  EXPECT_TRUE(rep.converged);
  EXPECT_NEAR(rep.eigenvalue, 50.0, 1e-6);
  // Eigenvector concentrates on the last coordinate.
  EXPECT_NEAR(std::abs(vec[49]), 1.0, 1e-4);
}

TEST(Solvers, PowerIterationPoissonExtremalEigenvalue) {
  // 1D Poisson eigenvalues: 2 - 2cos(k*pi/(n+1)); max ~ 4 for large n.
  const index_t n = 100;
  const auto A = poisson1d(n);
  solver::CsrOperator op(fmt::Csr::from_coo(A));
  SplitMix64 rng(9);
  std::vector<real_t> vec(static_cast<std::size_t>(n));
  for (auto& x : vec) x = rng.next_double(-1, 1);
  const auto rep = solver::power_iteration(op, vec, 1e-10, 50000);
  const double expect =
      2.0 - 2.0 * std::cos(static_cast<double>(n) * M_PI /
                           static_cast<double>(n + 1));
  EXPECT_NEAR(rep.eigenvalue, expect, 1e-4);
}

TEST(Solvers, RejectsNonSquare) {
  const auto A = fmt::Coo::from_triplets(2, 3, {0}, {0}, {1.0});
  solver::CsrOperator op(fmt::Csr::from_coo(A));
  std::vector<real_t> b(2), x(2);
  EXPECT_THROW(solver::cg(op, b, x), std::invalid_argument);
  EXPECT_THROW(solver::bicgstab(op, b, x), std::invalid_argument);
}

}  // namespace
}  // namespace yaspmv
