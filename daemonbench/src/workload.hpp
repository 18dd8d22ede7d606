// The workloads and the inputs the load generator makes for them from its
// seed.  The daemon receives only these inputs: the matrices through
// register requests and the vectors inside spmv/solve requests.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "oracle.hpp"
#include "yaspmv/formats/coo.hpp"
#include "yaspmv/gen/suite.hpp"

namespace daemonbench {

using yaspmv::index_t;

/// What one client connection sends, in a closed loop.
enum class Kind { kSpmvVerified, kSpmvPlain, kSolve };

struct Workload {
  std::string name;
  unsigned apply_threads = 1;  ///< the daemon's --apply-threads
  std::vector<Kind> clients;  ///< client i uses matrix min(i, mats - 1)
  std::size_t reenact_per_batch = 1;  ///< re-enacted requests per batch
};

inline constexpr double kSolveTol = 1e-8;
inline constexpr std::uint32_t kSolveMaxIters = 4000;
inline constexpr std::size_t kPool = 8;  ///< x (or b) vectors per matrix

inline Workload workload(const std::string& name) {
  if (name == "serve-spmv") {
    return {name, 1, {Kind::kSpmvVerified, Kind::kSpmvPlain}, 12};
  }
  if (name == "solve-cg") {
    return {name, 2, {Kind::kSolve}, 2};
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (serve-spmv | solve-cg)");
}

/// 2-D 5-point Poisson operator on an n x n grid (SPD).
inline yaspmv::fmt::Coo poisson2d(index_t n) {
  std::vector<index_t> ri, ci;
  std::vector<yaspmv::real_t> v;
  const auto add = [&](index_t r, index_t c, yaspmv::real_t x) {
    ri.push_back(r);
    ci.push_back(c);
    v.push_back(x);
  };
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      const index_t r = i * n + j;
      add(r, r, 4.0);
      if (i > 0) add(r, r - n, -1.0);
      if (i + 1 < n) add(r, r + n, -1.0);
      if (j > 0) add(r, r - 1, -1.0);
      if (j + 1 < n) add(r, r + 1, -1.0);
    }
  }
  return yaspmv::fmt::Coo::from_triplets(n * n, n * n, std::move(ri),
                                         std::move(ci), std::move(v));
}

struct Inputs {
  std::vector<yaspmv::fmt::Coo> mats;
  std::vector<SpmvOracle> spmv;  ///< one per matrix, spmv workloads
  std::unique_ptr<SolveOracle> solve;

  const yaspmv::fmt::Coo& matrix_of(std::size_t client) const {
    return mats[std::min(client, mats.size() - 1)];
  }
  const SpmvOracle& oracle_of(std::size_t client) const {
    return spmv[std::min(client, spmv.size() - 1)];
  }
};

/// Generates the workload's matrices, vector pools and CSR references.
/// Nothing here is timed.
inline Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  namespace gen = yaspmv::gen;
  Inputs in;
  const std::uint64_t pool_seed = seed * 0x9E3779B97F4A7C15ull + 0x5eed;
  if (w.name == "serve-spmv") {
    // bench_serve's shape: 96 x 96 mesh nodes, 24 nnz/row, 3x3 dof blocks.
    in.mats.push_back(gen::fem_mesh(96 * 96, 24, 3, 0.02, seed));
    in.mats.push_back(gen::fem_mesh(96 * 96, 24, 3, 0.02, seed + 1));
    for (std::size_t m = 0; m < in.mats.size(); ++m) {
      in.spmv.emplace_back(in.mats[m], kPool, pool_seed + m);
    }
  } else {
    in.mats.push_back(poisson2d(128));
    in.solve = std::make_unique<SolveOracle>(in.mats[0], kPool, pool_seed);
  }
  return in;
}

}  // namespace daemonbench
