// Single-source shortest paths via min-plus semiring SpMV (Bellman-Ford
// relaxations) over a synthetic road-network-like graph — a GraphBLAS-style
// use of the BCCOO kernel beyond the numeric ring.
//
//   ./sssp [--nodes=20000] [--degree=4] [--source=0] [--threads=N]
#include <cmath>
#include <iostream>
#include <memory>

#include "yaspmv/cpu/semiring.hpp"
#include "yaspmv/gen/suite.hpp"
#include "yaspmv/util/args.hpp"
#include "yaspmv/util/rng.hpp"
#include "yaspmv/util/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace yaspmv;
  const Args args(argc, argv);
  const auto n = static_cast<index_t>(args.get_int("nodes", 20000));
  const auto degree = static_cast<index_t>(args.get_int("degree", 4));
  const auto source = static_cast<index_t>(args.get_int("source", 0));
  const auto threads = static_cast<unsigned>(args.get_int("threads", 0));

  // Mostly-local digraph with positive weights (road-network flavor).
  SplitMix64 rng(0x5555);
  std::vector<index_t> src, dst;
  std::vector<real_t> w;
  for (index_t u = 0; u < n; ++u) {
    for (index_t k = 0; k < degree; ++k) {
      index_t v;
      if (rng.next_double() < 0.8) {
        const auto off = static_cast<index_t>(
            1 + rng.next_below(32));  // local link
        v = (u + off) % n;
      } else {
        v = static_cast<index_t>(rng.next_below(
            static_cast<std::uint64_t>(n)));  // shortcut
      }
      if (v == u) continue;
      src.push_back(u);
      dst.push_back(v);
      w.push_back(rng.next_double(0.5, 3.0));
    }
  }
  // Relaxation matrix is A^T: edge u->v stored at (v, u).
  const auto At = fmt::Coo::from_triplets(n, n, std::move(dst),
                                          std::move(src), std::move(w));
  // One engine for every relaxation: the chunk grid, panels and fix-up
  // scratch are built here, not per round.
  cpu::CpuSpmv eng(std::make_shared<const core::Bccoo>(core::Bccoo::build(At, {})),
                   threads);
  std::cout << "SSSP: " << n << " nodes, " << At.nnz() << " edges, source "
            << source << "\n";

  const real_t inf = std::numeric_limits<real_t>::infinity();
  std::vector<real_t> d(static_cast<std::size_t>(n), inf),
      nd(static_cast<std::size_t>(n));
  d[static_cast<std::size_t>(source)] = 0.0;

  Stopwatch sw;
  long rounds = 0;
  for (; rounds < n; ++rounds) {
    eng.spmv_semiring<cpu::MinPlus>(d, nd);
    bool changed = false;
    for (std::size_t i = 0; i < d.size(); ++i) {
      if (nd[i] < d[i]) {
        d[i] = nd[i];
        changed = true;
      }
    }
    if (!changed) break;
  }

  std::size_t reached = 0;
  double max_d = 0, sum_d = 0;
  for (double v : d) {
    if (!std::isinf(v)) {
      ++reached;
      sum_d += v;
      max_d = std::max(max_d, v);
    }
  }
  std::cout << "converged after " << (rounds + 1) << " relaxation rounds in "
            << sw.elapsed_ms() << " ms\n"
            << "reached " << reached << "/" << n
            << " nodes; eccentricity(source) = " << max_d
            << ", mean distance = "
            << (reached ? sum_d / static_cast<double>(reached) : 0.0) << "\n";
  return reached > static_cast<std::size_t>(n) / 2 ? 0 : 1;
}
