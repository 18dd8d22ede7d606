// Iterative-solver wall-clock benchmark: the fused pooled solver loops
// (cpu/vecops.hpp + zero-copy CpuSpmv apply) against the preserved
// pre-fusion reference loops (solver::serial) driving an operator that
// reproduces the pre-change apply's data movement (padded x copy, full
// result clear, separate combine), on generated SPD systems.
// Both sides run with tolerance 0 up to a fixed iteration cap, and every
// rate is normalized by the run's *actual* iteration count (an early
// BiCGStab breakdown on an already-converged system must not skew the
// comparison), so the measured quantity is iterations/second of the same
// numerical algorithm.
//
// Per matrix and solver the JSON (default BENCH_solver.json, --json=<path>,
// --json=- disables the file) records iterations/s serial vs fused, the
// speedup, the time split between the SpMV applies and the vector ops of
// the fused run, and an effective-bandwidth figure from the per-iteration
// bytes the loop touches (format traffic + the vector sweeps).
// --threads=1,2,4 runs every matrix once per thread count: the block above
// comes from the first count, and a per-matrix `thread_series` records the
// fused CG and BiCGStab iterations/s and their SpMV and vector seconds per
// iteration at each count.  The binary re-validates its own JSON and fails
// the run if it does not parse — the bench-smoke-solver CI test asserts
// exactly that.
#include "bench_common.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "yaspmv/cpu/spmv.hpp"
#include "yaspmv/solvers/solvers.hpp"
#include "yaspmv/util/json.hpp"

namespace {

using namespace yaspmv;

/// 5-point Poisson on an nx x ny grid: the canonical SPD solver workload
/// (the paper's intro names exactly this class of system).
fmt::Coo poisson2d(index_t nx, index_t ny) {
  std::vector<index_t> ri, ci;
  std::vector<real_t> v;
  const auto at = [&](index_t i, index_t j) { return i * ny + j; };
  for (index_t i = 0; i < nx; ++i) {
    for (index_t j = 0; j < ny; ++j) {
      const index_t r = at(i, j);
      ri.push_back(r), ci.push_back(r), v.push_back(4.0);
      if (i > 0) ri.push_back(r), ci.push_back(at(i - 1, j)), v.push_back(-1.0);
      if (i + 1 < nx)
        ri.push_back(r), ci.push_back(at(i + 1, j)), v.push_back(-1.0);
      if (j > 0) ri.push_back(r), ci.push_back(at(i, j - 1)), v.push_back(-1.0);
      if (j + 1 < ny)
        ri.push_back(r), ci.push_back(at(i, j + 1)), v.push_back(-1.0);
    }
  }
  return fmt::Coo::from_triplets(nx * ny, nx * ny, ri, ci, v);
}

using gen::make_spd;

/// CpuOperator wrapper that wall-clocks its applies, so a solve's time can
/// be split into SpMV vs vector ops.
class TimedOp {
 public:
  TimedOp(const fmt::Coo& a, unsigned threads) : op_(a, {}, threads) {}
  index_t rows() const { return op_.rows(); }
  index_t cols() const { return op_.cols(); }
  unsigned threads() const { return op_.threads(); }
  void apply(std::span<const real_t> x, std::span<real_t> y) {
    Stopwatch sw;
    op_.apply(x, y);
    spmv_seconds_ += sw.elapsed_seconds();
  }
  double take_spmv_seconds() {
    const double s = spmv_seconds_;
    spmv_seconds_ = 0.0;
    return s;
  }

 private:
  solver::CpuOperator op_;
  double spmv_seconds_ = 0.0;
};

/// The serial reference's operator: reproduces the pre-change apply's data
/// movement around the same kernel — the padded copy of x into scratch, the
/// unconditional full clear of the result buffer, and the separate combine
/// pass into y that CpuSpmv::spmv performed on every call before the
/// zero-copy apply — so the baseline measures the true pre-change
/// iteration cost.
class LegacyOp {
 public:
  LegacyOp(const fmt::Coo& a, unsigned threads)
      : op_(a, {}, threads),
        xp_(static_cast<std::size_t>(a.cols), 0.0),
        res_(static_cast<std::size_t>(a.rows), 0.0) {}
  index_t rows() const { return op_.rows(); }
  index_t cols() const { return op_.cols(); }
  unsigned threads() const { return op_.threads(); }
  void apply(std::span<const real_t> x, std::span<real_t> y) {
    std::copy(x.begin(), x.end(), xp_.begin());
    std::fill(res_.begin(), res_.end(), 0.0);
    op_.apply(xp_, res_);
    std::copy(res_.begin(), res_.end(), y.begin());
  }

 private:
  solver::CpuOperator op_;
  std::vector<real_t> xp_;
  std::vector<real_t> res_;
};

struct SolverRun {
  long iters_serial = 0;
  long iters_fused = 0;
  double seconds_serial = 0;
  double seconds_fused = 0;
  double spmv_seconds = 0;  ///< SpMV share of the fused run
  double gbps = 0;          ///< effective bandwidth of the fused run
  double sol_rel_diff = 0;  ///< fused vs serial solution agreement
  double ips_serial = 0;
  double ips_fused = 0;
  double speedup = 0;
};

double rel_diff(std::span<const real_t> a, std::span<const real_t> b) {
  double num = 0, den = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num = std::max(num, std::abs(a[i] - b[i]));
    den = std::max(den, std::abs(b[i]));
  }
  return den > 0 ? num / den : num;
}

/// JSON guard: the report must stay parseable even if a rate degenerates.
double fin(double v) { return std::isfinite(v) ? v : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  using namespace yaspmv;
  const Args args(argc, argv);
  std::vector<unsigned> thread_list;
  std::stringstream thread_arg(
      args.get("threads", std::to_string(default_workers())));
  for (std::string tok; std::getline(thread_arg, tok, ',');) {
    thread_list.push_back(static_cast<unsigned>(std::stoul(tok)));
  }
  require(!thread_list.empty(), "--threads needs at least one count");
  const unsigned threads = thread_list.front();
  const long iters = args.get_int("iters", 200);
  const double mult = args.get_double("scale", 1.0);
  const std::string only = args.get("matrix", "");
  const std::string json_path = args.get("json", "BENCH_solver.json");

  // The generated SPD suite.  Both solvers run on every matrix (BiCGStab is
  // simply pessimal on SPD systems — the measurement is iterations/s of a
  // fixed algorithm, not convergence).
  const auto dim = [&](index_t d) {
    return std::max<index_t>(8, static_cast<index_t>(
                                    static_cast<double>(d) * std::sqrt(mult)));
  };
  std::vector<bench::MatrixCase> cases;
  cases.push_back({"Poisson2D-64", poisson2d(dim(64), dim(64))});
  cases.push_back({"Poisson2D-128", poisson2d(dim(128), dim(128))});
  cases.push_back(
      {"FEM-SPD",
       make_spd(gen::fem_mesh(dim(96) * dim(96), 24, 3, 0.02, 0xfe31))});
  cases.push_back(
      {"Scatter-SPD",
       make_spd(gen::random_scattered(dim(80) * dim(80), dim(80) * dim(80), 8,
                                      0x5ca7))});
  if (!only.empty()) {
    std::erase_if(cases,
                  [&](const bench::MatrixCase& c) { return c.name != only; });
    require(!cases.empty(), "no matrix selected (check --matrix spelling)");
  }

  std::cout << "=== Iterative solvers: fused pooled loops vs serial "
               "reference (wall clock, "
            << threads << " thread(s), " << iters << " iteration cap, simd="
            << cpu::simd::to_string(cpu::simd::active()) << ") ===\n\n";
  TablePrinter t({"Name", "n", "NNZ", "CG ser it/s", "CG fus it/s", "CG x",
                  "BiCG ser it/s", "BiCG fus it/s", "BiCG x"});
  TablePrinter ts({"Name", "threads", "CG it/s", "CG spmv us/it",
                   "CG vec us/it", "BiCG it/s", "BiCG spmv us/it",
                   "BiCG vec us/it"});

  json::Writer w;
  w.begin_object();
  w.key("bench").value("solver");
  w.key("threads").value(threads);
  w.key("iters").value(static_cast<long long>(iters));
  w.key("scale").value(mult);
  w.key("simd").value(cpu::simd::to_string(cpu::simd::active()));
  w.key("matrices").begin_array();

  // Tolerance 0: no run stops on convergence (an exact zero residual still
  // can), every measured iteration does identical work.
  solver::SolveOptions opt;
  opt.tolerance = 0.0;
  opt.max_iterations = iters;

  double log_speedup_cg = 0.0, log_speedup_bicg = 0.0;
  std::size_t n_cases = 0;

  for (const auto& [name, A] : cases) {
    const auto n = static_cast<std::size_t>(A.rows);
    const auto b = bench::random_x(A.rows);
    std::vector<real_t> x_serial(n, 0.0), x_fused(n, 0.0);

    // Per-iteration vector-element traffic of the fused loops (doubles
    // read+written by the dot / fused-update / direction sweeps), used for
    // the effective-bandwidth figure: CG touches ~11n, BiCGStab ~19n.
    const auto fmt_built = core::Bccoo::build(A, {}, threads);
    const double spmv_bytes =
        static_cast<double>(fmt_built.traffic_bytes(core::ColStream::kAuto)) +
        16.0 * static_cast<double>(n);  // + x read + y write

    const auto run_solver = [&](TimedOp& op, auto&& serial_fn,
                                auto&& fused_fn, double spmvs_per_iter,
                                double vec_elems) {
      SolverRun out;
      std::fill(x_serial.begin(), x_serial.end(), 0.0);
      std::fill(x_fused.begin(), x_fused.end(), 0.0);
      serial_fn();  // warm-up (pool, caches); result discarded
      std::fill(x_serial.begin(), x_serial.end(), 0.0);
      op.take_spmv_seconds();
      {
        Stopwatch sw;
        out.iters_serial = serial_fn().iterations;
        out.seconds_serial = sw.elapsed_seconds();
      }
      op.take_spmv_seconds();
      {
        Stopwatch sw;
        out.iters_fused = fused_fn().iterations;
        out.seconds_fused = sw.elapsed_seconds();
      }
      out.spmv_seconds = op.take_spmv_seconds();
      out.ips_serial =
          out.seconds_serial > 0
              ? static_cast<double>(out.iters_serial) / out.seconds_serial
              : 0.0;
      out.ips_fused =
          out.seconds_fused > 0
              ? static_cast<double>(out.iters_fused) / out.seconds_fused
              : 0.0;
      out.speedup = out.ips_serial > 0 ? out.ips_fused / out.ips_serial : 0.0;
      const double bytes_per_iter =
          spmvs_per_iter * spmv_bytes + vec_elems * 8.0;
      out.gbps = out.seconds_fused > 0
                     ? bytes_per_iter * static_cast<double>(out.iters_fused) /
                           out.seconds_fused / 1e9
                     : 0.0;
      out.sol_rel_diff = fin(rel_diff(x_fused, x_serial));
      return out;
    };

    // One (CG, BiCGStab) pair of runs per requested thread count.
    std::vector<std::pair<SolverRun, SolverRun>> points;
    for (const unsigned nt : thread_list) {
      TimedOp op(A, nt);
      LegacyOp legacy(A, nt);
      const SolverRun cg_point = run_solver(
          op, [&] { return solver::serial::cg(legacy, b, x_serial, opt); },
          [&] { return solver::cg(op, b, x_fused, opt); }, 1.0,
          11.0 * static_cast<double>(n));
      const SolverRun bicg_point = run_solver(
          op,
          [&] { return solver::serial::bicgstab(legacy, b, x_serial, opt); },
          [&] { return solver::bicgstab(op, b, x_fused, opt); }, 2.0,
          19.0 * static_cast<double>(n));
      points.emplace_back(cg_point, bicg_point);
    }
    const auto& [cg_run, bicg_run] = points.front();

    log_speedup_cg += std::log(std::max(cg_run.speedup, 1e-12));
    log_speedup_bicg += std::log(std::max(bicg_run.speedup, 1e-12));
    n_cases++;

    t.add_row({name, std::to_string(A.rows), std::to_string(A.nnz()),
               TablePrinter::fmt(cg_run.ips_serial, 0),
               TablePrinter::fmt(cg_run.ips_fused, 0),
               TablePrinter::fmt(cg_run.speedup, 2),
               TablePrinter::fmt(bicg_run.ips_serial, 0),
               TablePrinter::fmt(bicg_run.ips_fused, 0),
               TablePrinter::fmt(bicg_run.speedup, 2)});

    const auto solver_obj = [&](const char* key, const SolverRun& r) {
      w.key(key).begin_object();
      w.key("iters_serial").value(static_cast<long long>(r.iters_serial));
      w.key("iters_fused").value(static_cast<long long>(r.iters_fused));
      w.key("seconds_serial").value(fin(r.seconds_serial));
      w.key("seconds_fused").value(fin(r.seconds_fused));
      w.key("iters_per_s_serial").value(fin(r.ips_serial));
      w.key("iters_per_s_fused").value(fin(r.ips_fused));
      w.key("speedup").value(fin(r.speedup));
      w.key("spmv_seconds").value(fin(r.spmv_seconds));
      w.key("vec_seconds")
          .value(fin(std::max(0.0, r.seconds_fused - r.spmv_seconds)));
      w.key("gbps").value(fin(r.gbps));
      w.key("solution_rel_diff").value(r.sol_rel_diff);
      w.end_object();
    };
    w.begin_object();
    w.key("name").value(name);
    w.key("rows").value(static_cast<long long>(A.rows));
    w.key("nnz").value(static_cast<unsigned long long>(A.nnz()));
    w.key("solvers").begin_object();
    solver_obj("cg", cg_run);
    solver_obj("bicgstab", bicg_run);
    w.end_object();
    // Per-iteration figures of the fused run at each thread count.
    const auto per_iter = [](const SolverRun& r, double s) {
      return r.iters_fused > 0 ? fin(s / static_cast<double>(r.iters_fused))
                               : 0.0;
    };
    const auto series = [&](const char* key, bool cg) {
      const auto arr = [&](const char* k, auto&& f) {
        w.key(k).begin_array();
        for (const auto& pt : points) w.value(f(cg ? pt.first : pt.second));
        w.end_array();
      };
      w.key(key).begin_object();
      arr("iters_per_s", [&](const SolverRun& r) { return fin(r.ips_fused); });
      arr("spmv_s_per_iter",
          [&](const SolverRun& r) { return per_iter(r, r.spmv_seconds); });
      arr("vec_s_per_iter", [&](const SolverRun& r) {
        return per_iter(r, std::max(0.0, r.seconds_fused - r.spmv_seconds));
      });
      w.end_object();
    };
    w.key("thread_series").begin_object();
    w.key("threads").begin_array();
    for (const unsigned nt : thread_list) w.value(nt);
    w.end_array();
    series("cg", true);
    series("bicgstab", false);
    w.end_object();
    w.end_object();
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& [c, bi] = points[i];
      const auto us = [&](const SolverRun& r, double s) {
        return TablePrinter::fmt(1e6 * per_iter(r, s), 1);
      };
      ts.add_row({name, std::to_string(thread_list[i]),
                  TablePrinter::fmt(c.ips_fused, 0), us(c, c.spmv_seconds),
                  us(c, std::max(0.0, c.seconds_fused - c.spmv_seconds)),
                  TablePrinter::fmt(bi.ips_fused, 0), us(bi, bi.spmv_seconds),
                  us(bi, std::max(0.0, bi.seconds_fused - bi.spmv_seconds))});
    }
  }
  w.end_array();
  const double geo_cg =
      n_cases > 0 ? std::exp(log_speedup_cg / static_cast<double>(n_cases))
                  : 0.0;
  const double geo_bicg =
      n_cases > 0 ? std::exp(log_speedup_bicg / static_cast<double>(n_cases))
                  : 0.0;
  w.key("geomean_cg_speedup").value(fin(geo_cg));
  w.key("geomean_bicgstab_speedup").value(fin(geo_bicg));
  w.end_object();

  t.print();
  std::cout << "\nFused loops per thread count:\n";
  ts.print();
  std::cout << "\n(tolerance-0 runs capped at " << iters
            << " iterations; 'x' = fused/serial iterations-per-second "
               "ratio)\n"
            << "geomean speedup: CG " << TablePrinter::fmt(geo_cg, 2)
            << "x, BiCGStab " << TablePrinter::fmt(geo_bicg, 2) << "x\n";

  const std::string report = w.take();
  if (!json::valid(report)) {
    std::cerr << "bench_solver: generated JSON failed validation\n";
    return 1;
  }
  if (json_path != "-") {
    std::ofstream out(json_path);
    out << report << "\n";
    if (!out) {
      std::cerr << "bench_solver: cannot write " << json_path << "\n";
      return 1;
    }
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
