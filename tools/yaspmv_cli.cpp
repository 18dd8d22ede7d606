// yaspmv_cli — command-line front end for the library.
//
//   yaspmv_cli gen     --matrix=Protein [--scale=0.5] --out=m.mtx
//   yaspmv_cli info    --mtx=m.mtx | --matrix=Protein
//   yaspmv_cli tune    --mtx=m.mtx [--device=gtx680] [--exhaustive]
//                      [--extended]
//   yaspmv_cli convert --mtx=m.mtx --out=m.bccoo [--bw=1 --bh=1 --slices=1]
//   yaspmv_cli spmv    --format=m.bccoo [--threads=N] [--reps=10]
//                      [--out=y.txt]
//   yaspmv_cli solve   --mtx=m.mtx [--solver=cg] [--threads=N] [--tol=1e-10]
#include <fstream>
#include <iostream>
#include <span>

#include "yaspmv/codegen/opencl.hpp"
#include "yaspmv/core/engine.hpp"
#include "yaspmv/core/resilient.hpp"
#include "yaspmv/cpu/spmv.hpp"
#include "yaspmv/cpu/stream_spmv.hpp"
#include "yaspmv/formats/csr.hpp"
#include "yaspmv/formats/dia.hpp"
#include "yaspmv/formats/ell.hpp"
#include "yaspmv/gen/suite.hpp"
#include "yaspmv/io/binary.hpp"
#include "yaspmv/io/journal_io.hpp"
#include "yaspmv/io/matrix_market.hpp"
#include "yaspmv/sim/replay.hpp"
#include "yaspmv/solvers/solvers.hpp"
#include "yaspmv/tune/tuner.hpp"
#include "yaspmv/util/args.hpp"
#include "yaspmv/util/rng.hpp"
#include "yaspmv/util/stopwatch.hpp"

namespace {

using namespace yaspmv;

int usage() {
  std::cerr <<
      "usage: yaspmv_cli <gen|info|tune|convert|spmv|solve> [options]\n"
      "  gen     --matrix=<Table2 name> [--scale=f] --out=<file.mtx>\n"
      "  info    --mtx=<file.mtx> | --matrix=<name> [--scale=f]\n"
      "  tune    --mtx=<file.mtx> | --matrix=<name> [--device=gtx680|gtx480]\n"
      "          [--exhaustive] [--extended] [--tune-workers=N]  (N concurrent\n"
      "          candidate evaluations; 0 = hardware concurrency, 1 = serial;\n"
      "          the result is identical for any N)\n"
      "          [--native [--native-threads=N]]  re-time the top candidates\n"
      "          on the native CPU backend and re-rank by measured GFLOPS\n"
      "          [--rank-threads=N]  rank candidates at the N-thread modeled\n"
      "          time (launch/fix-up overhead scales with N; default 1)\n"
      "          [--verbose]  per-candidate build vs. kernel time breakdown\n"
      "  convert --mtx=<file.mtx> --out=<file.bccoo> [--bw=N --bh=N"
      " --slices=N]\n"
      "  spmv    --format=<file.bccoo> [--threads=N] [--reps=N]"
      " [--out=<y.txt>]\n"
      "          [--cols=auto|raw|short|delta]  column stream for the native\n"
      "          kernel; [--no-delta-decode] = --cols=raw escape hatch\n"
      "          [--stream-file=<file.bccoo>]  out-of-core mode: mmap the\n"
      "          container and stream the apply tile by tile (nothing\n"
      "          matrix-sized resident; bitwise equal to the in-memory\n"
      "          reference apply)\n"
      "          [--kernel=auto|generic]  auto dispatches an exact\n"
      "          (bw, bh, stream) match to its specialized grid kernel\n"
      "          (bitwise identical to generic); generic pins the fallback\n"
      "          [--verify]  exhaustive residual + ABFT checksum check per\n"
      "          attempt (detected corruption raises kIntegrityFault and\n"
      "          recovers down the ladder)\n"
      "          [--inject=<fault>[:wg=N]]   (fault: drop_publish,\n"
      "          stall_publish, corrupt_publish, corrupt_cache, fail_main,\n"
      "          fail_carry, fail_combine; runs the resilient engine)\n"
      "          [--record=<file.journal>]  capture the interleaving (failed\n"
      "          attempts dump to <file>.<pid>.<seq>; a clean run to <file>)\n"
      "          [--replay=<file.journal> [--dump] [--minimize]]  re-execute a\n"
      "          recorded schedule deterministically; --minimize delta-debugs\n"
      "          it to <file>.min\n"
      "  solve   --mtx=<file.mtx> | --matrix=<name> [--scale=f]\n"
      "          [--solver=cg|bicgstab|power] [--threads=N] [--tol=1e-10]\n"
      "          [--max-iters=N] [--cols=auto|raw|short|delta] [--spd]\n"
      "          [--out=<x.txt>]\n"
      "          solves A x = b on the fused native pipeline (b = A x* for a\n"
      "          seeded x*, so the solution error is known exactly); --spd\n"
      "          symmetrizes + diagonally dominates the input first (cg\n"
      "          requires it on the generated suite patterns)\n"
      "  codegen --mtx=<file.mtx> | --matrix=<name>"
      " [--device=gtx680|gtx480] [--cuda] --out-dir=<dir>\n";
  return 2;
}

fmt::Coo load_input(const Args& args) {
  if (args.has("mtx")) return io::read_matrix_market_file(args.get("mtx"));
  const auto& e = gen::suite_entry(args.get("matrix", "Protein"));
  return e.make(e.bench_scale * args.get_double("scale", 0.5));
}

int cmd_gen(const Args& args) {
  const auto A = load_input(args);
  const std::string out = args.get("out");
  require(!out.empty(), "gen: --out is required");
  io::write_matrix_market_file(out, A);
  std::cout << "wrote " << A.rows << "x" << A.cols << " (" << A.nnz()
            << " nnz) to " << out << "\n";
  return 0;
}

int cmd_info(const Args& args) {
  const auto A = load_input(args);
  const auto csr = fmt::Csr::from_coo(A);
  std::cout << A.rows << " x " << A.cols << ", " << A.nnz()
            << " non-zeros\n"
            << "nnz/row: mean "
            << (A.rows ? static_cast<double>(A.nnz()) /
                             static_cast<double>(A.rows)
                       : 0)
            << ", max " << csr.max_row_len() << "\n"
            << "occupied diagonals: " << fmt::Dia::count_diagonals(csr)
            << "\nELL padding ratio: " << fmt::Ell::padding_ratio(csr)
            << "\nCOO footprint: " << A.footprint_bytes() << " bytes\n";
  const auto m = core::Bccoo::build(A, {});
  std::cout << "BCCOO(1x1) footprint: "
            << m.footprint_bytes(m.block_cols <= 65535) << " bytes\n";
  return 0;
}

int cmd_tune(const Args& args) {
  const auto A = load_input(args);
  const auto dev =
      args.get("device", "gtx680") == "gtx480" ? sim::gtx480() : sim::gtx680();
  tune::TuneOptions opt;
  opt.exhaustive = args.has("exhaustive");
  opt.extended_blocks = args.has("extended");
  opt.tune_workers = static_cast<unsigned>(args.get_int("tune-workers", 0));
  opt.measure_native = args.has("native");
  opt.native_threads = static_cast<unsigned>(args.get_int("native-threads", 1));
  opt.rank_threads = static_cast<unsigned>(args.get_int("rank-threads", 1));
  const auto r = tune::tune(A, dev, opt);
  std::cout << "tuned in " << r.tuning_seconds << " s (" << r.evaluated
            << " configs, " << r.skipped << " skipped; " << r.formats_built
            << " formats built in " << r.format_build_seconds << " s)\n";
  if (!r.skipped_configs.empty()) {
    std::cout << "skipped (first " << r.skipped_configs.size() << "):\n";
    for (const auto& s : r.skipped_configs) std::cout << "  " << s << "\n";
  }
  if (args.has("verbose")) {
    // Per-candidate cost attribution: with the prebuilt format cache the
    // build column shows what the parallel builder saved the sweep.
    std::cout << "top candidates (build s / eval s / modeled GFLOPS"
              << (r.native_measured ? " / measured GFLOPS / bytes" : "")
              << "):\n";
    for (const auto& c : r.top) {
      std::cout << "  " << c.format.to_string() << " | "
                << c.exec.to_string() << ": " << c.build_seconds << " / "
                << c.eval_seconds << " / " << c.gflops;
      if (r.native_measured) {
        std::cout << " / " << c.measured_gflops << " / " << c.measured_bytes;
      }
      std::cout << "\n";
    }
  }
  std::cout << "best: " << r.best.format.to_string() << " | "
            << r.best.exec.to_string() << "\n"
            << "modeled " << r.best.gflops << " GFLOPS on " << dev.name
            << ", footprint " << r.best.footprint << " bytes, kernel "
            << r.best.kernel << "\n";
  if (r.native_measured) {
    std::cout << "best (native measured): "
              << r.best_native.format.to_string() << " | "
              << r.best_native.exec.to_string() << "\nmeasured "
              << r.best_native.measured_gflops << " GFLOPS, "
              << r.best_native.measured_bytes << " bytes/SpMV (modeled "
              << r.best_native.footprint << "), kernel "
              << r.best_native.kernel << "\n";
  }
  return 0;
}

int cmd_convert(const Args& args) {
  const auto A = load_input(args);
  const std::string out = args.get("out");
  require(!out.empty(), "convert: --out is required");
  core::FormatConfig fc;
  fc.block_w = static_cast<index_t>(args.get_int("bw", 1));
  fc.block_h = static_cast<index_t>(args.get_int("bh", 1));
  fc.slices = static_cast<index_t>(args.get_int("slices", 1));
  Stopwatch sw;
  const auto m = core::Bccoo::build(A, fc);
  io::save_bccoo_file(out, m);
  std::cout << "built " << fc.to_string() << " in " << sw.elapsed_ms()
            << " ms: " << m.num_blocks << " blocks, "
            << m.footprint_bytes(m.block_cols <= 65535)
            << " bytes (COO: " << A.footprint_bytes() << ")\nwrote " << out
            << "\n";
  return 0;
}

/// Parses the shared "--cols=auto|raw|short|delta" flag (with the
/// "--no-delta-decode" escape hatch) used by `spmv` and `solve`.
core::ColStream parse_cols(const Args& args) {
  if (args.has("no-delta-decode")) {
    return core::ColStream::kRaw;  // escape hatch: plain 4-byte columns
  }
  core::ColStream cs = core::ColStream::kAuto;
  if (args.has("cols")) {
    const std::string s = args.get("cols");
    if (s == "raw") cs = core::ColStream::kRaw;
    else if (s == "short") cs = core::ColStream::kShort;
    else if (s == "delta") cs = core::ColStream::kDelta;
    else require(s == "auto", "unknown --cols value: " + s);
  }
  return cs;
}

/// Parses "--inject=<fault>[:wg=N]" into a FaultPlan.
sim::FaultPlan parse_fault(const std::string& spec) {
  std::string name = spec;
  int wg = 0;
  if (const auto colon = spec.find(':'); colon != std::string::npos) {
    name = spec.substr(0, colon);
    const std::string rest = spec.substr(colon + 1);
    require(rest.rfind("wg=", 0) == 0, "spmv: bad --inject suffix: " + rest);
    const std::string num = rest.substr(3);
    require(!num.empty() && num.find_first_not_of("0123456789") ==
                                std::string::npos,
            "spmv: --inject workgroup must be a number, got: " + num);
    wg = std::stoi(num);
  }
  sim::FaultPlan plan;
  plan.target_wg = wg;
  if (name == "drop_publish") {
    plan.type = sim::FaultType::kDropPublish;
  } else if (name == "stall_publish") {
    plan.type = sim::FaultType::kStallPublish;
  } else if (name == "corrupt_publish") {
    plan.type = sim::FaultType::kCorruptPublish;
  } else if (name == "corrupt_cache") {
    plan.type = sim::FaultType::kCorruptCache;
  } else if (name == "fail_main") {
    plan.type = sim::FaultType::kFailLaunch;
    plan.launch = sim::LaunchKind::kMain;
  } else if (name == "fail_carry") {
    plan.type = sim::FaultType::kFailLaunch;
    plan.launch = sim::LaunchKind::kCarry;
  } else if (name == "fail_combine") {
    plan.type = sim::FaultType::kFailLaunch;
    plan.launch = sim::LaunchKind::kCombine;
  } else {
    require(false, "spmv: unknown fault: " + name);
  }
  return plan;
}

/// Resilient path for `spmv --verify` / `spmv --inject=...`: run through the
/// degradation ladder and report what failed and where recovery landed.
int cmd_spmv_resilient(const Args& args, const core::Bccoo& m) {
  const auto A = m.to_coo();
  core::ExecConfig ec;
  ec.workers = static_cast<unsigned>(args.get_int("threads", 1));
  core::ResilientOptions opt;
  opt.verify = args.has("verify");
  // --verify also arms the ABFT checksum check: sum(y) against the
  // format's column checksums, which catches silent value/column/partial
  // corruption the sampled residual can miss between samples.
  opt.verify_checksum = args.has("verify");
  // Exhaustive residual check: sampling can miss a single corrupted row,
  // and at CLI scale one extra CPU SpMV is free.
  opt.sample_rows = A.rows;
  opt.journal_prefix = args.get("record");
  core::ResilientEngine eng(A, m.cfg, ec, sim::gtx680(), opt);

  sim::FaultInjector inj;
  if (args.has("inject")) {
    inj.arm(parse_fault(args.get("inject")));
    inj.spin_budget_override = 10000;  // detect stalls fast
    eng.set_fault_injector(&inj);
    std::cout << "injecting: " << sim::to_string(inj.plan().type) << " (wg "
              << inj.plan().target_wg << ")\n";
  }

  SplitMix64 rng(0x5eed);
  std::vector<real_t> x(static_cast<std::size_t>(A.cols));
  for (auto& v : x) v = rng.next_double(-1, 1);
  std::vector<real_t> y(static_cast<std::size_t>(A.rows));
  const auto r = eng.run(x, y);

  for (const auto& f : r.faults) {
    std::cout << "fault: [" << to_string(f.status) << "] at " << f.path
              << "\n       " << f.detail << "\n";
    if (!f.journal_file.empty()) {
      std::cout << "       journal: " << f.journal_file << "\n";
    }
  }
  if (args.has("record") && r.faults.empty()) {
    // Nothing failed: record the healthy interleaving instead.
    io::save_journal_file(args.get("record"), eng.capture_last_run());
    std::cout << "journal (clean run): " << args.get("record") << "\n";
  }
  std::cout << "path: " << r.path << " (ladder step " << r.ladder_step
            << ")\nattempts: " << r.attempts << " (" << r.retries()
            << " retries), recovered: " << (r.recovered ? "yes" : "no")
            << ", verified: " << (r.verified ? "yes" : "no") << "\n";
  if (args.has("inject")) {
    std::cout << "fault sites hit: " << inj.fired() << "\n";
  }
  if (args.has("out")) {
    std::ofstream f(args.get("out"));
    f.precision(17);
    for (real_t v : y) f << v << "\n";
    std::cout << "wrote y to " << args.get("out") << "\n";
  }
  return 0;
}

/// One deterministic re-execution of a recorded schedule.
struct ReplayOutcome {
  bool failed = false;
  Status status = Status::kOk;
  std::string what;
  std::int32_t failing_wg = -1;  ///< first wait-timeout's workgroup, or -1
};

/// Replays `sched` against a fresh engine with the journal's fault plan
/// re-armed.  `x`/`y` follow the CLI's seeded-vector convention, so a
/// successful replay reproduces the recorded run's y bit for bit.
ReplayOutcome replay_once(const std::shared_ptr<const core::Bccoo>& m,
                          const core::ExecConfig& ec,
                          const sim::RecordedRun& base,
                          const sim::Schedule& sched,
                          std::span<const real_t> x, std::span<real_t> y) {
  sim::FaultInjector inj;
  inj.spin_budget_override = base.spin_budget_override;
  if (base.fault.type != sim::FaultType::kNone) inj.arm(base.fault);
  sim::FlightRecorder rec;
  sim::ReplayCoordinator coord(sched);
  rec.set_coordinator(&coord);

  core::SpmvEngine eng(m, ec, sim::gtx680());
  eng.set_fault_injector(base.fault.type != sim::FaultType::kNone ||
                                 base.spin_budget_override != 0
                             ? &inj
                             : nullptr);
  eng.set_recorder(&rec);

  ReplayOutcome out;
  try {
    eng.run(x, y);
  } catch (const SpmvError& e) {
    out.failed = true;
    out.status = e.code();
    out.what = e.what();
  }
  out.failing_wg = sim::first_timeout_event(rec.journal().snapshot()).wg;
  return out;
}

/// `spmv --replay=<file.journal>`: re-execute a recorded interleaving; with
/// --minimize, delta-debug it down to a smaller schedule that still fails.
int cmd_spmv_replay(const Args& args,
                    const std::shared_ptr<const core::Bccoo>& m) {
  const std::string path = args.get("replay");
  const sim::RecordedRun base = io::load_journal_file(path);
  if (args.has("dump")) std::cout << io::format_journal(base);

  core::ExecConfig ec;
  ec.workers = static_cast<unsigned>(args.get_int("threads", 1));
  SplitMix64 rng(0x5eed);
  std::vector<real_t> x(static_cast<std::size_t>(m->cols));
  for (auto& v : x) v = rng.next_double(-1, 1);
  std::vector<real_t> y(static_cast<std::size_t>(m->rows));

  const sim::Schedule sched = sim::schedule_from_journal(base);
  require(!sched.steps.empty(),
          "replay: journal holds no main-kernel schedule events");
  const ReplayOutcome ref = replay_once(m, ec, base, sched, x, y);
  if (ref.failed) {
    std::cout << "replayed " << sched.steps.size() << " steps: ["
              << to_string(ref.status) << "] " << ref.what << "\n";
  } else {
    std::cout << "replayed " << sched.steps.size()
              << " steps: run completed cleanly\n";
  }

  if (!args.has("minimize")) return ref.failed ? 3 : 0;
  require(ref.failed, "minimize: the recorded schedule does not fail");

  // The failure reproduces when the class matches and (for sync timeouts)
  // the same workgroup times out.
  sim::MinimizeStats st;
  const auto oracle = [&](const sim::Schedule& cand) {
    const ReplayOutcome o = replay_once(m, ec, base, cand, x, y);
    return o.failed && o.status == ref.status &&
           (ref.failing_wg < 0 || o.failing_wg == ref.failing_wg);
  };
  const sim::Schedule min = sim::minimize_schedule(sched, oracle, &st);
  const std::string out_path = path + ".min";
  io::save_journal_file(
      out_path, sim::recorded_run_from_schedule(min, base.fault,
                                                base.spin_budget_override));
  std::cout << "minimized: " << sched.steps.size() << " -> "
            << min.steps.size() << " steps (" << st.candidates
            << " candidates, " << st.accepted << " accepted)\nwrote "
            << out_path << "\n";
  return 3;
}

/// `spmv --stream-file=...`: out-of-core apply off the mapped container.
int cmd_spmv_stream(const Args& args) {
  const std::string in = args.get("stream-file");
  auto mapped = std::make_shared<const io::MappedBccoo>(in);
  cpu::CpuStreamSpmv eng(mapped);
  const long reps = args.get_int("reps", 10);
  SplitMix64 rng(0x5eed);
  std::vector<real_t> x(static_cast<std::size_t>(eng.cols()));
  for (auto& v : x) v = rng.next_double(-1, 1);
  std::vector<real_t> y(static_cast<std::size_t>(eng.rows()));
  eng.spmv(x, y);  // warm up (page cache state is whatever the OS has)
  Stopwatch sw;
  for (long r = 0; r < reps; ++r) eng.spmv(x, y);
  const double ms = sw.elapsed_ms() / static_cast<double>(reps);
  const double gbs =
      static_cast<double>(eng.streamed_bytes()) / (ms * 1e-3) / 1e9;
  std::cout << eng.rows() << " x " << eng.cols() << ": " << ms
            << " ms/SpMV streamed from " << in << ", "
            << eng.streamed_bytes() << " bytes/SpMV (" << gbs << " GB/s)\n";
  if (args.has("out")) {
    std::ofstream f(args.get("out"));
    f.precision(17);
    for (real_t v : y) f << v << "\n";
    std::cout << "wrote y to " << args.get("out") << "\n";
  }
  return 0;
}

int cmd_spmv(const Args& args) {
  if (args.has("stream-file")) return cmd_spmv_stream(args);
  const std::string in = args.get("format");
  require(!in.empty(), "spmv: --format is required");
  auto m = std::make_shared<const core::Bccoo>(io::load_bccoo_file(in));
  if (args.has("replay")) {
    return cmd_spmv_replay(args, m);
  }
  if (args.has("inject") || args.has("verify") || args.has("record")) {
    return cmd_spmv_resilient(args, *m);
  }
  const auto threads =
      static_cast<unsigned>(args.get_int("threads", 0));
  const long reps = args.get_int("reps", 10);
  const core::ColStream cs = parse_cols(args);
  const std::string kdreq = args.get("kernel", "auto");
  require(kdreq == "auto" || kdreq == "generic",
          "spmv: --kernel must be auto or generic");
  const auto kd = kdreq == "generic" ? cpu::grid::KernelDispatch::kGeneric
                                     : cpu::grid::KernelDispatch::kAuto;
  cpu::CpuSpmv eng(m, threads, cs, kd);
  SplitMix64 rng(0x5eed);
  std::vector<real_t> x(static_cast<std::size_t>(m->cols));
  for (auto& v : x) v = rng.next_double(-1, 1);
  std::vector<real_t> y(static_cast<std::size_t>(m->rows));
  eng.spmv(x, y);  // warm up
  Stopwatch sw;
  for (long r = 0; r < reps; ++r) eng.spmv(x, y);
  const double ms = sw.elapsed_ms() / static_cast<double>(reps);
  const double gbs = static_cast<double>(m->traffic_bytes(eng.col_stream())) /
                     (ms * 1e-3) / 1e9;
  std::cout << m->rows << " x " << m->cols << ": " << ms << " ms/SpMV on "
            << eng.threads() << " thread(s), cols="
            << core::to_string(eng.col_stream()) << ", kernel="
            << eng.kernel_id() << ", "
            << m->traffic_bytes(eng.col_stream()) << " bytes/SpMV (" << gbs
            << " GB/s)\n";
  if (args.has("out")) {
    std::ofstream f(args.get("out"));
    f.precision(17);
    for (real_t v : y) f << v << "\n";
    std::cout << "wrote y to " << args.get("out") << "\n";
  }
  return 0;
}

/// `solve`: run an iterative solver on the fused native pipeline.  The
/// right-hand side is manufactured as b = A x* for a seeded x*, so the
/// reported solution error is exact rather than a residual proxy.
int cmd_solve(const Args& args) {
  // --spd symmetrizes + diagonally dominates the input, so cg can run on
  // any generated suite pattern (none of which are SPD as generated).
  const auto A =
      args.has("spd") ? gen::make_spd(load_input(args)) : load_input(args);
  require(A.rows == A.cols, "solve: matrix must be square");
  const auto threads = static_cast<unsigned>(args.get_int("threads", 0));
  const core::ColStream cs = parse_cols(args);
  const std::string which = args.get("solver", "cg");

  Stopwatch build_sw;
  solver::CpuOperator op(A, {}, threads, cs);
  const double build_ms = build_sw.elapsed_ms();
  const auto n = static_cast<std::size_t>(A.rows);

  SplitMix64 rng(0x5eed);
  std::vector<real_t> xs(n);
  for (auto& v : xs) v = rng.next_double(-1, 1);

  solver::SolveOptions opt;
  opt.tolerance = args.get_double("tol", 1e-10);
  opt.max_iterations = args.get_int("max-iters", 10000);
  opt.threads = threads;

  std::vector<real_t> x(n, 0.0);
  std::cout << A.rows << " x " << A.cols << " (" << A.nnz() << " nnz), "
            << which << " on " << op.threads() << " thread(s), cols="
            << core::to_string(op.col_stream()) << " (built in " << build_ms
            << " ms)\n";
  if (which == "power") {
    // Eigen mode: xs doubles as the (non-zero) start vector; no rhs.
    x = xs;
    Stopwatch sw;
    const auto rep = solver::power_iteration(op, x, opt.tolerance,
                                             opt.max_iterations, threads);
    const double s = sw.elapsed_seconds();
    std::cout << (rep.converged ? "converged" : "NOT converged") << " in "
              << rep.iterations << " iterations, " << s * 1e3 << " ms ("
              << static_cast<double>(rep.iterations) / s
              << " iters/s)\ndominant eigenvalue: " << rep.eigenvalue << "\n";
  } else {
    std::vector<real_t> b(n);
    op.apply(xs, b);
    solver::SolveReport rep;
    Stopwatch sw;
    if (which == "cg") {
      rep = solver::cg(op, b, x, opt);
    } else if (which == "bicgstab") {
      rep = solver::bicgstab(op, b, x, opt);
    } else {
      require(false, "solve: unknown --solver value: " + which);
    }
    const double s = sw.elapsed_seconds();
    double err = 0, ref = 0;
    bool finite = true;
    for (std::size_t i = 0; i < n; ++i) {
      finite = finite && std::isfinite(x[i]);
      err = std::max(err, std::abs(x[i] - xs[i]));
      ref = std::max(ref, std::abs(xs[i]));
    }
    std::cout << (rep.converged ? "converged" : "NOT converged") << " in "
              << rep.iterations << " iterations, " << s * 1e3 << " ms ("
              << static_cast<double>(rep.iterations) / s
              << " iters/s)\nrelative residual: " << rep.relative_residual
              << ", max error vs known x*: ";
    if (finite) {
      std::cout << (ref > 0 ? err / ref : err) << "\n";
    } else {
      std::cout << "non-finite (solver diverged; cg needs an SPD matrix)\n";
    }
  }
  if (args.has("out")) {
    std::ofstream f(args.get("out"));
    f.precision(17);
    for (real_t v : x) f << v << "\n";
    std::cout << "wrote x to " << args.get("out") << "\n";
  }
  return 0;
}

int cmd_codegen(const Args& args) {
  const auto A = load_input(args);
  const auto dev =
      args.get("device", "gtx680") == "gtx480" ? sim::gtx480() : sim::gtx680();
  const std::string dir = args.get("out-dir", ".");
  const auto r = tune::tune(A, dev);
  const bool cuda = args.has("cuda");
  const auto kernels =
      cuda ? codegen::generate_cuda(r.best.format, r.best.exec, dev)
           : codegen::generate_opencl(r.best.format, r.best.exec, dev);
  std::cout << "tuned: " << r.best.format.to_string() << " | "
            << r.best.exec.to_string() << "\n"
            << "cache key: "
            << codegen::cache_key(r.best.format, r.best.exec) << "\n";
  for (const auto& k : kernels) {
    const std::string path = dir + "/" + k.name + (cuda ? ".cu" : ".cl");
    std::ofstream f(path);
    require(static_cast<bool>(f), "codegen: cannot open " + path);
    f << k.source;
    std::cout << "wrote " << path << " (" << k.source.size() << " bytes)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Args args(argc - 1, argv + 1);
  try {
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "info") return cmd_info(args);
    if (cmd == "tune") return cmd_tune(args);
    if (cmd == "convert") return cmd_convert(args);
    if (cmd == "spmv") return cmd_spmv(args);
    if (cmd == "solve") return cmd_solve(args);
    if (cmd == "codegen") return cmd_codegen(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
