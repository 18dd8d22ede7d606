// Native CPU wall-clock benchmark: the BCCOO segmented-sum SpMV running on
// real threads vs parallel CSR, over a suite subset.  This is *measured*
// host time (not the device model).  Note the paper's argument is about
// GPU bandwidth/balance; on a cache-based CPU the CSR row loop is already
// well matched to the hardware, so BCCOO is not expected to dominate here —
// the bench documents the native backend's real cost honestly.
//
// Besides the human-readable table, the run is written as machine-readable
// JSON (default BENCH_cpu.json, override with --json=<path>; --json=-
// disables the file) covering, per matrix: CSR-parallel, BCCOO scalar
// (1x1), BCCOO blocked, and fused SpMM GFLOPS, plus auto-tuning seconds
// with the serial and the pooled candidate sweep (--tune=0 skips tuning).
// The scalar BCCOO kernel is additionally timed on each materialized column
// stream (raw 4-byte / u16 short / int16 delta), with bytes-moved, GB/s and
// the modeled-vs-measured byte comparison per stream (--no-delta-decode
// skips the compressed runs).  A single-thread ABFT series times the
// checksum-verified apply against the raw apply on the same engine and
// records `verified_gflops` + `verify_overhead` per matrix plus the
// `verify_overhead_geomean` across the suite (tools/bench_compare gates
// overhead growth the same way it gates GFLOPS regressions).  A
// `thread_scaling` series per matrix (--scaling=0 skips it) times the
// speculative segmented sum across a thread ladder {1,2,4,8,16,hw},
// recording GFLOPS and parallel efficiency per count plus
// `parallel_efficiency_16t`.  (Until the serial carry fold was deleted the
// series also timed it as a baseline; BENCH_cpu.json keeps those fields as
// its final record.)  A `specialized_vs_generic` series per matrix
// times the compile-time specialized grid kernel (cpu/kernels_grid.hpp)
// against the pinned-generic interpreter on the same small-block format
// (bw*bh <= 4, raw stream) at 1 and 16 requested threads, recording GFLOPS
// and speedup per count plus suite-level `specialized_speedup_1t_geomean`
// / `specialized_speedup_16t_geomean` (gated relatively by
// tools/bench_compare like every other GFLOPS series).  The binary
// re-validates its own JSON before
// exiting and fails the run if the report does not parse — this is what the
// bench-smoke CI test asserts.
#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "yaspmv/cpu/spmv.hpp"
#include "yaspmv/cpu/stream_spmv.hpp"
#include "yaspmv/io/binary.hpp"
#include "yaspmv/io/stream.hpp"
#include "yaspmv/perf/model.hpp"
#include "yaspmv/util/json.hpp"
#include "yaspmv/util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace yaspmv;
  const Args args(argc, argv);
  const auto threads = static_cast<unsigned>(
      args.get_int("threads", static_cast<long>(default_workers())));
  const long reps = args.get_int("reps", 10);
  std::vector<std::string> names =
      args.has("matrix")
          ? std::vector<std::string>{args.get("matrix")}
          : std::vector<std::string>{"Protein", "QCD", "Economics",
                                     "Webbase", "mip1", "Dense"};
  const double mult = args.get_double("scale", 0.5);
  const bool do_tune = args.get_int("tune", 1) != 0;
  const bool no_compressed = args.has("no-delta-decode");
  const bool do_scaling = args.get_int("scaling", 1) != 0;
  const std::string json_path = args.get("json", "BENCH_cpu.json");
  const index_t spmm_k = 8;

  std::cout << "=== Native CPU SpMV (wall clock, " << threads
            << " thread(s), " << reps << " reps, simd="
            << cpu::simd::to_string(cpu::simd::active()) << ") ===\n\n";
  TablePrinter t({"Name", "NNZ", "CSR", "1x1 raw", "1x1 short", "1x1 delta",
                  "ver 1T", "blocked", "SpMM k=8", "spec x1T",
                  "tune ser(s)", "tune pool(s)"});

  // Thread counts for the segmented-sum scaling series: the fixed ladder
  // the report is gated on, plus the machine's hardware concurrency.
  std::vector<unsigned> scale_threads{1, 2, 4, 8, 16};
  {
    const unsigned hw = default_workers();
    if (std::find(scale_threads.begin(), scale_threads.end(), hw) ==
        scale_threads.end()) {
      scale_threads.push_back(hw);
      std::sort(scale_threads.begin(), scale_threads.end());
    }
  }

  json::Writer w;
  w.begin_object();
  w.key("bench").value("cpu_native");
  w.key("threads").value(threads);
  w.key("reps").value(static_cast<long long>(reps));
  w.key("scale").value(mult);
  w.key("simd").value(cpu::simd::to_string(cpu::simd::active()));
  w.key("spmm_k").value(spmm_k);
  w.key("matrices").begin_array();

  auto time_ms = [&](auto&& fn) {
    fn();  // warm up
    Stopwatch sw;
    for (long r = 0; r < reps; ++r) fn();
    return sw.elapsed_ms() / static_cast<double>(reps);
  };

  double overhead_log_sum = 0.0;  // geomean of verified/raw time ratios
  int overhead_count = 0;
  // Geomeans of the specialized-over-generic apply speedup on the
  // small-block grid configs, at 1 and 16 requested threads.
  double spec_log_1t = 0.0, spec_log_16t = 0.0;
  int spec_count = 0;

  for (const auto& name : names) {
    const auto& e = gen::suite_entry(name);
    const auto A = e.make(e.bench_scale * mult);
    const auto csr = fmt::Csr::from_coo(A);
    const auto x = bench::random_x(A.cols);
    std::vector<real_t> y(static_cast<std::size_t>(A.rows));
    const double flops = 2.0 * static_cast<double>(A.nnz());

    // Scalar-block (1x1) BCCOO — the segmented-sum fast path — on each
    // materialized column stream (one shared format, three executors).
    core::FormatConfig fc_scalar;
    auto m_scalar =
        std::make_shared<const core::Bccoo>(core::Bccoo::build(A, fc_scalar));
    cpu::CpuSpmv scalar(m_scalar, threads, core::ColStream::kRaw);
    cpu::CpuSpmv scalar_short(m_scalar, threads, core::ColStream::kShort);
    cpu::CpuSpmv scalar_delta(m_scalar, threads, core::ColStream::kDelta);
    // Blocked BCCOO: smallest-footprint non-scalar block dims.
    core::FormatConfig fc_blk;
    fc_blk.block_w = 2;
    fc_blk.block_h = 2;
    for (const auto& [bw, bh] : tune::pruned_block_dims(A)) {
      if (bw * bh > 1) {
        fc_blk.block_w = bw;
        fc_blk.block_h = std::min<index_t>(bh, 4);
        break;
      }
    }
    cpu::CpuSpmv blocked(
        std::make_shared<const core::Bccoo>(core::Bccoo::build(A, fc_blk)),
        threads);
    cpu::CpuSpmm spmm(m_scalar, threads);
    const auto X = bench::random_x(A.cols * spmm_k);
    std::vector<real_t> Y(static_cast<std::size_t>(A.rows) *
                          static_cast<std::size_t>(spmm_k));

    const double t_csr =
        time_ms([&] { cpu::spmv_csr_parallel(csr, x, y, threads); });
    const double t_scalar = time_ms([&] { scalar.spmv(x, y); });
    const double t_short =
        no_compressed ? 0.0 : time_ms([&] { scalar_short.spmv(x, y); });
    const double t_delta =
        no_compressed ? 0.0 : time_ms([&] { scalar_delta.spmv(x, y); });
    const double t_blk = time_ms([&] { blocked.spmv(x, y); });
    const double t_spmm = time_ms([&] { spmm.spmm(X, Y, spmm_k); });

    // ABFT overhead series, pinned to one thread so raw and verified see
    // the identical kernel schedule: the verified apply adds sum(y) plus a
    // checksum_w . x dot product on top of the same SpMV.
    cpu::CpuSpmv scalar_1t(m_scalar, 1, core::ColStream::kRaw);
    const double t_raw_1t = time_ms([&] { scalar_1t.spmv(x, y); });
    const double t_ver_1t = time_ms([&] { scalar_1t.spmv_verified(x, y); });
    const double gf_ver = flops / (t_ver_1t * 1e6);
    const double verify_overhead =
        t_raw_1t > 0 ? t_ver_1t / t_raw_1t - 1.0 : 0.0;
    if (t_raw_1t > 0 && t_ver_1t > 0) {
      overhead_log_sum += std::log(t_ver_1t / t_raw_1t);
      ++overhead_count;
    }

    const double gf_csr = flops / (t_csr * 1e6);
    const double gf_scalar = flops / (t_scalar * 1e6);
    const double gf_short = t_short > 0 ? flops / (t_short * 1e6) : 0.0;
    const double gf_delta = t_delta > 0 ? flops / (t_delta * 1e6) : 0.0;
    const double gf_blk = flops / (t_blk * 1e6);
    const double gf_spmm =
        flops * static_cast<double>(spmm_k) / (t_spmm * 1e6);

    // Compile-time specialization series: the dispatched grid kernel
    // against the pinned-generic interpreter on the SAME format — the
    // smallest in-grid small-block dims (bw*bh <= 4) the pruned tuner menu
    // offers for this matrix, raw stream, at 1 and 16 requested threads.
    // Bitwise output parity between the two engines is a tested invariant
    // (kernel_grid_test); this series prices the dispatch win.
    core::FormatConfig fc_sg;
    fc_sg.block_w = 2;
    fc_sg.block_h = 1;
    for (const auto& [bw, bh] : tune::pruned_block_dims(A)) {
      if (bw * bh > 1 && bw * bh <= 4 &&
          cpu::grid::find(static_cast<int>(bw), static_cast<int>(bh),
                          core::ColStream::kRaw) != nullptr) {
        fc_sg.block_w = bw;
        fc_sg.block_h = bh;
        break;
      }
    }
    auto m_sg =
        std::make_shared<const core::Bccoo>(core::Bccoo::build(A, fc_sg));
    double sg_spec_1t, sg_gen_1t, sg_spec_16t, sg_gen_16t;
    std::string sg_kernel;
    {
      cpu::CpuSpmv spec1(m_sg, 1, core::ColStream::kRaw);
      cpu::CpuSpmv gen1(m_sg, 1, core::ColStream::kRaw,
                        cpu::grid::KernelDispatch::kGeneric);
      cpu::CpuSpmv spec16(m_sg, 16, core::ColStream::kRaw);
      cpu::CpuSpmv gen16(m_sg, 16, core::ColStream::kRaw,
                         cpu::grid::KernelDispatch::kGeneric);
      sg_kernel = spec1.kernel_id();
      sg_spec_1t = flops / (time_ms([&] { spec1.spmv(x, y); }) * 1e6);
      sg_gen_1t = flops / (time_ms([&] { gen1.spmv(x, y); }) * 1e6);
      sg_spec_16t = flops / (time_ms([&] { spec16.spmv(x, y); }) * 1e6);
      sg_gen_16t = flops / (time_ms([&] { gen16.spmv(x, y); }) * 1e6);
    }
    const double sg_speedup_1t = sg_gen_1t > 0 ? sg_spec_1t / sg_gen_1t : 0.0;
    const double sg_speedup_16t =
        sg_gen_16t > 0 ? sg_spec_16t / sg_gen_16t : 0.0;
    if (sg_speedup_1t > 0 && sg_speedup_16t > 0) {
      spec_log_1t += std::log(sg_speedup_1t);
      spec_log_16t += std::log(sg_speedup_16t);
      ++spec_count;
    }

    // Segmented-sum thread-scaling series across the thread ladder.
    // Engines are rebuilt per thread count because the chunk decomposition
    // derives from it.
    std::vector<double> sc_spec_gf, sc_eff;
    double eff_16t = 0.0;
    if (do_scaling) {
      for (const unsigned T : scale_threads) {
        cpu::CpuSpmv eng(m_scalar, T, core::ColStream::kRaw);
        const double t_spec = time_ms([&] { eng.spmv(x, y); });
        sc_spec_gf.push_back(flops / (t_spec * 1e6));
        sc_eff.push_back(sc_spec_gf.front() > 0
                             ? sc_spec_gf.back() /
                                   (sc_spec_gf.front() *
                                    static_cast<double>(T))
                             : 0.0);
        if (T == 16) eff_16t = sc_eff.back();
      }
    }

    // Auto-tuning time: the identical pruned sweep, candidates evaluated
    // serially vs concurrently on the WorkPool (results are defined to be
    // identical — see TuneOptions::tune_workers).
    double tune_serial = 0.0, tune_pooled = 0.0;
    if (do_tune) {
      const auto dev = bench::device_from_args(args);
      tune::TuneOptions topt;
      topt.tune_workers = 1;
      tune_serial = tune::tune(A, dev, topt).tuning_seconds;
      topt.tune_workers = 0;  // hardware concurrency
      tune_pooled = tune::tune(A, dev, topt).tuning_seconds;
    }

    t.add_row({name, std::to_string(A.nnz()), TablePrinter::fmt(gf_csr, 2),
               TablePrinter::fmt(gf_scalar, 2),
               no_compressed ? "-" : TablePrinter::fmt(gf_short, 2),
               no_compressed ? "-" : TablePrinter::fmt(gf_delta, 2),
               TablePrinter::fmt(verify_overhead * 100.0, 1) + "%",
               TablePrinter::fmt(gf_blk, 2), TablePrinter::fmt(gf_spmm, 2),
               TablePrinter::fmt(sg_speedup_1t, 2) + "x",
               do_tune ? TablePrinter::fmt(tune_serial, 2) : "-",
               do_tune ? TablePrinter::fmt(tune_pooled, 2) : "-"});

    w.begin_object();
    w.key("name").value(name);
    w.key("rows").value(static_cast<long long>(A.rows));
    w.key("cols").value(static_cast<long long>(A.cols));
    w.key("nnz").value(static_cast<unsigned long long>(A.nnz()));
    w.key("csr_gflops").value(gf_csr);
    w.key("bccoo_scalar_gflops").value(gf_scalar);
    // Per column stream: throughput, exact bytes the kernel reads from the
    // stored format per SpMV, delivered GB/s, and the footprint model's
    // prediction for the same stream (device widths — see perf/model).
    const core::Bccoo& mf = *m_scalar;
    const std::size_t esc = mf.delta_escapes.size();
    w.key("col_streams").begin_object();
    const auto stream_obj = [&](const char* key, core::ColStream cs,
                                double gf, double ms, bool short_col,
                                bool delta_col) {
      w.key(key).begin_object();
      const auto cmp = perf::compare_bytes(
          mf.footprint_bytes(short_col, delta_col, delta_col ? esc : 0),
          mf.traffic_bytes(cs));
      // A request the format cannot serve (short columns past u16 range)
      // degrades to raw; record what actually ran.
      w.key("resolved").value(core::to_string(mf.resolve_col_stream(cs)));
      w.key("gflops").value(gf);
      w.key("bytes_measured").value(
          static_cast<unsigned long long>(cmp.measured));
      w.key("bytes_modeled").value(
          static_cast<unsigned long long>(cmp.modeled));
      w.key("bytes_ratio").value(cmp.ratio);
      w.key("gbps").value(ms > 0 ? static_cast<double>(cmp.measured) /
                                       (ms * 1e-3) / 1e9
                                 : 0.0);
      w.end_object();
    };
    stream_obj("raw", core::ColStream::kRaw, gf_scalar, t_scalar, false,
               false);
    if (!no_compressed) {
      stream_obj("short", core::ColStream::kShort, gf_short, t_short, true,
                 false);
      stream_obj("delta", core::ColStream::kDelta, gf_delta, t_delta, false,
                 true);
      w.key("delta_escapes").value(static_cast<unsigned long long>(esc));
      w.key("delta_escapes_per_tile")
          .value(mf.num_col_tiles() > 0
                     ? static_cast<double>(esc) /
                           static_cast<double>(mf.num_col_tiles())
                     : 0.0);
    }
    w.end_object();
    w.key("bccoo_blocked_gflops").value(gf_blk);
    w.key("blocked_dims").begin_array();
    w.value(static_cast<long long>(fc_blk.block_w));
    w.value(static_cast<long long>(fc_blk.block_h));
    w.end_array();
    w.key("spmm_gflops").value(gf_spmm);
    // ABFT checksum verification, single thread (see the 1T series above).
    w.key("verified_gflops").value(gf_ver);
    w.key("verify_overhead").value(verify_overhead);
    // Specialized-grid vs generic apply on the small-block format.
    w.key("specialized_vs_generic").begin_object();
    w.key("dims").begin_array();
    w.value(static_cast<long long>(fc_sg.block_w));
    w.value(static_cast<long long>(fc_sg.block_h));
    w.end_array();
    w.key("kernel").value(sg_kernel);
    w.key("generic_gflops_1t").value(sg_gen_1t);
    w.key("specialized_gflops_1t").value(sg_spec_1t);
    w.key("speedup_1t").value(sg_speedup_1t);
    w.key("generic_gflops_16t").value(sg_gen_16t);
    w.key("specialized_gflops_16t").value(sg_spec_16t);
    w.key("speedup_16t").value(sg_speedup_16t);
    w.end_object();
    if (do_scaling) {
      // parallel_efficiency[i] = speculative scaling vs perfect linear.
      w.key("thread_scaling").begin_object();
      w.key("threads").begin_array();
      for (const unsigned T : scale_threads) {
        w.value(static_cast<long long>(T));
      }
      w.end_array();
      const auto num_array = [&](const char* key,
                                 const std::vector<double>& v) {
        w.key(key).begin_array();
        for (const double d : v) w.value(d);
        w.end_array();
      };
      num_array("speculative_gflops", sc_spec_gf);
      num_array("parallel_efficiency", sc_eff);
      w.key("parallel_efficiency_16t").value(eff_16t);
      w.end_object();
    }
    if (do_tune) {
      w.key("tune_seconds_serial").value(tune_serial);
      w.key("tune_seconds_pooled").value(tune_pooled);
    }
    w.end_object();
  }
  w.end_array();
  const double overhead_geomean =
      overhead_count > 0
          ? std::exp(overhead_log_sum / static_cast<double>(overhead_count)) -
                1.0
          : 0.0;
  w.key("verify_overhead_geomean").value(overhead_geomean);
  const double spec_geo_1t =
      spec_count > 0
          ? std::exp(spec_log_1t / static_cast<double>(spec_count))
          : 0.0;
  const double spec_geo_16t =
      spec_count > 0
          ? std::exp(spec_log_16t / static_cast<double>(spec_count))
          : 0.0;
  w.key("specialized_speedup_1t_geomean").value(spec_geo_1t);
  w.key("specialized_speedup_16t_geomean").value(spec_geo_16t);

  // Out-of-core streaming series: one representative matrix written to a
  // .bccoo container, applied through the mmapped tile-streaming engine,
  // against a plain sequential read() sweep of the same file under the same
  // page-cache conditions.  `bandwidth_fraction` is the acceptance metric:
  // the streamed apply should deliver at least half the bandwidth a dumb
  // sequential read of the file gets.
  double oo_disk_gbps = 0.0, oo_stream_gbps = 0.0;
  std::uint64_t oo_bytes = 0;
  {
    const auto& e = gen::suite_entry("Protein");
    const auto A = e.make(e.bench_scale * mult);
    core::FormatConfig fc;
    const auto f = core::Bccoo::build(A, fc);
    const std::string path = json_path == "-" ? "BENCH_oocore_tmp.bccoo"
                                              : json_path + ".oocore_tmp";
    io::save_bccoo_file(path, f);

    // Sequential-read baseline: same file, same cache state (both runs are
    // warm — the comparison is apples-to-apples, not a cold-disk number).
    {
      const int fd = ::open(path.c_str(), O_RDONLY);
      if (fd >= 0) {
        std::vector<char> buf(1 << 20);
        std::uint64_t total = 0;
        const auto sweep = [&] {
          ::lseek(fd, 0, SEEK_SET);
          total = 0;
          for (;;) {
            const ssize_t n = ::read(fd, buf.data(), buf.size());
            if (n <= 0) break;
            total += static_cast<std::uint64_t>(n);
          }
        };
        const double ms = time_ms(sweep);
        if (ms > 0) {
          oo_disk_gbps = static_cast<double>(total) / (ms * 1e-3) / 1e9;
        }
        ::close(fd);
      }
    }

    auto mapped = std::make_shared<const io::MappedBccoo>(path);
    cpu::CpuStreamSpmv streamer(mapped);
    const auto sx = bench::random_x(A.cols);
    std::vector<real_t> sy(static_cast<std::size_t>(A.rows));
    const double ms = time_ms([&] { streamer.spmv(sx, sy); });
    oo_bytes = streamer.streamed_bytes();
    if (ms > 0) {
      oo_stream_gbps = static_cast<double>(oo_bytes) / (ms * 1e-3) / 1e9;
    }
    // Unlinking a live mapping is fine on POSIX; the pages go with the
    // last reference when `mapped` leaves scope.
    std::remove(path.c_str());
  }
  w.key("out_of_core").begin_object();
  w.key("matrix").value("Protein");
  w.key("bytes_per_apply").value(static_cast<unsigned long long>(oo_bytes));
  w.key("sequential_read_gbps").value(oo_disk_gbps);
  w.key("stream_gbps").value(oo_stream_gbps);
  w.key("bandwidth_fraction")
      .value(oo_disk_gbps > 0 ? oo_stream_gbps / oo_disk_gbps : 0.0);
  w.end_object();
  w.end_object();

  t.print();
  std::cout << "\n(GFLOPS columns; SpMM counts 2*nnz*k flops; 'ver 1T' is\n"
               " the single-thread ABFT checksum-verified apply overhead;\n"
               " 'spec x1T' is the single-thread specialized-grid-over-\n"
               " generic apply speedup)\n"
            << "verified-apply overhead geomean (1 thread): "
            << overhead_geomean * 100.0 << "%\n"
            << "specialized-kernel speedup geomean (small-block, " << spec_count
            << " matrices): " << spec_geo_1t << "x at 1T, " << spec_geo_16t
            << "x at 16T\n";
  std::cout << "out-of-core stream: " << oo_stream_gbps << " GB/s vs "
            << oo_disk_gbps << " GB/s sequential read ("
            << (oo_disk_gbps > 0 ? oo_stream_gbps / oo_disk_gbps * 100.0
                                 : 0.0)
            << "% of file bandwidth, " << oo_bytes << " bytes/apply)\n";

  const std::string report = w.take();
  if (!json::valid(report)) {
    std::cerr << "bench_cpu_native: generated JSON failed validation\n";
    return 1;
  }
  if (json_path != "-") {
    std::ofstream out(json_path);
    out << report << "\n";
    if (!out) {
      std::cerr << "bench_cpu_native: cannot write " << json_path << "\n";
      return 1;
    }
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
