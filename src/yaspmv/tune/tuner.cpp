#include "yaspmv/tune/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>

#include "yaspmv/core/engine.hpp"
#include "yaspmv/core/status.hpp"
#include "yaspmv/cpu/spmv.hpp"
#include "yaspmv/formats/blocked.hpp"
#include "yaspmv/formats/csr.hpp"
#include "yaspmv/perf/model.hpp"
#include "yaspmv/util/rng.hpp"
#include "yaspmv/util/stopwatch.hpp"
#include "yaspmv/util/thread_pool.hpp"

namespace yaspmv::tune {

namespace {

/// Cache key for built formats (the "compiled kernel cache" analog).
struct FormatKey {
  index_t bw, bh, slices;
  int bf_word;
  bool operator<(const FormatKey& o) const {
    if (bw != o.bw) return bw < o.bw;
    if (bh != o.bh) return bh < o.bh;
    if (slices != o.slices) return slices < o.slices;
    return bf_word < o.bf_word;
  }
};

std::vector<real_t> make_x(index_t cols) {
  SplitMix64 rng(0x7E57);
  std::vector<real_t> x(static_cast<std::size_t>(cols));
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  return x;
}

bool close(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max({std::abs(a[i]), std::abs(b[i]), 1.0});
    if (std::abs(a[i] - b[i]) > 1e-9 * scale) return false;
  }
  return true;
}

}  // namespace

core::ColStream native_stream(const core::ExecConfig& ec) {
  if (ec.compress_col_delta) return core::ColStream::kDelta;
  if (ec.short_col_index) return core::ColStream::kShort;
  return core::ColStream::kRaw;
}

std::vector<std::pair<index_t, index_t>> pruned_block_dims(
    const fmt::Coo& a, bool extended) {
  struct Dim {
    index_t w, h;
    std::size_t fp;
  };
  const std::vector<index_t> ws =
      extended ? std::vector<index_t>{1, 2, 4, 8} : std::vector<index_t>{1, 2, 4};
  const std::vector<index_t> hs = extended
                                      ? std::vector<index_t>{1, 2, 3, 4, 6, 8}
                                      : std::vector<index_t>{1, 2, 3, 4};
  std::vector<Dim> dims;
  for (index_t w : ws) {
    for (index_t h : hs) {
      const std::size_t blocks = fmt::BlockDecomposition::count_blocks(a, w, h);
      const std::size_t fp =
          blocks * (static_cast<std::size_t>(w) * static_cast<std::size_t>(h) *
                        bytes::kValue +
                    bytes::kShortIndex) +
          blocks / 8 + 1;
      dims.push_back({w, h, fp});
    }
  }
  std::sort(dims.begin(), dims.end(),
            [](const Dim& l, const Dim& r) { return l.fp < r.fp; });
  dims.resize(std::min<std::size_t>(dims.size(), extended ? 6 : 4));
  std::vector<std::pair<index_t, index_t>> out;
  out.reserve(dims.size());
  for (const auto& d : dims) out.emplace_back(d.w, d.h);
  return out;
}

TuneResult tune(const fmt::Coo& a, const sim::DeviceSpec& dev,
                const TuneOptions& opt) {
  require(a.rows > 0 && a.cols > 0, "tune: empty matrix");
  Stopwatch sw;
  TuneResult res;

  const auto x = make_x(a.cols);
  std::vector<real_t> y_ref(static_cast<std::size_t>(a.rows));
  fmt::Csr::from_coo(a).spmv(x, y_ref);

  // ---- enumerate the Table 1 space ---------------------------------------
  const auto block_dims = pruned_block_dims(a, opt.extended_blocks);
  const std::vector<index_t> slice_menu =
      opt.exhaustive ? std::vector<index_t>{1, 2, 4, 8, 16, 32}
                     : std::vector<index_t>{1, 4};
  const std::vector<BitFlagWord> bf_menu =
      opt.exhaustive
          ? std::vector<BitFlagWord>{BitFlagWord::kU8, BitFlagWord::kU16,
                                     BitFlagWord::kU32}
          : std::vector<BitFlagWord>{BitFlagWord::kU16};
  const std::vector<int> wg_menu =
      opt.exhaustive ? std::vector<int>{64, 128, 256, 512}
                     : std::vector<int>{64, 256};
  const std::vector<bool> tex_menu =
      opt.exhaustive ? std::vector<bool>{true, false}
                     : std::vector<bool>{true};
  const std::vector<core::Transpose> tr_menu =
      opt.exhaustive
          ? std::vector<core::Transpose>{core::Transpose::kOffline,
                                         core::Transpose::kOnline}
          : std::vector<core::Transpose>{core::Transpose::kOffline};
  const std::vector<bool> dcol_menu{false, true};
  const std::vector<int> s1_reg_menu =
      opt.exhaustive ? std::vector<int>{8, 16, 24, 32}
                     : std::vector<int>{16, 32};
  std::vector<int> s2_tile_menu = opt.exhaustive
                                      ? std::vector<int>{4, 8, 16, 32}
                                      : std::vector<int>{8, 16};
  if (opt.extended_blocks) {
    s2_tile_menu.push_back(24);
    s2_tile_menu.push_back(40);  // the paper's Dense observation
  }
  const std::vector<int> s2_cache_menu{1, 2};

  // ---- collect the candidate list (enumeration order is the merge order,
  //      so results are independent of tune_workers) ----------------------
  std::vector<std::pair<core::FormatConfig, core::ExecConfig>> cands;
  auto evaluate = [&](const core::FormatConfig& fc,
                      const core::ExecConfig& ec) {
    cands.emplace_back(fc, ec);
  };

  for (const auto& [bw, bh] : block_dims) {
    for (index_t slices : slice_menu) {
      if (slices > 1 && ceil_div(a.cols, bw) < slices) continue;
      for (BitFlagWord bfw : bf_menu) {
        core::FormatConfig fc;
        fc.block_w = bw;
        fc.block_h = bh;
        fc.bf_word = bfw;
        fc.slices = slices;
        for (int wg : wg_menu) {
          for (bool tex : tex_menu) {
            for (bool dcol : dcol_menu) {
              core::ExecConfig base;
              base.workgroup_size = wg;
              base.use_texture = tex;
              base.compress_col_delta = dcol;
              base.workers = opt.workers;
              // Strategy 1 over the register-size menu (ShM_size = 0 in the
              // pruned space, per Section 4).
              for (core::Transpose tr : tr_menu) {
                for (int reg : s1_reg_menu) {
                  core::ExecConfig ec = base;
                  ec.strategy = core::Strategy::kIntermediateSums;
                  ec.thread_tile = reg;
                  ec.shm_tile = 0;
                  ec.transpose = tr;
                  evaluate(fc, ec);
                }
              }
              // Strategy 2 over tile x cache (offline transpose required).
              for (int tile : s2_tile_menu) {
                for (int cm : s2_cache_menu) {
                  core::ExecConfig ec = base;
                  ec.strategy = core::Strategy::kResultCache;
                  ec.thread_tile = tile;
                  ec.result_cache_multiple = cm;
                  ec.transpose = core::Transpose::kOffline;
                  evaluate(fc, ec);
                }
              }
            }
          }
        }
      }
    }
  }

  // ---- prebuild the format cache in parallel -----------------------------
  // The format cache plays the role of the paper's compiled-kernel hash
  // table: one Bccoo per (block dims, slices) serves every ExecConfig.  All
  // keys are known up front, so every distinct format builds as its own pool
  // job *before* the sweep — builds are the dominant tuner cost, this phase
  // makes their wall time a first-class, per-candidate-attributable metric
  // (build_seconds), and the sweep itself then only does lookups.  A build
  // that lands on a pool worker runs its internal parallelism inline
  // (nested submits degrade), so cache entries build concurrently with each
  // other, deterministically per entry.
  struct FormatEntry {
    std::shared_ptr<const core::Bccoo> fmt;
    double build_seconds = 0;
  };
  std::map<FormatKey, FormatEntry> format_cache;
  for (const auto& cand : cands) {
    const core::FormatConfig& fc = cand.first;
    format_cache[FormatKey{fc.block_w, fc.block_h, fc.slices,
                           static_cast<int>(fc.bf_word)}];
  }
  const unsigned tune_workers =
      opt.tune_workers == 0 ? default_workers() : opt.tune_workers;
  {
    std::vector<std::pair<const FormatKey, FormatEntry>*> entries;
    entries.reserve(format_cache.size());
    for (auto& kv : format_cache) entries.push_back(&kv);
    Stopwatch build_sw;
    parallel_for_ordered(
        entries.size(), tune_workers, [&](unsigned, std::size_t i) {
          const FormatKey& k = entries[i]->first;
          core::FormatConfig fc;
          fc.block_w = k.bw;
          fc.block_h = k.bh;
          fc.slices = k.slices;
          fc.bf_word = static_cast<BitFlagWord>(k.bf_word);
          Stopwatch one;
          entries[i]->second.fmt =
              std::make_shared<const core::Bccoo>(core::Bccoo::build(a, fc));
          entries[i]->second.build_seconds = one.elapsed_seconds();
        });
    res.formats_built = static_cast<int>(entries.size());
    res.format_build_seconds = build_sw.elapsed_seconds();
  }
  auto get_entry = [&](const core::FormatConfig& fc) -> const FormatEntry& {
    return format_cache.at(FormatKey{fc.block_w, fc.block_h, fc.slices,
                                     static_cast<int>(fc.bf_word)});
  };

  struct EvalOut {
    bool ok = false;
    Candidate cand;
    std::string skip_reason;
  };
  std::vector<EvalOut> outs(cands.size());
  parallel_for_ordered(
      cands.size(), tune_workers, [&](unsigned, std::size_t ci) {
        const auto& [fc, ec] = cands[ci];
        EvalOut& o = outs[ci];
        try {
          const FormatEntry& fe = get_entry(fc);
          Stopwatch eval_sw;
          core::SpmvEngine eng(fe.fmt, ec, dev);
          std::vector<real_t> yl(static_cast<std::size_t>(a.rows));
          auto run = eng.run(x, yl);
          if (opt.verify && !close(yl, y_ref)) {
            throw DataCorruption("tuner: candidate produced wrong results");
          }
          o.cand.format = fc;
          o.cand.exec = ec;
          // Record the kernel the native backend would dispatch for this
          // config (specialization grid or generic) and charge the generic
          // path's per-block branch overhead in the modeled score, so the
          // ranking reflects what serving actually executes.
          o.cand.kernel = cpu::grid::dispatch_kernel_id(
              static_cast<int>(fc.block_w), static_cast<int>(fc.block_h),
              fe.fmt->resolve_col_stream(native_stream(ec)));
          o.cand.gflops = perf::spmv_gflops_dispatch(
              dev, run.stats, a.nnz(), opt.rank_threads, fe.fmt->num_blocks,
              o.cand.kernel != "generic");
          o.cand.footprint = eng.footprint_bytes();
          o.cand.build_seconds = fe.build_seconds;
          o.cand.eval_seconds = eval_sw.elapsed_seconds();
          o.ok = true;
        } catch (const SpmvError& e) {
          // One failing candidate (resource overflow, wrong results,
          // injected fault, ...) must not abort the sweep: record it and
          // move on.
          o.skip_reason =
              fc.to_string() + " / " + ec.to_string() + ": " + e.what();
        }
      });

  // Serial merge in enumeration order: best (first strict max), top, and
  // the first kMaxSkipRecords skip reasons are exactly the serial sweep's.
  for (const EvalOut& o : outs) {
    if (o.ok) {
      res.evaluated++;
      res.top.push_back(o.cand);
      if (o.cand.gflops > res.best.gflops) res.best = o.cand;
    } else {
      res.skipped++;
      if (res.skipped_configs.size() < TuneResult::kMaxSkipRecords) {
        res.skipped_configs.push_back(o.skip_reason);
      }
    }
  }

  std::sort(res.top.begin(), res.top.end(),
            [](const Candidate& l, const Candidate& r) {
              return l.gflops > r.gflops;
            });
  if (res.top.size() > 8) res.top.resize(8);

  // ---- optional native re-timing of the top candidates -------------------
  // Serial, after the parallel sweep: the modeled ranking above stays
  // independent of tune_workers, and the timed loops don't fight each other
  // for cores.  Each candidate runs on the column stream its exec flags
  // select, so a "dcol" candidate really exercises the delta decode path.
  res.best_native = res.best;
  if (opt.measure_native && !res.top.empty()) {
    const double flops = 2.0 * static_cast<double>(a.nnz());
    std::vector<real_t> yn(static_cast<std::size_t>(a.rows));
    for (Candidate& cand : res.top) {
      const core::ColStream cs = native_stream(cand.exec);
      // kAuto dispatch: the re-timing runs the same specialized (or
      // generic) kernel serving would, and the candidate records the id
      // the engine actually resolved.
      cpu::CpuSpmv eng(get_entry(cand.format).fmt, opt.native_threads, cs);
      cand.kernel = eng.kernel_id();
      eng.spmv(x, yn);  // warm-up: faults in format + scratch
      double best_s = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < std::max(1, opt.native_reps); ++rep) {
        Stopwatch rep_sw;
        eng.spmv(x, yn);
        best_s = std::min(best_s, rep_sw.elapsed_seconds());
      }
      cand.measured_gflops = flops / best_s / 1e9;
      cand.measured_bytes = eng.format().traffic_bytes(cs);
      if (cand.format == res.best.format &&
          cand.exec.to_string() == res.best.exec.to_string()) {
        res.best.measured_gflops = cand.measured_gflops;
        res.best.measured_bytes = cand.measured_bytes;
        res.best.kernel = cand.kernel;
      }
    }
    res.best_native = *std::max_element(
        res.top.begin(), res.top.end(),
        [](const Candidate& l, const Candidate& r) {
          return l.measured_gflops < r.measured_gflops;
        });
    res.native_measured = true;
  }

  res.tuning_seconds = sw.elapsed_seconds();
  require(res.evaluated > 0, "tune: every configuration was rejected");
  return res;
}

}  // namespace yaspmv::tune
