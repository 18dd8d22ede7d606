// Native CPU-parallel SpMV over the BCCOO/BCCOO+ format.
//
// The GPU pipeline in yaspmv/core runs on a simulator for evaluation
// purposes; this backend runs the *same algorithm* natively with OS
// threads, so the library is directly usable for real workloads:
//
//   * the non-zero blocks are divided into equal contiguous chunks (the
//     thread-level tiles of Section 3.2, scaled to CPU cores),
//   * each thread performs the sequential segmented sum over its chunk,
//     writing every *interior* segment directly (those are complete) and
//     recording its first partial sum and trailing carry — *speculatively*,
//     assuming a zero incoming carry,
//   * the speculative sums are repaired by the carry-chain-free fix-up of
//     cpu/segfix.hpp (per-group folds, a grid-shaped Blelloch scan, and a
//     parallel apply) in place of the paper's adjacent-synchronization
//     chain; chunks are claimed *unordered*, so no global in-order ticket
//     is contended.
//
// Execution substrate: chunks run on the shared persistent WorkPool
// (util/thread_pool.hpp) — no thread spawn/join per call — and the
// per-chunk segmented sum uses the runtime-dispatched SIMD kernels of
// cpu/simd.hpp (AVX2/FMA with a portable multi-accumulator fallback).
//
// Zero-copy apply (the iterative-solver fast path): `spmv` reads the
// caller's `x` directly — there is no padded copy.  Scalar-width blocks
// never need padding; blocked formats whose last block column hangs past
// `cols` redirect only that one block to a small ctor-zeroed tail buffer
// (`xtail_`, the pad filled once, only the live tail elements copied per
// call).  Nor is there a full result-buffer clear: every segment maps to
// exactly one block row (each non-empty block row has exactly one row
// stop), so workers and the fix-up pass *assign* complete segment sums,
// and only rows no segment covers ever need explicit zeroing.  With one
// slice and an unpadded row dimension the workers write straight into `y`
// (`res_` is not even allocated) and the combine pass disappears — a
// solver iteration touches each vector once.  Because `x` is read while
// `y` is written, `spmv` rejects overlapping x/y.
//
// Determinism: the chunk decomposition depends only on the *requested*
// thread count, the intra-chunk reduction order is fixed by the kernels'
// shared lane/reduction scheme, and the fix-up's combine tree is shaped by
// the chunk grid alone (see segfix.hpp), so for a fixed thread count and
// dispatch level results are bitwise reproducible run-to-run — and
// identical to an in-order run of the same chunks.
//
// Compressed column streams (Sections 2.2 and 4): the executor reads the
// format's materialized int16-delta or u16 stream instead of the 4-byte
// col_index array when a ColStream other than kRaw is selected (kAuto picks
// the smallest available).  Each decode tile (Bccoo::kColTile blocks) is
// expanded by the runtime-dispatched decode kernel into a 2 KB stack scratch
// that stays L1-resident, so the DRAM column traffic really is ~2 bytes per
// block.  Chunk starts are rounded down to tile boundaries and segment
// pieces split at tile boundaries in *every* column mode (raw included, at
// zero decode cost), so raw/short/delta results are bitwise identical at a
// fixed (thread count, dispatch level).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "yaspmv/core/bccoo.hpp"
#include "yaspmv/core/checksum.hpp"
#include "yaspmv/cpu/kernels_grid.hpp"
#include "yaspmv/cpu/segfix.hpp"
#include "yaspmv/cpu/simd.hpp"
#include "yaspmv/formats/csr.hpp"
#include "yaspmv/sim/fault.hpp"
#include "yaspmv/util/thread_pool.hpp"

namespace yaspmv::cpu {

/// Reusable parallel SpMV executor for one BCCOO matrix.
class CpuSpmv {
 public:
  /// `threads == 0` uses the hardware concurrency.  `cs` selects the column
  /// stream the hot loop reads (kAuto = smallest materialized one; a request
  /// the format cannot serve degrades to kRaw).  `kd` controls kernel
  /// dispatch: kAuto routes an exact (block_w, block_h, stream) match to its
  /// specialized grid instantiation (cpu/kernels_grid.hpp) — bitwise
  /// identical to the generic kernel at a fixed (threads, simd level) —
  /// while kGeneric pins the generic kernel (parity reference / bench
  /// baseline).  Out-of-grid configs always run generic.  `shards`
  /// partitions the chunk grid into contiguous locality domains (NUMA shard
  /// groups): the default 1 keeps today's single-domain execution, 0 probes
  /// the machine (default_shards(): libnuma node count, YASPMV_NUMA
  /// override), and an explicit N pins the domain count.  Sharding is
  /// scheduling + placement only — the chunk grid, fix-up tree and combine
  /// order are untouched, so any shard count is bitwise identical to
  /// shards == 1 at a fixed (threads, level).
  explicit CpuSpmv(std::shared_ptr<const core::Bccoo> m, unsigned threads = 0,
                   core::ColStream cs = core::ColStream::kAuto,
                   grid::KernelDispatch kd = grid::KernelDispatch::kAuto,
                   unsigned shards = 1)
      : fmt_(std::move(m)),
        threads_(threads == 0 ? default_workers() : threads),
        cs_(fmt_->resolve_col_stream(cs)),
        shards_(std::min(shards == 0 ? default_shards() : shards,
                         kMaxShards)) {
    const core::Bccoo& f = *fmt_;
    require(f.cfg.block_h >= 1 && f.cfg.block_h <= 8,
            "CpuSpmv[" + config_name() + "]: block height " +
                std::to_string(f.cfg.block_h) +
                " outside the accepted range [1, 8]");
    if (kd == grid::KernelDispatch::kAuto) {
      if (const grid::GridEntry* e =
              grid::find(static_cast<int>(f.cfg.block_w),
                         static_cast<int>(f.cfg.block_h), cs_)) {
        grid_fn_ = e->fn;
        kernel_id_ = e->id;
      }
    }
    const auto h = static_cast<std::size_t>(f.cfg.block_h);
    const auto bw = static_cast<std::size_t>(f.cfg.block_w);
    // Chunk boundaries over blocks (even distribution, rounded down to the
    // decode-tile granularity so every chunk decodes whole tiles; rounding
    // can make small leading chunks empty — harmless).
    const std::size_t nb = f.num_blocks;
    const std::size_t nchunks =
        nb == 0 ? 1 : std::min<std::size_t>(threads_ * 4, nb);
    chunk_start_.reserve(nchunks + 1);
    for (std::size_t c = 0; c <= nchunks; ++c) {
      std::size_t s = c * nb / nchunks;
      if (c != 0 && c != nchunks) {
        s = s / core::Bccoo::kColTile * core::Bccoo::kColTile;
      }
      chunk_start_.push_back(s);
    }
    // Per-chunk first segment ordinal (count of row stops before the
    // chunk), Section 2.4's first-result-entry at chunk granularity.
    chunk_first_seg_.resize(chunk_start_.size());
    for (std::size_t c = 0; c < chunk_start_.size(); ++c) {
      chunk_first_seg_[c] = f.bit_flags.count_zeros_before(chunk_start_[c]);
    }
    // Shard grid: the format's tile-rounded block boundaries
    // (shard_block_starts — a pure function of the format and the shard
    // count, never the live thread count) mapped onto the chunk grid.  The
    // map is monotone, so the shard chunk ranges partition [0, nchunks).
    const std::size_t nchunks_built = chunk_start_.size() - 1;
    shard_chunk_start_.assign(static_cast<std::size_t>(shards_) + 1, 0);
    shard_chunk_start_[shards_] = nchunks_built;
    if (shards_ > 1) {
      const std::vector<std::size_t> sb = f.shard_block_starts(shards_);
      for (unsigned s = 1; s < shards_; ++s) {
        const auto it =
            std::lower_bound(chunk_start_.begin(), chunk_start_.end(), sb[s]);
        shard_chunk_start_[s] = std::min<std::size_t>(
            static_cast<std::size_t>(it - chunk_start_.begin()),
            nchunks_built);
      }
      // Halo metadata: the x sub-range each shard's blocks actually read
      // (the cross-domain x traffic the perf model charges).
      shard_col_range_.resize(shards_);
      for (unsigned s = 0; s < shards_; ++s) {
        shard_col_range_[s] =
            f.block_col_range(chunk_start_[shard_chunk_start_[s]],
                              chunk_start_[shard_chunk_start_[s + 1]]);
      }
    }
    // First-touch the carry/first panels shard by shard so each domain's
    // fix-up pages are local to the workers that write them.  One shard
    // degrades to a plain serial fill — bit-for-bit the old vectors.
    std::size_t panel_shard[kMaxShards + 1];
    for (unsigned s = 0; s <= shards_; ++s) {
      panel_shard[s] = shard_chunk_start_[s] * h;
    }
    carries_.init(nchunks_built * h, 0.0, panel_shard, shards_, threads_);
    firsts_.init(nchunks_built * h, 0.0, panel_shard, shards_, threads_);
    // Zero-copy tail redirect: only a padded last block column needs
    // scratch.  The pad beyond `cols` is zeroed once, here; spmv copies
    // just the live tail elements per call.
    const auto colsz = static_cast<std::size_t>(f.cols);
    if (bw > 1 && colsz % bw != 0) {
      pad_bcol_ = static_cast<std::size_t>(f.block_cols) - 1;
      tail_n_ = colsz - pad_bcol_ * bw;
      xtail_.assign(bw, 0.0);
    }
    // Workers write straight into y when the stacked result layout IS the
    // output layout: one slice and no padded rows.
    direct_y_ = f.cfg.slices == 1 &&
                static_cast<std::size_t>(f.block_rows) * h ==
                    static_cast<std::size_t>(f.rows);
    const auto stacked = static_cast<std::size_t>(f.stacked_block_rows);
    if (!direct_y_) {
      // Slice-stacked result buffer.  Zeroed once: covered rows are
      // *assigned* every call, uncovered rows are never touched and stay
      // zero forever.  First-touched along the shard grid — each shard's
      // boundary is the stacked row its first complete segment lands on
      // (clamped monotone), so workers fault the y-partial pages they will
      // assign in the chunk pass.
      std::size_t res_shard[kMaxShards + 1];
      res_shard[0] = 0;
      res_shard[shards_] = stacked * h;
      for (unsigned s = 1; s < shards_; ++s) {
        const auto seg =
            static_cast<std::size_t>(chunk_first_seg_[shard_chunk_start_[s]]);
        std::size_t b = seg < f.seg_to_block_row.size()
                            ? static_cast<std::size_t>(
                                  f.seg_to_block_row[seg]) * h
                            : stacked * h;
        res_shard[s] = std::clamp(b, res_shard[s - 1], stacked * h);
      }
      res_.init(stacked * h, 0.0, res_shard, shards_, threads_);
    } else {
      // Direct-y mode writes into the caller's buffer, so the rows no
      // segment covers must be cleared per call — precompute them.
      std::vector<bool> covered(stacked, false);
      for (const index_t sbrow : f.seg_to_block_row) {
        covered[static_cast<std::size_t>(sbrow)] = true;
      }
      for (std::size_t r = 0; r < stacked; ++r) {
        if (!covered[r]) zero_rows_.push_back(r);
      }
    }
    if (shards_ > 1 && !direct_y_) {
      // Combine pass shard grid: rows partition evenly across domains.
      // The per-row slice fold itself is untouched (fixed slice order), so
      // sharding the row ranges is a disjoint merge, not an FP reduction.
      const auto rowsz = static_cast<std::size_t>(f.rows);
      const std::size_t rchunks =
          std::max<std::size_t>(1, std::min<std::size_t>(threads_ * 4, rowsz));
      combine_shard_start_.resize(static_cast<std::size_t>(shards_) + 1);
      for (unsigned s = 0; s <= shards_; ++s) {
        combine_shard_start_[s] = s * rchunks / shards_;
      }
    }
  }

  const core::Bccoo& format() const { return *fmt_; }
  unsigned threads() const { return threads_; }
  /// Locality domains the chunk and combine passes are sharded across
  /// (1 = today's single-domain execution).
  unsigned shard_count() const { return shards_; }
  /// The x sub-range shard s's blocks read — its halo view.  Everything
  /// outside [lo, hi) is another domain's x; the full span when unsharded
  /// or when the shard holds no blocks.
  std::pair<index_t, index_t> shard_col_range(unsigned s) const {
    if (s >= shard_col_range_.size()) return {0, fmt_->cols};
    return shard_col_range_[s];
  }
  /// The resolved column stream the hot loop actually reads.
  core::ColStream col_stream() const { return cs_; }
  /// Stable id of the chunk kernel this engine dispatches to: a grid id
  /// like "grid/w2h2/short" when a specialized instantiation matched,
  /// "generic" otherwise.  Recorded by the tuner / plan cache and reported
  /// by serve's kStats.
  const char* kernel_id() const { return kernel_id_; }
  /// True when the engine runs a specialized grid kernel.
  bool specialized() const { return grid_fn_ != nullptr; }

  /// Fault-injection hook (tests/chaos tooling): when set, the armed
  /// kFlipPartial plan can flip one bit of one per-chunk partial sum
  /// between the parallel pass and the fix-up — one null check per
  /// apply on the fault-free path.
  void set_fault_injector(sim::FaultInjector* injector) {
    injector_ = injector;
  }

  /// y = A * x (parallel, deterministic for a fixed thread count).
  /// Zero-copy: x is read in place while y is written, so the spans must
  /// not overlap.
  void spmv(std::span<const real_t> x, std::span<real_t> y) {
    const core::Bccoo& f = *fmt_;
    if (x.size() != static_cast<std::size_t>(f.cols) ||
        y.size() != static_cast<std::size_t>(f.rows)) {
      // Built only on failure — names the config so tuner skip-and-record
      // logs are actionable without replaying the candidate.
      require(false, "CpuSpmv[" + config_name() + "]: vector size mismatch: "
                         "got x[" + std::to_string(x.size()) + "] y[" +
                         std::to_string(y.size()) + "], need x[" +
                         std::to_string(f.cols) + "] y[" +
                         std::to_string(f.rows) + "]");
    }
    const auto xb = reinterpret_cast<std::uintptr_t>(x.data());
    const auto yb = reinterpret_cast<std::uintptr_t>(y.data());
    require(xb + x.size() * sizeof(real_t) <= yb ||
                yb + y.size() * sizeof(real_t) <= xb,
            "CpuSpmv: x and y must not overlap (zero-copy apply)");
    const auto h = static_cast<std::size_t>(f.cfg.block_h);
    const auto bw = static_cast<std::size_t>(f.cfg.block_w);

    if (tail_n_ != 0) {
      // Only the live tail elements move; the pad stays ctor-zeroed.
      std::copy(x.end() - static_cast<std::ptrdiff_t>(tail_n_), x.end(),
                xtail_.begin());
    }
    real_t* const out = direct_y_ ? y.data() : res_.data();
    for (const std::size_t r : zero_rows_) {
      for (std::size_t k = 0; k < h; ++k) out[r * h + k] = 0.0;
    }

    const real_t* const xd = x.data();
    const std::size_t nchunks = chunk_start_.size() - 1;
    // Specialized dispatch resolved once at construction; the branch here
    // is once per chunk, never inside a block loop.
    const grid::ChunkCtx gctx{fmt_.get(),          chunk_start_.data(),
                              chunk_first_seg_.data(), firsts_.data(),
                              carries_.data(),     pad_bcol_,
                              xtail_.data()};
    const grid::ChunkKernelFn gfn = grid_fn_;
    const auto chunk_body = [&](unsigned, std::size_t c) {
      if (gfn) {
        gfn(gctx, c, xd, out);
      } else {
        process_chunk(c, h, bw, xd, out);
      }
    };
    if (shards_ > 1) {
      // Shard-affine scheduling: each worker group claims only its domain's
      // chunk range (spilling to other domains once its own drains), so the
      // panels and res_ pages it first-touched stay local.  The chunk grid
      // is the same one the unsharded path walks — bitwise identical.
      parallel_for_sharded(nchunks, shard_chunk_start_.data(), shards_,
                           threads_, chunk_body);
    } else {
      parallel_for_unordered(nchunks, threads_, chunk_body);
    }
    if (injector_) {
      injector_->flip_partial(
          std::span<real_t>(carries_.data(), carries_.size()));
    }

    // Fix-up: resolve segments spanning chunk boundaries.  Each chunk's
    // first stop closes a segment no worker assigned (they defer it to
    // firsts_), and the segment -> block-row map is injective, so plain
    // assignment is complete — no prior clear needed.
    const simd::AccAddFn aadd = simd::acc_add();
    const simd::CarryApplyFn capply = simd::carry_apply();
    speculative_fixup(
        nchunks, h, threads_, chunk_first_seg_.data(), firsts_.data(),
        carries_.data(), 0.0,
        [aadd, h](real_t* dst, const real_t* src) { aadd(dst, src, h); },
        [&](std::size_t c, const real_t* inc) {
          const auto sbrow = static_cast<std::size_t>(f.seg_to_block_row[
              static_cast<std::size_t>(chunk_first_seg_[c])]);
          capply(out + sbrow * h, inc, firsts_.data() + c * h, h);
        },
        fix_, shards_ > 1 ? shard_chunk_start_.data() : nullptr, shards_);
    if (direct_y_) return;  // workers already produced y

    // Combine y from the (slice-stacked) result buffer — the CPU analog of
    // the Figure 5 combine kernel.  Rows are independent (the per-row slice
    // sum runs in fixed slice order), so the pooled row-chunked version is
    // bitwise identical to the serial one; small matrices stay serial to
    // dodge the dispatch overhead.
    const auto bh = static_cast<std::size_t>(f.cfg.block_h);
    const auto combine_rows = [&](index_t r0, index_t r1) {
      for (index_t r = r0; r < r1; ++r) {
        const auto rz = static_cast<std::size_t>(r);
        real_t s = 0.0;
        for (index_t sl = 0; sl < f.cfg.slices; ++sl) {
          const std::size_t sbrow =
              static_cast<std::size_t>(sl) *
                  static_cast<std::size_t>(f.block_rows) +
              rz / bh;
          s += res_[sbrow * h + rz % bh];
        }
        y[rz] = s;
      }
    };
    constexpr index_t kParCombineRows = 4096;
    if (threads_ > 1 && f.rows >= kParCombineRows) {
      const auto rowsz = static_cast<std::size_t>(f.rows);
      const std::size_t rchunks = std::min<std::size_t>(threads_ * 4, rowsz);
      const auto combine_body = [&](unsigned, std::size_t rc) {
        combine_rows(static_cast<index_t>(rc * rowsz / rchunks),
                     static_cast<index_t>((rc + 1) * rowsz / rchunks));
      };
      if (shards_ > 1) {
        // Shard-local combine: each domain folds the rows whose res_ pages
        // it placed, then the disjoint row ranges ARE the cross-shard
        // merge — no second reduction and no reassociation.
        parallel_for_sharded(rchunks, combine_shard_start_.data(), shards_,
                             threads_, combine_body);
      } else {
        parallel_for_unordered(rchunks, threads_, combine_body);
      }
    } else {
      combine_rows(0, f.rows);
    }
  }

  /// ABFT-verified apply: y = A x, then sum(y) is compared against the
  /// format's column-checksum dot within the computed rounding bound (see
  /// core/checksum.hpp).  The check is two vectorized passes — sum over y
  /// and the fused (w.x, |w|.|x|) dot — so the overhead stays single-digit
  /// even at nnz/row ~ 3.  Throws IntegrityFault on mismatch (with the
  /// tripping slice attributed via the pre-combine partials when sliced);
  /// returns the report (delta, bound) on success.
  core::ChecksumReport spmv_verified(std::span<const real_t> x,
                                     std::span<real_t> y) {
    spmv(x, y);
    core::ChecksumReport rep = verify_output(x, y);
    if (!rep.ok()) {
      throw IntegrityFault("cpu verified apply: " + rep.message());
    }
    return rep;
  }

  /// The verification half of spmv_verified, usable on its own against an
  /// already-computed y (must be the output of this engine's spmv for the
  /// slice attribution to mean anything).
  core::ChecksumReport verify_output(std::span<const real_t> x,
                                     std::span<const real_t> y) const {
    const core::Bccoo& f = *fmt_;
    require(f.checksums_built,
            "CpuSpmv: verified apply needs the format's checksum plan");
    core::ChecksumReport rep;
    rep.lhs = simd::sum()(y.data(), y.size());
    const simd::CheckDotResult cd = simd::checksum_dot()(
        f.checksum_w.data(), f.checksum_wabs.data(), x.data(), x.size());
    rep.rhs = cd.wx;
    rep.delta = std::abs(rep.lhs - rep.rhs);
    rep.bound = core::checksum_bound(f, cd.babs);
    if (!rep.ok() && f.cfg.slices > 1 && !res_.empty()) {
      // Failure path only: serial per-slice attribution off the stacked
      // partial results the workers just produced.
      rep.slice = core::verify_apply(
                      f, x, y, std::span<const real_t>(res_.data(),
                                                       res_.size()))
                      .slice;
    }
    return rep;
  }

 private:
  /// "2x4/short" — the (block_w x block_h / stream) label dims-check and
  /// range errors carry so tuner skip-and-record logs name the candidate.
  std::string config_name() const {
    return std::to_string(fmt_->cfg.block_w) + "x" +
           std::to_string(fmt_->cfg.block_h) + "/" + core::to_string(cs_);
  }

  /// Column source of decode tile [t0, t1) (t0 tile-aligned): raw mode
  /// returns a pointer straight into col_index; compressed modes expand the
  /// int16/u16 stream into `buf` (tile-local indexing either way — caller
  /// reads tc[i - t0]).
  const index_t* tile_cols(std::size_t t0, std::size_t t1, index_t* buf,
                           simd::DecodeShortFn dshort,
                           simd::DecodeDeltaFn ddelta) const {
    const core::Bccoo& f = *fmt_;
    switch (cs_) {
      case core::ColStream::kShort:
        dshort(f.short_cols.data() + t0, buf, t1 - t0);
        return buf;
      case core::ColStream::kDelta: {
        const std::size_t t = t0 / core::Bccoo::kColTile;
        ddelta(f.delta_cols.data() + t0, t1 - t0,
               f.delta_escapes.data() + f.delta_escape_start[t], buf);
        return buf;
      }
      default:
        return f.col_index.data() + t0;
    }
  }

  void process_chunk(std::size_t c, std::size_t h, std::size_t bw,
                     const real_t* x, real_t* out) {
    const core::Bccoo& f = *fmt_;
    const std::size_t b0 = chunk_start_[c];
    const std::size_t b1 = chunk_start_[c + 1];
    index_t seg = chunk_first_seg_[c];
    const std::uint32_t* words = f.bit_flags.words().data();
    const simd::DecodeShortFn dshort = simd::decode_short();
    const simd::DecodeDeltaFn ddelta = simd::decode_delta();
    // Per-tile decode scratch: 2 KB on the worker's stack, L1-resident.
    index_t buf[core::Bccoo::kColTile];
    constexpr std::size_t kTile = core::Bccoo::kColTile;
    if (h == 1 && bw == 1) {
      // Fast path for scalar blocks (the tuner's most common choice): walk
      // the chunk decode tile by decode tile, and within a tile segment
      // piece by segment piece — the packed bit flags are scanned a word at
      // a time for the next row stop, and each piece is a gathered dot
      // product on the SIMD kernel.  Scalar blocks are never padded, so x
      // is read in place.
      const real_t* vals = f.value_rows[0].data();
      // Chunks whose *average* segment is short (power-law matrices) take a
      // single-pass loop — one bit test per non-zero beats a per-segment
      // word scan + kernel call when segments hold only a few non-zeros.
      // The choice depends only on the format and the chunk decomposition
      // (i.e. the requested thread count), so determinism is unaffected.
      const std::size_t stops_c =
          static_cast<std::size_t>(chunk_first_seg_[c + 1]) -
          static_cast<std::size_t>(chunk_first_seg_[c]);
      if (stops_c * simd::kShortSegment > b1 - b0) {
        real_t acc = 0.0;
        bool fs = true;
        for (std::size_t t0 = b0; t0 < b1; t0 += kTile) {
          const std::size_t t1 = std::min(t0 + kTile, b1);
          const index_t* tc = tile_cols(t0, t1, buf, dshort, ddelta);
          for (std::size_t i = t0; i < t1; ++i) {
            acc += vals[i] * x[static_cast<std::size_t>(tc[i - t0])];
            if (!((words[i >> 5] >> (i & 31u)) & 1u)) {  // row stop
              if (fs) {
                firsts_[c] = acc;
                fs = false;
              } else {
                out[static_cast<std::size_t>(
                    f.seg_to_block_row[static_cast<std::size_t>(seg)])] = acc;
              }
              acc = 0.0;
              ++seg;
            }
          }
        }
        carries_[c] = acc;
        return;
      }
      // Piece-based loop.  A segment piece crossing a tile boundary is split
      // there and accumulated sequentially (part += dot(subpiece)); the
      // split points depend only on the format and the chunk decomposition,
      // never the column mode, which is what keeps raw/short/delta bitwise
      // identical.
      const simd::DotRangeFn dot = simd::dot_range();
      real_t part = 0.0;  // running sum of the currently open piece
      bool first_stop = true;
      for (std::size_t t0 = b0; t0 < b1; t0 += kTile) {
        const std::size_t t1 = std::min(t0 + kTile, b1);
        const index_t* tc = tile_cols(t0, t1, buf, dshort, ddelta);
        const real_t* tv = vals + t0;
        const std::size_t tn = t1 - t0;
        std::size_t i = t0;
        for (;;) {
          const std::size_t stop = simd::next_row_stop(words, i, t1);
          if (stop == t1) {  // open piece continues into the next tile
            if (i < t1) {
              part += simd::dot_piece(dot, tv, tc, x, i - t0, tn, tn);
            }
            break;
          }
          const real_t s =
              part + simd::dot_piece(dot, tv, tc, x, i - t0, stop + 1 - t0, tn);
          part = 0.0;
          if (first_stop) {
            // May continue from the previous chunk: defer to the fix-up.
            firsts_[c] = s;
            first_stop = false;
          } else {
            out[static_cast<std::size_t>(
                f.seg_to_block_row[static_cast<std::size_t>(seg)])] = s;
          }
          ++seg;
          i = stop + 1;
        }
      }
      carries_[c] = part;
      return;
    }
    const simd::DotDenseFn bdot = simd::dot_dense();
    real_t acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    bool first_stop = true;
    for (std::size_t t0 = b0; t0 < b1; t0 += kTile) {
      const std::size_t t1 = std::min(t0 + kTile, b1);
      const index_t* tc = tile_cols(t0, t1, buf, dshort, ddelta);
      for (std::size_t i = t0; i < t1; ++i) {
        const auto bcol = static_cast<std::size_t>(tc[i - t0]);
        // Zero-copy with a tail redirect: every block column starts in
        // bounds; only the (rare) padded last block column reads the
        // ctor-padded xtail_ scratch instead of x.
        const real_t* xv =
            bcol == pad_bcol_ ? xtail_.data() : x + bcol * bw;
        if (i + 4 < t1) {
          __builtin_prefetch(x + static_cast<std::size_t>(tc[i + 4 - t0]) * bw);
        }
        for (std::size_t k = 0; k < h; ++k) {
          acc[k] += bdot(f.value_rows[k].data() + i * bw, xv, bw);
        }
        if (!f.bit_flags.get(i)) {  // row stop
          if (first_stop) {
            // May continue from the previous chunk: defer to the fix-up.
            for (std::size_t k = 0; k < h; ++k) {
              firsts_[c * h + k] = acc[k];
              acc[k] = 0.0;
            }
            first_stop = false;
          } else {
            const auto sbrow = static_cast<std::size_t>(
                f.seg_to_block_row[static_cast<std::size_t>(seg)]);
            for (std::size_t k = 0; k < h; ++k) {
              out[sbrow * h + k] = acc[k];
              acc[k] = 0.0;
            }
          }
          ++seg;
        }
      }
    }
    for (std::size_t k = 0; k < h; ++k) carries_[c * h + k] = acc[k];
  }

  std::shared_ptr<const core::Bccoo> fmt_;
  unsigned threads_;
  core::ColStream cs_;
  grid::ChunkKernelFn grid_fn_ = nullptr;  ///< specialized kernel, or null
  const char* kernel_id_ = "generic";      ///< stable dispatch id
  FixupScratch fix_;  ///< speculative fix-up scratch (segfix.hpp)
  sim::FaultInjector* injector_ = nullptr;  ///< nullable kFlipPartial site
  bool direct_y_ = false;  ///< workers write y in place (1 slice, no row pad)
  unsigned shards_ = 1;  ///< locality domains (NUMA shard groups)
  std::vector<std::size_t> chunk_start_;
  std::vector<index_t> chunk_first_seg_;
  /// shards_ + 1 chunk boundaries (from the format's block shard grid).
  std::vector<std::size_t> shard_chunk_start_;
  /// shards_ + 1 row-chunk boundaries for the sharded combine pass.
  std::vector<std::size_t> combine_shard_start_;
  /// Per-shard x halo [lo, hi) — empty when unsharded.
  std::vector<std::pair<index_t, index_t>> shard_col_range_;
  FirstTouchBuffer<real_t> carries_;  ///< per chunk: trailing open-seg sum
  FirstTouchBuffer<real_t> firsts_;   ///< per chunk: first (partial) sum
  // Tail redirect for padded blocked formats (empty / never-matching when
  // cols divide evenly — the common case reads x with zero copies).
  std::size_t pad_bcol_ = static_cast<std::size_t>(-1);
  std::size_t tail_n_ = 0;       ///< live elements in the padded last block
  std::vector<real_t> xtail_;    ///< last block column, pad zeroed once
  FirstTouchBuffer<real_t> res_;  ///< slice-stacked results (!direct_y_)
  std::vector<std::size_t> zero_rows_;  ///< uncovered rows (direct_y_ only)
};

/// Multi-vector product Y = A * X (SpMM) on the BCCOO format: X and Y are
/// column-major n x k panels.  For scalar (1x1) blocks — the tuner's common
/// choice — a fused pass reads each non-zero (value, column, bit flag)
/// once and accumulates all k right-hand sides together, which is the
/// classic SpMM win over k SpMV calls; blocked formats fall back to the
/// per-vector path.  The fused path's chunk decomposition, row-stop scans
/// and uncovered-row list are precomputed in the constructor (next to the
/// CpuSpmv precomputation); the first/carry panels are cached across calls
/// and only reallocated when k changes.  Like CpuSpmv, covered rows are
/// assigned (not accumulated), so no full panel clear happens per call.
class CpuSpmm {
 public:
  explicit CpuSpmm(std::shared_ptr<const core::Bccoo> m, unsigned threads = 0,
                   core::ColStream cs = core::ColStream::kAuto,
                   grid::KernelDispatch kd = grid::KernelDispatch::kAuto)
      : fmt_(std::move(m)),
        eng_(fmt_, threads, cs, kd),
        threads_(threads == 0 ? default_workers() : threads),
        cs_(fmt_->resolve_col_stream(cs)) {
    const auto& f = *fmt_;
    if (f.cfg.block_w == 1 && f.cfg.block_h == 1 && f.cfg.slices == 1) {
      // The fused panel pass reuses the specialization grid: its block dims
      // are 1x1 by construction, so only the column stream is burned in.
      // Same fallback rule as CpuSpmv (kGeneric stays generic).
      if (kd == grid::KernelDispatch::kAuto) {
        if (const grid::SpmmGridEntry* e = grid::find_spmm(cs_)) {
          spmm_fn_ = e->fn;
          kernel_id_ = e->id;
        }
      }
    } else {
      // Blocked/sliced formats run k per-vector applies through eng_.
      kernel_id_ = eng_.kernel_id();
    }
    if (f.cfg.block_w == 1 && f.cfg.block_h == 1 && f.cfg.slices == 1 &&
        f.num_blocks > 0) {
      // Hoisted per-call work of the fused pass: chunk boundaries (rounded
      // down to decode-tile granularity, like CpuSpmv) and the
      // count_zeros_before scans (O(num_blocks) each) happen once here.
      const std::size_t nb = f.num_blocks;
      const std::size_t nchunks =
          std::max<std::size_t>(1, std::min<std::size_t>(threads_ * 4, nb));
      starts_.resize(nchunks + 1);
      first_seg_.resize(nchunks + 1);
      for (std::size_t c = 0; c <= nchunks; ++c) {
        std::size_t s = c * nb / nchunks;
        if (c != 0 && c != nchunks) {
          s = s / core::Bccoo::kColTile * core::Bccoo::kColTile;
        }
        starts_[c] = s;
        first_seg_[c] =
            static_cast<index_t>(f.bit_flags.count_zeros_before(starts_[c]));
      }
      // Rows no segment covers: the only ones the fused pass must clear.
      std::vector<bool> covered(static_cast<std::size_t>(f.rows), false);
      for (const index_t r : f.seg_to_block_row) {
        covered[static_cast<std::size_t>(r)] = true;
      }
      for (std::size_t r = 0; r < covered.size(); ++r) {
        if (!covered[r]) zero_rows_.push_back(r);
      }
    }
  }

  const core::Bccoo& format() const { return *fmt_; }
  /// Stable id of the kernel the fused panel pass dispatches to
  /// ("grid/spmm/<stream>" or "generic"); blocked/sliced formats report the
  /// per-vector engine's id.
  const char* kernel_id() const { return kernel_id_; }

  /// X: cols x k column-major, Y: rows x k column-major.
  void spmm(std::span<const real_t> X, std::span<real_t> Y, index_t k) {
    const auto& f = *fmt_;
    require(k > 0, "CpuSpmm: k must be positive");
    if (X.size() != static_cast<std::size_t>(f.cols) *
                        static_cast<std::size_t>(k) ||
        Y.size() != static_cast<std::size_t>(f.rows) *
                        static_cast<std::size_t>(k)) {
      require(false, "CpuSpmm[" + std::to_string(f.cfg.block_w) + "x" +
                         std::to_string(f.cfg.block_h) + "/" +
                         core::to_string(cs_) + "]: panel size mismatch: "
                         "got X[" + std::to_string(X.size()) + "] Y[" +
                         std::to_string(Y.size()) + "], need X[" +
                         std::to_string(static_cast<std::size_t>(f.cols) *
                                        static_cast<std::size_t>(k)) +
                         "] Y[" +
                         std::to_string(static_cast<std::size_t>(f.rows) *
                                        static_cast<std::size_t>(k)) +
                         "] for k=" + std::to_string(k));
    }
    if (f.cfg.block_w == 1 && f.cfg.block_h == 1 && f.cfg.slices == 1) {
      fused_scalar(X, Y, k);
      return;
    }
    for (index_t j = 0; j < k; ++j) {
      eng_.spmv(X.subspan(static_cast<std::size_t>(j) *
                              static_cast<std::size_t>(f.cols),
                          static_cast<std::size_t>(f.cols)),
                Y.subspan(static_cast<std::size_t>(j) *
                              static_cast<std::size_t>(f.rows),
                          static_cast<std::size_t>(f.rows)));
    }
  }

 private:
  void fused_scalar(std::span<const real_t> X, std::span<real_t> Y,
                    index_t k) {
    const auto& f = *fmt_;
    const auto kz = static_cast<std::size_t>(k);
    const auto colsz = static_cast<std::size_t>(f.cols);
    const auto rowsz = static_cast<std::size_t>(f.rows);
    if (f.num_blocks == 0) {
      std::fill(Y.begin(), Y.end(), 0.0);
      return;
    }
    for (const std::size_t r : zero_rows_) {
      for (std::size_t j = 0; j < kz; ++j) Y[j * rowsz + r] = 0.0;
    }
    const std::size_t nchunks = starts_.size() - 1;
    // Panel scratch (k values per chunk) is cached across calls; the per
    // chunk accumulator panel lives here too so the workers allocate
    // nothing.
    if (panels_k_ != kz) {
      firsts_.assign(nchunks * kz, 0.0);
      carries_.assign(nchunks * kz, 0.0);
      acc_panel_.assign(nchunks * kz, 0.0);
      panels_k_ = kz;
    }
    const real_t* vals = f.value_rows[0].data();
    const simd::DecodeShortFn dshort = simd::decode_short();
    const simd::DecodeDeltaFn ddelta = simd::decode_delta();

    // Specialized dispatch (stream burned in), same shape as CpuSpmv::spmv:
    // resolved at construction, branched once per chunk.
    const grid::SpmmCtx gctx{fmt_.get(),      starts_.data(),
                             first_seg_.data(), firsts_.data(),
                             carries_.data(), acc_panel_.data()};
    const grid::SpmmKernelFn gfn = spmm_fn_;
    const auto chunk_body = [&](unsigned, std::size_t c) {
      if (gfn) {
        gfn(gctx, c, X.data(), Y.data(), kz, colsz, rowsz);
        return;
      }
      real_t* acc = acc_panel_.data() + c * kz;
      std::fill(acc, acc + kz, 0.0);
      index_t seg = first_seg_[c];
      bool first_stop = true;
      index_t buf[core::Bccoo::kColTile];
      constexpr std::size_t kTile = core::Bccoo::kColTile;
      for (std::size_t t0 = starts_[c]; t0 < starts_[c + 1]; t0 += kTile) {
        const std::size_t t1 = std::min(t0 + kTile, starts_[c + 1]);
        const index_t* tc;
        if (cs_ == core::ColStream::kShort) {
          dshort(f.short_cols.data() + t0, buf, t1 - t0);
          tc = buf;
        } else if (cs_ == core::ColStream::kDelta) {
          const std::size_t t = t0 / kTile;
          ddelta(f.delta_cols.data() + t0, t1 - t0,
                 f.delta_escapes.data() + f.delta_escape_start[t], buf);
          tc = buf;
        } else {
          tc = f.col_index.data() + t0;
        }
        for (std::size_t i = t0; i < t1; ++i) {
          const real_t v = vals[i];
          const auto col = static_cast<std::size_t>(tc[i - t0]);
          if (i + 8 < t1) {
            __builtin_prefetch(&X[static_cast<std::size_t>(tc[i + 8 - t0])]);
          }
          for (std::size_t j = 0; j < kz; ++j) {
            acc[j] += v * X[j * colsz + col];  // one decode, k FMAs
          }
          if (!f.bit_flags.get(i)) {
            if (first_stop) {
              std::copy(acc, acc + kz, &firsts_[c * kz]);
              first_stop = false;
            } else {
              const auto row = static_cast<std::size_t>(
                  f.seg_to_block_row[static_cast<std::size_t>(seg)]);
              for (std::size_t j = 0; j < kz; ++j) Y[j * rowsz + row] = acc[j];
            }
            std::fill(acc, acc + kz, 0.0);
            ++seg;
          }
        }
      }
      std::copy(acc, acc + kz, &carries_[c * kz]);
    };
    parallel_for_unordered(nchunks, threads_, chunk_body);

    // Fix-up assigns, same injectivity argument as CpuSpmv::spmv.
    const simd::AccAddFn aadd = simd::acc_add();
    speculative_fixup(
        nchunks, kz, threads_, first_seg_.data(), firsts_.data(),
        carries_.data(), 0.0,
        [aadd, kz](real_t* dst, const real_t* src) { aadd(dst, src, kz); },
        [&](std::size_t c, const real_t* inc) {
          // Y panels are column-major, so the chunk's first-segment row is
          // strided — apply lane by lane.
          const auto row = static_cast<std::size_t>(
              f.seg_to_block_row[static_cast<std::size_t>(first_seg_[c])]);
          const real_t* fi = firsts_.data() + c * kz;
          for (std::size_t j = 0; j < kz; ++j) {
            Y[j * rowsz + row] = inc[j] + fi[j];
          }
        },
        fix_);
  }

  std::shared_ptr<const core::Bccoo> fmt_;
  CpuSpmv eng_;
  unsigned threads_;
  core::ColStream cs_;
  grid::SpmmKernelFn spmm_fn_ = nullptr;  ///< specialized fused pass, or null
  const char* kernel_id_ = "generic";     ///< stable dispatch id
  FixupScratch fix_;
  // Fused-path precomputation (1x1 blocks, 1 slice): chunk starts and the
  // first-segment ordinals, plus the cached per-chunk panels.
  std::vector<std::size_t> starts_;
  std::vector<index_t> first_seg_;
  std::vector<real_t> firsts_;
  std::vector<real_t> carries_;
  std::vector<real_t> acc_panel_;
  std::vector<std::size_t> zero_rows_;
  std::size_t panels_k_ = 0;
};

/// Parallel CSR SpMV baseline (row-range partitioning) for the CPU benches.
/// The row dot products run on the same SIMD dot kernel as the BCCOO path
/// (CSR rows are exactly stop-free segment pieces).
inline void spmv_csr_parallel(const fmt::Csr& m, std::span<const real_t> x,
                              std::span<real_t> y, unsigned threads = 0) {
  require(x.size() == static_cast<std::size_t>(m.cols) &&
              y.size() == static_cast<std::size_t>(m.rows),
          "spmv_csr_parallel: vector size mismatch");
  if (threads == 0) threads = default_workers();
  const std::size_t chunks = std::min<std::size_t>(
      threads * 4, std::max<std::size_t>(1, static_cast<std::size_t>(m.rows)));
  const simd::DotRangeFn dot = simd::dot_range();
  // Row ranges are independent (disjoint y writes, no carries), so the
  // unordered claim is bitwise identical and skips the per-range ticket.
  parallel_for_unordered(chunks, threads, [&](unsigned, std::size_t c) {
    const auto r0 = static_cast<index_t>(
        c * static_cast<std::size_t>(m.rows) / chunks);
    const auto r1 = static_cast<index_t>(
        (c + 1) * static_cast<std::size_t>(m.rows) / chunks);
    const real_t* vals = m.vals.data();
    const index_t* cols = m.col_idx.data();
    const real_t* xv = x.data();
    const auto pf_bound = static_cast<std::size_t>(
        m.row_ptr[static_cast<std::size_t>(r1)]);
    for (index_t r = r0; r < r1; ++r) {
      y[static_cast<std::size_t>(r)] = simd::dot_piece(
          dot, vals, cols, xv,
          static_cast<std::size_t>(m.row_ptr[static_cast<std::size_t>(r)]),
          static_cast<std::size_t>(m.row_ptr[static_cast<std::size_t>(r) + 1]),
          pf_bound);
    }
  });
}

}  // namespace yaspmv::cpu
