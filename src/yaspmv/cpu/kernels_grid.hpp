// Compile-time kernel specialization grid for the native BCCOO apply.
//
// The tuner prunes the block-dimension space to a handful of configs
// (tune/tuner.cpp: pruned_block_dims, the paper's Section 5 pruning) but the
// generic CpuSpmv executes every one of them through a single chunk kernel
// with runtime `block_w`/`block_h` loop bounds, an indirect dense-dot call
// per block row, and a column-stream switch per decode tile.  On the
// small-block configs that win on short-row matrices those branches ARE the
// inner loop.  This header instantiates one specialized chunk kernel per
// point of the grid
//
//     block_w in {1, 2, 4, 8}  x  block_h in {1, 2, 4}  x
//     ColStream in {raw, short, delta}
//
// with the block loops fully unrolled at compile time: a fixed
// `block_h`-row accumulator tile, width-`block_w` x-gathers feeding the
// fixed-width dense dots of simd.hpp (simd::dot_dense_fixed), and no
// runtime dims anywhere in the hot loop.  The dispatch layer in
// cpu/spmv.hpp routes an exact (bw, bh, stream) match here and falls back
// to the generic kernel otherwise — configs outside the grid and engines
// pinned to KernelDispatch::kGeneric keep the generic path.
//
// Bitwise-parity contract: every kernel in the grid mirrors the generic
// `CpuSpmv::process_chunk` *operation for operation* — same accumulation
// order, same short-segment heuristic on the scalar path, same tile
// splits, same dispatched SIMD primitives wherever the levels'
// expressions differ (see dot_dense_fixed's W=8 note).  At a fixed
// (threads, simd level) a specialized kernel produces bits identical to
// the generic one; kernel_grid_test sweeps every instantiation to enforce
// this.  Do not "optimise" a kernel body here in a way that reassociates
// floating-point work — that forks the determinism contract this grid
// extends.
//
// The grid is also the staging point for later emitting the same
// instantiations through codegen/opencl: each GridEntry's id names the
// kernel a code generator would emit.
//
// Budget note: tools/check_kernel_grid.sh counts YASPMV_GRID_ENTRY /
// YASPMV_SPMM_GRID_ENTRY occurrences and the stripped yaspmv_cli size.
// Grow the grid deliberately (and bump the budget there), not by accident.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "yaspmv/core/bccoo.hpp"
#include "yaspmv/cpu/simd.hpp"

namespace yaspmv::cpu::grid {

/// Dispatch knob for CpuSpmv/CpuSpmm: kAuto routes exact grid matches to
/// their specialized instantiation, kGeneric pins the generic kernel (the
/// bench baseline and the parity test's reference).
enum class KernelDispatch : std::uint8_t { kAuto = 0, kGeneric = 1 };

/// Everything a specialized chunk kernel needs from the engine, bundled so
/// the kernels stay free functions (function-pointer table entries) instead
/// of members.  Built per apply by CpuSpmv::spmv — pointers into the
/// engine's per-call state, never owned here.
struct ChunkCtx {
  const core::Bccoo* fmt;
  const std::size_t* chunk_start;   ///< nchunks+1 block boundaries
  const index_t* chunk_first_seg;   ///< nchunks+1 first-segment ordinals
  real_t* firsts;                   ///< per chunk x block_h deferred firsts
  real_t* carries;                  ///< per chunk x block_h trailing carries
  std::size_t pad_bcol;             ///< padded last block column (or -1)
  const real_t* xtail;              ///< tail-redirect scratch (pad case only)
};

using ChunkKernelFn = void (*)(const ChunkCtx&, std::size_t c,
                               const real_t* x, real_t* out);

/// Column source of decode tile [t0, t1) with the stream fixed at compile
/// time — the `if constexpr` twin of CpuSpmv::tile_cols.  Raw mode returns
/// a pointer straight into col_index (buf and the decode kernels unused);
/// compressed modes expand into `buf` exactly like the generic path.
template <core::ColStream CS>
inline const index_t* tile_cols_fixed(const core::Bccoo& f, std::size_t t0,
                                      std::size_t t1, index_t* buf,
                                      simd::DecodeShortFn dshort,
                                      simd::DecodeDeltaFn ddelta) {
  if constexpr (CS == core::ColStream::kShort) {
    (void)ddelta;
    dshort(f.short_cols.data() + t0, buf, t1 - t0);
    return buf;
  } else if constexpr (CS == core::ColStream::kDelta) {
    (void)dshort;
    const std::size_t t = t0 / core::Bccoo::kColTile;
    ddelta(f.delta_cols.data() + t0, t1 - t0,
           f.delta_escapes.data() + f.delta_escape_start[t], buf);
    return buf;
  } else {
    (void)buf;
    (void)dshort;
    (void)ddelta;
    return f.col_index.data() + t0;
  }
}

/// One specialized chunk kernel: CpuSpmv::process_chunk with (block_w,
/// block_h, stream) burned in.  Every branch of the generic body is
/// mirrored — including the scalar path's short-segment heuristic, whose
/// two loops produce DIFFERENT bits (single-pass accumulates per non-zero,
/// the piece loop reduces per piece through the SIMD dot), so the
/// specialized kernel must take the same branch the generic one would.
template <int BW, int BH, core::ColStream CS>
void run_chunk(const ChunkCtx& ctx, std::size_t c, const real_t* x,
               real_t* out) {
  static_assert((BW == 1 || BW == 2 || BW == 4 || BW == 8) &&
                    (BH == 1 || BH == 2 || BH == 4),
                "outside the tuner's pruned grid — extend deliberately");
  const core::Bccoo& f = *ctx.fmt;
  const std::size_t b0 = ctx.chunk_start[c];
  const std::size_t b1 = ctx.chunk_start[c + 1];
  index_t seg = ctx.chunk_first_seg[c];
  const std::uint32_t* words = f.bit_flags.words().data();
  simd::DecodeShortFn dshort = nullptr;
  simd::DecodeDeltaFn ddelta = nullptr;
  if constexpr (CS == core::ColStream::kShort) dshort = simd::decode_short();
  if constexpr (CS == core::ColStream::kDelta) ddelta = simd::decode_delta();
  index_t buf[core::Bccoo::kColTile];
  constexpr std::size_t kTile = core::Bccoo::kColTile;
  if constexpr (BW == 1 && BH == 1) {
    const real_t* vals = f.value_rows[0].data();
    // Same chunk-shape heuristic as the generic scalar path: short average
    // segments take the single-pass loop, long ones the piece loop.  The
    // branch depends only on the format and the chunk decomposition, so
    // specialized and generic always agree on it.
    const std::size_t stops_c =
        static_cast<std::size_t>(ctx.chunk_first_seg[c + 1]) -
        static_cast<std::size_t>(ctx.chunk_first_seg[c]);
    if (stops_c * simd::kShortSegment > b1 - b0) {
      real_t acc = 0.0;
      bool fs = true;
      for (std::size_t t0 = b0; t0 < b1; t0 += kTile) {
        const std::size_t t1 = std::min(t0 + kTile, b1);
        const index_t* tc = tile_cols_fixed<CS>(f, t0, t1, buf, dshort, ddelta);
        for (std::size_t i = t0; i < t1; ++i) {
          acc += vals[i] * x[static_cast<std::size_t>(tc[i - t0])];
          if (!((words[i >> 5] >> (i & 31u)) & 1u)) {  // row stop
            if (fs) {
              ctx.firsts[c] = acc;
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
      ctx.carries[c] = acc;
      return;
    }
    const simd::DotRangeFn dot = simd::dot_range();
    real_t part = 0.0;
    bool first_stop = true;
    for (std::size_t t0 = b0; t0 < b1; t0 += kTile) {
      const std::size_t t1 = std::min(t0 + kTile, b1);
      const index_t* tc = tile_cols_fixed<CS>(f, t0, t1, buf, dshort, ddelta);
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
          ctx.firsts[c] = s;
          first_stop = false;
        } else {
          out[static_cast<std::size_t>(
              f.seg_to_block_row[static_cast<std::size_t>(seg)])] = s;
        }
        ++seg;
        i = stop + 1;
      }
    }
    ctx.carries[c] = part;
    return;
  } else {
    // Blocked body: the value-row base pointers are hoisted out of the
    // block loop (the generic kernel re-derives f.value_rows[k].data()
    // per block per row) and both the k-loop trip count and the dense-dot
    // width are compile-time constants, so the whole accumulator update
    // flattens into straight-line multiply-adds.
    simd::DotDenseFn bdot = nullptr;
    if constexpr (BW == 2 || BW == 8) bdot = simd::dot_dense();
    const real_t* vrow[BH];
    for (int k = 0; k < BH; ++k) vrow[k] = f.value_rows[k].data();
    real_t acc[BH] = {};
    bool first_stop = true;
    for (std::size_t t0 = b0; t0 < b1; t0 += kTile) {
      const std::size_t t1 = std::min(t0 + kTile, b1);
      const index_t* tc = tile_cols_fixed<CS>(f, t0, t1, buf, dshort, ddelta);
      for (std::size_t i = t0; i < t1; ++i) {
        const auto bcol = static_cast<std::size_t>(tc[i - t0]);
        const real_t* xv =
            bcol == ctx.pad_bcol ? ctx.xtail : x + bcol * BW;
        if (i + 4 < t1) {
          __builtin_prefetch(x + static_cast<std::size_t>(tc[i + 4 - t0]) * BW);
        }
        for (int k = 0; k < BH; ++k) {
          acc[k] += simd::dot_dense_fixed<BW>(
              vrow[k] + i * static_cast<std::size_t>(BW), xv, bdot);
        }
        if (!f.bit_flags.get(i)) {  // row stop
          if (first_stop) {
            for (int k = 0; k < BH; ++k) {
              ctx.firsts[c * BH + static_cast<std::size_t>(k)] = acc[k];
              acc[k] = 0.0;
            }
            first_stop = false;
          } else {
            const auto sbrow = static_cast<std::size_t>(
                f.seg_to_block_row[static_cast<std::size_t>(seg)]);
            for (int k = 0; k < BH; ++k) {
              out[sbrow * BH + static_cast<std::size_t>(k)] = acc[k];
              acc[k] = 0.0;
            }
          }
          ++seg;
        }
      }
    }
    for (int k = 0; k < BH; ++k) {
      ctx.carries[c * BH + static_cast<std::size_t>(k)] = acc[k];
    }
  }
}

/// One point of the specialization grid.  `id` is the stable kernel name
/// recorded by the tuner / plan cache and reported by serve's kStats
/// ("generic" everywhere the grid does not apply).
struct GridEntry {
  int bw;
  int bh;
  core::ColStream cs;
  ChunkKernelFn fn;
  const char* id;
};

// The instantiation table.  Every entry goes through this macro so
// tools/check_kernel_grid.sh can count instantiations by grepping the
// source — add entries deliberately and bump the budget there.
#define YASPMV_GRID_ENTRY(W, H, STREAM, SLUG)                     \
  GridEntry {                                                     \
    W, H, core::ColStream::STREAM,                                \
        &run_chunk<W, H, core::ColStream::STREAM>,                \
        "grid/w" #W "h" #H "/" SLUG                               \
  }

inline constexpr GridEntry kGrid[] = {
    YASPMV_GRID_ENTRY(1, 1, kRaw, "raw"),
    YASPMV_GRID_ENTRY(1, 1, kShort, "short"),
    YASPMV_GRID_ENTRY(1, 1, kDelta, "delta"),
    YASPMV_GRID_ENTRY(2, 1, kRaw, "raw"),
    YASPMV_GRID_ENTRY(2, 1, kShort, "short"),
    YASPMV_GRID_ENTRY(2, 1, kDelta, "delta"),
    YASPMV_GRID_ENTRY(4, 1, kRaw, "raw"),
    YASPMV_GRID_ENTRY(4, 1, kShort, "short"),
    YASPMV_GRID_ENTRY(4, 1, kDelta, "delta"),
    YASPMV_GRID_ENTRY(8, 1, kRaw, "raw"),
    YASPMV_GRID_ENTRY(8, 1, kShort, "short"),
    YASPMV_GRID_ENTRY(8, 1, kDelta, "delta"),
    YASPMV_GRID_ENTRY(1, 2, kRaw, "raw"),
    YASPMV_GRID_ENTRY(1, 2, kShort, "short"),
    YASPMV_GRID_ENTRY(1, 2, kDelta, "delta"),
    YASPMV_GRID_ENTRY(2, 2, kRaw, "raw"),
    YASPMV_GRID_ENTRY(2, 2, kShort, "short"),
    YASPMV_GRID_ENTRY(2, 2, kDelta, "delta"),
    YASPMV_GRID_ENTRY(4, 2, kRaw, "raw"),
    YASPMV_GRID_ENTRY(4, 2, kShort, "short"),
    YASPMV_GRID_ENTRY(4, 2, kDelta, "delta"),
    YASPMV_GRID_ENTRY(8, 2, kRaw, "raw"),
    YASPMV_GRID_ENTRY(8, 2, kShort, "short"),
    YASPMV_GRID_ENTRY(8, 2, kDelta, "delta"),
    YASPMV_GRID_ENTRY(1, 4, kRaw, "raw"),
    YASPMV_GRID_ENTRY(1, 4, kShort, "short"),
    YASPMV_GRID_ENTRY(1, 4, kDelta, "delta"),
    YASPMV_GRID_ENTRY(2, 4, kRaw, "raw"),
    YASPMV_GRID_ENTRY(2, 4, kShort, "short"),
    YASPMV_GRID_ENTRY(2, 4, kDelta, "delta"),
    YASPMV_GRID_ENTRY(4, 4, kRaw, "raw"),
    YASPMV_GRID_ENTRY(4, 4, kShort, "short"),
    YASPMV_GRID_ENTRY(4, 4, kDelta, "delta"),
    YASPMV_GRID_ENTRY(8, 4, kRaw, "raw"),
    YASPMV_GRID_ENTRY(8, 4, kShort, "short"),
    YASPMV_GRID_ENTRY(8, 4, kDelta, "delta"),
};

#undef YASPMV_GRID_ENTRY

/// Exact-match lookup; nullptr for configs outside the grid (the caller
/// keeps the generic kernel).  The table is 36 entries — a linear scan at
/// engine-construction time, never in the hot loop.
inline const GridEntry* find(int bw, int bh, core::ColStream cs) {
  for (const GridEntry& e : kGrid) {
    if (e.bw == bw && e.bh == bh && e.cs == cs) return &e;
  }
  return nullptr;
}

/// The kernel id a CpuSpmv built with kAuto dispatch would report for this
/// config, without building one.  Pure function of its arguments — the
/// tuner and serve use it to record/attribute plans, and plan replay
/// depends on it matching the engine's actual dispatch.
inline const char* dispatch_kernel_id(int bw, int bh, core::ColStream cs) {
  const GridEntry* e = find(bw, bh, cs);
  return e ? e->id : "generic";
}

// ---------------------------------------------------------------------------
// SpMM panel grid: CpuSpmm::fused_scalar's chunk body specialized over the
// column stream (its block dims are fixed 1x1 by construction).  The panel
// width k stays a runtime parameter — it is workload, not format.
// ---------------------------------------------------------------------------

struct SpmmCtx {
  const core::Bccoo* fmt;
  const std::size_t* starts;
  const index_t* first_seg;
  real_t* firsts;
  real_t* carries;
  real_t* acc_panel;
};

using SpmmKernelFn = void (*)(const SpmmCtx&, std::size_t c, const real_t* X,
                              real_t* Y, std::size_t kz, std::size_t colsz,
                              std::size_t rowsz);

/// CpuSpmm::fused_scalar's chunk body with the column stream burned in —
/// same accumulation order, same panel assignment, bitwise identical to the
/// generic fused pass at a fixed (threads, simd level).
template <core::ColStream CS>
void run_spmm_chunk(const SpmmCtx& ctx, std::size_t c, const real_t* X,
                    real_t* Y, std::size_t kz, std::size_t colsz,
                    std::size_t rowsz) {
  const core::Bccoo& f = *ctx.fmt;
  const real_t* vals = f.value_rows[0].data();
  simd::DecodeShortFn dshort = nullptr;
  simd::DecodeDeltaFn ddelta = nullptr;
  if constexpr (CS == core::ColStream::kShort) dshort = simd::decode_short();
  if constexpr (CS == core::ColStream::kDelta) ddelta = simd::decode_delta();
  real_t* acc = ctx.acc_panel + c * kz;
  std::fill(acc, acc + kz, 0.0);
  index_t seg = ctx.first_seg[c];
  bool first_stop = true;
  index_t buf[core::Bccoo::kColTile];
  constexpr std::size_t kTile = core::Bccoo::kColTile;
  for (std::size_t t0 = ctx.starts[c]; t0 < ctx.starts[c + 1]; t0 += kTile) {
    const std::size_t t1 = std::min(t0 + kTile, ctx.starts[c + 1]);
    const index_t* tc = tile_cols_fixed<CS>(f, t0, t1, buf, dshort, ddelta);
    for (std::size_t i = t0; i < t1; ++i) {
      const real_t v = vals[i];
      const auto col = static_cast<std::size_t>(tc[i - t0]);
      if (i + 8 < t1) {
        __builtin_prefetch(X + static_cast<std::size_t>(tc[i + 8 - t0]));
      }
      for (std::size_t j = 0; j < kz; ++j) {
        acc[j] += v * X[j * colsz + col];  // one decode, k FMAs
      }
      if (!f.bit_flags.get(i)) {
        if (first_stop) {
          std::copy(acc, acc + kz, ctx.firsts + c * kz);
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
  std::copy(acc, acc + kz, ctx.carries + c * kz);
}

struct SpmmGridEntry {
  core::ColStream cs;
  SpmmKernelFn fn;
  const char* id;
};

#define YASPMV_SPMM_GRID_ENTRY(STREAM, SLUG)                       \
  SpmmGridEntry {                                                  \
    core::ColStream::STREAM, &run_spmm_chunk<core::ColStream::STREAM>, \
        "grid/spmm/" SLUG                                          \
  }

inline constexpr SpmmGridEntry kSpmmGrid[] = {
    YASPMV_SPMM_GRID_ENTRY(kRaw, "raw"),
    YASPMV_SPMM_GRID_ENTRY(kShort, "short"),
    YASPMV_SPMM_GRID_ENTRY(kDelta, "delta"),
};

#undef YASPMV_SPMM_GRID_ENTRY

inline const SpmmGridEntry* find_spmm(core::ColStream cs) {
  for (const SpmmGridEntry& e : kSpmmGrid) {
    if (e.cs == cs) return &e;
  }
  return nullptr;
}

}  // namespace yaspmv::cpu::grid
