// The BCCOO / BCCOO+ sparse-matrix format (Sections 2.2 and 2.3).
//
// BCCOO extends blocked COO by replacing the per-block row-index array with
// a bit-flag array: bit i is 0 iff block i is the last non-zero block of its
// block-row ("row stop").  The compression is lossless — row indices are the
// running count of row stops — and shrinks the row-index storage by the
// word-width factor (32x for int indices).
//
// BCCOO+ additionally partitions the matrix into vertical slices stacked
// top-down before blocking, which concentrates the column range touched by
// consecutive blocks and therefore the multiplied-vector cache locality.
// Column indices remain *original-matrix* block coordinates so the kernel
// can index the multiplied vector directly; a combine kernel later sums the
// per-slice partial results (Figure 5).
//
// Column-index compression (Sections 2.2 and 4) is *materialized* here, not
// just charged by the footprint model:
//
//   * `delta_cols` — per-tile int16 deltas (tile = kColTile blocks, the CPU
//     analog of the paper's per-thread tile).  The first entry of a tile is
//     a delta from 0; an entry whose delta does not fit (or equals -1, the
//     escape sentinel) stores kDeltaEscape and reads its absolute column
//     from the 4-byte `delta_escapes` side array.  `delta_escape_start`
//     maps a tile to its first escape ordinal so tiles decode independently.
//   * `short_cols` — absolute u16 columns, present iff block_cols fits.
//
// The streams are derived data: `build` materializes them (in parallel on
// the shared WorkPool) and deserialization rebuilds them, so the binary
// format is unchanged.  The builder itself is also parallel — sort-based
// bucketing over (stacked block-row, block-col) keys with a total order, so
// the output is byte-identical for every worker count.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "yaspmv/core/config.hpp"
#include "yaspmv/core/status.hpp"
#include "yaspmv/formats/coo.hpp"
#include "yaspmv/util/bitops.hpp"
#include "yaspmv/util/common.hpp"
#include "yaspmv/util/thread_pool.hpp"

namespace yaspmv::core {

/// Which materialized column stream a native kernel reads.  kAuto resolves
/// to the smallest stream available (short when block_cols fits, else delta,
/// else the raw 4-byte array).
enum class ColStream : std::uint8_t { kAuto = 0, kRaw = 1, kShort = 2, kDelta = 3 };

inline const char* to_string(ColStream cs) {
  switch (cs) {
    case ColStream::kRaw: return "raw";
    case ColStream::kShort: return "short";
    case ColStream::kDelta: return "delta";
    default: return "auto";
  }
}

struct Bccoo {
  /// Decode-tile size in blocks for the materialized column streams.  CPU
  /// kernel chunks align to this boundary so every tile decodes
  /// independently (its first entry is a delta from 0), and segment pieces
  /// split at tile boundaries in *every* column mode so results are bitwise
  /// identical across raw/short/delta.
  static constexpr std::size_t kColTile = 512;

  // Original matrix shape.
  index_t rows = 0;
  index_t cols = 0;

  FormatConfig cfg;

  index_t block_rows = 0;    ///< ceil(rows / block_h) (per slice-stacked row)
  index_t block_cols = 0;    ///< ceil(cols / block_w), original coordinates
  index_t stacked_block_rows = 0;  ///< block-rows of the slice-stacked matrix

  std::size_t num_blocks = 0;  ///< non-zero blocks (before kernel padding)

  /// Bit i = 0 iff block i ends its block-row (row stop).  Length num_blocks.
  BitArray bit_flags;

  /// Block-column index per block, in *original matrix* coordinates (so
  /// y-block = col_index[i] * block_w works for both BCCOO and BCCOO+).
  std::vector<index_t> col_index;

  /// block_h value arrays; value_rows[r][i*block_w + c] is element (r, c) of
  /// block i (Figure 3's two value arrays for a 2x2 block size).
  std::vector<std::vector<real_t>> value_rows;

  /// segment ordinal -> block-row in the slice-stacked matrix.  The paper's
  /// matrices have no empty rows so this is the identity there; we
  /// materialize it to support arbitrary inputs (DESIGN.md "Known
  /// deviations").  Size = number of segments (= row stops).
  std::vector<index_t> seg_to_block_row;

  /// True when seg_to_block_row is the identity (no empty block-rows).
  bool identity_segments = true;

  // --- materialized compressed column streams (Sections 2.2 and 4) --------
  /// Per-tile int16 deltas; kDeltaEscape entries read `delta_escapes`.
  std::vector<std::int16_t> delta_cols;
  /// Absolute columns of the escaped entries, in stream order.
  std::vector<index_t> delta_escapes;
  /// Per-tile first escape ordinal (length num_col_tiles() + 1), so a tile
  /// decodes without scanning its predecessors.
  std::vector<std::uint32_t> delta_escape_start;
  /// Absolute u16 columns; empty unless block_cols <= 65535.
  std::vector<std::uint16_t> short_cols;
  /// True once the streams above were materialized (build / rebuild).
  bool col_streams_built = false;

  // --- ABFT column-checksum plan (data integrity) -------------------------
  // The classic column-checksum invariant: for any x,
  //     sum(y) == (A^T 1)^T x            (within a computed rounding bound)
  // so a verified apply needs one dot against `checksum_w` plus one sum over
  // y.  `checksum_wabs` = |A|^T 1 feeds the bound (sum of |a_ij| |x_j|), and
  // `checksum_depth` is the longest rounding path any single term can take
  // through either side of the comparison — see core/checksum.hpp for the
  // derivation.  Per-slice checksums are free: slices partition the
  // block-columns contiguously, so slice s's checksum is the dot of
  // `checksum_w` restricted to slice_col_range(s).
  std::vector<real_t> checksum_w;     ///< A^T 1, length cols
  std::vector<real_t> checksum_wabs;  ///< |A|^T 1, length cols
  std::uint64_t checksum_depth = 0;   ///< rounding-path depth for the bound
  bool checksums_built = false;

  bool operator==(const Bccoo&) const = default;

  std::size_t num_segments() const { return seg_to_block_row.size(); }

  std::size_t num_col_tiles() const {
    return num_blocks == 0 ? 0 : ceil_div(num_blocks, kColTile);
  }

  /// Resolves kAuto to the cheapest materialized stream; a concrete request
  /// degrades to kRaw only when the stream is unavailable (short columns on
  /// a matrix wider than 65535 block-columns, or streams not built).
  ColStream resolve_col_stream(ColStream req) const {
    const bool short_ok = col_streams_built && !short_cols.empty();
    const bool delta_ok = col_streams_built && num_blocks > 0;
    switch (req) {
      case ColStream::kRaw: return ColStream::kRaw;
      case ColStream::kShort:
        return short_ok ? ColStream::kShort : ColStream::kRaw;
      case ColStream::kDelta:
        return delta_ok ? ColStream::kDelta : ColStream::kRaw;
      default:
        if (short_ok) return ColStream::kShort;
        if (delta_ok) return ColStream::kDelta;
        return ColStream::kRaw;
    }
  }

  /// Builds BCCOO (cfg.slices == 1) or BCCOO+ (cfg.slices > 1) from a
  /// canonical COO matrix.  `workers` bounds the WorkPool parallelism of the
  /// sort/scatter passes (0 = hardware concurrency); the result is
  /// byte-identical for every value because each pass either writes disjoint
  /// slots or reduces in a fixed enumeration order.
  static Bccoo build(const fmt::Coo& a, const FormatConfig& cfg,
                     unsigned workers = 0) {
    require(cfg.block_w > 0 && cfg.block_h > 0, "BCCOO: bad block dims");
    require(cfg.slices >= 1, "BCCOO: slices must be >= 1");
    if (workers == 0) workers = default_workers();
    Bccoo m;
    m.rows = a.rows;
    m.cols = a.cols;
    m.cfg = cfg;
    m.block_rows = ceil_div(a.rows, cfg.block_h);
    m.block_cols = ceil_div(a.cols, cfg.block_w);
    m.stacked_block_rows = m.block_rows * cfg.slices;

    // Slice width in block-columns: slices are aligned to block boundaries
    // so every block falls into exactly one slice.
    const index_t slice_bcols = ceil_div(m.block_cols, cfg.slices);

    const std::size_t n = a.nnz();
    require(n < (1ull << 32), "BCCOO: nnz exceeds the 32-bit builder limit");
    const std::size_t par_chunks =
        std::max<std::size_t>(1, std::min<std::size_t>(workers * 4, n));

    // ---- pass 1: per-nonzero (stacked block-row, block-col) keys ---------
    std::vector<std::uint64_t> key(n);
    parallel_for_ordered(par_chunks, workers, [&](unsigned, std::size_t c) {
      const std::size_t lo = c * n / par_chunks;
      const std::size_t hi = (c + 1) * n / par_chunks;
      for (std::size_t i = lo; i < hi; ++i) {
        const index_t brow = a.row_idx[i] / cfg.block_h;
        const index_t bcol = a.col_idx[i] / cfg.block_w;
        const index_t slice = bcol / slice_bcols;
        const index_t stacked_brow = slice * m.block_rows + brow;
        key[i] = (static_cast<std::uint64_t>(stacked_brow) << 32) |
                 static_cast<std::uint32_t>(bcol);
      }
    });

    // ---- pass 2: sort non-zeros by key (ties by original index, so the
    // permutation is a total order and therefore unique) -------------------
    std::vector<std::uint32_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
    const auto less = [&](std::uint32_t l, std::uint32_t r) {
      return key[l] != key[r] ? key[l] < key[r] : l < r;
    };
    {
      // Chunked sort + pairwise merges on the pool.  The merge tree shape
      // depends only on `sort_chunks`, and the sorted result is unique under
      // the total order anyway, so any worker count gives the same bytes.
      std::size_t sort_chunks = 1;
      while (sort_chunks < std::min<std::size_t>(workers, 64)) sort_chunks *= 2;
      if (n < 2 * sort_chunks) sort_chunks = 1;
      std::vector<std::size_t> bound(sort_chunks + 1);
      for (std::size_t c = 0; c <= sort_chunks; ++c) {
        bound[c] = c * n / sort_chunks;
      }
      parallel_for_ordered(sort_chunks, workers, [&](unsigned, std::size_t c) {
        std::sort(order.begin() + static_cast<std::ptrdiff_t>(bound[c]),
                  order.begin() + static_cast<std::ptrdiff_t>(bound[c + 1]),
                  less);
      });
      for (std::size_t width = 1; width < sort_chunks; width *= 2) {
        const std::size_t pairs = sort_chunks / (2 * width);
        parallel_for_ordered(pairs, workers, [&](unsigned, std::size_t p) {
          const std::size_t lo = bound[p * 2 * width];
          const std::size_t mid = bound[p * 2 * width + width];
          const std::size_t hi = bound[(p + 1) * 2 * width];
          std::inplace_merge(order.begin() + static_cast<std::ptrdiff_t>(lo),
                             order.begin() + static_cast<std::ptrdiff_t>(mid),
                             order.begin() + static_cast<std::ptrdiff_t>(hi),
                             less);
        });
      }
    }

    // ---- pass 3: block boundaries + block ordinals -----------------------
    // head[i] = 1 iff sorted position i starts a new block; block_of[i] is
    // the running head count (exclusive prefix), computed chunk-local then
    // shifted by a serial O(chunks) prefix.
    std::vector<std::uint32_t> block_of(n);
    std::vector<std::size_t> chunk_heads(par_chunks + 1, 0);
    parallel_for_ordered(par_chunks, workers, [&](unsigned, std::size_t c) {
      const std::size_t lo = c * n / par_chunks;
      const std::size_t hi = (c + 1) * n / par_chunks;
      std::size_t heads = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        if (i == 0 || key[order[i]] != key[order[i - 1]]) ++heads;
        block_of[i] = static_cast<std::uint32_t>(heads);  // 1-based for now
      }
      chunk_heads[c + 1] = heads;
    });
    for (std::size_t c = 0; c < par_chunks; ++c) {
      chunk_heads[c + 1] += chunk_heads[c];
    }
    parallel_for_ordered(par_chunks, workers, [&](unsigned, std::size_t c) {
      const std::size_t lo = c * n / par_chunks;
      const std::size_t hi = (c + 1) * n / par_chunks;
      const auto base = static_cast<std::uint32_t>(chunk_heads[c]);
      for (std::size_t i = lo; i < hi; ++i) block_of[i] += base - 1;
    });
    m.num_blocks = chunk_heads[par_chunks];

    // ---- pass 4: per-block column / stacked block-row, value scatter -----
    const std::size_t nb = m.num_blocks;
    m.col_index.assign(nb, 0);
    std::vector<index_t> sbrow(nb);
    const auto bwz = static_cast<std::size_t>(cfg.block_w);
    m.value_rows.assign(static_cast<std::size_t>(cfg.block_h), {});
    for (auto& vr : m.value_rows) vr.assign(nb * bwz, 0.0);
    parallel_for_ordered(par_chunks, workers, [&](unsigned, std::size_t c) {
      const std::size_t lo = c * n / par_chunks;
      const std::size_t hi = (c + 1) * n / par_chunks;
      for (std::size_t i = lo; i < hi; ++i) {
        const std::size_t src = order[i];
        const std::size_t b = block_of[i];
        if (i == 0 || key[order[i]] != key[order[i - 1]]) {
          m.col_index[b] = static_cast<index_t>(key[src] & 0xFFFFFFFFu);
          sbrow[b] = static_cast<index_t>(key[src] >> 32);
        }
        const index_t lr = a.row_idx[src] % cfg.block_h;
        const index_t lc = a.col_idx[src] % cfg.block_w;
        m.value_rows[static_cast<std::size_t>(lr)]
                    [b * bwz + static_cast<std::size_t>(lc)] = a.vals[src];
      }
    });

    // ---- pass 5: bit flags (word-parallel) + segment map -----------------
    // Block b is a row stop iff the next block starts a new block-row.  Each
    // worker range covers whole 32-bit words, so writes never share a word.
    const std::size_t nwords = (nb + 31) / 32;
    std::vector<std::uint32_t> words(nwords, 0);
    const std::size_t word_chunks =
        std::max<std::size_t>(1, std::min<std::size_t>(workers * 4, nwords));
    parallel_for_ordered(word_chunks, workers, [&](unsigned, std::size_t c) {
      const std::size_t w0 = c * nwords / word_chunks;
      const std::size_t w1 = (c + 1) * nwords / word_chunks;
      for (std::size_t w = w0; w < w1; ++w) {
        std::uint32_t v = 0;
        const std::size_t b0 = w << 5;
        const std::size_t b1 = std::min(b0 + 32, nb);
        for (std::size_t b = b0; b < b1; ++b) {
          const bool stop = (b + 1 == nb) || sbrow[b + 1] != sbrow[b];
          if (!stop) v |= 1u << (b - b0);
        }
        words[w] = v;
      }
    });
    m.bit_flags = BitArray::from_words(nb, std::move(words));

    // Segment map: the stacked block-row of every row stop, in block order.
    m.seg_to_block_row.reserve(nb == 0 ? 0 : 16);
    for (std::size_t b = 0; b < nb; ++b) {
      if (b == 0 || sbrow[b] != sbrow[b - 1]) {
        m.seg_to_block_row.push_back(sbrow[b]);
      }
    }
    m.identity_segments = true;
    for (std::size_t s = 0; s < m.seg_to_block_row.size(); ++s) {
      if (m.seg_to_block_row[s] != static_cast<index_t>(s)) {
        m.identity_segments = false;
        break;
      }
    }

    m.build_col_streams(workers);
    m.build_checksums();
    return m;
  }

  /// Slice width in block-columns (slices partition the block-columns
  /// contiguously; the last slice may be narrower).
  index_t slice_block_cols() const { return ceil_div(block_cols, cfg.slices); }

  /// Original-column half-open range [lo, hi) covered by slice s.  Because
  /// the slices partition the columns, the per-slice checksum dots over
  /// these ranges sum to the global checksum dot.
  std::pair<index_t, index_t> slice_col_range(index_t s) const {
    const auto sb = static_cast<std::int64_t>(slice_block_cols());
    const auto bw = static_cast<std::int64_t>(cfg.block_w);
    const std::int64_t lo = std::min<std::int64_t>(cols, s * sb * bw);
    const std::int64_t hi = std::min<std::int64_t>(cols, (s + 1) * sb * bw);
    return {static_cast<index_t>(lo), static_cast<index_t>(hi)};
  }

  /// Materializes the ABFT column checksums from the stored blocks.  The
  /// accumulation is serial in block order, so the plan is byte-identical
  /// for *every* worker count (stronger than the builder's per-worker-count
  /// contract, and cheap next to the build's sorts: one O(nnz) pass).
  /// Re-running it reproduces the same bytes, which validate() exploits to
  /// localize value-stream corruption.
  void build_checksums() {
    compute_checksums(checksum_w, checksum_wabs, checksum_depth);
    checksums_built = true;
  }

  /// Materializes the compressed column streams from `col_index` (also used
  /// after deserialization — the streams are derived data and are not part
  /// of the binary format).  Tiles encode independently: escape counts per
  /// tile, a serial O(tiles) prefix, then a parallel fill at fixed offsets,
  /// so the streams are byte-identical for every worker count.
  void build_col_streams(unsigned workers = 0) {
    if (workers == 0) workers = default_workers();
    const std::size_t nb = num_blocks;
    const std::size_t nt = num_col_tiles();
    delta_cols.assign(nb, 0);
    delta_escape_start.assign(nt + 1, 0);
    delta_escapes.clear();
    short_cols.clear();

    const auto delta_of = [&](std::size_t i, std::size_t t0) -> std::int64_t {
      const std::int64_t prev =
          i == t0 ? 0 : static_cast<std::int64_t>(col_index[i - 1]);
      return static_cast<std::int64_t>(col_index[i]) - prev;
    };
    parallel_for_ordered(nt, workers, [&](unsigned, std::size_t t) {
      const std::size_t t0 = t * kColTile;
      const std::size_t t1 = std::min(t0 + kColTile, nb);
      std::uint32_t esc = 0;
      for (std::size_t i = t0; i < t1; ++i) {
        const std::int64_t d = delta_of(i, t0);
        if (!fits_short_delta(d) || d == -1) ++esc;
      }
      delta_escape_start[t + 1] = esc;
    });
    for (std::size_t t = 0; t < nt; ++t) {
      delta_escape_start[t + 1] += delta_escape_start[t];
    }
    delta_escapes.assign(delta_escape_start[nt], 0);
    parallel_for_ordered(nt, workers, [&](unsigned, std::size_t t) {
      const std::size_t t0 = t * kColTile;
      const std::size_t t1 = std::min(t0 + kColTile, nb);
      std::size_t e = delta_escape_start[t];
      for (std::size_t i = t0; i < t1; ++i) {
        const std::int64_t d = delta_of(i, t0);
        if (!fits_short_delta(d) || d == -1) {
          delta_cols[i] = kDeltaEscape;
          delta_escapes[e++] = col_index[i];
        } else {
          delta_cols[i] = static_cast<std::int16_t>(d);
        }
      }
    });

    if (block_cols <= 65535) {
      short_cols.resize(nb);
      const std::size_t chunks =
          std::max<std::size_t>(1, std::min<std::size_t>(workers * 4, nb));
      parallel_for_ordered(chunks, workers, [&](unsigned, std::size_t c) {
        const std::size_t lo = c * nb / chunks;
        const std::size_t hi = (c + 1) * nb / chunks;
        for (std::size_t i = lo; i < hi; ++i) {
          short_cols[i] = static_cast<std::uint16_t>(col_index[i]);
        }
      });
    }
    col_streams_built = true;
  }

  /// Structural invariant checker, run before planning (ResilientEngine) and
  /// after deserialization (load_bccoo): every relation the kernels assume
  /// between the arrays must hold, otherwise the SpMV would read out of
  /// bounds or scatter results to the wrong rows.  Throws FormatInvalid with
  /// the violated invariant; NaN/Inf values are rejected unless
  /// `allow_nonfinite` (they would silently poison every segment downstream
  /// of theirs).
  void validate(bool allow_nonfinite = false) const {
    const auto check = [](bool ok, const std::string& what) {
      if (!ok) throw FormatInvalid("Bccoo: " + what);
    };
    check(rows >= 0 && cols >= 0, "negative matrix shape");
    check(cfg.block_w >= 1 && cfg.block_h >= 1, "block dims must be >= 1");
    check(cfg.slices >= 1, "slice count must be >= 1");
    check(block_rows == ceil_div(rows, cfg.block_h),
          "block_rows inconsistent with rows/block_h");
    check(block_cols == ceil_div(cols, cfg.block_w),
          "block_cols inconsistent with cols/block_w");
    check(stacked_block_rows == block_rows * cfg.slices,
          "stacked_block_rows != block_rows * slices");
    check(bit_flags.size() == num_blocks, "bit-flag length != block count");
    check(col_index.size() == num_blocks, "col-index length != block count");
    check(value_rows.size() == static_cast<std::size_t>(cfg.block_h),
          "value-array count != block height");
    const std::size_t row_len =
        num_blocks * static_cast<std::size_t>(cfg.block_w);
    for (const auto& vr : value_rows) {
      check(vr.size() == row_len, "per-row value-array length mismatch");
    }
    // Bit-flag <-> segment relation: row stops (0-bits) enumerate exactly
    // the non-empty block-rows, and the last block always closes its row.
    check(bit_flags.count_zeros() == seg_to_block_row.size(),
          "row-stop count != segment-map length");
    if (num_blocks > 0) {
      check(!bit_flags.get(num_blocks - 1),
            "final block does not terminate its block-row");
    }
    index_t prev = -1;
    for (std::size_t s = 0; s < seg_to_block_row.size(); ++s) {
      const index_t b = seg_to_block_row[s];
      check(b > prev, "segment map not strictly increasing");
      check(b >= 0 && b < stacked_block_rows,
            "segment map entry out of range");
      prev = b;
    }
    if (identity_segments) {
      for (std::size_t s = 0; s < seg_to_block_row.size(); ++s) {
        check(seg_to_block_row[s] == static_cast<index_t>(s),
              "identity_segments set but segment map is not the identity");
      }
    }
    for (const index_t c : col_index) {
      check(c >= 0 && c < block_cols, "block-column index out of range");
    }
    if (col_streams_built) validate_col_streams(check);
    if (checksums_built) validate_checksums(check);
    if (!allow_nonfinite) {
      for (const auto& vr : value_rows) {
        for (const real_t v : vr) {
          check(std::isfinite(v), "non-finite block value");
        }
      }
    }
  }

  /// Exact bytes a native kernel loads from the stored format per SpMV under
  /// column stream `cs` (host-side widths: 8-byte values, 4-byte indices,
  /// the physical u32 bit-flag words).  This is the *measured* side of the
  /// modeled-vs-measured comparison — escapes counted from the materialized
  /// stream, not estimated.
  std::size_t traffic_bytes(ColStream cs) const {
    const ColStream r = resolve_col_stream(cs);
    std::size_t col;
    if (r == ColStream::kDelta) {
      col = num_blocks * sizeof(std::int16_t) +
            delta_escapes.size() * sizeof(index_t) +
            delta_escape_start.size() * sizeof(std::uint32_t);
    } else if (r == ColStream::kShort) {
      col = num_blocks * sizeof(std::uint16_t);
    } else {
      col = num_blocks * sizeof(index_t);
    }
    const std::size_t vals = num_blocks *
                             static_cast<std::size_t>(cfg.block_w) *
                             static_cast<std::size_t>(cfg.block_h) *
                             sizeof(real_t);
    std::size_t seg = 0;
    if (!identity_segments) seg = seg_to_block_row.size() * sizeof(index_t);
    return bit_flags.words().size() * sizeof(std::uint32_t) + col + vals + seg;
  }

  /// Table 3 footprint model of the stored arrays: packed bit flags +
  /// column indices + zero-filled block values.  `short_col` selects the
  /// Section 4 unsigned-short column-index optimization; `delta_col` the
  /// Section 2.2 int16 delta compression (escapes charged 4 bytes each —
  /// `delta_escapes` of them, computed against a thread-tile segmentation by
  /// the plan; pass 0 to cost pure formats).
  std::size_t footprint_bytes(bool short_col = false, bool delta_col = false,
                              std::size_t model_escapes = 0) const {
    const std::size_t bf = bit_flags.footprint_bytes(cfg.bf_word);
    std::size_t col;
    if (delta_col) {
      col = num_blocks * bytes::kShortIndex + model_escapes * bytes::kIndex;
    } else if (short_col) {
      col = num_blocks * bytes::kShortIndex;
    } else {
      col = num_blocks * bytes::kIndex;
    }
    const std::size_t vals = num_blocks *
                             static_cast<std::size_t>(cfg.block_w) *
                             static_cast<std::size_t>(cfg.block_h) *
                             bytes::kValue;
    std::size_t seg = 0;
    if (!identity_segments) seg = seg_to_block_row.size() * bytes::kIndex;
    return bf + col + vals + seg;
  }

  /// Decodes the format back to canonical COO (drops the zero fill inside
  /// blocks).  Together with `build`, proves the whole encoding — bit
  /// flags, slice stacking, column coordinates, per-row value arrays — is
  /// lossless.
  fmt::Coo to_coo() const {
    std::vector<index_t> ri, ci;
    std::vector<real_t> v;
    std::size_t seg = 0;
    index_t stacked_brow =
        num_blocks == 0 ? 0 : seg_to_block_row[0];
    for (std::size_t i = 0; i < num_blocks; ++i) {
      const index_t brow = stacked_brow % block_rows;  // undo slice stack
      for (index_t lr = 0; lr < cfg.block_h; ++lr) {
        const index_t r = brow * cfg.block_h + lr;
        if (r >= rows) continue;
        for (index_t lc = 0; lc < cfg.block_w; ++lc) {
          const index_t c = col_index[i] * cfg.block_w + lc;
          if (c >= cols) continue;
          const real_t x =
              value_rows[static_cast<std::size_t>(lr)]
                        [i * static_cast<std::size_t>(cfg.block_w) +
                         static_cast<std::size_t>(lc)];
          if (x != 0.0) {
            ri.push_back(r);
            ci.push_back(c);
            v.push_back(x);
          }
        }
      }
      if (!bit_flags.get(i) && seg + 1 < seg_to_block_row.size()) {
        stacked_brow = seg_to_block_row[++seg];
      }
    }
    return fmt::Coo::from_triplets(rows, cols, std::move(ri), std::move(ci),
                                   std::move(v));
  }

  /// Reference SpMV straight off the format (host, serial) — used to verify
  /// the format builder independently of the simulated kernels.
  void spmv_reference(std::span<const real_t> x, std::span<real_t> y) const {
    require(x.size() == static_cast<std::size_t>(cols) &&
                y.size() == static_cast<std::size_t>(rows),
            "BCCOO spmv: vector size mismatch");
    std::fill(y.begin(), y.end(), 0.0);
    std::vector<real_t> acc(static_cast<std::size_t>(cfg.block_h), 0.0);
    std::size_t seg = 0;
    for (std::size_t i = 0; i < num_blocks; ++i) {
      const index_t bcol = col_index[i];
      for (index_t lr = 0; lr < cfg.block_h; ++lr) {
        real_t s = 0.0;
        for (index_t lc = 0; lc < cfg.block_w; ++lc) {
          const index_t c = bcol * cfg.block_w + lc;
          if (c < cols) {
            s += value_rows[static_cast<std::size_t>(lr)]
                           [i * static_cast<std::size_t>(cfg.block_w) +
                            static_cast<std::size_t>(lc)] *
                 x[static_cast<std::size_t>(c)];
          }
        }
        acc[static_cast<std::size_t>(lr)] += s;
      }
      if (!bit_flags.get(i)) {
        const index_t stacked_brow = seg_to_block_row[seg++];
        const index_t brow = stacked_brow % block_rows;  // undo slice stack
        for (index_t lr = 0; lr < cfg.block_h; ++lr) {
          const index_t r = brow * cfg.block_h + lr;
          if (r < rows) {
            y[static_cast<std::size_t>(r)] +=
                acc[static_cast<std::size_t>(lr)];
          }
          acc[static_cast<std::size_t>(lr)] = 0.0;
        }
      }
    }
  }

 private:
  /// Serial checksum accumulation in block order — the one definition both
  /// build_checksums and validate_checksums run, so a revalidation must
  /// reproduce the stored plan bit for bit.
  void compute_checksums(std::vector<real_t>& w, std::vector<real_t>& wabs,
                         std::uint64_t& depth) const {
    const auto nc = static_cast<std::size_t>(cols);
    w.assign(nc, 0.0);
    wabs.assign(nc, 0.0);
    std::vector<std::uint32_t> col_nnz(nc, 0);
    const auto bw = static_cast<std::size_t>(cfg.block_w);
    for (std::size_t i = 0; i < num_blocks; ++i) {
      const std::size_t cbase = static_cast<std::size_t>(col_index[i]) * bw;
      for (std::size_t lc = 0; lc < bw && cbase + lc < nc; ++lc) {
        const std::size_t c = cbase + lc;
        for (const auto& vr : value_rows) {
          const real_t v = vr[i * bw + lc];
          if (v != 0.0) {
            w[c] += v;
            wabs[c] += std::abs(v);
            ++col_nnz[c];
          }
        }
      }
    }
    // Longest rounding path of any single term: the longest segmented-sum
    // run (in scalar slots) on the apply side, the fullest column on the
    // checksum side, plus the final reductions over y (rows) and the
    // checksum dot (cols).  Upper bounds throughout — the bound consumer
    // multiplies by eps, so slack here only loosens, never tightens.
    const auto bh = static_cast<std::uint64_t>(cfg.block_h);
    std::uint64_t max_seg_blocks = 0, run = 0;
    for (std::size_t i = 0; i < num_blocks; ++i) {
      ++run;
      if (!bit_flags.get(i)) {
        max_seg_blocks = std::max(max_seg_blocks, run);
        run = 0;
      }
    }
    std::uint64_t max_col = 0;
    for (const std::uint32_t n : col_nnz) {
      max_col = std::max<std::uint64_t>(max_col, n);
    }
    depth = max_seg_blocks * bw * bh + max_col +
            static_cast<std::uint64_t>(rows) +
            static_cast<std::uint64_t>(cols) + 16;
  }

  /// Recomputes the checksum plan (serial, same order as build_checksums, so
  /// the bytes must match exactly — including NaN payloads, hence memcmp)
  /// and compares.  A mismatch means either the value stream or the stored
  /// checksums were corrupted after the build; either way the format cannot
  /// be trusted and the caller rebuilds from source.
  template <class Check>
  void validate_checksums(const Check& check) const {
    const auto nc = static_cast<std::size_t>(cols);
    check(checksum_w.size() == nc, "checksum plan length != cols");
    check(checksum_wabs.size() == nc, "checksum |A| plan length != cols");
    std::vector<real_t> w, wabs;
    std::uint64_t depth = 0;
    compute_checksums(w, wabs, depth);
    const auto same = [](const std::vector<real_t>& a,
                         const std::vector<real_t>& b) {
      return a.size() == b.size() &&
             (a.empty() ||
              std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0);
    };
    check(same(w, checksum_w),
          "column checksum w does not match the value stream");
    check(same(wabs, checksum_wabs),
          "column checksum |w| does not match the value stream");
    check(depth == checksum_depth,
          "checksum rounding depth does not match the format");
  }

  template <class Check>
  void validate_col_streams(const Check& check) const {
    const std::size_t nb = num_blocks;
    const std::size_t nt = num_col_tiles();
    check(delta_cols.size() == nb, "delta stream length != block count");
    check(delta_escape_start.size() == nt + 1,
          "delta escape index not aligned to the col tiles");
    check(nt == 0 || delta_escape_start.front() == 0,
          "delta escape index does not start at 0");
    for (std::size_t t = 0; t < nt; ++t) {
      check(delta_escape_start[t] <= delta_escape_start[t + 1],
            "delta escape index not monotone");
    }
    check((nt == 0 ? 0 : delta_escape_start.back()) == delta_escapes.size(),
          "delta escape count != side-array length");
    for (const index_t c : delta_escapes) {
      check(c >= 0 && c < block_cols, "delta escape column out of range");
    }
    // Per-tile reconstruction: decoding every tile through the same rule the
    // kernels use must reproduce col_index exactly, consuming exactly the
    // tile's escape range.
    for (std::size_t t = 0; t < nt; ++t) {
      const std::size_t t0 = t * kColTile;
      const std::size_t t1 = std::min(t0 + kColTile, nb);
      index_t prev = 0;
      std::size_t e = delta_escape_start[t];
      for (std::size_t i = t0; i < t1; ++i) {
        const std::int16_t d = delta_cols[i];
        if (d == kDeltaEscape) {
          check(e < delta_escape_start[t + 1],
                "delta escape overruns its tile's side-array range");
          prev = delta_escapes[e++];
        } else {
          prev += static_cast<index_t>(d);
        }
        check(prev == col_index[i],
              "delta reconstruction mismatch at block " + std::to_string(i));
      }
      check(e == delta_escape_start[t + 1],
            "tile consumed fewer escapes than its side-array range");
    }
    if (block_cols <= 65535) {
      check(short_cols.size() == nb,
            "short-column stream missing though block_cols fits u16");
      for (std::size_t i = 0; i < nb; ++i) {
        check(static_cast<index_t>(short_cols[i]) == col_index[i],
              "short-column stream mismatch at block " + std::to_string(i));
      }
    } else {
      check(short_cols.empty(),
            "short-column stream present though block_cols exceeds u16");
    }
  }
};

}  // namespace yaspmv::core
