// Malformed-input corpus for the two readers: every hostile or damaged
// input must produce a classified SpmvError (FormatInvalid / IoError /
// DataCorruption), never an unbounded allocation, silent garbage, or an
// uncaught parse error.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <unistd.h>

#include "legacy_fnv1a.hpp"
#include "yaspmv/core/bccoo.hpp"
#include "yaspmv/core/status.hpp"
#include "yaspmv/gen/suite.hpp"
#include "yaspmv/io/binary.hpp"
#include "yaspmv/io/journal_io.hpp"
#include "yaspmv/io/matrix_market.hpp"
#include "yaspmv/io/stream.hpp"

namespace yaspmv {
namespace {

fmt::Coo parse(const std::string& text, io::MatrixMarketOptions opt = {}) {
  std::istringstream in(text);
  return io::read_matrix_market(in, opt);
}

// ---- Matrix Market ---------------------------------------------------------

TEST(MalformedMM, RejectsMissingBanner) {
  EXPECT_THROW(parse("3 3 1\n1 1 1.0\n"), FormatInvalid);
}

TEST(MalformedMM, RejectsEmptyStream) {
  EXPECT_THROW(parse(""), FormatInvalid);
}

TEST(MalformedMM, RejectsMissingSizeLine) {
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real general\n"
                     "% only comments\n"),
               FormatInvalid);
}

TEST(MalformedMM, RejectsNegativeSizes) {
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real general\n"
                     "-3 3 1\n1 1 1.0\n"),
               FormatInvalid);
}

TEST(MalformedMM, RejectsDimensionOverflow) {
  // 2^32 rows overflows the 32-bit index type.
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real general\n"
                     "4294967296 3 1\n1 1 1.0\n"),
               FormatInvalid);
}

TEST(MalformedMM, RejectsEntryCountOverflow) {
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real general\n"
                     "3 3 4294967296\n1 1 1.0\n"),
               FormatInvalid);
}

TEST(MalformedMM, RejectsMirroredEntryCountOverflow) {
  // 1.2e9 stored entries fit index_t, but the symmetric mirror doubles them
  // past 2^31 — must be rejected before any allocation.
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real symmetric\n"
                     "50000 50000 1200000000\n1 1 1.0\n"),
               FormatInvalid);
}

TEST(MalformedMM, RejectsEntryCountBeyondMatrixCells) {
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real general\n"
                     "3 3 10\n1 1 1.0\n"),
               FormatInvalid);
}

TEST(MalformedMM, RejectsTruncatedEntryList) {
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real general\n"
                     "3 3 3\n1 1 1.0\n2 2 2.0\n"),
               FormatInvalid);
}

TEST(MalformedMM, RejectsOutOfRangeEntry) {
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real general\n"
                     "3 3 1\n4 1 1.0\n"),
               FormatInvalid);
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real general\n"
                     "3 3 1\n0 1 1.0\n"),
               FormatInvalid);
}

TEST(MalformedMM, RejectsGarbageEntryLine) {
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real general\n"
                     "3 3 1\npotato\n"),
               FormatInvalid);
}

TEST(MalformedMM, RejectsMissingValue) {
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real general\n"
                     "3 3 1\n1 1\n"),
               FormatInvalid);
}

TEST(MalformedMM, ToleratesBlankAndCommentLinesInsideEntries) {
  const auto m = parse(
      "%%MatrixMarket matrix coordinate real general\n"
      "% header comment\n"
      "\n"
      "3 3 2\n"
      "1 1 1.5\n"
      "\n"
      "% mid-list comment\n"
      "   \n"
      "3 2 -2.0\n");
  EXPECT_EQ(m.rows, 3);
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_EQ(m.vals[0], 1.5);
}

TEST(MalformedMM, NonFinitePolicy) {
  const std::string nan_mtx =
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n1 1 nan\n";
  EXPECT_THROW(parse(nan_mtx), FormatInvalid);
  io::MatrixMarketOptions opt;
  opt.allow_nonfinite = true;
  const auto m = parse(nan_mtx, opt);
  ASSERT_EQ(m.nnz(), 1u);
  EXPECT_TRUE(std::isnan(m.vals[0]));

  const std::string inf_mtx =
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n2 2 inf\n";
  EXPECT_THROW(parse(inf_mtx), FormatInvalid);
  EXPECT_NO_THROW(parse(inf_mtx, opt));
}

TEST(MalformedMM, MissingFileIsIoError) {
  EXPECT_THROW(io::read_matrix_market_file("/nonexistent/never.mtx"),
               IoError);
}

// ---- binary format ---------------------------------------------------------

fmt::Coo small_matrix() { return gen::stencil2d(8, 8, true, 0x10); }

std::string coo_bytes(const fmt::Coo& m) {
  std::ostringstream out;
  io::save_coo(out, m);
  return out.str();
}

std::string bccoo_bytes(const core::Bccoo& m) {
  std::ostringstream out;
  io::save_bccoo(out, m);
  return out.str();
}

TEST(MalformedBinary, CooRoundTripStillWorks) {
  const auto a = small_matrix();
  std::istringstream in(coo_bytes(a));
  const auto b = io::load_coo(in);
  EXPECT_EQ(b.rows, a.rows);
  EXPECT_EQ(b.nnz(), a.nnz());
  EXPECT_EQ(b.vals, a.vals);
}

TEST(MalformedBinary, BccooRoundTripStillWorks) {
  const auto m = core::Bccoo::build(small_matrix(), {});
  std::istringstream in(bccoo_bytes(m));
  const auto b = io::load_bccoo(in);
  EXPECT_EQ(b.num_blocks, m.num_blocks);
  EXPECT_EQ(b.value_rows, m.value_rows);
  EXPECT_NO_THROW(b.validate());
}

TEST(MalformedBinary, RejectsBadMagic) {
  auto bytes = coo_bytes(small_matrix());
  bytes[0] ^= 0x5A;
  std::istringstream in(bytes);
  EXPECT_THROW(io::load_coo(in), FormatInvalid);
}

TEST(MalformedBinary, RejectsWrongVersion) {
  auto bytes = coo_bytes(small_matrix());
  bytes[4] ^= 0x7F;  // version field follows the 4-byte magic
  std::istringstream in(bytes);
  EXPECT_THROW(io::load_coo(in), FormatInvalid);
}

TEST(MalformedBinary, TruncationIsIoError) {
  const auto bytes = coo_bytes(small_matrix());
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2, std::size_t{9}}) {
    std::istringstream in(bytes.substr(0, cut));
    EXPECT_THROW(io::load_coo(in), SpmvError) << "cut at " << cut;
  }
}

TEST(MalformedBinary, FlippedPayloadByteIsDataCorruption) {
  auto bytes = coo_bytes(small_matrix());
  bytes[bytes.size() / 2] ^= 0x01;  // deep inside the value payload
  std::istringstream in(bytes);
  EXPECT_THROW(io::load_coo(in), DataCorruption);
}

TEST(MalformedBinary, FlippedBccooPayloadByteIsDataCorruption) {
  auto bytes = bccoo_bytes(core::Bccoo::build(small_matrix(), {}));
  bytes[bytes.size() / 2] ^= 0x10;
  std::istringstream in(bytes);
  EXPECT_THROW(io::load_bccoo(in), SpmvError);
}

TEST(MalformedBinary, HostileArrayLengthRejectedBeforeAllocation) {
  // Hand-craft a COO header whose row-index array claims ~2^61 elements;
  // the overflow-safe length check must reject it without allocating.
  auto bytes = coo_bytes(small_matrix());
  const std::size_t len_off = 8 /*magic+version*/ + 8 /*rows+cols*/;
  const std::uint64_t huge = ~std::uint64_t{0} / 2;
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[len_off + i] = static_cast<char>((huge >> (8 * i)) & 0xFF);
  }
  std::istringstream in(bytes);
  EXPECT_THROW(io::load_coo(in), FormatInvalid);
}

TEST(MalformedBinary, LoadedBccooRebuildsValidColumnStreams) {
  // The compressed column streams are derived data, not part of the file
  // format: a round-trip must rebuild them and they must pass the stream
  // invariants.  Tampering any stream afterwards must be caught.
  const auto m = core::Bccoo::build(small_matrix(), {});
  std::istringstream in(bccoo_bytes(m));
  auto b = io::load_bccoo(in);
  EXPECT_TRUE(b.col_streams_built);
  EXPECT_EQ(b.delta_cols, m.delta_cols);
  EXPECT_EQ(b.short_cols, m.short_cols);
  EXPECT_NO_THROW(b.validate());
  auto tampered = b;
  ASSERT_FALSE(tampered.delta_escape_start.empty());
  tampered.delta_escape_start.back() += 1;
  EXPECT_THROW(tampered.validate(), FormatInvalid);
  tampered = b;
  ASSERT_FALSE(tampered.short_cols.empty());
  tampered.short_cols.front() ^= 0x4;
  EXPECT_THROW(tampered.validate(), FormatInvalid);
}

TEST(MalformedBinary, MissingBinaryFileIsIoError) {
  EXPECT_THROW(io::load_coo_file("/nonexistent/never.bin"), IoError);
  EXPECT_THROW(io::load_bccoo_file("/nonexistent/never.bin"), IoError);
}

// ---- formats of the FNV-1a era ---------------------------------------------
//
// Before Hash64 every file carried an FNV-1a trailer under an older version
// number (container v2, journal v1) with today's layout.  Such a file must
// fail typed on its version field: FormatInvalid "unsupported ... version",
// never a DataCorruption from checking its trailer with the wrong hash.

template <class Fn>
void expect_unsupported_version(const char* reader, Fn&& load) {
  try {
    load();
    ADD_FAILURE() << reader << " loaded an FNV-era file";
  } catch (const FormatInvalid& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported"), std::string::npos)
        << reader << ": " << e.what();
  } catch (const SpmvError& e) {
    ADD_FAILURE() << reader << " threw the wrong class: " << e.what();
  }
}

TEST(MalformedBinary, FnvEraContainerV2IsUnsupportedVersion) {
  // What the last FNV-1a build wrote for diag(1, 2) built at 1x1 blocks,
  // u16 flags, one slice: two blocks, each closing its block row.
  const auto a = fmt::Coo::from_triplets(2, 2, {0, 1}, {0, 1}, {1.0, 2.0});
  testing_legacy::LegacyWriter w(/*unhashed_prefix=*/8);
  w.put<std::uint32_t>(0x4F434359).put<std::uint32_t>(2);  // "YCCO", v2
  w.put<std::int32_t>(2).put<std::int32_t>(2);    // rows, cols
  w.put<std::int32_t>(1).put<std::int32_t>(1);    // block_w, block_h
  w.put<std::uint8_t>(16).put<std::int32_t>(1);   // bf_word u16, slices
  w.put<std::int32_t>(2).put<std::int32_t>(2);    // block_rows, block_cols
  w.put<std::int32_t>(2);                         // stacked_block_rows
  w.put<std::uint64_t>(2).put<std::uint64_t>(2);  // num_blocks, flag bits
  w.put<std::uint64_t>(1).put<std::uint32_t>(0);  // flag words: two stops
  w.put<std::uint64_t>(2).put<index_t>(0).put<index_t>(1);  // col index
  w.put<std::uint32_t>(1);                        // one value row
  w.put<std::uint64_t>(2).put<real_t>(1.0).put<real_t>(2.0);
  w.put<std::uint64_t>(2).put<index_t>(0).put<index_t>(1);  // segment map
  w.put<std::uint8_t>(1);                         // identity segments
  const std::string bytes = w.seal();

  // The hand-written body is today's layout byte for byte: only the version
  // field and the trailer differ from what save_bccoo writes now.
  const std::string now = bccoo_bytes(core::Bccoo::build(a, {}));
  ASSERT_EQ(now.size(), bytes.size());
  EXPECT_EQ(now.substr(8, bytes.size() - 16),
            bytes.substr(8, bytes.size() - 16));

  const auto path = std::filesystem::temp_directory_path() /
                    ("yaspmv-fnv-era-" + std::to_string(::getpid()) +
                     ".bccoo");
  {
    std::ofstream f(path, std::ios::binary);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  expect_unsupported_version("load_bccoo_file",
                             [&] { io::load_bccoo_file(path.string()); });
  expect_unsupported_version("MappedBccoo",
                             [&] { io::MappedBccoo m(path.string()); });
  std::filesystem::remove(path);
}

TEST(MalformedBinary, FnvEraJournalV1IsUnsupportedVersion) {
  // What the last FNV-1a build wrote for a four-workgroup run with no fault
  // armed and one launch-begin event.
  sim::RecordedRun run;
  run.num_workgroups = 4;
  run.workgroup_size = 64;
  run.workers = 2;
  run.events.push_back(sim::Event{.wg = -1, .aux = 4});
  testing_legacy::LegacyWriter w(/*unhashed_prefix=*/8);
  w.put<std::uint32_t>(0x4E524A59).put<std::uint32_t>(1);  // "YJRN", v1
  w.put<std::int32_t>(4).put<std::int32_t>(64).put<std::uint32_t>(2);
  w.put<std::uint8_t>(0).put<std::int32_t>(0);    // fault: none, wg 0
  w.put<std::uint8_t>(1).put<double>(0.0);        // launch carry, magnitude
  w.put<std::uint64_t>(0).put<std::uint64_t>(1);  // spin budget, one event
  w.put<std::uint64_t>(0).put<std::uint8_t>(0);   // seq, launch-begin
  w.put<std::uint8_t>(0).put<std::uint16_t>(0);   // kind, worker
  w.put<std::int32_t>(-1).put<std::int32_t>(4);   // wg, aux
  const std::string bytes = w.seal();

  std::ostringstream now;
  io::save_journal(now, run);
  ASSERT_EQ(now.str().size(), bytes.size());
  EXPECT_EQ(now.str().substr(8, bytes.size() - 16),
            bytes.substr(8, bytes.size() - 16));

  expect_unsupported_version("load_journal", [&] {
    std::istringstream in(bytes);
    io::load_journal(in);
  });
}

}  // namespace
}  // namespace yaspmv
