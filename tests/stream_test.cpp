// Out-of-core streaming tests: the mmapped container (io/stream.hpp) and
// the tile-streaming SpMV (cpu/stream_spmv.hpp).
//
// Correctness contract: the streamed walk IS Bccoo::spmv_reference — same
// block order, same accumulation order — so streamed output is compared
// bitwise (memcmp) against the in-memory reference apply, and against the
// serial CSR oracle on power-of-two values where every association is
// exact.  Fault contract: a truncated, tampered or replaced-underneath
// file surfaces as a *typed* SpmvError (FormatInvalid / DataCorruption /
// IoError) — never a SIGBUS crash; the replaced-file case is additionally
// exercised in a forked child so a regression to process death fails the
// test instead of killing the suite.  Labeled `stream` (run under TSan by
// tools/run_sanitized_tests.sh).
#include "yaspmv/cpu/stream_spmv.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "yaspmv/core/bccoo.hpp"
#include "yaspmv/formats/csr.hpp"
#include "yaspmv/gen/suite.hpp"
#include "yaspmv/io/binary.hpp"
#include "yaspmv/io/stream.hpp"
#include "yaspmv/serve/client.hpp"
#include "yaspmv/serve/server.hpp"
#include "yaspmv/util/rng.hpp"

// Sanitizer runtimes install their own SIGBUS machinery and forked
// children confuse their interceptors; the guard tests are skipped there
// (the plain build and the TSan-label pass still cover the logic).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define YASPMV_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define YASPMV_UNDER_SANITIZER 1
#endif
#endif

namespace yaspmv {
namespace {

namespace fs = std::filesystem;

class StreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static std::atomic<int> counter{0};
    dir_ = fs::temp_directory_path() /
           ("yaspmv-stream-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter.fetch_add(1)));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string save(const core::Bccoo& f, const char* name = "m.bccoo") {
    const std::string path = (dir_ / name).string();
    io::save_bccoo_file(path, f);
    return path;
  }

  fs::path dir_;
};

std::vector<real_t> seeded(std::size_t n, std::uint64_t seed) {
  std::vector<real_t> v(n);
  SplitMix64 rng(seed);
  for (auto& x : v) x = rng.next_double(-1, 1);
  return v;
}

bool bitwise_equal(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0);
}

/// Sparse matrix with power-of-two values: exact at any association, so
/// streamed vs CSR comparisons are EXPECT_EQ on raw doubles.
fmt::Coo pow2_matrix(index_t n, std::uint64_t seed) {
  static constexpr double kVals[] = {1.0, -1.0, 0.5, -0.5, 0.25, -0.25};
  SplitMix64 rng(seed);
  std::vector<index_t> ri, ci;
  std::vector<real_t> v;
  for (index_t i = 0; i < n; ++i) {
    for (int j = 0; j < 5; ++j) {
      ri.push_back(i);
      ci.push_back(static_cast<index_t>((i * 7 + j * 13 + 1) %
                                        static_cast<index_t>(n)));
      v.push_back(kVals[rng.next_below(6)]);
    }
    ri.push_back(i);
    ci.push_back(i);
    v.push_back(1.0);
  }
  return fmt::Coo::from_triplets(n, n, std::move(ri), std::move(ci),
                                 std::move(v));
}

std::vector<real_t> pow2_x(index_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<real_t> x(static_cast<std::size_t>(n));
  for (auto& v : x) {
    const int e = static_cast<int>(rng.next_below(7)) - 3;
    v = std::ldexp(rng.next_below(2) ? 1.0 : -1.0, e);
  }
  return x;
}

// ---------------------------------------------------------------------------
// Bitwise correctness.

TEST_F(StreamTest, StreamedMatchesInMemoryReferenceBitwise) {
  std::vector<fmt::Coo> mats;
  mats.push_back(gen::stencil2d(24, 24, false, 1));
  mats.push_back(gen::powerlaw(700, 700, 5, 2.2, 0.4, 2));
  mats.push_back(gen::fem_mesh(500, 30, 3, 0.05, 3));
  core::FormatConfig scalar, blocked, sliced;
  blocked.block_w = 2;
  blocked.block_h = 2;
  sliced.slices = 4;
  int idx = 0;
  for (const auto& A : mats) {
    for (const auto& fc : {scalar, blocked, sliced}) {
      const auto f = core::Bccoo::build(A, fc);
      const auto path =
          save(f, ("m" + std::to_string(idx++) + ".bccoo").c_str());
      auto m = std::make_shared<const io::MappedBccoo>(path);
      cpu::CpuStreamSpmv eng(m);
      ASSERT_EQ(eng.rows(), f.rows);
      ASSERT_EQ(eng.cols(), f.cols);
      const auto x = seeded(static_cast<std::size_t>(f.cols), 42);
      std::vector<real_t> streamed(static_cast<std::size_t>(f.rows)),
          ref(static_cast<std::size_t>(f.rows));
      eng.spmv(x, streamed);
      f.spmv_reference(x, ref);
      ASSERT_TRUE(bitwise_equal(streamed, ref))
          << "matrix " << idx << " block_w=" << fc.block_w
          << " slices=" << fc.slices;
      EXPECT_GT(eng.streamed_bytes(), 0u);
    }
  }
}

TEST_F(StreamTest, StreamedMatchesCsrOracleBitwiseOnPow2Values) {
  const auto A = pow2_matrix(300, 0xC3);
  const auto f = core::Bccoo::build(A, {});
  auto m = std::make_shared<const io::MappedBccoo>(save(f));
  cpu::CpuStreamSpmv eng(m);
  const auto x = pow2_x(A.cols, 0xD4);
  std::vector<real_t> streamed(static_cast<std::size_t>(A.rows)),
      want(static_cast<std::size_t>(A.rows));
  eng.spmv(x, streamed);
  fmt::Csr::from_coo(A).spmv(x, want);
  ASSERT_EQ(streamed.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(streamed[i], want[i]) << "row " << i << " differs bitwise";
  }
}

TEST_F(StreamTest, RepeatApplyIsBitwiseReproducible) {
  const auto A = gen::powerlaw(600, 600, 6, 2.1, 0.3, 5);
  const auto f = core::Bccoo::build(A, {});
  auto m = std::make_shared<const io::MappedBccoo>(save(f));
  cpu::CpuStreamSpmv eng(m);
  const auto x = seeded(static_cast<std::size_t>(A.cols), 7);
  std::vector<real_t> first(static_cast<std::size_t>(A.rows));
  eng.spmv(x, first);
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<real_t> again(first.size());
    eng.spmv(x, again);
    ASSERT_TRUE(bitwise_equal(first, again)) << "rep " << rep;
  }
}

// ---------------------------------------------------------------------------
// Damaged containers fail typed at open.

TEST_F(StreamTest, TruncatedFileFailsTypedAtOpen) {
  const auto A = gen::stencil2d(20, 20, false, 1);
  const auto path = save(core::Bccoo::build(A, {}));
  const auto full = static_cast<off_t>(fs::file_size(path));
  // Cut at several depths: into the header, into the payload, and just
  // short of the trailing checksum.  Every cut must throw a typed
  // SpmvError from the constructor — no partial object, no signal.
  for (const off_t cut : {off_t{4}, off_t{12}, full / 2, full - 1}) {
    const std::string trunc = (dir_ / "trunc.bccoo").string();
    fs::copy_file(path, trunc, fs::copy_options::overwrite_existing);
    ASSERT_EQ(::truncate(trunc.c_str(), cut), 0);
    EXPECT_THROW(io::MappedBccoo m(trunc), SpmvError) << "cut at " << cut;
  }
}

TEST_F(StreamTest, MissingFileFailsTypedIoError) {
  EXPECT_THROW(io::MappedBccoo m((dir_ / "nope.bccoo").string()), IoError);
}

TEST_F(StreamTest, TamperedPayloadFailsChecksumAtOpen) {
  const auto A = gen::powerlaw(400, 400, 5, 2.2, 0.4, 9);
  const auto path = save(core::Bccoo::build(A, {}));
  const auto size = fs::file_size(path);
  // Flip one byte in the middle of the payload: the full-file Hash64
  // verify at open must classify it as data corruption.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size / 2));
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(static_cast<std::streamoff>(size / 2));
    f.write(&b, 1);
  }
  EXPECT_THROW(io::MappedBccoo m(path), DataCorruption);
}

// ---------------------------------------------------------------------------
// File replaced underneath a live mapping: typed IoError, never SIGBUS.

TEST_F(StreamTest, ApplyAfterFileTruncatedUnderneathFailsTyped) {
#ifdef YASPMV_UNDER_SANITIZER
  GTEST_SKIP() << "sanitizer runtimes own SIGBUS; covered by plain builds";
#else
  const auto A = gen::powerlaw(800, 800, 6, 2.2, 0.4, 11);
  const auto path = save(core::Bccoo::build(A, {}));
  auto m = std::make_shared<const io::MappedBccoo>(path);
  cpu::CpuStreamSpmv eng(m);
  const auto x = seeded(static_cast<std::size_t>(A.cols), 3);
  std::vector<real_t> y(static_cast<std::size_t>(A.rows));
  eng.spmv(x, y);  // healthy apply first
  // Shrink the file while the mapping is live: the next apply touches
  // pages past EOF and must surface the SIGBUS as a typed IoError.
  ASSERT_EQ(::truncate(path.c_str(), 16), 0);
  EXPECT_THROW(eng.spmv(x, y), IoError);
#endif
}

TEST_F(StreamTest, ReplacedFileNeverKillsTheProcess) {
#ifdef YASPMV_UNDER_SANITIZER
  GTEST_SKIP() << "fork + sanitizer interceptors do not mix";
#else
  // Belt over the braces of the previous test: run the whole
  // map-truncate-apply sequence in a forked child.  If the guard ever
  // regresses to letting SIGBUS kill the process, the child dies on the
  // signal and the exit-status assertion below fails — the suite survives.
  const auto A = gen::stencil2d(30, 30, false, 1);
  const auto path = save(core::Bccoo::build(A, {}));
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    int code = 3;  // "no typed error surfaced"
    try {
      auto m = std::make_shared<const io::MappedBccoo>(path);
      cpu::CpuStreamSpmv eng(m);
      std::vector<real_t> x(static_cast<std::size_t>(A.cols), 1.0);
      std::vector<real_t> y(static_cast<std::size_t>(A.rows));
      if (::truncate(path.c_str(), 16) == 0) {
        eng.spmv(x, y);
      }
    } catch (const IoError&) {
      code = 0;  // the contract: typed IoError
    } catch (...) {
      code = 2;
    }
    ::_exit(code);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status))
      << "child killed by signal " << WTERMSIG(status)
      << " — SIGBUS escaped the guard";
  EXPECT_EQ(WEXITSTATUS(status), 0);
#endif
}

// ---------------------------------------------------------------------------
// Serving out-of-core: register-by-path end to end.

TEST_F(StreamTest, ServeRegisterByPathServesBitwiseCorrectApplies) {
  const auto a = pow2_matrix(96, 0xE5);
  const auto f = core::Bccoo::build(a, {});
  const auto path = save(f);

  serve::ServerOptions opt;
  opt.socket_path = (dir_ / "s.sock").string();
  opt.plan_cache_dir = (dir_ / "plans").string();
  opt.tune_on_register = false;
  serve::Server server(opt);
  server.start();

  serve::Client c(opt.socket_path);
  const auto reg = c.register_path(path);
  ASSERT_EQ(reg.status.status, serve::ServeStatus::kOk) << reg.status.detail;
  EXPECT_TRUE(reg.newly_registered);
  EXPECT_EQ(reg.kernel, "stream/tile");
  EXPECT_EQ(reg.rows, a.rows);
  EXPECT_EQ(reg.cols, a.cols);

  // Registering the same container again round-trips to the same entry.
  const auto again = c.register_path(path);
  ASSERT_EQ(again.status.status, serve::ServeStatus::kOk);
  EXPECT_EQ(again.matrix_id, reg.matrix_id);
  EXPECT_FALSE(again.newly_registered);

  const auto x = pow2_x(a.cols, 0xF6);
  const auto r = c.spmv(reg.matrix_id, x);
  ASSERT_TRUE(r.ok()) << r.status.detail;
  EXPECT_EQ(r.path, "stream/tile");
  std::vector<real_t> want(static_cast<std::size_t>(a.rows));
  fmt::Csr::from_coo(a).spmv(x, want);
  ASSERT_EQ(r.y.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(r.y[i], want[i]) << "row " << i << " differs bitwise";
  }

  // Streamed entries serve spmv only.
  const auto sv = c.solve(reg.matrix_id, x, 1);
  EXPECT_EQ(sv.status.status, serve::ServeStatus::kBadRequest);

  // Stats reflect the streaming execution shape (append-last wire fields).
  const auto st = c.stats();
  ASSERT_EQ(st.status.status, serve::ServeStatus::kOk);
  EXPECT_EQ(st.stream_registered, 1u);
  EXPECT_EQ(st.stream_applies, 1u);

  server.stop();
}

TEST_F(StreamTest, ServeRegisterByPathRejectsDamagedContainers) {
  serve::ServerOptions opt;
  opt.socket_path = (dir_ / "s.sock").string();
  opt.plan_cache_dir = (dir_ / "plans").string();
  opt.tune_on_register = false;
  serve::Server server(opt);
  server.start();

  serve::Client c(opt.socket_path);
  // Nonexistent path: typed IoError through the kFaulted reply.
  const auto miss = c.register_path((dir_ / "nope.bccoo").string());
  EXPECT_EQ(miss.status.status, serve::ServeStatus::kFaulted);
  EXPECT_EQ(miss.status.code, Status::kIoError);

  // Tampered container: the open-time checksum classifies the fault and
  // the daemon keeps serving.
  const auto A = gen::stencil2d(16, 16, false, 1);
  const auto path = save(core::Bccoo::build(A, {}));
  const auto size = fs::file_size(path);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(size / 2));
    const char b = 0x7f;
    f.write(&b, 1);
  }
  const auto bad = c.register_path(path);
  EXPECT_EQ(bad.status.status, serve::ServeStatus::kFaulted);
  EXPECT_EQ(bad.status.code, Status::kDataCorruption);

  server.stop();
}

}  // namespace
}  // namespace yaspmv
