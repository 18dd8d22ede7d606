// Serving-daemon tests: protocol round trips, admission control, deadlines,
// the durable plan cache and graceful drain, all against an in-process
// Server on a Unix-domain socket.
//
// Correctness contract: matrix values and vector entries are small powers of
// two (±1, ±0.5, ±0.25, ...), so every product and partial sum is exact in
// double precision and ANY summation order produces the same bits — served
// results are compared against the serial CSR oracle with EXPECT_EQ on the
// raw doubles, not a tolerance.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "legacy_fnv1a.hpp"
#include "yaspmv/cpu/spmv.hpp"
#include "yaspmv/formats/csr.hpp"
#include "yaspmv/gen/suite.hpp"
#include "yaspmv/serve/client.hpp"
#include "yaspmv/serve/server.hpp"
#include "yaspmv/util/rng.hpp"

namespace yaspmv {
namespace {

namespace fs = std::filesystem;

/// n x n sparse matrix whose values are powers of two in [2^-2, 2^0] with
/// random signs: exact arithmetic at any association.
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
    ri.push_back(i);  // guaranteed diagonal so no row is empty
    ci.push_back(i);
    v.push_back(1.0);
  }
  return fmt::Coo::from_triplets(n, n, std::move(ri), std::move(ci),
                                 std::move(v));
}

/// x with power-of-two entries 2^e, e in [-3, 3], random sign.
std::vector<real_t> pow2_x(index_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<real_t> x(static_cast<std::size_t>(n));
  for (auto& v : x) {
    const int e = static_cast<int>(rng.next_below(7)) - 3;
    v = std::ldexp(rng.next_below(2) ? 1.0 : -1.0, e);
  }
  return x;
}

std::vector<real_t> csr_oracle(const fmt::Coo& a,
                               const std::vector<real_t>& x) {
  std::vector<real_t> y(static_cast<std::size_t>(a.rows));
  fmt::Csr::from_coo(a).spmv(x, y);
  return y;
}

void expect_bitwise(const std::vector<real_t>& got,
                    const std::vector<real_t>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "row " << i << " differs bitwise";
  }
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static std::atomic<int> counter{0};
    dir_ = fs::temp_directory_path() /
           ("yaspmv-serve-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter.fetch_add(1)));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    server_.reset();  // graceful drain before the directory goes away
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  serve::ServerOptions base_options() {
    serve::ServerOptions opt;
    opt.socket_path = (dir_ / "s.sock").string();
    opt.plan_cache_dir = (dir_ / "plans").string();
    opt.tune_on_register = false;  // most tests do not need a tuning sweep
    return opt;
  }

  serve::Server& start(const serve::ServerOptions& opt) {
    server_ = std::make_unique<serve::Server>(opt);
    server_->start();
    return *server_;
  }

  std::string sock() const { return (dir_ / "s.sock").string(); }

  fs::path dir_;
  std::unique_ptr<serve::Server> server_;
};

TEST_F(ServeTest, SpmvMatchesCsrOracleBitwise) {
  start(base_options());
  const auto a = pow2_matrix(64, 0xA1);
  serve::Client c(sock());
  const auto reg = c.register_matrix(a);
  ASSERT_EQ(reg.status.status, serve::ServeStatus::kOk) << reg.status.detail;
  EXPECT_TRUE(reg.newly_registered);
  const auto x = pow2_x(a.cols, 0xB2);
  const auto r = c.spmv(reg.matrix_id, x);
  ASSERT_TRUE(r.ok()) << r.status.detail;
  EXPECT_EQ(r.ladder_step, 0u);
  EXPECT_FALSE(r.recovered);
  expect_bitwise(r.y, csr_oracle(a, x));
}

// The pow2 oracle tests above hold for ANY summation order, so they cannot
// tell which kernel answered.  A fem_mesh with arbitrary doubles can: every
// served reply, plain or verified, must equal CpuSpmv::spmv bitwise at the
// server's (apply threads, SIMD level, segmented-sum mode).
TEST_F(ServeTest, SpmvIsBitwiseCpuSpmvOnNonPow2FemMesh) {
  const auto a = gen::fem_mesh(1200, 24, 3, 0.05, 0xFE11);
  std::vector<real_t> x(static_cast<std::size_t>(a.cols));
  SplitMix64 rng(0xFE12);
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  for (const unsigned threads : {1u, 2u}) {
    SCOPED_TRACE("apply_threads=" + std::to_string(threads));
    auto opt = base_options();
    opt.apply_threads = threads;
    start(opt);
    serve::Client c(sock());
    const auto reg = c.register_matrix(a);
    ASSERT_EQ(reg.status.status, serve::ServeStatus::kOk) << reg.status.detail;

    cpu::CpuSpmv want_eng(std::make_shared<const core::Bccoo>(
                              core::Bccoo::build(a, core::FormatConfig{})),
                          threads, core::ColStream::kAuto,
                          cpu::SegSumMode::kSpeculative);
    std::vector<real_t> want(static_cast<std::size_t>(a.rows));
    want_eng.spmv(x, want);

    const auto plain = c.spmv(reg.matrix_id, x);
    ASSERT_TRUE(plain.ok()) << plain.status.detail;
    EXPECT_EQ(plain.attempts, 1u);
    EXPECT_FALSE(plain.verified);
    expect_bitwise(plain.y, want);
    serve::RequestOptions vopt;
    vopt.verified = true;
    const auto checked = c.spmv(reg.matrix_id, x, vopt);
    ASSERT_TRUE(checked.ok()) << checked.status.detail;
    EXPECT_EQ(checked.attempts, 1u);
    EXPECT_TRUE(checked.verified);
    expect_bitwise(checked.y, want);
    c.close();
    server_.reset();
  }
}

TEST_F(ServeTest, ConcurrentClientsAllMatchOracle) {
  start(base_options());
  const auto a = pow2_matrix(96, 0xC3);
  serve::Client reg_client(sock());
  const auto reg = reg_client.register_matrix(a);
  ASSERT_EQ(reg.status.status, serve::ServeStatus::kOk);

  constexpr int kClients = 8;
  constexpr int kRequests = 10;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      serve::Client c(sock());
      for (int i = 0; i < kRequests; ++i) {
        const auto x = pow2_x(a.cols, 0xD00 + t * 100 + i);
        serve::RequestOptions opt;
        opt.retries = 20;  // ride out transient overload via backoff
        const auto r = c.spmv(reg.matrix_id, x, opt);
        if (!r.ok()) {
          ++failures;
          continue;
        }
        const auto want = csr_oracle(a, x);
        for (std::size_t k = 0; k < want.size(); ++k) {
          if (r.y[k] != want[k]) {
            ++failures;
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const auto s = server_->stats();
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kClients * kRequests));
  EXPECT_EQ(s.faulted, 0u);
}

TEST_F(ServeTest, SecondRegistrationIsIdempotent) {
  start(base_options());
  const auto a = pow2_matrix(48, 0xE4);
  serve::Client c1(sock()), c2(sock());
  const auto r1 = c1.register_matrix(a);
  const auto r2 = c2.register_matrix(a);
  ASSERT_EQ(r1.status.status, serve::ServeStatus::kOk);
  ASSERT_EQ(r2.status.status, serve::ServeStatus::kOk);
  EXPECT_EQ(r1.matrix_id, r2.matrix_id);
  EXPECT_TRUE(r1.newly_registered);
  EXPECT_FALSE(r2.newly_registered);
  EXPECT_EQ(server_->stats().registered, 1u);
}

TEST_F(ServeTest, WarmRestartLoadsPlanFromDurableCache) {
  auto opt = base_options();
  opt.tune_on_register = true;
  start(opt);
  const auto a = pow2_matrix(32, 0xF5);
  std::uint64_t id = 0;
  std::int32_t cold_evaluated = 0;
  {
    serve::Client c(sock());
    const auto cold = c.register_matrix(a);
    ASSERT_EQ(cold.status.status, serve::ServeStatus::kOk);
    EXPECT_FALSE(cold.warm);
    EXPECT_GT(cold.evaluated, 0);
    id = cold.matrix_id;
    cold_evaluated = cold.evaluated;
    EXPECT_EQ(server_->stats().plan_cache_misses, 1u);
  }
  server_->stop();
  server_.reset();

  // A "restarted daemon": new Server, same cache directory.
  start(opt);
  serve::Client c(sock());
  const auto warm = c.register_matrix(a);
  ASSERT_EQ(warm.status.status, serve::ServeStatus::kOk);
  EXPECT_TRUE(warm.warm);
  EXPECT_EQ(warm.matrix_id, id);
  // No re-tuning happened: the reply echoes the sweep size recorded in the
  // cached plan, which must match what the cold registration evaluated.
  EXPECT_EQ(warm.evaluated, cold_evaluated);
  EXPECT_EQ(server_->stats().plan_cache_hits, 1u);
  // The warm path must still serve bitwise-correct results.
  const auto x = pow2_x(a.cols, 0x16);
  const auto r = c.spmv(id, x);
  ASSERT_TRUE(r.ok());
  expect_bitwise(r.y, csr_oracle(a, x));
}

TEST_F(ServeTest, UnknownMatrixAndShapeMismatchAreTyped) {
  start(base_options());
  const auto a = pow2_matrix(32, 0x17);
  serve::Client c(sock());
  const auto reg = c.register_matrix(a);
  ASSERT_EQ(reg.status.status, serve::ServeStatus::kOk);

  const auto unknown = c.spmv(0xDEADBEEFu, pow2_x(a.cols, 1));
  EXPECT_EQ(unknown.status.status, serve::ServeStatus::kUnknownMatrix);

  const auto short_x = c.spmv(reg.matrix_id, pow2_x(a.cols - 1, 1));
  EXPECT_EQ(short_x.status.status, serve::ServeStatus::kBadRequest);

  // The connection survives typed errors: a clean request still works.
  const auto x = pow2_x(a.cols, 2);
  const auto ok = c.spmv(reg.matrix_id, x);
  ASSERT_TRUE(ok.ok());
  expect_bitwise(ok.y, csr_oracle(a, x));
}

TEST_F(ServeTest, OverloadReturnsTypedRejectionNotHang) {
  auto opt = base_options();
  opt.executors = 1;
  opt.queue_capacity = 1;
  opt.max_inflight = 2;
  opt.enable_inject = true;
  start(opt);
  const auto a = pow2_matrix(32, 0x28);
  serve::Client c(sock());
  const auto reg = c.register_matrix(a);
  ASSERT_EQ(reg.status.status, serve::ServeStatus::kOk);
  const auto x = pow2_x(a.cols, 3);

  // Fill the server: one request executing (sleeping), one queued.
  serve::RequestOptions slow;
  slow.inject = serve::Inject::kSleepMs;
  slow.inject_arg = 400;
  // The two fillers race each other into the size-1 queue before the executor
  // pops the first one; retries let the loser land instead of bouncing.
  slow.retries = 50;
  slow.backoff_ms = 5;
  std::vector<std::thread> sleepers;
  for (int i = 0; i < 2; ++i) {
    sleepers.emplace_back([&] {
      serve::Client sc(sock());
      const auto r = sc.spmv(reg.matrix_id, x, slow);
      EXPECT_TRUE(r.ok()) << r.status.detail;
    });
  }
  // Wait until both are admitted (inflight == max_inflight).
  for (int spin = 0; spin < 200 && server_->stats().inflight < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server_->stats().inflight, 2u);

  const auto rejected = c.spmv(reg.matrix_id, x);  // no retries
  EXPECT_EQ(rejected.status.status, serve::ServeStatus::kOverloaded);
  EXPECT_GE(server_->stats().overloaded, 1u);

  // With retries + backoff the same request eventually lands.
  serve::RequestOptions retrying;
  retrying.retries = 50;
  retrying.backoff_ms = 20;
  const auto ok = c.spmv(reg.matrix_id, x, retrying);
  ASSERT_TRUE(ok.ok()) << ok.status.detail;
  EXPECT_GT(ok.admission_attempts, 1);
  expect_bitwise(ok.y, csr_oracle(a, x));
  for (auto& th : sleepers) th.join();
}

TEST_F(ServeTest, DeadlineExpiredWhileQueuedIsDroppedAtDequeue) {
  auto opt = base_options();
  opt.executors = 1;
  opt.enable_inject = true;
  start(opt);
  const auto a = pow2_matrix(32, 0x39);
  serve::Client c(sock());
  const auto reg = c.register_matrix(a);
  ASSERT_EQ(reg.status.status, serve::ServeStatus::kOk);
  const auto x = pow2_x(a.cols, 4);

  serve::RequestOptions slow;
  slow.inject = serve::Inject::kSleepMs;
  slow.inject_arg = 300;
  std::thread sleeper([&] {
    serve::Client sc(sock());
    EXPECT_TRUE(sc.spmv(reg.matrix_id, x, slow).ok());
  });
  for (int spin = 0; spin < 200 && server_->stats().inflight < 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  serve::RequestOptions dl;
  dl.deadline_ms = 50;  // expires while the sleeper holds the executor
  const auto r = c.spmv(reg.matrix_id, x, dl);
  EXPECT_EQ(r.status.status, serve::ServeStatus::kDeadlineExpired);
  EXPECT_GE(server_->stats().deadline_expired, 1u);
  sleeper.join();

  // A deadline generous enough always completes.
  serve::RequestOptions ok_dl;
  ok_dl.deadline_ms = 60'000;
  const auto ok = c.spmv(reg.matrix_id, x, ok_dl);
  ASSERT_TRUE(ok.ok());
  expect_bitwise(ok.y, csr_oracle(a, x));
}

TEST_F(ServeTest, SolveConvergesOnSpdSystem) {
  start(base_options());
  // Diagonally dominant symmetric matrix -> CG converges.
  const index_t n = 64;
  std::vector<index_t> ri, ci;
  std::vector<real_t> v;
  for (index_t i = 0; i < n; ++i) {
    ri.push_back(i); ci.push_back(i); v.push_back(4.0);
    if (i + 1 < n) {
      ri.push_back(i); ci.push_back(i + 1); v.push_back(-1.0);
      ri.push_back(i + 1); ci.push_back(i); v.push_back(-1.0);
    }
  }
  const auto a = fmt::Coo::from_triplets(n, n, std::move(ri), std::move(ci),
                                         std::move(v));
  serve::Client c(sock());
  const auto reg = c.register_matrix(a);
  ASSERT_EQ(reg.status.status, serve::ServeStatus::kOk);
  const auto b = pow2_x(n, 5);
  const auto r = c.solve(reg.matrix_id, b, /*solver=*/1, 1e-10, 2000);
  ASSERT_TRUE(r.ok()) << r.status.detail;
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.rel_residual, 1e-10);
  // Check A x ~= b through the CSR oracle.
  const auto ax = csr_oracle(a, r.x);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(ax[static_cast<std::size_t>(i)],
                b[static_cast<std::size_t>(i)], 1e-8);
  }
}

TEST_F(ServeTest, MalformedFrameGetsProtocolErrorReply) {
  start(base_options());
  serve::Client c(sock());  // raw fd access
  const char garbage[32] = "this is not a YSRV frame at all";
  ASSERT_EQ(::send(c.fd(), garbage, sizeof garbage, 0),
            static_cast<ssize_t>(sizeof garbage));
  serve::Frame f;
  ASSERT_TRUE(serve::read_frame(c.fd(), f));
  serve::WireReader r(f.payload);
  const auto status = serve::get_reply_status(r);
  EXPECT_EQ(status.status, serve::ServeStatus::kProtocolError);
  EXPECT_GE(server_->stats().protocol_errors, 1u);

  // The server dropped that connection but keeps serving new ones.
  serve::Client c2(sock());
  const auto s = c2.stats();
  EXPECT_EQ(s.status.status, serve::ServeStatus::kOk);
}

TEST_F(ServeTest, GracefulDrainAnswersQueuedRequestsAndExits) {
  auto opt = base_options();
  opt.executors = 1;
  opt.enable_inject = true;
  opt.drain_timeout_ms = 100;  // watchdog fires fast: queued work is shed
  start(opt);
  const auto a = pow2_matrix(32, 0x4A);
  serve::Client c(sock());
  const auto reg = c.register_matrix(a);
  ASSERT_EQ(reg.status.status, serve::ServeStatus::kOk);
  const auto x = pow2_x(a.cols, 6);

  // One long request executing + several queued behind it.
  serve::RequestOptions slow;
  slow.inject = serve::Inject::kSleepMs;
  slow.inject_arg = 500;
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0}, shed_count{0}, torn{0}, other{0};
  clients.emplace_back([&] {
    try {
      serve::Client sc(sock());
      const auto r = sc.spmv(reg.matrix_id, x, slow);
      (r.ok() ? ok_count : other)++;
    } catch (const IoError&) {
      ++torn;
    }
  });
  for (int spin = 0; spin < 200 && server_->stats().inflight < 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back([&] {
      // A request racing the *final* transport teardown (not yet admitted
      // when the listener dies) may see a clean connect/read failure
      // instead of a typed reply; that is the one tolerated non-answer.
      try {
        serve::Client sc(sock());
        const auto r = sc.spmv(reg.matrix_id, x);
        if (r.ok()) {
          ++ok_count;
        } else if (r.status.status == serve::ServeStatus::kShuttingDown) {
          ++shed_count;
        } else {
          ++other;
        }
      } catch (const IoError&) {
        ++torn;
      }
    });
  }
  for (int spin = 0; spin < 200 && server_->stats().inflight < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  server_->stop();  // blocks until drained
  for (auto& th : clients) th.join();
  // Every ADMITTED request got a definite answer: completed or typed
  // kShuttingDown.  The inflight>=2 spin above guarantees at least the
  // sleeper and one queued request were admitted before stop(), so at most
  // the two late clients may have lost the race against teardown.
  EXPECT_EQ(other.load(), 0);
  EXPECT_GE(ok_count.load(), 1);      // the executing sleeper finished
  EXPECT_LE(torn.load(), 2);
  EXPECT_EQ(ok_count.load() + shed_count.load() + torn.load(), 4);
  EXPECT_FALSE(server_->running());
  // The socket is gone: new connections fail cleanly.
  EXPECT_THROW({ serve::Client reconnect(sock()); }, IoError);
}

TEST_F(ServeTest, VerifiedSpmvRunsChecksummedAndMatchesOracle) {
  start(base_options());
  const auto a = pow2_matrix(64, 0x71);
  serve::Client c(sock());
  const auto reg = c.register_matrix(a);
  ASSERT_EQ(reg.status.status, serve::ServeStatus::kOk);
  const auto x = pow2_x(a.cols, 0x72);

  serve::RequestOptions vopt;
  vopt.verified = true;
  const auto r = c.spmv(reg.matrix_id, x, vopt);
  ASSERT_TRUE(r.ok()) << r.status.detail;
  EXPECT_TRUE(r.verified);
  EXPECT_FALSE(r.recovered);
  expect_bitwise(r.y, csr_oracle(a, x));

  // A plain request on the same connection stays unverified.
  const auto plain = c.spmv(reg.matrix_id, x);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain.verified);
  expect_bitwise(plain.y, r.y);

  const auto s = server_->stats();
  EXPECT_EQ(s.verified_requests, 1u);
  EXPECT_EQ(s.integrity_faults, 0u);  // clean run: zero false positives
}

TEST_F(ServeTest, VerifiedSolveRunsTheSelfCheckingSolvers) {
  auto opt = base_options();
  opt.verified = true;  // server-wide: every request checksum-verified
  start(opt);
  const index_t n = 64;
  std::vector<index_t> ri, ci;
  std::vector<real_t> v;
  for (index_t i = 0; i < n; ++i) {
    ri.push_back(i); ci.push_back(i); v.push_back(4.0);
    if (i + 1 < n) {
      ri.push_back(i); ci.push_back(i + 1); v.push_back(-1.0);
      ri.push_back(i + 1); ci.push_back(i); v.push_back(-1.0);
    }
  }
  const auto a = fmt::Coo::from_triplets(n, n, std::move(ri), std::move(ci),
                                         std::move(v));
  serve::Client c(sock());
  const auto reg = c.register_matrix(a);
  ASSERT_EQ(reg.status.status, serve::ServeStatus::kOk);
  const auto b = pow2_x(n, 0x73);
  // No per-request flag: the server-wide option alone promotes the solve.
  const auto r = c.solve(reg.matrix_id, b, /*solver=*/1, 1e-10, 2000);
  ASSERT_TRUE(r.ok()) << r.status.detail;
  EXPECT_TRUE(r.verified);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.integrity_faults, 0u);
  EXPECT_EQ(r.rollbacks, 0u);
  const auto ax = csr_oracle(a, r.x);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(ax[static_cast<std::size_t>(i)],
                b[static_cast<std::size_t>(i)], 1e-8);
  }
  const auto s = server_->stats();
  EXPECT_GE(s.verified_requests, 1u);
  EXPECT_EQ(s.integrity_faults, 0u);
}

TEST_F(ServeTest, OversizedFrameIsRejectedBeforeAllocation) {
  auto opt = base_options();
  opt.max_frame_bytes = 512;  // far below the protocol ceiling
  start(opt);
  serve::Client c(sock());

  // A well-formed header whose declared length exceeds the cap — but is
  // far below kMaxFramePayload — must bounce on the length field alone,
  // before any payload buffer is allocated or a single payload byte read.
  const serve::FrameHeader h{
      serve::kFrameMagic, serve::kProtocolVersion,
      static_cast<std::uint16_t>(serve::MsgType::kSpmv), 1u << 20};
  ASSERT_EQ(::send(c.fd(), &h, sizeof h, 0),
            static_cast<ssize_t>(sizeof h));
  serve::Frame f;
  ASSERT_TRUE(serve::read_frame(c.fd(), f));
  serve::WireReader r(f.payload);
  const auto status = serve::get_reply_status(r);
  EXPECT_EQ(status.status, serve::ServeStatus::kProtocolError);
  EXPECT_NE(status.detail.find("exceeds limit"), std::string::npos)
      << status.detail;
  EXPECT_GE(server_->stats().protocol_errors, 1u);

  // Small frames still fit under the cap: a fresh connection serves stats.
  serve::Client c2(sock());
  EXPECT_EQ(c2.stats().status.status, serve::ServeStatus::kOk);
}

/// The payload of a plain spmv request for `x`, laid out as Client::spmv
/// writes it.
std::vector<std::uint8_t> spmv_payload(std::uint64_t id,
                                       const std::vector<real_t>& x) {
  serve::WireWriter w;
  w.put<std::uint64_t>(id);
  w.put<std::uint32_t>(0);  // deadline_ms: none
  w.put<std::uint8_t>(static_cast<std::uint8_t>(serve::Inject::kNone));
  w.put<std::uint32_t>(0);  // inject arg
  w.put<std::uint8_t>(0);   // plain, not verified
  w.put_vec(x);
  return w.take();
}

TEST_F(ServeTest, FnvEraV2FrameGetsOneProtocolErrorNamingVersion2) {
  start(base_options());
  serve::Client c(sock());
  const auto before = server_->stats().protocol_errors;
  // What the last FNV-1a client wrote for a plain spmv: the v2 header,
  // today's payload layout, and an FNV-1a trailer over everything after
  // the magic.
  const auto payload = spmv_payload(0x1234, {1.0, -2.0, 0.5});
  testing_legacy::LegacyWriter w(/*unhashed_prefix=*/4);
  w.put<std::uint32_t>(serve::kFrameMagic).put<std::uint16_t>(2);
  w.put<std::uint16_t>(static_cast<std::uint16_t>(serve::MsgType::kSpmv));
  w.put<std::uint64_t>(payload.size()).raw(payload.data(), payload.size());
  const std::string frame = w.seal();
  serve::write_all(c.fd(), frame.data(), frame.size());

  serve::Frame f;
  ASSERT_TRUE(serve::read_frame(c.fd(), f));
  serve::WireReader r(f.payload);
  const auto status = serve::get_reply_status(r);
  EXPECT_EQ(status.status, serve::ServeStatus::kProtocolError);
  EXPECT_EQ(status.code, Status::kFormatInvalid);
  EXPECT_NE(status.detail.find("unsupported protocol version 2"),
            std::string::npos)
      << status.detail;
  EXPECT_EQ(server_->stats().protocol_errors, before + 1);
  // One reply and no second one: the server dropped the connection.  A
  // server that kept it open would leave this read to time out instead.
  const timeval wait{5, 0};
  ASSERT_EQ(::setsockopt(c.fd(), SOL_SOCKET, SO_RCVTIMEO, &wait, sizeof wait),
            0);
  char more = 0;
  ssize_t got = ::recv(c.fd(), &more, 1, 0);
  // The request's unread payload and trailer were still queued at the
  // server when it closed, so the first read may report the reset.
  if (got < 0 && errno == ECONNRESET) got = ::recv(c.fd(), &more, 1, 0);
  EXPECT_EQ(got, 0) << "errno " << errno;
}

TEST(ServeFrame, EverySingleBitFlipIsRejectedNeverReturnedNeverBlocks) {
  // Capture the exact bytes write_frame puts on the wire for a small spmv.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  serve::write_frame(sv[0], serve::MsgType::kSpmv,
                     spmv_payload(0xFEED, {0.25, -1.0, 4.0}));
  ::shutdown(sv[0], SHUT_WR);
  std::vector<char> clean(4096);
  const ssize_t n = ::recv(sv[1], clean.data(), clean.size(), MSG_WAITALL);
  ::close(sv[0]);
  ::close(sv[1]);
  ASSERT_GT(n, 24);
  clean.resize(static_cast<std::size_t>(n));

  // A cap like the server's --max-frame-bytes keeps a flipped high length
  // bit from allocating: it is rejected on the length field alone.
  constexpr std::uint64_t kCap = 1u << 16;
  const auto read_back = [&](const std::vector<char>& bytes,
                             serve::Frame& f) {
    int p[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, p) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    serve::write_all(p[0], bytes.data(), bytes.size());
    ::shutdown(p[0], SHUT_WR);  // EOF after the bytes: a read never blocks
    try {
      const bool got = serve::read_frame(p[1], f, kCap);
      ::close(p[0]);
      ::close(p[1]);
      return got;
    } catch (...) {
      ::close(p[0]);
      ::close(p[1]);
      throw;
    }
  };

  serve::Frame f;
  ASSERT_TRUE(read_back(clean, f));
  ASSERT_EQ(f.type, serve::MsgType::kSpmv);
  ASSERT_EQ(f.payload.size(), clean.size() - 24);

  std::size_t rejected = 0;
  for (std::size_t bit = 0; bit < clean.size() * 8; ++bit) {
    auto bytes = clean;
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    try {
      serve::Frame g;
      const bool got = read_back(bytes, g);
      ADD_FAILURE() << "flip of bit " << bit
                    << (got ? " returned a frame" : " read as a clean EOF");
    } catch (const FormatInvalid&) {
      ++rejected;
    } catch (const IoError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, clean.size() * 8);
}

TEST_F(ServeTest, StatsReportOverSocketMatchesInProcess) {
  start(base_options());
  const auto a = pow2_matrix(32, 0x5B);
  serve::Client c(sock());
  const auto reg = c.register_matrix(a);
  ASSERT_EQ(reg.status.status, serve::ServeStatus::kOk);
  (void)c.spmv(reg.matrix_id, pow2_x(a.cols, 7));
  const auto wire = c.stats();
  const auto local = server_->stats();
  EXPECT_EQ(wire.accepted, local.accepted);
  EXPECT_EQ(wire.completed, local.completed);
  EXPECT_EQ(wire.registered, 1u);
}

}  // namespace
}  // namespace yaspmv
