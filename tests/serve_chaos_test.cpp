// Serving-daemon chaos tests: the failure modes the daemon must absorb
// without crashing or wedging — poisoned requests degrading down the native
// kernel ladder, clients vanishing mid-request, a writer killed with
// SIGKILL in the middle of a plan-cache store, and a 16-client soak with 10%
// injected faults where every clean or recovered request must match the CSR
// oracle bitwise and every faulted request must come back as a typed error.
#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "yaspmv/formats/csr.hpp"
#include "yaspmv/serve/client.hpp"
#include "yaspmv/serve/server.hpp"
#include "yaspmv/util/rng.hpp"

namespace yaspmv {
namespace {

namespace fs = std::filesystem;

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

std::vector<real_t> csr_oracle(const fmt::Coo& a,
                               const std::vector<real_t>& x) {
  std::vector<real_t> y(static_cast<std::size_t>(a.rows));
  fmt::Csr::from_coo(a).spmv(x, y);
  return y;
}

class ServeChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static std::atomic<int> counter{0};
    dir_ = fs::temp_directory_path() /
           ("yaspmv-chaos-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter.fetch_add(1)));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    server_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  serve::ServerOptions base_options() {
    serve::ServerOptions opt;
    opt.socket_path = (dir_ / "s.sock").string();
    opt.plan_cache_dir = (dir_ / "plans").string();
    opt.tune_on_register = false;
    opt.enable_inject = true;
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

// A poisoned request (a persistent carry flip on every kernel attempt)
// degrades to the CSR rung under verification and STILL returns the right
// answer — and the server keeps answering everyone else.
TEST_F(ServeChaosTest, InjectedFaultDegradesToCpuAndServerKeepsServing) {
  start(base_options());
  const auto a = pow2_matrix(64, 0x61);
  serve::Client c(sock());
  const auto reg = c.register_matrix(a);
  ASSERT_EQ(reg.status.status, serve::ServeStatus::kOk);
  const auto x = pow2_x(a.cols, 0x62);
  const auto want = csr_oracle(a, x);

  // The fault is live: unverified, it silently corrupts a kOk reply.
  serve::RequestOptions silent;
  silent.inject = serve::Inject::kCorruptPublish;
  const auto bad = c.spmv(reg.matrix_id, x, silent);
  ASSERT_TRUE(bad.ok()) << bad.status.detail;
  EXPECT_FALSE(bad.verified);
  EXPECT_NE(bad.y, want) << "corrupt_publish did not perturb the reply";

  serve::RequestOptions inj = silent;
  inj.verified = true;
  const auto r = c.spmv(reg.matrix_id, x, inj);
  ASSERT_TRUE(r.ok()) << r.status.detail;
  EXPECT_TRUE(r.recovered);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.path, "csr-reference");
  EXPECT_EQ(r.ladder_step, 2u);
  // Both kernel rungs: attempt, bare retry, retry after the rebuild.
  EXPECT_EQ(r.faults.size(), 6u);
  for (const auto& f : r.faults) {
    EXPECT_EQ(f.status, Status::kIntegrityFault);
    EXPECT_TRUE(f.journal_file.empty());  // native attempts dump no journal
  }
  // The CSR rung IS the oracle — bitwise equality holds trivially, but the
  // point is the value is right, not an error.
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(r.y[i], want[i]);
  EXPECT_GE(server_->stats().recovered, 1u);

  // Next clean request on the same ladder: back on the fast path.
  const auto clean = c.spmv(reg.matrix_id, x);
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE(clean.recovered);
  EXPECT_EQ(clean.ladder_step, 0u);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(clean.y[i], want[i]);
  }
}

// The simulator's faults have no site on the native serve path: each is a
// typed kBadRequest, for spmv and solve alike, and the server keeps serving.
TEST_F(ServeChaosTest, SimulatorInjectsAreBadRequests) {
  start(base_options());
  const auto a = pow2_matrix(64, 0x67);
  serve::Client c(sock());
  const auto reg = c.register_matrix(a);
  ASSERT_EQ(reg.status.status, serve::ServeStatus::kOk);
  const auto x = pow2_x(a.cols, 0x68);
  for (const auto kind : {serve::Inject::kDropPublish,
                          serve::Inject::kCorruptCache,
                          serve::Inject::kFailMain}) {
    serve::RequestOptions ropt;
    ropt.inject = kind;
    EXPECT_EQ(c.spmv(reg.matrix_id, x, ropt).status.status,
              serve::ServeStatus::kBadRequest);
    EXPECT_EQ(c.solve(reg.matrix_id, x, 1, 1e-10, 100, ropt).status.status,
              serve::ServeStatus::kBadRequest);
  }
  const auto good = c.spmv(reg.matrix_id, x);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.y, csr_oracle(a, x));
  EXPECT_EQ(server_->stats().accepted, 1u);  // rejected at admission
}

// A NaN-poisoned request gets a typed error; only that client sees it.
TEST_F(ServeChaosTest, NanPolicyViolationIsTypedAndIsolated) {
  start(base_options());
  const auto a = pow2_matrix(64, 0x63);
  serve::Client c(sock());
  const auto reg = c.register_matrix(a);
  ASSERT_EQ(reg.status.status, serve::ServeStatus::kOk);
  const auto x = pow2_x(a.cols, 0x64);

  serve::RequestOptions nan;
  nan.inject = serve::Inject::kNan;
  const auto bad = c.spmv(reg.matrix_id, x, nan);
  EXPECT_EQ(bad.status.status, serve::ServeStatus::kFaulted);
  EXPECT_EQ(bad.status.code, Status::kDataCorruption);
  EXPECT_NE(bad.status.detail.find("NaN policy"), std::string::npos);

  const auto good = c.spmv(reg.matrix_id, x);
  ASSERT_TRUE(good.ok());
  const auto want = csr_oracle(a, x);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(good.y[i], want[i]);
  }
  const auto s = server_->stats();
  EXPECT_EQ(s.faulted, 1u);
  EXPECT_EQ(s.completed, 2u);
}

// A client that vanishes mid-request (socket closed while its apply holds
// the executor) must not wedge or kill the server.
TEST_F(ServeChaosTest, MidRequestDisconnectLeavesServerHealthy) {
  auto opt = base_options();
  opt.executors = 1;
  start(opt);
  const auto a = pow2_matrix(64, 0x65);
  serve::Client c(sock());
  const auto reg = c.register_matrix(a);
  ASSERT_EQ(reg.status.status, serve::ServeStatus::kOk);
  const auto x = pow2_x(a.cols, 0x66);

  {
    // Hand-roll the request so we can slam the connection shut while the
    // server is still executing it.
    serve::Client doomed(sock());
    serve::WireWriter w;
    w.put<std::uint64_t>(reg.matrix_id);
    w.put<std::uint32_t>(0);  // no deadline
    w.put<std::uint8_t>(
        static_cast<std::uint8_t>(serve::Inject::kSleepMs));
    w.put<std::uint32_t>(200);
    w.put_vec(x);
    serve::write_frame(doomed.fd(), serve::MsgType::kSpmv, w.bytes());
    for (int spin = 0; spin < 200 && server_->stats().inflight < 1; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    doomed.close();  // gone before the reply exists
  }

  // The abandoned apply finishes on the server; new requests are unaffected.
  const auto r = c.spmv(reg.matrix_id, x);
  ASSERT_TRUE(r.ok()) << r.status.detail;
  const auto want = csr_oracle(a, x);
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(r.y[i], want[i]);
  // Disconnect is observed when the server tries to write the reply.
  for (int spin = 0; spin < 200 && server_->stats().disconnects < 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server_->stats().disconnects, 1u);
}

// kill -9 in the middle of plan-cache stores: the cache directory must come
// back readable — every key loads as either a valid record or a miss, never
// a crash — and new stores must keep working.
TEST_F(ServeChaosTest, SigkillDuringPlanCacheWriteRecoversCleanly) {
  const std::string cache_dir = (dir_ / "killed-plans").string();
  serve::PlanCache cache(cache_dir);

  io::PlanRecord rec;
  rec.device = "GTX680";
  rec.best.format.block_w = 2;
  rec.best.format.block_h = 2;
  rec.best.gflops = 42.0;
  rec.tuning_seconds = 1.5;
  rec.evaluated = 100;

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: hammer the cache with stores until SIGKILLed mid-write.
    serve::PlanCache victim(cache_dir);
    io::PlanRecord r = rec;
    for (std::uint64_t i = 0;; ++i) {
      r.payload_checksum = i % 16;
      victim.store(r);
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));

  // Recovery: every slot is a valid record or a clean miss.
  int valid = 0;
  for (std::uint64_t i = 0; i < 16; ++i) {
    const auto p = cache.load(i, "GTX680");
    if (p) {
      EXPECT_EQ(p->payload_checksum, i);
      EXPECT_EQ(p->best.gflops, 42.0);
      ++valid;
    }
  }
  EXPECT_GE(valid, 1);  // 150 ms of stores landed at least one record

  // The survivor can still write, and a full round trip works.
  rec.payload_checksum = 999;
  EXPECT_TRUE(cache.store(rec));
  const auto back = cache.load(999, "GTX680");
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->best.same_plan(rec.best));
}

// The acceptance soak: 16 concurrent clients, 10% injected faults, zero
// server crashes, every faulted request a typed error, every clean request
// bitwise-identical to the CSR oracle.
TEST_F(ServeChaosTest, SoakSixteenClientsTenPercentFaults) {
  auto opt = base_options();
  opt.queue_capacity = 256;
  opt.max_inflight = 64;
  start(opt);
  const auto a = pow2_matrix(96, 0x77);
  serve::Client reg_client(sock());
  const auto reg = reg_client.register_matrix(a);
  ASSERT_EQ(reg.status.status, serve::ServeStatus::kOk);

  constexpr int kClients = 16;
  constexpr int kRequests = 20;
  std::atomic<int> clean_ok{0}, clean_bad{0};
  std::atomic<int> fault_typed{0}, fault_wrong{0}, flipped{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      serve::Client c(sock());
      SplitMix64 rng(0x5eed + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kRequests; ++i) {
        const auto x = pow2_x(a.cols, 0x800 + t * 1000 + i);
        const bool poison = (i % 10) == 3;  // 10% of requests carry a fault
        serve::RequestOptions ropt;
        ropt.retries = 40;
        ropt.backoff_ms = 5;
        if (poison) {
          // Alternate between a request-data fault (typed error) and a
          // verified execution fault (ladder recovery).
          if (rng.next_below(2) == 0) {
            ropt.inject = serve::Inject::kNan;
          } else {
            ropt.inject = serve::Inject::kCorruptPublish;
            ropt.verified = true;
            ++flipped;
          }
        }
        const auto r = c.spmv(reg.matrix_id, x, ropt);
        if (poison && ropt.inject == serve::Inject::kNan) {
          // Must be a typed kFaulted carrying kDataCorruption.
          if (r.status.status == serve::ServeStatus::kFaulted &&
              r.status.code == Status::kDataCorruption) {
            ++fault_typed;
          } else {
            ++fault_wrong;
          }
          continue;
        }
        // Clean and corrupt_publish requests must succeed with oracle-exact
        // y (the flipped ones recover through the ladder to the CSR rung).
        if (!r.ok()) {
          ++clean_bad;
          continue;
        }
        const auto want = csr_oracle(a, x);
        bool exact = r.y.size() == want.size();
        for (std::size_t k = 0; exact && k < want.size(); ++k) {
          exact = r.y[k] == want[k];
        }
        (exact ? clean_ok : clean_bad)++;
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(clean_bad.load(), 0);
  EXPECT_EQ(fault_wrong.load(), 0);
  EXPECT_GT(fault_typed.load(), 0);
  EXPECT_GT(flipped.load(), 0);
  EXPECT_EQ(clean_ok.load() + fault_typed.load(), kClients * kRequests);

  // The server is alive and consistent after the storm.
  ASSERT_TRUE(server_->running());
  const auto s = server_->stats();
  EXPECT_EQ(s.faulted, static_cast<std::uint64_t>(fault_typed.load()));
  // Every flip was detected and recovered: six trips per flipped request.
  EXPECT_EQ(s.integrity_faults, 6u * static_cast<std::uint64_t>(flipped));
  EXPECT_EQ(s.integrity_recovered, static_cast<std::uint64_t>(flipped));
  EXPECT_EQ(s.completed,
            static_cast<std::uint64_t>(clean_ok.load() + fault_typed.load()));
  // And it still serves.
  const auto x = pow2_x(a.cols, 0x999);
  const auto after = reg_client.spmv(reg.matrix_id, x);
  ASSERT_TRUE(after.ok());
  const auto want = csr_oracle(a, x);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(after.y[i], want[i]);
  }
}

// The silent-corruption soak: kCorruptPublish flips a kernel carry right
// before the fix-up consumes it — no classified error is raised anywhere, so
// an unverified server would return wrong bits with kOk.  Under the ABFT
// checksum every poisoned request must either recover to the bitwise-exact
// oracle answer or fail typed; a wrong kOk reply is the one unforgivable
// outcome.
TEST_F(ServeChaosTest, VerifiedSoakNeverReturnsWrongBitsUnderCorruptPublish) {
  auto opt = base_options();
  opt.verified = true;
  opt.queue_capacity = 256;
  opt.max_inflight = 64;
  start(opt);
  const auto a = pow2_matrix(256, 0x88);
  serve::Client reg_client(sock());
  const auto reg = reg_client.register_matrix(a);
  ASSERT_EQ(reg.status.status, serve::ServeStatus::kOk);

  // First, prove the injected fault is live: the same corrupt-publish
  // request on an UNVERIFIED server silently flips bits in a kOk reply.
  // (Otherwise the soak below would vacuously pass against a dud fault.)
  {
    serve::ServerOptions unver = base_options();
    unver.socket_path = (dir_ / "unverified.sock").string();
    serve::Server shadow(unver);
    shadow.start();
    serve::Client sc(unver.socket_path);
    const auto sreg = sc.register_matrix(a);
    ASSERT_EQ(sreg.status.status, serve::ServeStatus::kOk);
    const auto x = pow2_x(a.cols, 0x89);
    serve::RequestOptions poison;
    poison.inject = serve::Inject::kCorruptPublish;
    const auto r = sc.spmv(sreg.matrix_id, x, poison);
    ASSERT_TRUE(r.ok()) << r.status.detail;
    const auto want = csr_oracle(a, x);
    bool exact = true;
    for (std::size_t i = 0; exact && i < want.size(); ++i) {
      exact = r.y[i] == want[i];
    }
    EXPECT_FALSE(exact) << "corrupt-publish did not perturb the reply; "
                           "the verified soak would prove nothing";
    sc.close();
    shadow.stop();
  }

  constexpr int kClients = 8;
  constexpr int kRequests = 15;
  std::atomic<int> ok_exact{0}, ok_wrong{0}, typed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      serve::Client c(sock());
      for (int i = 0; i < kRequests; ++i) {
        const auto x = pow2_x(a.cols, 0xA00 + t * 1000 + i);
        serve::RequestOptions ropt;
        ropt.retries = 40;
        ropt.backoff_ms = 5;
        if (i % 3 == 1) ropt.inject = serve::Inject::kCorruptPublish;
        const auto r = c.spmv(reg.matrix_id, x, ropt);
        if (!r.ok()) {
          // A typed failure is an acceptable (honest) answer under attack.
          ++typed;
          continue;
        }
        EXPECT_TRUE(r.verified);
        const auto want = csr_oracle(a, x);
        bool exact = r.y.size() == want.size();
        for (std::size_t k = 0; exact && k < want.size(); ++k) {
          exact = r.y[k] == want[k];
        }
        (exact ? ok_exact : ok_wrong)++;
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(ok_wrong.load(), 0);  // zero wrong bitwise kOk replies — ever
  EXPECT_GT(ok_exact.load(), 0);
  EXPECT_EQ(ok_exact.load() + typed.load(), kClients * kRequests);

  ASSERT_TRUE(server_->running());
  const auto s = server_->stats();
  EXPECT_GE(s.verified_requests,
            static_cast<std::uint64_t>(ok_exact.load()));
  EXPECT_GE(s.integrity_faults, 1u);  // the checksum demonstrably tripped
  EXPECT_GE(s.integrity_recovered, 1u);
}

// Registration with non-finite matrix values is rejected up front — the NaN
// policy applies to payloads, not just request vectors.
TEST_F(ServeChaosTest, RegisterRejectsNonFiniteValues) {
  start(base_options());
  std::vector<index_t> ri = {0, 1};
  std::vector<index_t> ci = {0, 1};
  std::vector<real_t> v = {1.0, std::numeric_limits<real_t>::quiet_NaN()};
  fmt::Coo a;
  a.rows = 2;
  a.cols = 2;
  a.row_idx = ri;
  a.col_idx = ci;
  a.vals = v;
  serve::Client c(sock());
  const auto r = c.register_matrix(a);
  EXPECT_EQ(r.status.status, serve::ServeStatus::kFaulted);
  EXPECT_EQ(r.status.code, Status::kDataCorruption);
  // The server refused it but keeps serving.
  EXPECT_EQ(c.stats().status.status, serve::ServeStatus::kOk);
}

}  // namespace
}  // namespace yaspmv
