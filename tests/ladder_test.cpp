// SpmvLadder tests: the served in-memory path's integrity policy on the
// native kernels.  Verified applies retry a checksum trip once, then
// revalidate + rebuild the format, then move to the next rung, ending on
// the parallel CSR reference; plain applies are exactly one unverified
// kernel apply.  The fault is the serving daemon's corrupt_publish flip:
// bit 62 of chunk 0's carry, which always reaches y.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "yaspmv/core/bccoo.hpp"
#include "yaspmv/cpu/ladder.hpp"
#include "yaspmv/cpu/spmv.hpp"
#include "yaspmv/formats/csr.hpp"
#include "yaspmv/gen/suite.hpp"
#include "yaspmv/sim/fault.hpp"
#include "yaspmv/util/rng.hpp"

namespace yaspmv {
namespace {

constexpr unsigned kThreads = 2;

fmt::Coo test_matrix() { return gen::fem_mesh(1200, 24, 3, 0.05, 0x1ADD); }

std::vector<real_t> make_x(index_t cols) {
  SplitMix64 rng(0x1ADE);
  std::vector<real_t> x(static_cast<std::size_t>(cols));
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  return x;
}

sim::FaultPlan carry_flip(std::uint32_t max_fires) {
  sim::FaultPlan plan;
  plan.type = sim::FaultType::kFlipPartial;
  plan.target_index = 0;
  plan.bit = 62;
  plan.max_fires = max_fires;
  return plan;
}

/// Rung 0's answer on a clean run: CpuSpmv at the ladder's shape.
std::vector<real_t> kernel_y(const fmt::Coo& a, const core::FormatConfig& fc,
                             const std::vector<real_t>& x) {
  cpu::CpuSpmv eng(
      std::make_shared<const core::Bccoo>(core::Bccoo::build(a, fc)),
      kThreads);
  std::vector<real_t> y(static_cast<std::size_t>(a.rows));
  eng.spmv(x, y);
  return y;
}

TEST(SpmvLadder, TransientFlipRecoversOnFirstRungAfterOneRetry) {
  const auto a = test_matrix();
  const auto x = make_x(a.cols);
  cpu::SpmvLadder ladder(a, {}, core::ColStream::kAuto, kThreads);
  sim::FaultInjector inj;
  inj.arm(carry_flip(/*max_fires=*/1));
  ladder.set_fault_injector(&inj);
  std::vector<real_t> y(static_cast<std::size_t>(a.rows));
  const cpu::LadderRun r = ladder.run(x, y, /*verified=*/true);
  EXPECT_EQ(inj.fired(), 1u);
  EXPECT_EQ(r.rung, 0);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_TRUE(r.recovered);
  EXPECT_TRUE(r.verified);
  ASSERT_EQ(r.faults.size(), 1u);
  EXPECT_EQ(r.faults[0].status, Status::kIntegrityFault);
  EXPECT_EQ(r.faults[0].path, r.path);
  EXPECT_EQ(r.faults[0].detail.find("rebuilt"), std::string::npos);
  EXPECT_EQ(y, kernel_y(a, {}, x));
}

TEST(SpmvLadder, PersistentFlipWithVerificationEndsOnCsrRung) {
  const auto a = test_matrix();
  const auto x = make_x(a.cols);
  // Blocked and sliced: the flip travels through the stacked result buffer
  // and the combine pass before it reaches y.
  core::FormatConfig fc;
  fc.block_w = 2;
  fc.block_h = 2;
  fc.slices = 2;
  cpu::SpmvLadder ladder(a, fc, core::ColStream::kAuto, kThreads);
  const std::shared_ptr<const core::Bccoo> stored = ladder.format();
  sim::FaultInjector inj;
  inj.arm(carry_flip(/*max_fires=*/0));
  ladder.set_fault_injector(&inj);
  std::vector<real_t> y(static_cast<std::size_t>(a.rows));
  const cpu::LadderRun r = ladder.run(x, y, /*verified=*/true);
  // Per kernel rung: the attempt, a bare retry, a retry after the rebuild.
  EXPECT_EQ(inj.fired(), 6u);
  EXPECT_EQ(r.rung, 2);
  EXPECT_EQ(r.path, cpu::SpmvLadder::kCsrLabel);
  EXPECT_EQ(r.attempts, 7);
  EXPECT_TRUE(r.recovered);
  EXPECT_TRUE(r.verified);
  ASSERT_EQ(r.faults.size(), 6u);
  for (const auto& f : r.faults) {
    EXPECT_EQ(f.status, Status::kIntegrityFault) << f.detail;
  }
  EXPECT_EQ(r.faults[3].path, "generic");
  EXPECT_NE(r.faults[1].detail.find("rebuilt from source"), std::string::npos);
  EXPECT_NE(r.faults[4].detail.find("rebuilt from source"), std::string::npos);
  EXPECT_NE(ladder.format(), stored);  // later applies read the rebuild

  std::vector<real_t> want(y.size());
  cpu::spmv_csr_parallel(fmt::Csr::from_coo(a), x, want, kThreads);
  EXPECT_EQ(y, want);

  // Fault gone: the next verified apply is back on rung 0, first try.
  ladder.set_fault_injector(nullptr);
  const cpu::LadderRun clean = ladder.run(x, y, /*verified=*/true);
  EXPECT_EQ(clean.rung, 0);
  EXPECT_EQ(clean.attempts, 1);
  EXPECT_FALSE(clean.recovered);
  EXPECT_EQ(y, kernel_y(a, fc, x));
}

TEST(SpmvLadder, PlainAppliesRunOneUnverifiedKernelApply) {
  const auto a = test_matrix();
  const auto x = make_x(a.cols);
  cpu::SpmvLadder ladder(a, {}, core::ColStream::kAuto, kThreads);
  const auto want = kernel_y(a, {}, x);
  std::vector<real_t> y(static_cast<std::size_t>(a.rows));
  const cpu::LadderRun r = ladder.run(x, y, /*verified=*/false);
  EXPECT_EQ(r.rung, 0);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_FALSE(r.verified);
  EXPECT_FALSE(r.recovered);
  EXPECT_TRUE(r.faults.empty());
  EXPECT_EQ(y, want);

  // No check runs, so a persistent flip is neither retried nor noticed.
  sim::FaultInjector inj;
  inj.arm(carry_flip(/*max_fires=*/0));
  ladder.set_fault_injector(&inj);
  const cpu::LadderRun silent = ladder.run(x, y, /*verified=*/false);
  EXPECT_EQ(inj.fired(), 1u);
  EXPECT_EQ(silent.attempts, 1);
  EXPECT_FALSE(silent.verified);
  EXPECT_TRUE(silent.faults.empty());
  EXPECT_NE(y, want);
}

}  // namespace
}  // namespace yaspmv
