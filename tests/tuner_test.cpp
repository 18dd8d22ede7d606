// Auto-tuner tests (Section 4): pruning, candidate validity, caching and
// matrix-structure-sensitive decisions.
#include "yaspmv/tune/tuner.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "yaspmv/core/engine.hpp"
#include "yaspmv/formats/blocked.hpp"
#include "yaspmv/formats/csr.hpp"
#include "yaspmv/gen/suite.hpp"
#include "yaspmv/util/rng.hpp"

namespace yaspmv {
namespace {

TEST(Tuner, PrunedBlockDimsAreFourSmallestFootprints) {
  const auto A = gen::fem_mesh(1200, 36, 3, 0.02, 1);
  const auto dims = tune::pruned_block_dims(A);
  ASSERT_EQ(dims.size(), 4u);
  // A 3x3-blocked FEM matrix: tall/wide blocks beat 1x1 on footprint, so
  // (1,1) must not be the first choice.
  EXPECT_FALSE(dims[0].first == 1 && dims[0].second == 1);
}

TEST(Tuner, FindsValidConfigOnSmallMatrix) {
  const auto A = gen::random_scattered(600, 600, 5, 2);
  const auto r = tune::tune(A, sim::gtx680());
  EXPECT_GT(r.best.gflops, 0.0);
  EXPECT_GT(r.evaluated, 10);
  EXPECT_GT(r.tuning_seconds, 0.0);
  EXPECT_FALSE(r.top.empty());
  // The best candidate must execute and match the reference.
  core::SpmvEngine eng(A, r.best.format, r.best.exec, sim::gtx680());
  SplitMix64 rng(1);
  std::vector<real_t> x(600), y(600), want(600);
  for (auto& v : x) v = rng.next_double(-1, 1);
  fmt::Csr::from_coo(A).spmv(x, want);
  eng.run(x, y);
  for (std::size_t i = 0; i < 600; ++i) {
    ASSERT_NEAR(y[i], want[i], 1e-9 * std::max(1.0, std::abs(want[i])));
  }
}

TEST(Tuner, TopCandidatesSortedDescending) {
  const auto A = gen::stencil2d(40, 40, false, 3);
  const auto r = tune::tune(A, sim::gtx680());
  for (std::size_t i = 1; i < r.top.size(); ++i) {
    EXPECT_GE(r.top[i - 1].gflops, r.top[i].gflops);
  }
}

TEST(Tuner, BlockedMatrixPrefersBlocks) {
  // Dense 3x3 blocks -> the tuner should pick block_h > 1 or block_w > 1.
  const auto A = gen::fem_mesh(2400, 45, 3, 0.02, 4);
  const auto r = tune::tune(A, sim::gtx680());
  EXPECT_GT(r.best.format.block_w * r.best.format.block_h, 1);
}

TEST(Tuner, ScatteredMatrixPrefersSmallBlocks) {
  const auto A = gen::random_scattered(2000, 2000, 4, 5);
  const auto r = tune::tune(A, sim::gtx680());
  // Zero fill-in dominates: 1-wide blocks win on scattered patterns.
  EXPECT_LE(r.best.format.block_w * r.best.format.block_h, 2);
}

TEST(Tuner, RejectsEmptyMatrix) {
  fmt::Coo empty;
  EXPECT_THROW(tune::tune(empty, sim::gtx680()), std::invalid_argument);
}

TEST(Tuner, DeviceChangesCanChangeChoice) {
  // Not asserting a specific difference — only that both devices tune
  // successfully and report device-consistent throughput.
  const auto A = gen::quantum_chem(1500, 40, 6);
  const auto r680 = tune::tune(A, sim::gtx680());
  const auto r480 = tune::tune(A, sim::gtx480());
  EXPECT_GT(r680.best.gflops, 0.0);
  EXPECT_GT(r480.best.gflops, 0.0);
  EXPECT_GT(r680.best.gflops, r480.best.gflops * 0.8);
}

TEST(Tuner, ExhaustiveAtLeastAsGoodAsPruned) {
  const auto A = gen::random_scattered(400, 400, 6, 7);
  tune::TuneOptions pruned;
  tune::TuneOptions full;
  full.exhaustive = true;
  const auto rp = tune::tune(A, sim::gtx680(), pruned);
  const auto rf = tune::tune(A, sim::gtx680(), full);
  EXPECT_GE(rf.best.gflops, rp.best.gflops * 0.999);
  EXPECT_GT(rf.evaluated, rp.evaluated);
}

TEST(Tuner, SerialAndParallelFormatBuildsAreByteIdentical) {
  // The tuner prebuilds every candidate format on the WorkPool; the
  // parallel Bccoo builder is defined to produce the exact bytes of the
  // serial one (same sort order, same streams) for any worker count.
  const auto A = gen::powerlaw(900, 850, 6, 2.2, 0.4, 41);
  for (core::FormatConfig fc :
       {core::FormatConfig{}, [] {
          core::FormatConfig c;
          c.slices = 4;
          c.block_w = 2;
          c.block_h = 2;
          return c;
        }()}) {
    const auto serial = core::Bccoo::build(A, fc, 1);
    for (unsigned workers : {2u, 8u}) {
      EXPECT_TRUE(serial == core::Bccoo::build(A, fc, workers))
          << "workers=" << workers;
    }
  }
}

TEST(Tuner, RecordsBuildAndEvalSecondsPerCandidate) {
  const auto A = gen::random_scattered(500, 500, 6, 3);
  const auto r = tune::tune(A, sim::gtx680(), {});
  ASSERT_FALSE(r.top.empty());
  EXPECT_GT(r.formats_built, 0);
  EXPECT_GE(r.format_build_seconds, 0.0);
  for (const auto& c : r.top) {
    EXPECT_GE(c.build_seconds, 0.0);
    EXPECT_GE(c.eval_seconds, 0.0);
  }
}

TEST(Tuner, NativeMeasurementFillsMeasuredColumns) {
  const auto A = gen::random_scattered(400, 400, 6, 19);
  tune::TuneOptions opt;
  opt.measure_native = true;
  opt.native_reps = 1;
  const auto r = tune::tune(A, sim::gtx680(), opt);
  ASSERT_TRUE(r.native_measured);
  EXPECT_GT(r.best_native.measured_gflops, 0.0);
  EXPECT_GT(r.best_native.measured_bytes, 0u);
  // The modeled ranking itself must be untouched by the native pass.
  tune::TuneOptions plain;
  const auto rp = tune::tune(A, sim::gtx680(), plain);
  EXPECT_EQ(rp.best.format.to_string(), r.best.format.to_string());
  EXPECT_EQ(rp.best.exec.to_string(), r.best.exec.to_string());
}

/// Sets (or, with nullptr, unsets) one environment variable for a scope
/// and restores its previous value or absence on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (saved_) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

// The plan a tune picks is a function of the matrix and the device alone.
// YASPMV_SEGSUM=serial once made the tuner rank every candidate as a
// generic kernel and pick another plan (4x3 generic instead of 2x2
// grid/w2h2/short here), which the plan cache then kept serving.
TEST(Tuner, SegsumEnvironmentDoesNotChangeThePlan) {
  const auto& e = gen::suite_entry("Protein");
  const auto A = e.make(e.bench_scale * 0.05);
  tune::TuneResult plain, with_env;
  {
    ScopedEnv unset("YASPMV_SEGSUM", nullptr);
    plain = tune::tune(A, sim::gtx680());
  }
  {
    ScopedEnv serial("YASPMV_SEGSUM", "serial");
    with_env = tune::tune(A, sim::gtx680());
  }
  EXPECT_EQ(with_env.best.format, plain.best.format)
      << with_env.best.format.to_string() << " vs "
      << plain.best.format.to_string();
  EXPECT_EQ(with_env.best.exec, plain.best.exec)
      << with_env.best.exec.to_string() << " vs "
      << plain.best.exec.to_string();
  EXPECT_EQ(with_env.best.kernel, plain.best.kernel);
}

}  // namespace
}  // namespace yaspmv
