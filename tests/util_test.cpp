// Unit tests for the util layer: common helpers, RNG determinism and
// distributions, CLI args, table printer, ordered parallel-for, Hash64.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "yaspmv/util/args.hpp"
#include "yaspmv/util/common.hpp"
#include "yaspmv/util/hash.hpp"
#include "yaspmv/util/json.hpp"
#include "yaspmv/util/rng.hpp"
#include "yaspmv/util/table.hpp"
#include "yaspmv/util/thread_pool.hpp"

namespace yaspmv {
namespace {

TEST(Common, CeilDivRoundUp) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(0, 3), 0);
  EXPECT_EQ(round_up(10, 4), 12);
  EXPECT_EQ(round_up(12, 4), 12);
  EXPECT_EQ(round_up(std::size_t{5}, std::size_t{8}), 8u);
}

TEST(Common, RequireThrowsWithMessage) {
  EXPECT_NO_THROW(require(true, "ok"));
  try {
    require(false, "the message");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "the message");
  }
}

TEST(Rng, DeterministicStream) {
  SplitMix64 a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  bool differs = false;
  SplitMix64 a2(123);
  for (int i = 0; i < 10; ++i) differs |= (a2.next() != c.next());
  EXPECT_TRUE(differs);
}

TEST(Rng, NextBelowInRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  // Rough uniformity: every residue hit.
  std::vector<int> hits(17, 0);
  SplitMix64 rng2(8);
  for (int i = 0; i < 17000; ++i) hits[rng2.next_below(17)]++;
  for (int h : hits) EXPECT_GT(h, 500);
}

TEST(Rng, DoublesInHalfOpenInterval) {
  SplitMix64 rng(9);
  double mn = 1, mx = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    mn = std::min(mn, d);
    mx = std::max(mx, d);
  }
  EXPECT_LT(mn, 0.01);
  EXPECT_GT(mx, 0.99);
  for (int i = 0; i < 100; ++i) {
    const double d = rng.next_double(-3, 5);
    EXPECT_GE(d, -3.0);
    EXPECT_LT(d, 5.0);
  }
}

TEST(Rng, PowerlawTailProperties) {
  SplitMix64 rng(10);
  std::size_t ones = 0, big = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto k = rng.next_powerlaw(2.2, 100000);
    EXPECT_GE(k, 1u);
    if (k == 1) ++ones;
    if (k > 50) ++big;
  }
  EXPECT_GT(ones, n / 3);  // mass at the head
  EXPECT_GT(big, 10u);     // heavy tail exists
}

TEST(Args, ParsesFlagsValuesPositionals) {
  const char* argv[] = {"prog", "--alpha=3", "--flag", "pos1",
                        "--name=x=y", "pos2"};
  Args a(6, argv);
  EXPECT_EQ(a.get_int("alpha", 0), 3);
  EXPECT_TRUE(a.has("flag"));
  EXPECT_EQ(a.get("flag"), "1");
  EXPECT_EQ(a.get("name"), "x=y");
  EXPECT_FALSE(a.has("missing"));
  EXPECT_EQ(a.get("missing", "d"), "d");
  EXPECT_DOUBLE_EQ(a.get_double("alpha", 0), 3.0);
  EXPECT_EQ(a.positional(), (std::vector<std::string>{"pos1", "pos2"}));
}

TEST(Table, AlignsColumnsAndFormats) {
  TablePrinter t({"a", "long header"});
  t.add_row({"xxxxx", "1"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long header"), std::string::npos);
  EXPECT_NE(out.find("xxxxx"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt(2.0, 0), "2");
}

TEST(ThreadPool, VisitsEveryIndexOnceAnyWorkerCount) {
  for (unsigned workers : {1u, 2u, 5u}) {
    std::vector<std::atomic<int>> hits(97);
    parallel_for_ordered(97, workers, [&](unsigned w, std::size_t i) {
      EXPECT_LT(w, std::max(workers, 1u));
      hits[i].fetch_add(1);
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ZeroItemsIsNoop) {
  bool called = false;
  parallel_for_ordered(0, 4, [&](unsigned, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SequentialModeIsInOrder) {
  std::vector<std::size_t> order;
  parallel_for_ordered(10, 1, [&](unsigned, std::size_t i) {
    order.push_back(i);
  });
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Json, WriterEmitsValidNestedDocument) {
  json::Writer w;
  w.begin_object();
  w.key("name").value("bench \"quoted\"\n");
  w.key("count").value(42);
  w.key("pi").value(3.25);
  w.key("nan_becomes_null").value(std::nan(""));
  w.key("flag").value(true);
  w.key("rows").begin_array();
  w.begin_object();
  w.key("x").value(1);
  w.end_object();
  w.value(7);
  w.end_array();
  w.key("empty").begin_object().end_object();
  w.end_object();
  const std::string doc = w.take();
  EXPECT_TRUE(json::valid(doc)) << doc;
  EXPECT_NE(doc.find("\"nan_becomes_null\": null"), std::string::npos);
}

TEST(Json, ValidatorAcceptsAndRejects) {
  EXPECT_TRUE(json::valid("{}"));
  EXPECT_TRUE(json::valid(" [1, 2.5e-3, \"a\", null, true, [], {\"k\": []}] "));
  EXPECT_TRUE(json::valid("-0.5"));
  EXPECT_FALSE(json::valid(""));
  EXPECT_FALSE(json::valid("{"));
  EXPECT_FALSE(json::valid("{\"a\": }"));
  EXPECT_FALSE(json::valid("[1,]"));
  EXPECT_FALSE(json::valid("01"));
  EXPECT_FALSE(json::valid("nul"));
  EXPECT_FALSE(json::valid("{} extra"));
  EXPECT_FALSE(json::valid("\"unterminated"));
  EXPECT_FALSE(json::valid("\"bad \\q escape\""));
}

std::uint64_t hash64(const void* p, std::size_t n) {
  Hash64 h;
  h.update(p, n);
  return h.digest();
}

std::uint64_t hash_text(const std::string& s) {
  return hash64(s.data(), s.size());
}

/// Bytes (i * 131 + 7) & 0xFF: no run or period shorter than the buffer.
std::vector<unsigned char> pattern(std::size_t n) {
  std::vector<unsigned char> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<unsigned char>((i * 131 + 7) & 0xFF);
  }
  return b;
}

TEST(Hash64, MatchesXxh64ReferenceVectors) {
  // Seed-0 digests of the reference XXH64 implementation (libxxhash 0.8.1).
  EXPECT_EQ(hash_text(""), 0xef46db3751d8e999ull);
  EXPECT_EQ(hash_text("abc"), 0x44bc2cf5ad770999ull);
  EXPECT_EQ(hash_text("The quick brown fox jumps over the lazy dog"),
            0x0b242d361fda71bcull);
  const auto b = pattern(1000);
  EXPECT_EQ(hash64(b.data(), 100), 0x9ddada11d3dc2d8full);
  EXPECT_EQ(hash64(b.data(), 1000), 0x0bf0bdbcc82eb373ull);
}

TEST(Hash64, StreamingEqualsOneUpdateAtEverySplit) {
  const auto b = pattern(1000);
  const std::uint64_t want = hash64(b.data(), b.size());
  for (std::size_t split = 0; split <= b.size(); ++split) {
    Hash64 h;
    h.update(b.data(), split);
    h.update(b.data() + split, b.size() - split);
    ASSERT_EQ(h.digest(), want) << "split at " << split;
  }
  Hash64 dribble;
  for (const unsigned char c : b) dribble.update(&c, 1);
  EXPECT_EQ(dribble.digest(), want);
  // digest() does not consume the state: more input continues the stream.
  Hash64 twice;
  twice.update(b.data(), 500);
  EXPECT_EQ(twice.digest(), hash64(b.data(), 500));
  twice.update(b.data() + 500, 500);
  EXPECT_EQ(twice.digest(), want);
}

TEST(Hash64, StartOffsetDoesNotChangeTheDigest) {
  // Word loads go through memcpy: a misaligned start reads the same lanes.
  const auto b = pattern(1000);
  const std::uint64_t want = hash64(b.data(), b.size());
  std::vector<unsigned char> shifted(b.size() + 8);
  for (std::size_t off = 1; off <= 7; ++off) {
    std::memcpy(shifted.data() + off, b.data(), b.size());
    EXPECT_EQ(hash64(shifted.data() + off, b.size()), want)
        << "offset " << off;
  }
}

}  // namespace
}  // namespace yaspmv
