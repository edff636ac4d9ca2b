// Tests of the harness's own statistics and digest logic (bench_stats.h).
//
//   python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <vector>

#include "bench_stats.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileTest, NearestRankOnOneToHundred) {
  const auto v = OneTo(100);
  EXPECT_EQ(Percentile(v, 0.50), 50.0);
  EXPECT_EQ(Percentile(v, 0.99), 99.0);
  EXPECT_EQ(Percentile(v, 1.00), 100.0);
  EXPECT_EQ(Percentile(v, 0.001), 1.0);
}

TEST(PercentileTest, IgnoresInputOrder) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(v, 0.5), 3.0);
  EXPECT_EQ(Percentile(v, 0.99), 5.0);
}

TEST(PercentileTest, EmptyAndSingleton) {
  EXPECT_EQ(Percentile({}, 0.99), 0.0);
  EXPECT_EQ(Percentile({7.0}, 0.99), 7.0);
  EXPECT_EQ(SamplesBeyond(0, 0.99), 0u);
  EXPECT_EQ(SamplesBeyond(1, 0.99), 0u);
}

TEST(PercentileTest, TenSamplesBeyondP99NeedsOneThousand) {
  // 0.99 * 1000 is 990 exactly in decimal but not in binary floating
  // point; the rank must still be 990, leaving exactly ten beyond it.
  EXPECT_EQ(NearestRank(1000, 0.99), 990u);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(MinSamplesFor(0.99), 1000u);
  EXPECT_EQ(MinSamplesFor(0.50), 20u);
  // The reported p99 of 1..1000 leaves exactly the ten largest beyond it.
  EXPECT_EQ(Percentile(OneTo(1000), 0.99), 990.0);
}

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

AnswerRecord Mined(const char* expression, double cost) {
  return {"OK", true, cost, expression};
}

TEST(DigestTest, EqualSequencesEqualDigests) {
  Digest a, b;
  for (Digest* d : {&a, &b}) {
    d->Add(Mined("capitalOf(x, Germany)", 2.807));
    d->Add({"OK", false, 0.0, ""});
  }
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(a.records(), 2u);
  EXPECT_EQ(a.Hex().size(), 16u);
}

TEST(DigestTest, OrderMatters) {
  Digest a, b;
  a.Add(Mined("p(x, A)", 1.0));
  a.Add(Mined("p(x, B)", 2.0));
  b.Add(Mined("p(x, B)", 2.0));
  b.Add(Mined("p(x, A)", 1.0));
  EXPECT_NE(a.value(), b.value());
}

TEST(DigestTest, EveryComparedFieldMatters) {
  const AnswerRecord base = Mined("p(x, A)", 1.5);
  Digest reference;
  reference.Add(base);
  std::vector<AnswerRecord> variants(4, base);
  variants[0].status = "DeadlineExceeded";
  variants[1].found = false;
  variants[2].cost = 1.5000000000000002;  // one ulp: costs compare exactly
  variants[3].expression = "p(x, B)";
  for (const AnswerRecord& v : variants) {
    Digest d;
    d.Add(v);
    EXPECT_NE(d.value(), reference.value()) << v.status << v.expression;
  }
}

TEST(DigestTest, FieldBoundariesAreNotAmbiguous) {
  Digest a, b;
  a.Add({"OK", false, 0.0, "ab"});
  a.Add({"OK", false, 0.0, "c"});
  b.Add({"OK", false, 0.0, "a"});
  b.Add({"OK", false, 0.0, "bc"});
  EXPECT_NE(a.value(), b.value());
}

TEST(DigestTest, CostIgnoredWhenNotFound) {
  // A not-found answer carries no cost on the wire; the in-process side
  // may hold any value there.
  Digest a, b;
  a.Add({"OK", false, 0.0, ""});
  b.Add({"OK", false, 42.0, ""});
  EXPECT_EQ(a.value(), b.value());
}

}  // namespace
}  // namespace perfbench
