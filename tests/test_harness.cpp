#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

#include "harness/render.hpp"
#include "harness/stats.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using namespace harness;

TEST(Stats, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
  EXPECT_NEAR(geomean({1.1, 1.2, 1.3}), std::cbrt(1.1 * 1.2 * 1.3), 1e-12);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  EXPECT_THROW(geomean({1.0, -2.0}), std::invalid_argument);
}

TEST(Stats, Median) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, MeanMinMax) {
  const std::vector<double> v = {1.0, 2.0, 6.0};
  EXPECT_DOUBLE_EQ(mean(v), 3.0);
  EXPECT_DOUBLE_EQ(min_of(v), 1.0);
  EXPECT_DOUBLE_EQ(max_of(v), 6.0);
}

TEST(Stats, SpeedupBucketsMatchPaperBreakpoints) {
  // One value per bucket edge case: 0.85 (slowdown>10%), 0.95, 1.05,
  // 1.30, 1.70, 2.50.
  const auto buckets = speedup_buckets({0.85, 0.95, 1.05, 1.30, 1.70, 2.50});
  ASSERT_EQ(buckets.size(), 6u);
  for (const auto& b : buckets) {
    EXPECT_EQ(b.count, 1) << b.label;
    EXPECT_NEAR(b.percent, 100.0 / 6.0, 1e-9);
  }
}

TEST(Stats, SpeedupBucketBoundariesAreHalfOpen) {
  const auto buckets = speedup_buckets({1.0, 1.10, 1.50, 2.00});
  EXPECT_EQ(buckets[2].count, 1);  // 1.00 in "speedup 0%~10%"
  EXPECT_EQ(buckets[3].count, 1);  // 1.10 in "10%~50%"
  EXPECT_EQ(buckets[4].count, 1);  // 1.50 in "50%~100%"
  EXPECT_EQ(buckets[5].count, 1);  // 2.00 in ">100%"
}

TEST(Stats, RatioBuckets) {
  const auto buckets = ratio_buckets({0.5, 4.9, 5.0, 9.9, 50.0, 200.0});
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0].count, 2);
  EXPECT_EQ(buckets[1].count, 2);
  EXPECT_EQ(buckets[2].count, 1);
  EXPECT_EQ(buckets[3].count, 1);
}

TEST(Render, TableAlignsColumns) {
  const std::string t = render_table({"name", "value"}, {{"a", "1"}, {"longer", "22"}});
  std::istringstream ss(t);
  std::string l1, l2, l3, l4;
  std::getline(ss, l1);
  std::getline(ss, l2);
  std::getline(ss, l3);
  std::getline(ss, l4);
  EXPECT_NE(l1.find("name"), std::string::npos);
  EXPECT_NE(l2.find("---"), std::string::npos);
  EXPECT_NE(l4.find("longer"), std::string::npos);
  // Column start of "value" and "22" must align.
  EXPECT_EQ(l1.find("value"), l4.find("22"));
}

TEST(Render, BucketTableShowsAllColumns) {
  const auto b512 = speedup_buckets({1.2, 1.3});
  const auto b1024 = speedup_buckets({0.95});
  const std::string t = render_bucket_table("Table X", {"K=512", "K=1024"}, {b512, b1024});
  EXPECT_NE(t.find("Table X"), std::string::npos);
  EXPECT_NE(t.find("K=512"), std::string::npos);
  EXPECT_NE(t.find("K=1024"), std::string::npos);
  EXPECT_NE(t.find("100.0% (2)"), std::string::npos);  // both in 10~50 bucket
}

TEST(Render, LineChartPlotsAllSeries) {
  const std::string chart = render_line_chart(
      "Fig N", "GFLOPS",
      {{"a", {1.0, 2.0, 3.0}, 'o'}, {"b", {3.0, 2.0, 1.0}, '*'}}, 40, 10, false);
  EXPECT_NE(chart.find("Fig N"), std::string::npos);
  EXPECT_NE(chart.find('o'), std::string::npos);
  EXPECT_NE(chart.find('*'), std::string::npos);
}

TEST(Render, LineChartHandlesEmptyAndLog) {
  EXPECT_NE(render_line_chart("empty", "y", {}, 40, 10, false).find("(no data)"),
            std::string::npos);
  const std::string log_chart =
      render_line_chart("log", "t", {{"s", {0.001, 1.0, 1000.0}, '+'}}, 40, 10, true);
  EXPECT_NE(log_chart.find("log scale"), std::string::npos);
}

TEST(Render, ScatterPlacesQuadrants) {
  // Glyphs chosen to not collide with axis-label text.
  const std::string s = render_scatter("Fig 9", "dx", "dy",
                                       {{0.5, 0.5, '@'}, {-0.5, -0.5, '#'}}, 21, 11);
  EXPECT_NE(s.find('@'), std::string::npos);
  EXPECT_NE(s.find('#'), std::string::npos);
  // '@' must appear before '#' scanning top-to-bottom (positive y on top).
  EXPECT_LT(s.find('@'), s.find('#'));
}

TEST(Render, CsvQuotesSpecialCharacters) {
  const test::TempFile file("csv_test.csv");
  write_csv(file.path, {"a", "b"}, {{"plain", "has,comma"}, {"has\"quote", "x"}});
  std::ifstream f(file.path);
  std::string header, r1, r2;
  std::getline(f, header);
  std::getline(f, r1);
  std::getline(f, r2);
  EXPECT_EQ(header, "a,b");
  EXPECT_EQ(r1, "plain,\"has,comma\"");
  EXPECT_EQ(r2, "\"has\"\"quote\",x");
}

TEST(Render, FmtPrecision) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

}  // namespace
}  // namespace rrspmm
