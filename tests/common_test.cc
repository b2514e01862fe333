#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace fuzzydb {
namespace {

// ------------------------------ Status --------------------------------

TEST(StatusTest, OkByDefault) {
  const Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  const Status st = Status::NotFound("missing thing");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.ToString(), "NotFound: missing thing");
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> good = 42;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);

  Result<int> bad = Status::IoError("disk on fire");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kIoError);
}

Result<int> Doubler(Result<int> input) {
  FUZZYDB_ASSIGN_OR_RETURN(int v, std::move(input));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  ASSERT_TRUE(Doubler(21).ok());
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_FALSE(Doubler(Status::Internal("x")).ok());
}

// ------------------------------- Rng -----------------------------------

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliRoughlyFair) {
  Rng rng(11);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.Bernoulli(0.25);
  EXPECT_NEAR(heads / 10000.0, 0.25, 0.02);
}

// --------------------------- string_util --------------------------------

TEST(StringUtilTest, CaseConversions) {
  EXPECT_EQ(ToLower("MiXeD_42"), "mixed_42");
  EXPECT_EQ(ToUpper("MiXeD_42"), "MIXED_42");
  EXPECT_TRUE(EqualsIgnoreCase("Select", "sELECT"));
  EXPECT_FALSE(EqualsIgnoreCase("Select", "Selec"));
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(42.0), "42");
  EXPECT_EQ(FormatDouble(-3.0), "-3");
  EXPECT_EQ(FormatDouble(2.5), "2.5");
  EXPECT_EQ(FormatDouble(0.125), "0.125");
}

// printf's renderings the formatters must reproduce byte for byte.
std::string PrintfFormatDouble(double v, int precision) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  }
  return buf;
}

std::string PrintfRoundTrip(double v) {
  char buf[64];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

void ExpectPrintfBytes(double v) {
  for (const int precision : {1, 3, 4, 6, 10, 15, 16, 17}) {
    ASSERT_EQ(FormatDouble(v, precision), PrintfFormatDouble(v, precision))
        << std::hexfloat << v << " precision " << precision;
  }
  std::string round_trip;
  AppendRoundTripDouble(v, &round_trip);
  ASSERT_EQ(round_trip, PrintfRoundTrip(v)) << std::hexfloat << v;
}

TEST(StringUtilTest, FormattersMatchPrintfOnEdgeCases) {
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 0.3, 1.0 / 3, 2.0 / 3, 0.95, 9.5,
      1e-5, 1e-4, 0.0001, 9.9999e-5, 1e8, 1e15, 1e15 - 1, 1e15 + 2, -1e15,
      999999999999999.0, 1e16, 1e17, 1e21, 1e22, 123456.5, 1234565.0,
      0.1234565, 9.9999995, 999999.5, 0.91999999999999882,
      DBL_MIN, DBL_TRUE_MIN, 1e-310, DBL_MAX, -DBL_MAX,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  // Powers of two (lopsided rounding intervals) and of ten, with their
  // neighbours; integers either side of 1e15.
  for (int e = -1074; e <= 1023; e += 7) values.push_back(std::ldexp(1.0, e));
  for (int e = -300; e <= 300; e += 3) values.push_back(std::pow(10.0, e));
  for (int k = -3; k <= 3; ++k) values.push_back(1e15 + k);
  for (const double v : std::vector<double>(values)) {
    values.push_back(std::nextafter(v, 0.0));
    values.push_back(std::nextafter(v, HUGE_VAL));
  }
  for (const double v : values) ExpectPrintfBytes(v);
}

TEST(StringUtilTest, FormattersMatchPrintfOnSeededDoubles) {
  Rng rng(0x5eed);
  char buf[64];
  for (int i = 0; i < 25000; ++i) {
    // Any bit pattern; a membership degree; a ratio of small integers.
    ExpectPrintfBytes(std::bit_cast<double>(rng.Next()));
    ExpectPrintfBytes(rng.UniformDouble());
    ExpectPrintfBytes(static_cast<double>(rng.UniformInt(0, 999)) /
                      static_cast<double>(rng.UniformInt(1, 1000)));
    // A 15-, 16- or 17-digit decimal across 40 decades.
    std::snprintf(buf, sizeof(buf), "%.*e",
                  static_cast<int>(rng.UniformInt(14, 16)),
                  rng.UniformDouble(-5, 5) *
                      std::pow(10.0, rng.UniformInt(-20, 20)));
    ExpectPrintfBytes(std::strtod(buf, nullptr));
  }
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"a"}, ", "), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, " AND "), "a AND b AND c");
}

}  // namespace
}  // namespace fuzzydb
