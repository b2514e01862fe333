#include "fuzzy/interval_order.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"

namespace fuzzydb {
namespace {

TEST(IntervalOrderTest, PaperExample31) {
  // Example 3.1: r1.X, r2.X, r3.X represent [30,35], [20,28], [20,35];
  // s1.X, s2.X, s3.X represent [32,34], [20,25], [30,40].
  const Trapezoid r1 = Trapezoid::Interval(30, 35);
  const Trapezoid r2 = Trapezoid::Interval(20, 28);
  const Trapezoid r3 = Trapezoid::Interval(20, 35);
  // [20,28] < [20,35] < [30,35]  =>  r2 < r3 < r1.
  EXPECT_TRUE(IntervalOrderLess(r2, r3));
  EXPECT_TRUE(IntervalOrderLess(r3, r1));
  EXPECT_TRUE(IntervalOrderLess(r2, r1));
  EXPECT_FALSE(IntervalOrderLess(r1, r3));

  const Trapezoid s1 = Trapezoid::Interval(32, 34);
  const Trapezoid s2 = Trapezoid::Interval(20, 25);
  const Trapezoid s3 = Trapezoid::Interval(30, 40);
  // s2 < s3 < s1.
  EXPECT_TRUE(IntervalOrderLess(s2, s3));
  EXPECT_TRUE(IntervalOrderLess(s3, s1));
}

TEST(IntervalOrderTest, TiesOnBeginBreakOnEnd) {
  const Trapezoid narrow = Trapezoid::Interval(10, 12);
  const Trapezoid wide = Trapezoid::Interval(10, 20);
  EXPECT_TRUE(IntervalOrderLess(narrow, wide));
  EXPECT_FALSE(IntervalOrderLess(wide, narrow));
  EXPECT_EQ(CompareIntervalOrder(narrow, narrow), 0);
}

TEST(IntervalOrderTest, CrispValuesOrderAsNumbers) {
  EXPECT_TRUE(IntervalOrderLess(Trapezoid::Crisp(3), Trapezoid::Crisp(4)));
  EXPECT_FALSE(IntervalOrderLess(Trapezoid::Crisp(4), Trapezoid::Crisp(3)));
  EXPECT_EQ(CompareIntervalOrder(Trapezoid::Crisp(4), Trapezoid::Crisp(4)), 0);
}

TEST(IntervalOrderTest, IsStrictWeakOrdering) {
  Rng rng(7);
  std::vector<Trapezoid> values;
  for (int i = 0; i < 50; ++i) {
    double c[4];
    for (double& v : c) v = static_cast<double>(rng.UniformInt(0, 20));
    std::sort(c, c + 4);
    values.push_back(Trapezoid(c[0], c[1], c[2], c[3]));
  }
  // Irreflexivity and asymmetry.
  for (const auto& x : values) {
    EXPECT_FALSE(IntervalOrderLess(x, x));
    for (const auto& y : values) {
      if (IntervalOrderLess(x, y)) EXPECT_FALSE(IntervalOrderLess(y, x));
      // Transitivity.
      for (const auto& z : values) {
        if (IntervalOrderLess(x, y) && IntervalOrderLess(y, z)) {
          EXPECT_TRUE(IntervalOrderLess(x, z));
        }
      }
    }
  }
}

TEST(IntervalOrderTest, SupportsIntersect) {
  EXPECT_TRUE(SupportsIntersect(Trapezoid::Interval(0, 5),
                                Trapezoid::Interval(5, 10)));
  EXPECT_FALSE(SupportsIntersect(Trapezoid::Interval(0, 5),
                                 Trapezoid::Interval(6, 10)));
  EXPECT_TRUE(SupportsIntersect(Trapezoid::Interval(0, 10),
                                Trapezoid::Crisp(7)));
}

TEST(IntervalOrderTest, SupportEntirelyBefore) {
  EXPECT_TRUE(SupportEntirelyBefore(Trapezoid::Interval(0, 5),
                                    Trapezoid::Interval(6, 10)));
  EXPECT_FALSE(SupportEntirelyBefore(Trapezoid::Interval(0, 5),
                                     Trapezoid::Interval(5, 10)));
  EXPECT_FALSE(SupportEntirelyBefore(Trapezoid::Interval(6, 10),
                                     Trapezoid::Interval(0, 5)));
}

TEST(IntervalOrderTest, ZeroEqualityDegreeOutsideIntersection) {
  // "For any two values a and b, d(a = b) = 0 if their intervals do not
  // intersect" -- the property that makes the merge-join window sound.
  const Trapezoid a = Trapezoid::Interval(0, 5);
  const Trapezoid b = Trapezoid::Interval(6, 10);
  EXPECT_FALSE(SupportsIntersect(a, b));
}

// ---- RngCursor: the window scan of Definition 3.2 --------------------

// One seeded key of a mix: crisp points, narrow and wide supports, and
// runs of values sharing a support begin (interval-order ties broken
// only by the end).
Trapezoid RandomKey(Rng* rng) {
  const double begin = static_cast<double>(rng->UniformInt(0, 200)) / 2.0;
  switch (rng->UniformInt(0, 3)) {
    case 0:
      return Trapezoid::Crisp(begin);
    case 1: {
      const double w = rng->UniformDouble(0.0, 1.5);
      return Trapezoid(begin, begin + w / 3, begin + w / 2, begin + w);
    }
    case 2: {
      const double w = rng->UniformDouble(5.0, 40.0);
      return Trapezoid(begin, begin + w / 4, begin + w / 2, begin + w);
    }
    default: {
      const double b = static_cast<double>(rng->UniformInt(0, 4)) * 25.0;
      return Trapezoid::Interval(b, b + rng->UniformDouble(0.0, 10.0));
    }
  }
}

std::vector<Trapezoid> SortedKeys(Rng* rng, size_t n) {
  std::vector<Trapezoid> keys;
  for (size_t i = 0; i < n; ++i) keys.push_back(RandomKey(rng));
  std::sort(keys.begin(), keys.end(), IntervalOrderLess);
  return keys;
}

std::vector<SupportBounds> BoundsOf(const std::vector<Trapezoid>& keys) {
  std::vector<SupportBounds> bounds;
  for (const Trapezoid& k : keys) bounds.push_back(SupportBounds::Of(k));
  return bounds;
}

struct ScanResult {
  std::vector<RngWindow> windows;
  uint64_t comparisons = 0;
  uint64_t pairs = 0;
};

// The window loop as the merge joins wrote it before RngCursor, kept as
// the reference for the cursor's windows and counts.
ScanResult ReferenceScan(const std::vector<Trapezoid>& outer,
                         const std::vector<Trapezoid>& inner) {
  ScanResult out;
  size_t window_start = 0;
  for (const Trapezoid& rk : outer) {
    while (window_start < inner.size()) {
      ++out.comparisons;
      if (inner[window_start].SupportEnd() < rk.SupportBegin()) {
        ++window_start;
      } else {
        break;
      }
    }
    size_t i = window_start;
    for (; i < inner.size(); ++i) {
      ++out.comparisons;
      if (inner[i].SupportBegin() > rk.SupportEnd()) break;
      ++out.pairs;
    }
    out.windows.push_back(RngWindow{window_start, i});
  }
  return out;
}

// The outer keys scanned in morsels of `morsel` keys, each morsel's
// cursor started at the prefix-max re-seek of the key before it.
ScanResult MorselScan(const std::vector<SupportBounds>& outer,
                      const std::vector<SupportBounds>& inner,
                      size_t morsel) {
  ScanResult out;
  const std::vector<double> end_max = PrefixMaxEnds(inner);
  for (size_t begin = 0; begin < outer.size(); begin += morsel) {
    const size_t start =
        begin == 0 ? 0 : RngSeekStart(end_max, outer[begin - 1].begin);
    RngCursor cursor(inner, &out.comparisons, start);
    for (size_t r = begin; r < std::min(outer.size(), begin + morsel); ++r) {
      const RngWindow w = cursor.Next(outer[r]);
      out.pairs += w.hi - w.lo;
      out.windows.push_back(w);
    }
  }
  return out;
}

TEST(RngCursorTest, MatchesTheReferenceLoopAndCoversEveryMeetingPair) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const std::vector<Trapezoid> outer =
        SortedKeys(&rng, static_cast<size_t>(rng.UniformInt(0, 120)));
    const std::vector<Trapezoid> inner =
        SortedKeys(&rng, static_cast<size_t>(rng.UniformInt(0, 120)));
    const ScanResult expected = ReferenceScan(outer, inner);
    const ScanResult serial =
        MorselScan(BoundsOf(outer), BoundsOf(inner), outer.size() + 1);
    ASSERT_EQ(serial.windows.size(), outer.size());
    EXPECT_EQ(serial.comparisons, expected.comparisons) << "seed " << seed;
    EXPECT_EQ(serial.pairs, expected.pairs) << "seed " << seed;
    for (size_t r = 0; r < outer.size(); ++r) {
      const RngWindow w = serial.windows[r];
      EXPECT_EQ(w.lo, expected.windows[r].lo) << "seed " << seed;
      EXPECT_EQ(w.hi, expected.windows[r].hi) << "seed " << seed;
      for (size_t i = 0; i < inner.size(); ++i) {
        if (SupportsIntersect(outer[r], inner[i])) {
          EXPECT_TRUE(i >= w.lo && i < w.hi)
              << "seed " << seed << ": " << outer[r].ToString() << " meets "
              << inner[i].ToString() << " outside [" << w.lo << ", " << w.hi
              << ")";
        }
      }
    }
  }
}

TEST(RngCursorTest, PrefixMaxReseekReproducesTheSerialScan) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed + 1000);
    const std::vector<SupportBounds> outer =
        BoundsOf(SortedKeys(&rng, static_cast<size_t>(rng.UniformInt(1, 150))));
    const std::vector<SupportBounds> inner =
        BoundsOf(SortedKeys(&rng, static_cast<size_t>(rng.UniformInt(0, 150))));
    const ScanResult serial = MorselScan(outer, inner, outer.size());
    for (size_t morsel : {1u, 2u, 3u, 7u, 16u}) {
      const ScanResult cut = MorselScan(outer, inner, morsel);
      EXPECT_EQ(cut.comparisons, serial.comparisons)
          << "seed " << seed << " morsel " << morsel;
      EXPECT_EQ(cut.pairs, serial.pairs);
      for (size_t r = 0; r < outer.size(); ++r) {
        EXPECT_EQ(cut.windows[r].lo, serial.windows[r].lo)
            << "seed " << seed << " morsel " << morsel << " r " << r;
        EXPECT_EQ(cut.windows[r].hi, serial.windows[r].hi);
      }
    }
  }
}

}  // namespace
}  // namespace fuzzydb
